"""The package's public names: every export resolves, star-import works."""

from __future__ import annotations

import h4approx


def test_every_export_resolves():
    missing = [name for name in h4approx.__all__ if not hasattr(h4approx, name)]
    assert missing == []
    assert len(set(h4approx.__all__)) == len(h4approx.__all__)


def test_star_import():
    namespace: dict = {}
    exec("from h4approx import *", namespace)
    assert set(h4approx.__all__) <= set(namespace)
