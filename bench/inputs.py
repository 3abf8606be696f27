"""Seeded surd inputs, drawn independently of the CLI corpus generator.

Coefficients come from random.Random(seed).randint(-bound, bound) in the
order P.a, P.b, Q.a, Q.b, D.a, D.b, S.a, S.b (the order the README documents
for the corpus).  A draw is kept when it forms a positive surd outside Q and
outside √2·Q; nothing is filtered by periodicity or by size, so a workload
sees the same mix of inputs the generator produces.
"""

from __future__ import annotations

import random
from typing import Iterator

from h4approx import Surd, ZRt2


def surd_stream(seed: int, coeff_bound: int) -> Iterator[Surd]:
    rng = random.Random(seed)
    while True:
        c = [rng.randint(-coeff_bound, coeff_bound) for _ in range(8)]
        try:
            s = Surd(ZRt2(c[0], c[1]), ZRt2(c[2], c[3]), ZRt2(c[4], c[5]), ZRt2(c[6], c[7]))
        except ValueError:
            continue
        if s.sign() <= 0 or s.is_rational() or s.is_sqrt2_rational():
            continue
        yield s


def surd_literal(s: Surd) -> str:
    """The CLI's surd JSON grammar, with compact separators."""
    parts = ",".join(f'"{k}":[{z.a},{z.b}]' for k, z in zip("PQDS", (s.P, s.Q, s.D, s.S)))
    return "{" + parts + "}"
