"""The README's `h4` examples and one case per remaining output branch,
pinned in text, json and csv by sha256 digest.

Every command of the CLI appears here at least once, so a refactor of the
library or of the renderers that changes a single output byte fails.  The
digests live in cli_goldens.json.  To re-record them after a deliberate,
documented change of output:

    PYTHONPATH=src python3 tests/test_cli_goldens.py

It prints each case whose digest it adds, changes or drops before writing.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from h4approx.cli import COMMANDS, run

GOLDENS_PATH = Path(__file__).with_name("cli_goldens.json")

README_EXAMPLES = [
    "expand --alpha surd17 --digits 12",
    "expand --stream four-blocks --digits 16",
    "period --alpha surd17",
    "rosen --alpha surd17 --digits 5",
    "dual-rosen --alpha one --digits 5",
    "best --alpha surd17 --count 4",
    "oracle --alpha surd17 --max-q 30",
    "legendre --alpha surd17 --p 0,2 --q 1,0",
    "k --alpha one --exact",
    "k --alpha surd17 --numeric --window 60 --records 400",
    "dirichlet --alpha surd17 --n-max 500",
    "optimality --stream A --i-max 5",
    "corpus --size 10 --seed 1 --coeff-bound 5",
]
# Output branches the README examples do not reach.
SQRT2_OVER_3 = '{"P":[0,1],"Q":[0,0],"D":[1,0],"S":[3,0]}'
BRANCH_EXAMPLES = [
    f"expand --alpha {SQRT2_OVER_3} --digits 12",  # terminated, with completions
    f"period --alpha {SQRT2_OVER_3}",  # finite word
    "k --alpha stream:three-powers --numeric --window 10 --records 30",  # no exact values
    "optimality --stream B --i-max 3",
    "best --alpha surd17 --max-q 200",
    "dual-rosen --alpha surd17 --digits 6",
    "k --alpha surd17 --exact",
    'k --alpha {"P":[16,-3],"Q":[0,0],"D":[1,0],"S":[4,0]} --exact',  # period 107
]
FORMATS = ["text", "json", "csv"]
CASES = [
    f"{example} --format {fmt}"
    for example in README_EXAMPLES + BRANCH_EXAMPLES
    for fmt in FORMATS
]


def run_digest(case: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(case.split())
    assert code == 0, f"{case!r} exited {code}"
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", CASES)
def test_readme_example_output(case):
    goldens = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))
    assert run_digest(case) == goldens[case]


# Digests of every case, printed as JSON by a child that imports this module.
OPTIMIZED_CHILD = """
import json, sys
from tests.test_cli_goldens import CASES, run_digest
print(json.dumps({"optimize": sys.flags.optimize, "digests": {c: run_digest(c) for c in CASES}}))
"""


def test_goldens_under_python_O():
    """Every case again in one `python -O` child, where asserts vanish: the
    output must not depend on them."""
    root = Path(__file__).resolve().parent.parent
    path = [str(root / "src"), str(root), *filter(None, [os.environ.get("PYTHONPATH")])]
    proc = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHILD],
        cwd=root, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout)
    assert result["optimize"] == 1
    assert result["digests"] == json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))


def test_goldens_cover_every_case():
    goldens = json.loads(GOLDENS_PATH.read_text(encoding="utf-8"))
    assert sorted(goldens) == sorted(CASES)


def test_every_command_has_a_golden():
    pinned = {case.split()[0] for case in CASES}
    assert sorted(set(COMMANDS) - pinned) == []


if __name__ == "__main__":
    table = {case: run_digest(case) for case in CASES}
    old = json.loads(GOLDENS_PATH.read_text(encoding="utf-8")) if GOLDENS_PATH.exists() else {}
    for case in sorted(table.keys() | old.keys()):
        if case not in old:
            print(f"added:   {case}")
        elif case not in table:
            print(f"dropped: {case}")
        elif table[case] != old[case]:
            print(f"changed: {case}")
    GOLDENS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(table)} digests written to {GOLDENS_PATH.name}")
