#!/usr/bin/env python3
"""Record the reference digests in goldens.json from the default seed.

    python3 bench/record_goldens.py

The digests pin exact results and CLI stdout as the current sources produce
them; run.py compares every job whose input appears here.  Re-recording
accepts whatever the sources now print, so do it only for a deliberate,
documented change of output.
"""

from __future__ import annotations

import json
import sys
from itertools import islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from tracing import NULL  # noqa: E402
from workloads import DEFAULT_SEED, GOLDENS_PATH, ROTATION, WORKLOADS  # noqa: E402

JOBS = {"deep_walk": 120, "wide_shallow": 250, "cli_mix": 6 * len(ROTATION)}


def main() -> None:
    goldens = {}
    for name, count in JOBS.items():
        wl = WORKLOADS[name](DEFAULT_SEED)
        wl.goldens = {}
        table = goldens[name] = {}
        for inp in islice(wl.inputs(), count):
            rec = wl.record(inp, wl.run(inp, NULL))
            if not rec.digest:
                print(f"{name}: no digest for {rec.key} ({rec.note})", file=sys.stderr)
            elif rec.digest:
                table[rec.key] = rec.digest
        print(f"{name}: {len(table)} digests", file=sys.stderr)
    with open(GOLDENS_PATH, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
