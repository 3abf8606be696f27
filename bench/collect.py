#!/usr/bin/env python3
"""Run every workload at seeds 1 to 10 and write bench/BENCH_<label>.json.

    python3 bench/collect.py --label seed

For each workload: one untraced run per seed (run_seconds from
BENCHMARK.json), then one traced run at seed 1.  The file is written fresh
and records each run, the median and quartiles of every end-to-end metric
with the spread (q3 - q1) / median, the per-layer metrics, and the machine,
Python version and git sha they were measured on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("deep_walk", "wide_shallow", "cli_mix")
SEEDS = range(1, 11)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The printed report also carries what the metrics object does not:
    # the tail percentile and job count, peak RSS, fail_frac, outcomes.
    result.update(seed=seed, exit=proc.returncode, report=lines[:-1])
    return result


def summary(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"platform": platform.platform(), "cpu": model or platform.processor(), "cpus": os.cpu_count()}


def git_sha() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    report = {"label": args.label, "git_sha": git_sha(), "machine": machine(),
              "python": platform.python_version(), "run_seconds": seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs = []
        for seed in SEEDS:
            runs.append(run(workload, seed, seconds, 0))
            m = runs[-1]["metrics"]
            print(f"{workload} seed {seed}: " + "  ".join(f"{k} {v['value']:.4g}" for k, v in m.items()),
                  flush=True)
        traced = run(workload, SEEDS[0], seconds, 1)
        report["workloads"][workload] = {"summary": summary(runs), "runs": runs, "traced": traced}
        for name, s in report["workloads"][workload]["summary"].items():
            print(f"  {workload} {name}: median {s['median']:.5g} {s['unit']}, spread {s['spread']:.3f}",
                  flush=True)
        for name, m in traced["metrics"].items():
            print(f"  {workload} traced {name}: {m['value']:.6g} {m['unit']}", flush=True)
    with open(BENCH_DIR / f"BENCH_{args.label}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
