#!/usr/bin/env python3
"""Benchmark for h4approx: one closed-loop client, one process, no threads.

    python3 bench/run.py --workload deep_walk --seed 3 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json): deep_walk, wide_shallow,
cli_mix.  Inputs come from --seed.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.

--trace 0 runs jobs back to back for --seconds seconds of job time and
reports the end-to-end metrics.  Output checks run after each job, outside
the timed region.  Every job's work is bounded by its input (capped walks),
not by a clock, so the same seed runs the same work on every machine.

--trace 1 runs the workload's fixed traced job set four times: untraced,
with spans around calls into each module, untraced again, and under
cProfile.  It reports the per-layer metrics, writes the spans to bench/out/,
and re-runs the profiled pass in a child process with another hash seed to
check that every count repeats exactly.

Exit status is 0 when every output check passed, 1 on a wrong answer, a
job that raised or a count that did not repeat, 2 when the repository
sources are missing.  `failed` counts the jobs with such a problem.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from itertools import chain, islice
from pathlib import Path

from tracing import NULL, ProfileTotals, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_INPUTS = 64  # inputs generated during set-up; the rest lazily, untimed
SETUP_SAMPLES = 9  # set-ups measured per run: this process plus children
STARTUP_SAMPLES = 5
SCALING_DEPTHS = (500, 1000, 2000)
REPEATABLE_COUNTS = (
    "exact_field.surd_new", "exact_field.zrt2_mul", "exact_field.enclosures",
    "exact_field.max_coeff_bits", "hecke_group.mat_mul", "hecke_group.canonicalize",
    "h4_expansion.digits_surd", "h4_expansion.digits_stream", "h4_expansion.tail_queries",
    "best_approx.walk_steps", "best_approx.oracle_denominators", "cli.stdout_bytes",
    "cli.budget_probe_misses",
)
MODULES = ("exact_field", "hecke_group", "h4_expansion", "rosen_cf", "best_approx", "uniform_approx", "cli")


def set_up(workload: str, seed: int):
    """Import, input generation and warm-up: everything before the loop."""
    import workloads

    wl = workloads.WORKLOADS[workload](seed)
    stream = wl.inputs()
    first = list(islice(stream, SETUP_INPUTS))
    problems = wl.warm_up()
    return wl, chain(first, stream), problems


def run_job(wl, inp, tr, profiler=None, want_bits=False):
    """One job: (seconds, record).  Only wl.run is timed (and profiled).  A
    job that raises is a wrong answer, and the run reports "correct": false."""
    from workloads import JobRecord

    raw = rec = None
    t0 = time.perf_counter()
    if profiler is not None:
        profiler.enable()
    try:
        with tr.span("job"):
            raw = wl.run(inp, tr)
    except Exception:
        rec = JobRecord(wl.key(inp), note="raised", problems=[f"{wl.key(inp)}: {traceback.format_exc()}"])
    finally:
        if profiler is not None:
            profiler.disable()
    dt = time.perf_counter() - t0
    return dt, rec or wl.record(inp, raw, want_bits)


def timed_loop(wl, inputs, seconds: float, between=None, marks: int = 0):
    """Jobs back to back for `seconds` of job time; `between()` runs, untimed,
    at `marks` evenly spaced points of that time."""
    times, records, elapsed, done = [], [], 0.0, 0
    for inp in inputs:
        if elapsed >= seconds:
            break
        while done < marks and elapsed >= seconds * done / marks:
            between()
            done += 1
        dt, rec = run_job(wl, inp, NULL)
        times.append(dt)
        records.append(rec)
        elapsed += dt
    return times, records


def fixed_pass(wl, jobs, tr, profiler=None, want_bits=False):
    times, records = [], []
    for i, inp in enumerate(jobs):
        tr.job = i
        dt, rec = run_job(wl, inp, tr, profiler, want_bits)
        times.append(dt)
        records.append(rec)
    return times, records


def windowed_rate(times: list[float], width: int) -> tuple[float, int]:
    """Median over consecutive windows of `width` jobs of the jobs completed
    per second in the window, and the window count.  Printed beside the
    gated whole-loop rate: a rare slow input moves one window, so the gap
    between the two shows how much of the loop the slow inputs took."""
    rates = [width / sum(times[i:i + width]) for i in range(0, len(times) - width + 1, width)]
    if not rates:  # fewer jobs than one window
        return len(times) / sum(times), 0
    return statistics.median(rates), len(rates)


def tail_of(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with 10 jobs beyond it."""
    s = sorted(times)
    if len(s) < 11:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def child_json(argv: list[str], env: dict | None = None) -> dict:
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=170, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def self_argv(args, *extra: str) -> list[str]:
    return [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), *extra]


def report(problems: list[str], attempted: int, failed: int, metrics: dict) -> int:
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result, sort_keys=True))
    return 0 if not problems else 1


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_metrics(metrics: dict, notes: dict) -> None:
    for name, m in metrics.items():
        extra = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:34s} {m['value']:>14.6g} {m['unit']}{extra}")


# --- untraced run -------------------------------------------------------------

def end_to_end(args, wl, inputs, setup_s: float, problems: list[str]) -> int:
    setups = [setup_s]

    def child_set_up():
        setups.append(child_json(self_argv(args, "--setup-only"))["setup_s"])

    # The other set-ups run in children spread over the timed loop, so that
    # they sample the machine as the jobs do.  cli_mix runs them after the
    # loop: its peak RSS is the largest of all the children waited for.
    spread = SETUP_SAMPLES - 1 if wl.in_process else 0
    times, records = timed_loop(wl, inputs, args.seconds, child_set_up, spread)
    if wl.name == "cli_mix":
        peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        wl.cross_check(records)
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for rec in records:
        problems += rec.problems
    while len(setups) < SETUP_SAMPLES:
        child_set_up()
    failed = sum(bool(rec.problems) for rec in records)
    # jobs_per_s counts every job of the loop, slow and capped ones too.
    # The per-job statistics use whole windows only, so that every run sees
    # the same job mix; the trailing partial window still counts in the rate.
    width = wl.rate_window
    timed = times[:len(times) - len(times) % width] or times
    tail_sample = timed[:wl.tail_jobs] if wl.tail_jobs else timed
    tail, pct = tail_of(tail_sample)
    windowed, windows = windowed_rate(timed, width)
    metrics = {
        "jobs_per_s": metric(len(times) / sum(times), "1/s"),
        "job_p50_s": metric(statistics.median(timed), "s"),
        "setup_s": metric(statistics.median(setups), "s"),
    }
    print(f"workload {wl.name}  seed {args.seed}  untraced  {len(times)} jobs in {sum(times):.3f} s of job time")
    print_metrics(metrics, {
        "jobs_per_s": f"whole loop; median of {windows} windows of {width} jobs {windowed:.4g}/s",
        "setup_s": f"median of {len(setups)} set-ups",
    })
    # Printed, not gated.  The slowest tenth of wide_shallow jobs are inputs
    # with long digit runs, and the tail percentile sits on the edge of that
    # group, so it jumped by 30% from seed to seed; peak RSS on wide_shallow is
    # set by the rare input whose walk runs to the cap.  fail_frac follows
    # the issue's definition, in which the budget probe's wrong exit code is
    # a failed job; the result line's `failed` leaves that known defect out.
    beyond = f"p{pct:.1f} of {len(tail_sample)} jobs, 10 beyond it" if len(tail_sample) > 10 else \
        f"slowest of only {len(tail_sample)} jobs"
    print(f"{'job_tail_s':34s} {tail:>14.6g} s  ({beyond})")
    print(f"{'peak_rss_mib':34s} {peak_kib / 1024:>14.6g} MiB"
          f"  ({'largest child' if wl.name == 'cli_mix' else 'this process'})")
    misses = sum(rec.known_defect for rec in records)
    print(f"{'fail_frac':34s} {(failed + misses) / len(times):>14.6g} ({failed + misses}/{len(times)}:"
          f" {failed} with a problem, {misses} budget probes that did not exit 3)")
    for note, count in sorted(Counter(r.note for r in records).items()):
        print(f"  outcome {note or 'ok'}: {count}")
    print_probe(records)
    return report(problems, len(times), failed, metrics)


def print_probe(records) -> None:
    """The budget probe's known defect, which `failed` does not count."""
    from workloads import PROBE

    probes = [r for r in records if r.index == PROBE]
    misses = [r for r in probes if r.known_defect]
    if misses:
        print(f"KNOWN DEFECT: budget probe {misses[0].key}: {misses[0].note} in {len(misses)} "
              f"of {len(probes)} runs of it (cap ignored; ROADMAP direction 4)")


# --- traced run ---------------------------------------------------------------

def profiled_counts(wl, jobs):
    """The cProfile pass: (ProfileTotals, times, records, counts)."""
    profiler = cProfile.Profile()
    times, records = fixed_pass(wl, jobs, NULL, profiler, want_bits=True)
    profiler.create_stats()
    totals = ProfileTotals(profiler.stats, str(SRC / "h4approx"))
    return totals, times, records, counts_of(totals, records)


def counts_of(totals, records) -> dict:
    import h4approx.best_approx as ba
    import h4approx.exact_field as ef
    import h4approx.h4_expansion as hx
    import h4approx.hecke_group as hg
    import h4approx.rosen_cf as rc

    def fn(owner, dotted):
        obj = owner
        for part in dotted.split("."):
            obj = getattr(obj, part, None)
        return obj if hasattr(obj, "__code__") else None

    bits = [r.bits for r in records if r.bits is not None]
    return {
        "exact_field.surd_new": totals.calls(fn(ef, "Surd.__post_init__")),
        "exact_field.zrt2_mul": totals.calls(fn(ef, "ZRt2.__mul__")),
        "exact_field.enclosures": totals.calls(fn(ef, "Surd.enclosure"), fn(ef, "QRt2.enclosure")),
        "exact_field.max_coeff_bits": max(bits, default=0),
        "hecke_group.mat_mul": totals.calls(fn(hg, "Mat2.__mul__")),
        "hecke_group.canonicalize": totals.calls(fn(hg, "canonicalize")),
        "h4_expansion.digits_surd": totals.calls(fn(hx, "next_digit")),
        "h4_expansion.digits_stream": totals.calls(
            fn(hx, "RuleStream.digit"), fn(hx, "PeriodicStream.digit"), fn(hx, "FiniteWord.digit")
        ),
        "h4_expansion.tail_queries": totals.calls(
            fn(hx, "Expansion.tail"), fn(hx, "Expansion.tail_cmp_one"), fn(hx, "Expansion.tail_bounds")
        ),
        "best_approx.walk_steps": totals.calls_from(fn(rc, "select_M"), fn(ba, "best_approximations")),
        "best_approx.oracle_denominators": totals.calls_from(
            fn(hg, "numerators_near"), fn(ba, "oracle_best_approximations")
        ),
        "cli.stdout_bytes": sum(r.stdout_bytes for r in records),
        "cli.budget_probe_misses": sum(r.known_defect for r in records),
    }


def scaling_curve(wl, jobs) -> dict[int, float]:
    """Median time for a fresh Expansion to reach each depth."""
    import h4approx.h4_expansion as hx

    samples: dict[int, list[float]] = {d: [] for d in SCALING_DEPTHS}
    for alpha in wl.scaling_inputs(jobs):
        exp = hx.Expansion(alpha)
        t0 = time.perf_counter()
        for depth in SCALING_DEPTHS:
            exp.word(depth)
            samples[depth].append(time.perf_counter() - t0)
    return {d: statistics.median(v) for d, v in samples.items()}


def cli_startup(env: dict) -> float:
    walls = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import h4approx.cli"], env=env, check=True, timeout=60)
        walls.append(time.perf_counter() - t0)
    return statistics.median(walls)


def traced(args, wl, inputs, problems: list[str]) -> int:
    from workloads import child_env

    if wl.name == "cli_mix":
        wl.in_process = True
    jobs = list(islice(inputs, wl.trace_jobs))
    # Untraced passes before and after the spans pass, so that a drift of
    # the machine's speed during the run cancels out of trace_overhead_frac.
    u_times, u_recs = fixed_pass(wl, jobs, NULL)
    tracer = Tracer()
    with tracer.installed():
        s_times, s_recs = fixed_pass(wl, jobs, tracer)
    u2_times, _ = fixed_pass(wl, jobs, NULL)
    u_times = [(a + b) / 2 for a, b in zip(u_times, u2_times)]
    totals, p_times, p_recs, counts = profiled_counts(wl, jobs)

    for recs in (u_recs, s_recs, p_recs):
        for rec in recs:
            problems += rec.problems
    for i, (a, b, c) in enumerate(zip(u_recs, s_recs, p_recs)):
        if not a.digest == b.digest == c.digest:
            problems.append(f"job {i} ({a.key}): result differs between the untraced, spans and profile passes")

    env = dict(child_env(), PYTHONHASHSEED="1729")
    child = child_json(self_argv(args, "--counts-only"), env)
    defects = [f"{k}: {counts[k]} here, {child.get(k)} in a second traced run"
               for k in REPEATABLE_COUNTS if child.get(k) != counts[k]]
    for d in defects:
        print(f"BENCHMARK DEFECT: count did not repeat: {d}", file=sys.stderr)
    problems += [f"count did not repeat: {d}" for d in defects]

    periodic = [p for p in map(wl.periodic, jobs) if p is not None]
    bits = [r.bits for r in p_recs if r.bits is not None]
    curve = scaling_curve(wl, jobs)
    self_s = totals.self_seconds()
    walk_steps = counts["best_approx.walk_steps"]
    rate_u = len(jobs) / sum(u_times)
    rate_s = len(jobs) / sum(s_times)

    m = {}
    for mod in MODULES:
        m[f"{mod}.self_s"] = metric(self_s.get(mod, 0.0), "s")
    for name in REPEATABLE_COUNTS:
        unit = "bits" if name.endswith("bits") else "bytes" if name.endswith("bytes") else "count"
        m[name] = metric(counts[name], unit)
    m.update({
        "h4_expansion.word_s.n500": metric(curve[500], "s"),
        "h4_expansion.word_s.n1000": metric(curve[1000], "s"),
        "h4_expansion.word_s.n2000": metric(curve[2000], "s"),
        "h4_expansion.detect_period_s": metric(tracer.total("h4_expansion.detect_period"), "s"),
        "rosen_cf.gauss_s": metric(tracer.total("rosen_cf.rosen_digits", "rosen_cf.dual_rosen_digits"), "s"),
        "rosen_cf.selector_check_s": metric(
            tracer.self_time("rosen_cf.rosen_convergents", "rosen_cf.dual_rosen_convergents"), "s"),
        "best_approx.enumerate_s": metric(tracer.total("best_approx.best_approximations"), "s"),
        "best_approx.fracs_per_step": metric(tracer.fracs_returned / walk_steps if walk_steps else 0.0, "ratio"),
        "best_approx.oracle_s": metric(tracer.total("best_approx.oracle_best_approximations"), "s"),
        "uniform_approx.sequence_s": metric(tracer.total("uniform_approx.uniform_sequence"), "s"),
        "uniform_approx.k_exact_s": metric(tracer.total("uniform_approx.k_exact"), "s"),
        "cli.startup_s": metric(cli_startup(child_env()), "s"),
        "cli.command_s": metric(tracer.total("cli.command"), "s"),
        "cli.render_s": metric(
            tracer.total("cli.Output.render", "exact_field.Surd.decimal", "exact_field.QRt2.decimal"), "s"),
        "trace_overhead_frac": metric((rate_u - rate_s) / rate_u, "frac"),
        "input.periodic_share": metric(sum(periodic) / len(periodic) if periodic else 0.0, "frac"),
        "input.max_coeff_bits_p50": metric(statistics.median(bits) if bits else 0, "bits"),
    })

    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"trace-{wl.name}-seed{args.seed}.json"
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({
            "workload": wl.name, "seed": args.seed, "jobs": [r.key for r in s_recs],
            "pass_seconds": {"untraced": sum(u_times), "spans": sum(s_times), "profile": sum(p_times)},
            "module_self_s": self_s, "module_calls": totals.calls_by_module(),
            "counts": counts, "max_coeff_bits": bits,
            "trace": tracer.dump(),
        }, fh)

    print(f"workload {wl.name}  seed {args.seed}  traced  {len(jobs)} jobs per pass")
    print(f"  pass seconds: untraced {sum(u_times):.3f}  spans {sum(s_times):.3f}  cProfile {sum(p_times):.3f}")
    print(f"  counts repeated exactly in a second traced run: {'yes' if not defects else 'NO'}")
    print("  calls by module: " + ", ".join(f"{k} {v}" for k, v in sorted(totals.calls_by_module().items())))
    print(f"  spans written to {out_path.relative_to(BENCH_DIR.parent)}")
    print_metrics(m, {
        "input.periodic_share": f"{sum(periodic)}/{len(periodic)} inputs periodic within the walk",
        "input.max_coeff_bits_p50": f"distribution {sorted(bits)}" if len(bits) <= 40 else "",
        "trace_overhead_frac": f"untraced {rate_u:.4g} jobs/s, traced {rate_s:.4g} jobs/s",
    })
    print_probe(s_recs)
    failed = sum(bool(a.problems or b.problems or c.problems) for a, b, c in zip(u_recs, s_recs, p_recs))
    return report(problems, len(jobs), failed, m)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["deep_walk", "wide_shallow", "cli_mix"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "h4approx" / "__init__.py").is_file():
        print(f"error: {SRC / 'h4approx'} not found; run from a full checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    wl, inputs, problems = set_up(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.counts_only:
        if wl.name == "cli_mix":
            wl.in_process = True
        jobs = list(islice(inputs, wl.trace_jobs))
        print(json.dumps(profiled_counts(wl, jobs)[3]))
        return 0
    if args.trace:
        return traced(args, wl, inputs, problems)
    return end_to_end(args, wl, inputs, setup_s, problems)


if __name__ == "__main__":
    sys.exit(main())
