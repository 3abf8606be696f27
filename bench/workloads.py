"""The three workloads: what one job runs, the digest of its exact result,
and the output checks made outside the timed region.

A job's digest covers its exact answer as coefficient tuples (or CLI stdout
bytes).  Digests recorded at the default seed live in goldens.json and are
checked whenever a job's input appears there.  Independent of any golden,
every deep_walk and wide_shallow job compares the enumerator against the
definitional oracle for q <= 150, and cli_mix compares in-process
`cli.run` output against the subprocess it timed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

from h4approx import best_approx as ba
from h4approx import cli
from h4approx import h4_expansion as hx
from h4approx import rosen_cf
from h4approx import uniform_approx as ua

from inputs import surd_literal, surd_stream
from tracing import NULL

BENCH_DIR = Path(__file__).resolve().parent
GOLDENS_PATH = BENCH_DIR / "goldens.json"
DEFAULT_SEED = 1
ORACLE_Q = 150


def digest(obj: Any) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:24]


def load_goldens() -> dict:
    if not GOLDENS_PATH.is_file():
        return {}
    with open(GOLDENS_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def coeff_bits(exp: hx.Expansion, n: int) -> int:
    """Largest bit length among the entries of G_n and the tail at n."""
    m = exp.matrix(n)
    zs = [m.t, m.v, m.u, m.w]
    tail = exp.tail(n)
    if tail is not None:
        zs += [tail.P, tail.Q, tail.D, tail.S]
    return max(max(abs(z.a).bit_length(), abs(z.b).bit_length()) for z in zs)


def periodic_within(alpha, cap: int) -> bool:
    try:
        return isinstance(hx.detect_period(alpha, cap=cap), hx.PeriodicStream)
    except hx.CapExceeded:
        return False


def best_rows(best: list) -> tuple:
    return tuple(
        (b.p.pair(), b.q.pair(), b.frac.family, b.side, b.n_first, b.n_last,
         b.is_rosen, b.is_dual, b.common_witness, b.err.key() if b.err is not None else None)
        for b in best
    )


def frac_rows(fracs: list) -> tuple:
    return tuple((f.p.pair(), f.q.pair()) for f in fracs)


@dataclass
class JobRecord:
    key: str
    digest: str = ""
    problems: list[str] = field(default_factory=list)  # wrong output: the run is incorrect
    note: str = ""
    known_defect: bool = False  # the budget probe's known library defect
    bits: int | None = None
    stdout_bytes: int = 0
    # cli_mix only: what the in-process cross-check needs
    index: int | None = None
    argv: list[str] | None = None
    exit_code: int | None = None
    stdout: bytes | None = None


class Workload:
    name = ""
    coeff_bound = 0
    in_process = True  # jobs run in this process, not in a child
    trace_jobs = 0  # fixed job count of the traced passes
    rate_window = 10  # jobs per window of the jobs_per_s median
    tail_jobs = 0  # when set, job_tail_s ranks only the first tail_jobs jobs

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.goldens: dict = load_goldens().get(self.name, {})

    def inputs(self) -> Iterator[Any]:
        return surd_stream(self.seed, self.coeff_bound)

    def check_golden(self, rec: JobRecord) -> None:
        want = self.goldens.get(rec.key)
        if want is not None and want != rec.digest:
            rec.problems.append(f"{rec.key}: digest {rec.digest} != golden {want}")

    def warm_up(self) -> list[str]:
        """One job on the first default-seed input, golden-checked on every
        seed; returns the problems found."""
        first = next(iter(type(self)(DEFAULT_SEED).inputs()))
        rec = self.record(first, self.run(first, NULL))
        if rec.key not in self.goldens:
            rec.problems.append(f"warm-up job {rec.key} has no golden digest")
        return rec.problems

    def key(self, inp: Any) -> str:
        return surd_literal(inp)

    def run(self, inp: Any, tr: Any) -> Any:
        raise NotImplementedError

    def record(self, inp: Any, raw: Any, want_bits: bool = False) -> JobRecord:
        raise NotImplementedError

    def periodic(self, inp: Any) -> bool | None:
        """Whether the input's expansion is periodic within the job's walk,
        found with detect_period; None for inputs that are not surds."""
        raise NotImplementedError

    def scaling_inputs(self, inputs: list) -> list:
        return inputs[:3]


class DeepWalk(Workload):
    """One job: a coefficient-bound-5 surd, expanded to DEPTH digits, then
    the enumerator over the same Expansion for COUNT fractions with the walk
    capped at DEPTH.  CapExceeded is an expected outcome: the capped walk
    bounds each job's cost, which keeps run-to-run spread low although many
    inputs have runs of hundreds or thousands of equal digits."""

    name = "deep_walk"
    coeff_bound = 5
    trace_jobs = 20
    DEPTH = 1000
    COUNT = 150

    def run(self, alpha, tr):
        exp = hx.Expansion(alpha)
        with tr.span("h4_expansion.word"):
            word = exp.word(self.DEPTH)
        try:
            best = ba.best_approximations(exp, max_count=self.COUNT, cap=self.DEPTH)
        except hx.CapExceeded:
            best = None
        return exp, word, best

    def record(self, alpha, raw, want_bits=False) -> JobRecord:
        exp, word, best = raw
        rec = JobRecord(surd_literal(alpha))
        rec.digest = digest((word, "capped" if best is None else best_rows(best)))
        rec.note = "capped" if best is None else "complete"
        self.check_golden(rec)
        small = None
        if best is not None and best[-1].q.cmp(ORACLE_Q) > 0:
            small = [b for b in best if b.q.cmp(ORACLE_Q) <= 0]
        else:
            try:
                small = ba.best_approximations(exp, max_q=ORACLE_Q, cap=self.DEPTH)
            except hx.CapExceeded:
                rec.note += ", oracle check skipped (q <= 150 needs more than the capped walk)"
        if small is not None and [b.frac for b in small] != ba.oracle_best_approximations(alpha, ORACLE_Q):
            rec.problems.append(f"{rec.key}: enumerator and oracle disagree for q <= {ORACLE_Q}")
        rec.bits = coeff_bits(exp, self.DEPTH)
        return rec

    def periodic(self, alpha):
        return periodic_within(alpha, self.DEPTH)


class CappedExpansion(hx.Expansion):
    """An Expansion that stops at `limit` digits: a walk that needs more
    raises CapExceeded, as the `cap` of best_approximations does."""

    def __init__(self, alpha, limit: int) -> None:
        super().__init__(alpha)
        self.limit = limit

    def _extend(self, n: int) -> None:
        if n > self.limit:
            raise hx.CapExceeded(f"walk needs digit {n}, past the benchmark's cap of {self.limit}")
        super()._extend(n)


def fitting_terms(cf, limit: int) -> int:
    """The most leading terms of a Rosen-type expansion whose convergent
    cross-check walks at most `limit` H4 digits (the walk the convergent
    functions take is |a0| + the terms' digits + 4)."""
    walk = abs(cf.a0) + 4
    for i, t in enumerate(cf.terms):
        walk += t.a
        if walk > limit:
            return i
    return len(cf.terms)


class WideShallow(Workload):
    """One job: a coefficient-bound-3 surd through many short library calls.

    Every walk over the H4 expansion stops at WALK_CAP digits, so that each
    job's cost is bounded by its input alone.  About 2% of inputs have a run
    of equal digits that a full job would follow for thousands of digits
    (12,990 for uniform_sequence on one input; a Rosen digit of 53,424 on
    another, 89 s).  For those, best_approximations and uniform_sequence raise
    CapExceeded, an expected result, and the convergent functions get the
    most of their ROSEN_TERMS terms whose cross-check walk fits the cap.
    legendre_classify walks to the denominator of the fraction it is given,
    so a capped input gives it the last best fraction with q <= 150 when
    that walk fits the cap, and skips it otherwise."""

    name = "wide_shallow"
    coeff_bound = 3
    trace_jobs = 20
    K_CAP = 200
    WALK_CAP = 1000
    ROSEN_TERMS = 10

    def run(self, alpha, tr):
        cap = self.WALK_CAP
        rc = rosen_cf.rosen_convergents(
            alpha, fitting_terms(rosen_cf.rosen_digits(alpha, self.ROSEN_TERMS), cap))
        dc = rosen_cf.dual_rosen_convergents(
            alpha, fitting_terms(rosen_cf.dual_rosen_digits(alpha, self.ROSEN_TERMS), cap))
        small = None  # best approximations with q <= ORACLE_Q, for a capped input
        try:
            best = ba.best_approximations(CappedExpansion(alpha, cap), max_q=10**4)
            last = best[-1].frac
        except hx.CapExceeded:
            best = last = None
            try:
                small = ba.best_approximations(CappedExpansion(alpha, cap), max_q=ORACLE_Q)
                last = small[-1].frac
            except hx.CapExceeded:
                pass
        orc = ba.oracle_best_approximations(alpha, ORACLE_Q)
        try:
            seq = ua.uniform_sequence(CappedExpansion(alpha, cap), 20)
        except hx.CapExceeded:
            seq = None
        try:
            k = ua.k_exact(alpha, cap=self.K_CAP)
        except hx.CapExceeded:
            k = None
        verdict = None if last is None else ba.legendre_classify(alpha, last)
        return rc, dc, best, small, orc, seq, k, verdict

    def record(self, alpha, raw, want_bits=False) -> JobRecord:
        rc, dc, best, small, orc, seq, k, verdict = raw
        rec = JobRecord(surd_literal(alpha))
        k_rows = None if k is None else (
            k.value.key(), tuple((p.phase, p.side, p.case, p.value.key()) for p in k.phases)
        )
        rec.digest = digest((
            tuple((c.index, c.frac.p.pair(), c.frac.q.pair()) for c in rc),
            tuple((c.index, c.frac.p.pair(), c.frac.q.pair()) for c in dc),
            "capped" if best is None else best_rows(best),
            frac_rows(orc),
            "capped" if seq is None else
            tuple((r.i, r.case, r.n, r.value.key() if r.value is not None else None) for r in seq),
            k_rows,
            verdict,
        ))
        capped = [name for name, v in (("best", best), ("uniform_sequence", seq), ("legendre", verdict))
                  if v is None]
        if len(rc) <= self.ROSEN_TERMS or len(dc) <= self.ROSEN_TERMS:
            capped.append("convergents")
        rec.note = ("periodic within 200" if k is not None else "k_exact: CapExceeded") + (
            f"; capped at {self.WALK_CAP} digits: {', '.join(capped)}" if capped else "")
        self.check_golden(rec)
        if best is not None:
            small = [b for b in best if b.q.cmp(ORACLE_Q) <= 0]
        elif small is None:
            rec.note += ", oracle check skipped (q <= 150 needs more than the capped walk)"
        if small is not None and [b.frac for b in small] != orc:
            rec.problems.append(f"{rec.key}: enumerator and oracle disagree for q <= {ORACLE_Q}")
        if want_bits:
            depth = best[-1].n_last + 1 if best is not None else self.WALK_CAP
            rec.bits = coeff_bits(hx.Expansion(alpha), depth)
        return rec

    def periodic(self, alpha):
        return periodic_within(alpha, self.K_CAP)


# cli_mix -------------------------------------------------------------------

FORMATS = ("text", "json", "csv")
LITERAL = "{lit}"
EXIT_OK = (0,)
# The README documents exit 3 for a tripped cap; rosen ignores the cap today.
BUDGET_PROBE = "rosen --alpha surd17 --digits 300 --cap-iterations 10"
# (argv, accepted exit codes, takes the rotating --format).  The README
# examples come first and the heavy variants last, so that where a run stops
# inside a rotation moves only light jobs in or out.
ROTATION: list[tuple[str, tuple[int, ...], bool]] = [
    ("expand --alpha surd17 --digits 12", EXIT_OK, True),
    ("expand --stream four-blocks --digits 16", EXIT_OK, True),
    ("period --alpha surd17", EXIT_OK, True),
    ("rosen --alpha surd17 --digits 5", EXIT_OK, True),
    ("dual-rosen --alpha one --digits 5", EXIT_OK, True),
    ("best --alpha surd17 --count 4", EXIT_OK, True),
    ("oracle --alpha surd17 --max-q 30", EXIT_OK, True),
    ("legendre --alpha surd17 --p 0,2 --q 1,0", EXIT_OK, True),
    ("k --alpha one --exact", EXIT_OK, True),
    ("corpus --size 10 --seed 1 --coeff-bound 5", EXIT_OK, True),
    # Seeded literals, four of each.  Some inputs have runs of thousands of
    # equal digits, so best gets a small iteration cap (exit 3 is then the
    # documented result) and cannot land a seed-dependent job among the
    # slowest of the rotation.  With four of each, small commands are two
    # thirds of the rotation and the median job lies inside their cluster;
    # with one of each they were 14 of 25, and the median flipped to the heavy
    # variants whenever a few small jobs ran slow.
    *4 * [
        ("best --alpha {lit} --count 20 --cap-iterations 300", (0, 3), True),
        ("rosen --alpha {lit} --digits 12", EXIT_OK, True),
        ("oracle --alpha {lit} --max-q 60", EXIT_OK, True),
    ],
    ("optimality --stream B --i-max 6", EXIT_OK, True),
    ("expand --stream four-blocks --digits 5000", EXIT_OK, True),
    ("optimality --stream A --i-max 5", EXIT_OK, True),
    ("dirichlet --alpha surd17 --n-max 500", EXIT_OK, True),
    ("dirichlet --alpha surd17 --n-max 500 --csv", EXIT_OK, False),
    (BUDGET_PROBE, (3,), False),
    ("best --alpha surd17 --count 400 --json", EXIT_OK, False),
    ("k --alpha stream:three-powers --numeric --records 300", EXIT_OK, True),
    ("optimality --stream A --i-max 6", EXIT_OK, True),
    ("k --alpha surd17 --numeric --window 60 --records 400", EXIT_OK, True),
    ("best --alpha stream:four-blocks --count 1000", EXIT_OK, True),
    ("k --alpha surd17 --numeric --records 400", EXIT_OK, True),
]
PROBE = [text for text, _, _ in ROTATION].index(BUDGET_PROBE)
CLI_TIMEOUT_S = 60


@dataclass
class CliJob:
    index: int  # position in the rotation
    argv: list[str]
    accepted: tuple[int, ...]
    literal: Any = None


def child_env() -> dict:
    src = str(BENCH_DIR.parent / "src")
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_inprocess(argv: list[str]) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue().encode("utf-8")


class CliMix(Workload):
    """One job: one `python -m h4approx.cli` child from the fixed rotation."""

    name = "cli_mix"
    coeff_bound = 3
    trace_jobs = len(ROTATION)
    rate_window = len(ROTATION)  # whole rotations, so every window has the same mix
    # Over R rotations the 11th-slowest job is a different command for each R,
    # so the tail always ranks the first two rotations (p80 of 50 jobs).
    tail_jobs = 2 * len(ROTATION)
    in_process = False  # children, until the traced passes call cli.run in-process
    LITERAL_WALK = 200  # depth for the input properties of the seeded literals

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.env = child_env()

    def inputs(self) -> Iterator[CliJob]:
        literals = surd_stream(self.seed, self.coeff_bound)
        j = 0
        while True:
            text, accepted, rotating = ROTATION[j % len(ROTATION)]
            lit = next(literals) if LITERAL in text else None
            argv = text.replace(LITERAL, surd_literal(lit) if lit is not None else "").split()
            if rotating:
                argv += ["--format", FORMATS[j % len(FORMATS)]]
            yield CliJob(j % len(ROTATION), argv, accepted, lit)
            j += 1

    def key(self, job: CliJob) -> str:
        return " ".join(job.argv)

    def run(self, job: CliJob, tr):
        if self.in_process:
            return run_cli_inprocess(job.argv)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "h4approx.cli", *job.argv],
                env=self.env, capture_output=True, timeout=CLI_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return None, b""
        return proc.returncode, proc.stdout

    def record(self, job: CliJob, raw, want_bits=False) -> JobRecord:
        code, stdout = raw
        rec = JobRecord(self.key(job), index=job.index, argv=job.argv, exit_code=code, stdout=stdout)
        if code is None:
            rec.problems.append(f"{rec.key}: no exit after {CLI_TIMEOUT_S} s")
            return rec
        if code not in job.accepted:
            rec.note = f"exit {code}, expected {job.accepted}"
            if job.index == PROBE:
                # A known library defect, reported on its own line and in
                # cli.budget_probe_misses; the probe's output is not checked.
                rec.known_defect = True
                return rec
            rec.problems.append(f"{rec.key}: {rec.note}")
        if job.index == PROBE:
            return rec
        rec.stdout_bytes = len(stdout)
        if want_bits and job.literal is not None:
            rec.bits = coeff_bits(hx.Expansion(job.literal), self.LITERAL_WALK)
        rec.digest = digest((code, hashlib.sha256(stdout).hexdigest()))
        self.check_golden(rec)
        return rec

    def cross_check(self, records: list[JobRecord]) -> None:
        """In-process cli.run against the timed subprocess, once per rotation
        entry seen in this run; a difference is a problem of that job."""
        seen = set()
        for rec in records:
            if rec.exit_code is None or rec.index in seen:
                continue
            seen.add(rec.index)
            code, stdout = run_cli_inprocess(rec.argv)
            if (code, stdout) != (rec.exit_code, rec.stdout):
                rec.problems.append(f"{rec.key}: in-process run differs from the subprocess")

    def periodic(self, job: CliJob):
        return None if job.literal is None else periodic_within(job.literal, self.LITERAL_WALK)

    def scaling_inputs(self, jobs: list) -> list:
        return [cli.PRESETS["surd17"]()] + [j.literal for j in jobs if j.literal is not None][:2]


WORKLOADS = {w.name: w for w in (DeepWalk, WideShallow, CliMix)}
