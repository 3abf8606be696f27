"""Uniform approximation: the record sequence q_{i+1}|q_i α − p_i|, the exact
uniform constant for eventually periodic expansions, witnesses for the
uniform (Dirichlet-type) theorem, and the two sharpness digit streams.

Every record of an exact input is α·c − d with c, d in Z[√2], pinned two
ways: by the closed-form case expression in (α_n, α*_n), whose coefficients
are read off the integer state of G_n, and by direct multiplication
q′·|q·α − p|.  The two coefficient pairs must be equal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exact_field import ONE, SQRT2, QRt2, Surd, ZRt2, quad_root
from .hecke_group import (
    DIGIT_MATRICES, DIGIT_MATRICES_INV, IDENTITY, H4Fraction, IntMat, as_mat2, column, column_fraction, times_digit,
)
from .h4_expansion import (
    DEFAULT_CAP,
    CapExceeded,
    Expansion,
    PeriodicStream,
    Source,
    detect_period,
    four_blocks_stream,
    three_powers_stream,
)
from .best_approx import (
    best_approximations,
    classify_transition,
    successor_case,
)

HALF = Surd.from_ratio(ONE, ZRt2(2, 0))
UPPER = Surd.from_ratio(ZRt2(1, 1), ZRt2(2, 0))  # (√2+1)/2


class NonPeriodicInput(ValueError):
    """Exact uniform constants exist only for eventually periodic expansions."""


@dataclass(frozen=True)
class UniformRecord:
    """One record q_{i+1}|q_i α − p_i| between consecutive best approximations."""

    i: int
    case: str
    n: int
    value: Surd | None  # exact for surd backends
    lo: QRt2 | None = None  # enclosure for stream backends
    hi: QRt2 | None = None

    def midpoint(self) -> float:
        if self.value is not None:
            return self.value.to_float()
        assert self.lo is not None and self.hi is not None
        blo, bhi = self.lo.enclosure(30), self.hi.enclosure(30)
        return float((blo[0] + bhi[1]) / 2)


def case_value(case: str, an, astar):
    """Record value by transition case, in terms of the tail and the
    reversal (limit); works over surds and over Q(√2) alike."""
    den = an + astar
    if case == "b1":
        num = astar
    elif case == "b2":
        num = astar + SQRT2
    elif case == "b3":
        num = astar * SQRT2 + 1
    elif case == "m1":
        num = an
    elif case == "m2":
        num = an * (astar * SQRT2 + 1)
    elif case == "m3":
        num = an * (astar + SQRT2)
    else:
        raise ValueError(f"unknown case {case}")
    return num / den


def _case_coefficients(case: str, g: IntMat) -> tuple[ZRt2, ZRt2]:
    """(c, d) with case_value(case, α_n, α*_n) = α·c − d, read off the state
    of G_n = [[t, v], [u, w]].  det G_n = 1 gives α_n = (wα − v)/(t − uα),
    α*_n = w/u and α_n + α*_n = 1/(u(t − uα)), so the b cases are
    k·(t − uα) and the m cases k·(wα − v), for k = w, w + √2u or √2w + u."""
    ua, ub, ta, tb = column(g, "tu")
    wa, wb, va, vb = column(g, "vw")
    t, u, v, w = ZRt2(ta, tb), ZRt2(ua, ub), ZRt2(va, vb), ZRt2(wa, wb)
    if case == "b1":
        k = w
    elif case == "m1":
        k = u
    elif case in ("b2", "m3"):
        k = w + SQRT2 * u
    else:
        k = SQRT2 * w + u
    return (-k * u, -k * t) if case[0] == "b" else (k * w, k * v)


_CASE_DECREASING_IN_TAIL = {"b1", "b2", "b3"}


def uniform_sequence(
    source: Source | Expansion, count: int, cap: int = DEFAULT_CAP
) -> list[UniformRecord]:
    """First `count` records.  For exact inputs each value is α·c − d with
    c, d in Z[√2], pinned by two routes as coefficient pairs: the direct
    product q′·|q·α − p| gives (c, d) = s·(q·q′, p·q′), with s = −1 on t/u
    and +1 on v/w as in the walk, and the case expression at (α_n, α*_n)
    gives (c, d) off the integer state of G_n.  The two pairs must be
    equal, and the value must lie strictly in (1/2, (√2+1)/2), which is two
    exact signs; the record's Surd is built once, from (c, d).  The walk
    raises CapExceeded past `cap` indices, as in best_approximations, and
    so do the leading run of 3s and a stream's tail window."""
    if count < 0:
        raise ValueError(f"record count must not be negative, got {count}")
    exp = source if isinstance(source, Expansion) else Expansion(source, cap)
    best = best_approximations(exp, max_count=count + 1, cap=cap)
    alpha = exp.alpha
    out: list[UniformRecord] = []
    for i, (cur, nxt) in enumerate(zip(best, best[1:]), start=1):
        case, nside, nn = successor_case(exp, cur.side, cur.n_last)
        assert column_fraction(exp.state(nn), nside) == nxt.frac, "successor table disagrees with enumeration"
        n = cur.n_last
        if alpha is not None:
            s = -1 if cur.side == "tu" else 1
            m, e = cur.frac.q * nxt.frac.q, cur.frac.p * nxt.frac.q
            c, d = (m, e) if s > 0 else (-m, -e)
            assert _case_coefficients(case, exp.state(n)) == (c, d), "case expression must match direct product"
            # α·c − d = s·(α·m − e) with m > 0: above 1/2 iff α·2m − (2e + s)
            # has sign s, below (1 + √2)/2 iff α·2m − (2e + s + s√2) has sign −s.
            assert (
                alpha.linear_sign_ints(2 * m.a, 2 * m.b, 2 * e.a + s, 2 * e.b) == s
                and alpha.linear_sign_ints(2 * m.a, 2 * m.b, 2 * e.a + s, 2 * e.b + s) == -s
            ), "record out of range"
            value = alpha.linear_ints(c.a, c.b, d.a, d.b)
            out.append(UniformRecord(i, case, n, value))
        else:
            g = exp.matrix(n)
            lo, hi = exp.tail_bounds(n, tol_digits=12)
            star_q = QRt2.from_ratio(g.w, g.u)
            v1 = case_value(case, lo, star_q)
            v2 = case_value(case, hi, star_q)
            if case in _CASE_DECREASING_IN_TAIL:
                v1, v2 = v2, v1
            out.append(UniformRecord(i, case, n, None, v1, v2))
    return out


@dataclass(frozen=True)
class PhaseLimit:
    phase: int
    side: str
    case: str
    value: Surd


@dataclass(frozen=True)
class KResult:
    """Uniform approximation constant: exact surd for periodic expansions,
    windowed numeric estimate otherwise (never certified)."""

    method: str  # "exact-periodic" | "numeric-limsup"
    certified: bool
    value: Surd | None
    estimate: float
    phases: tuple[PhaseLimit, ...] = ()
    records: tuple[UniformRecord, ...] = ()  # the sequence a numeric estimate reads


def _attracting_fixed_point(word: tuple[int, ...]) -> Surd:
    """Positive fixed point of the word matrix: the value of [word^∞]."""
    g = IDENTITY
    for d in word:
        g = times_digit(g, d)
    m = as_mat2(g)
    return quad_root(m.u, m.w - m.t, -m.v, "+")


def k_exact(alpha: Surd, cap: int = DEFAULT_CAP) -> KResult:
    """Exact uniform constant via per-phase limits of the record values.

    Over one period, each qualifying transition's record value converges to
    its case expression evaluated at the exact phase tail and the attracting
    fixed point of the reversed period word; the constant is the maximum.
    Phase j + 1 is one Möbius step from phase j: A_{π_j}⁻¹ on the tail, A_{π_j}
    on the reversal limit.  All phase words share one discriminant, so each
    step gives the normal form of that phase word's own fixed point.  Phase
    j's signs against 1 are the digit word's at index len(ρ) + P + j: A1 maps
    (0, ∞] into (0, 1/√2], A3 into [√2, ∞], and A2 fixes 1 and is increasing.

    The period comes from detect_period's scan of α/√2 as integer triples.
    CapExceeded when that scan finds no repeated tail within `cap` digits,
    and at once, with no digit scanned, for a surd it proves not eventually
    periodic (may_be_periodic)."""
    stream = detect_period(alpha, cap)
    if not isinstance(stream, PeriodicStream):
        raise NonPeriodicInput("expansion terminates; no uniform constant")
    pi, signs = stream.period, Expansion(stream)
    base = len(stream.preperiod) + len(pi)
    an = _attracting_fixed_point(pi)
    astar = _attracting_fixed_point(pi[::-1])
    phases: list[PhaseLimit] = []
    for j, d_next in enumerate(pi):
        if j:
            an = DIGIT_MATRICES_INV[pi[j - 1]].act(an)
            astar = DIGIT_MATRICES[pi[j - 1]].act(astar)
        star, tail = signs.star_cmp_one(base + j), signs.tail_cmp_one(base + j)
        for side, stay, qualifies in (("tu", 3, tail > 0 or star > 0), ("vw", 1, tail < 0 or star < 0)):
            if d_next != stay and qualifies:
                case, _, _ = classify_transition(side, star, tail, d_next)
                phases.append(PhaseLimit(j, side, case, case_value(case, an, astar)))
    assert phases, "a periodic expansion has infinitely many best approximations"
    k = phases[0].value
    for ph in phases[1:]:
        if ph.value.cmp(k) > 0:
            k = ph.value
    assert HALF.cmp(k) <= 0 and k.cmp(UPPER) <= 0
    return KResult("exact-periodic", True, k, k.to_float(), tuple(phases))


def k_numeric(
    source: Source | Expansion, records: int = 1000, window: int = 200, cap: int = DEFAULT_CAP
) -> KResult:
    """Windowed sup of the record values: an uncertified limsup estimate
    over a walk of at most `cap` indices."""
    if records < 1:
        raise ValueError(f"need at least one record, got {records}")
    if window < 1:
        raise ValueError(f"need a window of at least one record, got {window}")
    seq = uniform_sequence(source, records, cap=cap)
    tail = seq[-window:] if window < len(seq) else seq
    return KResult("numeric-limsup", False, None, max(r.midpoint() for r in tail), records=tuple(seq))


@dataclass(frozen=True)
class DirichletWitness:
    n_bound: int
    frac: H4Fraction
    err: Surd

    def verify(self) -> bool:
        """|qα − p|·N < (√2+1)/2, checked exactly as one sign of err·2N − (1+√2)."""
        return self.err.linear_sign(ZRt2(2 * self.n_bound, 0), ZRt2(1, 1)) < 0


def dirichlet_witness(alpha: Surd, n_bound: int) -> DirichletWitness:
    """The largest-denominator best approximation with q ≤ N witnesses the
    uniform theorem at threshold N."""
    if n_bound < 1:
        raise ValueError("threshold must be at least 1")
    best = best_approximations(alpha, max_q=n_bound)
    last = best[-1]
    assert last.err is not None
    wit = DirichletWitness(n_bound, last.frac, last.err)
    assert wit.verify(), "uniform bound must hold exactly"
    return wit


def dirichlet_sweep(
    alpha: Surd, n_max: int, cap: int = DEFAULT_CAP
) -> list[DirichletWitness]:
    """Witnesses for every integer threshold 1..n_max, verified exactly."""
    if n_max < 1:
        raise ValueError("threshold must be at least 1")
    best = best_approximations(alpha, max_q=n_max, cap=cap)
    out: list[DirichletWitness] = []
    idx = 0
    for n in range(1, n_max + 1):
        while idx + 1 < len(best) and best[idx + 1].q.cmp(n) <= 0:
            idx += 1
        last = best[idx]
        assert last.q.cmp(n) <= 0 and last.err is not None
        wit = DirichletWitness(n, last.frac, last.err)
        assert wit.verify()
        out.append(wit)
    return out


@dataclass(frozen=True)
class OptimalityPoint:
    i: int
    n: int
    lo: QRt2
    hi: QRt2
    target: QRt2

    def max_distance(self) -> QRt2:
        d1, d2 = abs(self.lo - self.target), abs(self.hi - self.target)
        return d1 if d1.cmp(d2) >= 0 else d2


STREAM_A_TARGET_MAIN = QRt2(ZRt2(-1, 1), 1)  # 1/(√2+1) = √2 − 1
STREAM_A_TARGET_AUX = QRt2(ONE, 1)
STREAM_B_TARGET = QRt2(ONE, 2)


def _vw_record_bounds(exp: Expansion, n: int, tol_digits: int = 9) -> tuple[QRt2, QRt2]:
    # w_n|w_n α − v_n| = w·x/(u·x + w) at x = α_n, increasing in x.
    g = exp.matrix(n)
    lo, hi = exp.tail_bounds(n, tol_digits)
    f = lambda x: x * g.w / (x * g.u + g.w)
    return f(lo), f(hi)


def optimality_check(
    which: str, i_max: int = 5, tol_digits: int = 9, cap: int = DEFAULT_CAP
) -> list[OptimalityPoint]:
    """Evaluate the sharpness indices of stream A (targets 1/(√2+1) and 1)
    or stream B (target 1/2) with exact rational enclosures.

    CapExceeded before any digit is read when the largest index,
    3·4^i_max − 2 for A and 2·3^i_max for B, exceeds `cap`; each tail
    enclosure's lookahead window reads at most `cap` digits."""
    if which not in ("A", "B"):
        raise ValueError("stream must be 'A' or 'B'")
    n_max = 3 * 4**i_max - 2 if which == "A" else 2 * 3**i_max
    if i_max > 0 and n_max > cap:
        raise CapExceeded(f"stream {which} at i-max {i_max} reads index {n_max}, past the cap {cap}")
    points: list[OptimalityPoint] = []
    if which == "A":
        exp = Expansion(four_blocks_stream(), cap)
        for i in range(1, i_max + 1):
            n = 3 * 4**i - 2
            lo, hi = _vw_record_bounds(exp, n, tol_digits)
            points.append(OptimalityPoint(i, n, lo, hi, STREAM_A_TARGET_MAIN))
            n = 2 * 4**i - 1
            lo, hi = _vw_record_bounds(exp, n, tol_digits)
            points.append(OptimalityPoint(i, n, lo, hi, STREAM_A_TARGET_AUX))
    else:
        exp = Expansion(three_powers_stream(), cap)
        for i in range(1, i_max + 1):
            n = 2 * 3**i
            lo, hi = _vw_record_bounds(exp, n, tol_digits)
            points.append(OptimalityPoint(i, n, lo, hi, STREAM_B_TARGET))
    return points
