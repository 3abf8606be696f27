"""Best-approximation machinery: the ordered enumeration driven by the
interval-endpoint characterization, the literal brute-force oracle over the
denominator ladder, successor-case classification, and the two-constant
(1/(2q²) sufficient, 1/q² necessary) classifier.

The enumerator and the oracle are deliberately independent routes to the
same sequence; the acceptance suite requires them to agree exactly.  They
share only the field kernel: the enumerator reads the integer state of G_n,
and the oracle scans the denominator ladder on integer bounds from one
enclosure of α, with exact predicates where the bounds do not decide.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from operator import sub

from .exact_field import ONE, SQRT2, ZERO, Surd, ZRt2, zrt2_sign
from .hecke_group import (
    H4Fraction,
    IntMat,
    canonicalize,
    canonicalize_pair,
    column,
    column_fraction,
    coprime_neighbours,
    denominator_ladder,
    denominator_sq,
)
from .h4_expansion import DEFAULT_CAP, CapExceeded, Expansion, Source
from .rosen_cf import dual_flip, rosen_flip

BEST_BY_SUFFICIENT = "best-by-sufficient"
BEST_NOT_SUFFICIENT = "best-but-not-sufficient"
NOT_BEST = "not-best"

_ORACLE_BITS = 64  # the oracle encloses α, α√2 and √2 to within 2^-64


@dataclass(frozen=True)
class BestApprox:
    """One element of the ordered best-approximation sequence, with the
    index range [n_first, n_last] where it is a column of G_n and its
    membership flags, read off that range: is_rosen when M_n·∞ is the
    fraction at some n of it, is_dual likewise for N_n·∞ (the 0-th
    convergents corrected for q = 1).

    common_witness marks fractions whose membership in BOTH families is
    realized at a single index n (tail and reversal on the qualifying side
    of 1 simultaneously); membership can also arise from two different
    indices of the range, and those mixed fractions obey
    1/(√2+2) < |α − p/q|·q² < 1/√2 instead of the common-witness 1/2."""

    frac: H4Fraction
    side: str  # "tu" | "vw"
    n_first: int
    n_last: int
    is_rosen: bool
    is_dual: bool
    common_witness: bool = False
    err: Surd | None = None  # |q·α − p| when the backend is exact

    @property
    def q(self) -> ZRt2:
        return self.frac.q

    @property
    def p(self) -> ZRt2:
        return self.frac.p


def _rosen_a0(exp: Expansion) -> int:
    m = exp.leading_threes()
    return m if exp.digit(m + 1) == 1 else m + 1


def _dual_a0(exp: Expansion) -> int:
    m = exp.leading_threes()
    return m + 1 if exp.tail_cmp_one(m) >= 0 else m


def _signed(alpha: Surd, q: ZRt2, p: ZRt2) -> tuple[ZRt2, ZRt2]:
    """(s·q, s·p) with s the sign of q·α − p, so that |q·α − p| = α·sq − sp."""
    return (q, p) if alpha.linear_sign(q, p) >= 0 else (-q, -p)


def best_approximations(
    source: Source | Expansion,
    *,
    max_q: int | ZRt2 | None = None,
    max_count: int | None = None,
    cap: int = DEFAULT_CAP,
) -> list[BestApprox]:
    """The best approximations of a positive value outside √2·Q, ordered by
    strictly increasing denominator.

    A fraction is kept when, at the last index of its matrix range, the tail
    or the reversal is on the qualifying side of 1.  Its flags are read off
    that range, where it is a column of G_n: M_n·∞ is that column iff σ_n
    matches the side, N_n·∞ iff σ̃_n does, and common_witness asks for both
    at one n.  The walk reads the integer state of G_n: a column's
    canonical fraction is its structure, built only for the records, and
    denominators are compared by their squares, which are integers.  Inside
    a run of 1s or 3s nothing the walk reads changes, so it reads the first
    index there and jumps to the run's last one.  The check that errors
    decrease reads sign(α·c − d) off the Expansion's integer bounds on α
    (Expansion.alpha_sign).  The walk raises CapExceeded past `cap`
    indices, and so does a leading run of more than `cap` 3s; it reads no
    digit past cap + 1.
    """
    if max_q is None and max_count is None:
        raise ValueError("need a denominator bound or a count")
    if max_count is not None and max_count < 1:
        raise ValueError(f"count must be at least 1, got {max_count}")
    exp = source if isinstance(source, Expansion) else Expansion(source, cap)
    stop = None  # (a, b) with max_q² = a + b√2, or (0, 0) when no q > 0 is within max_q
    if max_q is not None:
        bound = ZRt2.of(max_q)
        stop = (bound * bound).pair() if bound.sign() > 0 else (0, 0)

    def past_stop(q_sq: int) -> bool:  # q > max_q, for q > 0 given by q²
        return zrt2_sign(q_sq - stop[0], -stop[1]) > 0

    m = exp.leading_threes()

    emissions: list[tuple[str, int, int, int, IntMat, bool, bool, bool]] = []
    # Per side: the open range's first index and, so far on it, whether
    # M_n·∞, N_n·∞, or both at one n, were its column.
    ranges = {"tu": (m + 1, False, False, False), "vw": (m + 1, False, False, False)}
    n = m + 1
    while n <= cap:
        g = exp.state(n)
        sigma, dual_sigma = rosen_flip(exp, n), dual_flip(exp, n)
        d_next = exp.digit(n + 1)
        # t/u is fixed under A3, v/w under A1; the flipped selector is G_n·J.
        for side, flipped, stay in (("tu", False, 3), ("vw", True, 1)):
            start, rosen, dual, both = ranges[side]
            rosen_n, dual_n = sigma == flipped, dual_sigma == flipped
            ranges[side] = (start, rosen or rosen_n, dual or dual_n, both or (rosen_n and dual_n))
            if d_next == stay:
                continue
            # At the last index, the tail or the reversal qualifies iff
            # M_n·∞ or N_n·∞ is this column.
            if rosen_n or dual_n:
                emissions.append((side, start, n, denominator_sq(g, side), g, *ranges[side][1:]))
            ranges[side] = (n + 1, False, False, False)
        # The smaller denominator: w_n < u_n iff σ_n.
        low_sq = denominator_sq(g, "vw" if sigma else "tu")
        if stop is not None:
            if past_stop(low_sq):
                break
        elif len(emissions) >= max_count:
            kth_sq = sorted(e[3] for e in emissions)[max_count - 1]
            if low_sq > kth_sq:
                break
        if d_next == 2 or exp.digit(n) != d_next:
            n += 1
            continue
        # n lies inside a run of 1s or 3s, and so does every later index
        # before the run's last one, j: σ and σ̃ keep the run's values, the
        # staying side's flags are true, the other side closes with no
        # emission, and the smaller denominator is the column the run's
        # digit fixes, so the stop test cannot fire before j.  Those
        # indices only move the closing side's start.  No digit past
        # cap + 1 is read, and a run through it leaves j past the cap.
        n = exp.run_end(n + 1, cap + 1)
        ranges["vw" if d_next == 3 else "tu"] = (n, False, False, False)
    else:
        raise CapExceeded(f"enumeration did not finish within {cap} steps")

    # Dual-family correction: {N_n·∞} can contain the 0-th Rosen convergent,
    # which is a dual convergent only when the two first digits coincide.
    rosen0, dual0 = canonicalize(_rosen_a0(exp), 1), canonicalize(_dual_a0(exp), 1)

    emissions.sort(key=lambda e: e[3])
    out: list[BestApprox] = []
    prev_q_sq: int | None = None
    prev: tuple[int, int, int, int] | None = None  # the previous record's s·q and s·p as ints
    alpha = exp.alpha
    for side, n1, n2, q_sq, g, is_rosen, is_dual, both in emissions:
        if stop is not None and past_stop(q_sq):
            break
        assert prev_q_sq is None or prev_q_sq < q_sq, "denominators must increase"
        prev_q_sq = q_sq
        if alpha is not None:
            # G_n ≥ 0 with det 1 puts v/w < α < t/u, so q·α − p is
            # negative on t/u and positive on v/w.
            qa, qb, pa, pb = column(g, side)
            cur = (-qa, -qb, -pa, -pb) if side == "tu" else (qa, qb, pa, pb)
            # The error drops iff α·(sq − sq′) − (sp − sp′) < 0.
            assert prev is None or exp.alpha_sign(*map(sub, cur, prev)) < 0, "errors must decrease"
            prev = cur
        if max_count is not None and len(out) == max_count:
            continue  # checked, but not a record
        frac = column_fraction(g, side)
        err = None if alpha is None else alpha.linear_ints(*cur)  # |q·α − p| = α·sq − sp
        is_dual = frac == dual0 or (is_dual and frac != rosen0)
        common = is_rosen and is_dual and both
        out.append(BestApprox(frac, side, n1, n2, is_rosen, is_dual, common, err))
    return out


def classify_transition(side: str, star: int, tail: int, d_next: int) -> tuple[str, str, int]:
    """Successor case from the signs at the last index n of a qualifying
    fraction's range: (case, next side, next-n offset 0 or 1).

    The six cases are exhaustive for qualifying fractions."""
    if side == "tu":
        assert d_next != 3, "range must end at n"
        if star > 0 and tail < 0:
            return "b1", "vw", 0
        if star > 0:
            assert d_next == 2
            return "b2", "tu", 1
        assert star < 0 and tail > 0 and d_next == 2
        return "b3", "vw", 1
    assert d_next != 1, "range must end at n"
    if star < 0 and tail > 0:
        return "m1", "tu", 0
    if star < 0:
        assert d_next == 2
        return "m2", "vw", 1
    assert star > 0 and tail < 0 and d_next == 2
    return "m3", "tu", 1


def successor_case(exp: Expansion, side: str, n: int) -> tuple[str, str, int]:
    """classify_transition evaluated on an expansion at index n."""
    case, nside, off = classify_transition(
        side, exp.star_cmp_one(n), exp.tail_cmp_one(n), exp.digit(n + 1)
    )
    return case, nside, n + off


def oracle_best_approximations(
    alpha: Surd, q_max: int | ZRt2, cap: int = DEFAULT_CAP
) -> list[H4Fraction]:
    """Definitional scan: ascend the denominator ladder, keep every fraction
    whose error strictly beats everything at smaller or equal denominator.
    Raises CapExceeded when the ladder up to q_max has more than `cap`
    denominators.

    At each denominator only the nearest admissible numerator on each side
    can set a record; a tie inside one denominator would force the value
    into √2·Q and cannot occur.

    The scan decides on plain ints, from one outward-rounded enclosure in
    the manner of Moore's interval arithmetic: two exact floor_linear calls
    give A ≤ α·2^k < A + 1 and B < α√2·2^k < B + 1, and isqrt gives
    R < √2·2^k < R + 1, for k = _ORACLE_BITS.  Each denominator's floor,
    nearer numerator and record comparison is read off integer bounds, and
    the exact predicate on alpha decides only when the bounds straddle the
    boundary.  The bounds are about q·2^−k wide.  The margins they resolve
    are differences |q″·α − p″| with q″ ≤ 2q: how far y is from an integer
    or from the midpoint of its two numerators, or how far apart two errors
    are.  Those are nonzero unless α lies in Q(√2), and at the denominators
    an oracle scans they are far wider than q·2^−k, so in practice the
    predicates run only where two errors tie, as they can for values in
    Q(√2) such as 1."""
    if alpha.sign() <= 0 or alpha.is_sqrt2_rational():
        raise ValueError("oracle requires a positive value outside √2·Q")
    k = _ORACLE_BITS
    A = alpha.floor_linear(ZRt2(1 << k, 0), ZERO, ONE)
    B = alpha.floor_linear(ZRt2(0, 1 << k), ZERO, ONE)
    R = isqrt(2 << 2 * k)
    records: list[H4Fraction] = []
    # The record's bounds on |q·α − p|·2^k and its exact (s·q, s·p), s the sign of q·α − p.
    best: tuple[int, int, ZRt2, ZRt2] | None = None
    for scanned, q in enumerate(denominator_ladder(q_max), start=1):
        if scanned > cap:
            raise CapExceeded(f"oracle scan did not finish within {cap} denominators")
        # Odd q = c takes numerators √2·a and y = q·α/√2; q = √2·c takes
        # numerators a and y = q·α.  Either way c·B < y·2^h < c·B + c.
        odd = q.a != 0
        c, h = (q.a, k + 1) if odd else (q.b, k)
        y_lo, y_hi = c * B, c * B + c
        f = y_lo >> h
        if (y_hi - 1) >> h != f:
            f = alpha.floor_linear(q, ZERO, SQRT2 if odd else ONE)
        a_lo, a_hi = coprime_neighbours(f, c, odd)
        # a_lo < y < a_hi, so a_lo is nearer iff 2y < a_lo + a_hi.
        mid = (a_lo + a_hi) << h
        near_lo = 2 * y_hi <= mid
        if not near_lo and 2 * y_lo < mid:
            # The sign of 2q·α − (lo + hi), with 2q > 0.
            ends = (0, a_lo + a_hi) if odd else (a_lo + a_hi, 0)
            sign = alpha.linear_sign_ints(2 * q.a, 2 * q.b, *ends)
            assert sign != 0, "numerator tie would put the value in √2·Q"
            near_lo = sign < 0
        a = a_lo if near_lo else a_hi
        # Bounds on (q·α − p)·2^k: c·α − √2·a for odd q, c·α√2 − a otherwise.
        if odd:
            z_lo, z_hi = c * A - a * R - max(a, 0), c * A + c - a * R - min(a, 0)
        else:
            z_lo, z_hi = y_lo - (a << k), y_hi - (a << k)
        e_lo, e_hi = (z_lo, z_hi) if near_lo else (-z_hi, -z_lo)
        beats = best is None or e_hi < best[0]
        if beats or e_lo < best[1]:
            p = ZRt2(0, a) if odd else ZRt2(a, 0)
            sq, sp = (q, p) if near_lo else (-q, -p)
            # |q·α − p| = α·sq − sp beats the record iff α·(sq − sq′) − (sp − sp′) < 0.
            if beats or alpha.linear_sign(sq - best[2], sp - best[3]) < 0:
                records.append(canonicalize_pair(p, q))
                best = (e_lo, e_hi, sq, sp)
    return records


def legendre_classify(alpha: Surd, frac: H4Fraction, cap: int = DEFAULT_CAP) -> str:
    """Three-way classification of a canonical fraction against alpha:
    within 1/(2q²) (sufficient), a best approximation anyway, or neither.

    Consistency is asserted: sufficient implies membership, and membership
    implies the 1/q² bound."""
    sq, sp = _signed(alpha, frac.q, frac.p)

    def within(k: int) -> bool:
        # |q·α − p|·q·k < 1 with q > 0: α·(k·q·sq) − (k·q·sp + 1) < 0.
        kq = frac.q * k
        return alpha.linear_sign(kq * sq, kq * sp + 1) < 0

    member = frac in {b.frac for b in best_approximations(alpha, max_q=frac.q, cap=cap)}
    if within(2):
        assert member, "sufficient condition must imply membership"
        return BEST_BY_SUFFICIENT
    if member:
        assert within(1), "members satisfy the 1/q² bound"
        return BEST_NOT_SUFFICIENT
    return NOT_BEST
