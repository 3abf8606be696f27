"""Rosen and dual-Rosen continued fractions: digit maps, convergents, the
selector matrices picking the smaller-denominator interval endpoint, and the
purely combinatorial regrouping of a digit expansion into either kind.

Two independent digit pipelines exist on purpose: exact Gauss-map iteration
(surd inputs) and block regrouping of the expansion word (any input).  They
must agree wherever both apply, and the convergent functions check that
they do.  The Gauss map runs on an integer state G_i with α = G_i·x_i and
reads each decision off a box of the iterate x_i over cached integer
bounds on α, as Lehmer reads quotients off leading words; an exact sign of
α·c − d decides only where the box straddles.  It shares only α's bounds
and the sign kernel with the regrouping.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterator

from .exact_field import Surd, ZRt2, zrt2_sign
from .hecke_group import IDENTITY, H4Fraction, IntMat, Mat2, as_mat2, canonicalize_pair, column
from .h4_expansion import (
    _GUARD, DEFAULT_CAP, CapExceeded, Expansion, Source, _box_scale, _enclose, _fixed_bounds,
)

_ITERATE_SCALE = _box_scale(64)  # the Gauss-map iterate is boxed at 2^−K, K = 64


class DomainError(ValueError):
    """Continued-fraction maps are undefined on √2·Q."""


@dataclass(frozen=True, slots=True)
class RosenDigit:
    """One partial quotient: the pair (ε_i, a_i) under the fraction bar."""

    eps: int
    a: int

    def __post_init__(self) -> None:
        if self.eps not in (-1, 1):
            raise ValueError("eps must be ±1")
        if self.a < 1:
            raise ValueError("partial quotients are positive")


@dataclass(frozen=True, slots=True)
class ConvergentPair:
    r: ZRt2
    s: ZRt2
    index: int
    kind: str
    frac: H4Fraction


def _recur(t: RosenDigit, x: tuple[int, int], x_prev: tuple[int, int]) -> tuple[int, int]:
    """a√2·x + ε·x_prev on (a, b) int pairs, as a√2·(p + q√2) = 2a·q + a·p·√2."""
    p, q = x
    return 2 * t.a * q + t.eps * x_prev[0], t.a * p + t.eps * x_prev[1]


@dataclass(frozen=True)
class CFExpansion:
    """⟦a0; ε_1/a_1, ε_2/a_2, ...⟧ truncated to finitely many terms."""

    kind: str  # "rosen" | "dual-rosen"
    a0: int
    terms: tuple[RosenDigit, ...]

    def __post_init__(self) -> None:
        for i, t in enumerate(self.terms):
            if self.kind == "rosen":
                # a_i = 1 forces ε_{i+1} = +1 (i ≥ 1).
                if i + 1 < len(self.terms) and t.a == 1:
                    if self.terms[i + 1].eps != 1:
                        raise ValueError(f"uniqueness violated after term {i + 1}")
            else:
                # ε̃_i = −1 forces ã_i ≥ 2.
                if t.eps == -1 and t.a < 2:
                    raise ValueError(f"dual uniqueness violated at term {i + 1}")

    def convergents(self) -> list[ConvergentPair]:
        """r_i/s_i by the recurrence r_i = a_i√2·r_{i−1} + ε_i·r_{i−2} (the
        same for s) on (a, b) int pairs for a + b√2; denominators must
        increase.  ZRt2 values and fractions are built only for the pairs
        returned."""

        def pair(i: int, r: tuple[int, int], s: tuple[int, int]) -> ConvergentPair:
            rz, sz = ZRt2(*r), ZRt2(*s)
            return ConvergentPair(rz, sz, i, self.kind, canonicalize_pair(rz, sz))

        r, r_prev = (0, self.a0), (1, 0)  # r_0 = a0√2, r_{−1} = 1
        s, s_prev = (1, 0), (0, 0)  # s_0 = 1, s_{−1} = 0
        out = [pair(0, r, s)]
        for i, t in enumerate(self.terms, start=1):
            r, r_prev = _recur(t, r, r_prev), r
            s, s_prev = _recur(t, s, s_prev), s
            if zrt2_sign(s[0] - s_prev[0], s[1] - s_prev[1]) <= 0:
                raise AssertionError(f"denominators not increasing at i={i}")
            out.append(pair(i, r, s))
        return out

    def value(self) -> Surd:
        """Exact value of the truncation (the last convergent)."""
        last = self.convergents()[-1]
        return Surd.from_ratio(last.r, last.s)


def _step(g: IntMat, a: int, eps: int) -> IntMat:
    """−ε·G·[[a√2, ε], [1, 0]] on the integer state of G, of parity form
    like the Expansion's chains but with signed entries.  G and −G are the
    same Möbius map, and the factor −ε keeps M = t − uα positive: the step
    sends M to M·|x − a√2|."""
    T, V, U, W, par = g
    if par:
        return (-eps * (2 * a * T + V), -T, -eps * (a * U + W), -U, 0)
    return (-eps * (a * T + V), -T, -eps * (2 * a * U + W), -U, 1)


def _quotient(n: tuple[int, int], m_lo: int, m_hi: int, k: int) -> tuple[int, int]:
    """Bounds on (N/M)·2^k from N·2^b in [n_lo, n_hi] and M·2^b in
    [m_lo, m_hi], m_lo > 0: the floor and ceiling of the extreme corners."""
    n_lo, n_hi = n
    return ((n_lo << k) // (m_hi if n_lo >= 0 else m_lo),
            -((-n_hi << k) // (m_lo if n_hi >= 0 else m_hi)))


def _iterate_box(alpha: Surd, fixed: tuple[int, ...], g: IntMat) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(fixed, box): the _fixed_bounds of α at the precision b this step
    reads, and bounds (K, X, X′, Y, Y′, R) in the layout of _enclose on the
    iterate x = N/M, with N = wα − v and M = t − uα > 0 for
    G = [[t, v], [u, w]]: X ≤ x·2^K ≤ X′ and Y ≤ x√2·2^K ≤ Y′, the corner
    quotients of N and √2N by M, all three enclosed at the same b.
    det G = ±1 makes M about 1/(|G|·x), so b ≥ 2·bits(G) + K + _GUARD
    leaves K bits and more in an x of a few bits.  b only doubles: once
    more wherever M's lower end is not positive or the box is wider than
    4 units, as an iterate of more than about _GUARD/2 bits makes it."""
    k, r = _ITERATE_SCALE[0], _ITERATE_SCALE[3]
    ua, ub, ta, tb = column(g, "tu")
    wa, wb, va, vb = column(g, "vw")
    need = 2 * max(map(abs, g[:4])).bit_length() + k + _GUARD
    b = fixed[0]
    while b < need:
        b *= 2
    while True:
        if b > fixed[0]:
            fixed = _fixed_bounds(alpha, b)
        neg_hi, neg_lo = _enclose(fixed, ua, ub, ta, tb)  # α·u − t = −M
        m_lo, m_hi = -neg_lo, -neg_hi
        if m_lo > 0:
            x_lo, x_hi = _quotient(_enclose(fixed, wa, wb, va, vb), m_lo, m_hi, k)
            if x_hi - x_lo <= 4:
                break
        b *= 2
    # √2N = α·√2w − √2v, with √2·(p + q√2) = 2q + p√2
    y_lo, y_hi = _quotient(_enclose(fixed, 2 * wb, wa, 2 * vb, va), m_lo, m_hi, k)
    return fixed, (k, x_lo, x_hi, y_lo, y_hi, r)


def _exact_sign(alpha: Surd, g: IntMat, ca: int, cb: int, da: int, db: int) -> int:
    """Exact sign of x·c − d for the iterate x = N/M, M > 0, and c, d in
    Z[√2]: the sign of N·c − M·d = α·(c·w + d·u) − (c·v + d·t)."""
    ua, ub, ta, tb = column(g, "tu")
    wa, wb, va, vb = column(g, "vw")
    c, d = ZRt2(ca, cb), ZRt2(da, db)
    return alpha.linear_sign(c * ZRt2(wa, wb) + d * ZRt2(ua, ub), c * ZRt2(va, vb) + d * ZRt2(ta, tb))


def _side(alpha: Surd, g: IntMat, box: tuple[int, ...], pa: int, pb: int) -> int:
    """Sign of x − (pa + pb√2), read off the box of the iterate x; the
    exact sign decides only where the box straddles the point."""
    lo, hi = _enclose(box, 1, 0, pa, pb)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return _exact_sign(alpha, g, 1, 0, pa, pb)


def _window(alpha: Surd, g: IntMat, box: tuple[int, ...], gamma: tuple[int, int]) -> int:
    """a = ⌊(√2·x + γ)/2⌋, the largest a with x·√2 − (2a − γ) ≥ 0, for the
    iterate x: the floors of the box's two ends, and exact signs bisect
    between them where the box holds a window end."""
    ga, gb = gamma
    k = box[0]
    lo, hi = _enclose(box, 0, 1, -ga, -gb)
    a, top = lo >> (k + 1), hi >> (k + 1)
    while a < top:
        mid = (a + top + 1) // 2
        if _exact_sign(alpha, g, 0, 1, 2 * mid - ga, -gb) >= 0:
            a = mid
        else:
            top = mid - 1
    return a


# kind: (γ of the window a = ⌊(√2·x + γ)/2⌋, the lower end that every later
# iterate exceeds), each as (a, b) for a + b√2.  Rosen: a√2 − 1/√2 ≤ x <
# a√2 + 1/√2.  Dual: (a − 1)√2 + 1 ≤ x < a√2 + 1, with its closed left end.
_KINDS = {"rosen": ((1, 0), (0, 1)), "dual-rosen": ((2, -1), (1, 0))}


def _gauss_map(alpha: Surd, n_terms: int, kind: str, cap: int) -> CFExpansion:
    """Iteration of f(x) = 1/|x − a√2| with a from the kind's window, on
    the integer state G_i = −ε_i·G_{i−1}·[[a√2, ε_i], [1, 0]] with α = G_i·x_i.
    The window, ε = sign(x − a√2) and the check that every iterate after
    the first exceeds the window's lower end are read off one box of x_i
    (_iterate_box) over cached integer bounds on α; the exact
    Surd.linear_sign decides only where the box straddles, so no Surd is
    built per term.  The check raises AssertionError under python -O too.
    Raises CapExceeded when the terms need more than `cap` iterations."""
    if alpha.is_sqrt2_rational():
        raise DomainError("value lies in √2·Q")
    gamma, (la, lb) = _KINDS[kind]
    g = IDENTITY
    fixed, box = _iterate_box(alpha, _fixed_bounds(alpha, 256), g)
    a0 = a = _window(alpha, g, box, gamma)
    terms: list[RosenDigit] = []
    while len(terms) < n_terms:
        if len(terms) >= cap:
            raise CapExceeded(f"Gauss map stopped at its cap of {cap} iterations")
        eps = _side(alpha, g, box, 0, a)
        g = _step(g, a, eps)
        fixed, box = _iterate_box(alpha, fixed, g)
        if _side(alpha, g, box, la, lb) <= 0:
            raise AssertionError(f"Gauss-map iterate {len(terms) + 1} does not exceed the window's lower end")
        a = _window(alpha, g, box, gamma)
        terms.append(RosenDigit(eps, a))
    return CFExpansion(kind, a0, tuple(terms))


def rosen_digits(alpha: Surd, n_terms: int, cap: int = DEFAULT_CAP) -> CFExpansion:
    """Rosen expansion by iteration of f(x) = 1/|x − a√2| on the
    nearest-√2-multiple window."""
    return _gauss_map(alpha, n_terms, "rosen", cap)


def dual_rosen_digits(alpha: Surd, n_terms: int, cap: int = DEFAULT_CAP) -> CFExpansion:
    """Dual expansion: window (ã−1)√2 + 1 ≤ x < ã√2 + 1, closed left end."""
    return _gauss_map(alpha, n_terms, "dual-rosen", cap)


def rosen_flip(exp: Expansion, n: int) -> bool:
    """σ_n: the reversal α*_n is below 1 (it never equals 1)."""
    return exp.star_cmp_one(n) < 0


def dual_flip(exp: Expansion, n: int) -> bool:
    """σ̃_n: the tail α_n is below 1, ties broken by the reversal.  A1 maps
    (0, ∞] into (0, 1/√2], A3 into [√2, ∞], and A2 fixes 1 and is
    increasing, so the digit word gives both signs, bar a next digit 2."""
    t = exp.tail_cmp_one(n)
    return t < 0 or (t == 0 and exp.star_cmp_one(n) < 0)


def _selected(exp: Expansion, n: int, flip: Callable[[Expansion, int], bool]) -> IntMat:
    """G_n, or G_n·J when flip holds: G_n with its columns swapped, which is
    (V, T, W, U) at the other parity.  Its first column t/u is the selected
    endpoint, M_n·∞ or N_n·∞."""
    T, V, U, W, par = exp.state(n)
    return (V, T, W, U, 1 - par) if flip(exp, n) else (T, V, U, W, par)


def select_M(exp: Expansion, n: int) -> Mat2:
    """G_n when the reversal exceeds 1, else G_n·J; M_n·∞ is the interval
    endpoint with the smaller denominator."""
    return as_mat2(_selected(exp, n, rosen_flip))


def select_N(exp: Expansion, n: int) -> Mat2:
    """G_n when the tail exceeds 1 (ties broken by the reversal), else G_n·J;
    as in dual_flip, A1 maps (0, ∞] into (0, 1/√2], A3 into [√2, ∞], and A2
    fixes 1 and is increasing."""
    return as_mat2(_selected(exp, n, dual_flip))


def _h4_letters_rosen(exp: Expansion) -> Iterator[str]:
    """Letters of M_n as a word in {A1J, A2, A3}, driven by the flip state
    σ_n; A1J toggles σ after its digit."""
    sigma = False  # σ_0: the empty reversal counts as ∞ > 1
    for n in range(1, exp.cap + 1):
        d = exp.digit(n)
        if d == 2:
            letter = "A2"
        elif (d == 1) != sigma:  # d=1 with σ=0, or d=3 with σ=1
            letter = "A1J"
            sigma = not sigma
        else:
            letter = "A3"
        assert sigma == rosen_flip(exp, n)
        yield letter
    raise CapExceeded(f"regrouping walk read {exp.cap} letters")


def _h4_letters_dual(exp: Expansion, sigma: bool) -> Iterator[str]:
    """Letters of N_n in {JA1, A2, A3} from the initial flip σ̃_0 on; JA1
    toggles σ̃ before its digit."""
    for n in range(1, exp.cap + 1):
        d = exp.digit(n)
        nxt = dual_flip(exp, n)
        if sigma == nxt:
            assert d != (3 if sigma else 1)
            yield "A2" if d == 2 else "A3"
        else:
            assert d == (1 if sigma else 3)
            yield "JA1"
        sigma = nxt
    raise CapExceeded(f"regrouping walk read {exp.cap} letters")


def _blocks(letters: Iterator[str], closers: dict[str, int]) -> Iterator[tuple[int, int]]:
    """(A3-run length, closer sign) for each run of A3 letters closed by one
    of the closers."""
    run = 0
    for letter in letters:
        if letter == "A3":
            run += 1
        else:
            yield run, closers[letter]
            run = 0


def rosen_from_h4(source: Source | Expansion, n_terms: int) -> CFExpansion:
    """Rosen digits read off the expansion word by block regrouping: runs of
    A3 letters closed by A1J (ε = +1) or A2 (ε = −1); the value's own block
    carries one extra unit from the shift into the map's domain.

    The walk stops at the letter closing block n_terms, the last block the
    terms use; a block is decided by the letters before it, so reading more
    would not change the result.  It raises CapExceeded when the expansion's
    cap letters do not close that many blocks."""
    exp = source if isinstance(source, Expansion) else Expansion(source)
    blocks = islice(_blocks(_h4_letters_rosen(exp), {"A1J": 1, "A2": -1}), n_terms + 1)
    run0, eps = next(blocks)
    # Block 0 regroups the shifted value, so it encodes a0 + 1.
    a0 = run0 if eps == 1 else run0 + 1
    terms: list[RosenDigit] = []
    for run, nxt_eps in blocks:
        terms.append(RosenDigit(eps, run + 1 if nxt_eps == 1 else run + 2))
        eps = nxt_eps
    return CFExpansion("rosen", a0, tuple(terms))


def dual_from_h4(source: Source | Expansion, n_terms: int) -> CFExpansion:
    """Dual digits from the expansion word: runs of A3 closed by JA1
    (ε̃ = +1) or A2 (ε̃ = −1); a −1 sign borrows one unit from the following
    block.  A value below 1 contributes ã_0 = 0 and a phantom +1 closer.

    The walk stops at the letter closing block n_terms, counting the phantom
    block; a block is decided by the letters before it, so reading more
    would not change the result.  It raises CapExceeded when the expansion's
    cap letters do not close that many blocks."""
    exp = source if isinstance(source, Expansion) else Expansion(source)
    sigma0 = dual_flip(exp, 0)
    blocks = _blocks(_h4_letters_dual(exp, sigma0), {"JA1": 1, "A2": -1})
    if sigma0:
        blocks = chain([(-1, 1)], blocks)  # phantom block: ã_0 = 0, ε̃_1 = +1
    blocks = islice(blocks, n_terms + 1)
    run0, eps = next(blocks)
    a0 = run0 + 1
    terms: list[RosenDigit] = []
    for run, nxt_eps in blocks:
        terms.append(RosenDigit(eps, run + 2 if eps == -1 else run + 1))
        eps = nxt_eps
    return CFExpansion("dual-rosen", a0, tuple(terms))


def rosen_convergents(alpha: Surd, i_max: int) -> list[ConvergentPair]:
    """r_0..r_{i_max} by digit recurrence on the Gauss-map digits, which are
    checked term by term against the regrouping of the expansion word."""
    cf = rosen_digits(alpha, i_max)
    word = rosen_from_h4(alpha, i_max)
    if (cf.a0, cf.terms) != (word.a0, word.terms):  # a real check under python -O too
        raise AssertionError("Gauss map and word regrouping disagree")
    return cf.convergents()


def dual_rosen_convergents(alpha: Surd, i_max: int) -> list[ConvergentPair]:
    """r̃_0..r̃_{i_max} by digit recurrence on the Gauss-map digits, which are
    checked term by term against the regrouping of the expansion word."""
    cf = dual_rosen_digits(alpha, i_max)
    word = dual_from_h4(alpha, i_max)
    if (cf.a0, cf.terms) != (word.a0, word.terms):  # a real check under python -O too
        raise AssertionError("Gauss map and word regrouping disagree")
    return cf.convergents()
