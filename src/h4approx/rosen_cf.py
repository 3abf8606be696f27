"""Rosen and dual-Rosen continued fractions: digit maps, convergents, the
selector matrices picking the smaller-denominator interval endpoint, and the
purely combinatorial regrouping of a digit expansion into either kind.

Two independent digit pipelines exist on purpose: exact Gauss-map iteration
(surd inputs) and block regrouping of the expansion word (any input).  They
must agree wherever both apply, and the convergent functions check that
they do.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Callable, Iterator

from .exact_field import ONE, SQRT2, TWO, ZERO, Surd, ZRt2
from .hecke_group import H4Fraction, IntMat, Mat2, as_mat2, canonicalize_pair
from .h4_expansion import DEFAULT_CAP, CapExceeded, Expansion, Source


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
        """r_i/s_i by the standard recurrence; denominators must increase."""
        out: list[ConvergentPair] = []
        r_prev, s_prev = ONE, ZERO
        r, s = ZRt2(0, self.a0), ONE
        out.append(ConvergentPair(r, s, 0, self.kind, canonicalize_pair(r, s)))
        for i, t in enumerate(self.terms, start=1):
            coeff = ZRt2(0, t.a)
            r, r_prev = coeff * r + t.eps * r_prev, r
            s, s_prev = coeff * s + t.eps * s_prev, s
            if s.cmp(s_prev) <= 0:
                raise AssertionError(f"denominators not increasing at i={i}")
            out.append(ConvergentPair(r, s, i, self.kind, canonicalize_pair(r, s)))
        return out

    def value(self) -> Surd:
        """Exact value of the truncation (the last convergent)."""
        last = self.convergents()[-1]
        return Surd.from_ratio(last.r, last.s)


def _rosen_window(x: Surd) -> int:
    # a√2 − 1/√2 < x < a√2 + 1/√2  ⟺  a = ⌊(√2·x + 1)/2⌋
    return x.floor_linear(SQRT2, -ONE, TWO)


def _dual_window(x: Surd) -> int:
    # (a−1)√2 + 1 ≤ x < a√2 + 1  ⟺  a = ⌊(x − 1)/√2⌋ + 1
    return x.floor_linear(ONE, ONE, SQRT2) + 1


def _gauss_map(
    alpha: Surd,
    n_terms: int,
    kind: str,
    window: Callable[[Surd], int],
    lower: int | ZRt2,
    cap: int,
) -> CFExpansion:
    """Exact iteration of f(x) = 1/|x − a√2| with a taken from the window;
    every iterate after the first exceeds `lower`.  With ε the sign of
    x − a√2, f is the Möbius map [[0, 1], [ε, −ε·a√2]], one normalization
    per term.  Raises CapExceeded when the terms need more than `cap`
    iterations."""
    if alpha.is_sqrt2_rational():
        raise DomainError("value lies in √2·Q")
    a0 = a = window(alpha)
    x = alpha
    terms: list[RosenDigit] = []
    while len(terms) < n_terms:
        if len(terms) >= cap:
            raise CapExceeded(f"Gauss map stopped at its cap of {cap} iterations")
        eps = x.linear_sign(ONE, ZRt2(0, a))
        x = Mat2.of(0, 1, eps, ZRt2(0, -eps * a)).act(x)
        assert x.cmp(lower) > 0
        a = window(x)
        terms.append(RosenDigit(eps, a))
    return CFExpansion(kind, a0, tuple(terms))


def rosen_digits(alpha: Surd, n_terms: int, cap: int = DEFAULT_CAP) -> CFExpansion:
    """Rosen expansion by exact iteration of f(x) = 1/|x − a√2| on the
    nearest-√2-multiple window."""
    return _gauss_map(alpha, n_terms, "rosen", _rosen_window, SQRT2, cap)


def dual_rosen_digits(alpha: Surd, n_terms: int, cap: int = DEFAULT_CAP) -> CFExpansion:
    """Dual expansion: window (ã−1)√2 + 1 ≤ x < ã√2 + 1, closed left end."""
    return _gauss_map(alpha, n_terms, "dual-rosen", _dual_window, 1, cap)


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
