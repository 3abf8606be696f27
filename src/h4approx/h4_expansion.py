"""Digit expansion of a positive real over the group: the digit stream
d_n in {1,2,3}, the convergent matrix chain G_n, exact tails, reversals,
and periodicity detection.

Two interchangeable backends drive everything downstream: an exact surd
(digits read off a 128-bit integer box around the tail, as Lehmer reads
quotients off leading words, a whole run of 1s or 3s in one step, with
the sign of α·c − d for c, d read off the integer state of G_n wherever
the box holds a boundary; tails on demand from G_n) and a symbolic digit
stream (digits prescribed by a rule; tail questions answered
combinatorially).  Either way the expansion is stored by segments, runs
of 1s or 3s and single 2s, with G_n kept only where a segment starts.
Period detection scans β = α/√2 as integer triples.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from math import gcd, isqrt
from operator import add
from typing import Callable, Union

from .exact_field import ONE, SQRT2, ZERO, QRt2, Surd, ZRt2, _root_sign
from .hecke_group import (
    IDENTITY, IntMat, Mat2, T, as_mat2, column, column_fraction, denominator_sq, times_digit, times_run,
)

DEFAULT_CAP = 100_000  # walk indices, Gauss-map terms, digit scans, period scans, oracle denominators
_OUTER_SIGN = {1: -1, 3: 1}  # sign(A_d·x − 1) for every x in (0, ∞]
_BOUNDARY_SIGN = {"inv_sqrt2": -1, "sqrt2": 1}  # sign(x − 1) at the boundary x
_BETA_TAIL_MAPS = {1: (1, 0, -2, 1), 2: (2, -1, -2, 2), 3: (1, -1, 0, 1)}  # A_d⁻¹ under x ↦ x/√2


class Terminated(Exception):
    """The expansion reached a boundary value: the input is in √2·Q."""

    def __init__(self, boundary: str, length: int | None = None):
        super().__init__(f"expansion terminated at boundary {boundary}")
        self.boundary = boundary
        self.length = length


class CapExceeded(RuntimeError):
    pass


class Undecidable(RuntimeError):
    """A stream rule could not certify a digit question within the cap."""


class DigitStream:
    """Abstract digit source; digits are 1-indexed."""

    def digit(self, n: int) -> int:
        raise NotImplementedError

    def next_non_two(self, n: int, cap: int = DEFAULT_CAP) -> int | None:
        """Smallest index > n whose digit differs from 2, or None when the
        tail past n is certified all twos."""
        for k in range(n + 1, n + cap + 1):
            if self.digit(k) != 2:
                return k
        raise Undecidable(f"no non-2 digit found within {cap} positions after {n}")


def _primitive_root(word: tuple[int, ...]) -> tuple[int, ...]:
    n = len(word)
    for length in range(1, n + 1):
        if n % length == 0 and word == word[:length] * (n // length):
            return word[:length]
    return word


@dataclass(frozen=True)
class PeriodicStream(DigitStream):
    """Eventually periodic digits; stored with primitive period and minimal
    preperiod."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.period:
            raise ValueError("period must be nonempty")
        pre = tuple(self.preperiod)
        per = _primitive_root(tuple(self.period))
        while pre and pre[-1] == per[-1]:
            pre = pre[:-1]
            per = per[-1:] + per[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def digit(self, n: int) -> int:
        if n <= len(self.preperiod):
            return self.preperiod[n - 1]
        return self.period[(n - 1 - len(self.preperiod)) % len(self.period)]

    def next_non_two(self, n: int, cap: int = DEFAULT_CAP) -> int | None:
        horizon = max(n + 1, len(self.preperiod) + 1) + len(self.period)
        for k in range(n + 1, horizon + 1):
            if self.digit(k) != 2:
                return k
        return None


@dataclass(frozen=True)
class FiniteWord(DigitStream):
    """Terminating expansion of a value in √2·Q, with the boundary reached."""

    digits: tuple[int, ...]
    boundary: str  # "inv_sqrt2" | "sqrt2"

    def digit(self, n: int) -> int:
        if n <= len(self.digits):
            return self.digits[n - 1]
        raise Terminated(self.boundary, len(self.digits))

    def completions(self) -> tuple[PeriodicStream, PeriodicStream]:
        """The two infinite digit sequences representing the same value."""
        heads = {"inv_sqrt2": (1, 2), "sqrt2": (2, 3)}
        lo_head, hi_head = heads[self.boundary]
        return (
            PeriodicStream(self.digits + (lo_head,), (3,)),
            PeriodicStream(self.digits + (hi_head,), (1,)),
        )


@dataclass(frozen=True)
class RuleStream(DigitStream):
    """Digits generated by a closed-form rule."""

    name: str
    digit_fn: Callable[[int], int] = field(repr=False)
    non_two_fn: Callable[[int], int] | None = field(default=None, repr=False)

    def digit(self, n: int) -> int:
        return self.digit_fn(n)

    def next_non_two(self, n: int, cap: int = DEFAULT_CAP) -> int | None:
        if self.non_two_fn is not None:
            return self.non_two_fn(n)
        return super().next_non_two(n, cap)


def _four_blocks_digit(n: int) -> int:
    i = (n.bit_length() - 1) // 2
    t = 1 << (2 * i)
    if n < 2 * t:
        return 3
    if n < 3 * t:
        return 2
    return 1


def _four_blocks_next_non_two(n: int) -> int:
    k = n + 1
    if _four_blocks_digit(k) != 2:
        return k
    i = (k.bit_length() - 1) // 2
    return 3 << (2 * i)


def _is_power_of_three(n: int) -> bool:
    while n % 3 == 0:
        n //= 3
    return n == 1


def _three_powers_digit(n: int) -> int:
    return 3 if _is_power_of_three(n) else 2


def _three_powers_next_non_two(n: int) -> int:
    p = 1
    while p <= n:
        p *= 3
    return p


def four_blocks_stream() -> RuleStream:
    """Digits 3/2/1 on consecutive powers-of-4 blocks; drives the sharpness
    checks of the two-sided approximation band."""
    return RuleStream("four-blocks", _four_blocks_digit, _four_blocks_next_non_two)


def three_powers_stream() -> RuleStream:
    """Digit 3 exactly at powers of three, 2 elsewhere; drives the sharpness
    check of the 1/2 sufficiency constant."""
    return RuleStream("three-powers", _three_powers_digit, _three_powers_next_non_two)


STREAM_RULES = {
    "four-blocks": four_blocks_stream,
    "three-powers": three_powers_stream,
}


Source = Union[Surd, DigitStream]


def _box_scale(k: int) -> tuple[int, int, int, int, int]:
    """The integers of a tail box at 2^−k: k, 2^k, 4^k, R = ⌊√2·2^k⌋ and
    I = ⌊2^k/√2⌋.  Both roots are irrational, so for an integer X,
    X·2^−k < 1/√2 ⟺ X ≤ I and X·2^−k > √2 ⟺ X > R."""
    return k, 1 << k, 1 << 2 * k, isqrt(2 << 2 * k), isqrt(1 << 2 * k - 1)


_SCALE = _box_scale(128)  # the tail box α_n ∈ [L, H]·2^−K of the surd backend, K = 128
_GUARD = 64  # bits of α's bounds beyond 2·bits(G) + k in _tail_box, and 2·bits(c, d) in alpha_sign


def _box_run(box: tuple[int, int] | None) -> tuple[int, int]:
    """The digit d whose cylinder holds the box [L, H]·2^−K, and how many
    digits d in a row the box certifies; (0, 0) when the box holds a
    boundary or there is no box.  The cylinders: 1 when 2H² < 4^K, 3 when
    L² > 2·4^K, 2 when 2L² > 4^K and H² < 2·4^K.  A run of 3s is
    x ↦ x − √2 repeated, and the j-th 3 needs x > j√2: L ≥ j(R + 1) holds
    it for j ≤ L // (R + 1).  A run of 1s is x ↦ x/(1 − √2x) repeated, and
    the j-th 1 needs j√2x < 1: j(R + 1)H < 4^K holds it, and 2H² < 4^K
    the first one.  A 2 is one digit."""
    if box is None:
        return 0, 0
    _, _, sq, r, i = _SCALE
    lo, hi = box
    if hi <= i:
        return 1, max(1, (sq - 1) // ((r + 1) * hi))
    if lo > r:
        return 3, lo // (r + 1)
    return (2, 1) if lo > i and hi <= r else (0, 0)


def _box_step(box: tuple[int, int], d: int, m: int) -> tuple[int, int] | None:
    """The box of the tail A_d^−m·x over x in [L, H]·2^−K, m digits d that
    _box_run certified, with √2 in [R, R + 1]·2^−K and every end rounded
    outward; None (the box is dropped) when a rounded denominator or the
    new lower end is not positive.  The maps x − m√2, x/(1 − m√2x) and,
    for m = 1, (√2x − 1)/(√2 − x) increase in x on their cylinders.  In √2
    the first decreases and the second increases; the third has derivative
    (1 − x²)/(√2 − x)², so its lower end takes R when L ≤ 2^K and R + 1
    above, its upper end the other way round."""
    _, one, sq, r, _ = _SCALE
    lo, hi = box
    if d == 3:
        lo, hi = lo - m * (r + 1), hi - m * r
    elif d == 1:
        den = sq - m * (r + 1) * hi
        if den <= 0:
            return None
        lo, hi = lo * sq // (sq - m * r * lo), -(-hi * sq // den)
    else:
        if hi >= r:
            return None
        s = r if lo <= one else r + 1
        t = r + 1 if hi <= one else r
        lo, hi = (s * lo - sq) // (s - lo), -((sq - t * hi) // (t - hi))
    return (lo, hi) if lo > 0 else None


def _fixed_bounds(alpha: Surd, b: int) -> tuple[int, int, int, int, int, int]:
    """(b, A, A′, C, C′, R₂): integers with A ≤ α·2^b ≤ A′, C ≤ α√2·2^b ≤ C′
    and R₂ = ⌊√2·2^b⌋, for α = (P + Q√D)/S, from isqrt alone.  Every term
    is enclosed at 2^−b, √D as isqrt of D·4^b, and Q·√D by the corners of
    its two intervals; α√2 is (P√2 + Q√2·√D)/S."""
    r2 = isqrt(2 << 2 * b)
    one = 1 << b

    def scaled(x: int, y: int) -> tuple[int, int]:  # x + y√2 at 2^−b
        base = x * one + y * r2
        return (base, base + y) if y >= 0 else (base + y, base)

    P, Q, D = alpha.P, alpha.Q, alpha.D
    den = alpha.S.a << b
    d_lo, d_hi = scaled(D.a, D.b)
    roots = (isqrt(max(d_lo, 0) << b), isqrt(d_hi << b) + 1)
    out = [b]
    for pa, pb, qa, qb in ((P.a, P.b, Q.a, Q.b), (2 * P.b, P.a, 2 * Q.b, Q.a)):
        p_lo, p_hi = scaled(pa, pb)
        corners = [q * root for q in scaled(qa, qb) for root in roots]
        out += [((p_lo << b) + min(corners)) // den, -(-((p_hi << b) + max(corners)) // den)]
    return (*out, r2)


def _enclose(bounds: tuple[int, ...], ca: int, cb: int, da: int, db: int) -> tuple[int, int]:
    """Integers lo ≤ (x·c − d)·2^b ≤ hi for c = ca + cb√2 and d = da + db√2
    as plain ints, from bounds (b, X, X′, Y, Y′, R₂) with X ≤ x·2^b ≤ X′,
    Y ≤ x√2·2^b ≤ Y′ and R₂ = ⌊√2·2^b⌋, as _fixed_bounds gives for α:
    (x·c − d)·2^b lies in ca·[X, X′] + cb·[Y, Y′] − da·2^b − db·[R₂, R₂ + 1],
    each product at the end that its coefficient's sign picks."""
    b, x_lo, x_hi, y_lo, y_hi, r2 = bounds
    lo = (ca * x_lo if ca >= 0 else ca * x_hi) + (cb * y_lo if cb >= 0 else cb * y_hi)
    hi = (ca * x_hi if ca >= 0 else ca * x_lo) + (cb * y_hi if cb >= 0 else cb * y_lo)
    base = da << b
    lo -= base + (db * (r2 + 1) if db >= 0 else db * r2)
    hi -= base + (db * r2 if db >= 0 else db * (r2 + 1))
    return lo, hi


def _quotient(n: tuple[int, int], m_lo: int, m_hi: int, k: int) -> tuple[int, int]:
    """Bounds on (N/M)·2^k from N·2^b in [n_lo, n_hi] and M·2^b in
    [m_lo, m_hi], m_lo > 0: the floor and ceiling of the extreme corners."""
    n_lo, n_hi = n
    return ((n_lo << k) // (m_hi if n_lo >= 0 else m_lo),
            -((-n_hi << k) // (m_lo if n_hi >= 0 else m_hi)))


def _tail_box(alpha: Surd, fixed: tuple[int, ...] | None, g: IntMat,
              k: int) -> tuple[tuple[int, ...], tuple[int, int], tuple[int, int]]:
    """(fixed, (m_lo, m_hi), (lo, hi)) for x = G⁻¹·α = N/M, N = wα − v and
    M = t − uα, of a det ±1 integer state G = [[t, v], [u, w]] with M > 0:
    the _fixed_bounds of α at the precision b it read (from `fixed`, or
    new), m_lo ≤ M·2^b ≤ m_hi with m_lo > 0, and lo ≤ x·2^k ≤ hi, the
    corner quotients of N and M, each enclosed by _enclose.  The H4 tail
    α_n and the Gauss-map iterate x_i are both this x.  det G = ±1 makes M
    about 1/(|G|·x), so b ≥ 2·bits(G) + k + _GUARD leaves k bits and more
    in an x of a few bits.  b starts at 256 and only doubles: once more
    wherever M's lower end is not positive or the box is wider than 4
    units, as an x of more than about _GUARD/2 bits makes it."""
    ua, ub, ta, tb = column(g, "tu")
    wa, wb, va, vb = column(g, "vw")
    need = 2 * max(map(abs, g[:4])).bit_length() + k + _GUARD
    b = 256 if fixed is None else fixed[0]
    while b < need:
        b *= 2
    while True:
        if fixed is None or b > fixed[0]:
            fixed = _fixed_bounds(alpha, b)
        neg_hi, neg_lo = _enclose(fixed, ua, ub, ta, tb)  # α·u − t = −M
        m = (-neg_lo, -neg_hi)
        if m[0] > 0:
            lo, hi = _quotient(_enclose(fixed, wa, wb, va, vb), *m, k)
            if hi - lo <= 4:
                return fixed, m, (lo, hi)
        b *= 2


class Expansion:
    """Lazy digit/convergent engine over either backend.

    The unit of storage is a segment: a maximal run of 1s or of 3s, or a
    single 2.  Digits and sign(α*_n − 1) are flat lists; the integer state
    (T, V, U, W, parity) of G_n is kept only at each segment start and at
    the head n = len(_digits).  Inside a run, state(n) is one closed form
    from the segment's start (times_run): A1 and A3 are parabolic.  Every
    read of a cached index skips _extend, and _extend(n) never makes index
    n + 1 readable.  A surd backend keeps α besides them, an integer box
    α_n ∈ [L, H]·2^−K around the head's tail, and integer bounds on α for
    rebuilding that box; tails are built on demand from G_n.  The box
    decides the next digit when one cylinder holds it, and a whole run of
    1s or 3s in one step (_box_run), then steps past the digits taken with
    outward rounding, so the G_n-sized numbers are touched only to rebuild
    it, every few hundred digits on a typical surd.  Where a fresh box
    still holds a boundary, the digit is the exact _surd_step: since G_n is
    increasing on (0, ∞), α_n < x ⟺ α < G_n·x, one predicate
    α.linear_sign_ints(c, d) with c, d the integer halves of a column of
    G_n·A_d.  Stream digits arrive one at a time and are stored as
    segments.  The digit word decides where α_n and α*_n lie against 1:
    A1 maps (0, ∞] into (0, 1/√2], A3 into [√2, ∞], and A2 fixes 1 and is
    increasing.  Before a digit 2, the box that read it gives sign(α_n − 1)
    when it lies on one side of 1, and alpha_sign, on the bounds on α,
    gives it otherwise; either answer is kept.  run_end and leading_threes
    are segment lookups.  matrix(n) builds G_n over Z[√2] for the callers
    that need one.  Emitted values are immutable and safe to share.
    """

    def __init__(self, source: Source, cap: int = DEFAULT_CAP):
        self.cap = cap
        self._digits: list[int] = []
        self._stars: list[int] = [1]  # sign(α*_n − 1); α*_0 = ∞
        self._starts: list[int] = []  # the index n before each segment's first digit
        self._heads: list[IntMat] = []  # G_n at each of those n
        self._head: IntMat = IDENTITY  # G_n at n = len(_digits)
        self._boundary: str | None = None
        self._box: tuple[int, int] | None = None  # α_n ∈ [L, H]·2^−K at n = len(_digits)
        self._fixed: tuple[int, ...] | None = None  # _fixed_bounds of α, at the largest b used
        self._tail_signs: dict[int, int] = {}  # sign(α_n − 1) at surd indices n before a digit 2
        if isinstance(source, Surd):
            if source.sign() <= 0:
                raise ValueError("expansion requires a positive value")
            self.alpha: Surd | None = source
            self.stream: DigitStream | None = None
        elif isinstance(source, DigitStream):
            self.alpha = None
            self.stream = source
        else:
            raise TypeError(f"cannot expand {source!r}")

    def _extend(self, n: int) -> None:
        digits, stars = self._digits, self._stars
        while (k := len(digits)) < n:
            if self._boundary is not None:
                raise Terminated(self._boundary, k)
            try:
                if self.stream is not None:
                    d, m = self.stream.digit(k + 1), 1
                    if d not in (1, 2, 3):
                        raise ValueError(f"digit {d!r} at index {k + 1} is not 1, 2 or 3")
                else:
                    d, m = self._surd_run(n - k)
            except Terminated as exc:
                self._boundary = exc.boundary
                continue
            if d == 2 or not k or digits[-1] != d:  # a new segment
                self._starts.append(k)
                self._heads.append(self._head)
            if m == 1:
                self._head = times_digit(self._head, d)
                digits.append(d)
                stars.append(_OUTER_SIGN.get(d, stars[-1]))
            else:  # a run of 1s or 3s
                self._head = times_run(self._head, d, m)
                digits += [d] * m
                stars += [_OUTER_SIGN[d]] * m

    def _surd_run(self, limit: int) -> tuple[int, int]:
        """The next digit d and how many of them, at most `limit`, follow
        the head, read off the tail box when it lies in one cylinder.  A
        box that holds a boundary, or was dropped, is rebuilt from G_n
        once; when the fresh box holds a boundary too, the exact _surd_step
        decides one digit, and the box is rebuilt at the next one.  A √2·Q
        value puts its boundary in every box, so it ends in _surd_step's
        Terminated at the same index as the exact chain.  A box in the
        cylinder of 2 that lies on one side of 1 also gives sign(α_n − 1),
        which tail_cmp_one would otherwise ask of α."""
        box = self._box
        d, m = _box_run(box)
        if not d:
            box = self._box = self._refresh(self._head)
            d, m = _box_run(box)
            if not d:
                self._box = None
                return self._surd_step(self._head)[0], 1
        if d == 2:
            one = _SCALE[1]
            if box[0] > one or box[1] < one:
                self._tail_signs[len(self._digits)] = 1 if box[0] > one else -1
        m = min(m, limit)
        self._box = _box_step(box, d, m)
        return d, m

    def _refresh(self, g: IntMat) -> tuple[int, int]:
        """The tail box of α_n at 2^−K for G = G_n, by _tail_box; the bounds
        on α it read are kept for the next refresh and alpha_sign."""
        self._fixed, _, box = _tail_box(self.alpha, self._fixed, g, _SCALE[0])
        return box

    def _surd_step(self, g: IntMat) -> tuple[int, IntMat]:
        """The exact digit after G = G_n and G·A_d, from at most two signs:
        the fallback of _surd_run when a fresh tail box holds a boundary.  The
        new columns G·A1·∞ and G·A3·0 are the images of the boundaries 1/√2
        and √2, so α_n against 1/√2 is α against the left column of G·A1,
        and α_n against √2 is α against the right column of G·A3.  Each
        column's entries are integers or integers times √2, so each sign is
        one int predicate.  A tie is a boundary: α_n is 1/√2 or √2."""
        alpha = self.alpha
        assert alpha is not None
        g1 = times_digit(g, 1)
        low = alpha.linear_sign_ints(*column(g1, "tu"))
        if low == 0:
            raise Terminated("inv_sqrt2")
        if low < 0:
            return 1, g1
        g3 = times_digit(g, 3)
        high = alpha.linear_sign_ints(*column(g3, "vw"))
        if high == 0:
            raise Terminated("sqrt2")
        if high < 0:
            return 2, times_digit(g, 2)
        return 3, g3

    def alpha_sign(self, ca: int, cb: int, da: int, db: int) -> int:
        """Sign of α·c − d on a surd backend, for c = ca + cb√2 and
        d = da + db√2 as plain ints, read off the integer bounds on α, α√2
        and √2 at 2^−b kept for rebuilding the tail box, by _enclose.
        Where c and d are small beside 2^b, the bounds are first cut to
        b = 2·bits + _GUARD, the width that separates α·c from d at the
        margins the walk meets.  The exact predicate decides only where the
        bounds straddle 0."""
        alpha = self.alpha
        assert alpha is not None
        fixed = self._fixed
        if fixed is not None:
            b, a_lo, a_hi, c_lo, c_hi, r2 = fixed
            cut = b - 2 * max(abs(ca), abs(cb), abs(da), abs(db)).bit_length() - _GUARD
            if cut > 0:  # floors stay lower bounds, ceilings upper ones
                fixed = (b - cut, a_lo >> cut, -(-a_hi >> cut), c_lo >> cut, -(-c_hi >> cut), r2 >> cut)
            lo, hi = _enclose(fixed, ca, cb, da, db)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
        return alpha.linear_sign(ZRt2(ca, cb), ZRt2(da, db))

    def digit(self, n: int) -> int:
        if n > len(self._digits):
            self._extend(n)
        return self._digits[n - 1]

    def run_end(self, n: int, last: int) -> int:
        """The last index of the run of equal digits through d_n: the least
        j ≥ n with d_{j+1} ≠ d_n, or `last` when the run holds every digit
        up to `last`.  A segment is a maximal run, so a closed one answers
        at once; at the head, one _extend asks for every digit d the tail
        box certifies (a stream has no box).  No digit past `last` is read."""
        digits, starts = self._digits, self._starts
        d = self.digit(n)
        while n < last:
            if n == len(digits):
                box_d, m = _box_run(self._box)
                self._extend(min(last, n + (m if box_d == d else 1)))
            if digits[n] != d:
                break
            i = bisect_right(starts, n)  # the segment after the one holding d_{n+1}
            n = min(last, starts[i] if i < len(starts) else len(digits))
        return n

    def word(self, n: int) -> tuple[int, ...]:
        self._extend(n)
        return tuple(self._digits[:n])

    def state(self, n: int) -> IntMat:
        """G_n as its integer state (T, V, U, W, parity): the head, a
        segment start, or times_run from the start of the segment holding
        index n."""
        if n >= len(self._digits):
            if n > len(self._digits):
                self._extend(n)
            if n == len(self._digits):
                return self._head
        i = bisect_right(self._starts, n) - 1
        k = n - self._starts[i]
        return times_run(self._heads[i], self._digits[n - 1], k) if k else self._heads[i]

    def matrix(self, n: int) -> Mat2:
        """G_n over Z[√2], built from its integer state on each call."""
        return as_mat2(self.state(n))

    def tail(self, n: int) -> Surd | None:
        """The exact tail α_n = G_n⁻¹·α, built on each call; None on stream
        backends."""
        if self.alpha is None:
            return None
        return self.matrix(n).inverse().act(self.alpha)

    def tail_cmp_one(self, n: int) -> int:
        """Exact sign of α_n − 1, α_n = A_{d_{n+1}}·α_{n+1}.  A1 maps (0, ∞] into
        (0, 1/√2], A3 into [√2, ∞], and A2 fixes 1 and is increasing, so the
        next digit other than 2 decides; where a √2·Q value ends with only 2s
        after n, its boundary does (1/√2 is below 1, √2 above).  Only after a
        2 is the backend asked.  On a surd, the tail box that read the 2
        answers when it lies on one side of 1, else alpha_sign of α(u + w)
        against t + v does, on G_n, and the answer is kept.  On a stream,
        the next digit other than 2 answers."""
        if n > len(self._digits):
            self._extend(n)
        try:
            d = self.digit(n + 1)
            if d != 2:
                return _OUTER_SIGN[d]
            if self.alpha is not None:
                sign = self._tail_signs.get(n)
                if sign is None:  # the columns t/u and v/w added
                    g = self.state(n)
                    sign = self._tail_signs[n] = self.alpha_sign(*map(add, column(g, "tu"), column(g, "vw")))
                return sign
            assert self.stream is not None
            k = self.stream.next_non_two(n, self.cap)
        except Terminated as exc:  # G_n exists, so the value ends after n
            return _BOUNDARY_SIGN[exc.boundary]
        return 0 if k is None else _OUTER_SIGN[self.stream.digit(k)]

    def star_cmp_one(self, n: int) -> int:
        """Sign of α*_n − 1, α*_n = w_n/u_n = A_{d_n}···A_{d_1}·∞, kept as the
        digits arrive: A1 maps (0, ∞] into (0, 1/√2], A3 into [√2, ∞], and A2
        fixes 1 and is increasing, so the last digit other than 2 decides."""
        if n > len(self._digits):
            self._extend(n)
        return self._stars[n]

    def leading_threes(self) -> int:
        """The length of the leading run of 3s, by run_end: a run of more
        than `cap` raises CapExceeded, and no digit past cap + 1 is read."""
        if self.digit(1) != 3:
            return 0
        m = self.run_end(1, self.cap + 1)
        if m > self.cap:
            raise CapExceeded("unbounded run of leading 3 digits")
        return m

    def tail_bounds(self, n: int, tol_digits: int = 30) -> tuple[QRt2, QRt2]:
        """Exact rational-in-Q(√2) enclosure (v/w, t/u) of α_n: the image of
        (0, ∞) under the lookahead window W = A_{d_{n+1}}···A_{d_k}, for the
        first k where its width is below 10^-tol_digits.  det W = 1, so the
        width t/u − v/w is 1/(u·w), and the window stops at u·w > 10^tol_digits,
        decided on integers as u²·w² > 10^(2·tol_digits).
        The window reads at most `cap` digits."""
        tol_sq = 10 ** (2 * tol_digits)
        w = IDENTITY
        for k in range(n + 1, n + self.cap + 1):
            w = times_digit(w, self.digit(k))
            if denominator_sq(w, "tu") * denominator_sq(w, "vw") > tol_sq:
                return column_fraction(w, "vw").value_qrt2(), column_fraction(w, "tu").value_qrt2()
        raise CapExceeded("tail enclosure did not converge")


def may_be_periodic(alpha: Surd) -> bool:
    """False only when the expansion of α = (P + Q√D)/S (normal form) is
    proved not eventually periodic, by two integer checks.

    Conjugation by diag(1, √2), the Möbius map x ↦ x/√2, sends every group
    element to a multiple of an integer matrix: [[a, b√2], [c√2, d]] to
    [[a, b], [2c, d]], and [[a√2, b], [c, d√2]] to (1/√2)·[[2a, b], [2c, 2d]].
    A repeated tail α_m = α_n with m > n makes α a fixed point of
    G_m·G_n⁻¹, which is conjugate to a nonempty digit product and so is not
    the identity; then β = α/√2 is a fixed point of a non-identity integer
    matrix, hence quadratic over Q.  When Q ≠ 0, normal form leaves D a
    non-square, so β has degree 2 over Q(√2), with trace √2·P/S and norm
    (P² − Q²D)/(2S²), and β is quadratic over Q only if both are rational:
    P.a = 0 and (P² − Q²D).b = 0.  Every α in Q(√2) passes, and every α
    that passes has β = (X + Y√Δ)/Z over integers, as detect_period scans."""
    P, Q = alpha.P, alpha.Q
    return Q.is_zero() or (P.a == 0 and (P * P - Q * Q * alpha.D).b == 0)


def _beta_step(x: int, y: int, z: int, delta: int) -> tuple[int, tuple[int, int, int]]:
    """The digit of α = √2·β for β = (x + y√Δ)/z, z > 0, and the reduced
    triple of the tail (aβ + b)/(cβ + e), A_d⁻¹ under x ↦ x/√2.  The
    boundaries 1/√2 and √2 become 1/2 and 1: β against 1/2 is the sign of
    2x − z + 2y√Δ, against 1 that of x − z + y√Δ; a tie is a boundary."""
    sy = (y > 0) - (y < 0)
    low = _root_sign(2 * x - z, 0, 2 * y, 0, delta, 0, sy)
    if low == 0:
        raise Terminated("inv_sqrt2")
    if low < 0:
        d = 1
    else:
        high = _root_sign(x - z, 0, y, 0, delta, 0, sy)
        if high == 0:
            raise Terminated("sqrt2")
        d = 2 if high < 0 else 3
    a, b, c, e = _BETA_TAIL_MAPS[d]
    num, den, yy = a * x + b * z, c * x + e * z, y * y * delta
    x, y, z = num * den - a * c * yy, y * z * (a * e - b * c), den * den - c * c * yy
    g = gcd(x, y, z) if z > 0 else -gcd(x, y, z)
    return d, (x // g, y // g, z // g)


def detect_period(alpha: Surd, cap: int = DEFAULT_CAP) -> DigitStream:
    """Expansion of alpha as a stream: FiniteWord for values in √2·Q,
    the eventually periodic stream when a tail repeats within cap,
    CapExceeded otherwise.

    An input that fails may_be_periodic has no repeated tail at any cap, so
    it raises CapExceeded at once.  The rest scan the tails of β = α/√2 =
    (X + Y√Δ)/Z by _beta_step, from (2P.b + P.a·√2)/(2S) when Q = 0 and
    (2P.b + sign(Q)·√(2·Q²D))/(2S) otherwise, Q²D being a rational integer.
    Δ is not a square, so the triple with content 1 and Z > 0 is unique per
    value: a repeated triple is a repeated tail, never a spurious period.
    """
    if alpha.sign() <= 0:
        raise ValueError("period detection requires a positive value")
    if not may_be_periodic(alpha):
        raise CapExceeded("no repeated tail at any cap: alpha/sqrt2 is not quadratic over Q, "
                          "so the expansion is not eventually periodic")
    P, Q, z = alpha.P, alpha.Q, 2 * alpha.S.a
    y, delta = (P.a, 2) if Q.is_zero() else (Q.sign(), 2 * (Q * Q * alpha.D).a)
    g = gcd(2 * P.b, y, z)
    key = (2 * P.b // g, y // g, z // g)
    seen = {key: 0}
    digits: list[int] = []
    for i in range(1, cap + 1):
        try:
            d, key = _beta_step(*key, delta)
        except Terminated as exc:
            return FiniteWord(tuple(digits), exc.boundary)
        digits.append(d)
        if key in seen:
            start = seen[key]
            return PeriodicStream(tuple(digits[:start]), tuple(digits[start:i]))
        seen[key] = i
    raise CapExceeded(f"no repeated tail within {cap} steps")


@dataclass(frozen=True)
class NormalizedAlpha:
    shift_power: int
    shift: Mat2
    value: Surd
    in_qh4: bool


def normalize_alpha(alpha: Surd) -> NormalizedAlpha:
    """Translate alpha by k√2 into [0, √2); |qα − p| is invariant because the
    translation fixes q and moves p by k√2·q.

    The representative is 0 exactly when alpha is a √2-integer; in_qh4 marks
    every √2-rational input (their expansions terminate).
    """
    k = -alpha.floor_linear(ONE, ZERO, SQRT2)
    value = alpha + ZRt2(0, k)
    return NormalizedAlpha(k, T**k, value, value.is_sqrt2_rational())
