"""H4 group matrices, membership, canonical fractions of √2·Q, Ford tangency.

The group is generated by translation by √2 and inversion.  Its boundary
orbit of ∞ is √2·Q; every element has exactly one canonical fraction form
p/q with (p odd integer, q = √2·c) or (p = √2·a, q odd integer).

Every element also has one of two parity forms, so each entry is one
integer times 1 or √2.  A chain G_n = A_{d_1}···A_{d_n} is carried as the
integer state (T, V, U, W, parity): parity 0 is [[T, V√2], [U√2, W]] and
parity 1 is [[T√2, V], [U, W√2]].  times_digit advances that state on
plain ints, times_run by a run of 1s or 3s in one step, and as_mat2
builds the Z[√2] matrix only for callers that need one.  Mat2 over Z[√2]
holds the generators, membership and the Möbius action.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

from .exact_field import ONE, SQRT2, QRt2, Surd, ZRt2, surd_mobius, zrt2_sign


class NotInQH4(ValueError):
    """The value does not lie in √2·Q, the boundary orbit of ∞."""


@dataclass(frozen=True, slots=True)
class Mat2:
    """2x2 matrix [[t, v], [u, w]] over Z[√2]; columns give the boundary
    images t/u = M·∞ and v/w = M·0."""

    t: ZRt2
    v: ZRt2
    u: ZRt2
    w: ZRt2

    @classmethod
    def of(cls, t, v, u, w) -> Mat2:
        return cls(ZRt2.of(t), ZRt2.of(v), ZRt2.of(u), ZRt2.of(w))

    @classmethod
    def identity(cls) -> Mat2:
        return cls.of(1, 0, 0, 1)

    def det(self) -> ZRt2:
        return self.t * self.w - self.v * self.u

    def __mul__(self, other: Mat2) -> Mat2:
        return Mat2(
            self.t * other.t + self.v * other.u,
            self.t * other.v + self.v * other.w,
            self.u * other.t + self.w * other.u,
            self.u * other.v + self.w * other.w,
        )

    def __neg__(self) -> Mat2:
        return Mat2(-self.t, -self.v, -self.u, -self.w)

    def __pow__(self, n: int) -> Mat2:
        if n < 0:
            return self.inverse() ** (-n)
        out = Mat2.identity()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def inverse(self) -> Mat2:
        d = self.det()
        adj = Mat2(self.w, -self.v, -self.u, self.t)
        if d == ONE:
            return adj
        if d == -ONE:
            return -adj
        raise ValueError(f"matrix with det {d} has no inverse over Z[sqrt2]")

    def act(self, x: Surd) -> Surd:
        return surd_mobius(self, x)

    def __str__(self) -> str:
        return f"[[{self.t}, {self.v}], [{self.u}, {self.w}]]"


T = Mat2.of(1, SQRT2, 0, 1)
S = Mat2.of(0, -1, 1, 0)
R = Mat2.of(0, 1, -1, SQRT2)
A1 = Mat2.of(1, 0, SQRT2, 1)
A2 = Mat2.of(SQRT2, 1, 1, SQRT2)
A3 = Mat2.of(1, SQRT2, 0, 1)
H = Mat2.of(-1, 0, 0, 1)
J = Mat2.of(0, 1, 1, 0)

DIGIT_MATRICES = {1: A1, 2: A2, 3: A3}
DIGIT_MATRICES_INV = {d: m.inverse() for d, m in DIGIT_MATRICES.items()}

# Digit involution: conjugation by J swaps the outer digits, JA_dJ = A_{d∨}.
DIGIT_DUAL = {1: 3, 2: 2, 3: 1}


# (T, V, U, W, parity): [[T, V√2], [U√2, W]] at parity 0, [[T√2, V], [U, W√2]] at parity 1.
IntMat = tuple[int, int, int, int, int]

IDENTITY: IntMat = (1, 0, 0, 1, 0)


def times_digit(g: IntMat, d: int) -> IntMat:
    """G·A_d on the integer state of G, from its columns: A1 adds √2 × right
    to left, A3 adds √2 × left to right, and A2 sets the new left to
    √2·left + right and the new right to left + √2·right, which flips the
    parity.  A factor √2·√2 = 2 lands on the column whose entry carries √2."""
    T, V, U, W, par = g
    if par:
        if d == 1:
            return (T + V, V, U + 2 * W, W, 1)
        if d == 3:
            return (T, 2 * T + V, U, U + W, 1)
        return (2 * T + V, T + V, U + W, U + 2 * W, 0)
    if d == 1:
        return (T + 2 * V, V, U + W, W, 0)
    if d == 3:
        return (T, T + V, U, 2 * U + W, 0)
    return (T + V, T + 2 * V, 2 * U + W, U + W, 1)


def times_run(g: IntMat, d: int, k: int) -> IntMat:
    """G·A_d^k on the integer state of G for d in {1, 3}: A1 and A3 are
    parabolic and keep the parity, so a run of k of them is one step, k
    times √2 × one column added to the other."""
    T, V, U, W, par = g
    if d == 3:
        return (T, V + 2 * k * T, U, W + k * U, 1) if par else (T, V + k * T, U, W + 2 * k * U, 0)
    return (T + k * V, V, U + 2 * k * W, W, 1) if par else (T + 2 * k * V, V, U + k * W, W, 0)


def as_mat2(g: IntMat) -> Mat2:
    """The matrix over Z[√2] of an integer state."""
    T, V, U, W, par = g
    if par:
        return Mat2(ZRt2(0, T), ZRt2(V, 0), ZRt2(U, 0), ZRt2(0, W))
    return Mat2(ZRt2(T, 0), ZRt2(0, V), ZRt2(0, U), ZRt2(W, 0))


def generators() -> dict[str, Mat2]:
    """The exact generator and helper matrices.  H and J are involutions
    used for conjugation identities only; they are not group members."""
    return {"T": T, "S": S, "R": R, "A1": A1, "A2": A2, "A3": A3, "H": H, "J": J}


def membership(m: Mat2) -> bool:
    """True iff m lies in the group: det 1 and one of the two parity forms
    (odd diagonal with √2-multiple off-diagonal, or the transpose pattern)."""
    if m.det() != ONE:
        return False
    odd_diag = (
        m.t.b == 0
        and m.w.b == 0
        and m.t.a % 2 == 1
        and m.w.a % 2 == 1
        and m.v.a == 0
        and m.u.a == 0
    )
    odd_off = (
        m.t.a == 0
        and m.w.a == 0
        and m.v.b == 0
        and m.u.b == 0
        and m.v.a % 2 == 1
        and m.u.a % 2 == 1
    )
    return odd_diag or odd_off


FAMILY_ODD_OVER_SQRT2 = "OddOverSqrt2"
FAMILY_SQRT2_OVER_ODD = "Sqrt2OverOdd"


@dataclass(frozen=True, slots=True)
class H4Fraction:
    """Canonical fraction p/q of a value in √2·Q with q > 0.

    OddOverSqrt2: p odd, q = √2·c with gcd(p, 2c) = 1.
    Sqrt2OverOdd: p = √2·a, q = c odd with gcd(a, c) = 1.
    """

    p: ZRt2
    q: ZRt2
    family: str

    def value(self) -> Surd:
        return Surd.from_ratio(self.p, self.q)

    def value_qrt2(self) -> QRt2:
        return QRt2.from_ratio(self.p, self.q)

    def q_squared(self) -> ZRt2:
        return self.q * self.q

    def to_json(self) -> dict:
        return {"p": list(self.p.pair()), "q": list(self.q.pair()), "family": self.family}

    def __str__(self) -> str:
        return f"{self.p}/{self.q}"


def canonicalize(m: int, n: int) -> H4Fraction:
    """Canonical form of the value √2·(m/n), n > 0."""
    if n == 0:
        raise NotInQH4("infinite value has no fraction form")
    if n < 0:
        m, n = -m, -n
    g = gcd(m, n)
    if g > 1:
        m, n = m // g, n // g
    if n % 2 == 1:
        return H4Fraction(ZRt2(0, m), ZRt2(n, 0), FAMILY_SQRT2_OVER_ODD)
    # n even: √2·m/n = m/(√2·(n/2)); coprimality forces m odd.
    return H4Fraction(ZRt2(m, 0), ZRt2(0, n // 2), FAMILY_ODD_OVER_SQRT2)


def canonicalize_pair(p: ZRt2, q: ZRt2) -> H4Fraction:
    """Canonical form of p/q for p, q in Z[√2], q ≠ 0; NotInQH4 when the
    value lies outside √2·Q."""
    if q.is_zero():
        raise NotInQH4("zero denominator")
    x = p * q.conj()
    n = q.norm()
    if x.a != 0:
        raise NotInQH4(f"{p}/{q} is not a √2-rational")
    return canonicalize(x.b if n > 0 else -x.b, abs(n))


def column(g: IntMat, side: str) -> tuple[int, int, int, int]:
    """(qa, qb, pa, pb) for the column p/q of G, t/u (side "tu") or v/w
    (side "vw"), with q = qa + qb√2 and p = pa + pb√2.  In either parity
    one of p and q is an integer and the other an integer times √2: t/u is
    T/(U√2) at parity 0 and T√2/U at parity 1, v/w is V√2/W and V/(W√2)."""
    T, V, U, W, par = g
    if side == "tu":
        return (U, 0, 0, T) if par else (0, U, T, 0)
    return (0, W, V, 0) if par else (W, 0, 0, V)


def denominator_sq(g: IntMat, side: str) -> int:
    """q² for the denominator q of a column of G, an integer as q is an
    integer or an integer times √2."""
    qa, qb, _, _ = column(g, side)
    return qa * qa + 2 * qb * qb


def column_fraction(g: IntMat, side: str) -> H4Fraction:
    """Canonical form of a column of an integer state with non-negative
    entries, det ±1 and a nonzero denominator in that column, read off its
    structure: det ±1 makes the column primitive, and the parity form puts
    the odd entry and the √2 where the canonical form has them."""
    qa, qb, pa, pb = column(g, side)
    family = FAMILY_ODD_OVER_SQRT2 if qb else FAMILY_SQRT2_OVER_ODD
    return H4Fraction(ZRt2(pa, pb), ZRt2(qa, qb), family)


def ford_tangent(x: H4Fraction, y: H4Fraction) -> bool:
    """Tangency of the two horocycles based at x and y: |p·s − r·q| = 1."""
    if x == y:
        raise ValueError("tangency is defined for distinct base points")
    d = x.p * y.q - y.p * x.q
    return d == ONE or d == -ONE


def denominator_ladder(max_value: int | ZRt2) -> Iterator[ZRt2]:
    """All canonical denominators with value ≤ max_value, ascending:
    1, √2, 2√2, 3, 3√2, 5, ...  (odd integers and √2-multiples).  The
    steps compare on ints: an odd c lies below c′√2 iff c² < 2c′²."""
    bound = ZRt2.of(max_value)
    odd_c = 1
    rt2_c = 1
    while True:
        pick_odd = odd_c * odd_c < 2 * rt2_c * rt2_c
        a, b = (odd_c, 0) if pick_odd else (0, rt2_c)
        if zrt2_sign(a - bound.a, b - bound.b) > 0:
            break
        yield ZRt2(a, b)
        if pick_odd:
            odd_c += 2
        else:
            rt2_c += 1


def coprime_neighbours(f: int, c: int, odd: bool) -> tuple[int, int]:
    """The coefficients of the admissible numerators next to a value y,
    given f = ⌊y⌋: the largest a ≤ f and the smallest a > f with
    gcd(a, c) = 1, and with a odd as well when q = √2·c.  For the canonical
    denominator q = c (odd) the numerators are √2·a and y = q·α/√2; for
    q = √2·c they are a and y = q·α."""
    if odd:
        lo, hi, step, m = f, f + 1, 1, c
    else:
        lo = f if f % 2 else f - 1
        hi, step, m = lo + 2, 2, 2 * c
    while gcd(lo, m) != 1:
        lo -= step
    while gcd(hi, m) != 1:
        hi += step
    return lo, hi
