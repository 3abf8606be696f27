"""Exact arithmetic in Z[√2], its fraction field, and quadratic surds over Q(√2).

Every comparison is decided by integer sign logic; floating point never
participates in a decision.  Decimal rendering is produced from rational
enclosures and is advisory only.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from math import gcd, isqrt
from typing import Union


class MixedRadicands(ValueError):
    """Arithmetic or comparison between surds with distinct irrational radicands."""


class PoleAtValue(ZeroDivisionError):
    """Mobius image requested exactly at the pole of the transformation."""


class NegativeDiscriminant(ValueError):
    pass


class ZeroLeadingCoefficient(ValueError):
    pass


def _content(*values: int) -> int:
    g = 0
    for v in values:
        g = gcd(g, abs(v))
    return g


def zrt2_sign(a: int, b: int) -> int:
    """Exact sign of a + b√2 for plain ints a, b."""
    if a >= 0 and b >= 0:
        return 1 if a or b else 0
    if a <= 0 and b <= 0:
        return -1
    # Signs differ: compare a^2 with 2b^2.
    t = a * a - 2 * b * b
    s = 1 if a > 0 else -1
    return s if t > 0 else (-s if t < 0 else 0)


@dataclass(frozen=True, slots=True)
class ZRt2:
    """a + b√2 with arbitrary-precision integers; the representation is unique."""

    a: int
    b: int

    @classmethod
    def of(cls, x: int | ZRt2) -> ZRt2:
        if isinstance(x, ZRt2):
            return x
        if isinstance(x, int):
            return cls(x, 0)
        raise TypeError(f"cannot interpret {x!r} as an element of Z[sqrt2]")

    def __add__(self, other: int | ZRt2) -> ZRt2:
        o = other if isinstance(other, ZRt2) else ZRt2.of(other)
        return ZRt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: int | ZRt2) -> ZRt2:
        o = other if isinstance(other, ZRt2) else ZRt2.of(other)
        return ZRt2(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: int | ZRt2) -> ZRt2:
        return ZRt2.of(other) - self

    def __neg__(self) -> ZRt2:
        return ZRt2(-self.a, -self.b)

    def __mul__(self, other: int | ZRt2) -> ZRt2:
        o = other if isinstance(other, ZRt2) else ZRt2.of(other)
        return ZRt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> ZRt2:
        if n < 0:
            raise ValueError("negative powers leave Z[sqrt2]")
        out = ZRt2(1, 0)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> ZRt2:
        return ZRt2(self.a, -self.b)

    def norm(self) -> int:
        return self.a * self.a - 2 * self.b * self.b

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def sign(self) -> int:
        return zrt2_sign(self.a, self.b)

    def divexact(self, g: int) -> ZRt2:
        if self.a % g or self.b % g:
            raise ValueError(f"{self} is not divisible by {g}")
        return ZRt2(self.a // g, self.b // g)

    def cmp(self, other: int | ZRt2) -> int:
        return (self - other).sign()

    def __lt__(self, other: int | ZRt2) -> bool:
        return self.cmp(other) < 0

    def __le__(self, other: int | ZRt2) -> bool:
        return self.cmp(other) <= 0

    def __gt__(self, other: int | ZRt2) -> bool:
        return self.cmp(other) > 0

    def __ge__(self, other: int | ZRt2) -> bool:
        return self.cmp(other) >= 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.a == other and self.b == 0
        if isinstance(other, ZRt2):
            return self.a == other.a and self.b == other.b
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def pair(self) -> tuple[int, int]:
        return (self.a, self.b)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        root = "√2" if self.b == 1 else ("-√2" if self.b == -1 else f"{self.b}√2")
        if self.a == 0:
            return root
        return f"{self.a}{root}" if root.startswith("-") else f"{self.a}+{root}"


ZERO = ZRt2(0, 0)
ONE = ZRt2(1, 0)
TWO = ZRt2(2, 0)
SQRT2 = ZRt2(0, 1)


def zrt2_sqrt(d: ZRt2) -> ZRt2 | None:
    """The positive square root of d in Z[√2], or None if d is not a square.

    Complete for Q(√2): any square root of an element of Z[√2] that lies in
    Q(√2) already lies in Z[√2], so None means d is irrational under √.
    """
    if d.is_zero():
        return ZERO
    if d.sign() < 0:
        return None
    nrm = d.norm()
    if nrm < 0:
        return None
    n = isqrt(nrm)
    if n * n != nrm:
        return None
    # d = (x + y√2)^2 forces {x^2, 2y^2} = {(a+n)/2, (a-n)/2}.
    for z in ((d.a + n), (d.a - n)):
        if z < 0 or z % 2:
            continue
        x = isqrt(z // 2)
        if x * x != z // 2:
            continue
        rest = d.a - z // 2
        if rest < 0 or rest % 2:
            continue
        y = isqrt(rest // 2)
        if 2 * y * y != rest:
            continue
        for cand in (ZRt2(x, y), ZRt2(x, -y), ZRt2(-x, y)):
            if cand * cand == d and cand.sign() > 0:
                return cand
    return None


@dataclass(frozen=True, slots=True)
class QRt2:
    """An element of Q(√2) stored as num/den with den > 0 and content 1."""

    num: ZRt2
    den: int

    def __post_init__(self) -> None:
        num, den = self.num, self.den
        if den == 0:
            raise ZeroDivisionError("zero denominator in Q(sqrt2)")
        if den < 0:
            num, den = -num, -den
        g = _content(num.a, num.b, den)
        if g > 1:
            num = num.divexact(g)
            den //= g
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    @classmethod
    def of(cls, x: int | ZRt2 | QRt2) -> QRt2:
        if isinstance(x, QRt2):
            return x
        return cls(ZRt2.of(x), 1)

    @classmethod
    def from_ratio(cls, x: ZRt2, y: ZRt2) -> QRt2:
        """x/y for y ≠ 0, rationalised by the conjugate of y."""
        if y.is_zero():
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return cls(x * y.conj(), y.norm())

    def __add__(self, other: int | ZRt2 | QRt2) -> QRt2:
        o = QRt2.of(other)
        return QRt2(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __sub__(self, other: int | ZRt2 | QRt2) -> QRt2:
        return self + (-QRt2.of(other))

    def __rsub__(self, other: int | ZRt2 | QRt2) -> QRt2:
        return QRt2.of(other) - self

    def __neg__(self) -> QRt2:
        return QRt2(-self.num, self.den)

    def __mul__(self, other: int | ZRt2 | QRt2) -> QRt2:
        o = QRt2.of(other)
        return QRt2(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: int | ZRt2 | QRt2) -> QRt2:
        o = QRt2.of(other)
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero in Q(sqrt2)")
        return QRt2(self.num * o.num.conj() * o.den, self.den * o.num.norm())

    def sign(self) -> int:
        return self.num.sign()

    def cmp(self, other: int | ZRt2 | QRt2) -> int:
        return (self - other).sign()

    def __lt__(self, other: int | ZRt2 | QRt2) -> bool:
        return self.cmp(other) < 0

    def __le__(self, other: int | ZRt2 | QRt2) -> bool:
        return self.cmp(other) <= 0

    def __gt__(self, other: int | ZRt2 | QRt2) -> bool:
        return self.cmp(other) > 0

    def __ge__(self, other: int | ZRt2 | QRt2) -> bool:
        return self.cmp(other) >= 0

    def __abs__(self) -> QRt2:
        return -self if self.sign() < 0 else self

    def enclosure(self, digits: int = 40) -> tuple[Fraction, Fraction]:
        # Cancellation inside num can eat as many digits as the coefficients
        # carry, so work at a precision scaled to their size.
        prec = digits + _digit_len(self.num.a, self.num.b, self.den) + 8
        lo, hi = _zrt2_bounds(self.num, prec)
        return lo / self.den, hi / self.den

    def decimal(self, digits: int = 30) -> str:
        return _render_decimal(self.enclosure(digits + 10), digits)

    def __str__(self) -> str:
        return str(self.num) if self.den == 1 else f"({self.num})/{self.den}"


def _digit_len(*values: int) -> int:
    """Decimal digits of the largest |value|, counted without str(), which
    refuses ints past 4,300 digits."""
    v = max(abs(x) for x in values) or 1  # 0 has one digit, as 1 does
    d = (v.bit_length() - 1) * 1233 >> 12  # 1233/2^12 < log10(2), so 10^d ≤ v
    while v >= 10**d:
        d += 1
    return d


def _sqrt2_bounds(digits: int) -> tuple[Fraction, Fraction]:
    scale = 10**digits
    r = isqrt(2 * scale * scale)
    return Fraction(r, scale), Fraction(r + 1, scale)


def _zrt2_bounds(z: ZRt2, digits: int) -> tuple[Fraction, Fraction]:
    lo2, hi2 = _sqrt2_bounds(digits)
    if z.b >= 0:
        return z.a + z.b * lo2, z.a + z.b * hi2
    return z.a + z.b * hi2, z.a + z.b * lo2


def _fraction_sqrt_bounds(x: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    if x < 0:
        x = Fraction(0)
    scale = 10**digits
    r = isqrt(x.numerator * x.denominator * scale * scale)
    den = x.denominator * scale
    return Fraction(r, den), Fraction(r + 1, den)


_Iv = tuple[Fraction, Fraction]


def _render_decimal(bounds: _Iv, digits: int) -> str:
    mid = (bounds[0] + bounds[1]) / 2
    with localcontext() as ctx:
        ctx.prec = digits
        return str(Decimal(mid.numerator) / Decimal(mid.denominator))


def _root_sign(xa: int, xb: int, ya: int, yb: int, da: int, db: int, sy: int) -> int:
    """Exact sign of X + Y√D for X = xa + xb√2, Y = ya + yb√2, a positive
    radicand D = da + db√2 and sy = sign(Y), all plain ints: the one sign
    kernel behind every surd sign and comparison.  The squaring step
    sign(X² − Y²D) runs only when X and Y have opposite signs."""
    sx = zrt2_sign(xa, xb)
    if sy == 0 or sx == sy:
        return sx
    if sx == 0:
        return sy
    # X² = x2a + x2b√2 and Y² = y2a + y2b√2.
    x2a, x2b = xa * xa + 2 * xb * xb, 2 * xa * xb
    y2a, y2b = ya * ya + 2 * yb * yb, 2 * ya * yb
    return sx * zrt2_sign(x2a - y2a * da - 2 * y2b * db, x2b - y2a * db - y2b * da)


def root_sign(X: ZRt2, Y: ZRt2, D: ZRt2) -> int:
    """Exact sign of X + Y√D for a positive radicand D."""
    return _root_sign(X.a, X.b, Y.a, Y.b, D.a, D.b, Y.sign())


def _floor_seed(X: ZRt2, Y: ZRt2, D: ZRt2, den: ZRt2) -> int:
    """Integer fixed-point estimate of ⌊(X + Y√D)/den⌋ for den > 0.  It
    only starts a search that exact signs decide, so its error is harmless;
    2^k with k twice the widest coefficient keeps it within a unit or so."""
    k = 2 * max(v.bit_length() for v in (X.a, X.b, Y.a, Y.b, D.a, D.b, den.a, den.b)) + 16
    one, rt2 = 1 << k, isqrt(2 << (2 * k))  # 2^k and ⌊√2·2^k⌋

    def fix(z: ZRt2) -> int:  # ≈ z·2^k
        return z.a * one + z.b * rt2

    num = fix(X)
    if Y.a or Y.b:
        num += (fix(Y) * isqrt(max(fix(D), 0) << k)) >> k
    d = fix(den)
    return num // d if d > 0 else 0


Scalar = Union[int, ZRt2, QRt2, "Surd"]


@dataclass(frozen=True, slots=True)
class Surd:
    """(P + Q√D)/S with P, Q, D, S in Z[√2]: an exact real, closed under
    the group's Mobius action.

    Normal form: square radicands are absorbed into P (so Q = 0 exactly for
    values in Q(√2), and then D = 1), S is a positive rational integer, and
    the coefficient content is 1.  With D fixed this form is unique, so
    dataclass equality and hashing coincide with value equality.
    """

    P: ZRt2
    Q: ZRt2
    D: ZRt2
    S: ZRt2

    def __post_init__(self) -> None:
        P, Q, D, S = self.P, self.Q, self.D, self.S
        if S.is_zero():
            raise ValueError("surd denominator S must be nonzero")
        if Q.is_zero():
            D = ONE
        else:
            if D.sign() <= 0:
                raise ValueError("surd radicand D must be positive")
            root = zrt2_sqrt(D)
            if root is not None:
                P = P + Q * root
                Q = ZERO
                D = ONE
        if S.b != 0:
            c = S.conj()
            P, Q, S = P * c, Q * c, ZRt2(S.norm(), 0)
        if S.a < 0:
            P, Q, S = -P, -Q, -S
        g = _content(P.a, P.b, Q.a, Q.b, S.a)
        if g > 1:
            P, Q, S = P.divexact(g), Q.divexact(g), S.divexact(g)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "D", D)
        object.__setattr__(self, "S", S)

    @classmethod
    def of(cls, x: Scalar) -> Surd:
        if isinstance(x, Surd):
            return x
        if isinstance(x, QRt2):
            return cls(x.num, ZERO, ONE, ZRt2(x.den, 0))
        return cls(ZRt2.of(x), ZERO, ONE, ONE)

    @classmethod
    def from_ratio(cls, num: ZRt2, den: ZRt2) -> Surd:
        return cls(num, ZERO, ONE, den)

    @classmethod
    def sqrt2(cls) -> Surd:
        return cls(SQRT2, ZERO, ONE, ONE)

    def is_degenerate(self) -> bool:
        """True when the value lies in Q(√2)."""
        return self.Q.is_zero()

    def is_rational(self) -> bool:
        return self.is_degenerate() and (self.P * self.S.conj()).b == 0

    def is_sqrt2_rational(self) -> bool:
        """True when the value lies in √2·Q, the orbit of ∞ boundary set."""
        return self.is_degenerate() and (self.P * self.S.conj()).a == 0

    def _common_d(self, other: Surd) -> ZRt2:
        if self.Q.is_zero():
            return other.D
        if other.Q.is_zero():
            return self.D
        if self.D == other.D:
            return self.D
        raise MixedRadicands(f"radicands differ: {self.D} vs {other.D}")

    def __add__(self, other: Scalar) -> Surd:
        o = Surd.of(other)
        d = self._common_d(o)
        return Surd(
            self.P * o.S + o.P * self.S,
            self.Q * o.S + o.Q * self.S,
            d,
            self.S * o.S,
        )

    __radd__ = __add__

    def __sub__(self, other: Scalar) -> Surd:
        return self + (-Surd.of(other))

    def __rsub__(self, other: Scalar) -> Surd:
        return Surd.of(other) - self

    def __neg__(self) -> Surd:
        return Surd(-self.P, -self.Q, self.D, self.S)

    def __mul__(self, other: Scalar) -> Surd:
        o = Surd.of(other)
        d = self._common_d(o)
        return Surd(
            self.P * o.P + self.Q * o.Q * d,
            self.P * o.Q + self.Q * o.P,
            d,
            self.S * o.S,
        )

    __rmul__ = __mul__

    def reciprocal(self) -> Surd:
        if self.sign() == 0:
            raise ZeroDivisionError("reciprocal of zero surd")
        denom = self.P * self.P - self.Q * self.Q * self.D
        return Surd(self.S * self.P, -self.S * self.Q, self.D, denom)

    def __truediv__(self, other: Scalar) -> Surd:
        return self * Surd.of(other).reciprocal()

    def __abs__(self) -> Surd:
        return -self if self.sign() < 0 else self

    def sign(self) -> int:
        # S is a positive rational integer in normal form.
        return root_sign(self.P, self.Q, self.D)

    def linear_sign(self, c: ZRt2, d: ZRt2) -> int:
        """Exact sign of self·c − d for c, d in Z[√2], without building a
        surd: −sign(d) when c = 0, else sign(c) times linear_sign_ints of
        sign(c)·c > 0 and sign(c)·d."""
        sc = c.sign()
        if sc == 0:
            return -d.sign()
        return sc * self.linear_sign_ints(sc * c.a, sc * c.b, sc * d.a, sc * d.b)

    def linear_sign_ints(self, ca: int, cb: int, da: int, db: int) -> int:
        """Exact sign of self·c − d for c = ca + cb√2 > 0 and d = da + db√2
        given as plain ints.  With S > 0 it is the sign of X + Y√D for
        X = Pc − dS and Y = Qc, and as c > 0, sign(Y) is sign(Q)."""
        P, Q, D, s = self.P, self.Q, self.D, self.S.a
        return _root_sign(
            P.a * ca + 2 * P.b * cb - da * s,
            P.a * cb + P.b * ca - db * s,
            Q.a * ca + 2 * Q.b * cb,
            Q.a * cb + Q.b * ca,
            D.a,
            D.b,
            Q.sign(),
        )

    def linear_ints(self, ca: int, cb: int, da: int, db: int) -> Surd:
        """self·c − d for c = ca + cb√2 and d = da + db√2 given as plain
        ints, built once as (X + Y√D)/S from the X = Pc − dS and Y = Qc of
        linear_sign_ints, with no Z[√2] product on the way."""
        P, Q, s = self.P, self.Q, self.S.a
        return Surd(
            ZRt2(P.a * ca + 2 * P.b * cb - da * s, P.a * cb + P.b * ca - db * s),
            ZRt2(Q.a * ca + 2 * Q.b * cb, Q.a * cb + Q.b * ca),
            self.D,
            self.S,
        )

    def is_zero(self) -> bool:
        return self.sign() == 0

    def cmp(self, other: Scalar) -> int:
        """Exact sign of self − other, from one root_sign and no new surd:
        with S, S′ > 0 it is the sign of (PS′ − P′S) + (QS′ − Q′S)·√D."""
        if isinstance(other, (int, ZRt2)):
            return self.linear_sign(ONE, ZRt2.of(other))
        if isinstance(other, QRt2):
            return self.linear_sign(ZRt2(other.den, 0), other.num)
        d = self._common_d(other)
        return root_sign(
            self.P * other.S - other.P * self.S, self.Q * other.S - other.Q * self.S, d
        )

    def __lt__(self, other: Scalar) -> bool:
        return self.cmp(other) < 0

    def __le__(self, other: Scalar) -> bool:
        return self.cmp(other) <= 0

    def __gt__(self, other: Scalar) -> bool:
        return self.cmp(other) > 0

    def __ge__(self, other: Scalar) -> bool:
        return self.cmp(other) >= 0

    def enclosure(self, digits: int = 40) -> tuple[Fraction, Fraction]:
        """Rational bounds on the value, in one pass: S is a positive integer
        in normal form, so both bounds of P + Q√D divide by it exactly.

        Working precision is scaled to coefficient size: (P + Q√D) may cancel
        to a value many orders below its terms."""
        prec = digits + _digit_len(
            self.P.a, self.P.b, self.Q.a, self.Q.b, self.D.a, self.D.b, self.S.a
        ) + 8
        p = _zrt2_bounds(self.P, prec)
        q = _zrt2_bounds(self.Q, prec)
        dlo, dhi = _zrt2_bounds(self.D, prec)
        rd = _fraction_sqrt_bounds(dlo, prec)[0], _fraction_sqrt_bounds(dhi, prec)[1]
        qrd = [x * y for x in q for y in rd]  # Q·√D lies between their least and greatest
        return (p[0] + min(qrd)) / self.S.a, (p[1] + max(qrd)) / self.S.a

    def to_float(self) -> float:
        lo, hi = self.enclosure(40)
        return float((lo + hi) / 2)

    def decimal(self, digits: int = 30) -> str:
        return _render_decimal(self.enclosure(digits + 10), digits)

    def floor_linear(self, c: ZRt2, e: ZRt2, u: ZRt2) -> int:
        """⌊(self·c − e)/u⌋ for c, e, u in Z[√2] with u > 0: the largest
        integer a with linear_sign(c, e + a·u) ≥ 0.

        A fixed-point estimate only seeds the search; linear_sign calls
        decide it, gallop then bisect.  With an accurate seed that is two
        calls: a fits and a + 1 does not."""
        if u.sign() <= 0:
            raise ValueError(f"floor_linear needs a positive divisor, got {u}")
        # self·c − e − a·u = (X − a·uS + Y√D)/S with S > 0.
        S = self.S.a
        X, Y, D = self.P * c - e * self.S, self.Q * c, self.D
        ua, ub = u.a * S, u.b * S
        sy = Y.sign()

        def ok(a: int) -> bool:
            return _root_sign(X.a - a * ua, X.b - a * ub, Y.a, Y.b, D.a, D.b, sy) >= 0

        a = _floor_seed(X, Y, D, ZRt2(ua, ub))
        if ok(a):
            step = 1
            while ok(a + step):
                a += step
                step *= 2
            hi = a + step
        else:
            hi, step = a, 1
            while not ok(a - step):
                hi = a - step
                step *= 2
            a -= step
        while hi - a > 1:  # ok(a) and not ok(hi)
            mid = (a + hi) // 2
            if ok(mid):
                a = mid
            else:
                hi = mid
        return a

    def floor(self) -> int:
        return self.floor_linear(ONE, ZERO, ONE)

    def key(self) -> tuple[int, ...]:
        """Hashable canonical key: equal exactly for equal values."""
        return (*self.P.pair(), *self.Q.pair(), *self.D.pair(), self.S.a)

    def __str__(self) -> str:
        if self.Q.is_zero():
            body = str(self.P)
        else:
            body = f"{self.P} + ({self.Q})·√({self.D})"
        return body if self.S == ONE else f"({body})/{self.S}"


def surd_mobius(m, x: Surd) -> Surd:
    """Image of x under the linear fractional map of the 2x2 matrix m
    (attributes t, v, u, w laid out as [[t, v], [u, w]]), normalized once.

    With x = (P + Q√D)/S, m·x = (A + B√D)/(C + E√D) for A = tP + vS,
    B = tQ, C = uP + wS, E = uQ; rationalizing by C − E√D gives
    (AC − BE·D + det(m)·SQ·√D)/(C² − E²·D).  As √D is irrational when
    Q ≠ 0, the pole is C = E = 0."""
    t, v, u, w = m.t, m.v, m.u, m.w
    det = t * w - v * u
    if det.is_zero():
        raise ValueError("mobius matrix is singular")
    P, Q, D, S = x.P, x.Q, x.D, x.S
    A, B, C, E = t * P + v * S, t * Q, u * P + w * S, u * Q
    if C.is_zero() and E.is_zero():
        raise PoleAtValue(f"value is the pole of {m}")
    return Surd(A * C - B * E * D, det * S * Q, D, C * C - E * E * D)


def quad_root(A: int | ZRt2, B: int | ZRt2, C: int | ZRt2, branch: str = "+") -> Surd:
    """Selected root of A x² + B x + C = 0; '+' takes (−B + √disc) / 2A."""
    A, B, C = ZRt2.of(A), ZRt2.of(B), ZRt2.of(C)
    if A.is_zero():
        raise ZeroLeadingCoefficient("leading coefficient is zero")
    disc = B * B - ZRt2(4, 0) * A * C
    if disc.sign() <= 0:
        raise NegativeDiscriminant(f"discriminant {disc} is not positive")
    q = ONE if branch == "+" else -ONE
    return Surd(-B, q, disc, TWO * A)
