"""Exact arithmetic in the quadratic field Q(phi), phi the golden mean.

An element is stored as three integers (A, B, D) standing for
(A + B*phi)/D, in the normal form D > 0 and gcd(A, B, D) = 1.  Since
phi is irrational that form is unique, so equality is a comparison of
integers, and phi**2 = phi + 1 reduces every product back to it.  All
arithmetic is plain integer arithmetic with one gcd per result, and all
comparisons go through one exact integer sign routine, `sgn_pair`.  The
fused predicates `cmp(x, y)` (the sign of x - y) and `sgn_affine(d1, d0,
x)` (the sign of d1*x + d0) evaluate in integers with one `sgn_pair`
call, building no element and taking no gcd; `over_one_denominator`
hands the kernels of `geometry` and `exchange` the integer rows of
several elements over one denominator.  The rational coordinates
a, b of a + b*phi stay available as `Fraction` properties.  The one
double is `float(x)`, within 1 ulp, for rendering and display, and
`approx` gives oracles a close rational; no double decides a branch.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt
from typing import Tuple

RationalLike = int | Fraction


class FieldError(ZeroDivisionError):
    """Division by zero in Q(phi)."""


def sgn_pair(A: int, B: int) -> int:
    """Exact sign of A + B*phi for integers A, B.

    2(A + B*phi) = u + B*sqrt(5) with u = 2A + B; when u and B differ in
    sign, comparing u**2 with 5*B**2 decides, and they are never equal
    because sqrt(5) is irrational.
    """
    if B == 0:
        return (A > 0) - (A < 0)
    u = 2 * A + B
    if B > 0:
        if u >= 0:
            return 1
        return 1 if 5 * B * B > u * u else -1
    if u <= 0:
        return -1
    return 1 if u * u > 5 * B * B else -1


def cmp(x: "QPhi", y: "QPhi") -> int:
    """Exact sign of x - y, with no allocation and no gcd.

    Both denominators are positive, so x - y has the sign of
    (A*D' - A'*D) + (B*D' - B'*D)*phi.
    """
    D, E = x._D, y._D
    if D == E:
        return sgn_pair(x._A - y._A, x._B - y._B)
    return sgn_pair(x._A * E - y._A * D, x._B * E - y._B * D)


def sgn_affine(d1: "QPhi", d0: "QPhi", x: "QPhi") -> int:
    """Exact sign of d1*x + d0, with no allocation and no gcd.

    The product d1*x is (A1*Ax + B1*Bx + (A1*Bx + B1*Ax + B1*Bx)*phi)
    over D1*Dx; the sum is brought over D1*Dx*D0 > 0.
    """
    A1, B1, D1 = d1._A, d1._B, d1._D
    Ax, Bx, Dx = x._A, x._B, x._D
    A0, B0, D0 = d0._A, d0._B, d0._D
    bb = B1 * Bx
    D = D1 * Dx
    return sgn_pair((A1 * Ax + bb) * D0 + A0 * D,
                    (A1 * Bx + B1 * Ax + bb) * D0 + B0 * D)


def over_one_denominator(xs: "list[QPhi]") -> Tuple[list[int], int]:
    """Integers [A_0, B_0, A_1, B_1, ...] and D > 0, the lcm of the
    denominators, with x_i = (A_i + B_i*phi)/D: the rows of the
    scaled-integer kernels in `geometry` and `exchange`."""
    D = 1
    for x in xs:
        if D % x._D:
            D = D // gcd(D, x._D) * x._D
    out: list[int] = []
    for x in xs:
        m = D // x._D
        out += x._A * m, x._B * m
    return out, D


_new = object.__new__


def _raw(A: int, B: int, D: int) -> "QPhi":
    """An element from a triple already in normal form."""
    x = _new(QPhi)
    x._A = A
    x._B = B
    x._D = D
    return x


def _reduced(A: int, B: int, D: int) -> "QPhi":
    """(A + B*phi)/D brought to normal form; D must be nonzero."""
    if D != 1:
        if D < 0:
            A, B, D = -A, -B, -D
        g = gcd(A, B, D)
        if g != 1:
            A, B, D = A // g, B // g, D // g
    x = _new(QPhi)      # _raw, inlined on this hot path
    x._A = A
    x._B = B
    x._D = D
    return x


class QPhi:
    """An exact element a + b*phi = (A + B*phi)/D of Q(phi).

    Immutable: the triple is fixed at construction and `a`, `b` are
    read-only properties.
    """

    __slots__ = ("_A", "_B", "_D")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0) -> None:
        if a.__class__ is int and b.__class__ is int:
            self._A, self._B, self._D = a, b, 1
            return
        fa, fb = Fraction(a), Fraction(b)
        # D = lcm of the reduced denominators keeps gcd(A, B, D) = 1
        da, db = fa.denominator, fb.denominator
        D = da // gcd(da, db) * db
        self._A = fa.numerator * (D // da)
        self._B = fb.numerator * (D // db)
        self._D = D

    # -- construction -------------------------------------------------

    @classmethod
    def coerce(cls, x: "QPhi | RationalLike") -> "QPhi":
        if isinstance(x, QPhi):
            return x
        return cls(x)

    @classmethod
    def from_scaled(cls, A: int, B: int, D: int) -> "QPhi":
        """The element (A + B*phi)/D for integers A, B and D != 0."""
        if D == 0:
            raise FieldError("zero denominator")
        return _reduced(A, B, D)

    def scaled(self) -> Tuple[int, int, int]:
        """The normal-form triple (A, B, D): value (A + B*phi)/D."""
        return self._A, self._B, self._D

    @classmethod
    def from_ints(cls, parts: Tuple[int, int, int, int] | list) -> "QPhi":
        an, ad, bn, bd = (int(p) for p in parts)
        return cls(Fraction(an, ad), Fraction(bn, bd))

    def to_ints(self) -> Tuple[int, int, int, int]:
        """Serialize as four integers [a_num, a_den, b_num, b_den]."""
        a, b = self.a, self.b
        return (a.numerator, a.denominator, b.numerator, b.denominator)

    @property
    def a(self) -> Fraction:
        """The rational part a of a + b*phi."""
        return Fraction(self._A, self._D)

    @property
    def b(self) -> Fraction:
        """The phi coefficient b of a + b*phi."""
        return Fraction(self._B, self._D)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "QPhi | RationalLike") -> "QPhi":
        A, B, D = self._A, self._B, self._D
        if other.__class__ is int:
            return _raw(A + other * D, B, D)
        o = other if other.__class__ is QPhi else QPhi.coerce(other)
        D2 = o._D
        if D == D2:
            return _reduced(A + o._A, B + o._B, D)
        g = gcd(D, D2)
        m, m2 = D2 // g, D // g
        return _reduced(A * m + o._A * m2, B * m + o._B * m2, D * m)

    __radd__ = __add__

    def __sub__(self, other: "QPhi | RationalLike") -> "QPhi":
        return self + -other

    def __rsub__(self, other: "QPhi | RationalLike") -> "QPhi":
        return QPhi.coerce(other) - self

    def __neg__(self) -> "QPhi":
        return _raw(-self._A, -self._B, self._D)

    def __mul__(self, other: "QPhi | RationalLike") -> "QPhi":
        A, B, D = self._A, self._B, self._D
        if other.__class__ is int:
            return _reduced(A * other, B * other, D)
        o = other if other.__class__ is QPhi else QPhi.coerce(other)
        A2, B2 = o._A, o._B
        # (A + B p)(A2 + B2 p) with p**2 = p + 1
        bb = B * B2
        return _reduced(A * A2 + bb, A * B2 + B * A2 + bb, D * o._D)

    __rmul__ = __mul__

    def inverse(self) -> "QPhi":
        # conjugate is (A + B) - B*phi, norm A**2 + A*B - B**2
        A, B, D = self._A, self._B, self._D
        n = A * A + A * B - B * B
        if n == 0:
            raise FieldError("division by zero in Q(phi)")
        return _reduced(D * (A + B), -D * B, n)

    def __truediv__(self, other: "QPhi | RationalLike") -> "QPhi":
        return self * QPhi.coerce(other).inverse()

    def __rtruediv__(self, other: "QPhi | RationalLike") -> "QPhi":
        return QPhi.coerce(other) * self.inverse()

    # -- order --------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the real value (D > 0 leaves it to A + B*phi)."""
        return sgn_pair(self._A, self._B)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is QPhi:
            return (self._A == other._A and self._B == other._B
                    and self._D == other._D)
        if isinstance(other, int):
            return self._B == 0 and self._D == 1 and self._A == other
        if isinstance(other, Fraction):
            return (self._B == 0 and self._A == other.numerator
                    and self._D == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        # rational values hash like the int or Fraction they equal
        if self._B == 0:
            return hash(self._A if self._D == 1 else Fraction(self._A, self._D))
        return hash((self._A, self._B, self._D))

    def __lt__(self, other: "QPhi | RationalLike") -> bool:
        return cmp(self, other if other.__class__ is QPhi else QPhi(other)) < 0

    def __le__(self, other: "QPhi | RationalLike") -> bool:
        return cmp(self, other if other.__class__ is QPhi else QPhi(other)) <= 0

    def __gt__(self, other: "QPhi | RationalLike") -> bool:
        return cmp(self, other if other.__class__ is QPhi else QPhi(other)) > 0

    def __ge__(self, other: "QPhi | RationalLike") -> bool:
        return cmp(self, other if other.__class__ is QPhi else QPhi(other)) >= 0

    def __abs__(self) -> "QPhi":
        return -self if self.sign() < 0 else self

    def __bool__(self) -> bool:
        return self._A != 0 or self._B != 0

    # -- floor / fractional part --------------------------------------

    def floor_frac(self) -> Tuple[int, "QPhi"]:
        """Return (n, f) with n <= x < n+1 and f = x - n, exactly.

        floor((A + B*phi)/D) = floor(A + floor(B*phi)) // D, and
        B*phi = (B + B*sqrt(5))/2 has its floor fixed by isqrt(5*B**2)
        because sqrt(5)*|B| is irrational for B != 0.
        """
        A, B, D = self._A, self._B, self._D
        if B > 0:
            A += (B + isqrt(5 * B * B)) // 2
        elif B < 0:
            A += (B - isqrt(5 * B * B) - 1) // 2
        n = A // D
        return n, _raw(self._A - n * D, B, D)

    def __floor__(self) -> int:
        return self.floor_frac()[0]

    def frac(self) -> "QPhi":
        return self.floor_frac()[1]

    # -- embedding (rendering / oracles only) -------------------------

    def approx(self, bits: int = 200) -> Fraction:
        """Within |B|/D * 2**-(bits+2) of x, for oracles and output."""
        root = isqrt(5 << (2 * bits))  # floor(sqrt(5) * 2**bits)
        lo = Fraction((1 << bits) + root, 1 << (bits + 1))
        hi = Fraction((1 << bits) + root + 1, 1 << (bits + 1))
        mid = (lo + hi) / 2
        return (self._A + self._B * mid) / self._D

    def __float__(self) -> float:
        """x as a double within 1 ulp, for rendering and display only:
        ((2A + B) 2**k + B*isqrt(5 * 4**k)) / (2D 2**k) has relative
        error below 2**-64 before its one correctly rounded division, as
        |A + B*phi| >= 1/(|A| + |B|) (the norm A**2 + AB - B**2 is a
        nonzero integer).  It raises only outside the double range."""
        A, B, D = self._A, self._B, self._D
        k = 64 + 2 * max(A.bit_length(), B.bit_length())
        return (((2 * A + B) << k) + B * isqrt(5 << 2 * k)) / (D << k + 1)

    # -- misc ---------------------------------------------------------

    def __repr__(self) -> str:
        return f"QPhi({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        a, b = self.a, self.b
        if b == 0:
            return str(a)
        if a == 0:
            return f"{b}*phi"
        return f"{a}{'+' if b > 0 else ''}{b}*phi"


PHI = QPhi(0, 1)
ONE = QPhi(1)
ZERO = QPhi(0)
HALF = QPhi(Fraction(1, 2))


def phi_power(k: int) -> QPhi:
    """phi**k = F_k * phi + F_{k-1}, Fibonacci extended to negative k."""
    fk, fk1 = _fib_pair(k)
    return QPhi(fk1, fk)


def _fib_pair(k: int) -> Tuple[int, int]:
    """Return (F_k, F_{k-1}) for any integer k."""
    a, b = 0, 1  # F_0, F_-1
    for _ in range(abs(k)):
        # one step up, or one step down by F_{j-2} = F_j - F_{j-1}
        a, b = (a + b, a) if k > 0 else (b, a - b)
    return a, b
