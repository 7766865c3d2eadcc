"""Exact arithmetic in real quadratic fields.

A :class:`QuadraticIrrational` stores (a + b*sqrt(d))/c with integer a, b, c
and a positive nonsquare d.  Canonical form fixes c > 0, gcd(a, b, c) = 1 and
d squarefree, so equality is structural.  Arithmetic that lands back in the
rationals returns a :class:`fractions.Fraction` instead (b = 0 never occurs
in a constructed instance).

Rationals are plain ``Fraction``/``int`` throughout the package; ``ExactReal``
is the union of both kinds.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Tuple, Union

from .errors import DomainError, RefinementCap

__all__ = [
    "QuadraticIrrational",
    "ExactReal",
    "exact_sign",
    "exact_cmp",
    "floor_exact",
    "frac_exact",
    "bracket",
    "to_float",
    "int_text",
]


_SPLIT_BOUND = 10_000


def _squarefree_split(d: int) -> Tuple[int, int]:
    """Return (s, d0) with d = s**2 * d0 and d0 free of small square factors.

    Trial division stops at a fixed bound (full squarefree reduction would
    mean factoring; radicands from periodic-tail discriminants can be huge).
    A remaining perfect-square cofactor is still extracted, so values built
    from the same field unify; residual square factors above the bound are
    tolerated and handled by the pairwise unification in arithmetic.
    """
    if d <= 0:
        raise ValueError("d must be positive")
    s, d0 = 1, d
    f = 2
    while f * f <= d0 and f <= _SPLIT_BOUND:
        f2 = f * f
        while d0 % f2 == 0:
            d0 //= f2
            s *= f
        f += 1
    r = math.isqrt(d0)
    if r * r == d0:
        s, d0 = s * r, 1
    return s, d0


def _unify_radicand(x: "QuadraticIrrational", d_other: int):
    """Rewrite x over radicand d_other when d_x * d_other is a perfect square
    (exactly when both span the same field); returns (a, b, c) over d_other
    or None.  With m = isqrt(d_x d_other), sqrt(d_x) = m sqrt(d_other) / d_other."""
    if x.d == d_other:
        return x.a, x.b, x.c
    m = math.isqrt(x.d * d_other)
    if m * m == x.d * d_other:
        return x.a * d_other, x.b * m, x.c * d_other
    return None


class QuadraticIrrational:
    """(a + b*sqrt(d))/c in canonical form; always irrational (b != 0)."""

    __slots__ = ("a", "b", "c", "d")

    def __new__(cls, a, b, c, d):
        a, b, c, d = int(a), int(b), int(c), int(d)
        if c == 0:
            raise ZeroDivisionError("denominator c = 0")
        s, d0 = _squarefree_split(d)
        b *= s
        if d0 == 1:  # perfect-square d: sqrt contributes the integer b
            return Fraction(a + b, c)
        return cls._over(a, b, c, d0)

    @classmethod
    def _over(cls, a: int, b: int, c: int, d: int) -> ExactReal:
        """(a + b*sqrt(d))/c for integers with c != 0 and d the radicand of a
        constructed value, which the square-free split leaves as it is: only
        the sign, the gcd and b == 0 are normalized.  Arithmetic keeps its
        operand's radicand and builds its results here."""
        if b == 0:
            return Fraction(a, c)
        if c < 0:
            a, b, c = -a, -b, -c
        g = math.gcd(math.gcd(abs(a), abs(b)), c)
        if g > 1:
            a, b, c = a // g, b // g, c // g
        self = object.__new__(cls)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("QuadraticIrrational is immutable")

    def __reduce__(self):  # pickling (scan workers) rebuilds through __new__
        return QuadraticIrrational, (self.a, self.b, self.c, self.d)

    # -- coercion -----------------------------------------------------------

    def _coerce(self, other):
        """Return (a, b, c) of other over this value's field, or None."""
        if isinstance(other, QuadraticIrrational):
            if other.d != self.d:
                return _unify_radicand(other, self.d)
            return other.a, other.b, other.c
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        return None

    # -- ring operations ----------------------------------------------------

    def __neg__(self):
        return QuadraticIrrational._over(-self.a, -self.b, self.c, self.d)

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        a2, b2, c2 = co
        return QuadraticIrrational._over(
            self.a * c2 + a2 * self.c, self.b * c2 + b2 * self.c, self.c * c2, self.d
        )

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (QuadraticIrrational, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        a2, b2, c2 = co
        return QuadraticIrrational._over(
            self.a * a2 + self.b * b2 * self.d,
            self.a * b2 + self.b * a2,
            self.c * c2,
            self.d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        a2, b2, c2 = co
        # multiply by the conjugate of the divisor
        norm = a2 * a2 - b2 * b2 * self.d
        if norm == 0:
            raise ZeroDivisionError("division by zero")
        na = (self.a * a2 - self.b * b2 * self.d) * c2
        nb = (self.b * a2 - self.a * b2) * c2
        return QuadraticIrrational._over(na, nb, self.c * norm, self.d)

    def __rtruediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        a2, b2, c2 = co
        norm = self.a * self.a - self.b * self.b * self.d
        na = (a2 * self.a - b2 * self.b * self.d) * self.c
        nb = (b2 * self.a - a2 * self.b) * self.c
        return QuadraticIrrational._over(na, nb, c2 * norm, self.d)

    # -- order and equality -------------------------------------------------

    def _sign(self) -> int:
        """Exact sign; c > 0 so only a + b*sqrt(d) matters."""
        a, b, d = self.a, self.b, self.d
        if a >= 0 and b > 0:
            return 1
        if a <= 0 and b < 0:
            return -1
        # opposite signs: the larger of a^2 and b^2 d (never equal) decides
        big = a if a * a > b * b * d else b
        return 1 if big > 0 else -1

    def __eq__(self, other):
        if isinstance(other, QuadraticIrrational):
            if self.d == other.d:
                return (self.a, self.b, self.c) == (other.a, other.b, other.c)
            return exact_cmp(self, other) == 0
        if isinstance(other, (int, Fraction)):
            return False  # irrational
        return NotImplemented

    def __hash__(self):
        # equal values share a/c and the signed square b|b|d/c^2 of the
        # irrational part, whatever square factors their radicands keep
        return hash((Fraction(self.a, self.c),
                     Fraction(self.b * abs(self.b) * self.d, self.c * self.c)))

    def __lt__(self, other):
        return exact_cmp(self, other) < 0

    def __le__(self, other):
        return exact_cmp(self, other) <= 0

    def __gt__(self, other):
        return exact_cmp(self, other) > 0

    def __ge__(self, other):
        return exact_cmp(self, other) >= 0

    # -- floor / float ------------------------------------------------------

    def __floor__(self) -> int:
        """(a + floor(b sqrt(d))) // c, c > 0; b sqrt(d) is irrational, so its
        floor is r = isqrt(b^2 d) for b > 0 and -r - 1 for b < 0."""
        r = math.isqrt(self.b * self.b * self.d)
        return (self.a + (r if self.b > 0 else -r - 1)) // self.c

    def int_bracket(self, bits: int) -> Tuple[int, int, int]:
        """Integers (lo, hi, den) with lo/den < self < hi/den, den = c * 2**bits
        and hi - lo = |b|: sqrt(d) lies between s/2**bits and (s+1)/2**bits
        for s = isqrt(d * 4**bits)."""
        s = math.isqrt(self.d << (2 * bits))
        lo = (self.a << bits) + self.b * s
        hi = lo + self.b
        if self.b < 0:
            lo, hi = hi, lo
        return lo, hi, self.c << bits

    def bracket(self, bits: int = 64) -> Tuple[Fraction, Fraction]:
        """Rational lo <= self <= hi with width |b| / (c * 2**bits)."""
        lo, hi, den = self.int_bracket(bits)
        return Fraction(lo, den), Fraction(hi, den)

    def __float__(self) -> float:
        bits = 64
        while True:
            lo, hi = self.bracket(bits)
            flo, fhi = float(lo), float(hi)
            if flo == fhi or bits > 16384:
                return flo
            bits *= 2

    def __repr__(self):
        return f"QuadraticIrrational({self.a}, {self.b}, {self.c}, {self.d})"

    def __str__(self):
        sign = "+" if self.b >= 0 else "-"
        a, b, d, c = (int_text(n) for n in (self.a, abs(self.b), self.d, self.c))
        return f"({a}{sign}{b}*sqrt({d}))/{c}"


ExactReal = Union[int, Fraction, QuadraticIrrational]


def int_text(n: int) -> str:
    """Decimal text of an exact integer; :class:`DomainError` where it is
    longer than Python's int-to-str digit limit allows."""
    try:
        return str(n)
    except ValueError as exc:
        raise DomainError(f"an exact integer is too long to print: {exc}") from None


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not a rational: {x!r}")


def exact_sign(x: ExactReal) -> int:
    if isinstance(x, QuadraticIrrational):
        return x._sign()
    v = _as_fraction(x).numerator
    return (v > 0) - (v < 0)


def exact_cmp(x: ExactReal, y: ExactReal) -> int:
    """Exact three-way comparison: the sign of the exact difference x - y.

    Two surds of different fields (the product of their radicands not a
    perfect square) have no exact difference; they are compared by interval
    refinement, which terminates because such values cannot coincide (a
    safety cap guards the loop and raises :class:`RefinementCap`).  A float
    operand raises ``TypeError``.
    """
    if isinstance(x, QuadraticIrrational) and isinstance(y, QuadraticIrrational) \
            and _unify_radicand(y, x.d) is None:
        bits = 64
        while bits <= 1 << 20:
            xlo, xhi = x.bracket(bits)
            ylo, yhi = y.bracket(bits)
            if xhi < ylo:
                return -1
            if yhi < xlo:
                return 1
            bits *= 2
        raise RefinementCap(f"cannot separate {x!r} and {y!r} within {bits // 2} bits")
    return exact_sign(x - y)


def floor_exact(x: ExactReal) -> int:
    if isinstance(x, QuadraticIrrational):
        return x.__floor__()
    return math.floor(_as_fraction(x))


def frac_exact(x: ExactReal) -> ExactReal:
    """Fractional part x - floor(x), exact."""
    return x - floor_exact(x)


def bracket(x: ExactReal, bits: int = 64) -> Tuple[Fraction, Fraction]:
    if isinstance(x, QuadraticIrrational):
        return x.bracket(bits)
    f = _as_fraction(x)
    return f, f


def to_float(x) -> float:
    """Correctly rounded float of an exact value (floats pass through)."""
    if isinstance(x, float):
        return x
    if isinstance(x, QuadraticIrrational):
        return float(x)
    return float(_as_fraction(x))
