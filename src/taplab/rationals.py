"""Exact rational arithmetic.

All times and works in the simulator are exact rationals.  The hot loops
(event-time computation, allocation integrals, oracle search) are
dominated by rational arithmetic, so ``Rat`` is ``FastFraction``, a
slotted ``Fraction`` subclass.  It overrides construction, ``+ - * /``
and their reflected forms, unary ``-``/``+``, ``abs``, ``**`` with an
integral exponent, ``== < <= > >=`` (``!=`` follows ``==``) and ``hash``
with fast paths for operands of exact type ``FastFraction``, ``Fraction``
or ``int``: they skip ``Fraction.__new__``, its operator wrappers and the
``numbers.Rational`` checks, and reduce with CPython's formulas (Knuth,
TAOCP vol. 2, 4.5.1), so each result is normalised exactly as
``Fraction``'s: lowest terms, positive denominator.  Adding or
subtracting 0 and multiplying by 1 or by a zero ``FastFraction`` return
an operand unchanged, and sums and products of integers skip the gcd.
Other operand types (float, complex, bool, ...) and other operations
(``str``, ``float``, ``floor``/``round``, ``//``, ``%``, pickling,
copying) use the inherited ``Fraction`` code.  A subclass's reflected
operator wins, so ``Fraction op Rat`` is a ``Rat`` too.
``repr`` stays ``Fraction(n, d)``: the values are ``Fraction``
instances, and the battery digests hash ``str``/``repr``, so they stay
comparable with plain ``Fraction`` runs.  ``BACKEND`` names the type for
benchmark records.
"""

from __future__ import annotations

import math
from fractions import Fraction

#: The rational type's name, recorded with benchmark results.
BACKEND = "fractions"

_gcd = math.gcd
_new = object.__new__


class FastFraction(Fraction):
    """``Fraction`` with fast paths for ``FastFraction``, ``Fraction`` and
    ``int`` operands; see the module docstring."""

    __slots__ = ()

    def __new__(cls, numerator=0, denominator=None):
        tn = type(numerator)
        if denominator is None:
            if tn is int:
                return _make(numerator, 1)
            if tn is FastFraction:
                return numerator
            if tn is Fraction:
                return _make(numerator._numerator, numerator._denominator)
        elif tn is int and type(denominator) is int:
            if denominator == 0:
                raise ZeroDivisionError(f"Fraction({numerator}, 0)")
            g = _gcd(numerator, denominator)
            if denominator < 0:
                g = -g
            return _make(numerator // g, denominator // g)
        return Fraction.__new__(cls, numerator, denominator)

    def __repr__(self):
        return f"Fraction({self._numerator}, {self._denominator})"

    # The operators below build their result in place (``_new`` and two
    # slot stores) rather than through ``_make``: a call is a large part
    # of one operation.  ``x + 0``, ``x - 0``, ``0 + x``, ``x * 1``,
    # ``1 * x`` and products with a zero operand return an operand that
    # is already a ``FastFraction``; sums and products of integers skip
    # the gcd.

    def __add__(a, b):
        tb = type(b)
        if tb is FastFraction or tb is Fraction:
            nb = b._numerator
            if not nb:
                return a
            na = a._numerator
            if not na and tb is FastFraction:
                return b
            da, db = a._denominator, b._denominator
            if da == 1 and db == 1:
                n, d = na + nb, 1
            else:
                g = _gcd(da, db)
                if g == 1:
                    n, d = na * db + da * nb, da * db
                else:
                    s = da // g
                    n = na * (db // g) + nb * s
                    g2 = _gcd(n, g)
                    if g2 == 1:
                        d = s * db
                    else:
                        n, d = n // g2, s * (db // g2)
        elif tb is int:
            if not b:
                return a
            d = a._denominator
            n = a._numerator + b * d
        else:
            return Fraction.__add__(a, b)
        r = _new(FastFraction)
        r._numerator = n
        r._denominator = d
        return r

    __radd__ = __add__

    def __sub__(a, b):
        tb = type(b)
        if tb is FastFraction or tb is Fraction:
            nb = b._numerator
            if not nb:
                return a
            na, da, db = a._numerator, a._denominator, b._denominator
            if da == 1 and db == 1:
                n, d = na - nb, 1
            else:
                g = _gcd(da, db)
                if g == 1:
                    n, d = na * db - da * nb, da * db
                else:
                    s = da // g
                    n = na * (db // g) - nb * s
                    g2 = _gcd(n, g)
                    if g2 == 1:
                        d = s * db
                    else:
                        n, d = n // g2, s * (db // g2)
        elif tb is int:
            if not b:
                return a
            d = a._denominator
            n = a._numerator - b * d
        else:
            return Fraction.__sub__(a, b)
        r = _new(FastFraction)
        r._numerator = n
        r._denominator = d
        return r

    def __rsub__(a, b):
        tb = type(b)
        if tb is Fraction or tb is int:
            return FastFraction(b) - a
        return Fraction.__rsub__(a, b)

    def __mul__(a, b):
        tb = type(b)
        if tb is FastFraction or tb is Fraction:
            na, da = a._numerator, a._denominator
            nb, db = b._numerator, b._denominator
            if db == 1:
                if nb == 1 or not na:
                    return a
                if tb is FastFraction and (not nb or na == 1 and da == 1):
                    return b
                if da == 1:
                    n, d = na * nb, 1
                else:
                    g = _gcd(nb, da)
                    n, d = na * (nb // g), da // g
            elif da == 1:
                if not na:
                    return a
                if na == 1 and tb is FastFraction:
                    return b
                g = _gcd(na, db)
                n, d = (na // g) * nb, db // g
            else:
                g1, g2 = _gcd(na, db), _gcd(nb, da)
                n, d = (na // g1) * (nb // g2), (db // g1) * (da // g2)
        elif tb is int:
            if b == 1:
                return a
            da = a._denominator
            if da == 1:
                n, d = a._numerator * b, 1
            else:
                g = _gcd(b, da)
                n, d = a._numerator * (b // g), da // g
        else:
            return Fraction.__mul__(a, b)
        r = _new(FastFraction)
        r._numerator = n
        r._denominator = d
        return r

    __rmul__ = __mul__

    def __truediv__(a, b):
        tb = type(b)
        if tb is FastFraction or tb is Fraction:
            return _div(a._numerator, a._denominator, b._numerator, b._denominator)
        if tb is int:
            return _div(a._numerator, a._denominator, b, 1)
        return Fraction.__truediv__(a, b)

    def __rtruediv__(a, b):
        tb = type(b)
        if tb is Fraction:
            return _div(b._numerator, b._denominator, a._numerator, a._denominator)
        if tb is int:
            return _div(b, 1, a._numerator, a._denominator)
        return Fraction.__rtruediv__(a, b)

    def __pow__(a, b):
        tb = type(b)
        if (tb is FastFraction or tb is Fraction) and b._denominator == 1:
            b, tb = b._numerator, int
        if tb is not int:
            return Fraction.__pow__(a, b)
        na, da = a._numerator, a._denominator
        if b >= 0:
            return _make(na**b, da**b)
        if na == 0:
            raise ZeroDivisionError("division by zero")
        if na > 0:
            return _make(da**-b, na**-b)
        return _make((-da) ** -b, (-na) ** -b)

    def __rpow__(a, b):
        tb = type(b)
        if a._denominator == 1 and (tb is int or tb is Fraction):
            return FastFraction(b) ** a._numerator
        return Fraction.__rpow__(a, b)

    def __neg__(a):
        return _make(-a._numerator, a._denominator)

    def __pos__(a):
        return a

    def __abs__(a):
        return a if a._numerator >= 0 else _make(-a._numerator, a._denominator)

    def __hash__(self):
        if self._denominator == 1:
            return hash(self._numerator)
        return Fraction.__hash__(self)

    def __eq__(a, b):
        tb = type(b)
        if tb is FastFraction or tb is Fraction:
            return a._numerator == b._numerator and a._denominator == b._denominator
        if tb is int:
            return a._numerator == b and a._denominator == 1
        return Fraction.__eq__(a, b)

    def __lt__(a, b):
        tb = type(b)
        if tb is FastFraction or tb is Fraction:
            return a._numerator * b._denominator < a._denominator * b._numerator
        return a._numerator < a._denominator * b if tb is int else Fraction.__lt__(a, b)

    def __gt__(a, b):
        tb = type(b)
        if tb is FastFraction or tb is Fraction:
            return a._numerator * b._denominator > a._denominator * b._numerator
        return a._numerator > a._denominator * b if tb is int else Fraction.__gt__(a, b)

    def __le__(a, b):
        tb = type(b)
        if tb is FastFraction or tb is Fraction:
            return a._numerator * b._denominator <= a._denominator * b._numerator
        return a._numerator <= a._denominator * b if tb is int else Fraction.__le__(a, b)

    def __ge__(a, b):
        tb = type(b)
        if tb is FastFraction or tb is Fraction:
            return a._numerator * b._denominator >= a._denominator * b._numerator
        return a._numerator >= a._denominator * b if tb is int else Fraction.__ge__(a, b)


def _make(numerator: int, denominator: int) -> FastFraction:
    """A ``FastFraction`` from a reduced pair with a positive denominator."""
    r = _new(FastFraction)
    r._numerator = numerator
    r._denominator = denominator
    return r


def _div(na: int, da: int, nb: int, db: int) -> FastFraction:
    """(na/da) / (nb/db) for reduced pairs, as CPython's ``Fraction._div``."""
    if nb == 0:
        raise ZeroDivisionError("division by zero")
    g1, g2 = _gcd(na, nb), _gcd(db, da)
    n, d = (na // g1) * (db // g2), (nb // g1) * (da // g2)
    if d < 0:
        n, d = -n, -d
    r = _new(FastFraction)
    r._numerator = n
    r._denominator = d
    return r


Rat = FastFraction

#: Rational zero and one.
ZERO = Rat(0)
ONE = Rat(1)

# Fixed rational stand-ins for irrational constants.  Assertions that
# involve them carry a 1e-2 tolerance, which dominates both errors.
PHI = Rat(987, 610)  # golden ratio, Fibonacci convergent, error < 3e-6
SQRT3 = Rat(26, 15)  # error < 1e-3

#: "Infinitesimal" arrival separation used by the lower-bound generators.
EPS = Rat(1, 2**20)


def parse_rat(text: str):
    """Parse ``"a"`` or ``"a/b"`` into a rational."""
    text = text.strip()
    if "/" in text:
        a, b = text.split("/", 1)
        den = int(b)
        if den <= 0:
            raise ValueError(f"denominator must be positive in {text!r}")
        return Rat(int(a), den)
    return Rat(int(text))


def rat_str(value) -> str:
    """Serialise a rational as ``"a"`` or ``"a/b"`` in lowest terms."""
    value = Rat(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def is_power_of_two(value) -> bool:
    """True iff ``value`` equals 2**e for some (possibly negative) int e."""
    value = Rat(value)
    if value <= 0:
        return False
    num, den = value.numerator, value.denominator
    if num == 1:
        return den & (den - 1) == 0
    if den == 1:
        return num & (num - 1) == 0
    return False


def pow2_ceil(value):
    """Smallest power of two (possibly with negative exponent) >= value."""
    value = Rat(value)
    if value <= 0:
        raise ValueError("pow2_ceil requires a positive argument")
    return Rat(2) ** pow2_ceil_exponent(value)


def pow2_ceil_exponent(value) -> int:
    """Smallest integer e with 2**e >= value (value > 0)."""
    value = Rat(value)
    num, den = value.numerator, value.denominator
    e = num.bit_length() - den.bit_length()
    while not _pow2_at_least(e, num, den):
        e += 1
    while _pow2_at_least(e - 1, num, den):
        e -= 1
    return e


def _pow2_at_least(e: int, num: int, den: int) -> bool:
    """True iff 2**e >= num/den."""
    if e >= 0:
        return (1 << e) * den >= num
    return den >= num << (-e)

