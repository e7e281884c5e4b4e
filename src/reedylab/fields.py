"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Over the rationals a scalar is held in a normal form: a plain ``int`` when
its value is integral and a ``fractions.Fraction`` in lowest terms with a
positive denominator only when it is not, so the mostly integral structure
constants cost int arithmetic.  ``int`` and ``Fraction`` compare, hash and
print alike, so the form never shows.

The field operations on rationals do not go through ``Fraction``'s
operators, whose operand dispatch and normalising constructor cost several
times the arithmetic.  They work on numerators and denominators directly,
with the textbook kernel (Knuth, TAOCP Vol. 2, 4.5.1): a product
cross-cancels with two gcds, a sum over equal denominators takes one gcd
and any other sum two (Henrici), and an int plus a fraction needs none.
A non-integral result is a real ``Fraction``, built by filling its slots
with the already reduced numerator and denominator (``_ratio``).

Over GF(p) scalars are plain ints in ``range(p)``.  All arithmetic is exact;
there is no floating point anywhere in the package.  In either field a
scalar is zero exactly when it is false, so hot loops test ``not x``
rather than ``x == field.zero``, which a ``Fraction`` answers in Python.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

_INTEGER_LITERAL = re.compile(r"-?[0-9]+")
_new = object.__new__


def _normal(x):
    """A rational in normal form: an int when integral, else the Fraction."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


def _ratio(n, d):
    """n/d in normal form, for coprime n and d > 0: n itself when d == 1,
    else a Fraction made by filling its two slots, which skips the
    normalising constructor (``Fraction(n, d)`` would take the gcd again)."""
    if d == 1:
        return n
    r = _new(Fraction)
    r._numerator = n
    r._denominator = d
    return r


def _sum(na, da, nb, db):
    """na/da + nb/db for two fractions in lowest terms with positive
    denominators, by Henrici's method.  With g = gcd(da, db) the sum is
    t / (da * db / g) for t = na * (db / g) + nb * (da / g), and t can share
    only factors of g with that denominator, so gcd(t, g) normalises it."""
    if da == db:
        n = na + nb
        g = gcd(n, da)
        return _ratio(n // g, da // g)
    g = gcd(da, db)
    if g == 1:
        return _ratio(na * db + nb * da, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g = gcd(t, g)
    return _ratio(t // g, s * (db // g))


def _scale(c, n, d):
    """The integer c times n/d in lowest terms: only gcd(c, d) can cancel."""
    g = gcd(c, d)
    return _ratio((c // g) * n, d // g)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Field:
    """Base descriptor for the supported exact fields.

    Subclasses implement the arithmetic; instances are immutable and
    hashable so algebras can share them freely.
    """

    characteristic: int

    def __eq__(self, other):
        return isinstance(other, Field) and self.characteristic == other.characteristic

    def __hash__(self):
        return hash(("Field", self.characteristic))

    # Subclass interface: of, add, sub, mul, neg, inv, parse, show.

    def div(self, a, b):
        return self.mul(a, self.inv(b))


class Rationals(Field):
    """The field of rational numbers with arbitrary-precision arithmetic.

    Every operation returns its result in normal form (see the module
    docstring): an ``int`` exactly when the value is integral.  ``add``,
    ``sub``, ``mul``, ``neg`` and ``inv`` are the hot path: two ints go
    straight to int arithmetic, and any other operands are taken apart into
    numerator and denominator for the kernel above.
    """

    characteristic = 0

    def __init__(self):
        self.zero = 0
        self.one = 1

    def __repr__(self):
        return "Q"

    def of(self, n):
        if type(n) is int:
            return n
        return _normal(Fraction(n))

    def add(self, a, b):
        if type(a) is int:
            if type(b) is int:
                return a + b
            d = b._denominator
            return _ratio(a * d + b._numerator, d)
        if type(b) is int:
            d = a._denominator
            return _ratio(a._numerator + b * d, d)
        return _sum(a._numerator, a._denominator, b._numerator, b._denominator)

    def sub(self, a, b):
        if type(a) is int:
            if type(b) is int:
                return a - b
            d = b._denominator
            return _ratio(a * d - b._numerator, d)
        if type(b) is int:
            d = a._denominator
            return _ratio(a._numerator - b * d, d)
        return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)

    def mul(self, a, b):
        if type(a) is int:
            if type(b) is int:
                return a * b
            return _scale(a, b._numerator, b._denominator)
        if type(b) is int:
            return _scale(b, a._numerator, a._denominator)
        na, da, nb, db = a._numerator, a._denominator, b._numerator, b._denominator
        g1 = gcd(na, db)
        g2 = gcd(nb, da)
        return _ratio((na // g1) * (nb // g2), (da // g2) * (db // g1))

    def neg(self, a):
        if type(a) is int:
            return -a
        return _ratio(-a._numerator, a._denominator)

    def inv(self, a):
        if type(a) is int:
            n, d = 1, a
        else:
            n, d = a._denominator, a._numerator
        if d == 0:
            raise ZeroDivisionError("inverse of zero")
        if d < 0:
            n, d = -n, -d
        return _ratio(n, d)

    def parse(self, s: str):
        if _INTEGER_LITERAL.fullmatch(s):
            return int(s)
        return _normal(Fraction(s))

    def show(self, a) -> str:
        return str(a)

    def random(self, rng, span: int = 5):
        num = rng.randint(-span, span)
        den = rng.randint(1, span)
        return _normal(Fraction(num, den))


class PrimeField(Field):
    """The prime field GF(p) for a word-sized prime p."""

    def __init__(self, p: int):
        if not _is_prime(p):
            raise ValueError(f"characteristic must be prime, got {p}")
        if p >= 1 << 31:
            raise ValueError("prime fields limited to p < 2^31")
        self.characteristic = p
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return f"GF({self.characteristic})"

    def of(self, n) -> int:
        return int(n) % self.characteristic

    def add(self, a, b):
        return (a + b) % self.characteristic

    def sub(self, a, b):
        return (a - b) % self.characteristic

    def mul(self, a, b):
        return (a * b) % self.characteristic

    def neg(self, a):
        return (-a) % self.characteristic

    def inv(self, a):
        if a % self.characteristic == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.characteristic)

    def parse(self, s: str) -> int:
        if "/" in s:
            num, den = s.split("/", 1)
            return self.div(self.of(int(num)), self.of(int(den)))
        return self.of(int(s))

    def show(self, a) -> str:
        return str(a % self.characteristic)

    def random(self, rng, span: int = 0):
        return rng.randrange(self.characteristic)


_Q = Rationals()
_GF_CACHE: dict[int, PrimeField] = {}


def rationals() -> Rationals:
    return _Q


def prime_field(p: int) -> PrimeField:
    field = _GF_CACHE.get(p)
    if field is None:
        field = _GF_CACHE[p] = PrimeField(p)
    return field


def field_of(kind: str, characteristic: int = 0) -> Field:
    """Build a field from its descriptor pair (kind, characteristic)."""
    if kind == "Q":
        return rationals()
    if kind == "GF":
        return prime_field(characteristic)
    raise ValueError(f"unknown field kind {kind!r}")
