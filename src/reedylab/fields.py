"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Over the rationals a scalar is held in a normal form: a plain ``int`` when
its value is integral and a ``fractions.Fraction`` only when it is not, so
the mostly integral structure constants cost int arithmetic.  ``int`` and
``Fraction`` compare, hash and print alike, so the form never shows.  Over
GF(p) scalars are plain ints in ``range(p)``.  All arithmetic is exact;
there is no floating point anywhere in the package.
"""

from __future__ import annotations

import re
from fractions import Fraction

_INTEGER_LITERAL = re.compile(r"-?[0-9]+")


def _normal(x):
    """A rational in normal form: an int when integral, else the Fraction."""
    if type(x) is int or x.denominator != 1:
        return x
    return x.numerator


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

    def dot(self, u, v):
        acc = self.zero
        for a, b in zip(u, v):
            if a != self.zero and b != self.zero:
                acc = self.add(acc, self.mul(a, b))
        return acc


class Rationals(Field):
    """The field of rational numbers with arbitrary-precision arithmetic.

    Every operation returns its result in normal form (see the module
    docstring): an ``int`` exactly when the value is integral.  ``add``,
    ``sub`` and ``mul`` are the hot path and inline ``_normal``.
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
        r = a + b
        if type(r) is int or r.denominator != 1:
            return r
        return r.numerator

    def sub(self, a, b):
        r = a - b
        if type(r) is int or r.denominator != 1:
            return r
        return r.numerator

    def mul(self, a, b):
        r = a * b
        if type(r) is int or r.denominator != 1:
            return r
        return r.numerator

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _normal(Fraction(1) / a)

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
