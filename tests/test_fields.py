"""Scalars: the normal form of the rationals and the prime-field parser."""

import operator
import random
from fractions import Fraction
from itertools import product

import pytest

import reedylab as rl

Q = rl.rationals()

VALUES = [Q.of(Fraction(n, d)) for n in range(-4, 5) for d in range(1, 4)]


def normal(x):
    """An int exactly when the value is integral, otherwise a Fraction."""
    if x == int(x):
        return type(x) is int
    return type(x) is Fraction


def test_zero_and_one_are_ints():
    assert type(Q.zero) is int and Q.zero == 0
    assert type(Q.one) is int and Q.one == 1


def test_values_are_in_normal_form():
    assert all(normal(x) for x in VALUES)
    assert {type(x) for x in VALUES} == {int, Fraction}


@pytest.mark.parametrize("op, exact", [
    ("add", operator.add), ("sub", operator.sub), ("mul", operator.mul), ("div", operator.truediv),
])
def test_binary_operations_return_normal_form(op, exact):
    for a, b in product(VALUES, repeat=2):
        if op == "div" and b == 0:
            continue
        r = getattr(Q, op)(a, b)
        assert normal(r) and r == exact(Fraction(a), Fraction(b)), (op, a, b, r)


def test_unary_operations_return_normal_form():
    for a in VALUES:
        assert normal(Q.neg(a)) and Q.neg(a) == -a
        if a != 0:
            assert normal(Q.inv(a)) and Q.inv(a) == 1 / Fraction(a)
    for n in [0, 7, -3, True, Fraction(6, 3), Fraction(1, 3), "5/10", "4/2"]:
        assert normal(Q.of(n)) and Q.of(n) == Fraction(n)
    rng = random.Random(0)
    draws = [Q.random(rng) for _ in range(200)]
    assert all(normal(x) for x in draws)
    assert {type(x) for x in draws} == {int, Fraction}


def test_inverse_of_an_int_is_exact():
    half = Q.inv(2)
    assert half == Fraction(1, 2) and type(half) is Fraction
    assert type(Q.inv(1)) is int and type(Q.inv(-1)) is int
    with pytest.raises(ZeroDivisionError):
        Q.inv(0)


PARSE_CASES = [
    "0", "12", "-7", "-0", "007", "+3", " 3 ", "1_0", "٣", "1.5", "1e2",
    "", "-", "4/2", "3/6", "1/0x", "abc",
]


@pytest.mark.parametrize("text", PARSE_CASES)
def test_parse_agrees_with_fraction(text):
    try:
        expected = Fraction(text)
    except ValueError:
        with pytest.raises(ValueError):
            Q.parse(text)
        return
    got = Q.parse(text)
    assert got == expected and normal(got)


def test_show_prints_both_forms_alike():
    assert Q.show(Q.of(3)) == str(Fraction(3)) == "3"
    assert Q.show(Q.parse("-2/4")) == str(Fraction(-1, 2)) == "-1/2"
    assert hash(Q.parse("6/3")) == hash(Fraction(2))
