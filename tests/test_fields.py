"""Scalars: the normal form of the rationals, the rational kernel against
``fractions.Fraction``, and the prime-field parser."""

import operator
import random
from fractions import Fraction
from itertools import product

import hypothesis
import pytest
from hypothesis import strategies as st

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


# Operands for the kernel: ints small and beyond 2^64, Fractions in lowest
# terms, and integral Fractions such as Fraction(6, 3), which are not in
# normal form and must still give normal-form results.
BIG = 1 << 70
integers = st.one_of(st.integers(-30, 30), st.integers(-BIG, BIG))
denominators = st.one_of(st.integers(1, 30), st.integers(1, BIG))
fractions = st.builds(Fraction, integers, denominators)
integral_fractions = st.builds(lambda n, d: Fraction(n * d, d), integers, st.integers(1, 30))
operands = st.one_of(integers, fractions, integral_fractions)
KERNEL = hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)


def expected_form(x):
    """The normal form of a Fraction result: an int when integral."""
    return x.numerator if x.denominator == 1 else x


def assert_same_scalar(got, want):
    want = expected_form(want)
    assert type(got) is type(want)
    assert (got == want and hash(got) == hash(want) and str(got) == str(want)
            and repr(got) == repr(want)), (got, want)
    if type(got) is Fraction:
        assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
        assert got.denominator > 1
        # a kernel-built Fraction works with Fraction's own operators
        third = Fraction(1, 3)
        assert got + third == want + third and got * got == want * want
        assert got - 1 < want < got + 1 and not got < want
        assert Fraction(str(got)) == got


@KERNEL
@hypothesis.given(operands, operands)
@hypothesis.example(Fraction(6, 3), Fraction(-4, 2))
@hypothesis.example(Fraction(1, 6), Fraction(5, 6))
def test_binary_kernel_agrees_with_fraction(a, b):
    fa, fb = Fraction(a), Fraction(b)
    assert_same_scalar(Q.add(a, b), fa + fb)
    assert_same_scalar(Q.sub(a, b), fa - fb)
    assert_same_scalar(Q.mul(a, b), fa * fb)
    if b != 0:
        assert_same_scalar(Q.div(a, b), fa / fb)


@KERNEL
@hypothesis.given(operands)
@hypothesis.example(Fraction(6, 3))
@hypothesis.example(Fraction(-1, 3))
def test_unary_kernel_agrees_with_fraction(a):
    fa = Fraction(a)
    assert_same_scalar(Q.neg(a), -fa)
    assert_same_scalar(Q.add(a, Q.neg(a)), Fraction(0))
    if a != 0:
        assert_same_scalar(Q.inv(a), 1 / fa)
    else:
        with pytest.raises(ZeroDivisionError):
            Q.inv(a)
