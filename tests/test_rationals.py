import copy
import numbers
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taplab.rationals import (
    BACKEND,
    EPS,
    FastFraction,
    ONE,
    PHI,
    SQRT3,
    ZERO,
    Rat,
    is_power_of_two,
    parse_rat,
    pow2_ceil,
    pow2_ceil_exponent,
    rat_str,
    rat_sum,
    sub_mul,
)

from conftest import rationals


def test_backend_selected():
    assert BACKEND == "fractions"


def test_constants():
    assert PHI == Rat(987, 610)
    assert SQRT3 == Rat(26, 15)
    assert EPS == Rat(1, 2**20)
    # convergents straddle their targets closely
    assert abs(PHI * PHI - PHI - 1) < Rat(1, 10**5)
    assert abs(SQRT3 * SQRT3 - 3) < Rat(1, 100)


def test_parse_and_str():
    assert parse_rat("3/4") == Rat(3, 4)
    assert parse_rat("7") == Rat(7)
    assert rat_str(Rat(6, 4)) == "3/2"
    assert rat_str(Rat(8, 4)) == "2"


@given(rationals(max_value=1000, max_denominator=997))
def test_rat_str_roundtrip(x):
    assert parse_rat(rat_str(x)) == x


@given(rationals(min_value=1, max_value=1000, max_denominator=64))
def test_exact_inverse(x):
    assert x * (ONE / x) == ONE


def test_power_of_two_predicates():
    assert is_power_of_two(Rat(4))
    assert is_power_of_two(Rat(1, 8))
    assert not is_power_of_two(Rat(3))
    assert not is_power_of_two(Rat(2, 3))
    assert not is_power_of_two(ZERO)


def test_pow2_ceil():
    assert pow2_ceil(Rat(3)) == Rat(4)
    assert pow2_ceil(Rat(4)) == Rat(4)
    assert pow2_ceil(Rat(1, 3)) == Rat(1, 2)
    assert pow2_ceil_exponent(Rat(5)) == 3
    assert pow2_ceil_exponent(Rat(1, 4)) == -2


@given(rationals(min_value=1, max_value=512, max_denominator=32))
def test_pow2_ceil_bounds(x):
    y = pow2_ceil(x)
    assert is_power_of_two(y)
    assert x <= y < 2 * x


# --- FastFraction against fractions.Fraction ---------------------------------

_INTS = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2]),
    st.integers(-(10**6), 10**6),
    st.integers(-(2**200), 2**200),
)
_DENS = st.one_of(st.just(1), st.integers(1, 1000), st.integers(1, 2**200))
_VALUES = st.builds(Fraction, _INTS, _DENS)


@st.composite
def _operands(draw):
    """(operand, its plain Fraction); a FastFraction, a Fraction or an int."""
    kind = draw(st.sampled_from(["fast", "fraction", "int"]))
    if kind == "int":
        n = draw(_INTS)
        return n, Fraction(n)
    f = draw(_VALUES)
    return (FastFraction(f) if kind == "fast" else f), f


def _assert_same(got, want):
    """``got`` is a FastFraction equal to ``want`` in every visible way."""
    want = Fraction(want)
    assert type(got) is FastFraction
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
    assert got.denominator > 0
    assert str(got) == str(want)
    assert repr(got) == repr(want)
    assert hash(got) == hash(want)


_BINARY = [operator.add, operator.sub, operator.mul, operator.truediv]
_COMPARE = [operator.eq, operator.ne, operator.lt, operator.le, operator.gt, operator.ge]


@given(_VALUES, _operands())
@settings(max_examples=500, deadline=None)
def test_fast_fraction_matches_fraction(fx, right):
    # every pair with a FastFraction operand, in both orders
    x = FastFraction(fx)
    y, fy = right
    for a, b, fa, fb in ((x, y, fx, fy), (y, x, fy, fx)):
        for op in _BINARY:
            if op is operator.truediv and fb == 0:
                with pytest.raises(ZeroDivisionError):
                    op(a, b)
            else:
                _assert_same(op(a, b), op(fa, fb))
        for op in _COMPARE:
            got = op(a, b)
            assert type(got) is bool and got == op(fa, fb)
    _assert_same(-x, -fx)
    _assert_same(abs(x), abs(fx))
    _assert_same(+x, fx)


@given(_operands(), st.integers(-6, 6), st.sampled_from(["int", "fast", "fraction"]))
@settings(max_examples=300, deadline=None)
def test_fast_fraction_integral_powers(base, e, exp_kind):
    x, fx = base
    exponent = {"int": e, "fast": FastFraction(e), "fraction": Fraction(e)}[exp_kind]
    if type(x) is not FastFraction and type(exponent) is not FastFraction:
        x = FastFraction(x)
    if fx == 0 and e < 0:
        with pytest.raises(ZeroDivisionError):
            x**exponent
        return
    _assert_same(x**exponent, fx**e)


def test_fast_fraction_delegates_other_types():
    half = FastFraction(1, 2)
    assert half + 0.25 == 0.75 and type(half + 0.25) is float
    assert 0.25 * half == 0.125 and type(0.25 * half) is float
    assert half * 1j == 0.5j
    assert half == 0.5 and 0.5 == half and half != 0.25
    assert half < 0.75 and not half > float("nan") and half < float("inf")
    assert half ** Fraction(1, 2) == 0.5**0.5
    assert (half + True) == Fraction(3, 2)
    assert half.__eq__("1/2") is NotImplemented
    assert half.__ne__("1/2") is NotImplemented
    with pytest.raises(TypeError):
        half + "1"


@given(_INTS, st.one_of(_INTS, st.none()))
def test_fast_fraction_constructor(n, d):
    if d == 0:
        with pytest.raises(ZeroDivisionError):
            FastFraction(n, d)
        return
    _assert_same(FastFraction(n, d), Fraction(n, d))
    _assert_same(FastFraction(Fraction(n, d)), Fraction(n, d))
    x = FastFraction(n, d)
    assert FastFraction(x) is x


@given(_VALUES)
def test_fast_fraction_round_trips(f):
    x = FastFraction(f)
    for y in (
        pickle.loads(pickle.dumps(x)),
        copy.copy(x),
        copy.deepcopy(x),
        FastFraction(f"{f.numerator}/{f.denominator}"),
        FastFraction(str(x)),
    ):
        _assert_same(y, f)
    assert isinstance(x, numbers.Rational) and isinstance(x, Fraction)
    assert parse_rat(rat_str(Rat(f))) == f
    assert type(parse_rat(rat_str(Rat(f)))) is Rat


def test_fast_fraction_from_float_and_decimal_string():
    _assert_same(FastFraction(0.5), Fraction(1, 2))
    _assert_same(FastFraction("-0.125"), Fraction(-1, 8))
    _assert_same(FastFraction.from_float(2.75), Fraction(11, 4))


def test_rat_is_fast_fraction_on_fractions_backend():
    assert Rat is FastFraction
    for value in (ZERO, ONE, PHI, SQRT3, EPS, Rat(3, 4), parse_rat("5")):
        assert type(value) is Rat


@st.composite
def _identity_operands(draw):
    """(operand, its plain Fraction): 0, 1 or -1 as a FastFraction, a
    Fraction or an int."""
    value = draw(st.sampled_from([0, 1, -1]))
    kind = draw(st.sampled_from([FastFraction, Fraction, int]))
    return kind(value), Fraction(value)


@given(_operands(), _identity_operands())
@settings(max_examples=300, deadline=None)
def test_fast_fraction_identity_shortcuts(left, right):
    # x + 0, 0 + x, x - 0, x * 1, 1 * x and products with 0, in both orders
    x, fx = left
    y, fy = right
    if type(y) is not FastFraction:
        x = FastFraction(x)  # at least one operand takes the fast path
    for a, b, fa, fb in ((x, y, fx, fy), (y, x, fy, fx)):
        for op in (operator.add, operator.sub, operator.mul):
            _assert_same(op(a, b), op(fa, fb))


@given(_INTS, _INTS, st.sampled_from([FastFraction, Fraction, int]))
@settings(max_examples=300, deadline=None)
def test_fast_fraction_integer_sums_and_products(m, n, kind):
    x, y = FastFraction(m), kind(n)
    for a, b in ((x, y), (y, x)):
        for op in (operator.add, operator.sub, operator.mul):
            _assert_same(op(a, b), op(Fraction(a), Fraction(b)))


def test_fast_fraction_identities_return_the_operand():
    x = FastFraction(3, 7)
    for zero in (0, Fraction(0), FastFraction(0)):
        assert x + zero is x and zero + x is x and x - zero is x
    for one in (1, Fraction(1), FastFraction(1)):
        assert x * one is x and one * x is x
    zero = FastFraction(0)
    assert x * zero is zero and zero * x is zero


@given(_VALUES, _VALUES, _VALUES)
def test_sub_mul_matches_the_operators(a, b, c):
    a, b, c = FastFraction(a), FastFraction(b), FastFraction(c)
    _assert_same(sub_mul(a, b, c), Fraction(a) - Fraction(b) * Fraction(c))
    _assert_same(sub_mul(b * c, b, c), 0)  # an exact zero is 0/1


@given(st.lists(_operands(), max_size=8))
def test_rat_sum_matches_sum(terms):
    _assert_same(rat_sum(x for x, _ in terms), sum((f for _, f in terms), Fraction(0)))
