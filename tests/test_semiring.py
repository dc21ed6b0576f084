"""Semiring axioms and exact matrix algebra over the max-plus structure."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hornlab import (
    BOTTOM,
    COMPLEX,
    RATIONAL,
    TROPICAL,
    as_rational,
    mat_mul,
)
from hornlab.semiring import over_common_denominator

# Tropical elements: BOTTOM plus a small exact rational range.  Keeping the
# denominators tiny makes hypothesis shrinks readable.
trop_elems = st.one_of(
    st.just(BOTTOM),
    st.fractions(min_value=-8, max_value=8, max_denominator=16),
)


def test_bottom_is_additive_identity():
    assert TROPICAL.add(BOTTOM, Fraction(3)) == Fraction(3)
    assert TROPICAL.add(Fraction(-5), BOTTOM) == Fraction(-5)
    assert TROPICAL.add(BOTTOM, BOTTOM) is BOTTOM


def test_bottom_absorbs_under_mul():
    assert TROPICAL.mul(BOTTOM, Fraction(3)) is BOTTOM
    assert TROPICAL.mul(Fraction(3), BOTTOM) is BOTTOM


def test_tropical_add_is_max_and_mul_is_plus():
    assert TROPICAL.add(Fraction(2), Fraction(5)) == Fraction(5)
    assert TROPICAL.mul(Fraction(2), Fraction(5)) == Fraction(7)
    assert TROPICAL.zero is BOTTOM
    assert TROPICAL.one == 0


def test_empty_aggregates():
    assert TROPICAL.sum([]) is BOTTOM
    assert TROPICAL.prod([]) == 0
    assert RATIONAL.sum([]) == 0
    assert RATIONAL.prod([]) == 1


@given(trop_elems, trop_elems, trop_elems)
def test_tropical_semiring_laws(a, b, c):
    add, mul = TROPICAL.add, TROPICAL.mul
    assert add(a, add(b, c)) == add(add(a, b), c)
    assert mul(a, mul(b, c)) == mul(mul(a, b), c)
    assert add(a, b) == add(b, a)
    # distributivity is what makes path-sum dynamic programming legal
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(add(b, c), a) == add(mul(b, a), mul(c, a))


@given(trop_elems)
def test_tropical_identities(a):
    assert TROPICAL.add(a, TROPICAL.zero) == a
    assert TROPICAL.mul(a, TROPICAL.one) == a
    assert TROPICAL.mul(TROPICAL.zero, a) is BOTTOM


def test_as_rational_is_exact_on_floats():
    # 0.1 is not a dyadic rational; conversion must capture the actual
    # double, not the decimal the user typed.
    assert as_rational(0.1) == Fraction(3602879701896397, 36028797018963968)
    assert as_rational(0.5) == Fraction(1, 2)
    assert as_rational(7) == Fraction(7)
    f = Fraction(22, 7)
    assert as_rational(f) == f


def test_as_rational_rejects_nonfinite():
    with pytest.raises((ValueError, OverflowError)):
        as_rational(float("inf"))
    with pytest.raises(ValueError):
        as_rational(float("nan"))


def test_mat_mul_tropical_hand_example():
    a = [[Fraction(1), Fraction(2)], [BOTTOM, Fraction(0)]]
    b = [[Fraction(3), BOTTOM], [Fraction(1), Fraction(4)]]
    # entry (0,0): max(1+3, 2+1) = 4; entry (0,1): max(-, 2+4) = 6
    # entry (1,0): max(-, 0+1) = 1; entry (1,1): max(-, 0+4) = 4
    c = mat_mul(TROPICAL, a, b)
    assert c == [[Fraction(4), Fraction(6)], [Fraction(1), Fraction(4)]]


def test_mat_mul_rational_matches_plain_linear_algebra():
    a = [[Fraction(1, 2), Fraction(3)], [Fraction(0), Fraction(-2)]]
    b = [[Fraction(4), Fraction(1)], [Fraction(1, 3), Fraction(2)]]
    c = mat_mul(RATIONAL, a, b)
    assert c == [[Fraction(3), Fraction(13, 2)], [Fraction(-2, 3), Fraction(-4)]]


def test_mat_identity_left_and_right():
    a = [[Fraction(1), BOTTOM, Fraction(2)],
         [Fraction(0), Fraction(5), BOTTOM],
         [BOTTOM, Fraction(-1), Fraction(3)]]
    e = [[TROPICAL.one if i == j else TROPICAL.zero for j in range(3)]
         for i in range(3)]
    assert mat_mul(TROPICAL, e, a) == a
    assert mat_mul(TROPICAL, a, e) == a
    assert e[0][1] is BOTTOM and e[1][1] == 0


def test_mat_mul_associative_over_tropical():
    a = [[Fraction(1), Fraction(2)], [Fraction(0), BOTTOM]]
    b = [[BOTTOM, Fraction(1)], [Fraction(2), Fraction(0)]]
    c = [[Fraction(3), Fraction(-1)], [Fraction(1), Fraction(1)]]
    lhs = mat_mul(TROPICAL, mat_mul(TROPICAL, a, b), c)
    rhs = mat_mul(TROPICAL, a, mat_mul(TROPICAL, b, c))
    assert lhs == rhs


def test_complex_ring():
    assert COMPLEX.add(1 + 2j, 3) == 4 + 2j
    assert COMPLEX.mul(1j, 1j) == -1


@given(st.lists(st.one_of(st.fractions(), st.integers(),
                          st.floats(allow_nan=False, allow_infinity=False)),
                max_size=8))
def test_over_common_denominator_is_exact_and_least(values):
    ints, den = over_common_denominator(values)
    assert len(ints) == len(values) and den >= 1
    assert all(Fraction(p, den) == v for p, v in zip(ints, values))
    # den is the least common denominator exactly when nothing divides out
    assert math.gcd(den, *ints) == 1


@pytest.mark.parametrize("bad, error", [
    (BOTTOM, ValueError), (math.nan, ValueError),
    (math.inf, OverflowError), (-math.inf, OverflowError),
])
def test_over_common_denominator_refuses_a_non_finite_value(bad, error):
    with pytest.raises(error):
        over_common_denominator([Fraction(1, 3), bad, 2])


@pytest.mark.parametrize("bad", ["1", None, Decimal("0.5"), np.float32(0.5),
                                 np.int64(3)])
def test_over_common_denominator_refuses_other_types(bad):
    # as_rational's refusal: a value that is not a Fraction, int or float
    with pytest.raises(TypeError):
        as_rational(bad)
    with pytest.raises(TypeError):
        over_common_denominator([Fraction(1, 3), bad, 2])


def test_over_common_denominator_takes_float_and_int_subclasses():
    assert over_common_denominator([np.float64(0.75), True, 1.5]) == ([3, 4, 6], 4)
