"""The oracles' exact feasibility solver: A x >= b over the rationals."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import feasible_point

F = Fraction


def _satisfies(a, b, x):
    for row, rhs in zip(a, b):
        if sum(F(c) * xi for c, xi in zip(row, x)) < F(rhs):
            return False
    return True


def test_interval():
    # 1 <= x <= 2 written as x >= 1, -x >= -2
    a = [[F(1)], [F(-1)]]
    b = [F(1), F(-2)]
    x = feasible_point(a, b)
    assert x is not None and F(1) <= x[0] <= F(2)


def test_empty_interval():
    a = [[F(1)], [F(-1)]]
    b = [F(2), F(-1)]  # x >= 2 and x <= 1
    assert feasible_point(a, b) is None


def test_equality_as_two_inequalities():
    # x + y = 3, x - y = 1  ->  unique point (2, 1)
    a = [[1, 1], [-1, -1], [1, -1], [-1, 1]]
    b = [3, -3, 1, -1]
    x = feasible_point(a, b)
    assert x == [F(2), F(1)]


def test_no_rows_no_variables():
    assert feasible_point([], []) == []
    # with zero variables the system is vacuous iff every rhs is <= 0
    assert feasible_point([[], []], [F(0), F(-1)]) == []
    assert feasible_point([[]], [F(1)]) is None


def test_negative_rhs_normalization():
    # rows with negative right sides exercise the sign-flip branch
    a = [[F(-1), F(0)], [F(0), F(-1)], [F(1), F(1)]]
    b = [F(-5), F(-5), F(3)]
    x = feasible_point(a, b)
    assert x is not None and _satisfies(a, b, x)


def test_exactness_no_drift():
    # thirds and sevenths stay exact through the pivoting
    a = [[F(1, 3), F(1, 7)], [F(-1, 3), F(-1, 7)]]
    b = [F(22, 21), F(-22, 21)]  # (1/3)x + (1/7)y = 22/21
    x = feasible_point(a, b)
    assert x is not None
    assert F(1, 3) * x[0] + F(1, 7) * x[1] == F(22, 21)


def test_unbounded_direction_is_fine():
    # feasibility only; an unbounded cone still has points
    a = [[F(1), F(-1)]]
    b = [F(10)]
    x = feasible_point(a, b)
    assert x is not None and x[0] - x[1] >= 10


def test_degenerate_duplicate_rows():
    a = [[F(1)], [F(1)], [F(1)]]
    b = [F(2), F(2), F(2)]
    x = feasible_point(a, b)
    assert x is not None and x[0] >= 2


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_feasible_by_construction(seed):
    # plant a point, derive right sides below its row values: the system
    # is then feasible and whatever the solver returns must satisfy it
    rng = np.random.default_rng(seed)
    m, nv = int(rng.integers(1, 7)), int(rng.integers(1, 5))
    a = [[F(int(rng.integers(-6, 7)), int(rng.integers(1, 4)))
          for _ in range(nv)] for _ in range(m)]
    planted = [F(int(rng.integers(-8, 9)), 2) for _ in range(nv)]
    b = [sum(c * x for c, x in zip(row, planted)) - F(int(rng.integers(0, 5)), 3)
         for row in a]
    x = feasible_point(a, b)
    assert x is not None
    assert _satisfies(a, b, x)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_planted_contradiction_is_caught(seed):
    rng = np.random.default_rng(seed)
    nv = int(rng.integers(1, 4))
    c = [F(int(rng.integers(-5, 6))) for _ in range(nv)]
    if all(v == 0 for v in c):
        c[0] = F(1)
    # c.x >= 1 together with -c.x >= 0 is empty
    a = [c, [-v for v in c]]
    b = [F(1), F(0)]
    assert feasible_point(a, b) is None
