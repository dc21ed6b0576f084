"""Path enumeration against the transfer-matrix route, exactly."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornlab import (
    BOTTOM,
    RATIONAL,
    TROPICAL,
    WbarWeighting,
    build_gamma0,
    compose_weightings,
    concatenate,
    correspondence_matrix,
    m_k,
    mat_mul,
    minor,
    tropical_gz,
    tropical_singular_values,
)
from oracles import (enumerate_kpaths, enumerate_paths, minor_enum,
                     multipath_weight, path_weight)

# reference weighting used throughout: one diagonal of weight 2, sink edges
# at heights 1 and 2 both weight 1, every other edge weight 0
W2 = WbarWeighting(2, (Fraction(2),), (Fraction(1), Fraction(1)))


def _det(m):
    """Fraction determinant by expansion; fine for the sizes tested here."""
    k = len(m)
    if k == 0:
        return Fraction(1)
    if k == 1:
        return Fraction(m[0][0])
    out = Fraction(0)
    for j in range(k):
        sub = [row[:j] + row[j + 1:] for row in m[1:]]
        term = Fraction(m[0][j]) * _det(sub)
        out += term if j % 2 == 0 else -term
    return out


def _random_weighting(g, rng, denom=64):
    return {e: Fraction(int(rng.integers(-denom, denom)), denom) for e in g.edges}


def test_path_counts_gamma0():
    g2 = build_gamma0(2)
    assert [[len(enumerate_paths(g2, i, j)) for j in (1, 2)] for i in (1, 2)] \
        == [[1, 1], [0, 1]]
    g3 = build_gamma0(3)
    assert [[len(enumerate_paths(g3, i, j)) for j in (1, 2, 3)] for i in (1, 2, 3)] \
        == [[1, 2, 1], [0, 1, 1], [0, 0, 1]]


def test_paths_are_connected_edge_chains():
    g = build_gamma0(3)
    for p in enumerate_paths(g, 1, 2):
        assert p[0].tail == g.source_of_label(1)
        assert p[-1].head == g.sink_of_label(2)
        for a, b in zip(p, p[1:]):
            assert a.head == b.tail


def test_kpath_systems_are_vertex_disjoint():
    g = build_gamma0(3)
    systems = enumerate_kpaths(g, (1, 2), (2, 3))
    assert len(systems) == 1
    for mp in systems:
        assert mp.k == 2
        seen = set()
        for p in mp.paths:
            nodes = {p[0].tail} | {e.head for e in p}
            assert not (nodes & seen)
            seen |= nodes


def test_full_system_is_unique():
    # with all sources and all sinks engaged the staircase admits exactly
    # one disjoint routing, which pins the determinant of the full matrix
    for n in (2, 3, 4):
        g = build_gamma0(n)
        labels = tuple(range(1, n + 1))
        assert len(enumerate_kpaths(g, labels, labels)) == 1


def test_path_and_multipath_weights():
    g = build_gamma0(2)
    w = W2.embed(g)
    (p,) = enumerate_paths(g, 1, 2)
    assert path_weight(w, p, TROPICAL) == Fraction(3)  # 2 + 1, zeros elsewhere
    (mp,) = enumerate_kpaths(g, (1, 2), (1, 2))
    assert multipath_weight(w, mp, TROPICAL) == Fraction(2)  # both sink edges


def test_correspondence_matrix_frozen_n2():
    g = build_gamma0(2)
    m = correspondence_matrix(g, W2.embed(g), TROPICAL)
    assert m == [[Fraction(1), Fraction(3)], [BOTTOM, Fraction(1)]]


@pytest.mark.parametrize("ring", [RATIONAL, TROPICAL])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_correspondence_matrix_sums_the_enumerated_paths(n, ring):
    # the sweep against depth-first enumeration of single paths, on the
    # reference network and on its concatenation with itself
    g = build_gamma0(n)
    rng = np.random.default_rng(60 + n)
    for net in (g, concatenate(g, g)):
        for _ in range(5):
            w = _random_weighting(net, rng)
            expect = [[ring.sum(path_weight(w, p, ring)
                                for p in enumerate_paths(net, i, j))
                       for j in range(1, n + 1)] for i in range(1, n + 1)]
            assert correspondence_matrix(net, w, ring) == expect


@pytest.mark.parametrize("rows, cols, problem", [
    ((0,), (1,), "label out of range"),
    ((1, 1), (1, 2), "labels must be distinct"),
    ((1,), (4,), "label out of range"),
])
def test_minor_rejects_bad_labels(rows, cols, problem):
    g = build_gamma0(3)
    w = {e: Fraction(1) for e in g.edges}
    with pytest.raises(ValueError, match=problem):
        minor(g, w, rows, cols, RATIONAL)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_correspondence_matrix_is_upper_triangular(n):
    g = build_gamma0(n)
    rng = np.random.default_rng(20 + n)
    mt = correspondence_matrix(g, _random_weighting(g, rng), TROPICAL)
    for i in range(n):
        for j in range(i):
            assert mt[i][j] is BOTTOM
        assert mt[i][i] is not BOTTOM


@pytest.mark.parametrize("n", [2, 3])
def test_minor_three_routes_agree_rational(n):
    # enumeration, the layered transfer recurrence, and a textbook
    # determinant of the path matrix must coincide entry for entry
    g = build_gamma0(n)
    rng = np.random.default_rng(7 * n)
    for _ in range(20):
        w = {e: Fraction(int(rng.integers(1, 64)), 16) for e in g.edges}
        mat = correspondence_matrix(g, w, RATIONAL)
        for k in range(1, n + 1):
            for rows in itertools.combinations(range(1, n + 1), k):
                for cols in itertools.combinations(range(1, n + 1), k):
                    a = minor(g, w, rows, cols, RATIONAL)
                    b = minor_enum(g, w, rows, cols, RATIONAL)
                    c = _det([[mat[i - 1][j - 1] for j in cols] for i in rows])
                    assert a == b == c


@pytest.mark.parametrize("n", [2, 3])
def test_minor_dual_route_tropical(n):
    g = build_gamma0(n)
    rng = np.random.default_rng(40 + n)
    for _ in range(20):
        w = _random_weighting(g, rng)
        for k in range(1, n + 1):
            for rows in itertools.combinations(range(1, n + 1), k):
                for cols in itertools.combinations(range(1, n + 1), k):
                    assert minor(g, w, rows, cols, TROPICAL) \
                        == minor_enum(g, w, rows, cols, TROPICAL)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=8),
                min_size=5, max_size=5))
def test_minor_dual_route_tropical_hypothesis(vals):
    g = build_gamma0(2)
    w = dict(zip(g.edges, vals))
    for rows, cols in (((1,), (1,)), ((1,), (2,)), ((2,), (1,)), ((2,), (2,)),
                       ((1, 2), (1, 2))):
        assert minor(g, w, rows, cols, TROPICAL) \
            == minor_enum(g, w, rows, cols, TROPICAL)


def test_m_k_maximizes_over_all_index_sets():
    # tropical m_k aggregates every k x k minor; with max as the addition
    # this is the best k-system over unrestricted boundary labels
    g = build_gamma0(3)
    rng = np.random.default_rng(5)
    w = _random_weighting(g, rng)
    for k in (1, 2, 3):
        best = BOTTOM
        for rows in itertools.combinations(range(1, 4), k):
            for cols in itertools.combinations(range(1, 4), k):
                best = TROPICAL.add(best, minor(g, w, rows, cols, TROPICAL))
        assert m_k(g, w, k, TROPICAL) == best
    # frozen: on W2 the best single path is the one through the diagonal
    g2 = build_gamma0(2)
    assert m_k(g2, W2.embed(g2), 1, TROPICAL) == Fraction(3)
    assert m_k(g2, W2.embed(g2), 2, TROPICAL) == Fraction(2)


def test_tropical_gz_frozen_n2():
    g = build_gamma0(2)
    t = tropical_gz(g, W2.embed(g))
    assert t.rows == ((Fraction(0),),
                      (Fraction(0), Fraction(1)),
                      (Fraction(0), Fraction(3), Fraction(2)))
    assert t.role == "tropical-gz"


def test_tropical_singular_values_frozen_and_decreasing():
    g = build_gamma0(2)
    assert tropical_singular_values(g, W2.embed(g)) == (Fraction(3), Fraction(-1))
    rng = np.random.default_rng(99)
    for n in (2, 3, 4):
        gn = build_gamma0(n)
        for _ in range(25):
            sv = tropical_singular_values(gn, _random_weighting(gn, rng))
            assert all(a >= b for a, b in zip(sv, sv[1:]))


@pytest.mark.parametrize("ring", [RATIONAL, TROPICAL])
def test_concatenation_is_matrix_multiplication(ring):
    # path matrix of the glued network == product of the factors' matrices,
    # in that order; the reversed product differs, which guards orientation
    g = build_gamma0(2)
    gc = concatenate(g, g)
    rng = np.random.default_rng(3)
    for _ in range(10):
        w1 = _random_weighting(g, rng)
        w2 = _random_weighting(g, rng)
        a = correspondence_matrix(g, w1, ring)
        b = correspondence_matrix(g, w2, ring)
        c = correspondence_matrix(gc, compose_weightings(gc, w1, w2), ring)
        assert c == mat_mul(ring, a, b)


def test_complex_lift_entry_moduli():
    import math

    from hornlab import complex_lift

    g = build_gamma0(2)
    u = W2.embed(g)
    tau = 3.0
    m = complex_lift(g, u, None, tau)
    # every entry of the n=2 matrix is a single path, so its modulus is
    # exactly the exponentiated tropical value
    assert math.isclose(abs(m[0][0]), math.exp(tau * 1.0), rel_tol=1e-12)
    assert math.isclose(abs(m[0][1]), math.exp(tau * 3.0), rel_tol=1e-12)
    assert math.isclose(abs(m[1][1]), math.exp(tau * 1.0), rel_tol=1e-12)
    assert m[1][0] == 0
    # unit phases shuffle arguments but never moduli of single-path entries
    rng = np.random.default_rng(1)
    phases = {e: complex(np.cos(a), np.sin(a))
              for e, a in zip(g.edges, rng.uniform(0, 2 * np.pi, len(g.edges)))}
    mp = complex_lift(g, u, phases, tau)
    for i in range(2):
        for j in range(2):
            assert math.isclose(abs(mp[i][j]), abs(m[i][j]),
                                rel_tol=1e-12, abs_tol=0.0)


def test_concatenation_order_matters():
    g = build_gamma0(2)
    gc = concatenate(g, g)
    w1 = {e: Fraction(i + 1, 3) for i, e in enumerate(g.edges)}
    w2 = {e: Fraction(2 * i + 1, 5) for i, e in enumerate(g.edges)}
    a = correspondence_matrix(g, w1, RATIONAL)
    b = correspondence_matrix(g, w2, RATIONAL)
    c = correspondence_matrix(gc, compose_weightings(gc, w1, w2), RATIONAL)
    assert c == mat_mul(RATIONAL, a, b)
    assert c != mat_mul(RATIONAL, b, a)
