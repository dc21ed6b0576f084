"""Linearization of the pattern map on the dominant chamber."""

import warnings
from collections import Counter
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hornlab import (
    BOTTOM,
    GZ,
    TROPICAL,
    ChamberMap,
    TROPICAL_GZ,
    Tableau,
    WbarWeighting,
    compose_weightings,
    find_delta0_chamber,
    genericity_check,
    gz_check,
    gz_margin,
    horn_triple_tropical,
    kappa,
    kt_member,
    lt_inverse,
    m_k,
    random_interior_pattern,
    tropical_gz,
    wbar_from_json,
    wbar_to_json,
)
import hornlab.chamber as chamber
import hornlab.hive as hive
from hornlab.chamber import concat_cached, gamma0_cached, kappa_block
from hornlab.polytope import gz_block, pattern_tableau
from hornlab.paths import _subnets_of
from oracles import PolytopeSampler, enumerate_kpaths

F = Fraction

W2 = WbarWeighting(2, (F(2),), (F(1), F(1)))


def _pattern(top, mids):
    """Strict pattern from a top row of partial sums and middle row tails."""
    n = len(top)
    rows = [(F(0),)]
    for k in range(1, n):
        rows.append(tuple([F(0)] + [F(v) for v in mids[k - 1]]))
    rows.append(tuple([F(0)] + [F(v) for v in top]))
    return Tableau(n=n, rows=tuple(rows), role=TROPICAL_GZ)


# -- reduced weightings -------------------------------------------------------

def test_wbar_validates_lengths():
    with pytest.raises(ValueError):
        WbarWeighting(3, (F(1),), (F(0), F(0), F(0)))  # needs 3 diagonals
    with pytest.raises(ValueError):
        WbarWeighting(2, (F(1),), (F(0),))


def test_wbar_embed_covers_network():
    g = gamma0_cached(3)
    w = WbarWeighting(3, (F(1), F(2), F(3)), (F(4), F(5), F(6)))
    d = w.embed(g)
    assert set(d) == set(g.edges)
    vals = sorted(v for v in d.values() if v != 0)
    assert vals == [F(1), F(2), F(3), F(4), F(5), F(6)]
    # plain horizontals carry nothing
    assert sum(1 for v in d.values() if v == 0) == len(g.edges) - 6


def test_wbar_json_round_trip():
    w = WbarWeighting(3, (F(1, 3), F(-2), F(7, 5)), (F(0), F(-1, 2), F(4)))
    assert wbar_from_json(wbar_to_json(w)) == w


@pytest.mark.parametrize("doc, problem", [
    ([2, ["2"], ["1", "1"]], "must be a JSON object"),
    ({"n": 2}, "key 'diagonals' of type list"),
    ({"n": 2, "diagonals": ["2"]}, "key 'sink_horizontals' of type list"),
    ({"n": "2", "diagonals": ["2"], "sink_horizontals": ["1", "1"]},
     "key 'n' of type int"),
    ({"n": 2, "diagonals": "2", "sink_horizontals": ["1", "1"]},
     "key 'diagonals' of type list"),
    ({"n": 2, "diagonals": [None], "sink_horizontals": ["1", "1"]},
     "not a number"),
    ({"n": 2, "diagonals": ["2"], "sink_horizontals": ["1", "x"]},
     "Invalid literal"),
])
def test_wbar_from_json_names_the_problem(doc, problem):
    with pytest.raises(ValueError, match=problem):
        wbar_from_json(doc)


# -- the chamber itself -------------------------------------------------------

@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_chamber_matrix_inverse_exact(n):
    ch = find_delta0_chamber(n)
    m = len(ch.slots)
    assert m == n * (n + 1) // 2
    prod = [[sum(ch.matrix[i][k] * ch.inverse[k][j] for k in range(m))
             for j in range(m)] for i in range(m)]
    assert prod == [[F(1) if i == j else F(0) for j in range(m)] for i in range(m)]


# the selected system of each slot (k, i), as its incidence row over the
# diagonals (drawing order) and then the sink horizontals (bottom line first)
FROZEN_MATRICES = {
    2: ((0, 1, 0),
        (1, 1, 0),
        (0, 1, 1)),
    3: ((0, 0, 0, 1, 0, 0),
        (0, 1, 0, 1, 0, 0),
        (0, 0, 0, 1, 1, 0),
        (1, 1, 0, 1, 0, 0),
        (0, 1, 1, 1, 1, 0),
        (0, 0, 0, 1, 1, 1)),
}


@pytest.mark.parametrize("n", [2, 3])
def test_chamber_matrix_frozen(n):
    ch = find_delta0_chamber(n)
    assert ch.matrix == tuple(tuple(F(c) for c in row) for row in FROZEN_MATRICES[n])
    # Fraction entries keep the exact inverse in Fractions
    assert all(type(x) is F for row in ch.matrix + ch.inverse for x in row)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_chamber_round_trips_random_interior_patterns(n):
    ch = find_delta0_chamber(n)
    g = gamma0_cached(n)
    rng = np.random.default_rng(17 + n)
    for _ in range(25):
        xi = random_interior_pattern(n, rng)
        w = lt_inverse(xi, ch)
        assert tropical_gz(g, w.embed(g)) == xi


def test_random_interior_pattern_is_strict():
    rng = np.random.default_rng(4)
    for n in (2, 3, 4):
        for _ in range(10):
            xi = random_interior_pattern(n, rng)
            assert xi.role == TROPICAL_GZ
            assert gz_margin(xi) > 0


# -- the inverse map ----------------------------------------------------------

def test_lt_inverse_frozen_n2():
    xi = _pattern((3, 2), [(1,)])
    assert lt_inverse(xi) == W2


def test_lt_inverse_round_trip_both_directions():
    rng = np.random.default_rng(23)
    for n in (1, 2, 3, 4):
        g = gamma0_cached(n)
        for _ in range(10):
            xi = random_interior_pattern(n, rng)
            w = lt_inverse(xi)
            assert tropical_gz(g, w.embed(g)) == xi


def test_lt_inverse_rejects_non_interlacing():
    # middle entry above the top row's first value breaks family B
    bad = _pattern((3, 2), [(4,)])
    assert not gz_check(bad)
    with pytest.raises(ValueError):
        lt_inverse(bad)


def test_lt_inverse_rejects_a_wrong_solve():
    # minors are positively homogeneous, so a doubled inverse solves for a
    # weighting whose pattern is 2 xi, and the round-trip check must see it
    ch = find_delta0_chamber(3)
    doubled = ChamberMap(3, ch.slots, ch.matrix,
                         tuple(tuple(2 * x for x in row) for row in ch.inverse))
    xi = random_interior_pattern(3, np.random.default_rng(5))
    with pytest.raises(RuntimeError):
        lt_inverse(xi, doubled)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_chamber_inverse_is_a_unit_integer_matrix(n):
    inverse = find_delta0_chamber(n).inverse
    assert {x for row in inverse for x in row} <= {-1, 0, 1}


def test_chamber_map_refuses_a_fractional_inverse():
    ch = find_delta0_chamber(2)
    half = tuple(tuple(x / 2 for x in row) for row in ch.inverse)
    assert any(x.denominator == 2 for row in half for x in row)
    with pytest.raises(ValueError, match="integer matrix"):
        ChamberMap(2, ch.slots, ch.matrix, half)


def test_lt_inverse_accepts_floats_exactly():
    # float entries are rationalized before solving, so the round trip
    # reproduces the exact dyadic pattern
    from hornlab import as_rational

    xi = _pattern((as_rational(3.1), 2), [(1,)])
    w = lt_inverse(xi)
    g = gamma0_cached(2)
    assert tropical_gz(g, w.embed(g)) == xi


def test_float_patterns_invert_as_their_exact_values():
    # float entries, alone or mixed with Fractions, are read through their
    # binary expansions: the weighting and kappa are those of the exact
    # pattern, to the last bit
    for n, r, s in ((2, (2.0, 0.0), (1.0, 0.0)),
                    (3, (3.0, 4.0, 3.0), (2.0, 2.5, 1.5))):
        ch = find_delta0_chamber(n)
        pr = PolytopeSampler(r, np.random.default_rng(n))
        ps = PolytopeSampler(s, np.random.default_rng(n + 10))
        for _ in range(20):
            u, v = pr.draw(), ps.draw()
            exact = [Tableau(n, tuple(tuple(F(x) for x in row) for row in t.rows), GZ)
                     for t in (u, v)]
            mixed = Tableau(n, tuple(exact[0].rows[k] if k % 2 else row
                                     for k, row in enumerate(u.rows)), GZ)
            assert lt_inverse(u, ch) == lt_inverse(exact[0], ch) \
                == lt_inverse(mixed, ch)
            assert kappa(u, v, ch) == kappa(*exact, ch)
    bottomed = Tableau(2, ((F(0),), (F(0), BOTTOM), (F(0), F(2), F(2))),
                       TROPICAL_GZ)
    with pytest.raises(ValueError):
        lt_inverse(bottomed)


# -- kappa --------------------------------------------------------------------

def test_kappa_closed_form_rank_two():
    # with u over (2,0) and v over (1,0) the composite's best path either
    # rides u's interlaced level then v's top, or u's top then v's level:
    # kappa_1 = max(u1 + 1, 2 - v1); the second slot is forced to u2 + v2
    ch = find_delta0_chamber(2)
    for u1, v1, want in ((F(0), F(0), F(2)),
                         (F(3, 2), F(1, 2), F(5, 2)),
                         (F(-3, 2), F(-1, 2), F(5, 2)),
                         (F(1), F(-1), F(3))):
        u = _pattern((2, 0), [(u1,)])
        v = _pattern((1, 0), [(v1,)])
        assert kappa(u, v, ch) == (want, F(0))
        assert want == max(u1 + 1, 2 - v1)


@pytest.mark.parametrize("n", [2, 3])
def test_kappa_last_slot_is_additive(n):
    ch = find_delta0_chamber(n)
    rng = np.random.default_rng(31 + n)
    for _ in range(10):
        u = random_interior_pattern(n, rng)
        v = random_interior_pattern(n, rng)
        k = kappa(u, v, ch)
        assert k[-1] == u.top()[-1] + v.top()[-1]


@pytest.mark.parametrize("n", [2, 3])
def test_kappa_triple_lands_in_the_cone(n):
    # the composite spectrum with the factor spectra always passes the
    # exact membership LP: this is the forward inclusion, tropically
    from hornlab import HornTriple

    ch = find_delta0_chamber(n)
    rng = np.random.default_rng(47 + n)
    for _ in range(10):
        u = random_interior_pattern(n, rng)
        v = random_interior_pattern(n, rng)
        k = kappa(u, v, ch)
        assert kt_member(HornTriple(u.top(), v.top(), k))


def test_horn_triple_tropical_matches_kappa_route():
    # the triple map glues its first argument on the left; kappa feeds the
    # second pattern's weighting to the left copy, so the two routes meet
    # with the arguments crossed
    ch = find_delta0_chamber(2)
    rng = np.random.default_rng(8)
    for _ in range(10):
        u = random_interior_pattern(2, rng)
        v = random_interior_pattern(2, rng)
        wu, wv = lt_inverse(u, ch), lt_inverse(v, ch)
        t = horn_triple_tropical(wu, wv)
        assert t.a == u.top() and t.b == v.top()
        assert t.c == kappa(v, u, ch)
        assert kt_member(t)


def test_zero_weighting_is_tropically_neutral():
    # gluing a zero-weighted copy on the right adds 0 along through-lines
    # and can never beat them, so the composite spectrum equals the factor's
    xi = _pattern((3, 2), [(1,)])
    w1 = lt_inverse(xi)
    w0 = WbarWeighting(2, (F(0),), (F(0), F(0)))
    t = horn_triple_tropical(w1, w0)
    assert t.c == t.a == (F(3), F(2))
    z = horn_triple_tropical(w0, w0)
    assert z.a == z.b == z.c == (F(0), F(0))


# -- kappa on blocks of float patterns ----------------------------------------

BLOCK_TOPS = {1: ((3.0,), (1.0,)),
              2: ((2.0, 0.0), (1.0, 0.0)),
              3: ((3.0, 4.0, 3.0), (2.0, 2.5, 1.5)),
              4: ((3.0, 4.0, 3.0, 0.0), (2.0, 3.0, 3.0, 2.0)),
              5: ((4.0, 7.0, 9.0, 10.0, 10.0), (1.5, 2.5, 3.0, 3.0, 2.0))}


def _blocks(n, size=48):
    r, s = BLOCK_TOPS[n]
    rng = np.random.default_rng(500 + n)
    return gz_block(r, size, rng), gz_block(s, size, rng)


def _exact_kappa(us, vs, ch):
    """float(kappa(u, v)) for each row pair, through the Fraction route."""
    return np.array([[float(x) for x in kappa(pattern_tableau(u),
                                              pattern_tableau(v), ch)]
                     for u, v in zip(us, vs)])


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kappa_block_is_within_its_bound_of_kappa(n):
    ch = find_delta0_chamber(n)
    us, vs = _blocks(n)
    values, bounds = kappa_block(us, vs, ch)
    assert (bounds > 0).all()  # interior draws all pass the certificate
    assert (np.abs(values - _exact_kappa(us, vs, ch)) <= bounds[:, None]).all()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_kappa_block_without_certificate_is_kappa_bit_for_bit(n, monkeypatch):
    # the shared filter certifies no pair when its limit is 0, nor, from
    # n = 2 on (a rank-1 pattern has no check), when its constant is so
    # large that no check clears its bound; a route built under either
    # sends every pair to kappa
    ch = find_delta0_chamber(n)
    us, vs = _blocks(n)
    exact = _exact_kappa(us, vs, ch).tolist()
    knobs = [("_FILTER_MAX", 0)] + [("_FILTER_C", 2 ** 60)] * (n > 1)
    for name, value in knobs:
        with monkeypatch.context() as patch:
            patch.setattr(hive, name, value)
            fresh = ChamberMap(n, ch.slots, ch.matrix, ch.inverse)
            values, bounds = kappa_block(us, vs, fresh)
        assert (bounds == 0).all()
        assert values.tolist() == exact


@pytest.mark.parametrize("n", [3, 4, 5])
def test_kappa_block_slices_do_not_change_a_pair(n, monkeypatch):
    # 600 pairs take three slices, the last one partial: the values and
    # bounds are those of one unsliced product, bit for bit, and each
    # pair's bound and certificate are those of its block of one; a block
    # of one multiplies through BLAS's matrix-vector kernel, which may
    # round differently, so its values agree within the bounds
    ch = find_delta0_chamber(n)
    us, vs = _blocks(n, size=600)
    values, bounds = kappa_block(us, vs, ch)
    with monkeypatch.context() as patch:
        patch.setattr(chamber, "_ROWS", 600)
        whole = kappa_block(us, vs, ch)
    assert values.tolist() == whole[0].tolist()
    assert bounds.tolist() == whole[1].tolist()
    ones = [kappa_block(us[j:j + 1], vs[j:j + 1], ch) for j in range(600)]
    assert bounds.tolist() == [b for _, one in ones for b in one.tolist()]
    assert (bounds > 0).all()
    single = np.concatenate([v for v, _ in ones])
    assert (np.abs(values - single) <= 2 * bounds[:, None]).all()


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("scale", [2.0 ** -1000, 1e300, 2.0 ** 1020],
                         ids=["tiny", "huge", "edge"])
def test_kappa_block_holds_its_bound_across_the_float_range(n, scale):
    # near 2^-1000 the folded bounds are subnormal; near 1e300 the pairs
    # sit on either side of the filter's limit (below it at n = 2, above
    # at n = 3); at 2^1020 the products overflow, and the scale guard
    # sends every pair to kappa
    ch = find_delta0_chamber(n)
    r, s = BLOCK_TOPS[n]
    rng = np.random.default_rng(600 + n)
    us = gz_block([x * scale for x in r], 48, rng)
    vs = gz_block([x * scale for x in s], 48, rng)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        values, bounds = kappa_block(us, vs, ch)
    exact = _exact_kappa(us, vs, ch)
    assert np.isfinite(values).all()
    assert (np.abs(values - exact) <= bounds[:, None]).all()
    if scale < 1:
        assert (bounds > 0).all() and (bounds < 2.0 ** -1022).all()
    if scale > 2.0 ** 1000:
        assert (bounds == 0).all()


def test_kappa_block_sends_boundary_patterns_to_kappa():
    # a middle entry on its interlacing bound has slack 0, which no float
    # certificate can clear: the pair takes the exact route
    ch = find_delta0_chamber(2)
    us, vs = _blocks(2, size=4)
    us[0, 0], vs[1, 0] = 2.0, -1.0
    values, bounds = kappa_block(us, vs, ch)
    assert bounds[0] == bounds[1] == 0.0 and (bounds[2:] > 0).all()
    assert values[:2].tolist() == _exact_kappa(us[:2], vs[:2], ch).tolist()


@pytest.mark.parametrize("entry, error", [(3.0, ValueError),
                                          (float("inf"), OverflowError),
                                          (float("nan"), ValueError)],
                         ids=["outside", "inf", "nan"])
def test_kappa_block_raises_what_kappa_raises(entry, error):
    ch = find_delta0_chamber(2)
    us, vs = _blocks(2, size=4)
    us[2, 0] = entry
    with pytest.raises(error) as exact:
        kappa(pattern_tableau(us[2]), pattern_tableau(vs[2]), ch)
    with pytest.raises(error) as block:
        kappa_block(us, vs, ch)
    assert str(block.value) == str(exact.value)


def test_kappa_block_sends_lopsided_pairs_to_kappa():
    # at r near 1e300 and s of order 1, the small factor's margins sit
    # inside the pair's error bound, so every pair is exact
    ch = find_delta0_chamber(2)
    rng = np.random.default_rng(9)
    us, vs = gz_block((1e300, 0.0), 8, rng), gz_block((1.0, 0.0), 8, rng)
    values, bounds = kappa_block(us, vs, ch)
    assert (bounds == 0).all()
    assert values.tolist() == [[1e300, 0.0]] * 8


def test_kappa_image_interval_rank_two():
    # over all interior pairs the first slot fills [1, 3] = [r-s, r+s] and
    # never leaves it: max(u1+1, 2-v1) with u1 in (-2,2), v1 in (-1,1)
    ch = find_delta0_chamber(2)
    rng = np.random.default_rng(12)
    lo = hi = None
    for _ in range(200):
        u1 = F(int(rng.integers(-2047, 2048)), 1024)  # dyadic in (-2, 2)
        v1 = F(int(rng.integers(-1023, 1024)), 1024)  # dyadic in (-1, 1)
        k1 = kappa(_pattern((2, 0), [(u1,)]), _pattern((1, 0), [(v1,)]), ch)[0]
        assert F(1) <= k1 <= F(3)
        lo = k1 if lo is None else min(lo, k1)
        hi = k1 if hi is None else max(hi, k1)
    assert lo < F(5, 4) and hi > F(11, 4)  # fills out toward both ends


# -- the profile route against the sweep ------------------------------------

def _weightings(n):
    size = n * (n + 1) // 2
    coords = st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=16),
                      min_size=size, max_size=size)
    return st.tuples(st.just(n), coords, coords, st.integers(0, 2 ** 32 - 1))


def _wbar(n, coords):
    d = n * (n - 1) // 2
    return WbarWeighting(n, tuple(coords[:d]), tuple(coords[d:]))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(_weightings))
def test_profile_route_matches_the_sweep(case):
    # horn_triple_tropical, genericity_check, lt_inverse and kappa read
    # minors off the path system profiles; m_k and tropical_gz on the
    # embedded or composed weighting are the independent dynamic program
    n, c1, c2, seed = case
    w1, w2 = _wbar(n, c1), _wbar(n, c2)
    g, gc = gamma0_cached(n), concat_cached(n)
    e1, e2 = w1.embed(g), w2.embed(g)
    ks = range(1, n + 1)

    t = horn_triple_tropical(w1, w2)
    assert t.a == tuple(m_k(g, e1, k, TROPICAL) for k in ks)
    assert t.b == tuple(m_k(g, e2, k, TROPICAL) for k in ks)
    ec = compose_weightings(gc, e1, e2)
    assert t.c == tuple(m_k(gc, ec, k, TROPICAL) for k in ks)
    margins = [m for m in (gz_margin(tropical_gz(g, e1)), gz_margin(tropical_gz(g, e2)),
                           gz_margin(tropical_gz(gc, ec))) if m is not None]
    assert genericity_check(w1, 0, w2).min_margin == (min(margins) if margins else None)

    # the chamber's closure covers the cone, so even boundary patterns of
    # arbitrary weightings invert, and the sweep confirms the solve
    ch = find_delta0_chamber(n)
    xi = tropical_gz(g, e1)
    assert tropical_gz(g, lt_inverse(xi, ch).embed(g)) == xi

    rng = np.random.default_rng(seed)
    u, v = random_interior_pattern(n, rng), random_interior_pattern(n, rng)
    wu, wv = lt_inverse(u, ch), lt_inverse(v, ch)
    assert tropical_gz(g, wu.embed(g)) == u
    ev = compose_weightings(gc, wv.embed(g), wu.embed(g))
    assert kappa(u, v, ch) == tuple(m_k(gc, ev, k, TROPICAL) for k in ks)


def _enumerated_profiles(g, support):
    """P by depth-first enumeration: each slot's distinct vectors of edge
    counts over support, sorted, from every system of every label pair."""
    subs = _subnets_of(g)
    table = {}
    for k in range(1, g.rank + 1):
        for i in range(1, k + 1):
            labels = list(combinations(range(1, k + 1), i))
            seen = set()
            for rows in labels:
                for cols in labels:
                    for mp in enumerate_kpaths(subs[k], rows, cols):
                        counts = Counter(mp.edges())
                        seen.add(tuple(counts[e] for e in support))
            table[(k, i)] = tuple(sorted(seen))
    return table


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_profiles_match_the_enumerated_systems(n):
    # P comes from the same sweep as tropical_gz, so the chamber's own
    # check cannot catch a wrong P; the depth-first enumeration can
    g, gc = gamma0_cached(n), concat_cached(n)
    support = chamber._wbar_support(g)
    assert chamber._profiles(n) == _enumerated_profiles(g, support)
    composite = tuple([gc.left_map[e] for e in support]
                      + [gc.right_map[e] for e in support])
    assert chamber._profiles(n, True) == _enumerated_profiles(gc, composite)


# -- genericity ---------------------------------------------------------------

def test_genericity_frozen_example():
    # d=5 over sinks (0,1): single-path values on the full network are
    # {1, 5, 0}, so consecutive distinct-value gaps bottom out at 1; the
    # pattern ((0),(0,0),(0,5,1)) has interlacing slacks {5, 4}
    w = WbarWeighting(2, (F(5),), (F(0), F(1)))
    r = genericity_check(w, 0)
    assert r.generic and r.min_separation == F(1) and r.min_margin == F(4)
    assert genericity_check(w, F(1)).generic is False  # separation not > 1


def test_genericity_tie_shows_up_as_zero_margin():
    # d + sink1 == sink2 makes two best systems tie; equal values collapse
    # in the separation scan but the pattern lands on the cone boundary
    w = WbarWeighting(2, (F(1),), (F(0), F(1)))
    r = genericity_check(w, 0)
    assert r.min_margin == F(0)
    assert not r.generic


def test_genericity_pair_rejects_mixed_ranks():
    w3 = WbarWeighting(3, (F(1), F(2), F(3)), (F(0), F(1), F(2)))
    with pytest.raises(ValueError):
        genericity_check(W2, 0, w3)


def test_genericity_pair_examines_the_composite():
    w1 = WbarWeighting(2, (F(5),), (F(0), F(1)))
    solo = genericity_check(w1, 0)
    paired = genericity_check(w1, 0, w1)
    # the composite network can only add conflicts, never remove them
    assert paired.min_separation <= solo.min_separation
    assert paired.min_margin <= solo.min_margin
