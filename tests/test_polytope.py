"""Uniform sampling of interlacing patterns below a fixed top row.

gz_block is the library's exact sampler and gz_pattern a block of one row;
the hit-and-run chain and the box-rejection sampler in oracles.py are the
independent routes both are checked against.
"""

import math

import numpy as np
import pytest

import hornlab.polytope as polytope
from hornlab import (
    EmpiricalSample,
    Tableau,
    gz_check,
    gz_pattern,
    ks_distance,
)
from hornlab.polytope import gz_block, pattern_tableau
from oracles import PolytopeSampler, rejection_sample


def _scalar_draws(r, count, rng):
    return [gz_pattern(r, rng) for _ in range(count)]


def _block_draws(r, count, rng):
    return [pattern_tableau(row) for row in gz_block(r, count, rng)]


# the exact sampler one pattern per call, and as one block: every test of
# the exact sampler below runs both, and in the statistical ones each
# sampler's comparisons form their own family at FAMILY_ALPHA
SAMPLERS = (_scalar_draws, _block_draws)


def _slot_sample(tableaux, k, i):
    vecs = tuple((float(t.value(k, i)),) for t in tableaux)
    return EmpiricalSample("slot", 1, (), (), len(vecs), vecs)


def _slots(n):
    return [(k, i) for k in range(1, n) for i in range(1, k + 1)]


def _all_slots(tableaux):
    """Every entry below the top row, one coordinate per slot."""
    n = tableaux[0].n
    vecs = tuple(tuple(float(t.value(k, i)) for k, i in _slots(n))
                 for t in tableaux)
    return EmpiricalSample("slots", len(vecs[0]), (), (), len(vecs), vecs)


def _ess(x):
    """Effective sample size of a chain by Geyer's initial positive
    sequence (a copy of the benchmark's, kept independent of it)."""
    x = np.asarray(x, dtype=float)
    n = len(x)
    x = x - x.mean()
    var = float(x @ x) / n
    if n < 4 or var == 0.0:
        return float(n)
    acf = np.correlate(x, x, mode="full")[n - 1:] / (var * n)
    tau = 1.0
    for k in range(1, n - 1, 2):
        pair = acf[k] + acf[k + 1]
        if pair <= 0.0:
            break
        tau += 2.0 * pair
    return min(float(n), n / tau)


def _ks_critical(alpha, n_x, n_y):
    """Asymptotic two-sample KS critical value at level alpha."""
    return math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt(1.0 / n_x + 1.0 / n_y)


# -- the exact sampler --------------------------------------------------------

EVEN_TOPS = [(3.0,), (2.0, 0.0), (2.0, 1.0, -1.0), (3.0, 4.0, 3.0, 0.0),
             (4.0, 7.0, 9.0, 10.0, 10.0)]
UNEVEN_TOP = (100.0, 101.0, 101.001, 100.0, 0.0)  # gaps 100, 1, 1e-3, -1.001, -100
FAMILY_ALPHA = 1e-3  # level of each statistical test below, split within it


@pytest.mark.parametrize("r", EVEN_TOPS + [UNEVEN_TOP],
                         ids=["n1", "n2", "n3", "n4", "n5", "n5-uneven"])
def test_gz_pattern_draws_valid_patterns_with_exact_top(r):
    for draw in SAMPLERS:
        for t in draw(r, 200, np.random.default_rng(11)):
            assert isinstance(t, Tableau) and t.n == len(r)
            assert t.top() == r
            assert gz_check(t, 0)


@pytest.mark.parametrize("r", [(2.0, 1.0, 0.0), (0.0, 0.0), (1.0, 1.0, 1.0)])
def test_gz_pattern_precondition_matches_the_chain(r):
    with pytest.raises(ValueError) as chain_err:
        PolytopeSampler(r, np.random.default_rng(0))
    for draw in SAMPLERS:
        with pytest.raises(ValueError) as exact_err:
            draw(r, 1, np.random.default_rng(0))
        assert str(exact_err.value) == str(chain_err.value)


def test_gz_pattern_bounds_its_rejection_loop(monkeypatch):
    monkeypatch.setattr(polytope, "_MAX_PROPOSALS", 0)
    for draw in SAMPLERS:
        with pytest.raises(RuntimeError, match="no interlacing row accepted"):
            draw((2.0, 1.0, -1.0), 1, np.random.default_rng(0))


def test_gz_block_refuses_a_box_wider_than_the_float_range():
    # the spectrum (1.7e308, 0, -1.7e308) is finite, but the width
    # lam_1 - lam_3 is not, so no proposal could be accepted: the call
    # raises before it reads the stream
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(OverflowError, match="box width"):
        gz_block((1.7e308, 1.7e308, 0.0), 4, rng)
    assert rng.bit_generator.state == state


def test_gz_pattern_is_seed_deterministic():
    for draw in SAMPLERS:
        a, b = np.random.default_rng(42), np.random.default_rng(42)
        for r in EVEN_TOPS:
            assert draw(r, 10, a) == draw(r, 10, b)


def test_gz_pattern_interval_law_is_uniform():
    # at size two the pattern polytope is the segment [-1, 1]: one-sample
    # KS of iid draws against the flat CDF, at level FAMILY_ALPHA
    count = 4000

    def cdf(t):
        return np.clip((np.asarray(t) + 1.0) / 2.0, 0.0, 1.0)

    crit = math.sqrt(-0.5 * math.log(FAMILY_ALPHA / 2.0) / count)
    for draw in SAMPLERS:
        x = _slot_sample(draw((1.0, 0.0), count, np.random.default_rng(8)), 1, 1)
        assert ks_distance(x, cdf).statistic < crit, draw.__name__


# one fixed direction per size, for a projection no single slot shows
CHAIN_CASES = [((2.0, 1.0, -1.0), (0.6, -0.48, 0.64)),
               ((3.0, 4.0, 3.0, 0.0), (0.5, -0.5, 0.1, 0.3, -0.4, 0.5))]
COMPARISONS = sum(len(d) + 1 for _, d in CHAIN_CASES)


@pytest.mark.parametrize("r, direction", CHAIN_CASES, ids=["n3", "n4"])
def test_gz_pattern_agrees_with_the_chain(r, direction):
    # the chain's draws are correlated, so each comparison counts it at its
    # effective sample size; alpha is split over every comparison of both
    # sizes (Bonferroni)
    count = 3000
    chain = PolytopeSampler(r, np.random.default_rng(302))
    mc = _all_slots([chain.draw() for _ in range(count)])
    arr = np.asarray(mc.vectors)
    for draw in SAMPLERS:
        exact = _all_slots(draw(r, count, np.random.default_rng(301)))
        for proj in list(range(len(direction))) + [direction]:
            series = arr[:, proj] if isinstance(proj, int) else arr @ np.asarray(proj)
            crit = _ks_critical(FAMILY_ALPHA / COMPARISONS, count, _ess(series))
            d = ks_distance(exact, mc, projection=proj)
            assert d.statistic < crit, (draw.__name__, proj, d.statistic, crit)


def test_gz_pattern_agrees_with_rejection():
    r = (2.0, 1.0, -1.0)
    rj = rejection_sample(r, 2000, np.random.default_rng(402))
    crit = _ks_critical(FAMILY_ALPHA / 3, 2000, 2000)
    for draw in SAMPLERS:
        exact = draw(r, 2000, np.random.default_rng(401))
        for slot in _slots(3):
            d = ks_distance(_slot_sample(exact, *slot), _slot_sample(rj, *slot))
            assert d.statistic < crit, (draw.__name__, slot, d.statistic, crit)


# -- the reference samplers ---------------------------------------------------


def test_top_row_must_have_strictly_decreasing_gaps():
    with pytest.raises(ValueError, match="strictly decreasing"):
        PolytopeSampler((2.0, 1.0, 0.0), np.random.default_rng(0))  # gaps 2,-1,-1
    with pytest.raises(ValueError, match="strictly decreasing"):
        PolytopeSampler((0.0, 0.0), np.random.default_rng(0))


def test_draws_are_valid_patterns_with_pinned_top():
    rng = np.random.default_rng(5)
    s = PolytopeSampler((2.0, 1.0, -1.0), rng, burn_in=200)
    for _ in range(50):
        t = s.draw()
        assert isinstance(t, Tableau)
        assert t.top() == (2.0, 1.0, -1.0)
        assert gz_check(t, 0)


def test_size_one_chain_is_constant():
    s = PolytopeSampler((3.0,), np.random.default_rng(1))
    assert s.draw().rows == ((0.0,), (0.0, 3.0))


def test_chain_is_seed_deterministic():
    a = PolytopeSampler((1.0, 0.0), np.random.default_rng(42), burn_in=50)
    b = PolytopeSampler((1.0, 0.0), np.random.default_rng(42), burn_in=50)
    for _ in range(20):
        assert a.draw() == b.draw()


def test_thinning_default_scales_with_dimension():
    s2 = PolytopeSampler((1.0, 0.0), np.random.default_rng(0))
    s4 = PolytopeSampler((6.0, 10.0, 12.0, 12.0), np.random.default_rng(0))
    assert s2.thinning == 8
    assert s4.thinning == 8 * 6


def test_interval_marginal_is_uniform():
    # for size two the polytope is the segment [-1, 1]: one-sample KS
    # against the flat CDF at 2000 draws stays tiny for a sound sampler
    rng = np.random.default_rng(7)
    s = PolytopeSampler((1.0, 0.0), rng, burn_in=500)
    draws = [s.draw() for _ in range(2000)]
    x = _slot_sample(draws, 1, 1)

    def cdf(t):
        return np.clip((np.asarray(t) + 1.0) / 2.0, 0.0, 1.0)

    assert ks_distance(x, cdf).statistic < 0.04


def test_hit_and_run_agrees_with_rejection():
    # two independent routes to the same uniform law; KS at these sizes
    # sits well under 0.06 unless one of them is biased
    rng1 = np.random.default_rng(100)
    rng2 = np.random.default_rng(200)
    n3 = (2.0, 1.0, -1.0)
    chain = PolytopeSampler(n3, rng1, burn_in=500)
    mc = [chain.draw() for _ in range(1500)]
    rj = rejection_sample(n3, 1500, rng2)
    for slot in ((1, 1), (2, 1), (2, 2)):
        d = ks_distance(_slot_sample(mc, *slot), _slot_sample(rj, *slot))
        assert d.statistic < 0.06, (slot, d.statistic)


def test_rejection_sample_respects_count_and_validity():
    rng = np.random.default_rng(3)
    out = rejection_sample((1.0, 0.0), 40, rng)
    assert len(out) == 40
    assert all(gz_check(t, 0) for t in out)


def test_rejection_sample_raises_when_budget_exhausted():
    rng = np.random.default_rng(3)
    with pytest.raises(RuntimeError):
        rejection_sample((2.0, 1.0, -1.0), 50, rng, max_tries=10)
