"""Uniform sampling of interlacing patterns below a fixed top row."""

import numpy as np
import pytest

from hornlab import (
    EmpiricalSample,
    PolytopeSampler,
    Tableau,
    gz_check,
    ks_distance,
    rejection_sample,
)


def _slot_sample(tableaux, k, i):
    vecs = tuple((float(t.value(k, i)),) for t in tableaux)
    return EmpiricalSample("slot", 1, (), (), len(vecs), vecs)


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
