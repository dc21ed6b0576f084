"""Pushforward generators, KS machinery, and the scaling-limit sweep."""

import math
from fractions import Fraction

import numpy as np
import pytest

import hornlab.measure as measure
from hornlab import (
    EmpiricalSample,
    HornTriple,
    WbarWeighting,
    exceptional_mass_estimate,
    horn_forward_test,
    kt_member,
    ks_distance,
    limit_sweep,
    projection_set,
    sample_hermitian_sum,
    sample_multiplicative,
    sample_tropical_kappa,
    spectrum_of,
)
from hornlab.linalg import haar_unitaries
from hornlab.polytope import gz_block
from hornlab.semiring import COMPLEX, mat_mul
import oracles
from oracles import hermitian_with_spectrum, lp_verdict

F = Fraction

R2, S2 = (2.0, 0.0), (1.0, 0.0)

# the reference size-two instance used for sweeps: diagonal 19/10 over
# sinks (-1/5, 3/10); separation 1/2, interlacing margin 7/5
SWEEP_W = WbarWeighting(2, (F(19, 10),), (F(-1, 5), F(3, 10)))


def _vec(vals):
    vecs = tuple((float(v),) for v in vals)
    return EmpiricalSample("inline", 1, (), (), len(vecs), vecs)


# -- ks machinery -------------------------------------------------------------

def test_ks_identical_and_disjoint():
    x = _vec([1.0, 2.0, 3.0])
    assert ks_distance(x, _vec([1.0, 2.0, 3.0])).statistic == 0.0
    assert ks_distance(x, _vec([10.0, 11.0, 12.0])).statistic == 1.0


def test_ks_hand_value():
    # pooled grid {0, .5, 1, 1.5}: empirical gaps peak at 1/2
    d = ks_distance(_vec([0.0, 1.0]), _vec([0.5, 1.5]))
    assert d.statistic == pytest.approx(0.5)
    assert d.n_x == 2 and d.n_y == 2


def test_ks_one_sample_uniform():
    rng = np.random.default_rng(13)
    x = _vec(rng.random(100_000))

    def cdf(t):
        return np.clip(np.asarray(t), 0.0, 1.0)

    assert ks_distance(x, cdf).statistic < 0.005
    # and a wrong law is flagged
    assert ks_distance(x, lambda t: np.clip(np.asarray(t) ** 3, 0, 1)).statistic > 0.2


def test_ks_projections():
    vecs = tuple((float(i), float(-i)) for i in range(100))
    s = EmpiricalSample("inline", 2, (), (), 100, vecs)
    d0 = ks_distance(s, s, projection=0)
    assert d0.statistic == 0.0
    dp = ks_distance(s, s, projection=(0.6, 0.8))
    assert dp.statistic == 0.0
    with pytest.raises(ValueError):
        ks_distance(s, s)  # multivariate needs an explicit projection


def _integer_sample(rng, count, n=1):
    """count draws of n coordinates, each an integer in 0..4: every value
    a long run of ties."""
    vecs = tuple(tuple(float(v) for v in row)
                 for row in rng.integers(0, 5, (count, n)))
    return EmpiricalSample("inline", n, (), (), count, vecs)


@pytest.mark.parametrize("nx, ny", [(50, 70), (70, 50), (1, 9), (9, 1),
                                    (1, 1), (400, 300)])
def test_ks_is_the_searchsorted_route_on_ties(nx, ny):
    rng = np.random.default_rng(100 * nx + ny)
    for _ in range(20):
        x, y = _integer_sample(rng, nx), _integer_sample(rng, ny)
        assert ks_distance(x, y, 0).statistic == _tuple_ks(x, y, 0)


def test_ks_of_identical_constant_samples_is_zero():
    for nx, ny in ((1, 1), (5, 7), (70, 50)):
        x, y = _vec([2.5] * nx), _vec([2.5] * ny)
        assert ks_distance(x, y).statistic == _tuple_ks(x, y, 0) == 0.0
    # -0.0 and 0.0 are one value to both routes
    x, y = _vec([-0.0, 0.0, 1.0]), _vec([0.0, -0.0])
    assert ks_distance(x, y).statistic == _tuple_ks(x, y, 0)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ks_is_the_searchsorted_route_on_every_projection(seed):
    rng = np.random.default_rng(seed)
    x, y = _integer_sample(rng, 60, 3), _integer_sample(rng, 80, 3)
    for proj in projection_set(3, seed):
        assert ks_distance(x, y, proj).statistic == _tuple_ks(x, y, proj)
        assert ks_distance(y, x, proj).statistic == _tuple_ks(y, x, proj)


def test_projection_set_layout():
    ps = projection_set(3, seed=5)
    assert ps[:3] == [0, 1, 2]
    assert len(ps) == 6
    for v in ps[3:]:
        assert len(v) == 3
        assert sum(x * x for x in v) == pytest.approx(1.0, abs=1e-12)
    assert projection_set(3, seed=5) == ps


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_ks_refuses_non_finite_sample_values(bad):
    # a NaN used to sort last and give a statistic of 1/3 here
    with pytest.raises(ValueError, match="finite"):
        ks_distance(_vec([0.0, bad, 2.0]), _vec([0.0, 1.0, 2.0]))


def test_ks_refuses_samples_of_different_n():
    # ks_distance used to compare these on coordinate 0
    x = EmpiricalSample("inline", 2, (), (), 2, ((0.0, 1.0), (1.0, 2.0)))
    y = EmpiricalSample("inline", 3, (), (), 2, ((0.0, 1.0, 2.0),) * 2)
    with pytest.raises(ValueError, match="different n"):
        ks_distance(x, y, projection=0)


@pytest.mark.parametrize("projection", [-1, 2, np.int64(2), True, False])
def test_ks_refuses_a_coordinate_outside_the_sample(projection):
    # -1 used to read the last slot, and a bool the slot of its int value
    s = EmpiricalSample("inline", 2, (), (), 2, ((0.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError, match="coordinate"):
        ks_distance(s, s, projection=projection)
    with pytest.raises(ValueError, match="coordinate"):
        ks_distance(s, lambda t: np.clip(t, 0.0, 1.0), projection=projection)


@pytest.mark.parametrize("index", [np.int64(1), np.uint8(1), np.array(1)],
                         ids=["int64", "uint8", "0-d"])
def test_ks_reads_any_integer_as_a_coordinate(index):
    # a numpy integer used to be refused as a direction not of length 3
    x = sample_hermitian_sum(R3, S3, 50, np.random.default_rng(1))
    y = sample_hermitian_sum(R3, S3, 60, np.random.default_rng(2))
    assert ks_distance(x, y, index).statistic == \
        ks_distance(x, y, 1).statistic
    with pytest.raises(ValueError):  # numpy's bool is no coordinate either
        ks_distance(x, y, np.True_)


@pytest.mark.parametrize("direction", [(1.0,), (0.6, 0.8, 0.0),
                                       ((0.6,), (0.8,)), (math.nan, 1.0)])
def test_ks_refuses_a_direction_not_of_length_n(direction):
    s = EmpiricalSample("inline", 2, (), (), 2, ((0.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError, match="direction must be 2 finite"):
        ks_distance(s, s, projection=direction)


@pytest.mark.parametrize("cdf", [
    lambda t: np.full_like(t, np.nan),
    lambda t: 0.5,
    lambda t: np.full_like(t, 2.0),
], ids=["nan", "scalar", "above-one"])
def test_ks_refuses_a_cdf_without_one_value_in_0_1_per_point(cdf):
    # these used to give the statistics nan, 0.5 and 2.0
    s = sample_hermitian_sum((2.0, 0.0), (1.0, 0.0), 200,
                             np.random.default_rng(3))
    with pytest.raises(ValueError, match="CDF"):
        ks_distance(s, cdf, projection=0)


def test_sample_refuses_an_array_not_of_shape_count_by_n():
    with pytest.raises(ValueError, match="needs shape"):
        EmpiricalSample("inline", 2, (), (), 3, ((0.0, 1.0), (1.0, 2.0)))
    with pytest.raises(ValueError, match="needs shape"):
        EmpiricalSample("inline", 2, (), (), 2, ((0.0, 1.0), (1.0, 2.0)),
                        np.zeros((2, 3)))


def test_sample_refuses_to_be_built_without_draws():
    with pytest.raises(ValueError, match="sample needs vectors or array"):
        EmpiricalSample("x", 2, (), (), 3)


def test_sample_refuses_vectors_and_an_array_that_disagree():
    # this pair used to compare equal to the sample built from the vectors
    # alone, at KS distance 1.0 from it
    with pytest.raises(ValueError, match="disagree"):
        EmpiricalSample("inline", 1, (), (), 2, ((1.0,), (2.0,)),
                        np.array([[5.0], [6.0]]))


def test_sample_of_an_array_alone_derives_its_vectors():
    a = np.array([[0.0, 1.0], [1.0, 2.0]])
    s = EmpiricalSample("inline", 2, (), (), 2, array=a)
    assert s.vectors == ((0.0, 1.0), (1.0, 2.0))
    assert all(type(x) is float for v in s.vectors for x in v)
    assert s == EmpiricalSample("inline", 2, (), (), 2, s.vectors)


def test_sample_copies_the_array_handed_in():
    # the sample used to keep the caller's array and make it read-only
    a = np.array([[0.0, 1.0], [1.0, 2.0]])
    s = EmpiricalSample("inline", 2, (), (), 2, ((0.0, 1.0), (1.0, 2.0)), a)
    assert s.array is not a and a.flags.writeable
    assert not s.array.flags.writeable
    a[0, 0] = 5.0
    assert s.array.tolist() == [[0.0, 1.0], [1.0, 2.0]]


R3, S3 = (3.0, 4.0, 3.0), (2.0, 2.5, 1.5)


def _tuple_project(sample, projection):
    """ks_distance's projection as it was before samples carried arrays:
    the tuple field converted on every call."""
    arr = np.asarray(sample.vectors, dtype=float)
    if isinstance(projection, int):
        return arr[:, projection]
    return arr @ np.asarray(projection, dtype=float)


def _tuple_ks(x, y, projection):
    xa = np.sort(_tuple_project(x, projection))
    nx = len(xa)
    if callable(y):
        f = np.asarray(y(xa), dtype=float)
        grid = np.arange(1, nx + 1) / nx
        return float(max(np.max(grid - f), np.max(f - (grid - 1.0 / nx))))
    return oracles.ks_two_sample(xa, np.sort(_tuple_project(y, projection)))


def _mc_agree_round(count, seed):
    """The three generators at the benchmark's n = 3 spectra, one rng each."""
    return [gen(R3, S3, count, np.random.default_rng([seed, j]))
            for j, gen in enumerate(GENS)]


def _rebuilt(s):
    return EmpiricalSample(s.generator, s.n, s.r, s.s, s.count, s.vectors)


def test_sample_array_is_its_vectors_bit_for_bit():
    built = _mc_agree_round(700, 14)
    by_hand = [_rebuilt(s) for s in built]
    for s in built + by_hand:
        assert s.array.dtype == np.float64 and s.array.shape == (s.count, s.n)
        assert not s.array.flags.writeable
        want = np.asarray(s.vectors, dtype=float)
        assert s.array.tobytes() == want.tobytes()
        assert all(type(x) is float for v in s.vectors for x in v)
    # the array takes no part in equality, and vectors stay tuples
    assert by_hand == built and [s.vectors for s in by_hand] == \
        [s.vectors for s in built]
    with pytest.raises(ValueError):
        built[0].array[0, 0] = 0.0
    def cdf(t):
        return np.clip((np.asarray(t) - 2.0) / 6.0, 0.0, 1.0)

    for samples in (built, by_hand):
        for proj in projection_set(3, 14):
            for i in range(3):
                for j in range(i + 1, 3):
                    x, y = samples[i], samples[j]
                    assert ks_distance(x, y, proj).statistic == \
                        _tuple_ks(x, y, proj)
                assert ks_distance(samples[i], cdf, proj).statistic == \
                    _tuple_ks(samples[i], cdf, proj)


def test_ks_converts_each_sample_at_most_once(monkeypatch):
    # one benchmark round: three samples, then 15 two-sample KS calls over
    # t1, t2 and projection_set's three directions
    builds = []
    build = measure._vectors_array
    monkeypatch.setattr(measure, "_vectors_array",
                        lambda vectors: builds.append(1) or build(vectors))
    projections = [0, 1] + projection_set(3, 15)[3:]

    def ks_round(samples):
        for i in range(3):
            for j in range(i + 1, 3):
                for proj in projections:
                    ks_distance(samples[i], samples[j], proj)

    built = _mc_agree_round(300, 15)
    ks_round(built)
    assert len(builds) == 0  # generators hand their array in
    by_hand = [_rebuilt(s) for s in built]
    ks_round(by_hand)
    assert len(builds) == 3  # one build each, when the sample was made


# -- generators ---------------------------------------------------------------

GENS = (sample_hermitian_sum, sample_multiplicative, sample_tropical_kappa)


@pytest.mark.parametrize("gen", GENS)
def test_generator_shapes(gen):
    s = gen(R2, S2, 40, np.random.default_rng(1))
    assert s.count == 40 and len(s.vectors) == 40
    assert s.n == 2 and all(len(v) == 2 for v in s.vectors)


@pytest.mark.parametrize("gen", GENS)
def test_generator_seed_determinism(gen):
    a = gen(R2, S2, 30, np.random.default_rng(77))
    b = gen(R2, S2, 30, np.random.default_rng(77))
    assert a.vectors == b.vectors


def test_haar_block_does_not_change_the_output(monkeypatch):
    # these runs draw one instance at a time from the run's stream, so the
    # block size bounds memory only
    runs = [
        lambda c: sample_hermitian_sum(R2, S2, c,
                                       np.random.default_rng(3)).vectors,
        lambda c: exceptional_mass_estimate(R2, S2, c, -0.5,
                                            np.random.default_rng(4)),
    ] + [lambda c, mode=mode: horn_forward_test(
        mode, 2, c, F(-1, 10), np.random.default_rng(5)).failures
         for mode in ("tropical", "hermitian", "multiplicative")]
    counts = (11, 12, 13, 40)
    want = [[run(c) for c in counts] for run in runs]
    assert all(w[-1] for w in want[1:])  # every check fails at count 40
    for block in (1, 5):
        monkeypatch.setattr(measure, "BLOCK", block)
        assert [[run(c) for c in counts] for run in runs] == want


def test_a_run_reads_one_stream_spawned_once():
    # a run past 8192 draws used to switch to a second spawned stream there
    got = sample_hermitian_sum(R3, S3, 8200, np.random.default_rng(9)).array
    us = haar_unitaries(3, 8200, np.random.default_rng(9).spawn(1)[0])
    assert got.tobytes() == measure._sum_spectra([R3], [S3], us).tobytes()


@pytest.mark.parametrize("gen", GENS)
def test_a_longer_run_keeps_the_shorter_runs_rows(gen):
    long = gen(R3, S3, 8200, np.random.default_rng(10)).array
    short = gen(R3, S3, 8192, np.random.default_rng(10)).array
    assert long[:8192].tobytes() == short.tobytes()


def test_sum_spectra_match_the_list_route():
    # D_r + U D_s U* built in numpy on a block and diagonalized by LAPACK,
    # against the nested-list construction and the oracle's Jacobi l_map on
    # the same unitaries (hornlab.l_map is LAPACK too): both are backward
    # stable, so the spectra agree to rounding relative to the matrix norm,
    # also far from 1
    rng = np.random.default_rng(12)
    for r, s, scale in ((R2, S2, 1.0), ((3.0, 4.0, 3.0), (2.0, 2.5, 1.5), 1.0),
                        ((3.0, 4.0, 3.0, 0.0), (2.0, 3.0, 3.0, 2.0), 1.0),
                        ((4.0, 7.0, 9.0, 10.0, 10.0),
                         (1.5, 2.5, 3.0, 3.0, 2.0), 1.0),
                        ((3e100, 4e100, 3e100), (2e100, 2.5e100, 1.5e100),
                         1e100)):
        us = haar_unitaries(len(r), 50, rng)
        for u, got in zip(us.tolist(), measure._sum_spectra([r], [s], us)):
            k = hermitian_with_spectrum(spectrum_of(s), u)
            for i, lam in enumerate(spectrum_of(r)):
                k[i][i] += lam
            assert got == pytest.approx(oracles.l_map(k), rel=0,
                                        abs=1e-13 * scale)


def _scalar_multiplicative(r, s, count, rng):
    """sample_multiplicative's stream read by hand: per block
    the r patterns, the s patterns, then the phases, each product through
    the scalar oracle route (oracles.b_factor and oracles.singular_l)."""
    n = len(r)
    crng = rng.spawn(1)[0]
    out = []
    for start in range(0, count, measure.BLOCK):
        size = min(measure.BLOCK, count - start)
        us, vs = gz_block(r, size, crng), gz_block(s, size, crng)
        phases = crng.uniform(0.0, 2 * math.pi, (size, 2, n * (n - 1) // 2))
        out += [oracles.singular_l(mat_mul(COMPLEX, oracles.b_factor(u, pu),
                                           oracles.b_factor(v, pv)))
                for u, v, (pu, pv) in zip(us.tolist(), vs.tolist(),
                                          phases.tolist())]
    return out


# the spectra of acceptance test 07 and the benchmark at n = 3, and the
# n = 4 and n = 5 pairs of the other Monte Carlo tests
BLOCK_PAIRS = [((1.5,), (0.5,)), (R2, S2), (R3, S3),
               ((3.0, 4.0, 3.0, 0.0), (2.0, 3.0, 3.0, 2.0)),
               ((4.0, 7.0, 9.0, 10.0, 10.0), (1.5, 2.5, 3.0, 3.0, 2.0))]


@pytest.mark.parametrize("r, s", BLOCK_PAIRS, ids=["n1", "n2", "n3", "n4",
                                                   "n5"])
def test_multiplicative_block_route_is_the_scalar_route(r, s, monkeypatch):
    # the block factors, product and Jacobi sweeps give each sample the
    # scalar route's value on the same stream, to rounding; with blocks of
    # 128, 300 draws cross two block boundaries
    monkeypatch.setattr(measure, "BLOCK", 128)
    got = sample_multiplicative(r, s, 300, np.random.default_rng([700, len(r)]))
    want = _scalar_multiplicative(r, s, 300,
                                  np.random.default_rng([700, len(r)]))
    assert np.abs(got.array - np.array(want)).max() <= 1e-9


@pytest.mark.parametrize("gen", GENS)
def test_generator_rejects_mismatched_lengths(gen):
    with pytest.raises(ValueError):
        gen((1.0, 0.0), (1.0, 0.0, 0.0), 4, np.random.default_rng(0))


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("run", [
    lambda c, rng: sample_hermitian_sum(R2, S2, c, rng),
    lambda c, rng: sample_multiplicative(R2, S2, c, rng),
    lambda c, rng: sample_tropical_kappa(R2, S2, c, rng),
    lambda c, rng: horn_forward_test("tropical", 2, c, 0, rng),
    lambda c, rng: exceptional_mass_estimate(R2, S2, c, F(1, 10 ** 8), rng),
], ids=["hermitian-sum", "multiplicative", "tropical-kappa", "horn-forward",
        "exceptional-mass"])
def test_count_below_one_is_rejected(run, count):
    with pytest.raises(ValueError, match="count must be at least 1"):
        run(count, np.random.default_rng(0))


@pytest.mark.parametrize("gen", GENS)
def test_generator_last_coordinate_is_the_total_mass(gen):
    # the final slot carries trace / log-det additivity exactly
    s = gen(R2, S2, 60, np.random.default_rng(9))
    for v in s.vectors:
        assert abs(v[-1] - (R2[-1] + S2[-1])) <= 1e-9


@pytest.mark.parametrize("gen", GENS)
def test_generator_range_rank_two(gen):
    # first coordinate lives in [r - s, r + s] = [1, 3], up to solver slack
    s = gen(R2, S2, 200, np.random.default_rng(15))
    for v in s.vectors:
        assert 1.0 - 1e-8 <= v[0] <= 3.0 + 1e-8


@pytest.mark.parametrize("gen", GENS)
def test_generator_outputs_pass_membership(gen):
    s = gen(R2, S2, 25, np.random.default_rng(8))
    for v in s.vectors:
        assert kt_member(HornTriple(R2, S2, v), slack=F(1, 10 ** 8))


@pytest.mark.parametrize("gen", [sample_hermitian_sum, sample_tropical_kappa])
def test_generator_scale_equivariance(gen):
    # doubling (r, s) must double the law: compare a fresh run at the
    # doubled data against rescaled samples from an independent seed
    big = gen((4.0, 0.0), (2.0, 0.0), 4000, np.random.default_rng(300))
    ref = gen(R2, S2, 4000, np.random.default_rng(301))
    scaled = EmpiricalSample("scaled", 2, (4.0, 0.0), (2.0, 0.0), ref.count,
                             tuple(tuple(2.0 * x for x in v) for v in ref.vectors))
    d = ks_distance(big, scaled, projection=0)
    assert d.statistic < 0.05


@pytest.mark.parametrize("gen", [sample_hermitian_sum, sample_multiplicative],
                         ids=["hermitian-sum", "multiplicative"])
def test_tropical_kappa_agrees_with_matrix_generators_at_n4(gen):
    # the paper's corollary one size above acceptance test 07: the tropical
    # pushforward has the law of the spectrum of D_r + U D_s U*, and of the
    # log singular values of the product.  The generators draw iid samples
    # (ESS = count); the last coordinate is the atom r4 + s4, so the first
    # three coordinates and projection_set's three directions are compared,
    # at family level 1e-3 split over them
    r, s = (3.0, 4.0, 3.0, 0.0), (2.0, 3.0, 3.0, 2.0)
    count = 20_000
    trop = sample_tropical_kappa(r, s, count, np.random.default_rng([410, 0]))
    other = gen(r, s, count, np.random.default_rng([410, 1]))
    projections = [0, 1, 2] + projection_set(4, seed=410)[4:]
    alpha = 1e-3 / len(projections)
    crit = math.sqrt(-0.5 * math.log(alpha / 2.0)) * math.sqrt(2.0 / count)
    for proj in projections:
        d = ks_distance(trop, other, projection=proj)
        assert d.statistic < crit, (proj, d.statistic, crit)


# -- scaling limit ------------------------------------------------------------

def test_limit_sweep_reference_instance():
    res = limit_sweep(SWEEP_W, [5.0, 8.0, 11.0])
    assert res.delta == pytest.approx(0.5)
    assert res.errors[0] < 1e-6
    assert all(a >= b for a, b in zip(res.errors, res.errors[1:]))
    assert res.slope < -0.75 * res.delta
    assert res.taus == (5.0, 8.0, 11.0)


def test_limit_sweep_single_tau_has_no_slope():
    res = limit_sweep(SWEEP_W, [6.0])
    assert res.slope is None
    assert len(res.errors) == 1


def test_limit_sweep_rejects_non_generic_weightings():
    tie = WbarWeighting(2, (F(1),), (F(0), F(1)))
    with pytest.raises(ValueError):
        limit_sweep(tie, [5.0, 8.0])


def test_limit_sweep_rejects_rank_one_weightings():
    # n = 1 has no rows below the top, so there is no margin to rate against
    with pytest.raises(ValueError, match="rank-one weighting"):
        limit_sweep(WbarWeighting(1, (), (F(3),)), [5.0, 8.0])


def test_limit_sweep_accepts_fixed_phases():
    g = measure.gamma0_cached(2)
    rng = np.random.default_rng(0)
    phases = {e: complex(np.cos(a), np.sin(a))
              for e, a in zip(g.edges, rng.uniform(0, 2 * np.pi, len(g.edges)))}
    res = limit_sweep(SWEEP_W, [5.0, 8.0, 11.0], phases)
    # generic phases leave the exponential rate intact
    assert res.slope < -0.75 * res.delta
    assert res.phases is phases


def test_limit_sweep_reports_an_underflowing_singular_value_as_float_range():
    # the path matrix is invertible, but at tau = 150 its smallest singular
    # value underflows: that tau is out of the float range, like 230
    w = WbarWeighting(3, (F(19, 10), F(7, 5), F(3, 5)),
                      (F(-1, 5), F(3, 10), F(1, 10)))
    for tau in (150.0, 200.0, 230.0):
        with pytest.raises(ValueError, match=r"tau=%r is out of the float "
                           r"range for this weighting" % tau):
            limit_sweep(w, [5.0, tau])


# -- forward inclusion and exceptional mass ------------------------------------

@pytest.mark.parametrize("mode", ["tropical", "hermitian", "multiplicative"])
def test_horn_forward_small_runs_pass(mode):
    slack = F(0) if mode == "tropical" else F(1, 10 ** 8)
    rep = horn_forward_test(mode, 2, 40, slack, np.random.default_rng(2))
    assert rep.mode == mode and rep.count == 40
    assert rep.failures == ()
    assert rep.pass_rate == 1.0


def _scalar_forward_failures(n, count, slack, rng):
    """horn_forward_test's multiplicative stream read by hand: per
    instance the spectra, the r pattern and phases, the s pattern and
    phases, each product through the scalar oracle route."""
    crng = rng.spawn(1)[0]
    failures = []
    for i in range(count):
        r = measure._random_cumsum_spectrum(n, crng)
        s = measure._random_cumsum_spectrum(n, crng)
        factors = []
        for top in (r, s):
            u = gz_block(top, 1, crng)[0].tolist()
            factors.append(oracles.b_factor(
                u, crng.uniform(0.0, 2 * math.pi, n * (n - 1) // 2).tolist()))
        c = oracles.singular_l(mat_mul(COMPLEX, *factors))
        if not kt_member(HornTriple(r, s, c), slack):
            failures.append(i)
    return tuple(failures)


@pytest.mark.parametrize("n", [3, 4])
def test_horn_forward_multiplicative_is_the_scalar_route(n):
    # at a negative slack most triples fail (42 and 50 of 60), so the
    # block route must decide each one as the scalar route does
    rep = horn_forward_test("multiplicative", n, 60, F(-1, 10),
                            np.random.default_rng([710, n]))
    want = _scalar_forward_failures(n, 60, F(-1, 10),
                                    np.random.default_rng([710, n]))
    assert 0 < len(want) < 60
    assert rep.failures == want


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_horn_forward_hermitian_is_the_per_instance_route(n, monkeypatch):
    # the block's unitaries are orthonormalised and its spectra mapped at
    # once, and each triple is exactly the one drawn alone: the
    # spectra, one Haar unitary, then _sum_spectra of a block of one; with
    # blocks of 128, 300 instances cross two block boundaries
    seen = []
    monkeypatch.setattr(measure, "BLOCK", 128)
    monkeypatch.setattr(measure, "kt_member",
                        lambda t, eps: seen.append(t) is None)
    horn_forward_test("hermitian", n, 300, F(-1, 10),
                      np.random.default_rng([720, n]))
    crng = np.random.default_rng([720, n]).spawn(1)[0]
    want = []
    for _ in range(300):
        r = measure._random_cumsum_spectrum(n, crng)
        s = measure._random_cumsum_spectrum(n, crng)
        c = measure._sum_spectra([r], [s], haar_unitaries(n, 1, crng))[0]
        want.append(HornTriple(r, s, c.tolist()))
    assert seen == want


def test_horn_forward_unknown_mode():
    with pytest.raises(ValueError):
        horn_forward_test("quantum", 2, 5, 0, np.random.default_rng(0))


@pytest.mark.parametrize("n", [-1, 0, 6, 7])
def test_horn_forward_rejects_n_outside_desk_scale(n):
    with pytest.raises(ValueError, match="n must be between 1 and 5"):
        horn_forward_test("tropical", n, 1, 0, np.random.default_rng(0))


@pytest.mark.parametrize("n", [0, 6, 7])
def test_tropical_kappa_rejects_n_outside_desk_scale(n):
    # checked before the chamber is built, which takes seconds from n = 6
    with pytest.raises(ValueError, match="n must be between 1 and 5"):
        sample_tropical_kappa((1.0,) * n, (1.0,) * n, 1, np.random.default_rng(0))


@pytest.mark.parametrize("n", [6, 7])
def test_exceptional_mass_rejects_n_outside_desk_scale(n):
    # kt_member has no route past n = 5; refused before any draw
    with pytest.raises(ValueError, match="n must be between 1 and 5"):
        exceptional_mass_estimate((1.0,) * n, (1.0,) * n, 4, F(1, 10 ** 8),
                                  np.random.default_rng(0))


def test_exceptional_mass_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        exceptional_mass_estimate((1.0, 0.0), (1.0, 0.0, 0.0), 4, F(1, 10 ** 8),
                                  np.random.default_rng(0))


def test_exceptional_mass_zero_at_positive_slack():
    mass = exceptional_mass_estimate(R2, S2, 300, F(1, 10 ** 8),
                                     np.random.default_rng(4))
    assert mass == 0.0


def test_exceptional_mass_positive_when_overtightened():
    # shrinking the cone by 1/10 must strand some boundary mass, which
    # shows the estimator can actually fail
    mass = exceptional_mass_estimate(R2, S2, 300, F(-1, 10),
                                     np.random.default_rng(4))
    assert mass > 0.0


def test_exceptional_mass_at_negative_slack_needs_no_lp(monkeypatch):
    # at n = 4 and slack -1/10 the facet table alone gives the mass the
    # oracle LP gives, with some triples on each side
    def run():
        return exceptional_mass_estimate((3, 4, 3, 0), (2, 3, 3, 2), 200,
                                         F(-1, 10), np.random.default_rng(5))

    with monkeypatch.context() as mp:
        mp.setattr(measure, "kt_member", lp_verdict)
        want = run()

    def no_lp(a, b):
        raise AssertionError("kt_member reached the LP")

    monkeypatch.setattr(oracles, "feasible_point", no_lp)
    assert run() == want
    assert 0.0 < want < 1.0
