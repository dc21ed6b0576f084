"""Dense Hermitian spectral routines and triangular reconstructions."""

import math

import numpy as np
import pytest

from hornlab import (
    COMPLEX,
    GZ,
    Tableau,
    gz_H,
    gz_check,
    l_map,
    mat_mul,
    reconstruct_H,
    sample_B_r,
    singular_l,
    spectrum_of,
)
import hornlab.linalg as linalg
from hornlab.linalg import b_factor_block, haar_unitaries, singular_l_block
from hornlab.polytope import gz_block, pattern_tableau
import oracles
from oracles import dagger, eigh, gz_B, sample_H_r, sigma_values


def _random_hermitian(n, rng, scale=1.0):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    k = (g + g.conj().T) * (scale / 2.0)
    return [[complex(k[i, j]) for j in range(n)] for i in range(n)]


def _residual(k, vals, vecs):
    n = len(k)
    worst = 0.0
    for j in range(n):
        for i in range(n):
            kv = sum(k[i][t] * vecs[t][j] for t in range(n))
            worst = max(worst, abs(kv - vals[j] * vecs[i][j]))
    return worst


# -- eigensolver --------------------------------------------------------------
# eigh is the tests' Jacobi oracle; hornlab's l_map and gz_H are LAPACK's
# eigvalsh on blocks of one and are checked against it

def test_eigh_two_by_two_exact():
    # [[2, -i], [i, 2]] has characteristic roots 2 +- 1
    vals, _ = eigh([[2 + 0j, -1j], [1j, 2 + 0j]])
    assert vals[0] == pytest.approx(3.0, abs=1e-12)
    assert vals[1] == pytest.approx(1.0, abs=1e-12)


def test_eigh_sorts_descending():
    vals, _ = eigh([[1 + 0j, 0j, 0j], [0j, 5 + 0j, 0j], [0j, 0j, 3 + 0j]])
    assert vals == pytest.approx([5.0, 3.0, 1.0], abs=1e-12)


def test_eigh_residual_and_orthonormality():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 5):
        k = _random_hermitian(n, rng)
        vals, vecs = eigh(k)
        norm = max(abs(v) for row in k for v in row)
        assert _residual(k, vals, vecs) <= 1e-10 * max(norm, 1.0)
        for a in range(n):
            for b in range(n):
                dot = sum(vecs[i][a].conjugate() * vecs[i][b] for i in range(n))
                assert abs(dot - (1.0 if a == b else 0.0)) < 1e-10


def test_eigh_rejects_non_hermitian():
    with pytest.raises(ValueError):
        eigh([[0j, 1 + 0j], [2 + 0j, 0j]])


def test_eigh_refuses_a_norm_past_the_float_range():
    # every entry and its square are finite but their sum is not, so the
    # Jacobi stopping test could not compare: the diagonal must not come
    # back as the spectrum, which is +-sqrt(2) * scale; l_map refuses the
    # same matrices with the same error
    for route in (l_map, oracles.l_map):
        assert route([[1e153, 1e153], [1e153, -1e153]]) == pytest.approx(
            [math.sqrt(2.0) * 1e153, 0.0], rel=1e-13, abs=1e141)
        with pytest.raises(OverflowError,
                           match="matrix norm out of the float"):
            route([[1e154, 1e154], [1e154, -1e154]])


def test_l_map_cumulative():
    assert l_map([[3 + 0j, 0j], [0j, 1 + 0j]]) == pytest.approx([3.0, 4.0])


@pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
def test_l_map_and_gz_H_are_the_jacobi_route(scale):
    # LAPACK and the Jacobi oracle are both backward stable, so by Weyl's
    # inequality their cumulative spectra agree to rounding relative to
    # the matrix norm, far from 1 too
    rng = np.random.default_rng(23)
    for n in range(1, 6):
        for _ in range(10):
            k = _random_hermitian(n, rng, scale)
            tol = 1e-13 * max(1.0, oracles.frobenius(k))
            assert l_map(k) == pytest.approx(oracles.l_map(k), rel=0,
                                             abs=tol)
            rows = gz_H(k).rows
            for j in range(1, n + 1):
                want = oracles.l_map(oracles._block(k, range(n - j, n)))
                assert rows[j][0] == 0.0
                assert rows[j][1:] == pytest.approx(want, rel=0, abs=tol)


def test_l_map_and_gz_H_reject_non_hermitian():
    # LAPACK reads one triangle and the real part of the diagonal, so
    # without the check it would answer for both of these matrices
    for k in ([[1 + 0j, 2 + 0j], [2 + 1e-6j, 3 + 0j]],
              [[1 + 0j, 0j], [0j, 3 + 1j]]):
        for route in (l_map, gz_H, oracles.l_map):
            with pytest.raises(ValueError, match="not Hermitian"):
                route(k)


# -- interlacing patterns from matrices ---------------------------------------

def test_gz_H_frozen_diagonal():
    t = gz_H([[3 + 0j, 0j], [0j, 1 + 0j]])
    assert t.role == GZ
    # trailing block is [1]: row 1 is its cumulative spectrum
    assert t.rows[1] == (0.0, pytest.approx(1.0))
    assert t.rows[2] == (0.0, pytest.approx(3.0), pytest.approx(4.0))


def test_gz_H_interlaces_on_random_input():
    rng = np.random.default_rng(14)
    for n in (2, 3, 4):
        for _ in range(10):
            t = gz_H(_random_hermitian(n, rng))
            # float arithmetic can only smudge the weak inequalities by a
            # hair, so allow a tolerance-zero strict check to fail but not
            # a loosened one
            loose = Tableau(n=t.n, rows=tuple(
                tuple(v + 1e-9 * (i > 0) for i, v in enumerate(row))
                for row in t.rows), role=t.role)
            assert gz_check(loose) or gz_check(t)


def test_singular_l_frozen():
    b = [[math.e ** 2 + 0j, 0j], [0j, math.e + 0j]]
    assert singular_l(b) == pytest.approx([2.0, 3.0], abs=1e-12)


def test_singular_l_rejects_singular_input():
    with pytest.raises(ValueError):
        singular_l([[1 + 0j, 0j], [0j, 0j]])


def test_singular_l_log_det_additivity():
    # the last slot is log|det|, additive under products
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = _random_hermitian(3, rng)
        a[0][0] += 6.0  # push away from singularity
        a[1][1] += 6.0
        a[2][2] += 6.0
        b = _random_hermitian(3, rng)
        b[0][0] += 6.0
        b[1][1] += 6.0
        b[2][2] += 6.0
        la = singular_l(a)[-1]
        lb = singular_l(b)[-1]
        lab = singular_l(mat_mul(COMPLEX, a, b))[-1]
        assert lab == pytest.approx(la + lb, abs=1e-9)


def test_gz_B_frozen_diagonal():
    b = [[math.e ** 2 + 0j, 0j], [0j, math.e + 0j]]
    t = gz_B(b)
    assert t.rows[1] == (0.0, pytest.approx(1.0))
    assert t.rows[2] == (0.0, pytest.approx(2.0), pytest.approx(3.0))


# -- random matrix factories --------------------------------------------------

def test_haar_unitary_is_unitary_and_seeded():
    u = haar_unitaries(4, 1, np.random.default_rng(11))[0].tolist()
    uu = mat_mul(COMPLEX, dagger(u), u)
    for i in range(4):
        for j in range(4):
            assert abs(uu[i][j] - (1.0 if i == j else 0.0)) < 1e-12
    v = haar_unitaries(4, 1, np.random.default_rng(11))[0].tolist()
    assert all(u[i][j] == v[i][j] for i in range(4) for j in range(4))


def _haar_one_at_a_time(n, rng):
    # QR of one Ginibre matrix, real part drawn before imaginary part
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    z *= 1.0 / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return (q * (d / np.abs(d))).tolist()


def test_haar_unitaries_read_the_stream_as_single_draws():
    # a batch is bit for bit the sequence of one-matrix draws, and the
    # sequence of one-draw blocks read from the same stream
    for n in (1, 2, 3, 4):
        batch = haar_unitaries(n, 5, np.random.default_rng(n))
        rng = np.random.default_rng(n)
        assert batch.shape == (5, n, n)
        assert [u.tolist() for u in batch] \
            == [_haar_one_at_a_time(n, rng) for _ in range(5)]
        rng = np.random.default_rng(n)
        assert [u.tolist() for u in batch] \
            == [haar_unitaries(n, 1, rng)[0].tolist() for _ in range(5)]


def test_spectrum_of_inverts_partial_sums():
    assert spectrum_of((2.0, 0.0)) == [2.0, -2.0]
    assert spectrum_of((3.0, 4.0, 3.0)) == [3.0, 1.0, -1.0]


def test_sample_H_r_has_the_requested_spectrum():
    rng = np.random.default_rng(21)
    r = (3.0, 4.0, 3.0)
    k = sample_H_r(r, rng)
    for i in range(3):
        for j in range(3):
            assert k[i][j] == k[j][i].conjugate()
    vals, _ = eigh(k)
    assert vals == pytest.approx(list(spectrum_of(r)), abs=1e-10)


def test_upper_cholesky_frozen_and_random():
    # the scalar Cholesky of the oracle route
    upper_cholesky = oracles.upper_cholesky
    assert upper_cholesky([[4 + 0j, 0j], [0j, 1 + 0j]]) \
        == [[2 + 0j, 0j], [0j, 1 + 0j]]
    rng = np.random.default_rng(6)
    for n in (2, 3, 4):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        p = (g @ g.conj().T + np.eye(n)).tolist()
        a = upper_cholesky(p)
        for i in range(n):
            assert a[i][i].real > 0 and abs(a[i][i].imag) == 0.0
            for j in range(i):
                assert a[i][j] == 0j
        back = mat_mul(COMPLEX, a, dagger(a))
        for i in range(n):
            for j in range(n):
                assert abs(back[i][j] - p[i][j]) < 1e-10 * (1 + abs(p[i][j]))


def test_upper_cholesky_rejects_indefinite():
    with pytest.raises(ValueError):
        oracles.upper_cholesky([[1 + 0j, 0j], [0j, -1 + 0j]])


# -- reconstruction -----------------------------------------------------------

def test_reconstruct_H_frozen_two_by_two():
    xi = Tableau(n=2, rows=((0.0,), (0.0, 0.0), (0.0, 1.0, 0.0)), role=GZ)
    k = reconstruct_H(xi, [[0.0]])
    # trailing entry 0, trace 0, |offdiag| = 1 with phase 0
    assert k[1][1] == 0j and abs(k[0][0]) < 1e-15
    assert k[0][1] == pytest.approx(1.0 + 0j, abs=1e-12)
    assert k[1][0] == pytest.approx(1.0 + 0j, abs=1e-12)


def test_reconstruct_H_round_trip():
    rng = np.random.default_rng(19)
    for n in (2, 3, 4):
        for _ in range(20):
            k = _random_hermitian(n, rng)
            xi = gz_H(k)
            angles = [list(rng.uniform(0, 2 * math.pi, size=m))
                      for m in range(1, n)]
            k2 = reconstruct_H(xi, angles)
            xi2 = gz_H(k2)
            for row, row2 in zip(xi.rows, xi2.rows):
                assert row == pytest.approx(row2, abs=1e-9)


def test_reconstruct_H_rejects_non_interlacing():
    xi = Tableau(n=2, rows=((0.0,), (0.0, 5.0), (0.0, 1.0, 0.0)), role=GZ)
    with pytest.raises(ValueError):
        reconstruct_H(xi, [[0.0]])


def test_reconstruct_H_validates_angle_shape():
    xi = Tableau(n=2, rows=((0.0,), (0.0, 0.0), (0.0, 1.0, 0.0)), role=GZ)
    with pytest.raises(ValueError):
        reconstruct_H(xi, [[0.0, 0.0]])


def test_sample_B_r_triangular_with_requested_log_spectrum():
    rng = np.random.default_rng(29)
    r = (1.0, 0.0)
    for _ in range(10):
        b = sample_B_r(r, rng)
        assert b[1][0] == 0j and b[0][0].real > 0 and b[1][1].real > 0
        assert singular_l(b) == pytest.approx([1.0, 0.0], abs=1e-8)


def test_b_factor_trailing_blocks_follow_the_pattern():
    # row k of the pattern is the cumulative log spectrum of the trailing
    # k x k block, read back through the scalar route of oracles.gz_B
    rng = np.random.default_rng(31)
    for r in ((1.0, 0.0), (2.0, 1.0, -1.0), (3.0, 4.0, 3.0, 0.0)):
        n = len(r)
        values = gz_block(r, 5, rng)
        phases = rng.uniform(0.0, 2 * math.pi, (5, n * (n - 1) // 2))
        for b, u in zip(b_factor_block(values, phases), values.tolist()):
            got = gz_B(b.tolist())
            for row, want in zip(got.rows, pattern_tableau(u).rows):
                assert row == pytest.approx(want, abs=1e-8)


def test_sample_B_r_factors_reproduce_their_pattern_to_1e_10():
    # the bordering takes closed-form eigenpairs (worst 6.2e-12 over 1024
    # of these draws); the scalar route, which borders with Jacobi eigenpairs
    # stopped at 1e-13 of the norm, misses the bound at the 123rd and the
    # 132nd draw (2.1e-10 and 2.5e-10)
    r = (3.0, 4.0, 3.0, 0.0)
    rng, ref = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(300):
        u = gz_block(r, 1, ref)[0].tolist()
        ref.uniform(0.0, 2 * math.pi, 6)
        got = gz_B(sample_B_r(r, rng))
        for row, want in zip(got.rows, pattern_tableau(u).rows):
            assert row == pytest.approx(want, rel=0, abs=1e-10)


def test_sample_B_r_is_b_factor_of_a_one_row_block():
    rng, ref = np.random.default_rng(33), np.random.default_rng(33)
    r = (3.0, 4.0, 3.0)
    for _ in range(5):
        values = gz_block(r, 1, ref)
        phases = ref.uniform(0.0, 2 * math.pi, (1, 3))
        assert sample_B_r(r, rng) == b_factor_block(values, phases)[0].tolist()


def test_b_factor_refuses_non_finite_entries():
    # the overflow a too-large top row leaves in a gz_block pattern
    with pytest.raises(OverflowError, match="non-finite pattern entry"):
        b_factor_block([[math.inf, 1e308, 0.0]], np.zeros((1, 1)))


# the spectra of acceptance test 07 (and of the benchmark), and the n = 4
# and n = 5 pairs of the Monte Carlo tests
BLOCK_SPECTRA = ((1.5,), (2.0, 0.0), (3.0, 4.0, 3.0), (2.0, 2.5, 1.5),
                 (3.0, 4.0, 3.0, 0.0), (2.0, 3.0, 3.0, 2.0),
                 (4.0, 7.0, 9.0, 10.0, 10.0), (1.5, 2.5, 3.0, 3.0, 2.0))


@pytest.mark.parametrize("r", BLOCK_SPECTRA)
def test_b_factor_block_rows_are_b_factor_to_rounding(r):
    # eigh's eigenvector normalisation makes the block's bordering the
    # scalar one; without it a row's factor differs by O(1)
    n = len(r)
    rng = np.random.default_rng(41)
    values = gz_block(r, 40, rng)
    phases = rng.uniform(0.0, 2 * math.pi, (40, n * (n - 1) // 2))
    factors = b_factor_block(values, phases)
    assert factors.shape == (40, n, n)
    for got, u, p in zip(factors, values.tolist(), phases.tolist()):
        want = np.array(oracles.b_factor(u, p))
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def _tracked_levels(spectra, phases):
    """Per level m = 2..n of _bordered on the first m spectra: the block K
    and the eigenvectors that _arrowhead_vectors gives it from the level
    below, with the border read back off K in that level's eigenbasis."""
    vecs = np.ones((len(phases), 1, 1), dtype=complex)
    for m in range(2, len(spectra) + 1):
        k = linalg._bordered(spectra[:m], phases)
        c = (vecs.conj() * k[:, 1:, :1]).sum(axis=1)
        vecs = linalg._arrowhead_vectors(vecs, c, spectra[m - 2],
                                         spectra[m - 1])
        yield k, vecs, spectra[m - 1]


@pytest.mark.parametrize("exponentiated", [False, True],
                         ids=["plain", "exponentiated"])
@pytest.mark.parametrize("r", [r for r in BLOCK_SPECTRA if len(r) > 1])
def test_closed_form_eigenvectors_are_eighs_at_every_level(r, exponentiated):
    # the Loewner vectors reproduce K to eps |K|, and they are orthonormal
    # and LAPACK's vectors, normalised as eigh normalises them, to the
    # rounding that a relative gap g allows (eps / g), on the spectra of
    # reconstruct_H and on the exponentiated ones of b_factor_block
    n, eps = len(r), np.finfo(float).eps
    rng = np.random.default_rng(43)
    values = gz_block(r, 100, rng)
    phases = rng.uniform(0.0, 2 * math.pi, (100, n * (n - 1) // 2))
    spectra = [np.diff(values[:, k * (k - 1) // 2:k * (k + 1) // 2],
                       axis=1, prepend=0.0) for k in range(1, n + 1)]
    if exponentiated:
        spectra = [np.exp(2.0 * lam) for lam in spectra]
    for k, vecs, lam in _tracked_levels(spectra, phases):
        m = len(lam[0])
        norm = np.linalg.norm(k, axis=(1, 2))
        tol = 10 * m * eps * norm / (-np.diff(lam, axis=1)).min(axis=1)
        dag = vecs.conj().transpose(0, 2, 1)
        assert (np.abs(dag @ vecs - np.eye(m)).max(axis=(1, 2)) <= tol).all()
        assert (np.abs((vecs * lam[:, None, :]) @ dag - k).max(axis=(1, 2))
                <= 10 * m * eps * norm).all()
        _, want = np.linalg.eigh(k)
        want = want[:, :, ::-1]
        piv = np.abs(want).argmax(axis=1)[:, None, :]
        ph = np.take_along_axis(want, piv, axis=1)
        want = want * (ph.conj() / np.abs(ph))
        assert (np.abs(vecs - want).max(axis=(1, 2)) <= tol).all()


@pytest.mark.parametrize("row, error, message", [
    ([math.inf, 1e308, 0.0], OverflowError, "non-finite pattern entry"),
    ([400.0, 800.0, 0.0], OverflowError, "math range error"),
    ([2.0, 2.0, 0.0], ValueError, "spectra do not strictly interlace"),
    ([150.0, 300.0, 300.0], OverflowError,
     "border weight out of the float range"),
], ids=["non-finite", "exp-range", "not-interlacing", "border-weight"])
def test_b_factor_block_raises_what_b_factor_raises(row, error, message):
    # one row that the scalar route refuses refuses the whole block, with
    # the scalar route's error
    with pytest.raises(error, match=message):
        oracles.b_factor(row, [0.5])
    with pytest.raises(error, match=message):
        b_factor_block(np.array([[1.0, 2.0, 0.0], row]), np.full((2, 1), 0.5))


@pytest.mark.parametrize("lam, error, message", [
    ((2.0, 1.0), ValueError, "spectra do not strictly interlace"),
    ((1e300, -1e300), OverflowError, "border weight out of the float range"),
    ((math.nan, -1.0), OverflowError, "border weight out of the float range"),
], ids=["negative", "inf", "nan"])
def test_oracle_bordering_raises_what_bordered_raises(lam, error, message):
    # bordering [[0]] to the spectrum lam: the weight -(0 - lam_1)(0 - lam_2)
    # is -2, +inf and NaN
    with pytest.raises(error, match=message):
        oracles.bordered([[0j]], lam, [0.0])
    with pytest.raises(error, match=message):
        linalg._bordered([np.zeros((1, 1)), np.array([lam])], np.zeros((1, 1)))


def test_b_factor_block_refuses_an_overflowing_border_weight():
    # spectra (e^600, 1) strictly interlace e^300 and every exponential is
    # finite, but the border weight (e^600 - e^300)(e^300 - 1) is not
    with pytest.raises(OverflowError, match="border weight out of the float"):
        b_factor_block(np.array([[150.0, 300.0, 300.0]]), np.zeros((1, 1)))


def test_b_factor_block_raises_on_a_cholesky_failure():
    # spectra (10, 0, -10) give the bordered matrix a condition number of
    # e^40, past 1/eps: LAPACK's Cholesky refuses one of these eight
    rng = np.random.default_rng(1)
    values = gz_block((10.0, 10.0, 0.0), 8, rng)
    phases = rng.uniform(0.0, 2 * math.pi, (8, 3))
    with pytest.raises(ValueError, match="matrix is not positive definite"):
        b_factor_block(values, phases)


def test_reconstruct_H_is_the_oracle_bordering():
    rng = np.random.default_rng(35)
    for n in (2, 3, 4):
        xi = gz_H(_random_hermitian(n, rng))
        angles = [rng.uniform(0, 2 * math.pi, size=m).tolist()
                  for m in range(1, n)]
        spectra = [spectrum_of(xi.rows[k][1:]) for k in range(1, n + 1)]
        want = np.array(oracles.reconstruct_from_spectra(spectra, angles))
        got = np.array(reconstruct_H(xi, angles))
        assert np.abs(got - want).max() <= 1e-9 * np.abs(want).max()


def _graded(n, rng, spread):
    """A complex matrix with columns scaled from 1 down to 10^-spread."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g * np.logspace(0.0, -spread, n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_singular_l_block_is_singular_l_per_matrix(n):
    # the same sweeps, tests and rotations as the scalar oracle: values
    # agree to rounding also where the small singular values sit 26 orders
    # below the large ones
    rng = np.random.default_rng(45 + n)
    a = np.array([_graded(n, rng, spread) for spread in (0.0, 6.0, 26.0)
                  for _ in range(10)])
    values = singular_l_block(a)
    for got, m in zip(values, a.tolist()):
        assert got == pytest.approx(oracles.singular_l(m), rel=0, abs=1e-12)
        assert singular_l(m) == tuple(got)


def test_singular_l_block_raises_on_a_zero_singular_value():
    good = _graded(3, np.random.default_rng(47), 2.0)
    zero_col = good.copy()
    zero_col[:, 1] = 0.0
    with pytest.raises(ValueError, match="matrix is singular"):
        oracles.singular_l(zero_col.tolist())
    with pytest.raises(ValueError, match="matrix is singular"):
        singular_l_block(np.array([good, zero_col]))
    # a 1 x 1 block has no column pair to test
    with pytest.raises(ValueError, match="matrix is singular"):
        singular_l_block(np.zeros((1, 1, 1)))


@pytest.mark.parametrize("entry", [math.nan, math.inf])
def test_singular_l_block_raises_on_a_non_finite_entry(entry):
    good = _graded(3, np.random.default_rng(47), 2.0)
    bad = good.copy()
    bad[2, 2] = entry
    with pytest.raises(ValueError, match="matrix is singular"):
        singular_l_block(np.array([good, bad]))
    with pytest.raises(ValueError, match="matrix is singular"):
        singular_l(bad.tolist())


def test_singular_l_block_raises_on_squared_norms_past_the_float_range():
    # each entry is finite, its square is not: the scalar abs(x) ** 2
    # raises OverflowError, and so does the block
    big = np.full((2, 2), 1e200 + 0j)
    big[1, 0] = 0.0
    with pytest.raises(OverflowError):
        oracles.singular_l(big.tolist())
    with pytest.raises(OverflowError, match="column norms out of the float"):
        singular_l_block(np.array([np.eye(2, dtype=complex), big]))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_singular_l_past_squared_column_products_is_the_scaled_route(n):
    # column norms near 1e77 put app * aqq past the float range while each
    # norm stays finite: the relative test still compares, so the values
    # are the route through the matrix scaled by 1e-77, shifted back
    rng = np.random.default_rng(48 + n)
    small = [np.triu(np.ones((n, n)))] + [_graded(n, rng, 2.0)
                                          for _ in range(5)]
    shift = 77 * math.log(10.0) * np.arange(1, n + 1)
    for m in small:
        want = np.array(singular_l(m.tolist())) + shift
        big = (m * 1e77).tolist()
        assert np.abs(np.array(singular_l(big)) - want).max() <= 1e-11
        assert np.abs(np.array(oracles.singular_l(big)) - want).max() <= 1e-11


def test_singular_l_block_raises_without_convergence(monkeypatch):
    # a non-orthogonal pair rotates in the one sweep allowed, and the
    # block never sees a sweep without rotation
    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 1)
    a = np.array([[[1.0, 1.0], [0.0, 1.0]]], dtype=complex)
    with pytest.raises(RuntimeError, match="failed to converge"):
        singular_l_block(a)


# -- symmetric functions of singular values -----------------------------------

def test_sigma_values_identity_gives_binomials():
    eye = [[1.0 + 0j if i == j else 0j for j in range(3)] for i in range(3)]
    assert sigma_values(eye) == pytest.approx([3.0, 3.0, 1.0])


def test_sigma_values_diagonal():
    # squared singular values (4, 1): e1 = 5, e2 = 4
    b = [[2.0 + 0j, 0j], [0j, 1.0 + 0j]]
    assert sigma_values(b) == pytest.approx([5.0, 4.0])


def test_sigma_values_matches_spectrum_route():
    rng = np.random.default_rng(44)
    for n in (2, 3):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        a = [[complex(g[i, j]) for j in range(n)] for i in range(n)]
        sq = np.linalg.svd([[a[i][j] for j in range(n)] for i in range(n)],
                           compute_uv=False) ** 2
        want = []
        for k in range(1, n + 1):
            import itertools
            want.append(float(sum(np.prod([sq[i] for i in c])
                                  for c in itertools.combinations(range(n), k))))
        got = sigma_values(a)
        assert got == pytest.approx(want, rel=1e-9)
