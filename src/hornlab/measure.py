"""Monte Carlo comparison of the three product measures, and the scaling
limit experiment.

Sampling is chunked: a run of `count` draws is split into fixed chunks of
8192, each chunk gets its own child generator spawned from the caller's rng,
and chunk results are concatenated in chunk order.  Inside a chunk, Haar
unitaries and the tropical generator's patterns are drawn in fixed blocks
of 256, read from the chunk's generator in block order.  The output is
therefore a function of (seed, count) alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chamber import (WbarWeighting, find_delta0_chamber, gamma0_cached,
                      genericity_check, horn_triple_tropical, kappa_block)
from .hive import HornTriple, kt_member
from .linalg import (haar_unitaries, haar_unitary, hermitian_with_spectrum,
                     l_map, mat_mul_c, sample_B_r, singular_l, spectrum_of)
from .paths import complex_lift, m_k
from .polytope import gz_block
from .semiring import TROPICAL, as_rational

CHUNK = 8192
HAAR_BLOCK = 256
PATTERN_BLOCK = 256
MAX_N = 5  # desk scale: the exact cone test grows steeply beyond it


@dataclass(frozen=True)
class EmpiricalSample:
    """A batch of cumulative spectra drawn from one generator."""

    generator: str
    n: int
    r: tuple
    s: tuple
    count: int
    vectors: tuple


def _run_chunks(worker, count, rng):
    """worker(child_rng, size, offset) over CHUNK-sized blocks, each with
    its own spawned stream; the results are concatenated in block order.
    A count below 1 and a float overflow raise ValueError."""
    if count < 1:
        raise ValueError("count must be at least 1, got %d" % count)
    offsets = range(0, count, CHUNK)
    merged = []
    try:
        for crng, off in zip(rng.spawn(len(offsets)), offsets):
            merged.extend(worker(crng, min(CHUNK, count - off), off))
    except OverflowError as exc:  # spectra too large for float arithmetic
        raise ValueError("input out of the float range (%s)" % exc) from None
    return merged


def _float_pair(r, s):
    r = tuple(float(v) for v in r)
    s = tuple(float(v) for v in s)
    if len(r) != len(s):
        raise ValueError("r and s must have the same length")
    return r, s


def _haar_stream(n, count, rng):
    """count Haar unitaries as nested lists, read from rng as count calls
    of haar_unitary would read it; blocks of HAAR_BLOCK share a QR call
    and bound the memory."""
    for start in range(0, count, HAAR_BLOCK):
        for u in haar_unitaries(n, min(HAAR_BLOCK, count - start), rng):
            yield u.tolist()


def _sum_spectrum(lam_r, lam_s, u):
    """Cumulative spectrum of D_r + U D_s U*; lam_r and lam_s are the
    spectra of r and s."""
    k = hermitian_with_spectrum(lam_s, u)
    for i, lam in enumerate(lam_r):
        k[i][i] = complex(k[i][i].real + lam, 0.0)
    return l_map(k)


def sample_hermitian_sum(r, s, count, rng):
    """Spectra of D_r + U D_s U* with U Haar, as cumulative vectors."""
    r, s = _float_pair(r, s)
    lam_r, lam_s = spectrum_of(r), spectrum_of(s)
    n = len(r)

    def worker(crng, m, off):
        return [tuple(_sum_spectrum(lam_r, lam_s, u))
                for u in _haar_stream(n, m, crng)]

    vecs = _run_chunks(worker, count, rng)
    return EmpiricalSample("hermitian-sum", n, r, s, count, tuple(vecs))


def sample_multiplicative(r, s, count, rng):
    """Cumulative log singular values of products a c, with a from
    sample_B_r(r) and c from sample_B_r(s): each factor is rebuilt from an
    exact uniform pattern below its top row."""
    r, s = _float_pair(r, s)
    n = len(r)

    def worker(crng, m, off):
        out = []
        for _ in range(m):
            a = sample_B_r(r, crng)
            c = sample_B_r(s, crng)
            out.append(tuple(singular_l(mat_mul_c(a, c))))
        return out

    vecs = _run_chunks(worker, count, rng)
    return EmpiricalSample("multiplicative", n, r, s, count, tuple(vecs))


def sample_tropical_kappa(r, s, count, rng):
    """Tropical product spectra kappa(u, v) of independent exact uniform
    patterns u below r and v below s.  Each block of PATTERN_BLOCK pairs
    is drawn by polytope.gz_block (the u block, then the v block) and
    mapped by chamber.kappa_block, which certifies every float result or
    computes it exactly.  n must lie in 1..MAX_N."""
    r, s = _float_pair(r, s)
    n = len(r)
    if not 1 <= n <= MAX_N:
        raise ValueError("n must be between 1 and %d" % MAX_N)
    chamber = find_delta0_chamber(n)

    def worker(crng, m, off):
        out = []
        for start in range(0, m, PATTERN_BLOCK):
            size = min(PATTERN_BLOCK, m - start)
            us = gz_block(r, size, crng)
            vs = gz_block(s, size, crng)
            out.extend(map(tuple, kappa_block(us, vs, chamber)[0].tolist()))
        return out

    vecs = _run_chunks(worker, count, rng)
    return EmpiricalSample("tropical-kappa", n, r, s, count, tuple(vecs))


GENERATORS = {
    "hermitian-sum": sample_hermitian_sum,
    "multiplicative": sample_multiplicative,
    "tropical-kappa": sample_tropical_kappa,
}


# -- Kolmogorov-Smirnov -------------------------------------------------------


@dataclass(frozen=True)
class KSResult:
    statistic: float
    n_x: int
    n_y: object
    projection: object


def _project(sample, projection):
    arr = np.asarray(sample.vectors, dtype=float)
    if projection is None:
        if arr.shape[1] != 1:
            raise ValueError("projection required for multivariate samples")
        return arr[:, 0]
    if isinstance(projection, int):
        return arr[:, projection]
    v = np.asarray(projection, dtype=float)
    return arr @ v


def ks_distance(x, y, projection=None):
    """Two-sample KS statistic, or one-sample against a CDF callable."""
    xa = np.sort(_project(x, projection))
    nx = len(xa)
    if callable(y):
        f = np.asarray(y(xa), dtype=float)
        grid = np.arange(1, nx + 1) / nx
        stat = float(max(np.max(grid - f), np.max(f - (grid - 1.0 / nx))))
        return KSResult(stat, nx, None, projection)
    ya = np.sort(_project(y, projection))
    ny = len(ya)
    pooled = np.concatenate([xa, ya])
    fx = np.searchsorted(xa, pooled, side="right") / nx
    fy = np.searchsorted(ya, pooled, side="right") / ny
    stat = float(np.max(np.abs(fx - fy)))
    return KSResult(stat, nx, ny, projection)


def projection_set(n, seed):
    """Coordinates first, then three fixed unit directions drawn from seed."""
    dirs = [i for i in range(n)]
    rng = np.random.default_rng(seed)
    for _ in range(3):
        v = rng.standard_normal(n)
        v = v / math.sqrt(float(v @ v))
        dirs.append(tuple(float(x) for x in v))
    return dirs


# -- scaling limit ------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    taus: tuple
    errors: tuple
    slope: object
    delta: float
    weighting: object
    phases: object


_FLOOR = 1e-13


def limit_sweep(w, taus, phases=None):
    """Error between rescaled log singular values and the tropical minors.

    For each tau the weighting is exponentiated at scale tau, the cumulative
    log singular values are divided by tau, and the worst coordinate gap to
    the exact tropical values is recorded.  The slope of log-error against
    tau (over points above the 1e-13 floor) estimates the decay rate, to be
    compared with the genericity margin delta.
    """
    n = w.n
    g = gamma0_cached(n)
    report = genericity_check(w, 0)
    if not report.generic:
        raise ValueError("weighting is not generic; the limit need not hold")
    if report.min_margin is None:  # n == 1: no rows below the top
        raise ValueError("a rank-one weighting has no genericity margin")
    delta = min(x for x in (report.min_separation, report.min_margin)
                if x is not None)
    wdict = w.embed(g)
    ms = [float(m_k(g, wdict, k, TROPICAL)) for k in range(1, n + 1)]
    taus = tuple(float(t) for t in taus)
    errors = []
    for tau in taus:
        mat = complex_lift(g, wdict, phases, tau)
        shift = tau * ms[0]
        scale = math.exp(-shift)
        scaled = [[x * scale for x in row] for row in mat]
        if not all(math.isfinite(abs(x)) for row in scaled for x in row):
            raise ValueError("tau is too large for this weighting")
        ls = singular_l(scaled)
        err = 0.0
        for i in range(n):
            li = ls[i] + (i + 1) * shift
            err = max(err, abs(li / tau - ms[i]))
        errors.append(err)
    pts = [(t, math.log(e)) for t, e in zip(taus, errors) if e > _FLOOR]
    slope = None
    if len(pts) >= 2:
        ts = np.array([p[0] for p in pts])
        ys = np.array([p[1] for p in pts])
        slope = float(np.polyfit(ts, ys, 1)[0])
    return SweepResult(taus, tuple(errors), slope, float(delta), w, phases)


# -- forward checks -----------------------------------------------------------


@dataclass(frozen=True)
class ForwardReport:
    mode: str
    n: int
    count: int
    slack: object
    failures: tuple
    pass_rate: float


def _random_wbar(n, crng, denom=1 << 20):
    nd = n * (n - 1) // 2
    vals = crng.integers(0, denom, size=nd + n)
    return WbarWeighting(n,
                         tuple(Fraction(int(v), denom) for v in vals[:nd]),
                         tuple(Fraction(int(v), denom) for v in vals[nd:]))


def _random_cumsum_spectrum(n, crng):
    lam = np.sort(crng.standard_normal(n))[::-1]
    return tuple(float(v) for v in np.cumsum(lam))


def horn_forward_test(mode, n, count, slack, rng):
    """Sample random instances and test their boundary triples for cone
    membership at the given slack; returns indices of any failures.

    tropical draws exact random reduced weightings (the cone is closed, so
    degenerate pairs still belong and are kept), hermitian and
    multiplicative draw random spectra; multiplicative builds each factor
    with sample_B_r.  n must lie in 1..MAX_N.
    """
    if mode not in ("tropical", "hermitian", "multiplicative"):
        raise ValueError("unknown mode %r" % (mode,))
    if not 1 <= n <= MAX_N:
        raise ValueError("n must be between 1 and %d" % MAX_N)
    eps = as_rational(slack)

    def worker(crng, m, off):
        bad = []
        for idx in range(m):
            if mode == "tropical":
                w1 = _random_wbar(n, crng)
                w2 = _random_wbar(n, crng)
                triple = horn_triple_tropical(w1, w2)
            elif mode == "hermitian":
                r = _random_cumsum_spectrum(n, crng)
                s = _random_cumsum_spectrum(n, crng)
                u = haar_unitary(n, crng)
                triple = HornTriple(r, s, _sum_spectrum(spectrum_of(r),
                                                        spectrum_of(s), u))
            else:
                r = _random_cumsum_spectrum(n, crng)
                s = _random_cumsum_spectrum(n, crng)
                a = sample_B_r(r, crng)
                c = sample_B_r(s, crng)
                triple = HornTriple(r, s, singular_l(mat_mul_c(a, c)))
            if not kt_member(triple, eps):
                bad.append(off + idx)
        return bad

    failures = _run_chunks(worker, count, rng)
    return ForwardReport(mode, n, count, eps, tuple(failures),
                         1.0 - len(failures) / count)


def exceptional_mass_estimate(r, s, count, slack, rng):
    """Fraction of hermitian-sum spectra whose triple fails cone membership.

    The forward theorem says this is exactly zero at any positive slack;
    a negative slack tightens the inequalities (the closing identity is
    tested at |slack|) and must yield a positive fraction, which makes the
    estimator falsifiable.
    """
    r, s = _float_pair(r, s)
    lam_r, lam_s = spectrum_of(r), spectrum_of(s)
    eps = as_rational(slack)

    def worker(crng, m, off):
        bad = 0
        for u in _haar_stream(len(r), m, crng):
            triple = HornTriple(r, s, _sum_spectrum(lam_r, lam_s, u))
            bad += not kt_member(triple, eps)
        return [bad]

    per_chunk = _run_chunks(worker, count, rng)
    return sum(per_chunk) / count
