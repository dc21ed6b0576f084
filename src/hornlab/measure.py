"""Monte Carlo comparison of the three product measures, and the scaling
limit experiment.

Each generator and estimator is one draw function, run by one block
runner: a run of `count` draws reads one child generator, spawned once
from the caller's rng, in blocks of at most 2048 (Haar unitaries from
linalg.haar_unitaries, patterns from polytope.gz_block) in block order.
The runner writes the blocks into one array, so the output is a function
of (seed, count) alone.

A sample carries its draws as one read-only float64 array of shape
(count, n), which the generators hand in straight from the runner;
ks_distance and the CLI read that array, and the tuple field vectors,
derived from it, is the same values for callers that want Python floats.

The spectra of D_r + U D_s U* need only absolute accuracy, so a whole
Haar block goes through linalg.l_map_block, one LAPACK eigvalsh call.  The
multiplicative generator's small singular values need accuracy relative to
themselves: a block of factors comes from linalg.b_factor_block, their
products from one numpy product, and the singular values from
linalg.singular_l_block, a one-sided Jacobi vectorised over the block.
Either raises on the first row it cannot map, and the run stops with that
error.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chamber import (WbarWeighting, find_delta0_chamber, gamma0_cached,
                      genericity_check, horn_triple_tropical, kappa_block)
from .hive import HornTriple, check_size, kt_member
from .linalg import (_pattern_and_phases, b_factor_block, haar_unitaries,
                     l_map_block, singular_l, singular_l_block, spectrum_of)
from .paths import complex_lift, m_k
from .polytope import gz_block
from .semiring import TROPICAL, as_rational

BLOCK = 2048


@dataclass(frozen=True)
class EmpiricalSample:
    """A batch of cumulative spectra drawn from one generator.

    vectors is the tuple of count n-tuples of floats.  array holds the same
    values once, as one read-only float64 array of shape (count, n), and
    the numeric readers (ks_distance, the CLI) use it.  The generators hand
    in the array alone and vectors is derived from it; a sample built from
    vectors alone gets its array from them, once.  An array handed in is
    copied, so later writes to the caller's array do not reach the sample.
    A non-finite value, an array not of shape (count, n), and vectors and
    an array that disagree raise ValueError.  array takes no part in
    equality, hashing or repr."""

    generator: str
    n: int
    r: tuple
    s: tuple
    count: int
    vectors: tuple = None
    array: np.ndarray = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        arr = _vectors_array(self.vectors) if self.array is None \
            else np.array(self.array, dtype=float)
        if arr.shape != (self.count, self.n):
            raise ValueError("sample needs shape (count, n) = (%d, %d), "
                             "got %s" % (self.count, self.n, arr.shape))
        if not np.isfinite(arr).all():
            raise ValueError("sample values must be finite")
        if self.vectors is None:
            # columns zipped back into rows: n list objects, not one per draw
            object.__setattr__(self, "vectors", tuple(zip(*arr.T.tolist())))
        elif self.array is not None and \
                not np.array_equal(_vectors_array(self.vectors), arr):
            raise ValueError("sample vectors and array disagree")
        arr.flags.writeable = False
        object.__setattr__(self, "array", arr)


def _vectors_array(vectors):
    """A new float64 array of a tuple of equal-length vectors."""
    return np.array(vectors, dtype=float)


def _run_blocks(draw, count, rng):
    """One array of the count results of draw(child_rng, size), called in
    order on blocks of at most BLOCK of one child stream spawned from rng;
    row i is the i-th draw.  The first block sets the array's row shape
    and dtype, and every block is written into it in place.  A count below
    1 and a float overflow raise ValueError."""
    if count < 1:
        raise ValueError("count must be at least 1, got %d" % count)
    crng = rng.spawn(1)[0]
    out = None
    try:
        for start in range(0, count, BLOCK):
            block = np.asarray(draw(crng, min(BLOCK, count - start)))
            if out is None:
                out = np.empty((count,) + block.shape[1:], block.dtype)
            out[start:start + len(block)] = block
    except OverflowError as exc:  # spectra too large for float arithmetic
        raise ValueError("input out of the float range (%s)" % exc) from None
    return out


def _float_pair(r, s):
    r = tuple(float(v) for v in r)
    s = tuple(float(v) for v in s)
    if len(r) != len(s):
        raise ValueError("r and s must have the same length")
    return r, s


def _sum_spectra(r, s, us):
    """Cumulative spectra of D_r + U D_s U*, one row per unitary U of the
    block us, with D_r and D_s the diagonal matrices of the spectra of r
    and s: linalg.l_map_block of the block of these matrices, which raises
    OverflowError on a non-finite entry or Frobenius norm."""
    with np.errstate(all="ignore"):
        k = (us * spectrum_of(s)) @ us.conj().transpose(0, 2, 1)
        k += np.diag(spectrum_of(r))
    return l_map_block(k)


def sample_hermitian_sum(r, s, count, rng):
    """Spectra of D_r + U D_s U* with U Haar, as cumulative vectors."""
    r, s = _float_pair(r, s)
    n = len(r)

    def draw(crng, size):
        return _sum_spectra(r, s, haar_unitaries(n, size, crng))

    return EmpiricalSample("hermitian-sum", n, r, s, count,
                           array=_run_blocks(draw, count, rng))


def sample_multiplicative(r, s, count, rng):
    """Cumulative log singular values of products a c of independent
    factors a below r and c below s: each factor is a row of
    linalg.b_factor_block of an exact uniform pattern and uniform phases.
    A block draws the r patterns, then the s patterns, then the phases."""
    r, s = _float_pair(r, s)
    n = len(r)

    def draw(crng, size):
        us, vs = gz_block(r, size, crng), gz_block(s, size, crng)
        phases = crng.uniform(0.0, 2.0 * math.pi, (size, 2, n * (n - 1) // 2))
        return singular_l_block(b_factor_block(us, phases[:, 0])
                                @ b_factor_block(vs, phases[:, 1]))

    return EmpiricalSample("multiplicative", n, r, s, count,
                           array=_run_blocks(draw, count, rng))


def sample_tropical_kappa(r, s, count, rng):
    """Tropical product spectra kappa(u, v) of independent exact uniform
    patterns u below r and v below s.  Each block of pairs is drawn by
    polytope.gz_block (the u block, then the v block) and mapped by
    chamber.kappa_block, which certifies every float result or computes it
    exactly.  n must lie in 1..hive.MAX_N."""
    r, s = _float_pair(r, s)
    n = len(r)
    check_size(n)
    chamber = find_delta0_chamber(n)

    def draw(crng, size):
        us, vs = gz_block(r, size, crng), gz_block(s, size, crng)
        return kappa_block(us, vs, chamber)[0]

    return EmpiricalSample("tropical-kappa", n, r, s, count,
                           array=_run_blocks(draw, count, rng))


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
    """The values of sample.array along projection: None for n = 1, a
    coordinate index in 0..n-1, or a finite direction of length n."""
    arr, n = sample.array, sample.n
    if projection is None:
        if n != 1:
            raise ValueError("projection required for multivariate samples")
        return arr[:, 0]
    try:  # any integer is a coordinate; a bool is refused, not read as 0/1
        i = -1 if isinstance(projection, bool) else operator.index(projection)
    except TypeError:
        v = np.asarray(projection, dtype=float)
        if v.shape != (n,) or not np.isfinite(v).all():
            raise ValueError("a projection direction must be %d finite "
                             "numbers" % n) from None
        return arr @ v
    if not 0 <= i < n:
        raise ValueError("coordinate %r is outside 0..%d" % (projection, n - 1))
    return arr[:, i]


def ks_distance(x, y, projection=None):
    """Two-sample KS statistic, or one-sample against a CDF callable.

    Both samples are read through their float64 arrays and must have the
    same n; a projection outside the samples' coordinates or of the wrong
    length raises ValueError, and so does a CDF that does not give one
    value in [0, 1] per sorted point."""
    if not callable(y) and y.n != x.n:
        raise ValueError("samples of different n (%d and %d)" % (x.n, y.n))
    xa = np.sort(_project(x, projection))
    nx = len(xa)
    if callable(y):
        f = np.asarray(y(xa), dtype=float)
        # NaN fails both comparisons
        if f.shape != (nx,) or not ((f >= 0.0) & (f <= 1.0)).all():
            raise ValueError("the CDF must give %d values in [0, 1]" % nx)
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


def _sweep_error(g, wdict, phases, tau, ms):
    """The worst gap at scale tau between the cumulative log singular values
    over tau and the tropical minors ms; inf if a scaled entry overflows or
    the smallest singular value underflows."""
    mat = complex_lift(g, wdict, phases, tau)
    shift = tau * ms[0]
    scale = math.exp(-shift)
    scaled = [[x * scale for x in row] for row in mat]
    if not all(math.isfinite(abs(x)) for row in scaled for x in row):
        return math.inf
    try:
        ls = singular_l(scaled)
    except ValueError:
        # the path matrix's determinant is the product of its nonzero
        # diagonal weights, so a zero singular value is float underflow
        return math.inf
    return max(abs((ls[i] + (i + 1) * shift) / tau - ms[i])
               for i in range(len(ms)))


def limit_sweep(w, taus, phases=None):
    """Error between rescaled log singular values and the tropical minors.

    For each tau the weighting is exponentiated at scale tau, the cumulative
    log singular values are divided by tau, and the worst coordinate gap to
    the exact tropical values is recorded.  The slope of log-error against
    tau (over points above the 1e-13 floor) estimates the decay rate, to be
    compared with the genericity margin delta.  The taus must be distinct,
    positive and finite; one at which the lift, the error or the smallest
    singular value leaves the float range raises ValueError.
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
    if not all(0 < tau < math.inf for tau in taus):
        raise ValueError("every tau must be positive and finite")
    if len(set(taus)) != len(taus):
        raise ValueError("taus must be distinct")
    errors = []
    for tau in taus:
        try:
            err = _sweep_error(g, wdict, phases, tau, ms)
        except OverflowError:
            err = math.inf
        if not math.isfinite(err):
            raise ValueError("tau=%r is out of the float range for this "
                             "weighting" % tau)
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


def _random_wbar(n, crng):
    nd, denom = n * (n - 1) // 2, 1 << 20
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
    multiplicative draw random spectra; multiplicative then draws a
    pattern and phases below each spectrum, as sample_B_r reads them, and
    maps the block's factors through b_factor_block and singular_l_block
    at once.  Each instance is drawn whole before the next, so the block
    size does not change the output.  n must lie in 1..hive.MAX_N.
    """
    if mode not in ("tropical", "hermitian", "multiplicative"):
        raise ValueError("unknown mode %r" % (mode,))
    check_size(n)
    eps = as_rational(slack)

    def triple(crng):
        if mode == "tropical":
            return horn_triple_tropical(_random_wbar(n, crng),
                                        _random_wbar(n, crng))
        r = _random_cumsum_spectrum(n, crng)
        s = _random_cumsum_spectrum(n, crng)
        c = _sum_spectra(r, s, haar_unitaries(n, 1, crng))[0].tolist()
        return HornTriple(r, s, c)

    def multiplicative(crng, size):
        spectra, factors = [], []
        for _ in range(size):
            r = _random_cumsum_spectrum(n, crng)
            s = _random_cumsum_spectrum(n, crng)
            spectra.append((r, s))
            factors.append(_pattern_and_phases(r, crng)
                           + _pattern_and_phases(s, crng))
        us, pus, vs, pvs = (np.concatenate(f) for f in zip(*factors))
        cs = singular_l_block(b_factor_block(us, pus) @ b_factor_block(vs, pvs))
        return [HornTriple(r, s, c) for (r, s), c in zip(spectra, cs.tolist())]

    def draw(crng, size):
        triples = multiplicative(crng, size) if mode == "multiplicative" \
            else [triple(crng) for _ in range(size)]
        return [kt_member(t, eps) for t in triples]

    passed = _run_blocks(draw, count, rng)
    failures = tuple(np.flatnonzero(~passed).tolist())
    return ForwardReport(mode, n, count, eps, failures,
                         1.0 - len(failures) / count)


def exceptional_mass_estimate(r, s, count, slack, rng):
    """Fraction of hermitian-sum spectra whose triple fails cone membership.

    The forward theorem says this is exactly zero at any positive slack;
    a negative slack tightens the inequalities (the closing identity is
    tested at |slack|) and must yield a positive fraction, which makes the
    estimator falsifiable.  n must lie in 1..hive.MAX_N.
    """
    r, s = _float_pair(r, s)
    n = len(r)
    check_size(n)
    eps = as_rational(slack)

    def draw(crng, size):
        spectra = _sum_spectra(r, s, haar_unitaries(n, size, crng))
        return [not kt_member(HornTriple(r, s, c), eps)
                for c in spectra.tolist()]

    return int(np.count_nonzero(_run_blocks(draw, count, rng))) / count
