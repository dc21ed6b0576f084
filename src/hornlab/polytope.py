"""Exact uniform sampling of interlacing patterns with a fixed top row.

The uniform law on the patterns below a top row is the Duistermaat-Heckman
measure of the Gelfand-Zeitlin torus action, and it factors row by row
(Olshanski 2013; Baryshnikov 2001): the GZ polytope below a spectrum mu
has volume proportional to the Vandermonde product Delta(mu), so given
the spectrum lam of one row, the spectrum mu of the next has density
proportional to Delta(mu) on the interlacing box prod_i [lam_{i+1}, lam_i].
gz_block draws a block of patterns row by row, each row by rejection from
that box with one numpy call per rejection round, so every pattern is an
independent exact sample and the sampler keeps no state.  It returns the
block as an array of slot values, and pattern_tableau turns one of its rows
back into a tableau; gz_pattern is a block of one row.
"""

from __future__ import annotations

import numpy as np

from .hive import GZ, Tableau
from .linalg import spectrum_of

# Proposals allowed per row before giving up.  At n = 5 a whole pattern
# takes about 33 proposals on average, on even spectra and on spectra with
# 1000:1 gap ratios alike.
_MAX_PROPOSALS = 100_000


def _top_spectrum(r):
    """r as floats and its spectrum, which must be strictly decreasing,
    otherwise the polytope has empty interior."""
    r = tuple(float(v) for v in r)
    lam = spectrum_of(r)
    if any(a <= b for a, b in zip(lam, lam[1:])):
        raise ValueError("top row gaps must be strictly decreasing")
    return r, lam


def _next_spectra(lam, rng):
    """For every row lam_j of the array lam, a spectrum mu_j interlacing it
    with density prop. to Delta(mu_j).

    Each round draws one box proposal for every row not yet accepted and
    accepts it with probability Delta(mu) / prod_{i<j} (lam_i - lam_{j+1}),
    a product of ratios each at most one, since mu_i - mu_j <= lam_i -
    lam_{j+1}.  The rows stay independent, and a row reads k + 1 uniforms
    per proposal, so a block of one row reads the stream proposal by
    proposal.  A width that is not a finite float would make every
    acceptance ratio 0, so it raises OverflowError before any proposal.
    """
    size, k = lam.shape[0], lam.shape[1] - 1
    i, j = np.triu_indices(k, 1)
    gap = lam[:, :-1] - lam[:, 1:]
    width = lam[:, i] - lam[:, j + 1]
    if not np.isfinite(width).all():
        raise OverflowError("interlacing box width out of the float range")
    mu = np.empty((size, k))
    pending = np.arange(size)
    for _ in range(_MAX_PROPOSALS):
        u = rng.random((pending.size, k + 1))
        prop = lam[pending, 1:] + u[:, :k] * gap[pending]
        accept = np.prod((prop[:, i] - prop[:, j]) / width[pending], axis=1)
        ok = u[:, k] < accept
        mu[pending[ok]] = prop[ok]
        pending = pending[~ok]
        if not pending.size:
            return mu
    raise RuntimeError("no interlacing row accepted in %d proposals"
                       % _MAX_PROPOSALS)


def gz_block(r, size, rng):
    """size independent uniform patterns below r, as a float array of
    shape (size, n(n+1)/2): row j holds pattern j's entries value(k, i) in
    the order k = 1..n, i = 1..k (the chamber's slot order), and its last n
    entries are r.

    An interlacing box whose width lam_i - lam_{j+1} leaves the float range
    raises OverflowError before any proposal is drawn.  Other values outside
    the float range give inf or nan entries, without a numpy warning; the
    caller decides what they mean.
    """
    r, lam = _top_spectrum(r)
    n = len(r)
    out = np.empty((size, n * (n + 1) // 2))
    out[:, n * (n - 1) // 2:] = r
    lam = np.tile(lam, (size, 1))
    with np.errstate(all="ignore"):
        for k in range(n - 1, 0, -1):
            lam = _next_spectra(lam, rng)
            out[:, k * (k - 1) // 2:k * (k + 1) // 2] = np.cumsum(lam, axis=1)
    return out


def gz_pattern(r, rng):
    """One pattern from gz_block's law, as a GZ tableau whose top row is r:
    a block of one row, read from rng as gz_block reads it."""
    return pattern_tableau(gz_block(r, 1, rng)[0])


def pattern_tableau(values):
    """The GZ tableau whose entries value(k, i), in gz_block's order, are
    values (one row of a gz_block array)."""
    values = [float(v) for v in values]
    rows, k = [(0.0,)], 0
    while len(values) > k * (k + 1) // 2:
        k += 1
        rows.append((0.0,) + tuple(values[k * (k - 1) // 2:k * (k + 1) // 2]))
    return Tableau(k, tuple(rows), GZ)
