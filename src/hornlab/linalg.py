"""Dense Hermitian and triangular linear algebra at desk scale.

The solvers work on small nested lists of Python complex.  eigh is a
two-sided Jacobi iteration, used where eigenvectors or an independent
route are wanted: gz_H, the bordering behind reconstruct_H and b_factor,
and the tests' oracle.  Singular values come from a one-sided Jacobi on
columns (chosen for its relative accuracy on badly scaled matrices: the
sweeps compare column Grams, not absolute magnitudes, so a singular value
of 1e-13 next to one of 1e+13 still comes out to full relative precision).
Haar unitaries come as numpy blocks from one QR call; the Monte Carlo
generators build whole blocks of matrices from them in numpy, and take
Hermitian-sum spectra from one LAPACK eigvalsh call per block (see
measure._sum_spectra).  The multiplicative generator takes a block of
triangular factors from b_factor_block, which borders with LAPACK eigh
and factors with LAPACK Cholesky, and their products' singular values from
singular_l_block, the same one-sided Jacobi vectorised over the block; each
flags the rows that the scalar b_factor and singular_l, kept as oracle and
fallback, must take.

The matrix size never exceeds a handful here, so the quadratic little loops
are both fast enough and easy to audit.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .hive import GZ, Tableau

_EIGH_TOL = 1e-13
_MAX_SWEEPS = 100


def frobenius(a):
    return math.sqrt(sum(abs(x) ** 2 for row in a for x in row))


def _rotation(app, aqq, apq):
    """Parameters (c, s, e) of the plane rotation that kills a 2x2 Hermitian
    off-diagonal entry apq; columns transform as
        p' = c p + e s q,   q' = -s p + e c q,   e = conj(apq)/|apq|."""
    ab = abs(apq)
    theta = 0.5 * math.atan2(2.0 * ab, app - aqq)
    return math.cos(theta), math.sin(theta), apq.conjugate() / ab


def eigh(k):
    """Eigenvalues (descending) and eigenvectors of a Hermitian matrix.

    Classical cyclic Jacobi; terminates when the off-diagonal Frobenius
    norm drops below 1e-13 of the matrix norm.  Eigenvectors are returned
    as columns, each normalized so its largest-magnitude entry (first such
    index on ties) is real and positive, which makes the output a pure
    function of the input.  A matrix whose Frobenius norm is not a finite
    float raises OverflowError: the stopping test could not compare.
    """
    n = len(k)
    nrm = frobenius(k)
    if not math.isfinite(nrm):
        raise OverflowError("matrix norm out of the float range")
    herm_defect = math.sqrt(sum(abs(k[i][j] - k[j][i].conjugate()) ** 2
                                for i in range(n) for j in range(n)))
    if herm_defect > 1e-10 * max(1.0, nrm):
        raise ValueError("matrix is not Hermitian")
    m = [[complex(x) for x in row] for row in k]
    # symmetrize exactly so rounding in the input cannot bias the sweeps
    for i in range(n):
        m[i][i] = complex(m[i][i].real, 0.0)
        for j in range(i + 1, n):
            avg = 0.5 * (m[i][j] + m[j][i].conjugate())
            m[i][j] = avg
            m[j][i] = avg.conjugate()
    u = [[1.0 + 0j if i == j else 0j for j in range(n)] for i in range(n)]
    if nrm == 0.0:
        return [0.0] * n, u

    for _ in range(_MAX_SWEEPS):
        off = math.sqrt(2.0 * sum(abs(m[i][j]) ** 2
                                  for i in range(n) for j in range(i + 1, n)))
        if off <= _EIGH_TOL * nrm:
            break
        for p in range(n):
            for q in range(p + 1, n):
                b = m[p][q]
                if b == 0j:
                    continue
                c, s, e = _rotation(m[p][p].real, m[q][q].real, b)
                es = e * s
                ec = e * c
                for i in range(n):
                    mp, mq = m[i][p], m[i][q]
                    m[i][p] = c * mp + es * mq
                    m[i][q] = -s * mp + ec * mq
                ce = e.conjugate()
                for j in range(n):
                    mp, mq = m[p][j], m[q][j]
                    m[p][j] = c * mp + ce * s * mq
                    m[q][j] = -s * mp + ce * c * mq
                for i in range(n):
                    up, uq = u[i][p], u[i][q]
                    u[i][p] = c * up + es * uq
                    u[i][q] = -s * up + ec * uq
    else:
        raise RuntimeError("Jacobi iteration failed to converge")

    pairs = sorted(((m[j][j].real, j) for j in range(n)),
                   key=lambda t: -t[0])
    vals = [v for v, _ in pairs]
    cols = []
    for _, j in pairs:
        col = [u[i][j] for i in range(n)]
        piv = 0
        for i in range(1, n):
            if abs(col[i]) > abs(col[piv]):
                piv = i
        ph = col[piv]
        if ph != 0j:
            f = ph.conjugate() / abs(ph)
            col = [x * f for x in col]
        cols.append(col)
    vecs = [[cols[j][i] for j in range(n)] for i in range(n)]
    return vals, vecs


def l_map(k):
    """Cumulative sums of the eigenvalues, largest first."""
    vals, _ = eigh(k)
    out = []
    acc = 0.0
    for v in vals:
        acc += v
        out.append(acc)
    return tuple(out)


def _block(a, idx):
    return [[a[i][j] for j in idx] for i in idx]


def gz_H(k):
    """Pattern of cumulative spectra of nested principal blocks.

    Row j comes from the trailing j x j block (bottom-right corner).
    """
    n = len(k)
    rows = [(0.0,)]
    for j in range(1, n + 1):
        rows.append((0.0,) + l_map(_block(k, range(n - j, n))))
    return Tableau(n, tuple(rows), GZ)


def singular_l(a):
    """Cumulative logs of the singular values of an invertible matrix.

    Equivalently half the cumulative log-eigenvalues of a a*.  One-sided
    Jacobi: columns are rotated until pairwise orthogonal, with a relative
    convergence test, then the norms are the singular values.
    """
    n = len(a)
    cols = [[complex(a[i][j]) for i in range(n)] for j in range(n)]
    for _ in range(_MAX_SWEEPS):
        rotated = False
        for p in range(n):
            for q in range(p + 1, n):
                cp, cq = cols[p], cols[q]
                app = sum(abs(x) ** 2 for x in cp)
                aqq = sum(abs(x) ** 2 for x in cq)
                if app == 0.0 or aqq == 0.0:
                    raise ValueError("matrix is singular")
                apq = sum(x.conjugate() * y for x, y in zip(cp, cq))
                if abs(apq) <= 1e-15 * math.sqrt(app * aqq):
                    continue
                c, s, e = _rotation(app, aqq, apq)
                es = e * s
                ec = e * c
                for i in range(n):
                    xp, xq = cp[i], cq[i]
                    cp[i] = c * xp + es * xq
                    cq[i] = -s * xp + ec * xq
                rotated = True
        if not rotated:
            break
    else:
        raise RuntimeError("one-sided Jacobi failed to converge")
    sig = sorted((math.sqrt(sum(abs(x) ** 2 for x in col)) for col in cols),
                 reverse=True)
    if sig[-1] == 0.0 or not all(map(math.isfinite, sig)):
        raise ValueError("matrix is singular")
    out = []
    acc = 0.0
    for v in sig:
        acc += math.log(v)
        out.append(acc)
    return tuple(out)


def _sq_norms(cols):
    """Squared norms along the last axis, summed as singular_l sums them."""
    return (np.abs(cols) ** 2).sum(axis=-1)


def singular_l_block(a):
    """singular_l of each matrix of a complex block of shape (size, n, n),
    as (values, bad).

    The same one-sided Jacobi, vectorised over the block: each sweep visits
    the column pairs in singular_l's order and rotates a pair of a matrix
    only when it fails singular_l's relative test, and only the matrices
    that rotated in a sweep take the next one.  So each matrix gets
    singular_l's arithmetic and its relative accuracy.  bad flags every row
    that singular_l might refuse, whose values are then unspecified: a
    non-finite entry or result, a zero singular value, or no convergence
    within the sweep limit."""
    n = a.shape[1]
    cols = np.array(a.transpose(0, 2, 1), dtype=complex)  # cols[:, j] is column j
    with np.errstate(all="ignore"):
        bad = ~np.isfinite(cols).all(axis=(1, 2))
        active = np.flatnonzero(~bad)
        for _ in range(_MAX_SWEEPS):
            if not active.size:
                break
            w = cols[active]
            rotated = np.zeros(active.size, dtype=bool)
            for p in range(n):
                for q in range(p + 1, n):
                    cp, cq = w[:, p].copy(), w[:, q]
                    app, aqq = _sq_norms(cp), _sq_norms(cq)
                    apq = (cp.conj() * cq).sum(axis=1)
                    ab = np.abs(apq)
                    # a zero column never rotates, and its zero singular
                    # value is flagged below
                    rot = ~(ab <= 1e-15 * np.sqrt(app * aqq))
                    if not rot.any():
                        continue
                    # the identity rotation (c, s, e) = (1, 0, 1) leaves a
                    # pair that passes the test exactly as it is
                    theta = np.where(rot, 0.5 * np.arctan2(2.0 * ab, app - aqq),
                                     0.0)
                    c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
                    e = np.where(rot, apq.conj() / np.where(rot, ab, 1.0),
                                 1.0)[:, None]
                    es, ec = e * s, e * c
                    w[:, p] = c * cp + es * cq
                    w[:, q] = -s * cp + ec * cq
                    rotated |= rot
            cols[active] = w
            finite = np.isfinite(w).all(axis=(1, 2))
            bad[active[~finite]] = True
            active = active[rotated & finite]
        bad[active] = True  # still rotating after the last sweep
        sig = -np.sort(-np.sqrt(_sq_norms(cols)), axis=1)
        bad |= ~(sig[:, -1] > 0.0) | ~np.isfinite(sig).all(axis=1)
        return np.cumsum(np.log(sig), axis=1), bad


def haar_unitaries(n, count, rng):
    """count Haar-distributed unitaries, an array of shape (count, n, n),
    via QR of complex Ginibre matrices with the R diagonal phase fixed so
    the distribution is exactly invariant.  One QR call serves the batch,
    and the stream is read draw by draw: a block is the sequence of the
    blocks of one that the same stream would give."""
    g = rng.standard_normal((count, 2, n, n))
    z = g[:, 0] + 1j * g[:, 1]
    z *= 1.0 / math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def spectrum_of(r):
    """Gaps of a cumulative vector: the spectrum it encodes."""
    out = []
    prev = 0.0
    for v in r:
        out.append(float(v) - prev)
        prev = float(v)
    return out


def upper_cholesky(p):
    """Upper-triangular a with positive diagonal and a a* = p.

    Reverse both index orders, take the classical lower Cholesky factor,
    and reverse back; positive definiteness is required.
    """
    n = len(p)
    rp = [[p[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]
    low = [[0j] * n for _ in range(n)]
    for j in range(n):
        acc = rp[j][j].real - sum(abs(low[j][t]) ** 2 for t in range(j))
        if acc <= 0.0:
            raise ValueError("matrix is not positive definite")
        low[j][j] = complex(math.sqrt(acc), 0.0)
        for i in range(j + 1, n):
            v = rp[i][j] - sum(low[i][t] * low[j][t].conjugate() for t in range(j))
            low[i][j] = v / low[j][j]
    return [[low[n - 1 - i][n - 1 - j] for j in range(n)] for i in range(n)]


def _bordered(k, lam, theta):
    """Extend a Hermitian matrix by one row and column so the new spectrum
    is lam while the old one survives as the trailing block.

    In the eigenbasis of k the border magnitudes are forced: with mu the
    current spectrum, |b_j|^2 = -prod_i(mu_j - lam_i) / prod_{i != j}
    (mu_j - mu_i), which is positive exactly when lam strictly interlaces
    mu; theta supplies the free phases.
    """
    kk = len(k)
    mu, vecs = eigh(k)
    a00 = sum(lam) - sum(mu)
    cvec = []
    for j in range(kk):
        num = 1.0
        for lv in lam:
            num *= (mu[j] - lv)
        num = -num
        den = 1.0
        for i in range(kk):
            if i != j:
                den *= (mu[j] - mu[i])
        w2 = num / den
        if not (w2 > 0.0) or not math.isfinite(w2):
            raise ValueError("spectra do not strictly interlace")
        cvec.append(math.sqrt(w2) * cmath.exp(1j * theta[j]))
    b = [sum(vecs[i][j] * cvec[j] for j in range(kk)) for i in range(kk)]
    out = [[0j] * (kk + 1) for _ in range(kk + 1)]
    out[0][0] = complex(a00, 0.0)
    for i in range(kk):
        out[i + 1][0] = b[i]
        out[0][i + 1] = b[i].conjugate()
        for j in range(kk):
            out[i + 1][j + 1] = k[i][j]
    return out


def _reconstruct_from_spectra(spectra, angles):
    k = [[complex(spectra[0][0], 0.0)]]
    for lvl in range(1, len(spectra)):
        k = _bordered(k, spectra[lvl], angles[lvl - 1])
    return k


def reconstruct_H(xi, angles):
    """A Hermitian matrix whose trailing-block pattern is xi.

    xi must be strictly interior (consecutive rows strictly interlace) and
    angles supplies the torus coordinates of the fiber: row k of angles has
    k phases, k = 1..n-1.
    """
    n = xi.n
    if len(angles) != n - 1 or any(len(angles[k]) != k + 1 for k in range(n - 1)):
        raise ValueError("angles must have rows of lengths 1..n-1")
    spectra = [spectrum_of(xi.rows[k][1:]) for k in range(1, n + 1)]
    return _reconstruct_from_spectra(spectra, angles)


def b_factor(values, phases):
    """Upper-triangular matrix with positive diagonal whose trailing k x k
    block has row k of a pattern as cumulative log singular values: the
    reversed Cholesky factor of the positive matrix with exponentiated
    trailing spectra and torus coordinates phases (k of them for row k).
    values are in gz_block's slot order; a non-finite one raises
    OverflowError, as math.exp does on a finite one too large."""
    if not all(map(math.isfinite, values)):
        raise OverflowError("non-finite pattern entry")
    n = (math.isqrt(8 * len(values) + 1) - 1) // 2
    rows = [values[k * (k - 1) // 2:k * (k + 1) // 2] for k in range(1, n + 1)]
    spectra = [[math.exp(2.0 * g) for g in spectrum_of(row)] for row in rows]
    angles = [phases[k * (k - 1) // 2:k * (k + 1) // 2]
              for k in range(1, n)]
    return upper_cholesky(_reconstruct_from_spectra(spectra, angles))


def _eigh_block(k):
    """Eigenvalues (descending) and eigenvectors of a block of Hermitian
    matrices from one LAPACK call, each eigenvector normalised as eigh
    normalises it: its largest-magnitude entry, the first on ties, real
    and positive."""
    mu, vecs = np.linalg.eigh(k)
    mu, vecs = mu[:, ::-1], vecs[:, :, ::-1]
    piv = np.abs(vecs).argmax(axis=1)[:, None, :]
    ph = np.take_along_axis(vecs, piv, axis=1)
    return mu, vecs * (ph.conj() / np.abs(ph))


def b_factor_block(values, phases):
    """b_factor of each row of a gz_block array values with the same row of
    phases (shape (size, n(n-1)/2)), as (factors, bad).

    Each level borders the whole block through one LAPACK eigh call, and
    the factors come from one reversed LAPACK Cholesky call; with eigh's
    eigenvector normalisation each row is b_factor's to rounding.  bad
    flags every row b_factor might refuse, whose factor is then
    unspecified: a non-finite pattern entry, spectrum, border weight or
    matrix entry, or a border weight |b_j|^2 <= 0.  A Cholesky call that
    finds a matrix not positive definite flags the whole block."""
    values = np.asarray(values, dtype=float)
    size = values.shape[0]
    n = (math.isqrt(8 * values.shape[1] + 1) - 1) // 2
    eye = np.broadcast_to(np.eye(n, dtype=complex), (size, n, n))
    with np.errstate(all="ignore"):
        spectra = [np.exp(2.0 * np.diff(values[:, k * (k - 1) // 2:
                                               k * (k + 1) // 2],
                                        axis=1, prepend=0.0))
                   for k in range(1, n + 1)]
        bad = ~np.isfinite(values).all(axis=1)
        for lam in spectra:
            bad |= ~np.isfinite(lam).all(axis=1)
        # a flagged row carries an identity matrix, so LAPACK sees only
        # finite Hermitian input
        k = np.where(bad[:, None, None], 1.0, spectra[0][:, :, None] + 0j)
        for lvl in range(1, n):
            lam = spectra[lvl]
            theta = phases[:, lvl * (lvl - 1) // 2:lvl * (lvl + 1) // 2]
            mu, vecs = _eigh_block(k)
            num = -np.prod(mu[:, :, None] - lam[:, None, :], axis=2)
            gaps = mu[:, :, None] - mu[:, None, :]
            gaps[:, range(lvl), range(lvl)] = 1.0
            w2 = num / np.prod(gaps, axis=2)
            bad |= ~((w2 > 0.0) & np.isfinite(w2)).all(axis=1)
            b = (vecs * (np.sqrt(w2) * np.exp(1j * theta))[:, None, :]).sum(axis=2)
            new = np.empty((size, lvl + 1, lvl + 1), dtype=complex)
            new[:, 0, 0] = lam.sum(axis=1) - mu.sum(axis=1)
            new[:, 1:, 0] = b
            new[:, 0, 1:] = b.conj()
            new[:, 1:, 1:] = k
            bad |= ~np.isfinite(new).all(axis=(1, 2))
            k = np.where(bad[:, None, None], eye[:, :lvl + 1, :lvl + 1], new)
    try:
        return np.linalg.cholesky(k[:, ::-1, ::-1])[:, ::-1, ::-1], bad
    except np.linalg.LinAlgError:
        return eye.copy(), np.ones(size, dtype=bool)


def sample_B_r(r, rng):
    """Random upper-triangular matrix with positive diagonal whose
    cumulative log singular values equal r: b_factor of one exact uniform
    pattern below r (polytope.gz_block) and uniform phases, read from rng
    in that order."""
    from .polytope import gz_block

    n = len(r)
    values = gz_block(r, 1, rng)[0].tolist()
    return b_factor(values, rng.uniform(0.0, 2.0 * math.pi,
                                        size=n * (n - 1) // 2).tolist())
