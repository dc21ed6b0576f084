"""Dense Hermitian and triangular linear algebra at desk scale.

Hermitian spectra have one route, on numpy blocks: l_map_block takes the
cumulative eigenvalues of a whole block from one LAPACK eigvalsh call
(measure._sum_spectra), and l_map, on which gz_H reads each trailing block,
is a block of one.  Eigenvalues need only absolute accuracy, which the
backward-stable eigvalsh gives (Weyl's inequality); the two-sided Jacobi
eigh, with eigenvectors, lives in tests/oracles.py as the route the tests
compare against.  Haar unitaries come as numpy blocks from Gram-Schmidt
run twice on column arrays (_q_factor), with no LAPACK call; the
phase-fixed QR route lives in tests/oracles.py as its oracle.

The multiplicative model has one route, on numpy blocks; a single matrix
is a block of one.  _bordered extends a block of Hermitian matrices level
by level and carries each level's eigenvectors in closed form from its
border weights, with no LAPACK call (reconstruct_H), b_factor_block takes
the reversed LAPACK Cholesky factors of the bordered exponentiated spectra
(sample_B_r), and singular_l_block takes cumulative log singular values
by a one-sided Jacobi on columns vectorised over the block (singular_l),
chosen for its relative accuracy on badly scaled matrices.  It holds the
block as n contiguous (size, n) column arrays, and a matrix whose sweep
made no rotation retires from them into its own row of the result.  Each
raises on the first matrix it cannot map.

The matrix size never exceeds a handful here, so the Python loops over
levels and column pairs are both fast enough and easy to audit.
"""

from __future__ import annotations

import math

import numpy as np

from .hive import GZ, Tableau

_MAX_SWEEPS = 100
_NORM_RANGE = "column norms out of the float range"


def l_map_block(k):
    """Cumulative eigenvalues, largest first, of each matrix of a complex
    Hermitian block of shape (size, n, n), one row per matrix.

    One LAPACK eigvalsh call serves the block.  Only absolute accuracy is
    needed: by Weyl's inequality each eigenvalue is off by at most the
    backward error, a small multiple of eps * |K|.  A non-finite entry or
    Frobenius norm raises OverflowError."""
    with np.errstate(all="ignore"):
        if not np.isfinite(k).all():
            raise OverflowError("non-finite matrix entry")
        if not np.isfinite(np.linalg.norm(k, axis=(1, 2))).all():
            raise OverflowError("matrix norm out of the float range")
    return np.cumsum(np.linalg.eigvalsh(k)[:, ::-1], axis=1)


def l_map(k):
    """Cumulative sums of the eigenvalues of a Hermitian matrix, largest
    first: l_map_block on a block of one, of the average of k and k*.  A
    Frobenius norm past the float range raises OverflowError, and a matrix
    further than 1e-10 max(1, |k|) from Hermitian raises ValueError."""
    a = np.array(k, dtype=complex)
    with np.errstate(all="ignore"):
        nrm = np.linalg.norm(a)
        if not math.isfinite(nrm):
            raise OverflowError("matrix norm out of the float range")
        if np.linalg.norm(a - a.conj().T) > 1e-10 * max(1.0, nrm):
            raise ValueError("matrix is not Hermitian")
        a += 0.5 * (a.conj().T - a)  # exactly a when a is Hermitian
    return tuple(l_map_block(a[None])[0].tolist())


def gz_H(k):
    """Pattern of cumulative spectra of nested principal blocks.

    Row j comes from the trailing j x j block (bottom-right corner).
    """
    n = len(k)
    a = np.array(k, dtype=complex)
    rows = [(0.0,)]
    for j in range(1, n + 1):
        rows.append((0.0,) + l_map(a[n - j:, n - j:]))
    return Tableau(n, tuple(rows), GZ)


def singular_l(a):
    """Cumulative logs of the singular values of an invertible matrix,
    equivalently half the cumulative log-eigenvalues of a a*: singular_l_block
    on a block of one."""
    return tuple(singular_l_block(np.array([a], dtype=complex))[0].tolist())


def _sq_norms(cols):
    """Squared norms of the rows of a complex (size, n) array, summed over
    its float view: re^2 + im^2, with no complex abs."""
    f = cols.view(float)
    return np.einsum("ij,ij->i", f, f)


def singular_l_block(a):
    """Cumulative log singular values of each matrix of a complex block of
    shape (size, n, n), one row per matrix.

    One-sided Jacobi vectorised over the block: each sweep visits the column
    pairs in order and rotates a pair of a matrix only when it fails the
    relative test |apq| <= 1e-15 sqrt(app) sqrt(aqq), two roots so that the
    bound does not overflow before the norms do.  Comparing column Grams,
    not absolute magnitudes, keeps the relative accuracy on matrices with
    badly scaled columns: a singular value of 1e-13 next to one of 1e+13
    still comes out to full relative precision.

    The block is held as n contiguous column arrays of shape (size, n), row
    i of array j being column j of matrix i, and norms and Grams are einsum
    row sums.  A matrix whose sweep made no rotation retires: its squared
    column norms are written to its row of the result and it leaves the
    column arrays, so each sweep works on the matrices still rotating.
    Every row is computed as in a block of one.  A non-finite entry or a
    zero singular value raises ValueError, squared column norms past the
    float range raise OverflowError, and no convergence within the sweep
    limit raises RuntimeError."""
    size, n = a.shape[:2]
    if not np.isfinite(a).all():
        raise ValueError("matrix is singular")
    cols = [np.ascontiguousarray(a[:, :, j], dtype=complex) for j in range(n)]
    sq = np.empty((size, n))
    active = np.arange(size)
    with np.errstate(all="ignore"):
        for _ in range(_MAX_SWEEPS):
            if not active.size:
                break
            rotated = np.zeros(active.size, dtype=bool)
            for p in range(n):
                for q in range(p + 1, n):
                    cp, cq = cols[p], cols[q]
                    app, aqq = _sq_norms(cp), _sq_norms(cq)
                    apq = np.einsum("ij,ij->i", cp.conj(), cq)
                    ab = np.abs(apq)
                    # a zero column never rotates, and its zero singular
                    # value is refused below
                    rot = ~(ab <= 1e-15 * np.sqrt(app) * np.sqrt(aqq))
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
                    cols[p] = c * cp + es * cq
                    cols[q] = -s * cp + ec * cq
                    rotated |= rot
            if not all(np.isfinite(col.view(float)).all() for col in cols):
                raise OverflowError(_NORM_RANGE)
            if not rotated.all():
                done = ~rotated
                sq[active[done]] = np.column_stack([_sq_norms(col[done])
                                                    for col in cols])
                cols = [col[rotated] for col in cols]
                active = active[rotated]
        if active.size:
            raise RuntimeError("one-sided Jacobi failed to converge")
        if not np.isfinite(sq).all():
            raise OverflowError(_NORM_RANGE)
        sig = -np.sort(-np.sqrt(sq), axis=1)
        if not (sig[:, -1] > 0.0).all():
            raise ValueError("matrix is singular")
        return np.cumsum(np.log(sig), axis=1)


def _q_factor(z):
    """The Q factor with positive real R diagonal of each matrix of a
    complex block z of shape (size, n, n), as an array of the same shape.

    Modified Gram-Schmidt, run twice on each column, on n contiguous (size,
    n) column arrays: inner products are einsum row sums and norms
    _sq_norms over float views.  Two passes keep Q orthonormal to working
    precision (Giraud, Langou and Rozloznik 2005), and dividing each column
    by its own norm makes the R diagonal real and positive, so Q is the
    phase-fixed QR factor.  Every row is computed as in a block of one."""
    cols = list(z.transpose(2, 0, 1).copy())
    for j, v in enumerate(cols):
        for _ in range(2):
            for q in cols[:j]:
                v -= np.einsum("ij,ij->i", q.conj(), v)[:, None] * q
        v /= np.sqrt(_sq_norms(v))[:, None]
    return np.stack(cols, axis=2)


def _ginibre(n, count, rng):
    """count complex Ginibre matrices of size n, an array of shape (count,
    n, n) read from one standard_normal((count, 2, n, n)) call: draw by
    draw, real part before imaginary part.  The entries are left unscaled,
    since the 1/sqrt(2) of the standard ensemble cancels in _q_factor."""
    g = rng.standard_normal((count, 2, n, n))
    return g[:, 0] + 1j * g[:, 1]


def haar_unitaries(n, count, rng):
    """count Haar-distributed unitaries, an array of shape (count, n, n):
    the Q factors with positive R diagonal of complex Ginibre matrices
    (Mezzadri 2007), one _q_factor call for the batch.  A block is the
    sequence of the blocks of one that the same stream would give."""
    return _q_factor(_ginibre(n, count, rng))


def spectrum_of(r):
    """Gaps of a cumulative vector: the spectrum it encodes."""
    out = []
    prev = 0.0
    for v in r:
        out.append(float(v) - prev)
        prev = float(v)
    return out


def _arrowhead_vectors(vecs, c, mu, lam):
    """Unit eigenvectors of each bordered matrix [[a, b*], [b, K]] of a
    block, b = vecs c, where K has spectrum mu (descending) with unit
    eigenvectors the columns of vecs and the bordered matrix has spectrum
    lam (descending): column i, for lam_i, is [1 ; vecs (c_j / (lam_i -
    mu_j))_j] (Loewner; Gu and Eisenstat 1995), divided by its
    largest-magnitude entry (the first on ties) and then by its norm: the
    normalisation of the Jacobi eigh in tests/oracles.py, so each level
    borders as the scalar route does.  vecs, c, mu and lam have shapes
    (size, k, k), (size, k), (size, k) and (size, k + 1)."""
    size, k = mu.shape
    x = np.empty((size, k + 1, k + 1), dtype=complex)
    x[:, 0] = 1.0
    x[:, 1:] = vecs @ (c[:, :, None] / (lam[:, None, :] - mu[:, :, None]))
    piv = np.abs(x).argmax(axis=1)[:, None, :]
    x /= np.take_along_axis(x, piv, axis=1)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def _bordered(spectra, phases):
    """A block of Hermitian matrices whose trailing k x k blocks have the
    spectra spectra[k - 1] (arrays of shape (size, k), k = 1..n, each
    descending), with torus coordinates phases (shape (size, n(n-1)/2), k
    of them for level k).

    Each level extends the whole block by one row and column.  In the
    eigenbasis of the current block, with mu its spectrum and lam the next
    one, the border magnitudes are forced: |c_j|^2 = -prod_i(mu_j - lam_i) /
    prod_{i != j}(mu_j - mu_i), which is positive exactly when lam strictly
    interlaces mu.  The eigenvectors of the next level follow from the
    border in closed form (_arrowhead_vectors), so no level calls LAPACK.
    A weight that is not positive raises ValueError, and one that is
    positive but not a finite float raises OverflowError."""
    size, n = spectra[0].shape[0], len(spectra)
    k = spectra[0][:, :, None] + 0j
    vecs = np.ones((size, 1, 1), dtype=complex)
    with np.errstate(all="ignore"):
        for lvl in range(1, n):
            mu, lam = spectra[lvl - 1], spectra[lvl]
            theta = phases[:, lvl * (lvl - 1) // 2:lvl * (lvl + 1) // 2]
            num = -np.prod(mu[:, :, None] - lam[:, None, :], axis=2)
            gaps = mu[:, :, None] - mu[:, None, :]
            gaps[:, range(lvl), range(lvl)] = 1.0
            w2 = num / np.prod(gaps, axis=2)
            if not ((w2 > 0.0) | np.isnan(w2)).all():
                raise ValueError("spectra do not strictly interlace")
            if not np.isfinite(w2).all():
                raise OverflowError("border weight out of the float range")
            c = np.sqrt(w2) * np.exp(1j * theta)
            b = (vecs * c[:, None, :]).sum(axis=2)
            k, inner = np.empty((size, lvl + 1, lvl + 1), dtype=complex), k
            k[:, 0, 0] = lam.sum(axis=1) - mu.sum(axis=1)
            k[:, 1:, 0] = b
            k[:, 0, 1:] = b.conj()
            k[:, 1:, 1:] = inner
            if lvl < n - 1:
                vecs = _arrowhead_vectors(vecs, c, mu, lam)
    return k


def reconstruct_H(xi, angles):
    """A Hermitian matrix whose trailing-block pattern is xi.

    xi must be strictly interior (consecutive rows strictly interlace) and
    angles supplies the torus coordinates of the fiber: row k of angles has
    k phases, k = 1..n-1.  It is _bordered on a block of one.
    """
    n = xi.n
    if len(angles) != n - 1 or any(len(angles[k]) != k + 1 for k in range(n - 1)):
        raise ValueError("angles must have rows of lengths 1..n-1")
    spectra = [np.array([spectrum_of(xi.rows[k][1:])]) for k in range(1, n + 1)]
    phases = np.array([[a for row in angles for a in row]], dtype=float)
    return _bordered(spectra, phases)[0].tolist()


def b_factor_block(values, phases):
    """Upper-triangular factors with positive diagonal, one per row of a
    gz_block array values with the same row of phases (shape (size,
    n(n-1)/2)), whose trailing k x k blocks have row k of the pattern as
    cumulative log singular values: the reversed Cholesky factors of the
    positive matrices that _bordered builds from the exponentiated trailing
    spectra.

    One LAPACK Cholesky call serves the block.  A non-finite pattern entry
    raises OverflowError, and so does a spectrum whose exponential leaves
    the float range, with math.exp's message; a pattern that does not
    interlace strictly and a matrix that is not positive definite raise
    ValueError."""
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise OverflowError("non-finite pattern entry")
    n = (math.isqrt(8 * values.shape[1] + 1) - 1) // 2
    with np.errstate(over="ignore"):
        spectra = [np.exp(2.0 * np.diff(values[:, k * (k - 1) // 2:
                                               k * (k + 1) // 2],
                                        axis=1, prepend=0.0))
                   for k in range(1, n + 1)]
    if not all(np.isfinite(lam).all() for lam in spectra):
        raise OverflowError("math range error")
    try:
        return np.linalg.cholesky(
            _bordered(spectra, phases)[:, ::-1, ::-1])[:, ::-1, ::-1]
    except np.linalg.LinAlgError:
        raise ValueError("matrix is not positive definite") from None


def _pattern_and_phases(r, rng):
    """One exact uniform pattern below r (polytope.gz_block) and uniform
    phases, read from rng in that order, as blocks of one row."""
    from .polytope import gz_block

    n = len(r)
    return gz_block(r, 1, rng), rng.uniform(0.0, 2.0 * math.pi,
                                            size=(1, n * (n - 1) // 2))


def sample_B_r(r, rng):
    """Random upper-triangular matrix with positive diagonal whose
    cumulative log singular values equal r: b_factor_block of one exact
    uniform pattern below r and uniform phases, read from rng in that
    order."""
    return b_factor_block(*_pattern_and_phases(r, rng))[0].tolist()
