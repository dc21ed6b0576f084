"""Reference routines that only the tests use.

FractionTriple is HornTriple's former representation, three tuples of
Fractions, against which the integer one is tested.
scale_triple multiplies a Horn triple by a factor.  facet_verdict is the
pure-integer route through the Horn-cone facet table, with no float filter
in front of it; pin_values gives, in Fractions, the values of
hive._pinned_slots that it reads the table at, and integer_pins puts them
over one denominator.
minimal_support_rows finds the table again by brute force over the supports
of the multiplier vectors, with null_space and rank in Fractions, and
horn_list_verdict decides membership from Horn's recursive list of
inequalities instead of from hives.  feasible_point is an exact phase-1
simplex over the rationals, and lp_witness builds hives with it, the
independent route to kt_witness's back-substitution and to kt_member's
facet table (lp_verdict).  complex_det, sigma_values and gz_B are
the direct minor and singular-value routes of the linear algebra tests, and
dagger, hermitian_with_spectrum and sample_H_r build their test matrices.
eigh is a two-sided cyclic Jacobi on nested lists of Python complex, with
eigenvectors, and l_map its cumulative eigenvalues: the independent route
to hornlab's one Hermitian spectral route, LAPACK eigvalsh on blocks
(l_map_block, l_map, gz_H, and the hermitian-sum generator's spectra).
singular_l, upper_cholesky, bordered, reconstruct_from_spectra and b_factor
are the scalar multiplicative route in plain Python, one matrix at a time:
the reference against which hornlab's block forms (singular_l_block,
_bordered, b_factor_block) are tested.
enumerate_paths lists single paths and enumerate_kpaths lists
vertex-disjoint path systems (MultiPath), both by depth-first search;
minor_enum, the reference minor, is an explicit sum of multipath_weight
over every system, the independent route to hornlab's layered sweep.
The samplers are the independent routes to the uniform law on patterns
below a fixed cumulative top row, which hornlab.gz_pattern samples exactly.

PolytopeSampler runs hit-and-run over the pattern polytope (dimension
n(n-1)/2): from the current interior point, pick a uniform direction,
intersect the line with every constraint to get a chord, jump to a uniform
point of the chord.  Steps are plain scalar arithmetic; at these
dimensions that beats vectorizing by a wide margin.

rejection_sample draws uniformly from a bounding box and keeps what lands
in the cone.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from operator import mul

from hornlab.hive import (GZ, HIVE, HornTriple, Tableau, _facets,
                          _hive_inequalities, _pinned_slots, gz_check)
from hornlab.linalg import _MAX_SWEEPS, haar_unitaries, spectrum_of
from hornlab.semiring import as_rational


def enumerate_paths(g, i, j):
    """All directed paths from source label i to sink label j, in lexicographic
    order of their edge sequences."""
    goal = g.sink_of_label(j)
    out = []
    stack = []

    def walk(v):
        if v == goal:
            out.append(tuple(stack))
            return
        for e in g.out_edges(v):
            stack.append(e)
            walk(e.head)
            stack.pop()

    walk(g.source_of_label(i))
    return out


@dataclass(frozen=True)
class MultiPath:
    """A vertex-disjoint family of paths, one per (source, sink) label pair."""

    paths: tuple
    sources: tuple
    sinks: tuple

    @property
    def k(self):
        return len(self.paths)

    def edges(self):
        for p in self.paths:
            yield from p


def path_weight(w, path, ring):
    return ring.prod(w[e] for e in path)


def multipath_weight(w, mp, ring):
    return ring.prod(w[e] for e in mp.edges())


def enumerate_kpaths(g, rows, cols):
    """All vertex-disjoint systems joining source labels rows to sink labels
    cols (the order-preserving pairing), lexicographically ordered."""
    rows = tuple(sorted(rows))
    cols = tuple(sorted(cols))
    if len(rows) != len(cols):
        raise ValueError("need equally many sources and sinks")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("labels must be distinct")
    for lab in rows + cols:
        if not 1 <= lab <= g.rank:
            raise ValueError("label out of range")
    k = len(rows)
    out = []
    chosen = []
    used = set()

    def place(a):
        if a == k:
            out.append(MultiPath(tuple(chosen), rows, cols))
            return
        start = g.source_of_label(rows[a])
        goal = g.sink_of_label(cols[a])
        stack = []

        def walk(v):
            if v in used:
                return
            if v == goal:
                used.add(v)
                chosen.append(tuple(stack))
                place(a + 1)
                chosen.pop()
                used.discard(v)
                return
            used.add(v)
            for e in g.out_edges(v):
                stack.append(e)
                walk(e.head)
                stack.pop()
            used.discard(v)

        walk(start)

    place(0)
    return out


def minor_enum(g, w, rows, cols, ring):
    """Reference minor: explicit sum over enumerate_kpaths."""
    return ring.sum(multipath_weight(w, mp, ring)
                    for mp in enumerate_kpaths(g, rows, cols))


def scale_triple(t, factor):
    """Every entry of the triple t times factor."""
    f = as_rational(factor)
    return HornTriple(*(tuple(f * x for x in v) for v in (t.a, t.b, t.c)))


@dataclass(frozen=True)
class FractionTriple:
    """HornTriple as it was before it held integers: a, b and c as tuples
    of Fractions, each entry through as_rational, compared, hashed and
    shown as those tuples.  Like as_rational it lets BOTTOM through."""

    a: tuple
    b: tuple
    c: tuple

    def __post_init__(self):
        a, b, c = (tuple(as_rational(x) for x in v) for v in (self.a, self.b, self.c))
        if not (len(a) == len(b) == len(c)) or not a:
            raise ValueError("a, b, c must be nonempty and of equal length")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)


def pin_values(t):
    """The values of hive._pinned_slots(t.n), in Fractions.  The corner is
    0: a is measured along the long row and c up the left edge, both from
    that corner; the right edge is b shifted by a_n, without its top."""
    a_n = t.a[-1]
    return (Fraction(0),) + t.a + tuple(x + a_n for x in t.b[:-1]) + t.c


def integer_pins(t):
    """The pinned values of t over their common denominator: (den, pins)."""
    values = pin_values(t)
    den = math.lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def facet_verdict(t, slack):
    """kt_member's answer for n <= 5 at any slack, from every row of the
    facet table in integers."""
    eps = as_rational(slack)
    if abs(t.a[-1] + t.b[-1] - t.c[-1]) > abs(eps):
        return False
    den, pins = integer_pins(t)
    # row . pins >= -eps * total, with both sides scaled by den * eps.denominator
    scale = eps.numerator * den
    return all(sum(map(mul, row, pins)) * eps.denominator >= -scale * total
               for row, _, total in _facets(t.n))


def null_space(m, width):
    """A basis of {x : m x = 0} over the rationals, for a list m of rows of
    length width, by Gauss-Jordan elimination in Fractions."""
    rows = [[Fraction(v) for v in r] for r in m]
    pivots = []
    for c in range(width):
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pivot = rows[r][c]
        rows[r] = [v / pivot for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [v - row[c] * w for v, w in zip(row, rows[r])]
        pivots.append(c)
    basis = []
    for c in sorted(set(range(width)) - set(pivots)):
        x = [Fraction(0)] * width
        x[c] = Fraction(1)
        for r, pc in enumerate(pivots):
            x[pc] = -rows[r][c]
        basis.append(x)
    return basis


def rank(m, width):
    """Rank of a list m of rational rows of length width."""
    return width - len(null_space(m, width))


def free_slots(n):
    """The interior slots of a size-n hive, in the order _facets eliminates
    them."""
    ineqs = _hive_inequalities(n)
    return sorted({slot for ineq in ineqs for slot in ineq} - set(_pinned_slots(n)))


def minimal_support_rows(n):
    """(row, total) for every multiplier vector of minimal support, found
    by brute force: each support of at most free + 1 hive inequalities whose
    free-slot coefficients have a one-dimensional left null space with a
    strictly positive generator.  Each pair is scaled as _facets scales it,
    to coprime integers."""
    ineqs = _hive_inequalities(n)
    free = free_slots(n)
    out = set()
    for size in range(1, len(free) + 2):
        for support in combinations(range(len(ineqs)), size):
            basis = null_space([[ineqs[j].get(slot, 0) for j in support]
                                for slot in free], size)
            if len(basis) != 1:
                continue
            lam = basis[0]
            if lam[0] < 0:
                lam = [-x for x in lam]
            if min(lam) <= 0:
                continue
            den = math.lcm(*(x.denominator for x in lam))
            lam = [int(x * den) for x in lam]
            row = [sum(x * ineqs[j].get(slot, 0) for x, j in zip(lam, support))
                   for slot in _pinned_slots(n)]
            g = math.gcd(*row, *lam)
            out.add((tuple(v // g for v in row), sum(lam) // g))
    return out


@lru_cache(maxsize=None)
def horn_index_triples(n, r):
    """Horn's set T^n_r of triples (I, J, K) of r-subsets of 1..n, by his
    recursion (Fulton 2000): sum I + sum J = sum K + r(r + 1)/2, and every
    (F, G, H) in T^r_p with p < r gives
    sum_F i_f + sum_G j_g <= sum_H k_h + p(p + 1)/2."""
    subsets = list(combinations(range(1, n + 1), r))
    return tuple(
        (i, j, k) for i, j, k in product(subsets, repeat=3)
        if sum(i) + sum(j) == sum(k) + r * (r + 1) // 2
        and all(sum(i[f - 1] for f in ff) + sum(j[g - 1] for g in gg)
                <= sum(k[h - 1] for h in hh) + p * (p + 1) // 2
                for p in range(1, r) for ff, gg, hh in horn_index_triples(r, p)))


def horn_list_verdict(t):
    """Membership of a triple in the Horn cone from Horn's list: the three
    spectra weakly decreasing, the closing identity, and
    sum_K gamma <= sum_I alpha + sum_J beta over every T^n_r with r < n."""
    def spectrum(v):
        return [x - y for x, y in zip(v, (0,) + v[:-1])]

    alpha, beta, gamma = (spectrum(v) for v in (t.a, t.b, t.c))
    if any(x < y for lam in (alpha, beta, gamma) for x, y in zip(lam, lam[1:])):
        return False
    if t.a[-1] + t.b[-1] != t.c[-1]:
        return False
    return all(sum(gamma[x - 1] for x in k)
               <= sum(alpha[x - 1] for x in i) + sum(beta[x - 1] for x in j)
               for r in range(1, t.n) for i, j, k in horn_index_triples(t.n, r))



ZERO = Fraction(0)
ONE = Fraction(1)


def feasible_point(a, b):
    """Solve A x >= b exactly; returns a list of Fractions or None.

    Free variables are split as x = u - v with u, v >= 0, each row gets a
    surplus variable, and rows whose right side stays positive after sign
    normalization get an artificial variable.  Phase 1 minimizes the sum of
    artificials; feasibility is equivalent to that minimum being zero.
    """
    m = len(a)
    nvar = len(a[0]) if m else 0
    if nvar == 0:
        return [] if all(Fraction(x) <= 0 for x in b) else None
    if m == 0:
        return [ZERO] * nvar

    # columns: u (nvar) | v (nvar) | surplus (m) | artificials (as needed)
    ncols = 2 * nvar + m
    rows = []
    art_of_row = {}
    for i in range(m):
        coeffs = [Fraction(x) for x in a[i]]
        rhs = Fraction(b[i])
        if rhs < 0:
            # negate so the surplus column can serve as the basic variable
            row = [-c for c in coeffs] + [c for c in coeffs] + [ZERO] * m
            row[2 * nvar + i] = ONE
            rows.append((row, -rhs, 2 * nvar + i))
        else:
            row = [c for c in coeffs] + [-c for c in coeffs] + [ZERO] * m
            row[2 * nvar + i] = -ONE
            art_of_row[i] = ncols + len(art_of_row)
            rows.append((row, rhs, art_of_row[i]))

    nart = len(art_of_row)
    width = ncols + nart
    tab = []
    basis = []
    for row, rhs, bcol in rows:
        full = row + [ZERO] * nart
        if bcol >= ncols:
            full[bcol] = ONE
        tab.append(full + [rhs])
        basis.append(bcol)

    # phase-1 objective: minimize the sum of artificial variables.  With the
    # artificials basic, the reduced-cost row is minus the sum of their rows
    # on non-artificial columns.
    cost = [ZERO] * (width + 1)
    for i, bcol in enumerate(basis):
        if bcol >= ncols:
            for j in range(width + 1):
                cost[j] -= tab[i][j]
    for i in range(ncols, width):
        cost[i] += ONE

    while True:
        enter = -1
        for j in range(width):
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][width] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise RuntimeError("phase-1 objective unbounded; malformed input")
        piv = tab[leave][enter]
        tab[leave] = [x / piv for x in tab[leave]]
        for i in range(m):
            if i != leave and tab[i][enter] != 0:
                f = tab[i][enter]
                tab[i] = [x - f * y for x, y in zip(tab[i], tab[leave])]
        if cost[enter] != 0:
            f = cost[enter]
            cost = [x - f * y for x, y in zip(cost, tab[leave])]
        basis[leave] = enter

    if -cost[width] != 0:
        return None

    values = [ZERO] * width
    for i, bcol in enumerate(basis):
        values[bcol] = tab[i][width]
    return [values[j] - values[nvar + j] for j in range(nvar)]


def lp_witness(t, slack):
    """A hive with t's boundary and every inequality >= -slack, found by
    the exact phase-1 simplex feasible_point over the free slots, or None
    when there is none; the closing identity is checked first, to |slack|.
    The pins are pin_values(t), so like kt_witness the hive keeps a, c and
    b_1..b_{n-1} and closes exactly."""
    eps = as_rational(slack)
    n = t.n
    if abs(t.a[-1] + t.b[-1] - t.c[-1]) > abs(eps):
        return None
    pins = dict(zip(_pinned_slots(n), pin_values(t)))
    free = sorted((k, i) for k in range(n + 1) for i in range(k + 1)
                  if (k, i) not in pins)
    index = {slot: j for j, slot in enumerate(free)}
    rows_a = []
    rows_b = []
    for ineq in _hive_inequalities(n):
        const = Fraction(0)
        coeffs = [Fraction(0)] * len(free)
        for slot, cf in ineq.items():
            if slot in pins:
                const += cf * pins[slot]
            else:
                coeffs[index[slot]] += cf
        lo = -eps - const
        if any(coeffs):
            rows_a.append(coeffs)
            rows_b.append(lo)
        elif lo > 0:
            return None
    x = feasible_point(rows_a, rows_b) if rows_a else []
    if x is None:
        return None
    values = dict(pins)
    values.update(zip(free, x))
    return Tableau(n, tuple(tuple(values[(k, i)] for i in range(k + 1))
                            for k in range(n + 1)), HIVE)


def lp_verdict(t, slack):
    """Membership at slack from lp_witness."""
    return lp_witness(t, slack) is not None

def complex_det(a):
    """Determinant of a small complex matrix by Gaussian elimination with
    partial pivoting."""
    n = len(a)
    m = [row[:] for row in a]
    out = 1.0 + 0j
    for col in range(n):
        piv = max(range(col, n), key=lambda i: abs(m[i][col]))
        if m[piv][col] == 0j:
            return 0j
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            out = -out
        out *= m[col][col]
        inv = 1.0 / m[col][col]
        for i in range(col + 1, n):
            f = m[i][col] * inv
            for j in range(col, n):
                m[i][j] -= f * m[col][j]
    return out


_EIGH_TOL = 1e-13


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
    """Cumulative sums of eigh's eigenvalues, largest first: the Jacobi
    route to hornlab.l_map."""
    vals, _ = eigh(k)
    out = []
    acc = 0.0
    for v in vals:
        acc += v
        out.append(acc)
    return tuple(out)


def _block(a, idx):
    return [[a[i][j] for j in idx] for i in idx]


def singular_l(a):
    """Cumulative logs of the singular values of an invertible matrix, by
    the one-sided Jacobi of hornlab.linalg.singular_l_block in plain Python
    on one matrix: the same pair order, relative test and rotations."""
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
                if abs(apq) <= 1e-15 * math.sqrt(app) * math.sqrt(aqq):
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


def bordered(k, lam, theta):
    """Extend a Hermitian matrix by one row and column so the new spectrum
    is lam while the old one survives as the trailing block.

    In the eigenbasis of k (the Jacobi eigh above) the border magnitudes
    are forced: with mu the current spectrum, |b_j|^2 = -prod_i(mu_j -
    lam_i) / prod_{i != j}(mu_j - mu_i), which is positive exactly when lam
    strictly interlaces mu; theta supplies the free phases.  As in
    hornlab.linalg._bordered, a weight that is not positive raises
    ValueError, and one that is positive but not a finite float raises
    OverflowError.
    """
    kk = len(k)
    mu, vecs = eigh(k)
    a00 = sum(lam) - sum(mu)
    weights = []
    for j in range(kk):
        num = 1.0
        for lv in lam:
            num *= (mu[j] - lv)
        num = -num
        den = 1.0
        for i in range(kk):
            if i != j:
                den *= (mu[j] - mu[i])
        weights.append(num / den)
    if not all(w2 > 0.0 or math.isnan(w2) for w2 in weights):
        raise ValueError("spectra do not strictly interlace")
    if not all(map(math.isfinite, weights)):
        raise OverflowError("border weight out of the float range")
    cvec = [math.sqrt(w2) * cmath.exp(1j * t) for w2, t in zip(weights, theta)]
    b = [sum(vecs[i][j] * cvec[j] for j in range(kk)) for i in range(kk)]
    out = [[0j] * (kk + 1) for _ in range(kk + 1)]
    out[0][0] = complex(a00, 0.0)
    for i in range(kk):
        out[i + 1][0] = b[i]
        out[0][i + 1] = b[i].conjugate()
        for j in range(kk):
            out[i + 1][j + 1] = k[i][j]
    return out


def reconstruct_from_spectra(spectra, angles):
    """The Hermitian matrix whose trailing k x k block has spectrum
    spectra[k - 1], bordered level by level with the phases of angles."""
    k = [[complex(spectra[0][0], 0.0)]]
    for lvl in range(1, len(spectra)):
        k = bordered(k, spectra[lvl], angles[lvl - 1])
    return k


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
    return upper_cholesky(reconstruct_from_spectra(spectra, angles))


def sigma_values(a):
    """Elementary symmetric functions of the squared singular values,
    k = 1..n, via sums of squared minors (Cauchy-Binet)."""
    n = len(a)
    out = []
    for k in range(1, n + 1):
        total = 0.0
        for rows in combinations(range(n), k):
            for cols in combinations(range(n), k):
                sub = [[a[i][j] for j in cols] for i in rows]
                total += abs(complex_det(sub)) ** 2
        out.append(total)
    return tuple(out)


def gz_B(a):
    """Pattern of cumulative log singular values of nested trailing blocks,
    through the scalar singular_l above."""
    n = len(a)
    rows = [(0.0,)]
    for j in range(1, n + 1):
        rows.append((0.0,) + tuple(singular_l(_block(a, range(n - j, n)))))
    return Tableau(n, tuple(rows), GZ)


def dagger(a):
    """Conjugate transpose of a nested-list matrix."""
    return [[a[i][j].conjugate() for i in range(len(a))]
            for j in range(len(a[0]))]


def hermitian_with_spectrum(lam, u):
    """U diag(lam) U*, Hermitian to the last bit."""
    n = len(lam)
    k = [[sum(u[i][t] * lam[t] * u[j][t].conjugate() for t in range(n))
          for j in range(n)] for i in range(n)]
    for i in range(n):
        k[i][i] = complex(k[i][i].real, 0.0)
        for j in range(i + 1, n):
            avg = 0.5 * (k[i][j] + k[j][i].conjugate())
            k[i][j] = avg
            k[j][i] = avg.conjugate()
    return k


def sample_H_r(r, rng):
    """Random Hermitian matrix with spectrum given by the gaps of r."""
    lam = spectrum_of(r)
    return hermitian_with_spectrum(
        lam, haar_unitaries(len(lam), 1, rng)[0].tolist())


class PolytopeSampler:
    """Hit-and-run chain over patterns below a fixed top row.

    burn_in steps are taken once at construction; draw() advances the chain
    by `thinning` steps (default 8 per dimension) and returns a pattern.
    The top row must have strictly decreasing gaps, otherwise the polytope
    has empty interior.
    """

    def __init__(self, r, rng, burn_in=1000, thinning=None):
        self.r = tuple(float(v) for v in r)
        self.n = len(self.r)
        lam = spectrum_of(self.r)
        if any(a <= b for a, b in zip(lam, lam[1:])):
            raise ValueError("top row gaps must be strictly decreasing")
        self.rng = rng
        n = self.n
        self.dim = n * (n - 1) // 2
        self.thinning = max(8, 8 * self.dim) if thinning is None else int(thinning)
        self._index = {}
        for k in range(1, n):
            for i in range(1, k + 1):
                self._index[(k, i)] = len(self._index)

        # (indices with coefficient +1, indices with -1, constant); every
        # family lists its +1 terms first, so a step that adds the first
        # group and subtracts the second keeps the order of the sum
        rows = []

        def term(acc, k, i, cf):
            if i == 0:
                return
            if k == n:
                acc[2] += cf * self.r[i - 1]
            else:
                acc[0 if cf > 0 else 1].append(self._index[(k, i)])

        for k in range(1, n):
            for i in range(1, k + 1):
                for coeffs in (((k + 1, i, 1), (k, i - 1, 1), (k + 1, i - 1, -1), (k, i, -1)),
                               ((k + 1, i, 1), (k, i, 1), (k + 1, i + 1, -1), (k, i - 1, -1))):
                    acc = [[], [], 0.0]
                    for (kk, ii, cf) in coeffs:
                        term(acc, kk, ii, cf)
                    rows.append((tuple(acc[0]), tuple(acc[1]), acc[2]))
        self._rows = rows

        z = [0.0] * self.dim
        level = lam
        for k in range(n - 1, 0, -1):
            level = [0.5 * (level[j] + level[j + 1]) for j in range(k)]
            acc = 0.0
            for i, v in enumerate(level, start=1):
                acc += v
                z[self._index[(k, i)]] = acc
        self._z = z
        self._block = 1024
        self._normals = None
        self._uniforms = None
        self._cursor = self._block
        for _ in range(burn_in):
            self.step()

    def _refill(self):
        self._normals = self.rng.standard_normal((self._block, self.dim))
        self._uniforms = self.rng.random(self._block).tolist()
        self._cursor = 0

    def step(self):
        if self.dim == 0:
            return
        if self._cursor >= self._block:
            self._refill()
        # plain floats: numpy scalars would cost more than the arithmetic
        # done with them
        direction = self._normals[self._cursor].tolist()
        u = self._uniforms[self._cursor]
        self._cursor += 1
        nrm = 0.0
        for x in direction:
            nrm += x * x
        nrm = math.sqrt(nrm)
        if nrm == 0.0:
            return
        d = [x / nrm for x in direction]
        z = self._z
        lo, hi = -math.inf, math.inf
        for plus, minus, const in self._rows:
            g = 0.0
            h = const
            for j in plus:
                g += d[j]
                h += z[j]
            for j in minus:
                g -= d[j]
                h -= z[j]
            if h < 0.0:
                h = 0.0
            if g > 1e-300:
                t = -h / g
                if t > lo:
                    lo = t
            elif g < -1e-300:
                t = -h / g
                if t < hi:
                    hi = t
        if not lo < hi:
            return
        t = lo + u * (hi - lo)
        for j, dj in enumerate(d):
            z[j] += t * dj

    def coordinates(self):
        return tuple(self._z)

    def as_tableau(self):
        n = self.n
        rows = [(0.0,)]
        for k in range(1, n):
            rows.append((0.0,) + tuple(self._z[self._index[(k, i)]]
                                       for i in range(1, k + 1)))
        rows.append((0.0,) + self.r)
        return Tableau(n, tuple(rows), GZ)

    def draw(self):
        for _ in range(self.thinning):
            self.step()
        return self.as_tableau()


def rejection_sample(r, count, rng, max_tries=10_000_000):
    """Reference sampler: uniform box proposals filtered by the cone test."""
    r = tuple(float(v) for v in r)
    n = len(r)
    lam = spectrum_of(r)
    lo_hi = []
    slots = [(k, i) for k in range(1, n) for i in range(1, k + 1)]
    for (k, i) in slots:
        lo_hi.append((sum(lam[-i:]), sum(lam[:i])))
    pos = {slot: j for j, slot in enumerate(slots)}
    out = []
    for _ in range(max_tries):
        if len(out) >= count:
            break
        z = [lo + float(u) * (hi - lo)
             for (lo, hi), u in zip(lo_hi, rng.random(len(slots)))]
        rows = [(0.0,)]
        for k in range(1, n):
            rows.append((0.0,) + tuple(z[pos[(k, i)]]
                                       for i in range(1, k + 1)))
        rows.append((0.0,) + r)
        t = Tableau(n, tuple(rows), GZ)
        if gz_check(t, 0):
            out.append(t)
    if len(out) < count:
        raise RuntimeError("rejection sampler did not reach the requested count")
    return out
