"""Inverting the tropical pattern map on the reference network.

The reduced weightings below put weights only on the diagonals and on the
last horizontal edge of every line of the reference network; all other
horizontals are zero.  Every path system is then a 0/1 profile over the
reduced-weighting coordinates, so every tropical minor is max(P_slot . w)
over the distinct profiles P of that slot's systems.  P is built once per
topology, for the reference network and for its concatenation with
itself, by the layered sweep of paths run over the SUPPORTS semiring,
which collects each slot's distinct system supports; every minor of a
reduced weighting below is read off it.

On a full-dimensional cone of patterns (the chamber) the map
w -> tropical_gz(w) is linear and invertible: every pattern slot is computed
by one fixed path system.  find_delta0_chamber selects, per slot, the unique
argmax of P at a weighting deep in the dominant chamber, inverts the
selected rows exactly, and then refuses to return anything that does not
reproduce tropical_gz on random interior patterns.  That check shares the
sweep with P, so it covers the selection and the inverse but not P; the
tests check P against a depth-first enumeration of the path systems.

Every exact routine here works on integers: coordinates and patterns are
put over their least common denominator by
semiring.over_common_denominator, the chamber's inverse is an integer
matrix, and only results are divided back.

kappa_block evaluates kappa on blocks of float patterns with numpy: the
exact route's checks and P's composite top rows, composed with the inverse
into integer rows, go through hive's float filter, and every pair without
a certificate goes through the exact kappa.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import compress

import numpy as np

from .hive import (GZ, TROPICAL_GZ, HornTriple, Tableau, _exact_in,
                   _family_slacks, _filter_matrix, _json_fields, gz_check,
                   gz_margin)
from .network import build_gamma0, concatenate
from .paths import _subnets_of, m_k, tropical_gz
from .polytope import pattern_tableau
from .semiring import SUPPORTS, as_rational, over_common_denominator

_ZERO = Fraction(0)


@dataclass(frozen=True)
class WbarWeighting:
    """Weights on the diagonals (drawing order) and on the sink-adjacent
    horizontals (by height, bottom line first); everything else is zero."""

    n: int
    diagonals: tuple
    sink_horizontals: tuple

    def __post_init__(self):
        n = self.n
        d = tuple(as_rational(x) for x in self.diagonals)
        h = tuple(as_rational(x) for x in self.sink_horizontals)
        if len(d) != n * (n - 1) // 2:
            raise ValueError("expected %d diagonal weights" % (n * (n - 1) // 2,))
        if len(h) != n:
            raise ValueError("expected %d sink-horizontal weights" % n)
        object.__setattr__(self, "diagonals", d)
        object.__setattr__(self, "sink_horizontals", h)

    def coordinates(self):
        return self.diagonals + self.sink_horizontals

    def embed(self, g):
        """The full edge weighting on the given reference network."""
        w = {e: _ZERO for e in g.edges}
        w.update(zip(_wbar_support(g), self.coordinates()))
        return w


def wbar_to_json(w):
    return {"n": w.n,
            "diagonals": [str(x) for x in w.diagonals],
            "sink_horizontals": [str(x) for x in w.sink_horizontals]}


def wbar_from_json(d):
    n, diagonals, sinks = _json_fields(d, "reduced weighting", n=int,
                                       diagonals=list, sink_horizontals=list)
    return WbarWeighting(n, tuple(_exact_in(x) for x in diagonals),
                         tuple(_exact_in(x) for x in sinks))


# -- topology caches (pure, built on first use) -------------------------------


@cache
def gamma0_cached(n):
    return build_gamma0(n)


@cache
def concat_cached(n):
    return concatenate(gamma0_cached(n), gamma0_cached(n))


def _slots(n):
    return [(k, i) for k in range(1, n + 1) for i in range(1, k + 1)]


def _top_slots(n):
    return [(n, k) for k in range(1, n + 1)]


def _wbar_support(g):
    """The edges carrying the reduced-weighting coordinates, in their order."""
    return g.diagonals() + tuple(g.sink_horizontal(h) for h in range(1, g.rank + 1))


# -- path systems as profiles -------------------------------------------------


def _support_profiles(g, support):
    """The distinct incidence vectors of every i-system of every bottom
    subnetwork, restricted to the support edges and sorted, keyed by slot
    (k, i).

    m_k over SUPPORTS gives the set of the systems' support bitmasks: edge
    j of support carries bit j and every other edge no bit.  A
    vertex-disjoint system uses an edge at most once, so the OR of its
    bits is its incidence vector.
    """
    w = {e: SUPPORTS.one for e in g.edges}
    w.update((e, frozenset((1 << j,))) for j, e in enumerate(support))
    subs = _subnets_of(g)
    width = len(support)
    return {(k, i): tuple(sorted(tuple(mask >> j & 1 for j in range(width))
                                 for mask in m_k(subs[k], w, i, SUPPORTS)))
            for k in range(1, g.rank + 1) for i in range(1, k + 1)}


@cache
def _profiles(n, composite=False):
    """P for the rank-n reference network, or for its concatenation with
    itself, whose columns are the left factor's coordinates then the
    right factor's."""
    g = gamma0_cached(n)
    support = _wbar_support(g)
    if composite:
        gc = concat_cached(n)
        return _support_profiles(gc, tuple([gc.left_map[e] for e in support]
                                           + [gc.right_map[e] for e in support]))
    return _support_profiles(g, support)


def _values(rows, ints):
    # rows are 0/1 (a vertex-disjoint system uses an edge at most once), so
    # a dot product is the sum of the selected coordinates
    return [sum(compress(ints, row)) for row in rows]


def _minors(profiles, slots, coords):
    """max(P_slot . w) for each slot, exactly: denominators are cleared
    once, the dot products are integer sums, and only the maxima are
    divided back."""
    return _scaled_minors(profiles, slots, *over_common_denominator(coords))


def _scaled_minors(profiles, slots, ints, den):
    """_minors of the coordinates ints / den."""
    return tuple(Fraction(max(_values(profiles[s], ints)), den) for s in slots)


def _dominant_rows(profiles, slots, coords):
    """Each slot's row of P with the largest value; None on any tie."""
    ints, _ = over_common_denominator(coords)
    out = []
    for s in slots:
        vals = _values(profiles[s], ints)
        best = max(vals)
        if vals.count(best) > 1:
            return None
        out.append(profiles[s][vals.index(best)])
    return out


# -- the chamber --------------------------------------------------------------


def _invert_exact(mat):
    n = len(mat)
    a = [list(row) + [Fraction(1) if i == j else _ZERO for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if a[r][col] != 0:
                piv = r
                break
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        pv = a[col][col]
        a[col] = [x / pv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [row[n:] for row in a]


@dataclass(frozen=True)
class ChamberMap:
    """A verified linear inverse of the tropical pattern map, an integer
    matrix."""

    n: int
    slots: tuple
    matrix: tuple
    inverse: tuple
    # the inverse as rows of Python ints
    _inverse_ints: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = len(self.inverse)
        ints, den = over_common_denominator(
            [x for row in self.inverse for x in row])
        if den != 1:
            raise ValueError("chamber inverse must be an integer matrix")
        object.__setattr__(self, "_inverse_ints", tuple(
            tuple(ints[j:j + m]) for j in range(0, len(ints), m)))

    def _solve(self, vec):
        """Integer coordinates of the weighting whose slot values are the
        integers vec."""
        return [sum(map(operator.mul, row, vec)) for row in self._inverse_ints]

    @cached_property
    def _float_route(self):
        return _FloatRoute.of(self)


def _weighting(n, coords, den):
    d = n * (n - 1) // 2
    return WbarWeighting(n, tuple(Fraction(c, den) for c in coords[:d]),
                         tuple(Fraction(c, den) for c in coords[d:]))


def random_interior_pattern(n, rng):
    """A strictly interlacing pattern with exact dyadic entries."""
    denom = 1 << 16
    lam = sorted((int(v) for v in rng.integers(0, denom, size=n)), reverse=True)
    lam = [Fraction(v - 2 * j, denom) for j, v in enumerate(lam)]  # force strict
    rows = {n: lam}
    for k in range(n - 1, 0, -1):
        above = rows[k + 1]
        row = []
        for j in range(k):
            u = Fraction(int(rng.integers(1, 1023)), 1024)
            row.append(above[j] * u + above[j + 1] * (1 - u))
        rows[k] = row
    out = [(Fraction(0),)]
    for k in range(1, n + 1):
        acc = Fraction(0)
        row = [Fraction(0)]
        for v in rows[k]:
            acc += v
            row.append(acc)
        out.append(tuple(row))
    return Tableau(n, tuple(out), TROPICAL_GZ)


# random interior patterns on which find_delta0_chamber checks its inverse
_VERIFY_POINTS = 100
# kappa_block's products run on slices of this many pairs: at n = 5 one
# row of the top product holds 2327 floats
_ROWS = 256


@cache
def find_delta0_chamber(n):
    """Build and certify the chamber for the rank-n reference network.

    Each slot's system is the unique argmax of P at a random weighting deep
    in the dominant chamber (a tie moves on to the next such weighting).
    The selected rows are inverted exactly, and lt_inverse through the
    new map must reproduce tropical_gz on random strictly interior
    patterns; any failure raises rather than returning a broken map.

    tropical_gz runs the same layered sweep that P is read from, so this
    check confirms the selection and its inverse given P, not P itself.
    P's independent check is the tests' comparison with a depth-first
    enumeration of the path systems.
    """
    g = gamma0_cached(n)
    rng = np.random.default_rng(0xA11CE + n)
    slots = tuple(_slots(n))
    profiles = _profiles(n)

    # probe: inside the dominant chamber the maximal-drop system is the
    # argmax.  Diagonals are drawn from [64, 65) against sink horizontals in
    # [0, 1): dropping to a lower line always pays more than any sink edge
    # can, so only exact ties can spoil the selection.
    for _ in range(10):
        probe = WbarWeighting(
            n,
            tuple(Fraction((64 << 20) + int(v), 1 << 20)
                  for v in rng.integers(0, 1 << 20, size=n * (n - 1) // 2)),
            tuple(Fraction(int(v), 1 << 20)
                  for v in rng.integers(0, 1 << 20, size=n)),
        )
        rows = _dominant_rows(profiles, slots, probe.coordinates())
        if rows is not None:
            break
    else:
        raise RuntimeError("no generic probe weighting found")

    # Fraction entries keep the exact inverse exact
    matrix = tuple(tuple(Fraction(c) for c in row) for row in rows)
    inverse = _invert_exact(matrix)
    if inverse is None:
        raise RuntimeError("selected systems are linearly dependent")

    chamber = ChamberMap(n, slots, matrix, tuple(tuple(r) for r in inverse))

    for _ in range(_VERIFY_POINTS):
        xi = random_interior_pattern(n, rng)
        w = lt_inverse(xi, chamber)
        got = tropical_gz(g, w.embed(g))
        if got.rows != xi.rows:
            raise RuntimeError("chamber fails to invert on an interior pattern")
    return chamber


def _invert(xi, chamber):
    """lt_inverse's weighting as (integer coordinates, denominator).

    All arithmetic is on integers: xi's entries are put over their least
    common denominator, which keeps the signs of its slacks, and the
    inverse is an integer matrix."""
    if chamber is None:
        chamber = find_delta0_chamber(xi.n)
    if xi.n != chamber.n:
        raise ValueError("pattern size does not match the chamber")
    ints, den = over_common_denominator([v for row in xi.rows for v in row])
    it = iter(ints)
    exact = Tableau(xi.n, [[next(it) for _ in row] for row in xi.rows],
                    GZ if xi.role != TROPICAL_GZ else TROPICAL_GZ)
    if not gz_check(exact, 0):
        raise ValueError("pattern is not in the interlacing cone")
    vec = [exact.value(k, i) for (k, i) in chamber.slots]
    coords = chamber._solve(vec)
    profiles = _profiles(chamber.n)
    if any(max(_values(profiles[s], coords)) != v
           for s, v in zip(chamber.slots, vec)):
        raise RuntimeError("pattern lies outside the chamber's validity cone")
    return coords, den


def lt_inverse(xi, chamber=None):
    """The reduced weighting whose pattern triangle is exactly xi.

    xi must lie in the interlacing cone.  The solve is a single exact
    matrix-vector product; the result's minors are then read off P and
    compared with xi slot by slot, so a wrong answer cannot escape
    silently.
    """
    return _weighting(xi.n, *_invert(xi, chamber))


def kappa(u, v, chamber=None):
    """Tropical product spectrum of two patterns with matched inner edge.

    The patterns are inverted to reduced weightings, the second factor's
    network is glued on the left of the first's, and the minors of the
    composite are returned as a cumulative vector.
    """
    if chamber is None:
        chamber = find_delta0_chamber(u.n)
    cu, du = _invert(u, chamber)
    cv, dv = _invert(v, chamber)
    den = math.lcm(du, dv)
    n = chamber.n
    return _scaled_minors(_profiles(n, True), _top_slots(n),
                          [c * (den // dv) for c in cv]
                          + [c * (den // du) for c in cu], den)


@dataclass(frozen=True)
class _FloatRoute:
    """A chamber's rows for kappa_block, as hive float filters over a pair's
    slot values [v | u] (transposed): check, the checks of both patterns,
    each positive only where the exact route accepts (strict interlacing,
    every rival row of P below its slot); top, P's composite top rows
    composed with the inverse, each top slot's run beginning at starts;
    limit, the smaller of the two filters' limits."""

    check: np.ndarray
    top: np.ndarray
    starts: np.ndarray
    limit: float

    @classmethod
    def of(cls, chamber):
        n, m = chamber.n, len(chamber.slots)
        columns = list(zip(*chamber._inverse_ints))

        def compose(row):  # row . (A U) as a row over the slot values U
            return [sum(map(operator.mul, row, col)) for col in columns]

        eye = np.eye(m, dtype=int).tolist()
        checks = [[int(x) for x in row] for row in zip(*(
            _family_slacks(pattern_tableau(e), "AB") for e in eye))]
        checks += [[e - r for e, r in zip(eye[j], compose(row))]
                   for j, s in enumerate(chamber.slots)
                   for row in _profiles(n)[s] if row != chamber.matrix[j]]
        zero = [0] * m
        check, check_limit = _filter_matrix(
            [r + zero for r in checks] + [zero + r for r in checks], 2 * m)
        top = [_profiles(n, True)[s] for s in _top_slots(n)]
        top_rows, top_limit = _filter_matrix(
            [compose(r[:m]) + compose(r[m:]) for runs in top for r in runs], 2 * m)
        return cls(check.T, top_rows.T, np.cumsum([0] + [len(r) for r in top[:-1]]),
                   min(check_limit, top_limit))


def kappa_block(us, vs, chamber):
    """kappa of each pair of rows of two gz_block arrays, as floats.

    Returns (values, bounds): values[j] is within bounds[j] of
    float(kappa(u_j, v_j)) entry by entry.  A pair's scale is the larger
    max|entry| of its two patterns.  When it is below the route's limit and
    the filter certifies every check of both patterns at that scale, the
    pair is evaluated in float64, each top slot as a maximum over its run,
    and its bound is the top rows' largest folded bound at that scale.
    Every other pair, a non-finite one or one whose smaller factor's margins
    sit inside that bound included, goes through kappa itself, raises what
    it raises, and has bound 0.  The two products run on slices of at most
    _ROWS pairs, which bounds their memory.
    """
    route = chamber._float_route
    pairs = np.hstack([vs, us])
    scale = np.abs(pairs).max(axis=1)
    ok = scale < route.limit  # false for inf and nan
    values = np.empty((len(pairs), len(route.starts)))
    with np.errstate(all="ignore"):
        for lo in range(0, len(pairs), _ROWS):
            rows = slice(lo, lo + _ROWS)
            scaled = np.hstack([pairs[rows], scale[rows, None]])
            ok[rows] &= (scaled @ route.check > 0).all(axis=1)
            values[rows] = np.maximum.reduceat(pairs[rows] @ route.top[:-1],
                                               route.starts, axis=1)
    bounds = np.where(ok, scale * -route.top[-1].min(), 0.0)
    for j in np.flatnonzero(~ok):
        values[j] = [float(x) for x in kappa(pattern_tableau(us[j]),
                                             pattern_tableau(vs[j]), chamber)]
    return values, bounds


def horn_triple_tropical(w1, w2):
    """The boundary triple of a pair of reduced weightings: factor spectra
    and the spectrum of their concatenation (first factor on the left)."""
    if w1.n != w2.n:
        raise ValueError("ranks differ")
    n = w1.n
    top = _top_slots(n)
    return HornTriple(_minors(_profiles(n), top, w1.coordinates()),
                      _minors(_profiles(n), top, w2.coordinates()),
                      _minors(_profiles(n, True), top,
                              w1.coordinates() + w2.coordinates()))


# -- genericity ---------------------------------------------------------------


@dataclass(frozen=True)
class GenericityReport:
    generic: bool
    min_separation: object
    min_margin: object
    delta: object


def _min_separation(profiles, coords):
    ints, den = over_common_denominator(coords)
    sep = None
    for rows in profiles.values():
        vals = sorted(set(_values(rows, ints)))
        for a, b in zip(vals, vals[1:]):
            if sep is None or b - a < sep:
                sep = b - a
    return None if sep is None else Fraction(sep, den)


def _pattern(profiles, n, coords):
    """The tropical pattern triangle of a weighting, read off P."""
    vals = iter(_minors(profiles, _slots(n), coords))
    rows = [(_ZERO,)] + [(_ZERO,) + tuple(next(vals) for _ in range(k))
                         for k in range(1, n + 1)]
    return Tableau(n, tuple(rows), TROPICAL_GZ)


def genericity_check(w1, delta, w2=None):
    """Are all path-system values well separated and the patterns strictly
    interior, with margin exceeding delta?

    With one weighting the reference network alone is examined; with two,
    both factors and their concatenation (first on the left) are.
    """
    delta = as_rational(delta)
    n = w1.n
    jobs = [(_profiles(n), w1.coordinates())]
    if w2 is not None:
        if w2.n != n:
            raise ValueError("ranks differ")
        jobs.append((_profiles(n), w2.coordinates()))
        jobs.append((_profiles(n, True), w1.coordinates() + w2.coordinates()))
    sep = None
    margin = None
    for profiles, coords in jobs:
        s = _min_separation(profiles, coords)
        if s is not None and (sep is None or s < sep):
            sep = s
        m = gz_margin(_pattern(profiles, n, coords))
        if m is not None and (margin is None or m < margin):
            margin = m
    ok = ((sep is None or sep > delta) and (margin is None or margin > delta))
    return GenericityReport(ok, sep, margin, delta)
