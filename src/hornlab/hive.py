"""Triangular tableaux, hive and interlacing inequalities, cone membership.

A tableau of size n is a triangle of values l[k][i], 0 <= i <= k <= n, stored
as rows of growing length.  Three inequality families act on it:

  A(k,i):  l[k+1][i] + l[k][i-1] >= l[k+1][i-1] + l[k][i]
  B(k,i):  l[k+1][i] + l[k][i]   >= l[k+1][i+1] + l[k][i-1]
  C(k,i):  l[k][i]   + l[k][i-1] >= l[k+1][i]   + l[k-1][i-1]

each for 0 < i <= k < n.  A and B alone, together with a zero left edge,
cut out the interlacing (Gelfand-Zeitlin) cone; all three cut out hives.

A boundary triple (a, b, c) pins the long row, the right edge and the left
edge; it lies in the Horn cone when some hive has that boundary (Knutson-Tao
saturation).  One Fourier-Motzkin elimination of the interior slots from
the hive inequalities answers both questions, for n <= MAX_N (desk scale).
Its final rows are an exact table of the Horn cone's facets, each carrying
the multipliers that prove it, and membership at every slack is read off
that table.  Its stages, the rows that bounded each interior slot as it was
eliminated, give a witness hive by back-substitution.  So the answer at
slack zero is a theorem, not a heuristic.

A HornTriple holds its boundary as one integer vector ints, a, b and c
concatenated, over one common denominator, made once when it is built
(semiring.over_common_denominator); its a, b and c are Fractions derived
from them.  Membership first checks the closing identity a_n + b_n = c_n on
those integers (_closes).  The facet table is found over the pinned slots,
whose values _pin_map reads off ints: the corner 0, the long row a, the
right edge b_1..b_{n-1} shifted by a_n, the left edge c.  Membership
composes each facet row with that map once per n (_triple_facets) and
reads the triple's integers as they are; only the back-substitution lays
the pins out (_integer_pins).  Floats appear in membership only as a
certified sign filter: one float product gives every row's value less a
forward error bound, folded into one column as max|ints| times the row's
absolute sum.  A row whose float value clears it is positive in exact
arithmetic too, and every other row is evaluated in integers.  So every
verdict is the exact one.  The filter is built by _filter_matrix, for any
integer rows and float or integer inputs; chamber.kappa_block certifies
through it too, and the comment above it is the package's one float error
analysis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isnan
from operator import mul

import numpy as np

from .semiring import BOTTOM, as_rational, over_common_denominator

HIVE = "hive"
GZ = "gz"
TROPICAL_GZ = "tropical-gz"

_ROLES = (HIVE, GZ, TROPICAL_GZ)


@dataclass(frozen=True)
class Tableau:
    """Immutable triangle of values; rows[k] has k + 1 entries.

    role distinguishes hives (arbitrary left edge) from interlacing
    patterns (left edge pinned to zero).  Entries are Fractions for exact
    work, floats for spectral data; tropical-gz rows may contain BOTTOM.
    """

    n: int
    rows: tuple
    role: str

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ValueError("unknown role %r" % (self.role,))
        if self.n < 1:
            raise ValueError("size must be positive")
        if len(self.rows) != self.n + 1:
            raise ValueError("expected %d rows" % (self.n + 1,))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for k, row in enumerate(self.rows):
            if len(row) != k + 1:
                raise ValueError("row %d must have %d entries" % (k, k + 1))
        if self.role in (GZ, TROPICAL_GZ):
            for row in self.rows:
                if not (row[0] == 0):
                    raise ValueError("left edge of a %s tableau must be 0" % self.role)

    def value(self, k, i):
        return self.rows[k][i]

    def top(self):
        """The longest row, without its leading entry."""
        return self.rows[self.n][1:]


def _entries_finite(t):
    return all(v is not BOTTOM for row in t.rows for v in row)


def _family_slacks(t, families):
    n = t.n
    r = t.rows
    out = []
    for k in range(1, n):
        for i in range(1, k + 1):
            if "A" in families:
                out.append(r[k + 1][i] + r[k][i - 1] - r[k + 1][i - 1] - r[k][i])
            if "B" in families:
                out.append(r[k + 1][i] + r[k][i] - r[k + 1][i + 1] - r[k][i - 1])
            if "C" in families:
                out.append(r[k][i] + r[k][i - 1] - r[k + 1][i] - r[k - 1][i - 1])
    return out


def hive_check(t):
    """All three inequality families hold (weakly)."""
    if not _entries_finite(t):
        raise ValueError("hive entries must be finite")
    return all(s >= 0 for s in _family_slacks(t, "ABC"))


def gz_check(t, delta=0):
    """Interlacing test for patterns with zero left edge.

    delta == 0 asks for the weak inequalities; delta > 0 asks for every
    slack of families A and B to exceed delta (strict interiority with
    margin).
    """
    if t.role == HIVE:
        raise ValueError("gz_check applies to gz-role tableaux")
    if not _entries_finite(t):
        raise ValueError("pattern entries must be finite")
    slacks = _family_slacks(t, "AB")
    if delta == 0:
        return all(s >= 0 for s in slacks)
    return all(s > delta for s in slacks)


def gz_margin(t):
    """Smallest slack over families A and B; None when n == 1 (no rows)."""
    slacks = _family_slacks(t, "AB")
    if not slacks:
        return None
    return min(slacks)


@dataclass(frozen=True, init=False, repr=False)
class HornTriple:
    """Three weakly ordered partial-sum vectors (a, b, c) of equal length n,
    held as one integer vector over one denominator.

    The constructor takes three sequences of Fractions, ints or floats and
    puts all 3n values over their least common denominator, once
    (semiring.over_common_denominator): ints is a, b and c concatenated,
    as integers over den.  Floats convert exactly, via their binary
    expansion.  BOTTOM and NaN raise ValueError, an infinite float
    OverflowError, any other type TypeError, and empty vectors or unequal
    lengths ValueError.  (n, ints, den) is canonical, so equality and
    hashing read it; a, b and c are derived, as tuples of Fractions built on
    first use.
    """

    n: int
    ints: tuple
    den: int

    def __init__(self, a, b, c):
        a, b, c = tuple(a), tuple(b), tuple(c)
        ints, den = over_common_denominator(a + b + c)
        if not a or not len(a) == len(b) == len(c):
            raise ValueError("a, b, c must be nonempty and of equal length")
        object.__setattr__(self, "n", len(a))
        object.__setattr__(self, "ints", tuple(ints))
        object.__setattr__(self, "den", den)

    def _part(self, k):
        n = self.n
        return tuple(Fraction(p, self.den) for p in self.ints[k * n:(k + 1) * n])

    @cached_property
    def a(self):
        return self._part(0)

    @cached_property
    def b(self):
        return self._part(1)

    @cached_property
    def c(self):
        return self._part(2)

    def __repr__(self):
        return "HornTriple(a=%r, b=%r, c=%r)" % (self.a, self.b, self.c)


def boundary(t):
    """Read off the (a, b, c) boundary of a hive.

    a lives on the long row, b on the diagonal measured against the last
    entry of the long row, c on the left edge read bottom up.
    """
    n = t.n
    r = t.rows
    a = tuple(r[n][i] for i in range(1, n + 1))
    b = tuple(r[n - i][n - i] - r[n][n] for i in range(1, n + 1))
    c = tuple(r[n - i][0] for i in range(1, n + 1))
    return HornTriple(a, b, c)


def _pinned_slots(n):
    """The boundary slots, in the order of _pin_map: the corner (n, 0),
    the rest of the long row, the right edge without its top, the left edge
    bottom up."""
    return (((n, 0),) + tuple((n, i) for i in range(1, n + 1))
            + tuple((n - i, n - i) for i in range(1, n))
            + tuple((n - i, 0) for i in range(1, n + 1)))


def _pin_map(n):
    """For each slot of _pinned_slots(n), the entries of HornTriple.ints whose
    sum it holds.  The corner holds 0: a is measured along the long row and
    c up the left edge, both from that corner; the right edge holds
    b_1..b_{n-1} shifted by a_n, and b_n is no slot's."""
    return (((),) + tuple((i,) for i in range(n))
            + tuple((n + j, n - 1) for j in range(n - 1))
            + tuple((2 * n + i,) for i in range(n)))


def _closes(triple, eps):
    """Whether the closing identity a_n + b_n = c_n holds to |eps|, read on
    the triple's integers."""
    n, ints = triple.n, triple.ints
    # |a_n + b_n - c_n| <= |eps|, with both sides scaled by den * eps.denominator
    return (abs(ints[n - 1] + ints[2 * n - 1] - ints[-1]) * eps.denominator
            <= abs(eps.numerator) * triple.den)


def _integer_pins(triple):
    """The values of _pinned_slots(n) as integers over the triple's
    denominator, laid out by _pin_map; nothing is converted here, the
    triple holds its integers from construction."""
    ints = triple.ints
    return [sum(ints[t] for t in ts) for ts in _pin_map(triple.n)]


def _hive_inequalities(n):
    """Each inequality as {slot: coefficient}; value must be >= 0."""
    rows = []
    for k in range(1, n):
        for i in range(1, k + 1):
            rows.append({(k + 1, i): 1, (k, i - 1): 1, (k + 1, i - 1): -1, (k, i): -1})
            rows.append({(k + 1, i): 1, (k, i): 1, (k + 1, i + 1): -1, (k, i - 1): -1})
            rows.append({(k, i): 1, (k, i - 1): 1, (k + 1, i): -1, (k - 1, i - 1): -1})
    return rows


# Desk scale: the elimination at n = 6 gives 28673 rows in about 3 minutes
# and 340 MB (2-core x86 host)
MAX_N = 5


def check_size(n):
    """Refuse a size outside the desk scale 1..MAX_N."""
    if not 1 <= n <= MAX_N:
        raise ValueError("n must be between 1 and %d" % MAX_N)


@lru_cache(maxsize=None)
def _fourier_motzkin(n):
    """Fourier-Motzkin elimination of the free slots of a size-n hive:
    (rows, stages).

    rows holds every row kept at the end, as (row, multipliers): row is an
    integer vector over _pinned_slots(n); multipliers are nonnegative
    integers, one per entry of _hive_inequalities(n), whose combination of
    the hive inequalities cancels every free slot and leaves row.  By
    Knutson-Tao saturation the Horn cone is the projection of the hive cone
    onto the boundary, found here by eliminating the free slots in
    integers.  Chernikov's rule (after k eliminations a row combining more
    than k + 1 inequalities is redundant) and dropping every row whose set
    of inequalities contains that of a row already kept leave only
    multiplier vectors of minimal support, and elimination reaches every
    one: these are the extreme rays of the cone of all such combinations,
    so by Farkas they decide the projection at any slack.

    stages holds, per free slot in the order of elimination, (slot, rows):
    each row of that stage with a nonzero coefficient on the slot, as
    (coefficient, terms, total).  terms lists the row's other nonzero
    entries as (column, coefficient) over the columns _pinned_slots(n) and
    then the free slots in stage order; only later stages' slots appear.
    total is the sum of the row's multipliers, so at slack eps the row
    holds with -eps * total on every hive.
    """
    ineqs = _hive_inequalities(n)
    pinned = _pinned_slots(n)
    free = sorted({slot for ineq in ineqs for slot in ineq} - set(pinned))
    col = {slot: j for j, slot in enumerate(pinned + tuple(free))}
    rows = []
    for j, ineq in enumerate(ineqs):
        vec = [0] * len(col)
        for slot, cf in ineq.items():
            vec[col[slot]] += cf
        lam = [0] * len(ineqs)
        lam[j] = 1
        rows.append((vec, lam, frozenset((j,))))

    stages = []
    for step, slot in enumerate(free, start=1):
        x = col[slot]
        kept = [r for r in rows if r[0][x] == 0]
        pos = [r for r in rows if r[0][x] > 0]
        neg = [r for r in rows if r[0][x] < 0]
        stages.append((slot, tuple(
            (vec[x], tuple((j, e) for j, e in enumerate(vec) if e and j != x),
             sum(lam))
            for vec, lam, _ in pos + neg)))
        for vp, lp, op in pos:
            for vq, lq, oq in neg:
                origin = op | oq
                if len(origin) > step + 1:
                    continue
                u, v = -vq[x], vp[x]
                vec = [u * s + v * t for s, t in zip(vp, vq)]
                lam = [u * s + v * t for s, t in zip(lp, lq)]
                g = gcd(*vec, *lam)
                kept.append(([e // g for e in vec], [e // g for e in lam], origin))
        kept.sort(key=lambda r: len(r[2]))
        rows = []
        for r in kept:
            if not any(o <= r[2] for _, _, o in rows):
                rows.append(r)
    return (tuple((tuple(vec[:len(pinned)]), tuple(lam)) for vec, lam, _ in rows),
            tuple(stages))


@lru_cache(maxsize=None)
def _facets(n):
    """The Horn cone of size n as rows (row, multipliers, total), one per
    distinct final row of _fourier_motzkin(n); total is the multipliers'
    sum.

    A boundary has a hive at slack eps (of either sign) exactly when
    row . pins >= -eps * total for every row.  Up to n = 5 no distinct row
    comes with two totals, so keeping the first serves both signs of eps.
    """
    table = {}
    for row, lam in _fourier_motzkin(n)[0]:
        table.setdefault(row, (row, lam, sum(lam)))
    return tuple(table.values())


# The float filter, the package's one float error analysis.  For integer
# rows R_j over `width` values, with w_j = sum |R_j| and L = width + 1
# terms, _filter_matrix builds g = [R | -F w], F = _FILTER_C L 2^-53.  A
# caller evaluates g @ [x ; m] for every row at once, x its input in
# float64 (floats as they are, integers each rounded once) and m = max|x|,
# and reads a positive result as d_j = R_j . x > 0 exactly.  Every term
# R_ji x_i, partial sum and input is an integer multiple of 2^-1074, so a
# result below 2^-1022 (subnormal) is exact and any other rounding is
# within 2^-53 of its result.  In any summation order, with or without
# fused multiply-adds, the R terms then sum to within about L 2^-53 w_j m
# of d_j (2^-53 w_j m more for rounded integers), exactly unless a partial
# sum reaches 2^-1022, so unless w_j m >= 2^-1023.  The folded term F w_j m
# is rounded once, within 2^-53 relative and 2^-1075 absolute (it may be
# subnormal), so when w_j m >= 2^-1023 it exceeds all that error by at
# least 6 L 2^-53 w_j m - 2^-1075 > 0; otherwise the result is d_j less a
# nonnegative term, exactly.  Either way a positive result means d_j > 0,
# and F w_j m, rounded once, also bounds R_j . x evaluated without the
# folded column against its exact value rounded to float.  The one guard,
# m below _FILTER_MAX over the largest w_j (the filter's limit), keeps
# every partial sum under 2^1001, so nothing overflows; it is false for
# inf and nan, and larger inputs skip the filter.
_FILTER_C = 8
_FILTER_MAX = 2 ** 1000


def _filter_matrix(rows, width):
    """The float filter over integer rows R of width entries: (g, limit).

    g is [R | -_FILTER_C (width + 1) 2^-53 w] in float64, read-only, with
    w_j the sum of |R_j|; limit is _FILTER_MAX over the largest w_j (1 for
    no rows), the max-abs input below which the filter applies."""
    rows = np.array(rows, dtype=float).reshape(-1, width)
    w = np.abs(rows).sum(axis=1)
    g = np.hstack([rows, -_FILTER_C * (width + 1) * 2.0 ** -53 * w[:, None]])
    g.setflags(write=False)  # shared by every caller through the caches
    return g, _FILTER_MAX / float(w.max(initial=1))


@lru_cache(maxsize=None)
def _triple_facets(n):
    """_facets(n) read on HornTriple.ints: (table, g, limit).

    table holds (row, total) per facet, with row composed with _pin_map(n)
    so that row . ints equals the facet row . pins (its b_n entry is 0).  g
    and limit are the float filter over those rows (_filter_matrix)."""
    pin_map = _pin_map(n)
    table = []
    for facet, _, total in _facets(n):
        row = [0] * (3 * n)
        for f, ts in zip(facet, pin_map):
            for t in ts:
                row[t] += f
        table.append((tuple(row), total))
    return (tuple(table),) + _filter_matrix([row for row, _ in table], 3 * n)


def _open_rows(n, ints):
    """Indices of the composed facet rows whose float value at ints does not
    clear its error bound, lowest value first, so that a violated row comes
    before the tight ones; every other row is positive at ints."""
    _, g, limit = _triple_facets(n)
    m = max(max(ints), -min(ints))
    if m >= limit:
        return range(len(g))
    x = g.dot([*map(float, ints), float(m)]).tolist()
    if min(x, default=1.0) > 0.0:
        return ()
    rows = [j for j, v in enumerate(x) if v <= 0.0]
    rows.sort(key=x.__getitem__)
    return rows


def kt_witness(triple, slack=0):
    """A hive with the triple's boundary and all inequalities >= -slack, or
    None.

    kt_member decides first, so a None answer is exact at that slack.  A
    hive closes exactly, so when the closing identity a_n + b_n = c_n misses
    by up to |slack| the hive returned has a, c and b_1..b_{n-1} as given
    and b_n = c_n - a_n: slot (0, 0) carries c_n, and b_n is read off it.  A
    negative slack tightens the inequality families instead (every slack
    must reach |slack|), which is useful for falsification tests.

    The free slots are fixed by back-substitution through the stages of
    _fourier_motzkin(n), last eliminated first: each takes the midpoint of
    the interval its stage rows leave it, given the pins and the slots
    already fixed; up to MAX_N every stage bounds its slot on both sides.
    Each stage row holds with -slack times its multiplier total, as the
    facet rows do, so no interval is empty, and the values are exact
    Fractions.  n must lie in 1..MAX_N.
    """
    eps = as_rational(slack)
    if not kt_member(triple, eps):
        return None
    stages = _fourier_motzkin(triple.n)[1]
    slots = _pinned_slots(triple.n) + tuple(slot for slot, _ in stages)
    values = [Fraction(p, triple.den) for p in _integer_pins(triple)]
    first = len(values)
    values += [Fraction(0)] * len(stages)
    for x in reversed(range(first, len(values))):
        lo, hi = [], []
        for coef, terms, total in stages[x - first][1]:
            # coef * value + terms >= -eps * total
            bound = (-eps * total - sum(c * values[j] for j, c in terms)) / coef
            (lo if coef > 0 else hi).append(bound)
        values[x] = (max(lo) + min(hi)) / 2
    at = dict(zip(slots, values))
    rows = tuple(tuple(at[(k, i)] for i in range(k + 1)) for k in range(triple.n + 1))
    return Tableau(triple.n, rows, HIVE)


def kt_member(triple, slack=0):
    """Whether a triple admits a hive with that boundary, up to slack.

    The closing identity a_n + b_n = c_n (to tolerance |slack|) and then
    the exact facet table decide, read on the triple's integers over its
    common denominator (_triple_facets), at any slack.  At slack >= 0 a
    float filter settles the rows that hold by a clear margin (_open_rows);
    the rest are evaluated in integers, so every answer is exact.  n must
    lie in 1..MAX_N.
    """
    eps = as_rational(slack)
    n = triple.n
    check_size(n)
    if not _closes(triple, eps):
        return False
    table, _, _ = _triple_facets(n)
    ints = triple.ints
    rows = _open_rows(n, ints) if eps.numerator >= 0 else range(len(table))
    # row . ints >= -eps * total, with both sides scaled by den * eps.denominator
    scale = eps.numerator * triple.den
    for j in rows:
        row, total = table[j]
        if sum(map(mul, row, ints)) * eps.denominator < -scale * total:
            return False
    return True


# -- serialization ----------------------------------------------------------


def _value_out(v):
    if v is BOTTOM:
        return None
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, int):
        return str(v)
    return float(v)


def _exact_in(v):
    """A number or number string as an exact Fraction in the float range;
    a four-digit exponent is refused before Fraction would expand it."""
    if isinstance(v, bool) or not isinstance(v, (str, int, float)):
        raise ValueError("not a number: %r" % (v,))
    if isinstance(v, str) and \
            len(v.lower().partition("e")[2].strip().lstrip("+-0_")) > 3:
        raise ValueError("exponent out of range: %r" % (v,))
    # NaN is refused here, since Fraction's own error speaks of ratios
    if not (isinstance(v, float) and isnan(v)):
        try:
            x = Fraction(v)
            float(x)
            return x
        except (ZeroDivisionError, OverflowError):  # '1/0', inf, 1e400
            pass
    raise ValueError("not a finite number: %r" % (v,))


def _value_in(v):
    if v is None:
        return BOTTOM
    x = _exact_in(v)
    return float(x) if isinstance(v, float) else x


def _json_fields(d, what, **types):
    """The named fields of a JSON object, each of a type or a tuple of
    types; a document that is not an object, lacks a key or has a value of
    the wrong type raises ValueError."""
    if not isinstance(d, dict):
        raise ValueError("%s must be a JSON object" % what)
    for key, typ in types.items():
        if isinstance(d.get(key), bool) or not isinstance(d.get(key), typ):
            names = typ if isinstance(typ, tuple) else (typ,)
            raise ValueError("%s needs a key %r of type %s" % (
                what, key, " or ".join(t.__name__ for t in names)))
    return [d[key] for key in types]


def tableau_to_json(t):
    return {"n": t.n, "role": t.role,
            "rows": [[_value_out(v) for v in row] for row in t.rows]}


def tableau_from_json(d):
    n, rows = _json_fields(d, "tableau", n=int, rows=list)
    if not all(isinstance(row, list) for row in rows):
        raise ValueError("tableau rows must be lists")
    rows = tuple(tuple(_value_in(v) for v in row) for row in rows)
    return Tableau(n, rows, d.get("role", GZ))


def parse_number(s):
    """Exact if possible: 'p/q' and integer literals become Fractions,
    anything else goes through float first."""
    s = s.strip()
    if "/" in s or s.lstrip("+-").isdigit():
        return _exact_in(s)
    return _exact_in(float(s))


def format_number(v):
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else str(v)
    return repr(float(v))


def triple_csv_header(n):
    cols = ["a%d" % i for i in range(1, n + 1)]
    cols += ["b%d" % i for i in range(1, n + 1)]
    cols += ["c%d" % i for i in range(1, n + 1)]
    return ",".join(cols)


def triple_to_csv(t):
    vals = list(t.a) + list(t.b) + list(t.c)
    return ",".join(format_number(v) for v in vals)


def triple_from_csv(line, n):
    parts = line.strip().split(",")
    if len(parts) != 3 * n:
        raise ValueError("expected %d fields, got %d" % (3 * n, len(parts)))
    vals = [parse_number(p) for p in parts]
    return HornTriple(vals[:n], vals[n:2 * n], vals[2 * n:])
