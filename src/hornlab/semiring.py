"""Semiring interfaces and exact (max, +) arithmetic.

All tropical computation in this package runs over exact rationals plus a
distinguished bottom element, so tropical identities hold on the nose and can
be compared with ==.  SUPPORTS, whose values are sets of edge subsets,
turns the same path-system sums into the list of distinct supports.
over_common_denominator is where exact vectors become integers, for
HornTriple and the chamber alike.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class Bottom:
    """The additive unit of the tropical semiring (conceptually -infinity).

    A dedicated singleton rather than float('-inf') so that no IEEE arithmetic
    (-inf + inf, -inf * 0) can ever leak into exact results.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "BOTTOM"

    def __reduce__(self):
        return (Bottom, ())


BOTTOM = Bottom()


def as_rational(x):
    """Exact conversion to Fraction; floats convert via their binary expansion."""
    if isinstance(x, Bottom):
        return x
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        # every finite IEEE double is a dyadic rational; this is lossless
        return Fraction(x)
    raise TypeError("cannot rationalize %r" % type(x).__name__)


# The exact types, and the same set for a fast check of exact types only;
# a subclass (numpy's float64) takes the isinstance path.
_EXACT = (Fraction, int, float)
_EXACT_TYPES = frozenset((Fraction, int, bool, float))


def over_common_denominator(values):
    """A sequence of exact numbers (Fractions, ints or floats) as integers
    over their least common denominator: (ints, den) with
    ints[i] / den == values[i] and gcd(den, *ints) == 1.  Each value is
    read through as_integer_ratio, so a float converts via its binary
    expansion, as in as_rational.  BOTTOM and NaN raise ValueError, an
    infinite float OverflowError, and a type that as_rational refuses
    TypeError."""
    if not _EXACT_TYPES.issuperset(map(type, values)):
        for v in values:
            if v is BOTTOM:
                raise ValueError("entries must be finite")
            if not isinstance(v, _EXACT):
                raise TypeError("cannot rationalize %r" % type(v).__name__)
    ratios = [v.as_integer_ratio() for v in values]
    den = lcm(*{q for _, q in ratios})
    return [p * (den // q) for p, q in ratios], den


class Semiring:
    """An (add, mul) pair with identities; no subtraction is ever assumed."""

    zero = None
    one = None

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def sum(self, items):
        acc = self.zero
        for x in items:
            acc = self.add(acc, x)
        return acc

    def prod(self, items):
        acc = self.one
        for x in items:
            acc = self.mul(acc, x)
        return acc


class TropicalSemiring(Semiring):
    """(max, +) on Fraction values plus BOTTOM."""

    zero = BOTTOM
    one = Fraction(0)

    def add(self, a, b):
        if a is BOTTOM:
            return b
        if b is BOTTOM:
            return a
        return a if a >= b else b

    def mul(self, a, b):
        if a is BOTTOM or b is BOTTOM:
            return BOTTOM
        return a + b


class RationalField(Semiring):
    zero = Fraction(0)
    one = Fraction(1)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b


class ComplexField(Semiring):
    zero = complex(0.0, 0.0)
    one = complex(1.0, 0.0)

    def add(self, a, b):
        return a + b

    def mul(self, a, b):
        return a * b


class SupportSets(Semiring):
    """Sets of edge subsets, each stored as an int bitmask: union adds,
    pairwise OR multiplies.  With one bit per edge a path system's product
    is its edge set, so a sum collects the distinct supports."""

    zero = frozenset()
    one = frozenset((0,))

    def add(self, a, b):
        return a | b

    def mul(self, a, b):
        return frozenset(x | y for x in a for y in b)


TROPICAL = TropicalSemiring()
RATIONAL = RationalField()
COMPLEX = ComplexField()
SUPPORTS = SupportSets()


def mat_mul(ring, a, b):
    """Matrix product over an arbitrary semiring (dense lists of lists)."""
    inner = len(b)
    cols = len(b[0]) if inner else 0
    out = []
    for row in a:
        new = []
        for j in range(cols):
            acc = ring.zero
            for t in range(inner):
                acc = ring.add(acc, ring.mul(row[t], b[t][j]))
            new.append(acc)
        out.append(new)
    return out

