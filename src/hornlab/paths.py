"""Path systems and their generating functions over a semiring.

Every path-system quantity here comes from one layered dynamic program:
_sweep carries a distribution over sets of occupied positions through the
network one x-layer at a time, multiplying per-slice compound matrices.
Edges spanning several layers are subdivided on the fly (the weight rides
on the first segment), so each slice is a plain bipartite step and, by
planarity, every disjoint system inside a slice is the unique
order-preserving matching of its endpoints.  minor, m_k, tropical_gz and
correspondence_matrix all read its output, over any semiring; the
chamber's profile table is m_k over SUPPORTS.  The independent route, a
depth-first search over explicit path systems (enumerate_kpaths and
minor_enum), lives in tests/oracles.py, and the tests hold the two to
exact agreement.

In a planar left-to-right network a vertex-disjoint system always connects
the a-th smallest of its source labels to the a-th smallest of its sink
labels, so systems are indexed by the two label sets alone.
"""

from __future__ import annotations

from fractions import Fraction
import cmath

from .hive import Tableau, TROPICAL_GZ
from .network import subnetwork
from .semiring import BOTTOM, COMPLEX, TROPICAL


class _Layers:
    """x-layer decomposition with long edges subdivided.

    Positions within a layer are indexed top down (decreasing y), so at the
    boundary layers position a is exactly label a + 1.
    """

    def __init__(self, g):
        xs = sorted({x for x, _ in g.nodes.values()})
        lx = {x: t for t, x in enumerate(xs)}
        slot_y = [dict() for _ in xs]
        for v, (x, y) in g.nodes.items():
            slot_y[lx[x]][("n", v)] = y
        spans = {}
        for e in g.edges:
            x0, y0 = g.nodes[e.tail]
            x1, y1 = g.nodes[e.head]
            t0, t1 = lx[x0], lx[x1]
            spans[e] = (t0, t1)
            for t in range(t0 + 1, t1):
                yt = y0 + (y1 - y0) * Fraction(xs[t] - x0, x1 - x0)
                slot_y[t][("v", e)] = yt
        self.pos = []
        self.width = []
        for t in range(len(xs)):
            order = sorted(slot_y[t], key=lambda s: slot_y[t][s], reverse=True)
            self.pos.append({s: i for i, s in enumerate(order)})
            self.width.append(len(order))
        self.slices = [dict() for _ in range(len(xs) - 1)]
        for e, (t0, t1) in spans.items():
            for t in range(t0, t1):
                a = self.pos[t][("n", e.tail) if t == t0 else ("v", e)]
                b = self.pos[t + 1][("n", e.head) if t + 1 == t1 else ("v", e)]
                self.slices[t].setdefault(a, []).append((b, e if t == t0 else None))
        for sl in self.slices:
            for lst in sl.values():
                lst.sort(key=lambda p: p[0])
        self.source_pos = tuple(self.pos[0][("n", v)] for v in g.sources)
        self.sink_pos = tuple(self.pos[-1][("n", v)] for v in g.sinks)


def _layers_of(g):
    cache = getattr(g, "_layer_cache", None)
    if cache is None:
        cache = _Layers(g)
        g._layer_cache = cache
    return cache


def _sweep(layers, w, ring, start):
    """Propagate a distribution over position subsets through all slices.

    start maps sorted position tuples to semiring values.  Within a slice
    only order-preserving disjoint matchings exist (planarity), so subsets
    extend by choosing, per position, an out-edge with strictly increasing
    targets.
    """
    one = ring.one
    zero = ring.zero
    dist = start
    for sl in layers.slices:
        new = {}

        def extend(iset, idx, floor, acc, bs):
            if idx == len(iset):
                key = tuple(bs)
                prev = new.get(key, zero)
                new[key] = ring.add(prev, acc)
                return
            for b, e in sl.get(iset[idx], ()):
                if b <= floor:
                    continue
                val = acc if e is None else ring.mul(acc, w[e])
                if val == zero or val is BOTTOM:
                    continue
                bs.append(b)
                extend(iset, idx + 1, b, val, bs)
                bs.pop()

        for iset, val in dist.items():
            extend(iset, 0, -1, val, [])
        dist = new
    return dist


def minor(g, w, rows, cols, ring):
    """Production minor via the sliced compound product."""
    rows = tuple(sorted(rows))
    cols = tuple(sorted(cols))
    if len(rows) != len(cols):
        raise ValueError("need equally many sources and sinks")
    if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
        raise ValueError("labels must be distinct")
    if not all(1 <= lab <= g.rank for lab in rows + cols):
        raise ValueError("label out of range")
    layers = _layers_of(g)
    start_key = tuple(sorted(layers.source_pos[i - 1] for i in rows))
    goal = tuple(sorted(layers.sink_pos[j - 1] for j in cols))
    dist = _sweep(layers, w, ring, {start_key: ring.one})
    return dist.get(goal, ring.zero)


def m_k(g, w, k, ring):
    """Best (or total) weight over all k-systems, any sources to any sinks."""
    if not 1 <= k <= g.rank:
        raise ValueError("k out of range")
    from itertools import combinations

    layers = _layers_of(g)
    start = {tuple(sorted(c)): ring.one
             for c in combinations(layers.source_pos, k)}
    dist = _sweep(layers, w, ring, start)
    sink_sets = {tuple(sorted(c)) for c in combinations(layers.sink_pos, k)}
    return ring.sum(v for key, v in dist.items() if key in sink_sets)


def correspondence_matrix(g, w, ring):
    """The n x n matrix of single-path generating functions: one sweep from
    each source, read at every sink."""
    layers = _layers_of(g)
    mat = []
    for a in layers.source_pos:
        dist = _sweep(layers, w, ring, {(a,): ring.one})
        mat.append([dist.get((b,), ring.zero) for b in layers.sink_pos])
    return mat


def tropical_singular_values(g, w):
    """Consecutive differences of the tropical minors m_1 <= k <= n."""
    n = g.rank
    ms = [m_k(g, w, k, TROPICAL) for k in range(1, n + 1)]
    out = []
    prev = Fraction(0)
    for m in ms:
        if m is BOTTOM or prev is BOTTOM:
            out.append(BOTTOM)
        else:
            out.append(m - prev)
        prev = m
    return tuple(out)


def _subnets_of(g):
    cache = getattr(g, "_subnet_cache", None)
    if cache is None:
        cache = {k: subnetwork(g, k) for k in range(1, g.rank + 1)}
        cache[g.rank] = g
        g._subnet_cache = cache
    return cache


def tropical_gz(g, w):
    """The triangle of tropical minors of all bottom subnetworks.

    Row k collects m_1, ..., m_k of the subnetwork on lines 1..k, with the
    usual zero left edge.  Lindstrom duality makes this land in the
    interlacing cone whenever every row is finite.
    """
    n = g.rank
    subs = _subnets_of(g)
    rows = [(Fraction(0),)]
    for k in range(1, n + 1):
        sub = subs[k]
        row = [Fraction(0)]
        for i in range(1, k + 1):
            row.append(m_k(sub, w, i, TROPICAL))
        rows.append(tuple(row))
    return Tableau(n, tuple(rows), TROPICAL_GZ)


def complex_lift(g, u, phases, tau):
    """Path matrix of the network with edge values exp(tau * u(e)) * phase(e).

    phases maps edges to unit complex numbers; None means all ones.  The
    result is the exponentiated companion of the tropical matrix at scale
    tau, as nested lists of complex.
    """
    w = {}
    for e in g.edges:
        ph = complex(1.0, 0.0) if phases is None else complex(phases[e])
        w[e] = cmath.exp(tau * float(u[e])) * ph
    return correspondence_matrix(g, w, COMPLEX)
