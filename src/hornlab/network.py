"""Planar layered networks.

A network here is a finite acyclic digraph embedded in the plane with every
edge oriented strictly left to right, n sources on the left boundary and n
sinks on the right boundary, one per height y = 1..n.  Row and column labels
run top down: label i lives at height n + 1 - i, so path matrices of the
reference network come out upper triangular.

Node coordinates are exact (ints or Fractions) and all geometric validation
is done in exact arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .hive import _exact_in, _json_fields

HORIZONTAL = "horizontal"
DIAGONAL = "diagonal"
SINK_HORIZONTAL = "sink-adjacent"

_TAGS = (HORIZONTAL, DIAGONAL, SINK_HORIZONTAL)


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    tag: str


def _orientation(p, q, r):
    """Sign of the cross product (q - p) x (r - p); exact for int/Fraction."""
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def _segments_conflict(a, b, c, d):
    """True if segments ab and cd meet anywhere except at shared endpoints."""
    shared = {a, b} & {c, d}
    if len(shared) == 2:
        return True  # identical or reversed segment drawn twice
    o1 = _orientation(a, b, c)
    o2 = _orientation(a, b, d)
    o3 = _orientation(c, d, a)
    o4 = _orientation(c, d, b)
    if shared:
        # with one shared endpoint the only failure mode is collinear overlap
        if o1 == 0 and o2 == 0 and o3 == 0 and o4 == 0:
            # overlap iff the two segments are not merely touching end to end
            s1, s2 = sorted([a, b]), sorted([c, d])
            return not (s1[1] <= s2[0] or s2[1] <= s1[0])
        return False
    if o1 != o2 and o3 != o4:
        return True
    def on_seg(p, q, r):
        return (_orientation(p, q, r) == 0
                and min(p[0], q[0]) <= r[0] <= max(p[0], q[0])
                and min(p[1], q[1]) <= r[1] <= max(p[1], q[1]))
    return on_seg(a, b, c) or on_seg(a, b, d) or on_seg(c, d, a) or on_seg(c, d, b)


class PlanarNetwork:
    """Immutable planar left-to-right network of rank n.

    Parameters
    ----------
    rank : int
        Number of sources (= sinks).
    nodes : dict
        node id -> (x, y) with exact coordinates.
    edges : iterable of Edge
    sources, sinks : sequence of node ids
        Index 0 is label 1, i.e. the topmost boundary node at height n.
    """

    def __init__(self, rank, nodes, edges, sources, sinks, check=True):
        self.rank = int(rank)
        self.nodes = {int(k): (v[0], v[1]) for k, v in nodes.items()}
        self.edges = tuple(sorted(
            edges,
            key=lambda e: (self.nodes[e.tail][0], self.nodes[e.tail][1],
                           self.nodes[e.head][0], self.nodes[e.head][1]),
        ))
        self.sources = tuple(sources)
        self.sinks = tuple(sinks)
        self._out = {}
        self._in = {}
        for e in self.edges:
            self._out.setdefault(e.tail, []).append(e)
            self._in.setdefault(e.head, []).append(e)
        self._coord_index = {v: k for k, v in self.nodes.items()}
        if check:
            self._validate()

    # -- construction-time sanity ------------------------------------------

    def _validate(self):
        n = self.rank
        if n < 1:
            raise ValueError("rank must be positive")
        if len(self.sources) != n or len(self.sinks) != n:
            raise ValueError("need exactly rank sources and sinks")
        if len(self._coord_index) != len(self.nodes):
            raise ValueError("two nodes share a coordinate")
        for i, sid in enumerate(self.sources):
            if self.nodes[sid][1] != n - i:
                raise ValueError("source label %d not at height %d" % (i + 1, n - i))
        for i, sid in enumerate(self.sinks):
            if self.nodes[sid][1] != n - i:
                raise ValueError("sink label %d not at height %d" % (i + 1, n - i))
        for e in self.edges:
            if e.tag not in _TAGS:
                raise ValueError("unknown edge tag %r" % (e.tag,))
            xt = self.nodes[e.tail][0]
            xh = self.nodes[e.head][0]
            if not xt < xh:
                raise ValueError("edge not oriented strictly left to right")
        for sid in self.sources:
            if self._in.get(sid):
                raise ValueError("source has incoming edges")
        for sid in self.sinks:
            if self._out.get(sid):
                raise ValueError("sink has outgoing edges")
        segs = [(self.nodes[e.tail], self.nodes[e.head]) for e in self.edges]
        for i in range(len(segs)):
            for j in range(i + 1, len(segs)):
                if _segments_conflict(segs[i][0], segs[i][1], segs[j][0], segs[j][1]):
                    raise ValueError("edges cross: embedding is not planar")

    # -- small accessors ----------------------------------------------------

    def xy(self, node):
        return self.nodes[node]

    def out_edges(self, node):
        return self._out.get(node, ())

    def in_edges(self, node):
        return self._in.get(node, ())

    def source_of_label(self, i):
        return self.sources[i - 1]

    def sink_of_label(self, j):
        return self.sinks[j - 1]

    def sink_horizontal(self, height):
        """The sink-adjacent edge entering the sink at a given height."""
        sid = self.sinks[self.rank - height]
        for e in self.in_edges(sid):
            if e.tag == SINK_HORIZONTAL:
                return e
        raise ValueError("no sink-adjacent edge at height %d" % height)

    def diagonals(self):
        """All diagonal edges in drawing order (left to right, top down)."""
        return tuple(e for e in self.edges if e.tag == DIAGONAL)

    def __repr__(self):
        return ("PlanarNetwork(rank=%d, nodes=%d, edges=%d)"
                % (self.rank, len(self.nodes), len(self.edges)))


def build_gamma0(n):
    """The reference network of rank n.

    n - 1 staircases of diagonal edges sit between n full horizontal lines,
    the longest staircase leftmost: staircase j (1-based) descends from
    height n down to height j in unit steps.  Consecutive staircases are
    separated by one unit of horizontal slack so the embedding has a node at
    every (layer, line) crossing it needs and nowhere else.

    Sink-adjacent horizontal edges (the last edge of every line) carry the
    reduced weightings used by the chamber inversion; see chamber.py.
    """
    if n < 1:
        raise ValueError("rank must be positive")
    starts = {}
    x = 1
    for j in range(1, n):
        starts[j] = x
        x += (n - j) + 1
    width = max(x, 1)

    coords = []
    for h in range(n, 0, -1):
        line = [(0, h)]
        for j in range(1, n):
            if j <= h:
                line.append((starts[j] + (n - h), h))
        line.append((width, h))
        coords.append(line)

    ids = {}
    nodes = {}
    nid = 0
    for line in coords:
        for xy in line:
            ids[xy] = nid
            nodes[nid] = xy
            nid += 1

    edges = []
    for line in coords:
        for a, b in zip(line, line[1:]):
            tag = SINK_HORIZONTAL if b[0] == width else HORIZONTAL
            edges.append(Edge(ids[a], ids[b], tag))
    for j in range(1, n):
        for h in range(n, j, -1):
            tail = (starts[j] + (n - h), h)
            head = (starts[j] + (n - h) + 1, h - 1)
            edges.append(Edge(ids[tail], ids[head], DIAGONAL))

    sources = [ids[(0, h)] for h in range(n, 0, -1)]
    sinks = [ids[(width, h)] for h in range(n, 0, -1)]
    return PlanarNetwork(n, nodes, edges, sources, sinks)


def subnetwork(g, k):
    """The induced subnetwork on the bottom k lines (heights 1..k).

    Node identities and edge objects are preserved, so a weighting of g
    restricts to the subnetwork by plain dict lookup.
    """
    if not 1 <= k <= g.rank:
        raise ValueError("k out of range")
    keep = {v for v, (_, y) in g.nodes.items() if y <= k}
    nodes = {v: g.nodes[v] for v in keep}
    edges = [e for e in g.edges if e.tail in keep and e.head in keep]
    sources = g.sources[g.rank - k:]
    sinks = g.sinks[g.rank - k:]
    return PlanarNetwork(k, nodes, edges, sources, sinks, check=False)


class _Concatenation(PlanarNetwork):
    """Concatenation of two networks; remembers where each edge came from."""

    def __init__(self, rank, nodes, edges, sources, sinks, left_map, right_map):
        super().__init__(rank, nodes, edges, sources, sinks)
        self.left_map = left_map
        self.right_map = right_map


def concatenate(g1, g2):
    """Glue sink i of g1 to source i of g2; ranks must agree.

    Sink-adjacent edges of g1 become interior horizontals of the composite.
    The result keeps maps from the original edges to the composite edges so
    weightings can be transported; see compose_weightings.
    """
    if g1.rank != g2.rank:
        raise ValueError("ranks differ")
    n = g1.rank
    offset = max(g1.nodes) + 1
    x1 = max(x for x, _ in g1.nodes.values())
    x2min = min(x for x, _ in g2.nodes.values())
    shift = x1 - x2min

    node_map = {}
    for i, sid in enumerate(g2.sources):
        node_map[sid] = g1.sinks[i]
    nodes = dict(g1.nodes)
    for v, (x, y) in g2.nodes.items():
        if v in node_map:
            continue
        node_map[v] = v + offset
        nodes[v + offset] = (x + shift, y)

    g1_sinks = set(g1.sinks)
    left_map = {}
    edges = []
    for e in g1.edges:
        tag = HORIZONTAL if (e.tag == SINK_HORIZONTAL and e.head in g1_sinks) else e.tag
        ne = Edge(e.tail, e.head, tag)
        left_map[e] = ne
        edges.append(ne)
    right_map = {}
    for e in g2.edges:
        ne = Edge(node_map[e.tail], node_map[e.head], e.tag)
        right_map[e] = ne
        edges.append(ne)

    sinks = [node_map[v] for v in g2.sinks]
    return _Concatenation(n, nodes, edges, g1.sources, sinks, left_map, right_map)


def compose_weightings(gc, w1, w2):
    """Transport weightings of the two factors onto their concatenation."""
    w = {}
    for e, ne in gc.left_map.items():
        w[ne] = w1[e]
    for e, ne in gc.right_map.items():
        w[ne] = w2[e]
    return w


# -- serialization ----------------------------------------------------------


def _coord_out(c):
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else str(c)
    return c


def network_to_json(g):
    return {
        "rank": g.rank,
        "nodes": [{"id": v, "x": _coord_out(x), "y": _coord_out(y)}
                  for v, (x, y) in sorted(g.nodes.items())],
        "edges": [{"tail": e.tail, "head": e.head, "tag": e.tag} for e in g.edges],
        "sources": list(g.sources),
        "sinks": list(g.sinks),
    }


def network_from_json(d):
    """The network of a network_to_json document; a malformed document or
    coordinate, a repeated node id and an edge, source or sink naming no
    node raise ValueError."""
    rank, records, links, sources, sinks = _json_fields(
        d, "network", rank=int, nodes=list, edges=list, sources=list,
        sinks=list)
    nodes = {v: (_exact_in(x), _exact_in(y)) for v, x, y in (
        _json_fields(rec, "network node", id=int, x=(int, float, str),
                     y=(int, float, str)) for rec in records)}
    edges = [Edge(*_json_fields(rec, "network edge", tail=int, head=int,
                                tag=str)) for rec in links]
    ends = [v for e in edges for v in (e.tail, e.head)] + sources + sinks
    if len(nodes) != len(records) or \
            not all(type(v) is int and v in nodes for v in ends):
        raise ValueError("network node ids must be distinct, and every "
                         "edge, source and sink must name a node")
    return PlanarNetwork(rank, nodes, edges, sources, sinks)


def network_to_dot(g):
    lines = ["digraph network {", "  rankdir=LR;", "  node [shape=point];"]
    for v, (x, y) in sorted(g.nodes.items()):
        lines.append('  n%d [pos="%s,%s!"];' % (v, x, y))
    style = {HORIZONTAL: "", DIAGONAL: ' [style=dashed]',
             SINK_HORIZONTAL: ' [color=gray]'}
    for e in g.edges:
        lines.append("  n%d -> n%d%s;" % (e.tail, e.head, style[e.tag]))
    lines.append("}")
    return "\n".join(lines) + "\n"
