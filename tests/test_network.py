"""Reference network geometry, validation, concatenation, serialization."""

from fractions import Fraction

import pytest

from hornlab import (
    DIAGONAL,
    HORIZONTAL,
    SINK_HORIZONTAL,
    Edge,
    PlanarNetwork,
    build_gamma0,
    compose_weightings,
    concatenate,
    network_from_json,
    network_to_dot,
    network_to_json,
    subnetwork,
)

# Node/edge counts for the reference staircase.  Line j starts at
# x = 1, 3, 6, 10, ... (gaps n-j+1) so the sizes obey
# nodes(n) = nodes(n-1) + n + 2 and edges(n) = edges(n-1) + 2n.
GAMMA0_SIZES = {1: (2, 1), 2: (6, 5), 3: (11, 11), 4: (17, 19), 5: (24, 29)}


@pytest.mark.parametrize("n", sorted(GAMMA0_SIZES))
def test_gamma0_sizes(n):
    g = build_gamma0(n)
    assert (len(g.nodes), len(g.edges)) == GAMMA0_SIZES[n]
    assert sum(1 for e in g.edges if e.tag == DIAGONAL) == n * (n - 1) // 2
    assert sum(1 for e in g.edges if e.tag == SINK_HORIZONTAL) == n


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_gamma0_boundary_labels(n):
    g = build_gamma0(n)
    # label i sits at height n + 1 - i on both boundaries
    for i in range(1, n + 1):
        assert g.nodes[g.source_of_label(i)][1] == n + 1 - i
        assert g.nodes[g.sink_of_label(i)][1] == n + 1 - i
    for sid in g.sources:
        assert not g.in_edges(sid)
    for sid in g.sinks:
        assert not g.out_edges(sid)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gamma0_edge_shapes(n):
    g = build_gamma0(n)
    for e in g.edges:
        (xt, yt), (xh, yh) = g.xy(e.tail), g.xy(e.head)
        if e.tag == DIAGONAL:
            # diagonals drop exactly one line while advancing one unit
            assert yh == yt - 1 and xh == xt + 1
        else:
            assert yh == yt
    for h in range(1, n + 1):
        e = g.sink_horizontal(h)
        assert e.tag == SINK_HORIZONTAL
        assert e.head == g.sink_of_label(n + 1 - h)


def test_gamma0_n1_is_a_single_edge():
    g = build_gamma0(1)
    (e,) = g.edges
    assert e.tag == SINK_HORIZONTAL
    assert e.tail == g.source_of_label(1)
    assert e.head == g.sink_of_label(1)


def _tiny(rank, nodes, edges, sources, sinks):
    return PlanarNetwork(rank, nodes, edges, sources, sinks)


def test_validation_rejects_duplicate_coordinates():
    nodes = {0: (0, 1), 1: (0, 1), 2: (2, 1)}
    with pytest.raises(ValueError, match="share a coordinate"):
        _tiny(1, nodes, [Edge(0, 2, HORIZONTAL)], [0], [2])


def test_validation_rejects_crossing_edges():
    # an X: (0,1)->(2,2) against (0,2)->(2,1)
    nodes = {0: (0, 2), 1: (0, 1), 2: (2, 2), 3: (2, 1), 4: (Fraction(-1), 2), 5: (3, 2)}
    edges = [Edge(0, 3, DIAGONAL), Edge(1, 2, HORIZONTAL),
             Edge(4, 0, HORIZONTAL), Edge(2, 5, SINK_HORIZONTAL)]
    with pytest.raises(ValueError, match="not planar"):
        _tiny(1, {0: nodes[0], 1: nodes[1], 2: nodes[2], 3: nodes[3]},
              edges[:2], [1], [3])


def test_validation_rejects_right_to_left_edges():
    nodes = {0: (0, 1), 1: (2, 1)}
    with pytest.raises(ValueError, match="left to right"):
        _tiny(1, nodes, [Edge(1, 0, HORIZONTAL)], [0], [1])


def test_validation_rejects_misplaced_labels():
    # source label 1 must sit at height rank
    nodes = {0: (0, 1), 1: (2, 1)}
    with pytest.raises(ValueError, match="height"):
        _tiny(2, nodes, [], [0, 0], [1, 1])


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (3, 3), (4, 2)])
def test_subnetwork_keeps_bottom_lines(n, k):
    g = build_gamma0(n)
    sub = subnetwork(g, k)
    assert sub.rank == k
    # the k bottom lines survive with their node ids intact
    for i in range(1, k + 1):
        assert sub.nodes[sub.source_of_label(i)][1] == k + 1 - i
    for nid in sub.nodes:
        assert nid in g.nodes
        assert g.nodes[nid][1] <= k
    assert set(sub.edges) <= set(g.edges)


def test_subnetwork_full_rank_is_identity():
    g = build_gamma0(3)
    assert subnetwork(g, 3).edges == g.edges


def test_concatenate_glues_sinks_to_sources():
    g = build_gamma0(2)
    gc = concatenate(g, g)
    assert gc.rank == 2
    assert len(gc.edges) == 2 * len(g.edges)
    # the glue line is identified, so rank many nodes disappear
    assert len(gc.nodes) == 2 * len(g.nodes) - g.rank
    # every non-boundary node is passed through, none dangles
    boundary = set(gc.sources) | set(gc.sinks)
    for nid in gc.nodes:
        if nid not in boundary:
            assert gc.in_edges(nid) and gc.out_edges(nid)


def test_concatenate_retags_interior_sink_edges():
    # sink-adjacent edges of the left factor become plain horizontals:
    # only the right factor touches the boundary of the composite
    g = build_gamma0(2)
    gc = concatenate(g, g)
    assert sum(1 for e in gc.edges if e.tag == SINK_HORIZONTAL) == g.rank


def test_compose_weightings_covers_every_edge():
    g = build_gamma0(2)
    gc = concatenate(g, g)
    w1 = {e: Fraction(1) for e in g.edges}
    w2 = {e: Fraction(2) for e in g.edges}
    w = compose_weightings(gc, w1, w2)
    assert set(w) == set(gc.edges)
    assert sorted(w.values()) == [Fraction(1)] * 5 + [Fraction(2)] * 5


def test_json_round_trip():
    g = build_gamma0(3)
    d = network_to_json(g)
    h = network_from_json(d)
    assert h.rank == g.rank
    assert h.edges == g.edges
    assert h.nodes == g.nodes
    assert h.sources == g.sources and h.sinks == g.sinks


def test_json_preserves_fraction_coordinates():
    nodes = {0: (Fraction(1, 2), 1), 1: (2, 1)}
    g = PlanarNetwork(1, nodes, [Edge(0, 1, SINK_HORIZONTAL)], [0], [1])
    h = network_from_json(network_to_json(g))
    assert h.nodes[0] == (Fraction(1, 2), 1)
    assert isinstance(h.nodes[0][0], Fraction)


@pytest.mark.parametrize("n", sorted(GAMMA0_SIZES))
def test_json_round_trip_is_exact(n):
    g = build_gamma0(n)
    for h in (g, concatenate(g, g)):
        d = network_to_json(h)
        assert network_to_json(network_from_json(d)) == d


def _edited(edit):
    d = network_to_json(build_gamma0(2))
    edit(d)
    return d


@pytest.mark.parametrize("doc, message", [
    ({}, "key 'rank' of type int"),
    ([1], "network must be a JSON object"),
    (_edited(lambda d: d.update(nodes=5)), "key 'nodes' of type list"),
    (_edited(lambda d: d.update(rank="2")), "key 'rank' of type int"),
    (_edited(lambda d: d["nodes"][0].pop("x")), "node needs a key 'x'"),
    (_edited(lambda d: d["nodes"][0].update(x="1e-4000")),
     "exponent out of range"),
    (_edited(lambda d: d["nodes"][0].update(x=True)), "node needs a key 'x'"),
    (_edited(lambda d: d["nodes"].append(5)),
     "network node must be a JSON object"),
    (_edited(lambda d: d["edges"][0].pop("tag")), "edge needs a key 'tag'"),
    (_edited(lambda d: d["nodes"][1].update(id=0)), "ids must be distinct"),
    (_edited(lambda d: d["sources"].append(99)), "must name a node"),
], ids=["empty", "list", "nodes-int", "rank-str", "no-x", "huge-exponent",
        "x-bool", "node-int", "no-tag", "repeated-id", "unknown-source"])
def test_json_reader_refuses_a_malformed_document(doc, message):
    # these used to raise KeyError or TypeError, or to read "2" as a rank,
    # true as 1 and 1e-4000 as a 4003-character Fraction
    with pytest.raises(ValueError, match=message):
        network_from_json(doc)


def test_dot_output_mentions_every_node_and_edge():
    g = build_gamma0(2)
    dot = network_to_dot(g)
    assert dot.startswith("digraph")
    for nid in g.nodes:
        assert ("n%d " % nid) in dot or ("n%d;" % nid) in dot or ("n%d ->" % nid) in dot or ("n%d [" % nid) in dot
    assert dot.count("->") == len(g.edges)
