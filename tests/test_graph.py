import io
from fractions import Fraction

import numpy as np
import pytest

from hkcluster import (
    Graph,
    GraphError,
    cheeger_ratio,
    edge_boundary,
    edge_list_text,
    load_edge_list,
    volume,
)
from hkcluster.generators import (
    complete_graph,
    cycle_graph,
    path_graph,
    random_connected_graph,
    two_clique_bridge,
)

from helpers import random_graph_pool


def test_parse_smallest_path():
    g = load_edge_list(io.StringIO("0 1\n1 2\n"))
    assert g.node_count == 3
    assert g.edge_count == 2
    assert [g.degree(v) for v in range(3)] == [1, 2, 1]


def test_parse_comments_blanks_and_whitespace():
    g = load_edge_list(io.StringIO("# header\n\n  0\t1 \n# mid\n1 2\n"))
    assert g.edge_count == 2


def test_duplicate_edges_collapse():
    g = load_edge_list(io.StringIO("0 1\n1 0\n0 1\n1 2\n"))
    assert g.edge_count == 2


def test_self_loop_rejected_with_line_number():
    with pytest.raises(GraphError, match="line 2.*self-loop"):
        load_edge_list(io.StringIO("0 1\n0 0\n"))


def test_disconnected_rejected_naming_nodes():
    with pytest.raises(GraphError, match="disconnected.*node 2"):
        load_edge_list(io.StringIO("0 1\n2 3\n"))


def test_id_gap_leaves_isolated_node_and_is_rejected():
    with pytest.raises(GraphError, match="disconnected"):
        load_edge_list(io.StringIO("0 1\n3 1\n"))


@pytest.mark.parametrize("text", ["0\n", "0 1 2\n", "a b\n", "-1 2\n"])
def test_malformed_lines_rejected(text):
    with pytest.raises(GraphError):
        load_edge_list(io.StringIO(text))


def test_empty_input_rejected():
    with pytest.raises(GraphError, match="empty"):
        load_edge_list(io.StringIO("# only comments\n"))


def test_round_trip_serialization():
    g = random_connected_graph(30, 40, seed=5)
    g2 = load_edge_list(io.StringIO(edge_list_text(g)))
    assert g2.adjacency == g.adjacency


def test_volume_examples():
    k4 = complete_graph(4)
    assert volume(k4, {0}) == 3
    p3 = path_graph(3)
    assert volume(p3, range(3)) == 2 * p3.edge_count == 4
    assert volume(p3, set()) == 0


def test_cheeger_examples():
    k4 = complete_graph(4)
    assert cheeger_ratio(k4, {1}) == Fraction(1)  # 3/min(3,9)
    c6 = cycle_graph(6)
    assert cheeger_ratio(c6, {1, 2, 3}) == Fraction(1, 3)
    with pytest.raises(GraphError):
        cheeger_ratio(k4, set(range(4)))
    with pytest.raises(GraphError):
        cheeger_ratio(k4, set())


def test_two_clique_planted_ratio():
    g = two_clique_bridge(20)
    assert g.edge_count == 2 * (20 * 19 // 2) + 1
    side = set(range(20))
    assert volume(g, side) == 20 * 19 + 1 == 381
    assert edge_boundary(g, side) == 1
    assert cheeger_ratio(g, side) == Fraction(1, 381)


def test_cheeger_properties_on_random_graphs():
    rng = np.random.default_rng(11)
    for g in random_graph_pool(25, 40, base_seed=11):
        n = g.node_count
        size = int(rng.integers(1, n))
        members = set(int(v) for v in rng.choice(n, size=size, replace=False))
        rest = set(range(n)) - members
        ratio = cheeger_ratio(g, members)
        # complement symmetry, bounds, and volume partition
        assert ratio == cheeger_ratio(g, rest)
        assert Fraction(0) < ratio <= Fraction(1)
        assert volume(g, members) + volume(g, rest) == 2 * g.edge_count


def test_single_node_graph_allowed_directly():
    g = Graph.from_edges(1, [])
    assert g.node_count == 1
    assert g.edge_count == 0


def test_from_edges_validation():
    with pytest.raises(GraphError, match="self-loop"):
        Graph.from_edges(3, [(0, 1), (1, 1), (1, 2)])
    with pytest.raises(GraphError, match="out of range"):
        Graph.from_edges(2, [(0, 5)])


def test_shortest_path_deterministic():
    c6 = cycle_graph(6)
    assert c6.shortest_path(0, 3) == [0, 1, 2, 3]  # min-ID parent tie-break
    assert c6.shortest_path(2, 2) == [2]


def test_cached_views_match_adjacency():
    g = random_connected_graph(200, 300, seed=4)
    flat, offsets, degrees = g.csr_arrays()
    src = g.arc_sources()
    assert src is g.arc_sources() and g.edge_count == g.edge_count
    assert g.edge_count == sum(len(a) for a in g.adjacency) // 2 == len(flat) // 2
    arcs = [(int(u), int(w)) for u, w in zip(src, flat)]
    assert arcs == [(u, w) for u in range(g.node_count) for w in g.adjacency[u]]
