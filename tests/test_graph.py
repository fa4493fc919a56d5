import io
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

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

from helpers import (
    random_graph_pool,
    reference_from_edges,
    reference_random_connected_graph,
)


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


def test_id_gap_named_before_per_node_allocation():
    # the gap check runs on the distinct IDs, so it does not allocate 5e9 nodes
    with pytest.raises(GraphError, match="^graph is disconnected: node 1 has no edges$"):
        load_edge_list(io.StringIO("0 5000000000\n"))
    with pytest.raises(GraphError, match="node 2 has no edges"):
        load_edge_list(io.StringIO("0 1\n3 1\n"))


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


def _assert_same_graph(g, reference):
    adjacency, csr = reference
    assert g.adjacency == adjacency
    for got, want in zip(g.csr_arrays(), csr):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)
    assert g.edge_count == len(csr[0]) // 2


def _generator_cases():
    rng = np.random.default_rng(2024)
    cases = [(1, 0, 0), (1, 4, 1), (2, 5, 0), (2, 5, 7), (5, 100, 0), (5, 100, 3), (50, 2000, 1)]
    for _ in range(150):
        n = int(rng.integers(1, 121))
        cases.append((n, int(rng.integers(0, 3 * n + 1)), int(rng.integers(0, 2**31))))
    return cases + [(10_000, 20_000, 0)]


def test_random_connected_graph_matches_reference():
    """Batched draws give the graphs of one scalar draw per value, including
    saturated cases where most candidates are rejected."""
    for n, extra, seed in _generator_cases():
        _assert_same_graph(
            random_connected_graph(n, extra, seed),
            reference_random_connected_graph(n, extra, seed),
        )


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_array_generators_match_reference(n):
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    _assert_same_graph(path_graph(n), reference_from_edges(n, [(i, i + 1) for i in range(n - 1)]))
    _assert_same_graph(complete_graph(n), reference_from_edges(n, pairs))
    if n >= 3:
        cycle = [(i, (i + 1) % n) for i in range(n)]
        _assert_same_graph(cycle_graph(n), reference_from_edges(n, cycle))
    if n >= 2:
        bridged = pairs + [(n + i, n + j) for i, j in pairs] + [(n - 1, n)]
        _assert_same_graph(two_clique_bridge(n), reference_from_edges(2 * n, bridged))


def test_from_edges_input_forms_and_errors():
    pairs = [(0, 1), (2, 1), (1, 0), (3, 2), (0, 1), (np.int32(3), np.int64(0))]
    reference = reference_from_edges(4, pairs)
    assert reference[0] == ((1, 3), (0, 2), (1, 3), (0, 2))
    for form in (
        pairs,
        set(map(tuple, np.array(pairs).tolist())),
        (p for p in pairs),
        np.array(pairs),
        np.array(pairs, dtype=np.uint16),
    ):
        _assert_same_graph(Graph.from_edges(4, form), reference)
    _assert_same_graph(Graph.from_edges(1, []), reference_from_edges(1, []))
    _assert_same_graph(Graph.from_edges(1, np.empty((0, 2), dtype=int)), reference_from_edges(1, []))
    # the first bad pair in input order names the error
    with pytest.raises(GraphError, match=r"self-loop at node 1$"):
        Graph.from_edges(3, [(0, 1), (1, 1), (0, 9)])
    with pytest.raises(GraphError, match=r"edge \(0,9\) out of range for n=3$"):
        Graph.from_edges(3, [(0, 9), (1, 1)])
    with pytest.raises(GraphError, match=r"edge \(-1,2\) out of range"):
        Graph.from_edges(3, np.array([(0, 1), (-1, 2)]))
    with pytest.raises(GraphError, match=rf"edge \(0,{2**70}\) out of range"):
        Graph.from_edges(3, [(0, 1), (0, 2**70)])
    with pytest.raises(GraphError, match="integers"):
        Graph.from_edges(3, [(0.0, 1.0), (1.0, 2.0)])
    with pytest.raises(GraphError, match="pairs"):
        Graph.from_edges(3, [(0, 1, 2)])
    with pytest.raises(GraphError, match="at least one node"):
        Graph.from_edges(0, [])
    # random edge lists, some with bad pairs: same graph or same message
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        edges = [tuple(int(x) for x in rng.integers(-1, n + 1, size=2)) for _ in range(int(rng.integers(0, 3 * n)))]
        try:
            reference = reference_from_edges(n, edges)
        except GraphError as exc:
            with pytest.raises(GraphError) as got:
                Graph.from_edges(n, edges)
            assert str(got.value) == str(exc)
        else:
            _assert_same_graph(Graph.from_edges(n, edges), reference)


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


def test_library_needs_no_scipy():
    """scipy is a test extra: the library builds graphs and runs the exact
    series with scipy unimportable."""
    import hkcluster

    src = Path(hkcluster.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import hkcluster\n"
        "from hkcluster.generators import random_connected_graph\n"
        "g = random_connected_graph(500, 1000)\n"
        "vec = hkcluster.exact_phkpr(g, 0, 3.0)\n"
        "assert 'scipy' not in [m.split('.')[0] for m in sys.modules if sys.modules[m]]\n"
        "print(g.edge_count, abs(vec.total() - 1) < 1e-6)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["1499", "True"]
