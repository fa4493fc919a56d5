import math
from fractions import Fraction

import pytest

from hkcluster import (
    Graph,
    SimConfig,
    estimate_phkpr_distributed,
    exact_phkpr,
    serial_estimate_phkpr,
    walk_parameters,
)
from hkcluster.distributed import TokenBatch
from hkcluster.generators import karate_club_graph, random_connected_graph, two_clique_bridge

from helpers import eps_approximate


def two_node():
    return Graph.from_edges(2, [(0, 1)])


def test_token_batch_bits():
    assert TokenBatch(0, 1).bits == 2
    assert TokenBatch(6, 255).bits == 3 + 8


def test_t_zero_never_moves():
    g = karate_club_graph()
    vec, stats = estimate_phkpr_distributed(g, 4, 0.0, 0.1, SimConfig(seed=9))
    assert vec.entries == {4: Fraction(1)}
    _, cap = walk_parameters(g.node_count, 0.1)
    assert stats.rounds == cap
    assert stats.total_messages == 0


def test_conservation_is_exact():
    g = karate_club_graph()
    vec, _ = estimate_phkpr_distributed(g, 0, 3.0, 0.1, SimConfig(seed=3))
    assert vec.total() == 1
    r = vec.num_walks
    assert sum(int(val * r) for val in vec.entries.values()) == r


def test_support_within_step_cap_ball():
    g = random_connected_graph(80, 100, seed=2)
    vec, _ = estimate_phkpr_distributed(g, 7, 50.0, 0.1, SimConfig(seed=4))
    dist = g.bfs_distances(7)
    assert all(dist[v] <= vec.step_cap for v in vec.entries)


@pytest.mark.parametrize("n", [100, 1000])
@pytest.mark.parametrize("t", [1.0, 10.0])
def test_rounds_equal_step_cap_independent_of_n_and_t(n, t):
    g = random_connected_graph(n, 2 * n, seed=n)
    vec, stats = estimate_phkpr_distributed(g, 0, t, 0.1, SimConfig(seed=1))
    assert stats.rounds == 6


def test_determinism_same_seed_same_everything():
    g = karate_club_graph()
    a = estimate_phkpr_distributed(g, 2, 2.0, 0.15, SimConfig(seed=77))
    b = estimate_phkpr_distributed(g, 2, 2.0, 0.15, SimConfig(seed=77))
    assert a[0].entries == b[0].entries
    assert a[1] == b[1]
    c = estimate_phkpr_distributed(g, 2, 2.0, 0.15, SimConfig(seed=78))
    assert c[0].entries != a[0].entries


def test_strict_mode_rounds_dominate_paper_mode():
    g = karate_club_graph()
    _, paper = estimate_phkpr_distributed(g, 0, 3.0, 0.1, SimConfig(seed=5, mode="paper"))
    vec, strict = estimate_phkpr_distributed(g, 0, 3.0, 0.1, SimConfig(seed=5, mode="strict"))
    assert strict.rounds >= paper.rounds
    r, cap = walk_parameters(g.node_count, 0.1)
    max_batch_bits = TokenBatch(cap, r).bits
    bw = SimConfig(seed=5).edge_bandwidth(g.node_count)
    assert strict.rounds <= cap * math.ceil(r * max_batch_bits / bw)


def test_epsilon_approximation_rate_against_exact():
    g = karate_club_graph()
    exact = exact_phkpr(g, 0, 3.0, tol=1e-12)
    passed = 0
    for i in range(30):
        vec, _ = estimate_phkpr_distributed(g, 0, 3.0, 0.1, SimConfig(seed=100 + i))
        passed += eps_approximate(exact.entries, vec.entries, 0.1, g.node_count)
    assert passed >= 26


def test_equivalence_check_two_node():
    g = two_node()
    total = 0.0
    for seed in range(200):
        vec = serial_estimate_phkpr(g, 0, math.log(2), 0.1, rng=seed)
        total += float(vec.value(0))
    # exact value e^-t cosh t at t = ln 2
    assert abs(total / 200 - 0.625) <= 0.02


@pytest.mark.parametrize(
    "g,seed_node,t,eps",
    [
        (karate_club_graph(), 6, 0.0, 0.1),
        (karate_club_graph(), 0, 3.0, 0.1),
        (random_connected_graph(300, 600, seed=0), 5, 10.0, 0.1),
        (Graph.from_edges(1, []), 0, 2.0, 0.1),
        (two_clique_bridge(20), 3, 20.0, 0.01),
    ],
    ids=["karate-t0", "karate-t3", "random300-t10", "single-node", "two-cliques-eps0.01"],
)
def test_serial_replays_distributed_walk(g, seed_node, t, eps):
    for seed in (0, 11):
        sv = serial_estimate_phkpr(g, seed_node, t, eps, rng=seed)
        dv, _ = estimate_phkpr_distributed(g, seed_node, t, eps, SimConfig(seed=seed))
        assert sv.entries == dv.entries
        assert (sv.num_walks, sv.step_cap) == (dv.num_walks, dv.step_cap)


def test_single_node_graph_tokens_stay():
    g = Graph.from_edges(1, [])
    vec, stats = estimate_phkpr_distributed(g, 0, 2.0, 0.1, SimConfig(seed=0))
    assert vec.entries == {0: Fraction(1)}
    assert stats.total_messages == 0


def test_seed_validation():
    g = two_node()
    with pytest.raises(ValueError):
        estimate_phkpr_distributed(g, 5, 1.0, 0.1, SimConfig(seed=0))
    with pytest.raises(ValueError):
        estimate_phkpr_distributed(g, 0, -1.0, 0.1, SimConfig(seed=0))
