import math
from fractions import Fraction

import pytest

from hkcluster import (
    ClusterRequest,
    SimConfig,
    cheeger_ratio,
    diffusion_time,
    local_cluster,
    local_cluster_autophi,
    sparse_cut,
    step_cap,
    sweep_exact,
)
from hkcluster.cluster import T_MAX, T_MIN
from hkcluster.generators import (
    complete_graph,
    cycle_graph,
    two_clique_bridge,
)


PLANTED = two_clique_bridge(20)
PLANTED_REQ = ClusterRequest(
    seed=3, size_cap=20, volume_cap=381, phi=1 / 381, eps=0.01
)


def test_diffusion_time_form_and_clamps():
    t = diffusion_time(1 / 381, 381, 0.01)
    assert t == pytest.approx(381 * math.log(2 * math.sqrt(381) / 0.01))
    assert diffusion_time(1.0, 1, 0.8) == T_MIN  # ln(2/0.8) < 1 clamps up
    assert diffusion_time(1e-6, 10**6, 0.01) == T_MAX


def test_request_validation():
    with pytest.raises(ValueError):
        ClusterRequest(seed=99, size_cap=5, volume_cap=5, phi=0.1, eps=0.1).validate(PLANTED)
    with pytest.raises(ValueError):
        ClusterRequest(seed=0, size_cap=0, volume_cap=5, phi=0.1, eps=0.1).validate(PLANTED)
    with pytest.raises(ValueError):
        ClusterRequest(seed=0, size_cap=5, volume_cap=5, phi=2.0, eps=0.1).validate(PLANTED)
    with pytest.raises(ValueError):
        ClusterRequest(seed=0, size_cap=5, volume_cap=5, phi=0.1, eps=0.6).validate(PLANTED)


def test_planted_clique_recovery_smoke():
    hits = 0
    for i in range(5):
        out = local_cluster(PLANTED, PLANTED_REQ, SimConfig(seed=500 + i))
        if out.sweep.best_set == frozenset(range(20)):
            hits += 1
            assert out.sweep.best_ratio == Fraction(1, 381)
        assert cheeger_ratio(PLANTED, out.sweep.best_set) == out.sweep.best_ratio
    assert hits >= 4


def test_rounds_are_walk_plus_sweep():
    out = local_cluster(PLANTED, PLANTED_REQ, SimConfig(seed=1))
    assert out.stats.rounds == out.phkpr_rounds + out.sweep_rounds
    assert out.phkpr_rounds == step_cap(0.01)


def test_output_is_a_prefix_of_the_ordering():
    out = local_cluster(PLANTED, PLANTED_REQ, SimConfig(seed=2))
    assert out.sweep.best_set == frozenset(out.sweep.ordering[: out.sweep.best_prefix])


def test_complete_graph_best_matches_oracle():
    g = complete_graph(8)
    req = ClusterRequest(seed=0, size_cap=8, volume_cap=2 * g.edge_count, phi=0.9, eps=0.1)
    out = local_cluster(g, req, SimConfig(seed=3))
    oracle = sweep_exact(g, out.vector, max_prefix=len(out.sweep.ordering))
    assert out.sweep.best_ratio == oracle.best_ratio
    assert out.sweep.profile[0][2] == Fraction(1)  # single-vertex prefix of K8


def test_t_override_is_used():
    out = local_cluster(PLANTED, PLANTED_REQ, SimConfig(seed=4), t_override=7.5)
    assert out.t_used == 7.5


def test_autophi_accepts_on_planted_instance():
    res = local_cluster_autophi(PLANTED, 5, 20, 381, 0.01, 2.0, SimConfig(seed=21))
    assert res.accepted
    assert res.phi_used >= 1 / 381
    assert float(res.outcome.sweep.best_ratio) <= 2.0 * math.sqrt(res.phi_used)
    assert res.guesses <= math.ceil(math.log2(2 * PLANTED.edge_count))


def test_autophi_guess_budget_when_never_accepted():
    # an impossible acceptance constant exhausts the halving budget
    res = local_cluster_autophi(PLANTED, 5, 20, 381, 0.01, 1e-12, SimConfig(seed=22))
    assert not res.accepted
    # halving stops once phi would drop below 1/(2m)
    assert res.guesses == math.floor(math.log2(2 * PLANTED.edge_count))
    assert res.guesses <= math.ceil(math.log2(2 * PLANTED.edge_count))
    assert res.outcome.sweep.best_ratio == Fraction(1, 381)  # still the best cut seen


def test_autophi_cycle_returns_contiguous_arc():
    g = cycle_graph(60)
    res = local_cluster_autophi(g, 30, 60, 240, 0.05, 2.0, SimConfig(seed=23))
    assert res.accepted
    arc = sorted(res.outcome.sweep.best_set)
    gaps = sum(1 for v in arc if (v + 1) % 60 not in res.outcome.sweep.best_set)
    assert gaps == 1  # one boundary: a contiguous arc


def test_sparse_cut_single_sample_matches_autophi():
    g = two_clique_bridge(8)
    best, table = sparse_cut(g, 1, 8, 57, 0.1, 2.0, SimConfig(seed=31), rng=31)
    assert len(table) == 1
    seed_used = table[0][0]
    again = local_cluster_autophi(g, seed_used, 8, 57, 0.1, 2.0, SimConfig(seed=31).derived(0x5C, 0))
    assert best.outcome.sweep.best_set == again.outcome.sweep.best_set
    assert best.outcome.sweep.best_ratio == table[0][1]


def test_sparse_cut_exhaustive_finds_planted_cut():
    g = two_clique_bridge(8)
    best, table = sparse_cut(g, g.node_count, 8, 57, 0.1, 2.0, SimConfig(seed=32), rng=32)
    assert len(table) == g.node_count
    assert best.outcome.sweep.best_ratio == Fraction(1, 57)
    assert best.outcome.sweep.best_set in (frozenset(range(8)), frozenset(range(8, 16)))
    assert best.outcome.sweep.best_ratio == min(r for _, r in table)


def test_sparse_cut_validation():
    g = two_clique_bridge(4)
    with pytest.raises(ValueError):
        sparse_cut(g, 0, 4, 13, 0.1)
    with pytest.raises(ValueError):
        sparse_cut(g, 99, 4, 13, 0.1)


@pytest.mark.parametrize(
    "size_cap,volume_cap,sweeps",
    [(20, 381, ("chain_sweep", 1)), (40, 762, ("distributed_sweep", 0))],
)
def test_local_cluster_builds_the_ordering_only_in_the_chain_sweep(
    size_cap, volume_cap, sweeps, monkeypatch
):
    """The cap check reads the support's size and volume from the vector;
    only the chain sweep ranks the support, once."""
    import hkcluster.cluster as cluster_mod
    import hkcluster.sweep as sweep_mod

    calls = {"build_ordering": 0, "chain_sweep": 0, "distributed_sweep": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module in (cluster_mod, sweep_mod):
        counted(module, "build_ordering")
    counted(cluster_mod, "chain_sweep")
    counted(cluster_mod, "distributed_sweep")
    req = ClusterRequest(seed=3, size_cap=size_cap, volume_cap=volume_cap, phi=1 / 381, eps=0.01)
    local_cluster(PLANTED, req, SimConfig(seed=3))
    name, orderings = sweeps
    assert calls[name] == 1
    assert calls["build_ordering"] == orderings
