import functools
import math
from fractions import Fraction

import numpy as np
import pytest

from hkcluster import (
    Graph,
    PhkprVector,
    SimConfig,
    build_ordering,
    chain_sweep,
    cheeger_ratio,
    distributed_sweep,
    estimate_phkpr_distributed,
    exact_phkpr,
    serial_estimate_phkpr,
    sweep_exact,
)
from hkcluster.generators import (
    complete_graph,
    karate_club_graph,
    path_graph,
    random_connected_graph,
    two_clique_bridge,
)
from hkcluster import sweep
from hkcluster.sweep import _float_rank

from helpers import (
    RecordingProtocol,
    direct_prefix_stats,
    fraction_sweep_exact,
    random_graph_pool,
    random_sparse_vector,
    ring_of_cliques,
)


def vector_on(nodes_values, seed=None, kind="estimated"):
    entries = {v: Fraction(x) if not isinstance(x, Fraction) else x for v, x in nodes_values.items()}
    return PhkprVector(seed=seed if seed is not None else min(entries), t=1.0, entries=entries, kind=kind)


def test_path_profile_example():
    g = path_graph(4)
    vec = vector_on({0: Fraction(4, 10), 1: Fraction(3, 10), 2: Fraction(2, 10), 3: Fraction(1, 10)})
    res = sweep_exact(g, vec)
    assert res.ordering == (0, 1, 2)  # prefix = V is skipped
    assert [r for _, _, r in res.profile] == [Fraction(1), Fraction(1, 3), Fraction(1)]
    assert res.best_prefix == 2
    assert res.best_ratio == Fraction(1, 3)
    assert res.best_set == {0, 1}
    assert res.profile[0][:2] == (1, 1)  # vol(S_1) = boundary(S_1) = d_1


def test_ordering_rank_and_tie_break():
    g = path_graph(4)  # degrees 1,2,2,1
    vec = vector_on({0: Fraction(1, 10), 1: Fraction(2, 10), 2: Fraction(1, 10), 3: Fraction(1, 10)})
    # ranks: 0 -> 1/10, 1 -> 1/10, 2 -> 1/20, 3 -> 1/10; ties by node ID
    assert build_ordering(g, vec).ranked_nodes == (0, 1, 3, 2)


def test_single_node_support():
    g = complete_graph(4)
    res = sweep_exact(g, vector_on({2: Fraction(1)}))
    assert res.best_prefix == 1
    assert res.best_set == {2}
    assert res.best_ratio == Fraction(1)  # d_v / d_v


def test_empty_vector_rejected():
    g = path_graph(3)
    with pytest.raises(ValueError):
        sweep_exact(g, PhkprVector(seed=0, t=1.0, entries={}, kind="estimated"))


def test_recursions_match_direct_scan():
    rng = np.random.default_rng(42)
    for g in random_graph_pool(50, 64, base_seed=42):
        vec = random_sparse_vector(g, rng)
        res = sweep_exact(g, vec)
        ranked = build_ordering(g, vec).ranked_nodes
        direct = direct_prefix_stats(g, ranked[: len(res.profile)])
        assert [(vol, bd) for vol, bd, _ in res.profile] == direct
        # the reported optimum really is the profile minimum, first index wins
        ratios = [r for _, _, r in res.profile]
        assert res.best_ratio == min(ratios)
        assert res.best_prefix == ratios.index(min(ratios)) + 1
        assert res.best_set == frozenset(ranked[: res.best_prefix])


# -- equality with the Fraction-sorted reference sweep ---------------------------


@functools.lru_cache(maxsize=None)
def random_10k() -> Graph:
    return random_connected_graph(10_000, 20_000, seed=0)


def star(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def assert_equals_reference(g, vec):
    for cap in (None, 1, 7):
        res = sweep_exact(g, vec, max_prefix=cap)
        ref = fraction_sweep_exact(g, vec, max_prefix=cap)
        assert res == ref
        assert repr(res) == repr(ref)  # Python ints and Fractions, not numpy scalars
        assert type(res.best_ratio) is Fraction
    ref_order = fraction_sweep_exact(g, vec).ordering
    assert build_ordering(g, vec).ranked_nodes[: len(ref_order)] == ref_order


def test_equals_reference_on_random_rational_vectors():
    rng = np.random.default_rng(404)
    for g in random_graph_pool(40, 64, base_seed=404):
        assert_equals_reference(g, random_sparse_vector(g, rng))
        assert_equals_reference(g, random_sparse_vector(g, rng, denom=7))  # many ties


@pytest.mark.parametrize("seed_node,t", [(0, 1.0), (16, 3.0), (33, 10.0)])
def test_equals_reference_on_exact_vectors_karate(seed_node, t):
    assert_equals_reference(karate_club_graph(), exact_phkpr(karate_club_graph(), seed_node, t))


@pytest.mark.parametrize("seed_node", [0, 4321])
def test_equals_reference_on_exact_vectors_10k(seed_node):
    g = random_10k()
    assert_equals_reference(g, exact_phkpr(g, seed_node, 3.0))


@pytest.mark.parametrize(
    "graph,seed_node,t,eps,rng",
    [("karate", 0, 3.0, 0.1, 1), ("karate", 33, 5.0, 0.2, 2), ("10k", 17, 3.0, 0.1, 3)],
)
def test_equals_reference_on_serial_estimates(graph, seed_node, t, eps, rng):
    g = karate_club_graph() if graph == "karate" else random_10k()
    assert_equals_reference(g, serial_estimate_phkpr(g, seed_node, t, eps, rng=rng))


def test_equals_reference_on_full_support():
    g = karate_club_graph()
    rng = np.random.default_rng(5)
    vec = vector_on({v: Fraction(int(rng.integers(1, 20)), 100) for v in range(g.node_count)})
    assert_equals_reference(g, vec)
    assert len(sweep_exact(g, vec).ordering) == g.node_count - 1


def test_float_equal_ranks_resolved_exactly():
    third = Fraction(1, 3)
    tiny = Fraction(1, 10**30)
    g = two_clique_bridge(4)
    assert g.degree(1) == g.degree(2) == 3
    vec = vector_on({1: third, 2: third + tiny, 5: Fraction(1, 10)})
    assert _float_rank(third, 3) == _float_rank(third + tiny, 3)
    assert build_ordering(g, vec).ranked_nodes == (2, 1, 5)
    assert_equals_reference(g, vec)
    # floats: 1.0 over degree 5 is 1/5 exactly, rounded up to 0.2, while the
    # leaf's value 0.2 over degree 1 is that rounded-up float itself
    g = star(5)
    vec = PhkprVector(seed=0, t=1.0, entries={0: 1.0, 1: 0.2, 2: 0.1}, kind="exact")
    assert 1.0 / 5 == 0.2 and Fraction(0.2) > Fraction(1, 5)
    assert build_ordering(g, vec).ranked_nodes == (1, 0, 2)
    assert_equals_reference(g, vec)


@pytest.mark.parametrize("exact_value", [True, False])
def test_equal_exact_ranks_tie_by_id(exact_value):
    g = karate_club_graph()
    nodes = [33, 0, 32, 2, 1, 3, 8, 11]  # degrees 17, 16, 12, 10, 9, 6, 5, 1
    assert len({g.degree(v) for v in nodes}) == len(nodes)
    unit = Fraction(1, 97) if exact_value else 2.0**-7
    entries = {v: unit * g.degree(v) for v in nodes}
    entries[20] = unit / 2  # ranked last
    vec = PhkprVector(seed=0, t=1.0, entries=entries, kind="estimated" if exact_value else "exact")
    assert build_ordering(g, vec).ranked_nodes == tuple(sorted(nodes)) + (20,)
    assert_equals_reference(g, vec)


def test_non_finite_values_rejected():
    g = path_graph(3)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError):
            sweep_exact(g, PhkprVector(seed=0, t=1.0, entries={0: 0.5, 1: bad}, kind="exact"))


def test_distributed_equals_exact_on_estimates():
    cfg = SimConfig(seed=6)
    for i, g in enumerate(random_graph_pool(12, 48, base_seed=6)):
        eps = 0.2
        vec, _ = estimate_phkpr_distributed(g, i % g.node_count, 2.5, eps, cfg.derived(i))
        dres, _ = distributed_sweep(g, vec, eps, cfg.derived(1000 + i))
        eres = sweep_exact(g, vec, max_prefix=math.ceil(1 / eps))
        assert (dres.best_prefix, dres.best_ratio) == (eres.best_prefix, eres.best_ratio)
        assert dres.profile == eres.profile
        assert dres.ordering == eres.ordering
        assert dres.best_set == eres.best_set


def test_distributed_on_synthetic_vectors():
    rng = np.random.default_rng(8)
    cfg = SimConfig(seed=8)
    for i, g in enumerate(random_graph_pool(10, 40, base_seed=8)):
        vec = random_sparse_vector(g, rng)
        eps = 1 / g.node_count  # no truncation
        dres, _ = distributed_sweep(g, vec, eps, cfg.derived(i))
        eres = sweep_exact(g, vec)
        assert (dres.best_prefix, dres.best_ratio) == (eres.best_prefix, eres.best_ratio)
        assert dres.profile == eres.profile


def test_support_of_one_at_seed_is_silent():
    g = karate_club_graph()
    vec = vector_on({5: Fraction(1)}, seed=5)
    res, stats = distributed_sweep(g, vec, 0.2, SimConfig(seed=0))
    exact = sweep_exact(g, vec)
    assert stats.total_messages == 0
    assert (res.best_prefix, res.best_ratio) == (exact.best_prefix, exact.best_ratio)


def test_truncation_to_inverse_eps():
    g = karate_club_graph()
    rng = np.random.default_rng(3)
    entries = {v: Fraction(int(rng.integers(1, 50)), 1000) for v in range(20)}
    vec = vector_on(entries, seed=0)
    eps = 0.25  # considers only the top 4 ranked nodes
    dres, _ = distributed_sweep(g, vec, eps, SimConfig(seed=1))
    assert len(dres.ordering) == 4
    eres = sweep_exact(g, vec, max_prefix=4)
    assert dres.profile == eres.profile
    assert (dres.best_prefix, dres.best_ratio) == (eres.best_prefix, eres.best_ratio)


def test_round_bound_linear_in_inverse_eps_and_radius():
    cfg = SimConfig(seed=13)
    for i, g in enumerate(random_graph_pool(10, 64, base_seed=13)):
        eps = 0.1
        vec, _ = estimate_phkpr_distributed(g, 0, 3.0, eps, cfg.derived(i))
        res, stats = distributed_sweep(g, vec, eps, cfg.derived(50 + i))
        a = res.meta["round_bound_a"]
        b = res.meta["round_bound_b"]
        const = res.meta["round_bound_const"]
        radius = res.meta["support_radius"]
        assert radius <= vec.step_cap
        assert stats.rounds <= a * math.ceil(1 / eps) + b * max(radius, 1) + const


@pytest.mark.parametrize("n", [500, 2000, 10_000])
def test_round_bound_at_scale(n):
    g = random_connected_graph(n, 2 * n, seed=1)
    cfg = SimConfig(seed=1)
    eps = 0.1
    vec, _ = estimate_phkpr_distributed(g, 0, 3.0, eps, cfg)
    res, stats = distributed_sweep(g, vec, eps, cfg)
    a = res.meta["round_bound_a"]
    b = res.meta["round_bound_b"]
    const = res.meta["round_bound_const"]
    radius = res.meta["support_radius"]
    assert radius <= vec.step_cap
    assert stats.rounds <= a * math.ceil(1 / eps) + b * max(radius, 1) + const
    ref = sweep_exact(g, vec, max_prefix=math.ceil(1 / eps))
    assert (res.best_prefix, res.best_set, res.best_ratio) == (ref.best_prefix, ref.best_set, ref.best_ratio)
    assert (res.profile, res.ordering) == (ref.profile, ref.ordering)


def test_phase_two_ledger_bounds():
    from collections import Counter

    from hkcluster.congest import run_protocol
    from hkcluster.sweep import SweepProtocol, _support_radius

    g = karate_club_graph()
    vec, _ = estimate_phkpr_distributed(g, 0, 3.0, 0.1, SimConfig(seed=21))
    values = {v: Fraction(x) for v, x in vec.entries.items()}
    proto = RecordingProtocol(SweepProtocol(values, _support_radius(g, vec), trunc_limit=10))
    states, stats = run_protocol(g, proto, SimConfig(seed=22))
    # whole run: a node handles at most one broadcast plus one receipt per
    # neighbor per round
    assert stats.max_node_messages <= 2 * g.max_degree + 2
    triples = [(r, s, d) for r, s, d, msg in proto.sent if msg[0] == "tri"]
    n_pi = next(s.pi_expected for s in states.values() if s.result is not None)
    assert n_pi == 10
    # one triple per tree edge per round; per-node phase-2 load stays within
    # the node's tree degree (children plus parent link)
    tree_edges = sum(1 for s in states.values() if s.parent is not None)
    per_round = Counter(r for r, _, _ in triples)
    assert not per_round or max(per_round.values()) <= tree_edges
    for (r, s), sent in Counter((r, s) for r, s, _ in triples).items():
        received = sum(1 for rr, _, dd in triples if rr == r and dd == s)
        state = states[s]
        assert sent + received <= len(state.children) + (1 if state.parent is not None else 0)


def test_merge_upcast_and_flood_message_budget():
    """Each node forwards at most k values and one VDONE, and the ordering
    flood reaches only the subtrees that hold the top k ranked nodes."""
    from collections import Counter

    from hkcluster.congest import run_protocol
    from hkcluster.sweep import SweepProtocol, _support_radius

    g = random_connected_graph(2000, 4000, seed=1)
    eps = 0.1
    k = math.ceil(1 / eps)
    vec, _ = estimate_phkpr_distributed(g, 0, 3.0, eps, SimConfig(seed=1))
    radius = _support_radius(g, vec)
    values = {v: Fraction(x) for v, x in vec.entries.items()}
    proto = RecordingProtocol(SweepProtocol(values, radius, trunc_limit=k))
    states, _ = run_protocol(g, proto, SimConfig(seed=1))
    sent = Counter((src, msg[0]) for _, src, _, msg in proto.sent)
    assert max(count for (_, tag), count in sent.items() if tag == "val") <= k
    tree = [v for v, s in states.items() if s.best_prio is not None and s.parent is not None]
    assert all(sent[v, "vdone"] == 1 for v in tree)
    assert sum(count for (_, tag), count in sent.items() if tag == "vdone") == len(tree)
    flood = sum(1 for *_, msg in proto.sent if msg[0] in ("plen", "pent"))
    assert flood <= (k + 1) * k * 2 * radius


@pytest.mark.parametrize("mode", ["paper", "strict"])
@pytest.mark.parametrize("graph", ["karate", "ring-10xK20"])
def test_every_sweep_message_is_charged_its_bits(monkeypatch, graph, mode):
    from hkcluster.sweep import SweepProtocol, _bits

    g = karate_club_graph() if graph == "karate" else ring_of_cliques(10, 20)
    cfg = SimConfig(seed=17, mode=mode)
    vec, _ = estimate_phkpr_distributed(g, 0, 5.0, 0.05, cfg)
    inner = SweepProtocol.handle_round
    charged = []

    def checked(self, info, state, inbox, ctx):
        out = inner(self, info, state, inbox, ctx)
        for _, msg, bits in out:
            assert bits == _bits(msg), msg
        charged.extend(out)
        return out

    monkeypatch.setattr(SweepProtocol, "handle_round", checked)
    distributed_sweep(g, vec, 0.05, cfg.derived(1))
    chain_sweep(g, vec, size_cap=20, volume_cap=20 * 19 + 2, config=cfg.derived(2))
    assert {msg[0] for _, msg, _ in charged} >= {"cand", "child", "val", "vdone", "plen", "pent", "tri"}


# -- chain sweep -----------------------------------------------------------------


def test_chain_requires_a_cap():
    g = path_graph(4)
    vec = vector_on({0: Fraction(1, 2), 1: Fraction(1, 2)})
    with pytest.raises(ValueError):
        chain_sweep(g, vec, config=SimConfig(seed=0))


def test_chain_size_cap_one_examines_one_prefix():
    g = karate_club_graph()
    vec, _ = estimate_phkpr_distributed(g, 3, 2.0, 0.2, SimConfig(seed=31))
    res, _ = chain_sweep(g, vec, size_cap=1, config=SimConfig(seed=32))
    assert res.meta["examined_prefixes"] == 1
    assert res.best_prefix == 1
    top = build_ordering(g, vec).ranked_nodes[0]
    assert res.best_set == {top}


def test_chain_with_loose_caps_equals_tree_sweep():
    cfg = SimConfig(seed=14)
    for i, g in enumerate(random_graph_pool(8, 40, base_seed=14)):
        vec, _ = estimate_phkpr_distributed(g, 0, 2.0, 0.2, cfg.derived(i))
        loose, _ = chain_sweep(
            g, vec, size_cap=g.node_count, volume_cap=2 * g.edge_count, config=cfg.derived(70 + i)
        )
        full = sweep_exact(g, vec)
        assert (loose.best_prefix, loose.best_ratio) == (full.best_prefix, full.best_ratio)


def test_chain_volume_cap_stops_inside_planted_clique():
    g = two_clique_bridge(8)
    vec, _ = estimate_phkpr_distributed(g, 2, 20.0, 0.1, SimConfig(seed=15))
    res, _ = chain_sweep(g, vec, volume_cap=8 * 7 + 1, config=SimConfig(seed=16))
    assert res.meta["examined_prefixes"] <= 8
    assert res.best_set == frozenset(range(8))
    assert res.best_ratio == Fraction(1, 57)
    assert cheeger_ratio(g, res.best_set) == res.best_ratio


@functools.lru_cache(maxsize=None)
def chain_cases() -> dict:
    """name -> (graph, vector, caps) for the chain sweep's profile check."""
    cases = {}
    karate = karate_club_graph()
    karate_vec, _ = estimate_phkpr_distributed(karate, 0, 3.0, 0.1, SimConfig(seed=61))
    for size_cap in (1, 5, 17):
        cases[f"karate-size{size_cap}"] = karate, karate_vec, {"size_cap": size_cap}
    bridge = two_clique_bridge(8)
    bridge_vec, _ = estimate_phkpr_distributed(bridge, 2, 20.0, 0.1, SimConfig(seed=15))
    cases["two-cliques:8-vol57"] = bridge, bridge_vec, {"volume_cap": 57}
    ring = ring_of_cliques(10, 20)
    ring_vec, _ = estimate_phkpr_distributed(ring, 21, 10.0, 0.05, SimConfig(seed=62))
    cases["ring-10xK20"] = ring, ring_vec, {"size_cap": 20, "volume_cap": 20 * 19 + 2}
    for i, g in enumerate(random_graph_pool(8, 40, base_seed=63)):
        vec, _ = estimate_phkpr_distributed(g, 0, 2.0, 0.2, SimConfig(seed=64 + i))
        cases[f"random-{i}"] = g, vec, {"size_cap": max(1, g.node_count // 3), "volume_cap": g.edge_count}
    rng = np.random.default_rng(65)
    full = vector_on({v: Fraction(int(rng.integers(1, 20)), 100) for v in range(karate.node_count)})
    cases["karate-full-support"] = karate, full, {"size_cap": karate.node_count}
    return cases


CHAIN_CASES = (
    ["karate-size1", "karate-size5", "karate-size17", "two-cliques:8-vol57", "ring-10xK20"]
    + [f"random-{i}" for i in range(8)]
    + ["karate-full-support"]
)


@pytest.mark.parametrize("name", CHAIN_CASES)
def test_chain_profile_equals_capped_sweep_exact(monkeypatch, name):
    g, vec, caps = chain_cases()[name]
    with monkeypatch.context() as patched:
        patched.setattr(sweep, "sweep_exact", None)  # the chain reads its nodes only
        res, _ = chain_sweep(g, vec, config=SimConfig(seed=66), **caps)
    ref = sweep_exact(g, vec, max_prefix=res.meta["examined_prefixes"])
    assert res.profile == ref.profile
    assert repr(res.profile) == repr(ref.profile)
    assert res.ordering == ref.ordering
    assert (res.best_prefix, res.best_ratio, res.best_set) == (
        ref.best_prefix,
        ref.best_ratio,
        ref.best_set,
    )


def test_cross_check_cheeger_ratio_module():
    g = karate_club_graph()
    vec, _ = estimate_phkpr_distributed(g, 0, 3.0, 0.15, SimConfig(seed=55))
    res, _ = distributed_sweep(g, vec, 0.15, SimConfig(seed=56))
    assert cheeger_ratio(g, res.best_set) == res.best_ratio
