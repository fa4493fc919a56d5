import dataclasses

import pytest

from hkcluster import (
    ClusterRequest,
    Graph,
    SimConfig,
    SimulationError,
    chain_sweep,
    distributed,
    distributed_sweep,
    estimate_phkpr_distributed,
    local_cluster,
    sweep,
)
from hkcluster.congest import Protocol, RoundStats, run_protocol, uint_bits
from hkcluster.generators import (
    karate_club_graph,
    path_graph,
    random_connected_graph,
    two_clique_bridge,
)

from helpers import RecordingProtocol, every_node_run_protocol, ring_of_cliques


class Flood(Protocol):
    """One bit spreads from node 0 along ascending IDs."""

    def initial_state(self, info):
        return {"has": info.node == 0, "sent": False}

    def handle_round(self, info, state, inbox, ctx):
        if inbox:
            state["has"] = True
        if state["has"] and not state["sent"]:
            state["sent"] = True
            nxt = info.node + 1
            if nxt in info.neighbors:
                return [(nxt, "bit", 1)]
        return []

    def finished(self, info, state, pending, round_no):
        return state["has"] or bool(pending)

    def finalize(self, info, state, pending):
        return state["has"] or bool(pending)


class Idle(Protocol):
    def initial_state(self, info):
        return None

    def handle_round(self, info, state, inbox, ctx):
        return []

    def finished(self, info, state, pending, round_no):
        return True


class OneShot(Protocol):
    """Node 0 sends one message of a configurable size to each neighbor."""

    def __init__(self, bits):
        self.bits = bits

    def initial_state(self, info):
        return {"sent": False}

    def handle_round(self, info, state, inbox, ctx):
        if info.node == 0 and not state["sent"]:
            state["sent"] = True
            return [(w, "payload", self.bits) for w in info.neighbors]
        return []

    def finished(self, info, state, pending, round_no):
        return round_no >= 1


def test_immediate_termination_is_zero_rounds():
    g = Graph.from_edges(1, [])
    _, stats = run_protocol(g, Idle(), SimConfig(seed=0))
    assert stats.rounds == 0
    assert stats.total_messages == 0


@pytest.mark.parametrize("length", [1, 2, 5, 9])
def test_flood_one_hop_per_round(length):
    g = path_graph(length + 1)
    outputs, stats = run_protocol(g, Flood(), SimConfig(seed=0))
    assert stats.rounds == length
    assert stats.total_messages == length
    assert all(outputs.values())


def test_message_to_non_neighbor_rejected():
    class Bad(Protocol):
        def initial_state(self, info):
            return None

        def handle_round(self, info, state, inbox, ctx):
            return [(3, "x", 1)] if info.node == 0 else []

        def finished(self, info, state, pending, round_no):
            return round_no >= 1

    with pytest.raises(SimulationError, match="non-neighbor"):
        run_protocol(path_graph(5), Bad(), SimConfig(seed=0))


def test_round_cap_guards_divergence():
    class Forever(Protocol):
        def initial_state(self, info):
            return None

        def handle_round(self, info, state, inbox, ctx):
            return []

        def finished(self, info, state, pending, round_no):
            return False

    with pytest.raises(SimulationError, match="non-termination"):
        run_protocol(path_graph(2), Forever(), SimConfig(seed=0, round_cap=17))


def test_star_ledger_counts():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    _, stats = run_protocol(g, OneShot(1), SimConfig(seed=0))
    assert stats.rounds == 1
    assert stats.total_messages == 3
    assert stats.max_node_messages == 3  # the hub sent three
    assert stats.max_edge_bits == 1
    assert stats.total_messages >= stats.max_node_messages


def test_strict_mode_charges_serialized_rounds():
    g = Graph.from_edges(2, [(0, 1)])
    _, paper = run_protocol(g, OneShot(25), SimConfig(seed=0, mode="paper", bandwidth_bits=4))
    _, strict = run_protocol(g, OneShot(25), SimConfig(seed=0, mode="strict", bandwidth_bits=4))
    assert paper.rounds == 1
    assert paper.max_edge_bits == 25
    assert paper.congestion_events == 0
    assert strict.rounds == 7  # ceil(25/4)
    assert strict.congestion_events == 1
    assert strict.rounds >= paper.rounds


def test_strict_equals_paper_when_under_bandwidth():
    g = Graph.from_edges(2, [(0, 1)])
    _, paper = run_protocol(g, OneShot(3), SimConfig(seed=0, mode="paper", bandwidth_bits=4))
    _, strict = run_protocol(g, OneShot(3), SimConfig(seed=0, mode="strict", bandwidth_bits=4))
    assert strict.rounds == paper.rounds == 1


def test_locality_only_neighbors_observe_payloads():
    class Recorder(Protocol):
        def __init__(self):
            self.seen = {}

        def initial_state(self, info):
            self.seen[info.node] = set()
            return None

        def handle_round(self, info, state, inbox, ctx):
            for sender, _ in inbox:
                self.seen[info.node].add(sender)
            if info.node == 2 and ctx.round_no == 1:
                return [(w, "hello", 2) for w in info.neighbors]
            return []

        def finished(self, info, state, pending, round_no):
            return round_no >= 2

    g = path_graph(5)
    proto = Recorder()
    run_protocol(g, proto, SimConfig(seed=0))
    for v, senders in proto.seen.items():
        assert senders <= ({2} if v in g.adjacency[2] else set())


def test_default_bandwidth_scales_with_log_n():
    assert SimConfig().edge_bandwidth(1024) == 10
    assert SimConfig(bandwidth_beta=2.0).edge_bandwidth(1024) == 20
    assert SimConfig(bandwidth_bits=3).edge_bandwidth(10**6) == 3


def test_uint_bits():
    assert uint_bits(0) == 1
    assert uint_bits(1) == 1
    assert uint_bits(7, 1) == 4
    assert uint_bits(255) == 8


def test_stats_merge():
    a = RoundStats(rounds=3, total_messages=10, max_node_messages=4, max_edge_bits=9)
    b = RoundStats(rounds=2, total_messages=5, max_node_messages=6, max_edge_bits=2, congestion_events=1)
    m = a.merge(b)
    assert dataclasses.astuple(m) == (5, 15, 6, 9, 1)


class Converge(Protocol):
    """In round 1 every neighbour of ``hub`` sends it two messages; the hub
    keeps the inbox it reads in round 2."""

    def __init__(self, hub):
        self.hub = hub

    def initial_state(self, info):
        return {"inbox": None}

    def handle_round(self, info, state, inbox, ctx):
        if info.node == self.hub:
            if inbox:
                state["inbox"] = list(inbox)
            return []
        if ctx.round_no == 1 and self.hub in info.neighbors:
            return [(self.hub, (info.node, i), 1) for i in (0, 1)]
        return []

    def finished(self, info, state, pending, round_no):
        return round_no >= 1 and not pending

    def finalize(self, info, state, pending):
        return state["inbox"]


@pytest.mark.parametrize("runner", [run_protocol, every_node_run_protocol])
def test_inbox_lists_messages_in_ascending_sender_order(runner):
    g = karate_club_graph()
    hub = 33
    outputs, _ = runner(g, Converge(hub), SimConfig(seed=0))
    expected = [(v, (v, i)) for v in sorted(g.adjacency[hub]) for i in (0, 1)]
    assert len(expected) == 2 * g.degree(hub) == 34
    assert outputs[hub] == expected


# -- active-set schedule ------------------------------------------------------

SCHEDULE_GRAPHS = {
    "karate": karate_club_graph,
    "two-cliques:20": lambda: two_clique_bridge(20),
    "random-300": lambda: random_connected_graph(300, 600),
    "ring-10xK20": lambda: ring_of_cliques(10, 20),
}


class BothSchedules:
    """``run_protocol`` stand-in: runs the active-set schedule and the
    every-node reference on the same protocol and requires identical
    outputs, ledgers and trace rows."""

    def __init__(self):
        self.runs = 0

    def __call__(self, g, protocol, config, trace=None):
        rows, ref_rows = [], []
        got = run_protocol(g, protocol, config, trace=rows)
        assert got == every_node_run_protocol(g, protocol, config, trace=ref_rows)
        assert rows == ref_rows
        self.runs += 1
        if trace is not None:
            trace.extend(rows)
        return got


@pytest.mark.parametrize(
    "config_kwargs",
    [{"mode": "paper"}, {"mode": "strict", "bandwidth_bits": 4}],
    ids=["paper", "strict-4"],
)
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("graph", list(SCHEDULE_GRAPHS))
def test_active_set_schedule_matches_every_node_reference(
    monkeypatch, graph, seed, config_kwargs
):
    g = SCHEDULE_GRAPHS[graph]()
    cfg = SimConfig(seed=seed, **config_kwargs)
    both = BothSchedules()
    monkeypatch.setattr(distributed, "run_protocol", both)
    monkeypatch.setattr(sweep, "run_protocol", both)
    both(path_graph(g.node_count), Flood(), cfg)  # Flood ends only on a path
    for protocol in (Idle(), OneShot(5)):
        both(g, protocol, cfg)
    vec, _ = estimate_phkpr_distributed(g, 37 * seed % g.node_count, 3.0, 0.1, cfg)
    distributed_sweep(g, vec, 0.1, cfg.derived(1))
    chain_sweep(g, vec, size_cap=20, volume_cap=20 * 19 + 2, config=cfg.derived(2))
    assert both.runs == 6


def test_chain_sweep_steps_only_busy_nodes_on_a_large_ring(monkeypatch):
    g = ring_of_cliques(100, 20)
    runs = []

    def counted(graph, protocol, config, trace=None):
        recording = RecordingProtocol(protocol)
        outputs, stats = run_protocol(graph, recording, config, trace)
        runs.append((recording.handler_calls, stats.rounds))
        return outputs, stats

    monkeypatch.setattr(sweep, "run_protocol", counted)
    req = ClusterRequest(seed=21, size_cap=20, volume_cap=20 * 19 + 2, phi=1 / 191, eps=0.01)
    outcome = local_cluster(g, req, SimConfig(seed=3))
    assert outcome.sweep.meta["mode"] == "chain"
    [(calls, rounds)] = runs
    # the every-node schedule makes n calls per round
    assert calls < g.node_count * rounds / 10


def test_walk_steps_only_nodes_with_tokens_on_a_large_ring(monkeypatch):
    g = ring_of_cliques(100, 20)
    runs = []

    def counted(graph, protocol, config, trace=None):
        recording = RecordingProtocol(protocol)
        outputs, stats = run_protocol(graph, recording, config, trace)
        runs.append((recording.handler_calls, stats))
        return outputs, stats

    monkeypatch.setattr(distributed, "run_protocol", counted)
    vec, _ = estimate_phkpr_distributed(g, 21, 3.0, 0.1, SimConfig(seed=3))
    [(calls, stats)] = runs
    assert stats.rounds == vec.step_cap
    # round 1 steps every node; afterwards only nodes with mail and the
    # seed, which stays awake for K rounds (n * K calls if every node were)
    assert calls <= g.node_count + stats.total_messages + vec.step_cap
