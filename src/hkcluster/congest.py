"""Round-synchronous message-passing simulator.

Messages travel only along graph edges; anything sent in round r is
received by the end of round r, and local computation is free. Each
payload carries an explicit bit size. Two accounting modes:

* ``paper``: every simulated round costs one round, and the per-edge bit
  maximum is reported so bandwidth overruns stay visible.
* ``strict``: a round in which some edge carries more than the configured
  bandwidth is charged ceil(bits/bandwidth) rounds (its traffic would have
  to be serialized).

Execution is sequential over nodes in ascending ID order with one derived
random stream per round, so identical (graph, protocol, config) always
reproduces identical outputs and statistics.

Scheduling follows the work, not the graph size. Round 1 steps every node.
From round 2 on, a round steps only the nodes that are unfinished or have
mail, and ``finished`` is re-evaluated only for nodes that were stepped or
received mail. Nodes that sleep draw nothing from the round's stream, so
the active nodes draw it in the same order as if every node were stepped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Iterable

import numpy as np

from .graph import Graph

__all__ = [
    "SimConfig",
    "RoundStats",
    "NodeInfo",
    "Protocol",
    "SimulationError",
    "run_protocol",
    "uint_bits",
]

DEFAULT_ROUND_CAP = 100_000


class SimulationError(RuntimeError):
    """Protocol violated the model (bad addressing, suspected divergence)."""


def uint_bits(*values: int) -> int:
    """Bits to encode the given nonnegative integers, at least 1 each."""
    return sum(max(1, int(v).bit_length()) for v in values)


@dataclass(frozen=True)
class SimConfig:
    seed: int = 0
    mode: str = "paper"  # "paper" | "strict"
    bandwidth_beta: float = 1.0
    bandwidth_bits: int | None = None  # explicit override of ceil(beta*log2 n)
    round_cap: int = DEFAULT_ROUND_CAP

    def __post_init__(self):
        if self.mode not in ("paper", "strict"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (math.isfinite(self.bandwidth_beta) and self.bandwidth_beta > 0):
            raise ValueError(
                f"bandwidth_beta must be finite and positive, got {self.bandwidth_beta}"
            )
        if self.bandwidth_bits is not None and self.bandwidth_bits < 1:
            raise ValueError("bandwidth_bits must be at least 1")

    def edge_bandwidth(self, n: int) -> int:
        if self.bandwidth_bits is not None:
            return self.bandwidth_bits
        return max(1, math.ceil(self.bandwidth_beta * math.log2(max(2, n))))

    def derived(self, *key: int) -> "SimConfig":
        """Config with an independent seed stream, for nested sub-runs."""
        sub = np.random.SeedSequence(entropy=self.seed, spawn_key=tuple(key))
        return replace(self, seed=int(sub.generate_state(1, np.uint64)[0]))


@dataclass
class RoundStats:
    """Complexity ledger of one protocol execution (or a merged pipeline).

    total_messages is M, the number of messages sent overall;
    max_node_messages is C, the worst per-node per-round count of messages
    sent plus received.
    """

    rounds: int = 0
    total_messages: int = 0
    max_node_messages: int = 0
    max_edge_bits: int = 0
    congestion_events: int = 0

    def merge(self, other: "RoundStats") -> "RoundStats":
        return RoundStats(
            rounds=self.rounds + other.rounds,
            total_messages=self.total_messages + other.total_messages,
            max_node_messages=max(self.max_node_messages, other.max_node_messages),
            max_edge_bits=max(self.max_edge_bits, other.max_edge_bits),
            congestion_events=self.congestion_events + other.congestion_events,
        )


@dataclass(frozen=True)
class NodeInfo:
    """Metadata a node may consult: its ID, the graph size, and its
    neighborhood. No other global state is visible to handlers."""

    node: int
    n: int
    m: int
    neighbors: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.neighbors)


class RoundContext:
    """Per-round services handed to handlers; the random stream is created
    lazily so rounds without randomness cost nothing."""

    __slots__ = ("_seed", "_round", "_rng")

    def __init__(self, seed: int, round_no: int):
        self._seed = seed
        self._round = round_no
        self._rng = None

    @property
    def round_no(self) -> int:
        return self._round

    @property
    def rng(self) -> np.random.Generator:
        if self._rng is None:
            self._rng = np.random.default_rng((self._seed, 0x5EED, self._round))
        return self._rng


class Protocol:
    """Node-local state machine run by the simulator.

    Subclasses define initial per-node state, a per-round handler mapping
    (state, inbox) to outgoing (dest, payload, bits) triples, a termination
    predicate, and an output extractor. The handler runs in round 1 for
    every node and afterwards for every node whose ``finished`` is false or
    that has mail; ``finished`` may consult the still-unprocessed inbox so
    that passively received data can terminate a node without an extra
    round.

    The simulator relies on this contract: a finished node stays finished
    until mail arrives, and its handler with an empty inbox is a no-op (it
    sends nothing, changes no state and draws no randomness).
    """

    def initial_state(self, info: NodeInfo) -> Any:
        raise NotImplementedError

    def handle_round(
        self,
        info: NodeInfo,
        state: Any,
        inbox: list[tuple[int, Any]],
        ctx: RoundContext,
    ) -> list[tuple[int, Any, int]]:
        raise NotImplementedError

    def finished(
        self, info: NodeInfo, state: Any, pending: list[tuple[int, Any]], round_no: int
    ) -> bool:
        raise NotImplementedError

    def finalize(self, info: NodeInfo, state: Any, pending: list[tuple[int, Any]]) -> Any:
        return state


def run_protocol(
    g: Graph,
    protocol: Protocol,
    config: SimConfig,
    trace: list[tuple[int, int, int, int]] | None = None,
) -> tuple[dict[int, Any], RoundStats]:
    """Execute the protocol until every node is finished and no message is
    in flight. Returns per-node finalize outputs and the complexity ledger.

    Raises SimulationError if a message addresses a non-neighbor or the
    round cap is exceeded.
    """
    n, m = g.node_count, g.edge_count
    infos = [NodeInfo(v, n, m, g.adjacency[v]) for v in range(n)]
    nsets = g.neighbor_sets()
    states = {v: protocol.initial_state(infos[v]) for v in range(n)}
    inboxes: dict[int, list[tuple[int, Any]]] = {}  # only nodes with mail
    bandwidth = config.edge_bandwidth(n)
    stats = RoundStats()
    round_no = 0
    unfinished: set[int] = set()
    recheck: Iterable[int] = range(n)  # nodes whose ``finished`` may have changed
    while True:
        for v in recheck:
            if protocol.finished(infos[v], states[v], inboxes.get(v, []), round_no):
                unfinished.discard(v)
            else:
                unfinished.add(v)
        if not unfinished:
            break
        if round_no >= config.round_cap:
            raise SimulationError(
                f"non-termination suspected: round cap {config.round_cap} reached"
            )
        round_no += 1
        ctx = RoundContext(config.seed, round_no)
        active = range(n) if round_no == 1 else sorted(unfinished.union(inboxes))
        next_inboxes: dict[int, list[tuple[int, Any]]] = {}
        edge_bits: dict[tuple[int, int], int] = {}
        node_msgs: dict[int, int] = {}
        sent_this_round = 0
        for v in active:
            out = protocol.handle_round(infos[v], states[v], inboxes.get(v, []), ctx)
            if not out:
                continue
            for dest, payload, bits in out:
                if dest not in nsets[v]:
                    raise SimulationError(
                        f"node {v} sent a message to non-neighbor {dest}"
                    )
                next_inboxes.setdefault(dest, []).append((v, payload))
                sent_this_round += 1
                key = (v, dest)
                edge_bits[key] = edge_bits.get(key, 0) + bits
                node_msgs[v] = node_msgs.get(v, 0) + 1
                node_msgs[dest] = node_msgs.get(dest, 0) + 1
                if trace is not None:
                    trace.append((round_no, v, dest, bits))
        inboxes = next_inboxes
        recheck = set(active).union(inboxes)
        stats.total_messages += sent_this_round
        if node_msgs:
            stats.max_node_messages = max(
                stats.max_node_messages, max(node_msgs.values())
            )
        round_cost = 1
        if edge_bits:
            worst = max(edge_bits.values())
            stats.max_edge_bits = max(stats.max_edge_bits, worst)
            if config.mode == "strict" and worst > bandwidth:
                round_cost = math.ceil(worst / bandwidth)
                stats.congestion_events += 1
        stats.rounds += round_cost
    outputs = {
        v: protocol.finalize(infos[v], states[v], inboxes.get(v, [])) for v in range(n)
    }
    return outputs, stats
