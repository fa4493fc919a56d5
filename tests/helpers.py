"""Shared oracles for the test suite.

These deliberately take different routes than the library: the diffusion
oracle uses dense explicit matrix powers with scipy Poisson weights, the
sweep oracle rescans every prefix from scratch, the reference sweep sorts
exact Fraction ranks and walks the prefixes one node at a time, the
schedule oracle steps every node in every round, and the reference graph
builders fill one Python set per node and draw one scalar per value.
"""

from __future__ import annotations

import math
from collections import deque
from fractions import Fraction
from typing import Any

import numpy as np
from scipy import stats as sps

from hkcluster import Graph, GraphError, PhkprVector
from hkcluster.congest import (
    NodeInfo,
    Protocol,
    RoundContext,
    RoundStats,
    SimConfig,
    SimulationError,
)
from hkcluster.generators import random_connected_graph
from hkcluster.sweep import SweepResult


def transition_matrix(g: Graph) -> np.ndarray:
    n = g.node_count
    P = np.zeros((n, n))
    for v in range(n):
        d = g.degree(v)
        for w in g.adjacency[v]:
            P[v, w] = 1.0 / d
    return P


def dense_phkpr(g: Graph, seed: int, t: float, tol: float) -> np.ndarray:
    """Poisson-weighted explicit matrix powers, truncated at tail mass tol."""
    n = g.node_count
    P = transition_matrix(g)
    if t == 0:
        last = 0
    else:
        last = int(sps.poisson.ppf(1.0 - tol, t))
        while sps.poisson.sf(last, t) > tol:
            last += 1
    vec = np.zeros(n)
    vec[seed] = 1.0
    acc = np.zeros(n)
    for k in range(last + 1):
        acc += sps.poisson.pmf(k, t) * vec
        vec = vec @ P
    return acc


def direct_prefix_stats(g: Graph, ranked) -> list[tuple[int, int]]:
    """(volume, boundary) for every prefix of the ranking, by direct scan."""
    out = []
    members: set[int] = set()
    for v in ranked:
        members.add(v)
        vol = sum(g.degree(u) for u in members)
        boundary = sum(1 for u in members for w in g.adjacency[u] if w not in members)
        out.append((vol, boundary))
    return out


def eps_approximate(exact: dict[int, float], estimate: dict, eps: float, n: int) -> bool:
    """Multiplicative (1 +- eps) with additive eps slack, and zero estimates
    only where the true value is at most eps."""
    for v in range(n):
        true = float(exact.get(v, 0.0))
        est = float(estimate.get(v, 0))
        if est == 0 and true > eps:
            return False
        if not ((1 - eps) * true - eps <= est <= (1 + eps) * true + eps):
            return False
    return True


def fraction_sweep_exact(
    g: Graph, vec: PhkprVector, max_prefix: int | None = None
) -> SweepResult:
    """Reference for ``sweep.sweep_exact``: sorts the whole support by the
    exact key (-Fraction(value)/degree, ID) and counts each prefix node's
    earlier neighbours with a dict of positions."""
    if g.node_count < 2:
        raise ValueError("sweep needs at least two nodes")
    if not vec.entries:
        raise ValueError("cannot sweep an empty vector")
    ranked = tuple(
        sorted(vec.entries, key=lambda v: (-(Fraction(vec.entries[v]) / g.degree(v)), v))
    )
    last = len(ranked) - 1 if len(ranked) == g.node_count else len(ranked)
    if max_prefix is not None:
        last = min(last, max_prefix)
    if last < 1:
        raise ValueError("no proper prefix to sweep")
    pos = {v: i + 1 for i, v in enumerate(ranked)}
    absent = len(ranked) + 1
    two_m = 2 * g.edge_count
    profile: list[tuple[int, int, Fraction]] = []
    vol = 0
    boundary = 0
    best_j = 0
    best_ratio: Fraction | None = None
    for j in range(1, last + 1):
        v = ranked[j - 1]
        d = g.degree(v)
        left = sum(1 for w in g.adjacency[v] if pos.get(w, absent) < j)
        vol += d
        boundary += d - 2 * left
        ratio = Fraction(boundary, min(vol, two_m - vol))
        profile.append((vol, boundary, ratio))
        if best_ratio is None or ratio < best_ratio:
            best_ratio = ratio
            best_j = j
    return SweepResult(
        best_prefix=best_j,
        best_set=frozenset(ranked[:best_j]),
        best_ratio=best_ratio,
        profile=tuple(profile),
        ordering=ranked[:last],
        rounds_charged=0,
    )


def reference_from_edges(n: int, edges) -> tuple[tuple, tuple[np.ndarray, ...]]:
    """Reference for ``Graph.from_edges``: one Python set per node, a sort per
    node and a BFS over the tuples. Returns the adjacency tuples and the CSR
    arrays (flat_neighbors, offsets, degrees) built from them."""
    if n < 1:
        raise GraphError("graph must have at least one node")
    neighbor_sets: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphError(f"edge ({u},{v}) out of range for n={n}")
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        neighbor_sets[u].add(v)
        neighbor_sets[v].add(u)
    adjacency = tuple(tuple(sorted(s)) for s in neighbor_sets)
    seen = [False] * n
    queue = deque([0])
    seen[0] = True
    while queue:
        u = queue.popleft()
        for w in adjacency[u]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    for v, ok in enumerate(seen):
        if not ok:
            raise GraphError(f"graph is disconnected: node {v} unreachable from node 0")
    degrees = np.array([len(a) for a in adjacency], dtype=np.int64)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=offsets[1:])
    flat = np.fromiter(
        (w for a in adjacency for w in a), dtype=np.int64, count=int(offsets[-1])
    )
    return adjacency, (flat, offsets, degrees)


def reference_random_connected_graph(n: int, extra_edges: int = 0, seed: int = 0):
    """Reference for ``generators.random_connected_graph``: one scalar
    ``rng.integers`` call per value, candidates accepted one at a time.
    Returns what ``reference_from_edges`` returns."""
    rng = np.random.default_rng(seed)
    edges: set[tuple[int, int]] = set()
    for v in range(1, n):
        u = int(rng.integers(0, v))
        edges.add((u, v))
    attempts = 0
    added = 0
    while added < extra_edges and attempts < 20 * (extra_edges + 1):
        attempts += 1
        u = int(rng.integers(0, n))
        v = int(rng.integers(0, n))
        if u == v:
            continue
        a, b = (u, v) if u < v else (v, u)
        if (a, b) in edges:
            continue
        edges.add((a, b))
        added += 1
    return reference_from_edges(n, edges)


def random_sparse_vector(g: Graph, rng: np.random.Generator, denom: int = 1000) -> PhkprVector:
    """Random nonnegative sparse rational vector with a valid seed node."""
    n = g.node_count
    size = int(rng.integers(1, max(2, n // 2 + 1)))
    nodes = rng.choice(n, size=size, replace=False)
    counts = rng.integers(1, denom, size=size)
    entries = {int(v): Fraction(int(c), denom) for v, c in zip(nodes, counts)}
    return PhkprVector(
        seed=int(min(entries)), t=1.0, entries=entries, kind="estimated"
    )


def random_graph_pool(count: int, max_n: int, base_seed: int = 0) -> list[Graph]:
    graphs = []
    rng = np.random.default_rng(base_seed)
    while len(graphs) < count:
        n = int(rng.integers(4, max_n + 1))
        extra = int(rng.integers(0, 2 * n))
        graphs.append(random_connected_graph(n, extra, seed=int(rng.integers(0, 2**31))))
    return graphs


def ring_of_cliques(cliques: int, size: int) -> Graph:
    """Cliques of ``size`` nodes; the last node of each clique is joined to
    the first node of the next one, closing a ring."""
    edges = []
    for b in range(cliques):
        base = b * size
        edges += [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
        edges.append((base + size - 1, ((b + 1) % cliques) * size))
    return Graph.from_edges(cliques * size, edges)


class RecordingProtocol(Protocol):
    """Delegates every call to ``inner``, counts handler calls and logs each
    sent message as (round, src, dst, payload)."""

    def __init__(self, inner: Protocol):
        self.inner = inner
        self.handler_calls = 0
        self.sent: list[tuple[int, int, int, Any]] = []

    def initial_state(self, info):
        return self.inner.initial_state(info)

    def handle_round(self, info, state, inbox, ctx):
        self.handler_calls += 1
        out = self.inner.handle_round(info, state, inbox, ctx)
        self.sent += [(ctx.round_no, info.node, dest, msg) for dest, msg, _ in out]
        return out

    def finished(self, info, state, pending, round_no):
        return self.inner.finished(info, state, pending, round_no)

    def finalize(self, info, state, pending):
        return self.inner.finalize(info, state, pending)


def every_node_run_protocol(
    g: Graph,
    protocol: Protocol,
    config: SimConfig,
    trace: list[tuple[int, int, int, int]] | None = None,
) -> tuple[dict[int, Any], RoundStats]:
    """Reference schedule for ``congest.run_protocol``: every round steps all
    n nodes, builds n inboxes and polls ``finished`` on every node."""
    n, m = g.node_count, g.edge_count
    infos = [NodeInfo(v, n, m, g.adjacency[v]) for v in range(n)]
    nsets = g.neighbor_sets()
    states = {v: protocol.initial_state(infos[v]) for v in range(n)}
    inboxes: dict[int, list[tuple[int, Any]]] = {v: [] for v in range(n)}
    bandwidth = config.edge_bandwidth(n)
    stats = RoundStats()
    round_no = 0

    def all_finished() -> bool:
        return all(
            protocol.finished(infos[v], states[v], inboxes[v], round_no)
            for v in range(n)
        )

    while not all_finished():
        if round_no >= config.round_cap:
            raise SimulationError(
                f"non-termination suspected: round cap {config.round_cap} reached"
            )
        round_no += 1
        ctx = RoundContext(config.seed, round_no)
        next_inboxes: dict[int, list[tuple[int, Any]]] = {v: [] for v in range(n)}
        edge_bits: dict[tuple[int, int], int] = {}
        node_msgs: dict[int, int] = {}
        sent_this_round = 0
        for v in range(n):
            out = protocol.handle_round(infos[v], states[v], inboxes[v], ctx)
            if not out:
                continue
            for dest, payload, bits in out:
                if dest not in nsets[v]:
                    raise SimulationError(
                        f"node {v} sent a message to non-neighbor {dest}"
                    )
                next_inboxes[dest].append((v, payload))
                sent_this_round += 1
                key = (v, dest)
                edge_bits[key] = edge_bits.get(key, 0) + bits
                node_msgs[v] = node_msgs.get(v, 0) + 1
                node_msgs[dest] = node_msgs.get(dest, 0) + 1
                if trace is not None:
                    trace.append((round_no, v, dest, bits))
        inboxes = next_inboxes
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
        v: protocol.finalize(infos[v], states[v], inboxes[v]) for v in range(n)
    }
    return outputs, stats
