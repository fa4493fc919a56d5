"""Built-in test instances: paths, cycles, cliques, planted bridges, random
connected graphs, and the classic 34-node karate club network.

Each generator hands ``Graph.from_edges`` an (m, 2) integer array, which it
takes without converting Python pairs.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = [
    "path_graph",
    "cycle_graph",
    "complete_graph",
    "two_clique_bridge",
    "random_connected_graph",
    "karate_club_graph",
]

# fewest candidates drawn per batch, so that a nearly saturated graph, where
# few candidates are still needed but most are rejected, takes few batches
_MIN_BATCH = 1024

# Zachary's karate club (34 nodes, 78 edges), the standard 0-indexed edge set.
_KARATE_EDGES = np.array((
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (0, 8),
    (0, 10), (0, 11), (0, 12), (0, 13), (0, 17), (0, 19), (0, 21), (0, 31),
    (1, 2), (1, 3), (1, 7), (1, 13), (1, 17), (1, 19), (1, 21), (1, 30),
    (2, 3), (2, 7), (2, 8), (2, 9), (2, 13), (2, 27), (2, 28), (2, 32),
    (3, 7), (3, 12), (3, 13), (4, 6), (4, 10), (5, 6), (5, 10), (5, 16),
    (6, 16), (8, 30), (8, 32), (8, 33), (9, 33), (13, 33), (14, 32), (14, 33),
    (15, 32), (15, 33), (18, 32), (18, 33), (19, 33), (20, 32), (20, 33), (22, 32),
    (22, 33), (23, 25), (23, 27), (23, 29), (23, 32), (23, 33), (24, 25), (24, 27),
    (24, 31), (25, 31), (26, 29), (26, 33), (27, 33), (28, 31), (28, 33), (29, 32),
    (29, 33), (30, 32), (30, 33), (31, 32), (31, 33), (32, 33),
))
_KARATE_EDGES.flags.writeable = False


def path_graph(n: int) -> Graph:
    v = np.arange(n - 1)
    return Graph.from_edges(n, np.column_stack((v, v + 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycle needs at least 3 nodes")
    v = np.arange(n)
    return Graph.from_edges(n, np.column_stack((v, (v + 1) % n)))


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, np.column_stack(np.triu_indices(n, 1)))


def two_clique_bridge(clique_size: int) -> Graph:
    """Two disjoint cliques {0..k-1} and {k..2k-1} joined by edge (k-1, k).

    The planted cut {0..k-1} has boundary 1 and volume k(k-1)+1.
    """
    k = clique_size
    if k < 2:
        raise ValueError("clique size must be at least 2")
    clique = np.column_stack(np.triu_indices(k, 1))
    return Graph.from_edges(2 * k, np.concatenate((clique, clique + k, [[k - 1, k]])))


def random_connected_graph(n: int, extra_edges: int = 0, seed: int = 0) -> Graph:
    """Random spanning tree plus extra random edges; connected by construction.

    Node v >= 1 hangs off a uniform parent in 0..v-1. Then candidate pairs
    (u, v), each endpoint uniform in 0..n-1, are tried in draw order:
    self-loops and pairs already taken are skipped, and the search stops
    after ``extra_edges`` accepted pairs or 20 * (extra_edges + 1) candidates.

    The draws come in arrays: all n - 1 parents in one call, the candidates
    in (k, 2) batches. Numpy's bounded integers take one ``next_uint32`` per
    value (plus rejections) whether drawn as a scalar or in an array, so the
    stream, and with it every graph, equals that of one scalar draw per
    value: parents first, then u and v of each candidate in turn. A batch
    may draw past the last candidate used; the generator is discarded.
    """
    rng = np.random.default_rng(seed)
    children = np.arange(1, n, dtype=np.int64)
    tree = np.column_stack((rng.integers(0, children), children))
    taken = np.sort(tree[:, 0] * n + tree[:, 1])  # keys a * n + b with a < b
    extras = []
    need = extra_edges
    budget = 20 * (extra_edges + 1)
    while need > 0 and budget > 0:
        size = min(budget, max(need, _MIN_BATCH))
        budget -= size
        pairs = np.sort(rng.integers(0, n, size=(size, 2)), axis=1)
        keys = pairs[:, 0] * n + pairs[:, 1]
        # a candidate is new if no earlier candidate of this batch drew its
        # key (stable sort: the first draw comes first) and no taken edge
        # has it; the keys are looked up in sorted order
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        slot = np.searchsorted(taken, sorted_keys)
        in_taken = np.append(taken, -1)[slot] == sorted_keys  # -1 pads past the end
        new = np.zeros(size, dtype=bool)
        new[order] = np.r_[True, sorted_keys[1:] != sorted_keys[:-1]] & ~in_taken
        accepted = np.flatnonzero(new & (pairs[:, 0] != pairs[:, 1]))[:need]
        extras.append(pairs[accepted])
        taken = np.sort(np.concatenate((taken, keys[accepted])))
        need -= accepted.size
    return Graph.from_edges(n, np.concatenate([tree, *extras]))


def karate_club_graph() -> Graph:
    return Graph.from_edges(34, _KARATE_EDGES)
