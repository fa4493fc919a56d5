"""Undirected simple graph model with exact cut statistics.

The same object serves as the simulated network topology and as the
substrate for clustering, so construction enforces the invariants every
other module relies on: symmetric adjacency, no self-loops or duplicate
edges, dense node IDs 0..n-1, and a single connected component.

A graph is built on arrays: ``Graph.from_edges`` validates the pairs
vectorized, turns each edge into two arcs keyed source * n + head, and one
sort of those keys both orders the arcs as the CSR arrays do and puts
duplicate arcs next to each other, where an adjacent-difference mask drops
them. The degrees, offsets, the flat neighbour array and the per-node
adjacency tuples all come from that sorted key array, and a BFS over the
tuples checks connectivity. Every graph, however small, takes this path.

Cheeger ratios are computed in exact rational arithmetic so that sweep
recursions can be checked with bit-exact equality.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import IO, Iterable

import numpy as np

__all__ = [
    "Graph",
    "GraphError",
    "load_edge_list",
    "edge_list_text",
    "volume",
    "edge_boundary",
    "cheeger_ratio",
]


class GraphError(ValueError):
    """Raised for malformed input or invariant violations during ingestion."""


# the largest n whose arc keys u * n + v (u, v < n) all fit in an int64
_MAX_NODES = math.isqrt(np.iinfo(np.int64).max)


def _check_pair(n: int, u: int, v: int) -> None:
    if not (0 <= u < n and 0 <= v < n):
        raise GraphError(f"edge ({u},{v}) out of range for n={n}")
    if u == v:
        raise GraphError(f"self-loop at node {u}")


@dataclass(frozen=True)
class Graph:
    """Connected undirected simple graph over node IDs 0..n-1.

    Build it with ``from_edges``, which also stores the CSR arrays and the
    edge count that ``csr_arrays`` and ``edge_count`` return.

    Attributes
    ----------
    adjacency : tuple[tuple[int, ...], ...]
        Per-node sorted neighbor IDs.
    """

    adjacency: tuple[tuple[int, ...], ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> "Graph":
        """Build and validate a graph on n nodes from undirected edge pairs.

        ``edges`` is any iterable of (u, v) pairs or an (m, 2) integer
        array. Duplicate and reversed pairs are collapsed; out-of-range
        endpoints, self-loops and disconnected results are rejected, and the
        first bad pair in input order names the error.
        """
        if n < 1:
            raise GraphError("graph must have at least one node")
        if n > _MAX_NODES:
            raise GraphError(f"n={n} exceeds the supported {_MAX_NODES} nodes")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        arr = np.asarray(edges)
        if arr.size == 0:
            arr = np.empty((0, 2), dtype=np.int64)
        if arr.ndim != 2 or arr.shape[1] != 2:
            raise GraphError("edges must be (u, v) pairs")
        if arr.dtype.kind not in "iu":  # huge ints (object) or non-integers
            for u, v in edges:
                _check_pair(n, u, v)
            raise GraphError("node IDs must be integers")
        u, v = arr[:, 0], arr[:, 1]
        bad = (u < 0) | (u >= n) | (v < 0) | (v >= n) | (u == v)
        if bad.any():
            i = int(np.argmax(bad))
            _check_pair(n, int(u[i]), int(v[i]))
        u = u.astype(np.int64)
        v = v.astype(np.int64)
        # each edge as two arcs keyed source * n + head; one sort orders the
        # arcs as the CSR does, and equal neighbours of a sorted key are
        # the duplicates (n <= _MAX_NODES keeps the keys inside int64)
        keys = np.concatenate((u * n + v, v * n + u))
        keys.sort()
        fresh = np.ones(keys.size, dtype=bool)
        fresh[1:] = keys[1:] != keys[:-1]
        keys = keys[fresh]
        src, flat = np.divmod(keys, n)
        offsets = np.searchsorted(src, np.arange(n + 1))
        degrees = np.diff(offsets)
        heads = flat.tolist()
        bounds = offsets.tolist()
        g = Graph(tuple(tuple(heads[a:b]) for a, b in zip(bounds, bounds[1:])))
        g._cache["csr"] = (flat, offsets, degrees)
        g._cache["m"] = len(heads) // 2
        unreachable = g._first_unreachable()
        if unreachable is not None:
            raise GraphError(
                f"graph is disconnected: node {unreachable} unreachable from node 0"
            )
        return g

    def _first_unreachable(self) -> int | None:
        seen = bytearray(self.node_count)
        seen[0] = 1
        queue = [0]
        for u in queue:  # the list grows while it is read: a FIFO queue
            for w in self.adjacency[u]:
                if not seen[w]:
                    seen[w] = 1
                    queue.append(w)
        return None if len(queue) == self.node_count else seen.index(0)

    # -- basic statistics --------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        return self._cache["m"]

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def max_degree(self) -> int:
        return max(len(a) for a in self.adjacency)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    # -- cached views (used by the walk estimators and the sweep) ----------

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (flat_neighbors, offsets, degrees) as int64 arrays, as
        ``from_edges`` built them."""
        return self._cache["csr"]

    def arc_sources(self) -> np.ndarray:
        """Source node of each arc in ``csr_arrays`` order, as int64."""
        cached = self._cache.get("src")
        if cached is None:
            degrees = self.csr_arrays()[2]
            cached = np.repeat(np.arange(self.node_count, dtype=np.int64), degrees)
            self._cache["src"] = cached
        return cached

    def neighbor_sets(self) -> tuple[frozenset[int], ...]:
        cached = self._cache.get("nsets")
        if cached is None:
            cached = tuple(frozenset(a) for a in self.adjacency)
            self._cache["nsets"] = cached
        return cached

    def bfs_distances(self, source: int) -> list[int]:
        """Hop distance from source to every node."""
        dist = [-1] * self.node_count
        dist[source] = 0
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def shortest_path(self, source: int, target: int) -> list[int]:
        """One shortest path source..target, deterministic via min-ID parents."""
        if source == target:
            return [source]
        parent = [-1] * self.node_count
        parent[source] = source
        queue = deque([source])
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u]:  # ascending IDs: first parent is minimal
                if parent[w] < 0:
                    parent[w] = u
                    if w == target:
                        path = [w]
                        while path[-1] != source:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    queue.append(w)
        raise GraphError(f"no path from {source} to {target}")


# -- ingestion and serialization -------------------------------------------


def load_edge_list(source: IO[str] | Iterable[str]) -> Graph:
    """Parse an edge-list text stream into a validated Graph.

    Format: one ``u v`` pair per line, nonnegative integer IDs, lines
    starting with ``#`` and blank lines ignored. Node count is max ID + 1;
    a gap in the IDs leaves an isolated node and is rejected as
    disconnected, naming the smallest missing ID, before anything is
    allocated per node.
    """
    edges: list[tuple[int, int]] = []
    ids: set[int] = set()
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphError(f"line {lineno}: expected two node IDs, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphError(f"line {lineno}: non-integer node ID in {line!r}") from None
        if u < 0 or v < 0:
            raise GraphError(f"line {lineno}: negative node ID in {line!r}")
        if u == v:
            raise GraphError(f"line {lineno}: self-loop at node {u}")
        edges.append((u, v))
        ids.update((u, v))
    if not ids:
        raise GraphError("edge list is empty")
    distinct = sorted(ids)
    if len(distinct) < distinct[-1] + 1:
        gap = next(i for i, v in enumerate(distinct) if i != v)
        raise GraphError(f"graph is disconnected: node {gap} has no edges")
    return Graph.from_edges(len(distinct), edges)


def edge_list_text(g: Graph) -> str:
    """Serialize to the edge-list format (canonical u < v, sorted)."""
    lines = [f"{u} {v}" for u in range(g.node_count) for v in g.adjacency[u] if u < v]
    return "\n".join(lines) + "\n"


# -- set statistics ----------------------------------------------------------


def _check_members(g: Graph, members: Iterable[int]) -> frozenset[int]:
    s = frozenset(members)
    for v in s:
        if not (0 <= v < g.node_count):
            raise GraphError(f"node {v} not in graph of size {g.node_count}")
    return s


def volume(g: Graph, members: Iterable[int]) -> int:
    """Sum of degrees over the member set (0 for the empty set)."""
    return sum(g.degree(v) for v in _check_members(g, members))


def edge_boundary(g: Graph, members: Iterable[int]) -> int:
    """Number of edges with exactly one endpoint in the member set."""
    s = _check_members(g, members)
    return sum(1 for v in s for w in g.adjacency[v] if w not in s)


def cheeger_ratio(g: Graph, members: Iterable[int]) -> Fraction:
    """Boundary size over the smaller side's volume, as an exact rational.

    Undefined (raises) for the empty set and the full vertex set.
    """
    s = _check_members(g, members)
    if not s or len(s) == g.node_count:
        raise GraphError("Cheeger ratio undefined for empty set or full vertex set")
    vol_s = volume(g, s)
    vol_rest = 2 * g.edge_count - vol_s
    return Fraction(edge_boundary(g, s), min(vol_s, vol_rest))
