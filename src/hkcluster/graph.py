"""Undirected simple graph model with exact cut statistics.

The same object serves as the simulated network topology and as the
substrate for clustering, so construction enforces the invariants every
other module relies on: symmetric adjacency, no self-loops or duplicate
edges, dense node IDs 0..n-1, and a single connected component.

Cheeger ratios are computed in exact rational arithmetic so that sweep
recursions can be checked with bit-exact equality.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class Graph:
    """Connected undirected simple graph over node IDs 0..n-1.

    Attributes
    ----------
    adjacency : tuple[tuple[int, ...], ...]
        Per-node sorted neighbor IDs.
    """

    adjacency: tuple[tuple[int, ...], ...]
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build and validate a graph on n nodes from undirected edge pairs.

        Duplicate edges are collapsed; self-loops and disconnected results
        are rejected.
        """
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
        g = Graph(tuple(tuple(sorted(s)) for s in neighbor_sets))
        unreachable = g._first_unreachable()
        if unreachable is not None:
            raise GraphError(
                f"graph is disconnected: node {unreachable} unreachable from node 0"
            )
        return g

    def _first_unreachable(self) -> int | None:
        seen = [False] * self.node_count
        queue = deque([0])
        seen[0] = True
        while queue:
            u = queue.popleft()
            for w in self.adjacency[u]:
                if not seen[w]:
                    seen[w] = True
                    queue.append(w)
        for v, ok in enumerate(seen):
            if not ok:
                return v
        return None

    # -- basic statistics --------------------------------------------------

    @property
    def node_count(self) -> int:
        return len(self.adjacency)

    @property
    def edge_count(self) -> int:
        cached = self._cache.get("m")
        if cached is None:
            cached = self._cache["m"] = sum(len(a) for a in self.adjacency) // 2
        return cached

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    @property
    def max_degree(self) -> int:
        return max(len(a) for a in self.adjacency)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adjacency[v]

    # -- cached views (used by the walk estimators and the sweep) ----------

    def csr_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (flat_neighbors, offsets, degrees) as int64 arrays."""
        cached = self._cache.get("csr")
        if cached is None:
            degrees = np.array([len(a) for a in self.adjacency], dtype=np.int64)
            offsets = np.zeros(self.node_count + 1, dtype=np.int64)
            np.cumsum(degrees, out=offsets[1:])
            flat = np.fromiter(
                (w for a in self.adjacency for w in a),
                dtype=np.int64,
                count=int(offsets[-1]),
            )
            cached = (flat, offsets, degrees)
            self._cache["csr"] = cached
        return cached

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
    disconnected.
    """
    edges: list[tuple[int, int]] = []
    max_id = -1
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
        max_id = max(max_id, u, v)
    if max_id < 0:
        raise GraphError("edge list is empty")
    return Graph.from_edges(max_id + 1, edges)


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
