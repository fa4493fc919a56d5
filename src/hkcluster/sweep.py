"""Sweep cuts over a diffusion vector.

Nodes are ranked by value/degree (descending, ties by ascending ID) and the
prefix cuts S_j are scored by their Cheeger ratio using two exact integer
recursions: with L_j / R_j the number of neighbors of the j-th ranked node
inside S_{j-1} / outside S_j,

    boundary(S_j) = boundary(S_{j-1}) - L_j + R_j      (base: d_1)
    vol(S_j)      = vol(S_{j-1})      + L_j + R_j      (base: d_1)

The centralized ranking (``build_ordering``) is exact without sorting
rationals: each node is keyed by the correctly rounded float of its rank
(value/degree, divided as integers when the value is rational). Rounding
is monotone, so one float sort places every node except inside runs of
equal float keys, and only those runs are re-sorted by the exact rank.

Three evaluation routes share those recursions:

* ``sweep_exact``       -- centralized oracle, pure function; L_j is counted
  over the CSR arcs of the scored prefix only, so a capped sweep reads the
  arcs of its prefix and not the whole graph.
* ``distributed_sweep`` -- two-phase protocol: a priority BFS tree over the
  support is built (higher value/degree wins the root), ranked values are
  upcast to the root, the root sorts and floods the ordering back, then
  (ID, L, R) triples are upcast and the root applies the recursions.
  Upcasts are pipelined, one item per tree edge per round.
* ``chain_sweep``       -- early-stopping variant: a running (vol, boundary,
  best) packet hops along shortest paths between consecutively ranked
  nodes and stops once a size or volume cap is exceeded.

In the distributed sweep an estimated vector is considered only down to the
top ceil(1/eps) ranked nodes: lower entries are below the resolution the
approximation guarantees, and the cap keeps the round count independent of
the support size. Truncation never changes any L_j/R_j for surviving
prefixes, so results agree exactly with the capped centralized oracle.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil
from typing import Any

import numpy as np

from .congest import NodeInfo, Protocol, RoundStats, SimConfig, run_protocol, uint_bits
from .graph import Graph
from .hkpr import PhkprVector

__all__ = [
    "SweepOrdering",
    "SweepResult",
    "build_ordering",
    "sweep_exact",
    "distributed_sweep",
    "chain_sweep",
]


def _rank(value, degree: int) -> Fraction:
    return Fraction(value) / degree


@dataclass(frozen=True)
class SweepOrdering:
    """Nodes ranked by value/degree descending, ties by ascending ID."""

    ranked_nodes: tuple[int, ...]

    @property
    def support_size(self) -> int:
        return len(self.ranked_nodes)


@dataclass
class SweepResult:
    best_prefix: int
    best_set: frozenset[int]
    best_ratio: Fraction
    profile: tuple[tuple[int, int, Fraction], ...]  # (vol, boundary, ratio) per prefix
    ordering: tuple[int, ...]
    rounds_charged: int = 0
    meta: dict = field(default_factory=dict, repr=False, compare=False)


def _float_rank(value: float | Fraction, degree: int) -> float:
    """The correctly rounded float of the exact rank value/degree."""
    if isinstance(value, float):
        return value / degree
    # int true division rounds once; float(value) / degree would round twice
    return value.numerator / (value.denominator * degree)


def build_ordering(g: Graph, vec: PhkprVector, limit: int | None = None) -> SweepOrdering:
    """Rank the support by value/degree descending, ties by ascending ID.

    Each node is keyed by the correctly rounded float of its exact rank and
    sorted once by (-key, ID). Rounding is monotone, so that sort already
    puts every node in its exact place except inside runs of equal float
    keys; only those runs are re-sorted by the exact key
    (-Fraction(value)/degree, ID).
    """
    if not vec.entries:
        raise ValueError("cannot sweep an empty vector")
    nodes = list(vec.entries)
    keys = np.fromiter(
        (_float_rank(x, g.degree(v)) for v, x in vec.entries.items()),
        dtype=np.float64,
        count=len(nodes),
    )
    if not np.isfinite(keys).all():
        raise ValueError("sweep values must be finite")
    order = np.lexsort((np.array(nodes, dtype=np.int64), -keys))
    ranked = [nodes[i] for i in order.tolist()]  # the vector's own int objects
    sorted_keys = keys[order]
    tied = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])  # i ties with i + 1
    if tied.size:
        breaks = np.flatnonzero(np.diff(tied) != 1)
        starts = tied[np.r_[0, breaks + 1]].tolist()
        ends = (tied[np.r_[breaks, tied.size - 1]] + 2).tolist()
        for a, b in zip(starts, ends):
            ranked[a:b] = _exact_order(g, vec, ranked[a:b])
    if limit is not None:
        ranked = ranked[: max(1, limit)]
    return SweepOrdering(tuple(ranked))


def _exact_order(g: Graph, vec: PhkprVector, run: list[int]) -> list[int]:
    """Sort one run of nodes, given in ascending ID order, by the exact key.

    A run mostly repeats a few (value, degree) pairs, so each node is keyed
    by the integer pair (p, q) with value/degree == p/q, and a Fraction is
    built only per distinct pair and only when the run holds more than one.
    """

    def pair(v: int) -> tuple[int, int]:
        x = vec.entries[v]
        exact = x if isinstance(x, Fraction) else Fraction(x)
        return exact.numerator, exact.denominator * g.degree(v)

    distinct = {pair(v) for v in run}
    if len(distinct) == 1:
        return run
    neg_rank = {p: -Fraction(*p) for p in distinct}
    return sorted(run, key=lambda v: (neg_rank[pair(v)], v))


def _last_prefix(n: int, support: int, max_prefix: int | None) -> int:
    """Index of the last prefix to score; the full vertex set is skipped."""
    last = support - 1 if support == n else support
    if max_prefix is not None:
        last = min(last, max_prefix)
    return last


def _prefix_counts(
    g: Graph, ranked: tuple[int, ...], last: int
) -> tuple[np.ndarray, np.ndarray]:
    """Volumes and boundaries of the prefixes S_1..S_last, from the CSR arrays.

    L_j counts the arcs (v_j, w) with w ranked before v_j; only the arcs of
    the first ``last`` ranked nodes are read.
    """
    flat, offsets, degrees = g.csr_arrays()
    order = np.array(ranked, dtype=np.int64)
    pos = np.full(g.node_count, len(ranked), dtype=np.int64)  # unranked: after all
    pos[order] = np.arange(len(ranked))
    prefix = order[:last]
    deg = degrees[prefix]
    # the prefix's arcs, node after node (arc k of v is offsets[v] + k),
    # built in place to keep the temporaries few
    arcs = np.repeat(offsets[prefix] - (np.cumsum(deg) - deg), deg)
    arcs += np.arange(arcs.size)
    head_pos = pos[flat[arcs]]
    del arcs
    owner = np.repeat(np.arange(last), deg)  # position of each arc's source
    left = np.bincount(owner[head_pos < owner], minlength=last)
    return np.cumsum(deg), np.cumsum(deg - 2 * left)


def sweep_exact(
    g: Graph, vec: PhkprVector, max_prefix: int | None = None
) -> SweepResult:
    """Centralized sweep via the integer recursions, exact throughout."""
    if g.node_count < 2:
        raise ValueError("sweep needs at least two nodes")
    ranked = build_ordering(g, vec).ranked_nodes
    last = _last_prefix(g.node_count, len(ranked), max_prefix)
    if last < 1:
        raise ValueError("no proper prefix to sweep")
    vols, boundaries = _prefix_counts(g, ranked, last)
    two_m = 2 * g.edge_count
    profile: list[tuple[int, int, Fraction]] = []
    best_j, best_b, best_d = 0, 0, 1
    for j, (vol, boundary) in enumerate(zip(vols.tolist(), boundaries.tolist()), start=1):
        d = min(vol, two_m - vol)
        profile.append((vol, boundary, Fraction(boundary, d)))
        if best_j == 0 or boundary * best_d < best_b * d:
            best_j, best_b, best_d = j, boundary, d
    return SweepResult(
        best_prefix=best_j,
        best_set=frozenset(ranked[:best_j]),
        best_ratio=profile[best_j - 1][2],
        profile=tuple(profile),
        ordering=ranked[:last],
        rounds_charged=0,
    )


# ---------------------------------------------------------------------------
# Message-passing sweep
# ---------------------------------------------------------------------------

_CAND = "cand"    # (tag, rank_num, rank_den, root_id, dist)
_CHILD = "child"  # (tag,)
_VAL = "val"      # (tag, rank_num, rank_den, origin_id)
_VDONE = "vdone"  # (tag, subtree_support_count)
_PLEN = "plen"    # (tag, ordering_length)
_PENT = "pent"    # (tag, position 1-based, node_id)
_TRI = "tri"      # (tag, origin_id, left_count, right_count)
_CHAIN = "chain"  # (tag, prefix_j, vol, boundary, best_num, best_den, best_j, route)


def _bits(msg: tuple) -> int:
    if msg[0] == _CHILD:
        return 1
    if msg[0] == _CHAIN:
        return uint_bits(*msg[1:7])  # the route is simulator plumbing, not payload
    return uint_bits(*msg[1:])


_ABSENT = 1 << 60


@dataclass
class _SweepState:
    rank: Fraction | None = None
    # priority BFS
    best_prio: tuple | None = None  # (rank, -id); larger wins
    best_dist: int = 0
    parent: int | None = None
    pending_cand: bool = False
    children: list[int] = field(default_factory=list)
    # upcasts toward the root (values first, then cut-count triples)
    up_items: deque = field(default_factory=deque)
    vdone_from: dict[int, int] = field(default_factory=dict)
    own_value_handled: bool = False
    sent_vdone: bool = False
    # ordering flood
    flood_buf: deque = field(default_factory=deque)
    pi_expected: int | None = None
    pi_ids: dict[int, int] = field(default_factory=dict)   # position -> node
    pi_pos: dict[int, int] = field(default_factory=dict)   # node -> position
    triple_handled: bool = False
    # chain
    chain_pending: tuple | None = None
    chain_final: tuple | None = None
    # root bookkeeping
    collected: list[tuple[Fraction, int]] = field(default_factory=list)
    pi_seq: list[tuple] | None = None
    flood_ptr: int = 0
    triples: dict[int, tuple[int, int]] = field(default_factory=dict)  # pos -> (L, R)
    result: dict | None = None
    meta: dict = field(default_factory=dict)


class SweepProtocol(Protocol):
    """Priority-BFS tree, ranked-value upcast, ordering flood, then either a
    triple upcast to the root (mode="tree") or a traveling prefix packet
    with early stopping (mode="chain")."""

    def __init__(
        self,
        values: dict[int, Fraction],
        radius: int,
        trunc_limit: int | None,
        mode: str = "tree",
        size_cap: int | None = None,
        volume_cap: int | None = None,
        routes: dict[tuple[int, int], tuple[int, ...]] | None = None,
        log_messages: bool = False,
    ):
        self.values = values
        self.budget = 2 * radius
        self.flood_rounds = 2 * radius + 1
        self.announce_round = self.flood_rounds + 1
        self.trunc_limit = trunc_limit
        self.mode = mode
        self.size_cap = size_cap
        self.volume_cap = volume_cap
        self.routes = routes or {}
        # optional (round, tag, src, dst) log for per-phase ledger assertions
        self.message_log: list[tuple[int, str, int, int]] | None = (
            [] if log_messages else None
        )

    # -- lifecycle ------------------------------------------------------------

    def initial_state(self, info: NodeInfo) -> _SweepState:
        state = _SweepState()
        if info.node in self.values:
            state.rank = _rank(self.values[info.node], max(1, info.degree))
            state.best_prio = (state.rank, -info.node)
            state.best_dist = 0
            state.pending_cand = self.budget >= 1
        return state

    def _fold(self, info: NodeInfo, state: _SweepState, inbox) -> None:
        for sender, msg in sorted(inbox, key=lambda sm: sm[0]):
            tag = msg[0]
            if tag == _CAND:
                prio = (Fraction(msg[1], msg[2]), -msg[3])
                dist = msg[4]
                if dist > self.budget:
                    continue
                if (
                    state.best_prio is None
                    or prio > state.best_prio
                    or (prio == state.best_prio and dist < state.best_dist)
                ):
                    state.best_prio = prio
                    state.best_dist = dist
                    state.parent = sender
                    state.pending_cand = dist + 1 <= self.budget
            elif tag == _CHILD:
                state.children.append(sender)
            elif tag == _VAL:
                if state.parent is None:
                    state.collected.append((Fraction(msg[1], msg[2]), msg[3]))
                else:
                    state.up_items.append(msg)
            elif tag == _VDONE:
                state.vdone_from[sender] = msg[1]
            elif tag in (_PLEN, _PENT):
                self._apply_flood(state, msg)
                if any(state.vdone_from.get(c, 0) > 0 for c in state.children):
                    state.flood_buf.append(msg)
            elif tag == _TRI:
                if state.parent is None:
                    state.triples[state.pi_pos[msg[1]]] = (msg[2], msg[3])
                else:
                    state.up_items.append(msg)
            elif tag == _CHAIN:
                state.chain_pending = msg

    @staticmethod
    def _apply_flood(state: _SweepState, msg: tuple) -> None:
        if msg[0] == _PLEN:
            state.pi_expected = msg[1]
        else:
            _, position, node = msg
            state.pi_ids[position] = node
            state.pi_pos[node] = position

    def handle_round(self, info: NodeInfo, state: _SweepState, inbox, ctx):
        out = self._handle(info, state, inbox, ctx)
        if self.message_log is not None:
            for dest, msg, _ in out:
                self.message_log.append((ctx.round_no, msg[0], info.node, dest))
        return out

    def _handle(self, info: NodeInfo, state: _SweepState, inbox, ctx):
        self._fold(info, state, inbox)
        out: list[tuple[int, Any, int]] = []
        round_no = ctx.round_no

        if round_no <= self.flood_rounds:
            if state.pending_cand:
                rank, neg_id = state.best_prio
                msg = (_CAND, rank.numerator, rank.denominator, -neg_id, state.best_dist + 1)
                for w in info.neighbors:
                    out.append((w, msg, _bits(msg)))
                state.pending_cand = False
            return out

        if round_no == self.announce_round:
            state.pending_cand = False
            if state.best_prio is not None and state.parent is not None:
                msg = (_CHILD,)
                out.append((state.parent, msg, _bits(msg)))
            return out

        if state.chain_pending is not None and state.chain_pending[7]:
            # relay hop: forward without needing tree or ordering state
            msg = state.chain_pending
            state.chain_pending = None
            self._chain_step(info, state, out, msg)

        if state.best_prio is None:
            return out  # outside the flood region; nothing else to do

        is_root = state.parent is None
        if not state.own_value_handled:
            state.own_value_handled = True
            if state.rank is not None:
                if is_root:
                    state.collected.append((state.rank, info.node))
                else:
                    state.up_items.appendleft(
                        (_VAL, state.rank.numerator, state.rank.denominator, info.node)
                    )

        children_done = all(c in state.vdone_from for c in state.children)

        if is_root:
            self._root_round(state, children_done, out)
        elif state.up_items:
            msg = state.up_items.popleft()
            out.append((state.parent, msg, _bits(msg)))
        elif not state.sent_vdone and children_done:
            total = sum(state.vdone_from.values()) + (1 if state.rank is not None else 0)
            msg = (_VDONE, total)
            out.append((state.parent, msg, _bits(msg)))
            state.sent_vdone = True

        # forward the ordering flood toward subtrees holding ranked nodes
        if state.flood_buf:
            msg = state.flood_buf.popleft()
            for c in state.children:
                if state.vdone_from.get(c, 0) > 0:
                    out.append((c, msg, _bits(msg)))

        pi_complete = (
            state.pi_expected is not None and len(state.pi_ids) == state.pi_expected
        )

        # contribute own cut counts once the whole ordering is known locally
        if pi_complete and not state.triple_handled and info.node in state.pi_pos:
            state.triple_handled = True
            position = state.pi_pos[info.node]
            left = self._left_count(info, state, position)
            if self.mode == "tree":
                if is_root:
                    state.triples[position] = (left, info.degree - left)
                else:
                    state.up_items.append((_TRI, info.node, left, info.degree - left))
            elif position == 1:
                self._start_chain(info, state, out, round_no)

        if state.chain_pending is not None and pi_complete:
            msg = state.chain_pending
            state.chain_pending = None
            self._chain_step(info, state, out, msg)

        if is_root and self.mode == "tree":
            self._maybe_finish_tree(info, state)
        return out

    @staticmethod
    def _left_count(info: NodeInfo, state: _SweepState, position: int) -> int:
        return sum(1 for w in info.neighbors if state.pi_pos.get(w, _ABSENT) < position)

    # -- root logic -------------------------------------------------------------

    def _root_round(self, state: _SweepState, children_done: bool, out) -> None:
        if state.pi_seq is None and children_done:
            ranked = sorted(state.collected, key=lambda it: (-it[0], it[1]))
            if self.trunc_limit is not None:
                ranked = ranked[: max(1, self.trunc_limit)]
            seq: list[tuple] = [(_PLEN, len(ranked))]
            for position, (_, node) in enumerate(ranked, start=1):
                seq.append((_PENT, position, node))
                state.pi_ids[position] = node
                state.pi_pos[node] = position
            state.pi_expected = len(ranked)
            state.pi_seq = seq
        if state.pi_seq is not None and state.flood_ptr < len(state.pi_seq):
            msg = state.pi_seq[state.flood_ptr]
            state.flood_ptr += 1
            for c in state.children:
                if state.vdone_from.get(c, 0) > 0:
                    out.append((c, msg, _bits(msg)))

    def _maybe_finish_tree(self, info: NodeInfo, state: _SweepState) -> None:
        if state.result is not None or state.pi_expected is None:
            return
        if len(state.triples) < state.pi_expected:
            return
        n, two_m = info.n, 2 * info.m
        last = _last_prefix(n, state.pi_expected, None)
        vol = 0
        boundary = 0
        profile = []
        best_j = 0
        best_ratio = None
        for j in range(1, last + 1):
            left, right = state.triples[j]
            d = left + right
            vol += d
            boundary += d - 2 * left
            ratio = Fraction(boundary, min(vol, two_m - vol))
            profile.append((vol, boundary, ratio))
            if best_ratio is None or ratio < best_ratio:
                best_ratio = ratio
                best_j = j
        state.result = {
            "best_j": best_j,
            "best_ratio": best_ratio,
            "profile": tuple(profile),
            "ordering": tuple(state.pi_ids[j] for j in range(1, last + 1)),
            "examined": last,
        }

    # -- chain mode ----------------------------------------------------------------

    def _start_chain(self, info: NodeInfo, state: _SweepState, out, round_no) -> None:
        n, two_m = info.n, 2 * info.m
        vol = info.degree
        boundary = info.degree
        best_num, best_den, best_j = 0, 1, 0
        if 1 < n:  # the first prefix is always scored
            ratio = Fraction(boundary, min(vol, two_m - vol))
            best_num, best_den, best_j = ratio.numerator, ratio.denominator, 1
        state.meta["chain_start_round"] = round_no
        self._advance_chain(info, state, out, 1, vol, boundary, best_num, best_den, best_j)

    def _chain_step(self, info: NodeInfo, state: _SweepState, out, msg) -> None:
        _, j, vol, boundary, best_num, best_den, best_j, route = msg
        if route:
            nxt = route[0]
            fwd = (_CHAIN, j, vol, boundary, best_num, best_den, best_j, route[1:])
            out.append((nxt, fwd, _bits(fwd)))
            return
        position = j + 1  # this node is the next ranked node
        d = info.degree
        new_vol = vol + d
        if (self.size_cap is not None and position > self.size_cap) or (
            self.volume_cap is not None and new_vol > self.volume_cap
        ):
            state.chain_final = (best_num, best_den, best_j, j)
            return
        left = self._left_count(info, state, position)
        new_boundary = boundary - left + (d - left)
        n, two_m = info.n, 2 * info.m
        if position < n:
            ratio = Fraction(new_boundary, min(new_vol, two_m - new_vol))
            if best_j == 0 or ratio < Fraction(best_num, best_den):
                best_num, best_den, best_j = ratio.numerator, ratio.denominator, position
        self._advance_chain(
            info, state, out, position, new_vol, new_boundary, best_num, best_den, best_j
        )

    def _advance_chain(
        self, info, state: _SweepState, out, j, vol, boundary, best_num, best_den, best_j
    ) -> None:
        if j >= state.pi_expected:
            state.chain_final = (best_num, best_den, best_j, j)
            return
        successor = state.pi_ids[j + 1]
        route = self.routes[(info.node, successor)]
        msg = (_CHAIN, j, vol, boundary, best_num, best_den, best_j, route[1:])
        out.append((route[0], msg, _bits(msg)))

    # -- termination -------------------------------------------------------------

    def finished(self, info, state: _SweepState, pending, round_no: int) -> bool:
        if pending or state.chain_pending is not None:
            return False
        if state.best_prio is None:
            return True  # outside the flood region: asleep until mail arrives
        if round_no < self.announce_round:
            return False
        if state.up_items or state.flood_buf:
            return False
        if state.parent is None:  # root
            if self.mode == "tree":
                return state.result is not None
            return state.pi_seq is not None and state.flood_ptr >= len(state.pi_seq)
        return state.sent_vdone

    def finalize(self, info, state: _SweepState, pending):
        return state


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _coerced_values(vec: PhkprVector) -> dict[int, Fraction]:
    if not vec.entries:
        raise ValueError("cannot sweep an empty vector")
    return {v: Fraction(val) for v, val in vec.entries.items()}


def _support_radius(g: Graph, vec: PhkprVector) -> int:
    dist = g.bfs_distances(vec.seed)
    return max(dist[v] for v in vec.entries)


def distributed_sweep(
    g: Graph, vec: PhkprVector, eps: float, config: SimConfig
) -> tuple[SweepResult, RoundStats]:
    """Two-phase sweep protocol (tree upcast); considers the top ceil(1/eps)
    ranked nodes and returns the same (best prefix, ratio, profile) as the
    equally capped centralized oracle."""
    if g.node_count < 2:
        raise ValueError("sweep needs at least two nodes")
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    values = _coerced_values(vec)
    radius = _support_radius(g, vec)
    trunc = ceil(1 / eps)
    protocol = SweepProtocol(values, radius=radius, trunc_limit=trunc, mode="tree")
    states, stats = run_protocol(g, protocol, config)
    root_state = next(s for s in states.values() if s.result is not None)
    res = root_state.result
    result = SweepResult(
        best_prefix=res["best_j"],
        best_set=frozenset(res["ordering"][: res["best_j"]]),
        best_ratio=res["best_ratio"],
        profile=res["profile"],
        ordering=res["ordering"],
        rounds_charged=stats.rounds,
        meta={
            "mode": "tree",
            "support_radius": radius,
            "trunc_limit": trunc,
            "tree_build_rounds": protocol.announce_round,
            # rounds <= a*ceil(1/eps) + b*max(radius,1) + const, radius <= step cap
            "round_bound_a": 3,
            "round_bound_b": 12,
            "round_bound_const": 12,
        },
    )
    return result, stats


def chain_sweep(
    g: Graph,
    vec: PhkprVector,
    size_cap: int | None = None,
    volume_cap: int | None = None,
    config: SimConfig = SimConfig(),
) -> tuple[SweepResult, RoundStats]:
    """Relay sweep along the ranked order with early stopping at the first
    prefix whose size exceeds size_cap or volume exceeds volume_cap. The
    first prefix is always scored."""
    if g.node_count < 2:
        raise ValueError("sweep needs at least two nodes")
    if size_cap is None and volume_cap is None:
        raise ValueError("at least one of size_cap/volume_cap is required")
    if size_cap is not None and size_cap < 1:
        raise ValueError("size_cap must be at least 1")
    if volume_cap is not None and volume_cap < 1:
        raise ValueError("volume_cap must be at least 1")
    values = _coerced_values(vec)
    radius = _support_radius(g, vec)
    ranked = build_ordering(g, vec).ranked_nodes
    routes = {}
    for a, b in zip(ranked, ranked[1:]):
        path = g.shortest_path(a, b)
        routes[(a, b)] = tuple(path[1:])
    protocol = SweepProtocol(
        values,
        radius=radius,
        trunc_limit=None,
        mode="chain",
        size_cap=size_cap,
        volume_cap=volume_cap,
        routes=routes,
    )
    states, stats = run_protocol(g, protocol, config)
    holder = next(s for s in states.values() if s.chain_final is not None)
    best_num, best_den, best_j, examined = holder.chain_final
    if best_j == 0:
        raise ValueError("chain sweep scored no prefix")
    # reconstruct the examined profile with the same recursions and verify
    # the packet's running optimum against it
    oracle = sweep_exact(g, vec, max_prefix=examined)
    if (oracle.best_prefix, oracle.best_ratio) != (best_j, Fraction(best_num, best_den)):
        raise RuntimeError("chain relay disagrees with the centralized recursion")
    chain_start = next(
        (s.meta["chain_start_round"] for s in states.values() if "chain_start_round" in s.meta),
        stats.rounds,
    )
    result = SweepResult(
        best_prefix=best_j,
        best_set=frozenset(ranked[:best_j]),
        best_ratio=Fraction(best_num, best_den),
        profile=oracle.profile,
        ordering=ranked[:examined],
        rounds_charged=stats.rounds,
        meta={
            "mode": "chain",
            "support_radius": radius,
            "examined_prefixes": examined,
            "chain_rounds": stats.rounds - chain_start + 1,
        },
    )
    return result, stats
