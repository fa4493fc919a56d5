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

One scoring routine turns the (vol, boundary) sequence into the profile
and picks the first minimum; two evaluation routes feed it:

* ``sweep_exact``  -- centralized oracle, pure function; L_j is counted
  over the CSR arcs of the scored prefix only, so a capped sweep reads the
  arcs of its prefix and not the whole graph.
* the sweep protocol, behind ``distributed_sweep`` and ``chain_sweep``.
  It builds a priority BFS tree over the support (higher value/degree wins
  the root). A merge upcast brings the ranked values to the root: each
  node forwards the largest of its own value and its children's stream
  heads, one per round, and stops after the cap, so the upcast takes
  O(cap + depth) rounds. The root floods its top ranked nodes, headed by
  the last one's (rank, ID), and each node passes the flood only to
  children whose largest value ranks at least that high. The flooded
  nodes upcast their (ID, L, R) triples and the root applies the
  recursions. The two drivers differ only in their caps:
  ``distributed_sweep`` floods the top ceil(1/eps) ranked nodes;
  ``chain_sweep`` floods the top size_cap (the whole support when only a
  volume cap is given), and its root stops scoring before the first
  prefix j >= 2 whose volume exceeds volume_cap.

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
from typing import Any, Iterable

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


@dataclass(frozen=True)
class SweepOrdering:
    """Nodes ranked by value/degree descending, ties by ascending ID."""

    ranked_nodes: tuple[int, ...]


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


def build_ordering(g: Graph, vec: PhkprVector) -> SweepOrdering:
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


def _score(
    counts: Iterable[tuple[int, int]], two_m: int
) -> tuple[tuple[tuple[int, int, Fraction], ...], int]:
    """The profile of the prefixes with these (vol, boundary) counts, and the
    1-based index of its first minimum, found by cross-multiplying integers."""
    profile: list[tuple[int, int, Fraction]] = []
    best_j, best_b, best_d = 0, 0, 1
    for j, (vol, boundary) in enumerate(counts, start=1):
        d = min(vol, two_m - vol)
        profile.append((vol, boundary, Fraction(boundary, d)))
        if best_j == 0 or boundary * best_d < best_b * d:
            best_j, best_b, best_d = j, boundary, d
    return tuple(profile), best_j


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
    profile, best_j = _score(zip(vols.tolist(), boundaries.tolist()), 2 * g.edge_count)
    return SweepResult(
        best_prefix=best_j,
        best_set=frozenset(ranked[:best_j]),
        best_ratio=profile[best_j - 1][2],
        profile=profile,
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
_PLEN = "plen"    # (tag, ordering_length, last_rank_num, last_rank_den, last_id)
_PENT = "pent"    # (tag, position 1-based, node_id)
_TRI = "tri"      # (tag, origin_id, left_count, right_count)


def _bits(msg: tuple) -> int:
    return 1 if msg[0] == _CHILD else uint_bits(*msg[1:])


def _outranks(a: tuple, b: tuple) -> bool:
    """Whether the message ``a`` = (tag, rank_num, rank_den, id, ...) ranks
    before ``b``: larger rank, ties by smaller ID. Denominators are
    positive, so ranks compare by cross-multiplying, with no Fraction."""
    lhs, rhs = a[1] * b[2], b[1] * a[2]
    return lhs > rhs or (lhs == rhs and a[3] < b[3])


_ABSENT = 1 << 60


@dataclass
class _SweepState:
    own: tuple | None = None  # this node's VAL item, until merged
    # priority BFS
    best_prio: tuple | None = None  # (tag, rank_num, rank_den, root_id); larger wins
    best_dist: int = 0
    parent: int | None = None
    pending_cand: bool = False
    children: list[int] = field(default_factory=list)
    # merge upcast of the ranked values
    queues: dict[int, deque] = field(default_factory=dict)  # child -> its VALs
    first: dict[int, tuple] = field(default_factory=dict)   # child -> its largest VAL
    vdone_from: dict[int, int] = field(default_factory=dict)
    merged: int = 0
    closed: bool = False  # own stream ended; later VALs are dropped
    sent_vdone: bool = False
    # (ID, L, R) triples toward the root
    up_items: deque = field(default_factory=deque)
    counted: bool = False  # own triple handed on
    # ordering flood
    flood_to: list[int] = field(default_factory=list)
    flood_buf: deque = field(default_factory=deque)
    pi_expected: int | None = None
    pi_ids: dict[int, int] = field(default_factory=dict)   # position -> node
    pi_pos: dict[int, int] = field(default_factory=dict)   # node -> position
    # root bookkeeping
    ranked: list[tuple] = field(default_factory=list)
    pi_seq: list[tuple] | None = None
    flood_ptr: int = 0
    triples: dict[int, tuple[int, int]] = field(default_factory=dict)  # pos -> (L, R)
    result: tuple | None = None  # (ordering, profile, best prefix)


class SweepProtocol(Protocol):
    """Priority-BFS tree over the flood region, CHILD announce, and a merge
    upcast of the ranked values: each node forwards its subtree's values in
    rank order, at most ``trunc_limit`` of them (all when None), then VDONE
    with its exact subtree support count. The root floods the top
    ``trunc_limit`` ranked nodes, headed by the last one's (rank, ID), and
    each node passes the flood only to children whose largest value ranks
    at least that high. Every flooded node then upcasts its (ID, L, R)
    triple, and the root scores the prefixes 1, 2, ... up to the first
    prefix j >= 2 whose volume exceeds ``volume_cap``, which it leaves out.
    ``mode`` only labels the run: "tree" or "chain"."""

    def __init__(
        self,
        values: dict[int, Fraction],
        radius: int,
        trunc_limit: int | None,
        volume_cap: int | None = None,
        mode: str = "tree",
    ):
        self.values = values
        self.budget = 2 * radius
        self.flood_rounds = 2 * radius + 1
        self.announce_round = self.flood_rounds + 1
        self.trunc_limit = trunc_limit
        self.volume_cap = volume_cap
        self.mode = mode

    def initial_state(self, info: NodeInfo) -> _SweepState:
        state = _SweepState()
        if info.node in self.values:
            rank = self.values[info.node] / max(1, info.degree)
            state.own = (_VAL, rank.numerator, rank.denominator, info.node)
            state.best_prio = state.own
            state.best_dist = 0
            state.pending_cand = self.budget >= 1
        return state

    def _fold(self, state: _SweepState, inbox) -> None:
        # the simulator lists the inbox in ascending sender order, so an
        # equal CAND keeps the lowest sender as parent
        for sender, msg in inbox:
            tag = msg[0]
            if tag == _CAND:
                dist = msg[4]
                if dist > self.budget:
                    continue
                best = state.best_prio
                if (
                    best is None
                    or _outranks(msg, best)
                    or (msg[3] == best[3] and dist < state.best_dist)  # same root, closer
                ):
                    state.best_prio = msg[:4]
                    state.best_dist = dist
                    state.parent = sender
                    state.pending_cand = dist + 1 <= self.budget
            elif tag == _CHILD:
                state.children.append(sender)
                state.queues[sender] = deque()
            elif tag == _VAL:
                if sender not in state.first:
                    state.first[sender] = msg
                if not state.closed:
                    state.queues[sender].append(msg)
            elif tag == _VDONE:
                state.vdone_from[sender] = msg[1]
            elif tag == _TRI:
                if state.parent is None:
                    state.triples[state.pi_pos[msg[1]]] = (msg[2], msg[3])
                else:
                    state.up_items.append(msg)
            else:  # _PLEN or _PENT
                if tag == _PLEN:
                    state.pi_expected = msg[1]
                    self._aim_flood(state, (_VAL,) + msg[2:])
                else:
                    state.pi_ids[msg[1]] = msg[2]
                    state.pi_pos[msg[2]] = msg[1]
                if state.flood_to:
                    state.flood_buf.append(msg)

    @staticmethod
    def _aim_flood(state: _SweepState, last: tuple) -> None:
        """Flood toward the children whose largest value ranks at least as
        high as ``last``, the last flooded item: their subtrees hold the
        flooded nodes."""
        state.flood_to = [
            c for c in state.children if c in state.first and not _outranks(last, state.first[c])
        ]

    def _pull(self, state: _SweepState) -> tuple | None:
        """The next item of this node's merged stream: the largest of its own
        value and its children's queue heads. None while a child that has
        not sent VDONE has nothing queued, or once the stream ends; the
        stream closes after ``trunc_limit`` items or when it runs dry."""
        best, source = state.own, None
        for c in state.children:
            queue = state.queues[c]
            if queue:
                if best is None or _outranks(queue[0], best):
                    best, source = queue[0], c
            elif c not in state.vdone_from:
                return None
        if best is None:
            state.closed = True
            return None
        if source is None:
            state.own = None
        else:
            state.queues[source].popleft()
        state.merged += 1
        if state.merged == self.trunc_limit:
            state.closed = True
        return best

    def handle_round(self, info: NodeInfo, state: _SweepState, inbox, ctx):
        self._fold(state, inbox)
        out: list[tuple[int, Any, int]] = []
        round_no = ctx.round_no

        if round_no <= self.flood_rounds:
            if state.pending_cand:
                _, num, den, root = state.best_prio
                msg = (_CAND, num, den, root, state.best_dist + 1)
                bits = _bits(msg)
                out = [(w, msg, bits) for w in info.neighbors]
                state.pending_cand = False
            return out

        if round_no == self.announce_round:
            state.pending_cand = False
            if state.best_prio is not None and state.parent is not None:
                msg = (_CHILD,)
                out.append((state.parent, msg, _bits(msg)))
            return out

        if state.best_prio is None:
            return out  # outside the flood region; nothing else to do

        is_root = state.parent is None
        children_done = len(state.vdone_from) == len(state.children)
        if is_root:
            self._root_round(state, children_done, out)
        else:
            msg = None if state.closed else self._pull(state)
            if msg is None and state.closed and not state.sent_vdone and children_done:
                own = 1 if info.node in self.values else 0
                msg = (_VDONE, sum(state.vdone_from.values()) + own)
                state.sent_vdone = True
            if msg is None and state.up_items:
                msg = state.up_items.popleft()
            if msg is not None:
                out.append((state.parent, msg, _bits(msg)))

        if state.flood_buf:
            self._flood_down(state, state.flood_buf.popleft(), out)

        if len(state.pi_ids) == state.pi_expected:  # the whole ordering is known
            position = state.pi_pos.get(info.node)
            if position is not None and not state.counted:
                state.counted = True
                left = sum(1 for w in info.neighbors if state.pi_pos.get(w, _ABSENT) < position)
                if is_root:
                    state.triples[position] = (left, info.degree - left)
                else:
                    state.up_items.append((_TRI, info.node, left, info.degree - left))
            if is_root and state.result is None and len(state.triples) == state.pi_expected:
                self._score_at_root(info, state)
        return out

    def _root_round(self, state: _SweepState, children_done: bool, out) -> None:
        while not state.closed:
            item = self._pull(state)
            if item is None:
                break
            state.ranked.append(item)
        if state.pi_seq is None and state.closed and children_done:
            last = state.ranked[-1]
            seq: list[tuple] = [(_PLEN, len(state.ranked)) + last[1:]]
            for position, (_, _, _, node) in enumerate(state.ranked, start=1):
                seq.append((_PENT, position, node))
                state.pi_ids[position] = node
                state.pi_pos[node] = position
            state.pi_expected = len(state.ranked)
            state.pi_seq = seq
            self._aim_flood(state, last)
        if state.pi_seq is not None and state.flood_ptr < len(state.pi_seq):
            self._flood_down(state, state.pi_seq[state.flood_ptr], out)
            state.flood_ptr += 1

    @staticmethod
    def _flood_down(state: _SweepState, msg: tuple, out) -> None:
        """Send one ordering message toward the subtrees holding flooded nodes."""
        bits = _bits(msg)
        for c in state.flood_to:
            out.append((c, msg, bits))

    def _score_at_root(self, info: NodeInfo, state: _SweepState) -> None:
        """Score the prefixes from the triples, reading each degree as L + R;
        the first prefix is always scored and the full vertex set never."""
        counts = []
        vol = boundary = 0
        for j in range(1, _last_prefix(info.n, state.pi_expected, None) + 1):
            left, right = state.triples[j]
            vol += left + right
            if j > 1 and self.volume_cap is not None and vol > self.volume_cap:
                break
            boundary += right - left
            counts.append((vol, boundary))
        profile, best_j = _score(counts, 2 * info.m)
        state.result = (tuple(state.pi_ids[j] for j in range(1, len(counts) + 1)), profile, best_j)

    def finished(self, info, state: _SweepState, pending, round_no: int) -> bool:
        if pending:
            return False
        if state.best_prio is None:
            return True  # outside the flood region: asleep until mail arrives
        if round_no < self.announce_round:
            return False
        if state.up_items or state.flood_buf:
            return False
        if state.parent is None:
            return state.result is not None
        return state.sent_vdone


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def _support_radius(g: Graph, vec: PhkprVector) -> int:
    dist = g.bfs_distances(vec.seed)
    return max(dist[v] for v in vec.entries)


def _run_sweep(
    g: Graph,
    vec: PhkprVector,
    config: SimConfig,
    mode: str,
    trunc_limit: int | None,
    volume_cap: int | None = None,
) -> tuple[SweepResult, RoundStats]:
    """Run the sweep protocol and read the result from the root."""
    if g.node_count < 2:
        raise ValueError("sweep needs at least two nodes")
    if not vec.entries:
        raise ValueError("cannot sweep an empty vector")
    values = {v: Fraction(val) for v, val in vec.entries.items()}
    radius = _support_radius(g, vec)
    protocol = SweepProtocol(values, radius, trunc_limit, volume_cap, mode)
    states, stats = run_protocol(g, protocol, config)
    ordering, profile, best_j = next(s.result for s in states.values() if s.result is not None)
    result = SweepResult(
        best_prefix=best_j,
        best_set=frozenset(ordering[:best_j]),
        best_ratio=profile[best_j - 1][2],
        profile=profile,
        ordering=ordering,
        rounds_charged=stats.rounds,
        meta={
            "mode": mode,
            "support_radius": radius,
            "trunc_limit": trunc_limit,
            "examined_prefixes": len(profile),
            "tree_build_rounds": protocol.announce_round,
        },
    )
    return result, stats


def distributed_sweep(
    g: Graph, vec: PhkprVector, eps: float, config: SimConfig
) -> tuple[SweepResult, RoundStats]:
    """Sweep protocol over the top ceil(1/eps) ranked nodes; returns the same
    (best prefix, ratio, profile) as the equally capped centralized oracle."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    result, stats = _run_sweep(g, vec, config, "tree", ceil(1 / eps))
    # rounds <= a*ceil(1/eps) + b*max(radius,1) + const, radius <= step cap
    result.meta.update(round_bound_a=3, round_bound_b=12, round_bound_const=12)
    return result, stats


def chain_sweep(
    g: Graph,
    vec: PhkprVector,
    size_cap: int | None = None,
    volume_cap: int | None = None,
    config: SimConfig = SimConfig(),
) -> tuple[SweepResult, RoundStats]:
    """Sweep protocol with early stopping: the root floods the top size_cap
    ranked nodes (the whole support when only volume_cap is given) and
    scores the prefixes up to the first one whose volume exceeds
    volume_cap. The first prefix is always scored."""
    if size_cap is None and volume_cap is None:
        raise ValueError("at least one of size_cap/volume_cap is required")
    if size_cap is not None and size_cap < 1:
        raise ValueError("size_cap must be at least 1")
    if volume_cap is not None and volume_cap < 1:
        raise ValueError("volume_cap must be at least 1")
    return _run_sweep(g, vec, config, "chain", size_cap, volume_cap)
