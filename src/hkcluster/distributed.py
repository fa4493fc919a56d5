"""Parallel random-walk diffusion as a message-passing protocol.

The protocol runs the batched walk law of ``hkpr`` as node handlers: the
seed splits r tokens into truncated Poisson length classes, and in each of
K rounds every node splits its live (remaining, count) classes across its
neighbors, while tokens whose budget is spent retire in place. Final token
counts divided by r estimate the diffusion vector.

Tokens carry no node IDs. Tokens with equal remaining budget crossing the
same edge in the same round travel as one (remaining, count) batch, so
per-edge traffic stays at one small message per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .congest import NodeInfo, Protocol, RoundContext, RoundStats, SimConfig, run_protocol, uint_bits
from .graph import Graph
from .hkpr import PhkprVector, initial_classes, split_classes, walk_parameters

__all__ = ["TokenBatch", "TokenWalkProtocol", "estimate_phkpr_distributed"]


@dataclass(frozen=True)
class TokenBatch:
    """Aggregate of identical walk tokens crossing one edge."""

    remaining_steps: int
    count: int

    @property
    def bits(self) -> int:
        return uint_bits(self.remaining_steps, self.count)


@dataclass
class _WalkState:
    live: dict[int, int] = field(default_factory=dict)  # remaining -> count
    retired: int = 0


class TokenWalkProtocol(Protocol):
    """K-round token forwarding. A node without live tokens or mail sleeps;
    the seed node stays awake, so the walk takes exactly K rounds."""

    def __init__(self, seed_node: int, t: float, r: int, cap: int, init_seed: int):
        self.seed_node = seed_node
        self.t = t
        self.r = r
        self.cap = cap
        self.init_seed = init_seed

    def initial_state(self, info: NodeInfo) -> _WalkState:
        state = _WalkState()
        if info.node == self.seed_node:
            state.retired, state.live = initial_classes(self.t, self.r, self.cap, self.init_seed)
        return state

    def handle_round(self, info, state: _WalkState, inbox, ctx: RoundContext):
        for _, batch in inbox:
            if batch.remaining_steps == 0:
                state.retired += batch.count
            else:
                state.live[batch.remaining_steps] = (
                    state.live.get(batch.remaining_steps, 0) + batch.count
                )
        if not state.live:
            return []
        out = []
        if info.degree == 0:  # single-node graph: walks cannot move
            state.retired += sum(state.live.values())
            state.live.clear()
            return out
        for i, left, q in split_classes(state.live, info.degree, ctx.rng):
            batch = TokenBatch(left, q)
            out.append((info.neighbors[i], batch, batch.bits))
        state.live.clear()
        return out

    def finished(self, info, state, pending, round_no: int) -> bool:
        if round_no >= self.cap:
            return True
        return info.node != self.seed_node and not state.live and not pending

    def finalize(self, info, state: _WalkState, pending) -> int:
        total = state.retired
        for _, batch in pending:
            total += batch.count  # all in-flight batches are spent at round K
        return total


def estimate_phkpr_distributed(
    g: Graph,
    seed_node: int,
    t: float,
    eps: float,
    config: SimConfig,
    c: float = 1.0,
    trace: list | None = None,
) -> tuple[PhkprVector, RoundStats]:
    """Run the token-walk protocol and return (estimate, round ledger).

    In paper mode the ledger reports exactly K rounds, independent of the
    graph size and of t.
    """
    if not 0 <= seed_node < g.node_count:
        raise ValueError(f"seed node {seed_node} not in graph")
    r, cap = walk_parameters(g.node_count, eps, c)
    protocol = TokenWalkProtocol(seed_node, t, r, cap, init_seed=config.seed)
    counts, stats = run_protocol(g, protocol, config, trace=trace)
    entries = {v: Fraction(cnt, r) for v, cnt in counts.items() if cnt > 0}
    vec = PhkprVector(
        seed=seed_node,
        t=t,
        entries=entries,
        kind="estimated",
        num_walks=r,
        step_cap=cap,
    )
    return vec, stats

