"""Local cluster detection from a seed node.

A run estimates the heat kernel diffusion from the seed with the
message-passing walk protocol, then sweeps the estimate for the
minimum-Cheeger-ratio prefix. The diffusion time is set from the target
conductance phi, target volume, and error bound as

    t = (1/phi) * ln(2*sqrt(volume_cap) / eps),  clamped to [1, 1e4],

so t grows as the sought cut gets sparser and only logarithmically with
the target volume. When phi is unknown, the halving driver tries
phi = 1/2, 1/4, ... and accepts the first output whose ratio is within
c2 * sqrt(phi); ratios below 1/(2m) are unachievable, which bounds the
number of guesses by ceil(log2(2m)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .congest import RoundStats, SimConfig
from .distributed import estimate_phkpr_distributed
from .graph import Graph
from .hkpr import PhkprVector
# build_ordering is not called here, but perfbench's tracer wraps the name
# in this module, so it stays importable from it
from .sweep import SweepResult, build_ordering, chain_sweep, distributed_sweep  # noqa: F401

__all__ = [
    "ClusterRequest",
    "ClusterOutcome",
    "AutoPhiOutcome",
    "diffusion_time",
    "local_cluster",
    "local_cluster_autophi",
    "sparse_cut",
]

T_MIN = 1.0
T_MAX = 1e4


@dataclass(frozen=True)
class ClusterRequest:
    seed: int
    size_cap: int
    volume_cap: int
    phi: float
    eps: float
    c2: float = 2.0

    def validate(self, g: Graph) -> None:
        if not 0 <= self.seed < g.node_count:
            raise ValueError(f"seed {self.seed} not in graph")
        if self.size_cap < 1 or self.volume_cap < 1:
            raise ValueError("size and volume targets must be at least 1")
        if not 0 < self.phi <= 1:
            raise ValueError("phi must be in (0, 1]")
        if not 0 < self.eps < 0.5:
            raise ValueError("eps must be in (0, 1/2)")
        if not (math.isfinite(self.c2) and self.c2 > 0):
            raise ValueError("c2 must be finite and positive")


@dataclass
class ClusterOutcome:
    sweep: SweepResult
    stats: RoundStats
    t_used: float
    phkpr_rounds: int
    sweep_rounds: int
    vector: PhkprVector


@dataclass
class AutoPhiOutcome:
    outcome: ClusterOutcome
    phi_used: float
    guesses: int
    accepted: bool


def diffusion_time(phi: float, volume_cap: int, eps: float) -> float:
    t = (1.0 / phi) * math.log(2.0 * math.sqrt(volume_cap) / eps)
    return min(max(t, T_MIN), T_MAX)


def _caps_bind(g: Graph, vec: PhkprVector, size_cap: int, volume_cap: int) -> bool:
    """Whether the size or volume cap is below the whole support's; neither
    depends on the order, so no ranking is built."""
    return size_cap < len(vec.entries) or volume_cap < sum(map(g.degree, vec.entries))


def local_cluster(
    g: Graph,
    req: ClusterRequest,
    config: SimConfig,
    c: float = 1.0,
    t_override: float | None = None,
) -> ClusterOutcome:
    """Diffusion estimate followed by a sweep; returns the best prefix cut.

    The early-stopping chain sweep is used when the size or volume target
    actually binds the ranked support, otherwise the two-phase sweep runs.
    Total rounds are the walk rounds plus the sweep rounds.
    """
    req.validate(g)
    t = diffusion_time(req.phi, req.volume_cap, req.eps) if t_override is None else t_override
    vec, walk_stats = estimate_phkpr_distributed(
        g, req.seed, t, req.eps, config.derived(0xD1F), c=c
    )
    if _caps_bind(g, vec, req.size_cap, req.volume_cap):
        sweep_res, sweep_stats = chain_sweep(
            g,
            vec,
            size_cap=req.size_cap,
            volume_cap=req.volume_cap,
            config=config.derived(0x5EEB),
        )
    else:
        sweep_res, sweep_stats = distributed_sweep(
            g, vec, req.eps, config.derived(0x5EEB)
        )
    total = walk_stats.merge(sweep_stats)
    sweep_res.rounds_charged = total.rounds
    return ClusterOutcome(
        sweep=sweep_res,
        stats=total,
        t_used=t,
        phkpr_rounds=walk_stats.rounds,
        sweep_rounds=sweep_stats.rounds,
        vector=vec,
    )


def local_cluster_autophi(
    g: Graph,
    seed: int,
    size_cap: int,
    volume_cap: int,
    eps: float,
    c2: float = 2.0,
    config: SimConfig = SimConfig(),
    c: float = 1.0,
) -> AutoPhiOutcome:
    """Halve phi from 1/2 until the returned cut has ratio <= c2*sqrt(phi).

    Stops once phi drops below 1/(2m) (no proper cut can be that sparse);
    if nothing is accepted the best cut found is returned flagged as not
    accepted.
    """
    if g.edge_count == 0:
        raise ValueError("clustering needs at least one edge")
    phi = 0.5
    floor = 1.0 / (2 * g.edge_count)
    guesses = 0
    best: tuple[Fraction, float, ClusterOutcome] | None = None
    while phi >= floor:
        guesses += 1
        req = ClusterRequest(
            seed=seed, size_cap=size_cap, volume_cap=volume_cap, phi=phi, eps=eps, c2=c2
        )
        outcome = local_cluster(g, req, config.derived(0xA0, guesses), c=c)
        ratio = outcome.sweep.best_ratio
        if best is None or ratio < best[0]:
            best = (ratio, phi, outcome)
        if float(ratio) <= c2 * math.sqrt(phi):
            return AutoPhiOutcome(
                outcome=outcome, phi_used=phi, guesses=guesses, accepted=True
            )
        phi /= 2
    ratio, phi_used, outcome = best
    return AutoPhiOutcome(
        outcome=outcome, phi_used=phi_used, guesses=guesses, accepted=False
    )


def sparse_cut(
    g: Graph,
    sample_count: int,
    size_cap: int,
    volume_cap: int,
    eps: float,
    c2: float = 2.0,
    config: SimConfig = SimConfig(),
    rng: np.random.Generator | int | None = None,
    c: float = 1.0,
) -> tuple[AutoPhiOutcome, list[tuple[int, Fraction]]]:
    """Run the phi-halving cluster search from uniformly sampled seeds
    (without replacement) and return the minimum-ratio outcome plus the
    per-seed ratio table."""
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    if sample_count > g.node_count:
        raise ValueError("cannot sample more seeds than nodes")
    if rng is None:
        rng = np.random.default_rng(config.seed)
    elif isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(int(rng))
    seeds = sorted(int(v) for v in rng.choice(g.node_count, size=sample_count, replace=False))
    best: AutoPhiOutcome | None = None
    table: list[tuple[int, Fraction]] = []
    for i, s in enumerate(seeds):
        res = local_cluster_autophi(
            g, s, size_cap, volume_cap, eps, c2, config.derived(0x5C, i), c=c
        )
        table.append((s, res.outcome.sweep.best_ratio))
        if best is None or res.outcome.sweep.best_ratio < best.outcome.sweep.best_ratio:
            best = res
    return best, table
