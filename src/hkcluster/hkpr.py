"""Heat kernel pagerank: exact truncated-series oracle and the batched
walk law shared by the serial and message-passing estimators.

The diffusion vector for seed s and time t is the endpoint distribution of
a lazy-free standard random walk whose length is Poisson(t): the series
sum_k e^{-t} t^k/k! * (chi_s P^k) with P the degree-normalized transition
matrix. "log" is the natural logarithm throughout.

The Monte Carlo estimate follows r walks of length min(Poisson(t), K) as
(remaining, count) classes rather than as single tokens: the seed splits
the r tokens into length classes once (``initial_classes``), and in each of
K rounds every node splits each live class multinomially over its
neighbours (``split_classes``). The token-walk protocol runs these two
steps as node handlers; ``serial_estimate_phkpr`` runs them centrally with
the same random streams, so both return the same estimate for one seed.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

import numpy as np

from .congest import RoundContext
from .graph import Graph

__all__ = [
    "PhkprVector",
    "exact_phkpr",
    "initial_classes",
    "split_classes",
    "serial_estimate_phkpr",
    "walk_parameters",
    "token_count",
    "step_cap",
    "truncated_length_probs",
]


@dataclass
class PhkprVector:
    """Sparse nonnegative diffusion vector over nodes.

    kind is "exact" for series evaluations (float entries summing to
    1 within the truncation tolerance) or "estimated" for Monte Carlo
    token counts (Fraction entries summing to exactly 1).
    """

    seed: int
    t: float
    entries: dict[int, float | Fraction]
    kind: str
    num_walks: int | None = None
    step_cap: int | None = None

    def value(self, v: int):
        return self.entries.get(v, 0)

    def support(self) -> list[int]:
        return sorted(self.entries)

    def total(self):
        return sum(self.entries.values())

    def ranked_items(self) -> list[tuple[int, float | Fraction]]:
        """(node, value) pairs sorted by value descending, node ascending."""
        return sorted(self.entries.items(), key=lambda kv: (-kv[1], kv[0]))


# -- parameters --------------------------------------------------------------


def token_count(n: int, eps: float) -> int:
    """Number of walk tokens: ceil((16/eps^3) * ln n)."""
    if not 0 < eps < 1:
        raise ValueError("eps must be in (0, 1)")
    if n < 1:
        raise ValueError("n must be positive")
    return max(1, math.ceil((16.0 / eps**3) * math.log(n)))


def step_cap(eps: float, c: float = 1.0) -> int:
    """Walk-length cap: ceil(c * 2 ln(1/eps) / lnln(1/eps)).

    The double-log denominator is replaced by 1 when it is not positive
    (eps close to 1/2 makes it negative and the formula meaningless), and
    the cap is at least 1. Requires eps < 1/2.
    """
    if not 0 < eps < 0.5:
        raise ValueError("eps must be in (0, 1/2)")
    if not (math.isfinite(c) and c >= 1):
        raise ValueError(f"c must be finite and at least 1, got {c}")
    loglog = math.log(math.log(1.0 / eps))
    denom = loglog if loglog > 0 else 1.0
    return max(1, math.ceil(c * 2.0 * math.log(1.0 / eps) / denom))


def walk_parameters(n: int, eps: float, c: float = 1.0) -> tuple[int, int]:
    """(token count r, step cap K) for graph size n and error bound eps."""
    if not 0 < eps < 0.5:
        raise ValueError("eps must be in (0, 1/2)")
    return token_count(n, eps), step_cap(eps, c)


# -- the walk law ------------------------------------------------------------


def _log_pmf(k: int, t: float) -> float:
    return -t + k * math.log(t) - math.lgamma(k + 1) if t > 0 else (0.0 if k == 0 else -math.inf)


def truncated_length_probs(t: float, cap: int) -> np.ndarray:
    """Probabilities of min(Poisson(t), cap): classes 0..cap-1 plus the tail."""
    probs = np.zeros(cap + 1)
    for k in range(cap):
        probs[k] = math.exp(_log_pmf(k, t))
    probs[cap] = max(0.0, 1.0 - probs[:cap].sum())
    return probs


def _check_t(t: float) -> None:
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")


def initial_classes(t: float, r: int, cap: int, seed: int) -> tuple[int, dict[int, int]]:
    """The seed's split of r tokens by walk length min(Poisson(t), cap).

    Returns (tokens of length 0, {length: count} for the live lengths
    1..cap). The draw comes from its own stream of the run seed, apart
    from the per-round streams that ``split_classes`` uses.
    """
    _check_t(t)
    counts = np.random.default_rng((seed, 0x117)).multinomial(r, truncated_length_probs(t, cap))
    return int(counts[0]), {k: int(counts[k]) for k in range(1, cap + 1) if counts[k]}


@functools.lru_cache(maxsize=256)
def _uniform(degree: int) -> np.ndarray:
    p = np.full(degree, 1.0 / degree)
    p.flags.writeable = False
    return p


def split_classes(
    live: dict[int, int], degree: int, rng: np.random.Generator
) -> Iterator[tuple[int, int, int]]:
    """One node's round: each live class, in ascending order of remaining
    steps, is split multinomially over the node's degree >= 1 neighbours.

    Yields (neighbour index, remaining - 1, count) for every nonzero share.
    """
    for remaining in sorted(live):
        shares = rng.multinomial(live[remaining], _uniform(degree))
        for i, q in enumerate(shares.tolist()):
            if q:
                yield i, remaining - 1, q


# -- exact oracle -------------------------------------------------------------


def exact_phkpr(g: Graph, seed: int, t: float, tol: float = 1e-9) -> PhkprVector:
    """Evaluate the diffusion series, truncated when the Poisson tail mass
    drops to tol.

    Because every partial walk distribution has entries in [0, 1], the
    discarded tail bounds the per-coordinate error by tol.
    """
    if not 0 <= seed < g.node_count:
        raise ValueError(f"seed {seed} not in graph")
    _check_t(t)
    if not 0 < tol < 1:
        raise ValueError("tol must be in (0, 1)")
    n = g.node_count
    flat, offsets, degrees = g.csr_arrays()
    # source node of each directed arc, for the scatter step
    src = np.repeat(np.arange(n, dtype=np.int64), degrees)
    safe_deg = np.maximum(degrees, 1)

    walk = np.zeros(n)
    walk[seed] = 1.0
    acc = np.zeros(n)
    cum = 0.0
    k = 0
    # beyond this index the tail is below float64 resolution; stop even if
    # accumulated rounding keeps cum a hair under the target
    hard_stop = int(t + 60.0 * math.sqrt(t + 1.0) + 200.0)
    while cum < 1.0 - tol and k <= hard_stop:
        w = math.exp(_log_pmf(k, t)) if t > 0 else (1.0 if k == 0 else 0.0)
        acc += w * walk
        cum += w
        if cum >= 1.0 - tol:
            break
        stepped = np.zeros(n)
        contrib = walk / safe_deg
        np.add.at(stepped, flat, contrib[src])
        # an isolated node (only possible when n == 1) keeps its mass
        stepped[degrees == 0] += walk[degrees == 0]
        walk = stepped
        k += 1
    entries = {int(v): float(acc[v]) for v in np.nonzero(acc)[0]}
    return PhkprVector(seed=seed, t=t, entries=entries, kind="exact")


# -- serial Monte Carlo estimator ---------------------------------------------


def serial_estimate_phkpr(
    g: Graph,
    seed: int,
    t: float,
    eps: float,
    rng: int,
    c: float = 1.0,
) -> PhkprVector:
    """Estimate the diffusion by running the batched walk law centrally.

    The active nodes of each of the K rounds are stepped in ascending ID
    order with that round's stream of the integer seed ``rng``, exactly as
    the token-walk protocol steps them, so the entries (exact rationals
    count/r summing to 1) equal those of ``estimate_phkpr_distributed``
    with ``SimConfig(seed=rng)``. No round ledger is kept.
    """
    if not 0 <= seed < g.node_count:
        raise ValueError(f"seed {seed} not in graph")
    r, cap = walk_parameters(g.node_count, eps, c)
    retired, live = initial_classes(t, r, cap, rng)
    counts = {seed: retired}
    active = {seed: live}
    for round_no in range(1, cap + 1):
        ctx = RoundContext(rng, round_no)
        arriving: dict[int, dict[int, int]] = {}
        for v in sorted(active):
            neighbors = g.adjacency[v]
            if not neighbors:  # single-node graph: walks cannot move
                counts[v] += sum(active[v].values())
                continue
            for i, left, q in split_classes(active[v], len(neighbors), ctx.rng):
                w = neighbors[i]
                if left:
                    classes = arriving.setdefault(w, {})
                    classes[left] = classes.get(left, 0) + q
                else:
                    counts[w] = counts.get(w, 0) + q
        active = arriving
    entries = {v: Fraction(cnt, r) for v, cnt in counts.items() if cnt > 0}
    return PhkprVector(
        seed=seed, t=t, entries=entries, kind="estimated", num_walks=r, step_cap=cap
    )
