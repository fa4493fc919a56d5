"""The four benchmark workloads.

A workload builds its graphs in ``setup``, turns the workload seed into an
endless, reproducible stream of requests, runs one request in ``run`` (the
only timed call) and checks a finished request in ``check``. Requests call
the library through module attributes (``cluster.local_cluster``,
``hkpr.exact_phkpr``, ...) at call time, so the traced run's wrappers at
those names see every call.

A request is one clustering or verification job. The program receives only
the generated inputs: seed nodes and ``SimConfig``/RNG seeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator

import numpy as np

from hkcluster import cli, cluster, generators, hkpr, sweep
from hkcluster.congest import SimConfig
from hkcluster.graph import Graph, cheeger_ratio
from hkcluster.report import parse_report

__all__ = ["WORKLOADS", "Checked", "tree_round_bound"]


@dataclass
class Checked:
    """What the checks of one finished request found."""

    problems: list[str]
    ratio_excess: float | None
    rounds: int
    messages: int
    max_edge_bits: int
    digest: str


def _digest(*parts: Any) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def _prime(g: Graph) -> Graph:
    """Fill the graph's lazily built views, so timing starts after them."""
    g.csr_arrays()
    g.neighbor_sets()
    return g


def _panel(g: Graph, k: int) -> list[int]:
    """A fixed set of seed nodes spanning the degree range: the middle node of
    each of ``k`` equal slices of the nodes ranked by (degree, id)."""
    ranked = sorted(range(g.node_count), key=lambda v: (g.degree(v), v))
    return [int(s[len(s) // 2]) for s in np.array_split(np.array(ranked), k)]


def _ring_of_cliques(cliques: int, size: int) -> Graph:
    """Cliques 0..cliques-1 of ``size`` nodes; the last node of each clique
    is joined to the first node of the next one, closing a ring."""
    edges = []
    for b in range(cliques):
        base = b * size
        edges += [(base + i, base + j) for i in range(size) for j in range(i + 1, size)]
        edges.append((base + size - 1, ((b + 1) % cliques) * size))
    return Graph.from_edges(cliques * size, edges)


# -- checks shared by the workloads --------------------------------------------


def _walk_problems(g: Graph, vec, walk_rounds: int | None) -> list[str]:
    """Token conservation, support inside the K-ball and (for the message
    passing walk) exactly K rounds."""
    problems = []
    if sum(vec.entries.values()) != 1:
        problems.append("token total is not exactly 1")
    dist = g.bfs_distances(vec.seed)
    far = [v for v in vec.entries if dist[v] > vec.step_cap]
    if far:
        problems.append(f"{len(far)} support nodes lie outside the K-ball (K={vec.step_cap})")
    if walk_rounds is not None and walk_rounds != vec.step_cap:
        problems.append(f"walk took {walk_rounds} rounds, K={vec.step_cap}")
    return problems


def _prefix_cap(res) -> int:
    meta = res.meta
    return meta["trunc_limit"] if meta["mode"] == "tree" else meta["examined_prefixes"]


def _sweep_problems(g: Graph, vec, res, against_oracle: bool = True) -> list[str]:
    """The returned ratio is the true ratio of the returned set, and the
    protocol's profile equals the centralized sweep capped the same way."""
    problems = []
    if res.best_ratio != cheeger_ratio(g, res.best_set):
        problems.append("best_ratio differs from cheeger_ratio(best_set)")
    if against_oracle:
        ref = sweep.sweep_exact(g, vec, max_prefix=_prefix_cap(res))
        if (ref.profile, ref.ordering, ref.best_prefix) != (
            res.profile,
            res.ordering,
            res.best_prefix,
        ):
            problems.append(f"{res.meta['mode']} sweep profile differs from capped sweep_exact")
    return problems


def tree_round_bound(meta: dict) -> int:
    """The tree sweep's own round bound a*ceil(1/eps) + b*max(radius, 1) + c,
    from the constants it records in its result's meta."""
    return (
        meta["round_bound_a"] * meta["trunc_limit"]
        + meta["round_bound_b"] * max(meta["support_radius"], 1)
        + meta["round_bound_const"]
    )


class _RatioOracle:
    """Best Cheeger ratio of the exact diffusion vector under the prefix cap
    the found sweep obeyed. A pure function of its inputs, so it is cached."""

    def __init__(self):
        self._cache: dict = {}

    def __call__(self, g: Graph, gkey: str, outcome, size_cap: int, volume_cap: int) -> Fraction:
        res = outcome.sweep
        mode = res.meta["mode"]
        key = (gkey, outcome.vector.seed, outcome.t_used, mode, size_cap, volume_cap)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        exact = hkpr.exact_phkpr(g, outcome.vector.seed, outcome.t_used)
        if mode == "tree":
            best = sweep.sweep_exact(g, exact, max_prefix=res.meta["trunc_limit"]).best_ratio
        else:
            # chain: prefix j counts while j <= size_cap and vol_j <= volume_cap;
            # the first prefix is always scored
            ref = sweep.sweep_exact(g, exact, max_prefix=size_cap)
            best = min(
                ratio
                for j, (vol, _, ratio) in enumerate(ref.profile)
                if j == 0 or vol <= volume_cap
            )
        self._cache[key] = best
        return best


def _cluster_checked(g, gkey, oracle, outcome, size_cap, volume_cap, digest) -> Checked:
    problems = _walk_problems(g, outcome.vector, outcome.phkpr_rounds)
    problems += _sweep_problems(g, outcome.vector, outcome.sweep)
    best = oracle(g, gkey, outcome, size_cap, volume_cap)
    return Checked(
        problems=problems,
        ratio_excess=float(outcome.sweep.best_ratio / best),
        rounds=outcome.stats.rounds,
        messages=outcome.stats.total_messages,
        max_edge_bits=outcome.stats.max_edge_bits,
        digest=digest,
    )


def _outcome_digest(outcome) -> str:
    res = outcome.sweep
    return _digest(
        sorted(outcome.vector.entries.items()),
        outcome.t_used,
        res.best_prefix,
        res.best_ratio,
        sorted(res.best_set),
        res.profile,
        res.ordering,
        res.rounds_charged,
        outcome.stats,
        outcome.phkpr_rounds,
        outcome.sweep_rounds,
    )


# -- workloads -------------------------------------------------------------------


class PlantedSmall:
    """In-process CLI requests (cluster, cluster-auto, sparsecut) on the
    two-cliques and karate graphs."""

    name = "planted-small"
    setup_reps = 61
    # One set-up takes about 0.3 ms, too short to time steadily, so each
    # repetition times a batch of set-ups
    setup_batch = 100
    # graph spec -> (size cap, volume cap, phi for `cluster`, eps)
    GRAPHS = {
        "gen:two-cliques:20": (20, 381, 0.0027, 0.01),
        "gen:karate": (17, 78, 0.15, 0.01),
    }
    # The six (graph, command) pairs in turn, each karate pair twice. Karate
    # requests take about half as long as two-cliques ones, so with equal
    # weights the median would fall in the gap between the two modes and
    # flip between them from run to run; with karate at two thirds of the mix
    # it falls inside the karate mode.
    MIX = tuple(
        (spec, command)
        for spec, copies in (("gen:karate", 2), ("gen:two-cliques:20", 1))
        for _ in range(copies)
        for command in ("cluster", "cluster-auto", "sparsecut")
    )
    # a run ends on a boundary of the whole mix
    cycle = len(MIX)

    def __init__(self):
        self.graphs: dict[str, Graph] = {}
        self.oracle = _RatioOracle()

    def setup(self) -> None:
        """Load each graph spec the way every ``cli.main`` request does."""
        self.graphs = {}
        self.graphs = {spec: _prime(cli._load_graph(spec)) for spec in self.GRAPHS}

    def requests(self, seed: int) -> Iterator[tuple]:
        rng = np.random.default_rng(seed)
        while True:
            for spec, command in self.MIX:
                node = int(rng.integers(self.graphs[spec].node_count))
                yield (command, spec, node, int(rng.integers(2**31)))

    def argv(self, req: tuple) -> list[str]:
        command, spec, node, run_seed = req
        sigma, varsigma, phi, eps = self.GRAPHS[spec]
        argv = [command, spec]
        if command == "cluster":
            argv += ["--seed-node", str(node), "--phi", str(phi)]
        elif command == "cluster-auto":
            argv += ["--seed-node", str(node)]
        else:
            argv += ["--samples", "1"]
        argv += ["--eps", str(eps), "--sigma", str(sigma), "--varsigma", str(varsigma)]
        return argv + ["--seed", str(run_seed)]

    def run(self, req: tuple):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv(req))
        return code, out.getvalue(), err.getvalue()

    def digest(self, req, result) -> str:
        return _digest(result)

    def _library_outcome(self, req: tuple):
        """The same request through the library, for the deep checks."""
        command, spec, node, run_seed = req
        sigma, varsigma, phi, eps = self.GRAPHS[spec]
        g = self.graphs[spec]
        config = SimConfig(seed=run_seed)
        if command == "cluster":
            creq = cluster.ClusterRequest(node, sigma, varsigma, phi, eps)
            return cluster.local_cluster(g, creq, config)
        if command == "cluster-auto":
            return cluster.local_cluster_autophi(g, node, sigma, varsigma, eps, config=config).outcome
        best, _ = cluster.sparse_cut(g, 1, sigma, varsigma, eps, config=config, rng=run_seed)
        return best.outcome

    def check(self, req: tuple, result) -> Checked:
        code, text, err = result
        if code != 0:
            raise RuntimeError(f"exit code {code}: {err.strip()}")
        command, spec, node, run_seed = req
        sigma, varsigma, _, _ = self.GRAPHS[spec]
        g = self.graphs[spec]
        report = parse_report(text)
        best_set = frozenset(int(v) for v in report["sweep"]["best-set"].split())
        best_ratio = Fraction(report["sweep"]["best-ratio"])
        outcome = self._library_outcome(req)
        checked = _cluster_checked(
            g, spec, self.oracle, outcome, sigma, varsigma, self.digest(req, result)
        )
        if best_ratio != cheeger_ratio(g, best_set):
            checked.problems.append("report best-ratio differs from cheeger_ratio(best-set)")
        if (best_ratio, best_set) != (outcome.sweep.best_ratio, outcome.sweep.best_set):
            checked.problems.append("report disagrees with the library run")
        rounds = report["rounds"]
        model = (int(rounds["rounds"]), int(rounds["messages"]), int(rounds["max-edge-bits"]))
        if model != (checked.rounds, checked.messages, checked.max_edge_bits):
            checked.problems.append("report ledger disagrees with the library run")
        return checked


class _LocalClusterWorkload:
    """``local_cluster`` requests on one graph, from random seed nodes."""

    setup_batch = 1
    cycle = 1
    phi: float
    eps: float

    def __init__(self):
        self.g: Graph | None = None
        self.oracle = _RatioOracle()

    def build(self) -> Graph:
        raise NotImplementedError

    def caps(self) -> tuple[int, int]:
        raise NotImplementedError

    def seed_node(self, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        self.g = None
        self.g = _prime(self.build())

    def requests(self, seed: int) -> Iterator[tuple]:
        rng = np.random.default_rng(seed)
        while True:
            yield (self.seed_node(rng), int(rng.integers(2**31)))

    def run(self, req: tuple):
        node, run_seed = req
        size_cap, volume_cap = self.caps()
        creq = cluster.ClusterRequest(node, size_cap, volume_cap, self.phi, self.eps)
        return cluster.local_cluster(self.g, creq, SimConfig(seed=run_seed))

    def digest(self, req, outcome) -> str:
        return _outcome_digest(outcome)

    def check(self, req: tuple, outcome) -> Checked:
        size_cap, volume_cap = self.caps()
        return _cluster_checked(
            self.g, self.name, self.oracle, outcome, size_cap, volume_cap, self.digest(req, outcome)
        )


class LocalLarge(_LocalClusterWorkload):
    """A ring of 250 K20 cliques (n = 5000); seeds inside cliques."""

    name = "local-large"
    setup_reps = 31
    CLIQUES, SIZE = 250, 20
    phi = 1 / 191
    eps = 0.01

    def build(self) -> Graph:
        return _ring_of_cliques(self.CLIQUES, self.SIZE)

    def caps(self) -> tuple[int, int]:
        return self.SIZE, self.SIZE * (self.SIZE - 1) + 2

    def seed_node(self, rng: np.random.Generator) -> int:
        # positions 0 and SIZE-1 carry the bridge edges
        return int(rng.integers(self.CLIQUES)) * self.SIZE + int(rng.integers(1, self.SIZE - 1))


class WideSupport(_LocalClusterWorkload):
    """``random_connected_graph(1000, 2000, seed=1)`` with caps that never
    bind, so every request runs the tree sweep over the full support."""

    name = "wide-support"
    setup_reps = 51
    phi = 0.25
    eps = 0.1
    cycle = 12

    def build(self) -> Graph:
        return generators.random_connected_graph(1000, 2000, seed=1)

    def requests(self, seed: int) -> Iterator[tuple]:
        """Cycles of a fixed panel of seed nodes, one per degree slice, each
        cycle in an order and with ``SimConfig`` seeds drawn from ``seed``.
        A request's cost is mostly a function of its seed node (0.9 to 3.9 s,
        with the tree sweep's rounds), so seed nodes drawn afresh per run made
        a run's median depend on the draw; a fixed panel keeps every run's mix
        the same, overrun cases included."""
        rng = np.random.default_rng(seed)
        panel = _panel(self.g, self.cycle)
        while True:
            for k in rng.permutation(self.cycle):
                yield (panel[k], int(rng.integers(2**31)))

    def caps(self) -> tuple[int, int]:
        return self.g.node_count, 2 * self.g.edge_count


class Oracle:
    """Centralized oracles at n = 1e5: the exact series and its sweep, then
    the serial walker and its sweep. No simulator is involved."""

    name = "oracle"
    setup_reps = 3
    setup_batch = 1
    cycle = 3
    T = 3.0
    EPS = 0.05

    def __init__(self):
        self.g: Graph | None = None

    def setup(self) -> None:
        self.g = None
        self.g = _prime(generators.random_connected_graph(100_000, 200_000, seed=0))

    def requests(self, seed: int) -> Iterator[tuple]:
        """Cycles of a fixed panel of three seed nodes, in an order and with
        walker seeds drawn from ``seed``: the serial estimate's support, and
        with it a request's cost (4.6 to 6.8 s), depends on the seed node,
        and a run holds only about three requests."""
        rng = np.random.default_rng(seed)
        panel = _panel(self.g, self.cycle)
        while True:
            for k in rng.permutation(self.cycle):
                yield (panel[k], int(rng.integers(2**31)))

    def run(self, req: tuple):
        node, run_seed = req
        exact = hkpr.exact_phkpr(self.g, node, self.T)
        exact_sweep = sweep.sweep_exact(self.g, exact)
        est = hkpr.serial_estimate_phkpr(self.g, node, self.T, self.EPS, rng=run_seed)
        est_sweep = sweep.sweep_exact(self.g, est)
        return exact, exact_sweep, est, est_sweep

    def digest(self, req, result) -> str:
        exact, exact_sweep, est, est_sweep = result
        return _digest(
            sorted(exact.entries.items()),
            sorted(est.entries.items()),
            [
                (s.best_prefix, s.best_ratio, s.profile, s.ordering)
                for s in (exact_sweep, est_sweep)
            ],
        )

    def check(self, req: tuple, result) -> Checked:
        exact, exact_sweep, est, est_sweep = result
        problems = []
        if abs(sum(exact.entries.values()) - 1) > 2e-9:
            problems.append("exact vector mass is off by more than the series tolerance")
        problems += _walk_problems(self.g, est, None)
        problems += _sweep_problems(self.g, exact, exact_sweep, against_oracle=False)
        problems += _sweep_problems(self.g, est, est_sweep, against_oracle=False)
        return Checked(
            problems=problems,
            ratio_excess=float(est_sweep.best_ratio / exact_sweep.best_ratio),
            rounds=0,
            messages=0,
            max_edge_bits=0,
            digest=self.digest(req, result),
        )


WORKLOADS = {w.name: w for w in (PlantedSmall, LocalLarge, WideSupport, Oracle)}
