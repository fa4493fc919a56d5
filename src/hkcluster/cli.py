"""Command-line entry point.

Subcommands: hkpr, hkpr-exact, sweep, cluster, cluster-auto, sparsecut,
kmachine. Every stochastic run is a pure function of (graph input, flags,
--seed), and the printed report echoes enough to reproduce itself
byte-for-byte. Graphs come from an edge-list file or a built-in generator
spec such as gen:path:10, gen:cycle:60, gen:clique:8, gen:two-cliques:20,
gen:random:N:EXTRA[:SEED], gen:karate.

Exit codes: 0 success, 1 input/simulation errors, 2 argument errors. The
environment variable HKCLUSTER_ROUND_CAP overrides the simulator round cap.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import generators
from .cluster import (
    ClusterRequest,
    diffusion_time,
    local_cluster,
    local_cluster_autophi,
    sparse_cut,
)
from .congest import RoundStats, SimConfig, SimulationError
from .distributed import estimate_phkpr_distributed
from .graph import Graph, GraphError, load_edge_list
from .hkpr import exact_phkpr, serial_estimate_phkpr, walk_parameters
from .kmachine import CostMeasurement, kmachine_table
from .report import Report, fmt_real
from .sweep import chain_sweep, distributed_sweep, sweep_exact

__all__ = ["main"]


def _load_graph(spec: str) -> Graph:
    if spec.startswith("gen:"):
        parts = spec.split(":")[1:]
        name, args = parts[0], parts[1:]
        if name in ("path", "cycle", "clique", "two-cliques", "random") and not args:
            raise GraphError(f"generator {name!r} needs a size, as in gen:{name}:10")
        if name == "path":
            return generators.path_graph(int(args[0]))
        if name == "cycle":
            return generators.cycle_graph(int(args[0]))
        if name == "clique":
            return generators.complete_graph(int(args[0]))
        if name == "two-cliques":
            return generators.two_clique_bridge(int(args[0]))
        if name == "random":
            n = int(args[0])
            extra = int(args[1]) if len(args) > 1 else n
            seed = int(args[2]) if len(args) > 2 else 0
            return generators.random_connected_graph(n, extra, seed)
        if name == "karate":
            return generators.karate_club_graph()
        raise GraphError(f"unknown generator {name!r}")
    with open(spec, "r", encoding="utf-8") as fh:
        return load_edge_list(fh)


def _provenance(name: str, argv: list[str]) -> str:
    flag = f"--{name}"
    given = any(a == flag or a.startswith(flag + "=") for a in argv)
    return "flag" if given else "default"


def _sim_config(args) -> SimConfig:
    cap = os.environ.get("HKCLUSTER_ROUND_CAP")
    kwargs = dict(
        seed=args.seed,
        mode=args.mode,
        bandwidth_beta=args.beta,
        bandwidth_bits=args.bandwidth_bits,
    )
    if cap is not None:
        kwargs["round_cap"] = int(cap)
    return SimConfig(**kwargs)


def _graph_section(rep: Report, g: Graph, source: str) -> None:
    rep.section(
        "graph",
        {
            "source": source,
            "nodes": g.node_count,
            "edges": g.edge_count,
            "max-degree": g.max_degree,
        },
    )


def _params_section(rep: Report, args, argv: list[str], names: list[str]) -> None:
    items = {"log-convention": "natural (fixed)"}
    for name in names:
        value = getattr(args, name.replace("-", "_"))
        items[name] = f"{value} ({_provenance(name, argv)})"
    rep.section("parameters", items)


def _rounds_section(rep: Report, stats: RoundStats) -> None:
    rep.section(
        "rounds",
        {
            "rounds": stats.rounds,
            "messages": stats.total_messages,
            "max-node-messages": stats.max_node_messages,
            "max-edge-bits": stats.max_edge_bits,
            "congestion-events": stats.congestion_events,
        },
    )


def _vector_table(rep: Report, vec) -> None:
    rep.section(
        "vector",
        {
            "seed-node": vec.seed,
            "t": vec.t,
            "kind": vec.kind,
            "support-size": len(vec.entries),
            "sum": vec.total(),
        },
    )
    rep.table("values", ["node", "value"], [[v, val] for v, val in vec.ranked_items()])


def _sweep_section(rep: Report, res, name: str = "sweep") -> None:
    rep.section(
        name,
        {
            "best-prefix": res.best_prefix,
            "best-ratio": res.best_ratio,
            "best-ratio-real": float(res.best_ratio),
            "best-set": " ".join(str(v) for v in sorted(res.best_set)),
            "rounds-charged": res.rounds_charged,
        },
    )
    rep.table(
        "profile",
        ["prefix", "node", "volume", "boundary", "ratio"],
        [
            [j + 1, res.ordering[j], vol, bd, ratio]
            for j, (vol, bd, ratio) in enumerate(res.profile)
        ],
    )


def _kmachine_section(rep: Report, stats: RoundStats, grid: list[int]) -> None:
    meas = CostMeasurement.from_stats(stats)
    rep.table(
        "kmachine",
        ["k", "bound", "dominating-term"],
        [[k, fmt_real(b), d] for k, b, d in kmachine_table(meas, grid)],
    )


def _parse_grid(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkcluster",
        allow_abbrev=False,
        description="Heat kernel diffusion and local clustering on a simulated message-passing network.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def graph(p):
        p.add_argument("graph", help="edge-list file or gen:<name>:<args> spec")

    def common(p):  # every protocol subcommand
        graph(p)
        p.add_argument("--mode", choices=["paper", "strict"], default="paper")
        p.add_argument("--beta", type=float, default=1.0, help="bandwidth = ceil(beta*log2 n) bits")
        p.add_argument("--bandwidth-bits", type=int, default=None)
        p.add_argument("--seed", type=int, required=True, help="run RNG seed")
        p.add_argument("--k-grid", type=str, default=None, help="append k-machine bounds, e.g. 2,4,8")

    p = sub.add_parser("hkpr", help="distributed walk estimate of the diffusion vector", allow_abbrev=False)
    common(p)
    p.add_argument("--seed-node", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--serial", action="store_true", help="run the same walk centrally, without a ledger")
    p.add_argument("--trace", type=str, default=None, help="write per-round (u,v,bits) trace")

    p = sub.add_parser("hkpr-exact", help="exact truncated-series diffusion vector", allow_abbrev=False)
    graph(p)
    p.add_argument("--seed-node", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("sweep", help="estimate the diffusion, then sweep it", allow_abbrev=False)
    common(p)
    p.add_argument("--seed-node", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--sigma", type=int, default=None, help="size cap (switches to the chain sweep)")
    p.add_argument("--varsigma", type=int, default=None, help="volume cap (switches to the chain sweep)")

    p = sub.add_parser("sweep-exact", help="sweep the exact diffusion vector (deterministic)", allow_abbrev=False)
    graph(p)
    p.add_argument("--seed-node", type=int, required=True)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--max-prefix", type=int, default=None)

    p = sub.add_parser("cluster", help="local cluster from a seed with known target ratio", allow_abbrev=False)
    common(p)
    p.add_argument("--seed-node", type=int, required=True)
    p.add_argument("--phi", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--varsigma", type=int, required=True)
    p.add_argument("--c2", type=float, default=2.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--t", type=float, default=None, help="override the derived diffusion time")

    p = sub.add_parser("cluster-auto", help="local cluster with ratio halving", allow_abbrev=False)
    common(p)
    p.add_argument("--seed-node", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--varsigma", type=int, required=True)
    p.add_argument("--c2", type=float, default=2.0)
    p.add_argument("--c", type=float, default=1.0)

    p = sub.add_parser("sparsecut", help="minimum ratio over sampled seeds", allow_abbrev=False)
    common(p)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--sigma", type=int, required=True)
    p.add_argument("--varsigma", type=int, required=True)
    p.add_argument("--c2", type=float, default=2.0)
    p.add_argument("--c", type=float, default=1.0)

    p = sub.add_parser("kmachine", help="k-machine round bounds from measured complexities", allow_abbrev=False)
    p.add_argument("--messages", type=int, required=True, help="message complexity M")
    p.add_argument("--cdeg", type=int, required=True, help="communication degree complexity C")
    p.add_argument("--rounds", type=int, required=True, help="round count T")
    p.add_argument("--k-grid", type=str, default="2,4,8,16")
    return parser


def _cmd_hkpr(args, argv: list[str]) -> str:
    g = _load_graph(args.graph)
    config = _sim_config(args)
    rep = Report("hkcluster run report")
    rep.section("run", {"command": "hkpr " + " ".join(argv[1:])})
    _graph_section(rep, g, args.graph)
    _params_section(rep, args, argv, ["t", "eps", "c", "seed", "mode", "beta"])
    r, cap = walk_parameters(g.node_count, args.eps, args.c)
    if args.serial:
        vec = serial_estimate_phkpr(g, args.seed_node, args.t, args.eps, rng=args.seed, c=args.c)
        stats = RoundStats()
        rep.section("walks", {"walks": r, "step-cap": cap, "execution": "serial"})
    else:
        trace = [] if args.trace else None
        vec, stats = estimate_phkpr_distributed(
            g, args.seed_node, args.t, args.eps, config, c=args.c, trace=trace
        )
        rep.section("walks", {"walks": r, "step-cap": cap, "execution": "distributed"})
        if args.trace:
            with open(args.trace, "w", encoding="utf-8") as fh:
                fh.write("round src dst bits\n")
                for row in trace:
                    fh.write(" ".join(str(x) for x in row) + "\n")
    _vector_table(rep, vec)
    if not args.serial:
        _rounds_section(rep, stats)
        if args.k_grid:
            _kmachine_section(rep, stats, _parse_grid(args.k_grid))
    return rep.render()


def _cmd_hkpr_exact(args, argv: list[str]) -> str:
    g = _load_graph(args.graph)
    rep = Report("hkcluster run report")
    rep.section("run", {"command": "hkpr-exact " + " ".join(argv[1:])})
    _graph_section(rep, g, args.graph)
    _params_section(rep, args, argv, ["t", "tol"])
    vec = exact_phkpr(g, args.seed_node, args.t, args.tol)
    _vector_table(rep, vec)
    return rep.render()


def _cmd_sweep(args, argv: list[str]) -> str:
    g = _load_graph(args.graph)
    config = _sim_config(args)
    rep = Report("hkcluster run report")
    rep.section("run", {"command": "sweep " + " ".join(argv[1:])})
    _graph_section(rep, g, args.graph)
    _params_section(rep, args, argv, ["t", "eps", "c", "seed", "mode"])
    vec, walk_stats = estimate_phkpr_distributed(
        g, args.seed_node, args.t, args.eps, config.derived(0xD1F), c=args.c
    )
    if args.sigma is not None or args.varsigma is not None:
        res, sweep_stats = chain_sweep(
            g, vec, size_cap=args.sigma, volume_cap=args.varsigma, config=config.derived(0x5EEB)
        )
    else:
        res, sweep_stats = distributed_sweep(g, vec, args.eps, config.derived(0x5EEB))
    _vector_table(rep, vec)
    _sweep_section(rep, res)
    total = walk_stats.merge(sweep_stats)
    rep.section(
        "phases", {"walk-rounds": walk_stats.rounds, "sweep-rounds": sweep_stats.rounds}
    )
    _rounds_section(rep, total)
    if args.k_grid:
        _kmachine_section(rep, total, _parse_grid(args.k_grid))
    return rep.render()


def _cmd_sweep_exact(args, argv: list[str]) -> str:
    g = _load_graph(args.graph)
    rep = Report("hkcluster run report")
    rep.section("run", {"command": "sweep-exact " + " ".join(argv[1:])})
    _graph_section(rep, g, args.graph)
    _params_section(rep, args, argv, ["t", "tol"])
    vec = exact_phkpr(g, args.seed_node, args.t, args.tol)
    res = sweep_exact(g, vec, max_prefix=args.max_prefix)
    _sweep_section(rep, res)
    return rep.render()


def _cmd_cluster(args, argv: list[str]) -> str:
    g = _load_graph(args.graph)
    config = _sim_config(args)
    rep = Report("hkcluster run report")
    rep.section("run", {"command": "cluster " + " ".join(argv[1:])})
    _graph_section(rep, g, args.graph)
    _params_section(
        rep, args, argv, ["phi", "eps", "sigma", "varsigma", "c2", "c", "seed", "mode"]
    )
    req = ClusterRequest(
        seed=args.seed_node,
        size_cap=args.sigma,
        volume_cap=args.varsigma,
        phi=args.phi,
        eps=args.eps,
        c2=args.c2,
    )
    derived_t = diffusion_time(args.phi, args.varsigma, args.eps)
    outcome = local_cluster(g, req, config, c=args.c, t_override=args.t)
    rep.section(
        "diffusion-time",
        {
            "t-derived": derived_t,
            "t-used": outcome.t_used,
            "t-provenance": "flag" if args.t is not None else "derived",
        },
    )
    _sweep_section(rep, outcome.sweep)
    rep.section(
        "phases",
        {"walk-rounds": outcome.phkpr_rounds, "sweep-rounds": outcome.sweep_rounds},
    )
    _rounds_section(rep, outcome.stats)
    if args.k_grid:
        _kmachine_section(rep, outcome.stats, _parse_grid(args.k_grid))
    return rep.render()


def _cmd_cluster_auto(args, argv: list[str]) -> str:
    g = _load_graph(args.graph)
    config = _sim_config(args)
    rep = Report("hkcluster run report")
    rep.section("run", {"command": "cluster-auto " + " ".join(argv[1:])})
    _graph_section(rep, g, args.graph)
    _params_section(rep, args, argv, ["eps", "sigma", "varsigma", "c2", "c", "seed", "mode"])
    res = local_cluster_autophi(
        g, args.seed_node, args.sigma, args.varsigma, args.eps, args.c2, config, c=args.c
    )
    rep.section(
        "halving",
        {
            "phi-used": res.phi_used,
            "guesses": res.guesses,
            "accepted": res.accepted,
            "acceptance-threshold": args.c2 * math.sqrt(res.phi_used),
            "t-used": res.outcome.t_used,
        },
    )
    _sweep_section(rep, res.outcome.sweep)
    _rounds_section(rep, res.outcome.stats)
    if args.k_grid:
        _kmachine_section(rep, res.outcome.stats, _parse_grid(args.k_grid))
    return rep.render()


def _cmd_sparsecut(args, argv: list[str]) -> str:
    g = _load_graph(args.graph)
    config = _sim_config(args)
    rep = Report("hkcluster run report")
    rep.section("run", {"command": "sparsecut " + " ".join(argv[1:])})
    _graph_section(rep, g, args.graph)
    _params_section(
        rep, args, argv, ["samples", "eps", "sigma", "varsigma", "c2", "c", "seed", "mode"]
    )
    best, table = sparse_cut(
        g, args.samples, args.sigma, args.varsigma, args.eps, args.c2, config, rng=args.seed, c=args.c
    )
    rep.table("per-seed", ["seed-node", "ratio"], [[s, r] for s, r in table])
    rep.section(
        "best",
        {"phi-used": best.phi_used, "accepted": best.accepted, "t-used": best.outcome.t_used},
    )
    _sweep_section(rep, best.outcome.sweep)
    _rounds_section(rep, best.outcome.stats)
    if args.k_grid:
        _kmachine_section(rep, best.outcome.stats, _parse_grid(args.k_grid))
    return rep.render()


def _cmd_kmachine(args, argv: list[str]) -> str:
    rep = Report("hkcluster run report")
    rep.section("run", {"command": "kmachine " + " ".join(argv[1:])})
    meas = CostMeasurement(
        total_messages=args.messages,
        max_node_messages=args.cdeg,
        rounds=args.rounds,
    )
    rep.section(
        "measurement",
        {
            "messages": meas.total_messages,
            "cdeg": meas.max_node_messages,
            "rounds": meas.rounds,
            "note": "bound is M/k^2 + T*C/k; polylog factors dropped",
        },
    )
    rep.table(
        "kmachine",
        ["k", "bound", "dominating-term"],
        [[k, fmt_real(b), d] for k, b, d in kmachine_table(meas, _parse_grid(args.k_grid))],
    )
    return rep.render()


# protocol flags that only the message-passing walk reads
_NOT_SERIAL = ("k-grid", "trace", "mode", "beta", "bandwidth-bits")

_HANDLERS = {
    "hkpr": _cmd_hkpr,
    "hkpr-exact": _cmd_hkpr_exact,
    "sweep": _cmd_sweep,
    "sweep-exact": _cmd_sweep_exact,
    "cluster": _cmd_cluster,
    "cluster-auto": _cmd_cluster_auto,
    "sparsecut": _cmd_sparsecut,
    "kmachine": _cmd_kmachine,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "hkpr" and args.serial:
            for name in _NOT_SERIAL:
                if _provenance(name, argv) == "flag":
                    parser.error(f"hkpr --serial takes no --{name}: the serial walk has no rounds")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        sys.stdout.write(_HANDLERS[args.command](args, argv))
    except (GraphError, SimulationError, ValueError, OSError, RuntimeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
