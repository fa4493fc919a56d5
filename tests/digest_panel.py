"""Digest panel: the walk and sweep outputs on a fixed set of graphs, seed
nodes and vectors, hashed, plus the round ledger of every run.

Per case, ``local_cluster`` (walk time fixed at t = 3) gives the walk's
vector and the cluster's sweep. The tree sweep and the chain sweeps with a
size cap only, a volume cap only (small graphs only) and both caps then
run on the walk's vector and on a fixed ``random_sparse_vector``; a change
to the walk moves the first set of sweep digests but not the second.

``outputs`` holds the digests of what a run returns (walk entries; best
prefix, set, ratio, profile and ordering), and no change that claims equal
outputs may move one. ``ledgers`` holds each run's ``RoundStats``; a change
to a protocol's rounds, messages or bits rewrites it and says so.

Regenerate with ``PYTHONPATH=src python tests/digest_panel.py``;
``test_digest_panel.py`` recomputes the panel and compares.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from hkcluster import ClusterRequest, SimConfig, chain_sweep, distributed_sweep, local_cluster
from hkcluster.generators import karate_club_graph, random_connected_graph, two_clique_bridge

from helpers import random_graph_pool, random_sparse_vector, ring_of_cliques

GOLDEN = Path(__file__).parent / "golden" / "digests.json"
EPS = 0.1
T = 3.0


def panel_graphs():
    """(name, graph, seed nodes, whether the volume-only chain runs)."""
    yield "karate", karate_club_graph(), (0, 33), True
    yield "two-cliques-20", two_clique_bridge(20), (0, 25), True
    yield "ring-10xK20", ring_of_cliques(10, 20), (0, 105), True
    for i, g in enumerate(random_graph_pool(30, 60, base_seed=26)):
        yield f"pool-{i}", g, (0, g.node_count - 1), True
    yield "random-1000", random_connected_graph(1000, 2000, seed=1), (0, 500, 999), False


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _sweep_digest(res) -> str:
    return _digest((res.best_prefix, sorted(res.best_set), res.best_ratio, res.profile, res.ordering))


def _ledger(stats) -> str:
    return (
        f"rounds={stats.rounds} messages={stats.total_messages} C={stats.max_node_messages} "
        f"bits={stats.max_edge_bits} congestion={stats.congestion_events}"
    )


@functools.lru_cache(maxsize=None)
def compute_panel() -> tuple[dict[str, str], dict[str, str]]:
    outputs: dict[str, str] = {}
    ledgers: dict[str, str] = {}
    rng = np.random.default_rng(26)
    for case, (name, g, seeds, volume_only) in enumerate(panel_graphs()):
        size_cap = max(1, min(g.node_count // 5, 50))
        volume_cap = max(1, g.edge_count // 5)
        for seed_node in seeds:
            key = f"{name}/s{seed_node}"
            cfg = SimConfig(seed=26).derived(case, seed_node)
            req = ClusterRequest(seed_node, size_cap, volume_cap, phi=0.1, eps=EPS)
            outcome = local_cluster(g, req, cfg, t_override=T)
            outputs[f"{key}/walk"] = _digest(sorted(outcome.vector.entries.items()))
            outputs[f"{key}/cluster"] = _sweep_digest(outcome.sweep)
            ledgers[f"{key}/cluster"] = _ledger(outcome.stats)
            sweeps = {
                "tree": lambda vec, c: distributed_sweep(g, vec, EPS, c),
                "chain-size": lambda vec, c: chain_sweep(g, vec, size_cap=size_cap, config=c),
                "chain-both": lambda vec, c: chain_sweep(g, vec, size_cap, volume_cap, c),
            }
            if volume_only:
                sweeps["chain-volume"] = lambda vec, c: chain_sweep(g, vec, volume_cap=volume_cap, config=c)
            vectors = {"walk": outcome.vector, "random": random_sparse_vector(g, rng)}
            for vname, vec in vectors.items():
                for i, (sname, run) in enumerate(sweeps.items()):
                    res, stats = run(vec, cfg.derived(i + 1))
                    outputs[f"{key}/{sname}/{vname}"] = _sweep_digest(res)
                    ledgers[f"{key}/{sname}/{vname}"] = _ledger(stats)
    return outputs, ledgers


def main() -> None:
    outputs, ledgers = compute_panel()
    GOLDEN.write_text(json.dumps({"outputs": outputs, "ledgers": ledgers}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(outputs)} output digests and {len(ledgers)} ledgers to {GOLDEN}")


if __name__ == "__main__":
    main()
