"""Spans and counters for the traced run, recorded from outside the library.

``traced(recorder)`` replaces the layers' public functions at the names other
layers call them through with span-recording wrappers, and restores them on
exit. Spans are kept in memory; ``write_spans`` writes them out at the end.

The simulator's per-call hot paths (``handle_round``, ``finished``) get
counters instead of spans: the ``run_protocol`` wrapper hands the simulator a
delegating ``CountingProtocol`` that counts and times every protocol call.
The wrappers change no argument and no result, so a traced request returns
exactly what an untraced one does.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

from hkcluster.congest import Protocol
from hkcluster.distributed import TokenWalkProtocol
from hkcluster.graph import Graph
from workloads import tree_round_bound

__all__ = ["Recorder", "traced", "layer_metrics", "write_spans", "PER_LAYER_UNITS"]


class Span:
    __slots__ = ("name", "start", "end", "parent", "request", "attrs")

    def __init__(self, name: str, start: float, parent: int | None, request: Any):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.request = request
        self.attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span store. Only calls made while a request (or a set-up
    repetition) is open are recorded; the benchmark's own checks are not."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request: Any = None

    @contextlib.contextmanager
    def scope(self, request_id: Any):
        self.request = request_id
        try:
            yield
        finally:
            self.request = None
            self._stack.clear()

    def open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, perf_counter(), parent, self.request)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()


class CountingProtocol(Protocol):
    """Delegates every call to ``inner``, counting calls, calls that emit at
    least one message, messages, and the time spent inside the protocol."""

    def __init__(self, inner: Protocol):
        self.inner = inner
        self.handler_s = 0.0
        self.handler_calls = 0
        self.useful_calls = 0
        self.messages = 0
        self.finished_calls = 0

    def initial_state(self, info):
        t0 = perf_counter()
        state = self.inner.initial_state(info)
        self.handler_s += perf_counter() - t0
        return state

    def handle_round(self, info, state, inbox, ctx):
        t0 = perf_counter()
        out = self.inner.handle_round(info, state, inbox, ctx)
        self.handler_s += perf_counter() - t0
        self.handler_calls += 1
        if out:
            self.useful_calls += 1
            self.messages += len(out)
        return out

    def finished(self, info, state, pending, round_no):
        t0 = perf_counter()
        done = self.inner.finished(info, state, pending, round_no)
        self.handler_s += perf_counter() - t0
        self.finished_calls += 1
        return done

    def finalize(self, info, state, pending):
        t0 = perf_counter()
        value = self.inner.finalize(info, state, pending)
        self.handler_s += perf_counter() - t0
        return value


def _span_wrapper(rec: Recorder, name: str, fn: Callable, annotate: Callable | None):
    def wrapper(*args, **kwargs):
        if rec.request is None:
            return fn(*args, **kwargs)
        span = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(span)
        if annotate is not None:
            span.attrs = annotate(result)
        return result

    return wrapper


def _run_protocol_wrapper(rec: Recorder, fn: Callable):
    def run_protocol(g, protocol, config, *args, **kwargs):
        if rec.request is None:
            return fn(g, protocol, config, *args, **kwargs)
        counting = CountingProtocol(protocol)
        span = rec.open("congest.run_protocol")
        try:
            outputs, stats = fn(g, counting, config, *args, **kwargs)
        finally:
            rec.close(span)
        span.attrs = {
            "kind": "walk" if isinstance(protocol, TokenWalkProtocol) else protocol.mode,
            "handler_s": counting.handler_s,
            "handler_calls": counting.handler_calls,
            "useful_calls": counting.useful_calls,
            "messages": counting.messages,
            "finished_calls": counting.finished_calls,
            "rounds": stats.rounds,
            "total_messages": stats.total_messages,
            "max_edge_bits": stats.max_edge_bits,
            "bandwidth": config.edge_bandwidth(g.node_count),
        }
        return outputs, stats

    return run_protocol


def _tree_bound(result) -> dict:
    res, stats = result
    return {"rounds": stats.rounds, "bound": tree_round_bound(res.meta)}


def _guesses(result) -> dict:
    return {"guesses": result.guesses}


# (module, attribute, span name, annotate). Each entry is a name through which
# another layer, or the benchmark, calls into a layer.
_SPANNED = [
    ("hkcluster.cli", "main", "cli.main", None),
    ("hkcluster.cli", "local_cluster", "cluster.local_cluster", None),
    ("hkcluster.cli", "local_cluster_autophi", "cluster.local_cluster_autophi", _guesses),
    ("hkcluster.cli", "sparse_cut", "cluster.sparse_cut", None),
    ("hkcluster.cluster", "local_cluster", "cluster.local_cluster", None),
    ("hkcluster.cluster", "local_cluster_autophi", "cluster.local_cluster_autophi", _guesses),
    ("hkcluster.cluster", "estimate_phkpr_distributed", "distributed.estimate_phkpr_distributed", None),
    ("hkcluster.cluster", "build_ordering", "sweep.build_ordering", None),
    ("hkcluster.cluster", "chain_sweep", "sweep.chain_sweep", None),
    ("hkcluster.cluster", "distributed_sweep", "sweep.distributed_sweep", _tree_bound),
    ("hkcluster.sweep", "build_ordering", "sweep.build_ordering", None),
    ("hkcluster.sweep", "sweep_exact", "sweep.sweep_exact", None),
    ("hkcluster.hkpr", "exact_phkpr", "hkpr.exact_phkpr", None),
    ("hkcluster.hkpr", "serial_estimate_phkpr", "hkpr.serial_estimate_phkpr", None),
]
_PROTOCOL_RUNNERS = ["hkcluster.distributed", "hkcluster.sweep"]


@contextlib.contextmanager
def traced(rec: Recorder):
    """Install the wrappers for the duration of the block."""
    saved: list[tuple[Any, str, Any]] = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for module_name, attr, name, annotate in _SPANNED:
            module = importlib.import_module(module_name)
            patch(module, attr, _span_wrapper(rec, name, getattr(module, attr), annotate))
        for module_name in _PROTOCOL_RUNNERS:
            module = importlib.import_module(module_name)
            patch(module, "run_protocol", _run_protocol_wrapper(rec, module.run_protocol))
        from_edges = _span_wrapper(rec, "graph.from_edges", Graph.from_edges, None)
        patch(Graph, "from_edges", staticmethod(from_edges))
        yield rec
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


# -- per-layer metrics -------------------------------------------------------------

PER_LAYER_UNITS = {
    "graph.build_s": "s",
    "graph.self_s": "s/request",
    "congest.self_s": "s/request",
    "congest.handler_calls": "calls/request",
    "congest.useful_call_frac": "ratio",
    "congest.us_per_handler_call": "us",
    "congest.us_per_message": "us",
    "congest.edge_bits_over_bandwidth": "ratio",
    "congest.request_share": "ratio",
    "distributed.self_s": "s/request",
    "distributed.walk_s": "s/request",
    "distributed.walk_rounds": "rounds/request",
    "distributed.walk_messages": "msgs/request",
    "hkpr.self_s": "s/request",
    "hkpr.exact_s": "s/request",
    "hkpr.serial_s": "s/request",
    "sweep.self_s": "s/request",
    "sweep.tree_s": "s/request",
    "sweep.tree_rounds": "rounds/request",
    "sweep.tree_bound_ratio": "ratio",
    "sweep.chain_s": "s/request",
    "sweep.chain_rounds": "rounds/request",
    "sweep.chain_messages": "msgs/request",
    "sweep.exact_s": "s/request",
    "sweep.ordering_s": "s/request",
    "cluster.self_s": "s/request",
    "cluster.local_s": "s/request",
    "cluster.autophi_guesses": "guesses/call",
    "cli.self_s": "s/request",
    "cli.main_s": "s/request",
    "trace.remainder_s": "s/request",
    "trace.latency_p50_traced_s": "s",
    "trace.latency_p50_untraced_s": "s",
    "trace.overhead_frac": "ratio",
}

# span name -> per-layer metric holding its inclusive time
_INCLUSIVE = {
    "distributed.estimate_phkpr_distributed": "distributed.walk_s",
    "hkpr.exact_phkpr": "hkpr.exact_s",
    "hkpr.serial_estimate_phkpr": "hkpr.serial_s",
    "sweep.distributed_sweep": "sweep.tree_s",
    "sweep.chain_sweep": "sweep.chain_s",
    "sweep.sweep_exact": "sweep.exact_s",
    "sweep.build_ordering": "sweep.ordering_s",
    "cluster.local_cluster": "cluster.local_s",
    "cli.main": "cli.main_s",
}
# protocol kind -> layer that owns its handler time
_HANDLER_LAYER = {"walk": "distributed", "tree": "sweep", "chain": "sweep"}


def layer_metrics(
    spans: list[Span],
    latencies: dict[Any, float],
    setup_ids: list[Any],
    setup_batch: int,
    untraced_p50: float,
) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    Times and counts are means per request. A layer's self time is its
    spans' durations minus their child spans; inside ``run_protocol`` the
    protocol's handler time moves from ``congest`` to the layer that owns the
    protocol. The part of each request's wall time that no span covers is
    ``trace.remainder_s``, so the self times and the remainder add up to the
    request wall time. ``graph.build_s`` is the median over the set-up
    repetitions of their graph-build time per set-up (a repetition runs
    ``setup_batch`` set-ups).
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    count = max(1, len(latencies))
    totals: dict[str, float] = defaultdict(float)
    edge_ratio = tree_ratio = 0.0
    guesses: list[int] = []
    covered = 0.0
    for i, s in enumerate(spans):
        if s.request not in latencies:
            continue  # a set-up span
        totals[f"{s.name.split('.', 1)[0]}.self_s"] += s.duration - child_time[i]
        if s.parent is None:
            covered += s.duration
        metric = _INCLUSIVE.get(s.name)
        if metric is not None:
            totals[metric] += s.duration
        a = s.attrs
        if a is None:
            continue  # the call raised; its request is counted as failed
        if s.name == "congest.run_protocol":
            totals["congest.self_s"] -= a["handler_s"]
            totals[f"{_HANDLER_LAYER[a['kind']]}.self_s"] += a["handler_s"]
            totals["congest.run_s"] += s.duration
            totals["congest.handler_calls"] += a["handler_calls"]
            totals["useful_calls"] += a["useful_calls"]
            totals["messages"] += a["messages"]
            edge_ratio = max(edge_ratio, a["max_edge_bits"] / a["bandwidth"])
            if a["kind"] == "walk":
                totals["distributed.walk_rounds"] += a["rounds"]
                totals["distributed.walk_messages"] += a["total_messages"]
            else:
                totals[f"sweep.{a['kind']}_rounds"] += a["rounds"]
                totals[f"sweep.{a['kind']}_messages"] += a["total_messages"]
        elif s.name == "sweep.distributed_sweep":
            tree_ratio = max(tree_ratio, a["rounds"] / a["bound"])
        elif s.name == "cluster.local_cluster_autophi":
            guesses.append(a["guesses"])
    wall = sum(latencies.values())
    totals["trace.remainder_s"] = wall - covered

    metrics = {name: totals[name] / count for name in PER_LAYER_UNITS}
    calls, congest_self = totals["congest.handler_calls"], totals["congest.self_s"]
    metrics["congest.useful_call_frac"] = totals["useful_calls"] / calls if calls else 0.0
    metrics["congest.us_per_handler_call"] = 1e6 * congest_self / calls if calls else 0.0
    messages = totals["messages"]
    metrics["congest.us_per_message"] = 1e6 * congest_self / messages if messages else 0.0
    metrics["congest.edge_bits_over_bandwidth"] = edge_ratio
    metrics["congest.request_share"] = totals["congest.run_s"] / wall if wall else 0.0
    metrics["sweep.tree_bound_ratio"] = tree_ratio
    metrics["cluster.autophi_guesses"] = statistics.fmean(guesses) if guesses else 0.0
    builds = [
        sum(s.duration for s in spans if s.request == sid and s.name == "graph.from_edges")
        / setup_batch
        for sid in setup_ids
    ]
    metrics["graph.build_s"] = statistics.median(builds) if builds else 0.0
    traced_p50 = statistics.median(latencies.values())
    metrics["trace.latency_p50_traced_s"] = traced_p50
    metrics["trace.latency_p50_untraced_s"] = untraced_p50
    metrics["trace.overhead_frac"] = traced_p50 / untraced_p50 - 1
    return metrics


def write_spans(path, spans: list[Span]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            row = {
                "id": i,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "request": s.request,
            }
            if s.attrs:
                row["attrs"] = s.attrs
            fh.write(json.dumps(row) + "\n")
