"""Run one workload in this process: set up, a closed loop of requests by a
single client for a fixed busy time with the further set-up repetitions
between its requests, per-request checks outside the timed region, and the
metrics of the run.

A traced run installs the span wrappers for set-up and the timed loop, then
removes them and replays the same requests untraced. The replay must return
exactly the traced outputs and ledgers, and its latencies give the tracing
overhead and the run's end-to-end figures.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import PER_LAYER_UNITS, Recorder, layer_metrics, traced, write_spans
from workloads import WORKLOADS

__all__ = ["E2E_UNITS", "run_ends", "run_workload", "tail"]

E2E_UNITS = {
    "setup_s": "s",
    "requests_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "fail_frac": "ratio",
    "ratio_excess": "ratio",
    "rounds_per_request": "rounds",
    "messages_per_request": "msgs",
    "max_edge_bits": "bits",
    "peak_rss_mb": "MB",
}


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest sample with at
    least ten samples above it. Runs with fewer than 21 samples keep the
    highest sample in the upper half that has (n - 1) // 2 samples above it,
    which for an odd count is the median."""
    ordered = sorted(latencies)
    beyond = min(10, (len(ordered) - 1) // 2)
    index = len(ordered) - 1 - beyond
    return ordered[index], 100.0 * (index + 1) / len(ordered), beyond


def run_ends(done: int, cycle: int, busy: float, seconds: float) -> bool:
    """Whether a run ends after ``done`` requests that took ``busy`` seconds.
    A run ends on the boundary of the workload's request cycle nearest to
    ``seconds``, at the earliest after one cycle, so every run holds whole
    cycles and the same mix of requests; a smoke run (``seconds`` <= 0) ends
    after one request."""
    if seconds <= 0:
        return True
    return done % cycle == 0 and busy * (1 + cycle / (2 * done)) >= seconds


def _git_commit(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=60
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(root: Path, seed: int) -> dict:
    sources = hashlib.sha256()
    for path in sorted((root / "src" / "hkcluster").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(root),
        "source_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "workload_seed": seed,
    }


def _attempt(workload, req):
    """Run one request in the timed region: (result, error, seconds)."""
    t0 = perf_counter()
    try:
        result, error = workload.run(req), None
    except Exception as exc:  # a raising request is counted as failed, not fatal
        result, error = None, f"{type(exc).__name__}: {exc}"
    return result, error, perf_counter() - t0


def _checked(workload, req, result, error) -> dict:
    entry = {"request": list(req), "problems": [], "digest": None}
    if error is None:
        try:
            checked = workload.check(req, result)
        except Exception as exc:  # a check that cannot run fails the request
            entry["problems"].append(f"check raised {type(exc).__name__}: {exc}")
        else:
            entry.update(
                problems=checked.problems,
                digest=checked.digest,
                ratio_excess=checked.ratio_excess,
                rounds=checked.rounds,
                messages=checked.messages,
                max_edge_bits=checked.max_edge_bits,
            )
    else:
        entry["problems"].append(f"raised {error}")
    return entry


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    setup_reps: int | None,
    root: Path,
    out_dir: Path,
) -> dict:
    workload = WORKLOADS[name]()
    reps = workload.setup_reps if setup_reps is None else setup_reps
    rec = Recorder()
    setup_times: list[float] = []
    entries: list[dict] = []
    requests: list[tuple] = []
    latencies: dict[int, float] = {}

    def set_up() -> None:
        with rec.scope(f"setup-{len(setup_times)}") if trace else contextlib.nullcontext():
            t0 = perf_counter()
            for _ in range(workload.setup_batch):
                workload.setup()
            setup_times.append((perf_counter() - t0) / workload.setup_batch)

    with traced(rec) if trace else contextlib.nullcontext():
        set_up()  # the first set-up finishes before the first request
        busy = 0.0
        for i, req in enumerate(workload.requests(seed)):
            with rec.scope(i) if trace else contextlib.nullcontext():
                result, error, latency = _attempt(workload, req)
            busy += latency
            latencies[i] = latency
            requests.append(req)
            entry = _checked(workload, req, result, error)
            entry["latency_s"] = latency
            entries.append(entry)
            del result
            if run_ends(i + 1, workload.cycle, busy, seconds):
                break
            # The other set-ups are spread over the timed loop, between
            # requests: the host's speed drifts over seconds to minutes, and
            # so setup_s samples it over the same window as the requests do.
            while len(setup_times) < 1 + (reps - 1) * busy / seconds:
                set_up()
        while len(setup_times) < reps:
            set_up()

    record: dict = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    record["env"] = environment(root, seed)
    if trace:
        # the untraced replay: same requests, wrappers removed
        replay = []
        for req, entry in zip(requests, entries):
            result, error, latency = _attempt(workload, req)
            replay.append(latency)
            digest = workload.digest(req, result) if error is None else None
            if digest != entry["digest"]:
                entry["problems"].append("traced output or ledger differs from the untraced replay")
            entry["untraced_latency_s"] = latency
            del result
        spans_file = out_dir / f"{name}-seed{seed}-spans.jsonl"
        write_spans(spans_file, rec.spans)
        record["spans_file"] = str(spans_file)
        untraced = replay
        per_layer = layer_metrics(
            rec.spans,
            latencies,
            [f"setup-{k}" for k in range(reps)],
            workload.setup_batch,
            statistics.median(replay),
        )
    else:
        untraced = list(latencies.values())
        per_layer = None

    failed = sum(1 for e in entries if e["problems"])
    ok = [e for e in entries if not e["problems"]]
    value, percentile, beyond = tail(untraced)
    e2e = {
        "setup_s": statistics.median(setup_times),
        "requests_per_s": len(ok) / sum(untraced),
        "latency_p50_s": statistics.median(untraced),
        "latency_tail_s": value,
        "fail_frac": failed / len(entries),
        "ratio_excess": statistics.median(e["ratio_excess"] for e in ok) if ok else 0.0,
        "rounds_per_request": statistics.median(e["rounds"] for e in ok) if ok else 0,
        "messages_per_request": statistics.median(e["messages"] for e in ok) if ok else 0,
        "max_edge_bits": max((e["max_edge_bits"] for e in ok), default=0),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    record.update(
        attempted=len(entries),
        failed=failed,
        correct=failed == 0,
        end_to_end={k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()},
        latency_tail={"percentile": percentile, "samples_beyond": beyond, "samples": len(untraced)},
        setup_times_s=setup_times,
        requests=entries,
    )
    if per_layer is not None:
        record["per_layer"] = {
            k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in per_layer.items()
        }
    return record
