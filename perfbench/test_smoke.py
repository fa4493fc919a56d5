"""Tests of the benchmark itself: the smoke mode, the refusal to run without
the library, a failing child process, when a run ends, and the tail and
self-time arithmetic.

The smoke test runs every workload for one traced request (about half a
minute in total): python -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from harness import run_ends, tail  # noqa: E402
from run import WORKLOAD_NAMES, _record_path  # noqa: E402
from tracing import Span, layer_metrics  # noqa: E402


def test_smoke_mode_reports_every_named_metric(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(tmp_path)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in WORKLOAD_NAMES:
        assert f"{name}: ok" in proc.stdout
        assert (tmp_path / f"{name}-seed1-spans.jsonl").stat().st_size > 0


def _bare_checkout(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__")
    )


def test_refuses_to_run_without_the_library(tmp_path):
    _bare_checkout(tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planted-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_child_that_raises_fails_the_run_despite_a_stale_record(tmp_path):
    """A workload process that dies of an uncaught exception exits 1, as a
    failed check does; an earlier record of the same run must not pass for it."""
    _bare_checkout(tmp_path)
    # an importable but empty library: the child passes its import check,
    # then raises ImportError when the harness imports the layers
    (tmp_path / "src" / "hkcluster").mkdir(parents=True)
    (tmp_path / "src" / "hkcluster" / "__init__.py").write_text("")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    stale = {"correct": True, "attempted": 1, "failed": 0}
    for section in ("end_to_end", "per_layer"):
        stale[section] = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in spec[section]}
    out = tmp_path / "out"
    out.mkdir()
    for name in WORKLOAD_NAMES:
        _record_path(out, name, 1, 1).write_text(json.dumps(stale))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke", "--out", str(out)],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert ": ok" not in proc.stdout
    assert "ImportError" in proc.stderr or "ModuleNotFoundError" in proc.stderr


def test_tail_keeps_ten_samples_beyond_it():
    latencies = [float(i) for i in range(1, 101)]
    assert tail(latencies) == (90.0, 90.0, 10)
    assert tail([3.0, 1.0, 2.0]) == (2.0, 200.0 / 3, 1)
    assert tail([5.0]) == (5.0, 100.0, 0)


def test_a_run_ends_on_the_cycle_boundary_nearest_its_seconds():
    # 12-request cycles of 1.5 s requests: one cycle is 18 s
    assert not run_ends(11, 12, 16.5, 18.0)
    assert run_ends(12, 12, 18.0, 18.0)
    # 0.7 s requests: after one cycle (8.4 s) the second ends nearer to 18 s
    assert not run_ends(12, 12, 8.4, 18.0)
    assert run_ends(24, 12, 16.8, 18.0)
    # single-request cycles of 4.4 s: four requests (17.6 s), not three
    assert not run_ends(3, 1, 13.2, 18.0)
    assert run_ends(4, 1, 17.6, 18.0)
    # a smoke run makes one request
    assert run_ends(1, 12, 1.5, 0.0)


def _span(name, start, end, parent, request, attrs=None):
    s = Span(name, start, parent, request)
    s.end = end
    s.attrs = attrs
    return s


def test_self_times_and_remainder_add_up_to_request_wall_time():
    walk = {
        "kind": "walk", "handler_s": 2.0, "handler_calls": 10, "useful_calls": 4,
        "messages": 8, "finished_calls": 10, "rounds": 7, "total_messages": 8,
        "max_edge_bits": 20, "bandwidth": 10,
    }
    spans = [
        _span("graph.from_edges", 0.0, 0.5, None, "setup-0"),
        _span("cluster.local_cluster", 0.0, 9.0, None, 0),
        _span("distributed.estimate_phkpr_distributed", 1.0, 6.0, 1, 0),
        _span("congest.run_protocol", 1.5, 5.5, 2, 0, walk),
    ]
    m = layer_metrics(spans, {0: 10.0}, ["setup-0"], 1, untraced_p50=8.0)
    assert m["congest.self_s"] == 2.0  # 4 s in run_protocol minus 2 s of handlers
    assert m["distributed.self_s"] == 3.0  # 1 s own time plus the handlers
    assert m["cluster.self_s"] == 4.0
    assert m["trace.remainder_s"] == 1.0
    layers = ("graph", "congest", "distributed", "hkpr", "sweep", "cluster", "cli")
    assert sum(m[f"{l}.self_s"] for l in layers) + m["trace.remainder_s"] == 10.0
    assert m["congest.useful_call_frac"] == 0.4
    assert m["congest.us_per_handler_call"] == 2.0e5
    assert m["congest.edge_bits_over_bandwidth"] == 2.0
    assert m["graph.build_s"] == 0.5
    assert m["trace.overhead_frac"] == 0.25
