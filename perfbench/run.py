"""Cluster-request benchmark for hkcluster.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One workload in this process. Prints a human-readable summary, then,
        as its last line, one JSON object with the keys correct, attempted,
        failed and metrics: the end-to-end metrics named in BENCHMARK.json
        (--trace 0) or its per-layer metrics (--trace 1). Exits 1 when a
        correctness check failed, 2 when the library cannot be imported from
        this checkout's src/.

    python3 perfbench/run.py --all --seed N --seconds S
        Every workload, each in a fresh process, one after another; prints
        all ten end-to-end metrics of each with their units.

    python3 perfbench/run.py --smoke
        Every workload for one traced request; checks that every named
        metric is present with its unit.

Full records (environment, per-request checks, tail details) go to
perfbench/results/ (or --out); traced runs also write their spans there.
See NOTES.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("planted-small", "local-large", "wide-support", "oracle")
CHILD_TIMEOUT_S = 900


def _record_path(out: Path, workload: str, seed: int, trace: int) -> Path:
    return out / f"{workload}-seed{seed}-trace{trace}.json"


def _benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _import_library() -> str | None:
    """Make this checkout's src/ importable; return an error text on failure."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import hkcluster
    except ImportError as exc:
        return f"cannot import hkcluster from {src}: {exc}"
    if Path(hkcluster.__file__).resolve().parent != (src / "hkcluster").resolve():
        return f"hkcluster was imported from {hkcluster.__file__}, not from {src}"
    return None


def _run_one(args) -> int:
    problem = _import_library()
    if problem is None and not (ROOT / "BENCHMARK.json").exists():
        problem = f"no BENCHMARK.json in {ROOT}"
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    from harness import run_workload

    args.out.mkdir(parents=True, exist_ok=True)
    record = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.setup_reps, ROOT, args.out
    )
    with open(_record_path(args.out, args.workload, args.seed, args.trace), "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    env = record["env"]
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}")
    print("env: " + json.dumps(env))
    for e in record["requests"]:
        for problem in e["problems"]:
            print(f"FAILED request {e['request']}: {problem}")
    for section in ("end_to_end", "per_layer"):
        for name, m in record.get(section, {}).items():
            print(f"  {name:34s} {m['value']:<24.10g} {m['unit']}")
    t = record["latency_tail"]
    print(
        f"  latency_tail_s is p{t['percentile']:.1f} with {t['samples_beyond']} of "
        f"{t['samples']} samples beyond it"
    )
    wanted = _benchmark_spec()["per_layer" if args.trace else "end_to_end"]
    section = record["per_layer" if args.trace else "end_to_end"]
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {m["name"]: section[m["name"]] for m in wanted},
    }
    print(json.dumps(result))
    return 0 if record["correct"] else 1


def _child(workload: str, seed: int, seconds: float, trace: int, out: Path, extra=()) -> dict | None:
    """Run one workload in a fresh process; return its record, or None when
    the child wrote no fresh record or printed no result line."""
    record_path = _record_path(out, workload, seed, trace)
    record_path.unlink(missing_ok=True)  # a stale record must not stand in for this run
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace), "--out", str(out), *extra,
    ]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{workload}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode not in (0, 1) or not isinstance(result, dict) or not record_path.exists():
        print(f"{workload}: exit code {proc.returncode}, no result\n{proc.stderr}", file=sys.stderr)
        return None
    for line in lines:
        if line.startswith("FAILED"):
            print(f"{workload}: {line}")
    with open(record_path, encoding="utf-8") as fh:
        return json.load(fh)


def _run_all(args) -> int:
    records = {}
    for workload in WORKLOAD_NAMES:
        records[workload] = _child(workload, args.seed, args.seconds, 0, args.out)
    if any(r is None for r in records.values()):
        return 1
    print(f"seed: {args.seed}  seconds: {args.seconds}")
    print("env: " + json.dumps(records[WORKLOAD_NAMES[0]]["env"]))
    width = 16
    print(f"{'metric':22s} {'unit':8s}" + "".join(f"{w:>{width}s}" for w in WORKLOAD_NAMES))
    first = records[WORKLOAD_NAMES[0]]["end_to_end"]
    for name, m in first.items():
        row = "".join(
            f"{records[w]['end_to_end'][name]['value']:>{width}.6g}" for w in WORKLOAD_NAMES
        )
        print(f"{name:22s} {m['unit']:8s}{row}")
    print(
        f"{'tail percentile':31s}"
        + "".join(f"{records[w]['latency_tail']['percentile']:>{width}.1f}" for w in WORKLOAD_NAMES)
    )
    print(
        f"{'requests':31s}"
        + "".join(f"{records[w]['attempted']:>{width}d}" for w in WORKLOAD_NAMES)
    )
    correct = all(r["correct"] for r in records.values())
    print("all checks passed" if correct else "CORRECTNESS CHECKS FAILED")
    return 0 if correct else 1


def _missing_metrics(record: dict, spec: dict) -> list[str]:
    """Names BENCHMARK.json or the harness declares that the record lacks,
    or carries without a unit or without a finite value."""
    from_spec = [(s, m["name"], m["unit"]) for s in ("end_to_end", "per_layer") for m in spec[s]]
    from_record = [(s, n, m.get("unit")) for s in ("end_to_end", "per_layer") for n, m in record[s].items()]
    missing = []
    for section, name, unit in from_spec + from_record:
        m = record[section].get(name)
        if (
            m is None
            or not isinstance(m.get("unit"), str)
            or not m["unit"]
            or m["unit"] != unit
            or not isinstance(m.get("value"), (int, float))
            or not math.isfinite(m["value"])
        ):
            missing.append(f"{section}.{name}")
    return missing


def _run_smoke(args) -> int:
    spec = _benchmark_spec()
    bad = False
    for workload in WORKLOAD_NAMES:
        record = _child(workload, args.seed, 0, 1, args.out, ("--setup-reps", "1"))
        if record is None:
            bad = True
            continue
        missing = _missing_metrics(record, spec)
        status = "ok" if record["correct"] and not missing else "FAILED"
        print(f"{workload}: {status} ({record['attempted']} request)")
        for name in missing:
            print(f"  missing or malformed metric: {name}")
        bad |= status != "ok"
    return 1 if bad else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOAD_NAMES)
    mode.add_argument("--all", action="store_true", help="every workload, fresh process each")
    mode.add_argument("--smoke", action="store_true", help="one traced request per workload")
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--seconds", type=float, default=16.0, help="busy time of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-reps", type=int, default=None, help="set-up repetitions")
    parser.add_argument("--out", type=Path, default=HERE / "results", help="record directory")
    args = parser.parse_args(argv)
    args.out = args.out.resolve()
    if args.workload:
        return _run_one(args)
    args.out.mkdir(parents=True, exist_ok=True)
    return _run_all(args) if args.all else _run_smoke(args)


if __name__ == "__main__":
    raise SystemExit(main())
