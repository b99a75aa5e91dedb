"""Repository benchmark: cold Table-1 sweep, QA fuzz campaign, warm judging.

Usage (from the repository root)::

    python3 perfbench/run.py --workload table1_cold --seed 1 --seconds 12 --trace 0

Runs one workload (see ``perfbench/workloads.py`` and ``BENCHMARK.json``)
for about ``--seconds`` of timed work in fresh child processes, checks every
output against its reference, prints each metric by name with its unit and
ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, measured untraced.
``--trace 1`` reports the per-layer metrics: it alternates untraced and
instrumented units, reports the instrumented units' layer split (median per
unit) and the tracing overhead, and writes their spans to
``perfbench/out/trace-<workload>.jsonl`` (``repro trace flame`` renders it).
The exit status is 1 when any output mismatched and 2 on a usage or
environment error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SPEC = ROOT / "BENCHMARK.json"

#: set-up is sampled at least this many times per run
SETUP_SAMPLES = 3
#: a warm workload splits its timed seconds over this many processes
WARM_PROCESSES = 3
#: a run must finish well inside the 180 s a run is allowed
RUN_DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS, another_unit  # noqa: E402


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing sources, child crash)."""


def _child_env() -> dict:
    env = {
        key: value for key, value in os.environ.items()
        if not key.startswith("REPRO_")  # measure the default configuration
    }
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"  # same seed, same dict/set layout, same counts
    return env


def _run_child(args, budget: float, trace: str, index: int, deadline: float,
               probe: bool = False) -> dict:
    out = OUT / f"child-{args.workload}-{index}.json"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--budget", f"{budget:.3f}", "--trace", trace, "--out", str(out),
    ]
    if probe:
        command.append("--probe")
    remaining = deadline - time.monotonic()
    if remaining <= 1.0:
        raise BenchError("run deadline reached before all processes ran")
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=_child_env(), capture_output=True,
            text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker process exceeded {remaining:.0f}s") from exc
    if done.returncode != 0:
        raise BenchError(
            f"worker process exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    try:
        with open(out, encoding="utf-8") as handle:
            return json.load(handle)
    finally:
        out.unlink(missing_ok=True)


def _collect(args) -> list[dict]:
    """Run the child processes of one benchmark run; their reports."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[args.workload]
    cold = workload.max_units_per_process == 1
    reports: list[dict] = []
    if cold:
        # one fresh process per unit, so every unit starts cold; a traced
        # run alternates untraced and traced processes
        min_units = 2 if args.trace else workload.repeats
        timed = last = 0.0
        while len(reports) < min_units or another_unit(
            timed, last, args.seconds
        ):
            trace = "all" if args.trace and len(reports) % 2 == 1 else "none"
            report = _run_child(args, 0.0, trace, len(reports), deadline)
            reports.append(report)
            last = report["units"][0]["wall"]
            timed += last
    else:
        for index in range(WARM_PROCESSES):
            report = _run_child(
                args, args.seconds / WARM_PROCESSES,
                "alternate" if args.trace else "none", index, deadline,
            )
            reports.append(report)
    while len(reports) < SETUP_SAMPLES:
        reports.append(_run_child(args, 0.0, "none", len(reports), deadline,
                                  probe=True))
    return reports


def _percentile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method), ``q`` in 1..99."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def median_latencies(units: list[dict]) -> list[float]:
    """Each task's median latency over ``units``, which ran the same tasks.

    Every unit of a run repeats the same tasks, so a task that met a slow
    stretch of host time in one unit is outvoted by the others.
    """
    keys = units[0]["keys"]
    if any(u["keys"] != keys for u in units):
        raise BenchError("the units of one run ran different tasks")
    return [
        statistics.median(samples)
        for samples in zip(*(u["latencies"] for u in units))
    ]


def end_to_end(reports: list[dict]) -> dict[str, float]:
    units = [u for r in reports for u in r["units"] if not u["traced"]]
    latencies = median_latencies(units)
    attempted, failed = _tally(reports)
    return {
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        # the median unit: a warm process's passes differ by whether a
        # full collection fell in them, so no pass stands for the rest
        "tasks_per_s": statistics.median(
            len(u["latencies"]) / u["wall"] for u in units
        ),
        "task_p50_ms": statistics.median(latencies) * 1e3,
        "task_p90_ms": _percentile(latencies, 90) * 1e3,
        "peak_rss_mib": statistics.median(
            r["rss_mib"] for r in reports if r["units"]
        ),
        "ok_ratio": (attempted - failed) / attempted,
    }


def per_layer(reports: list[dict], names: list[str]) -> dict[str, float]:
    units = [u for r in reports for u in r["units"]]
    traced = [u["layers"] for u in units if u["traced"]]
    untraced_wall = statistics.median(
        u["wall"] for u in units if not u["traced"]
    )
    traced_wall = statistics.median(u["wall"] for u in units if u["traced"])
    metrics = {
        name: statistics.median(layer[name] for layer in traced)
        for name in traced[0]
    }
    metrics["unit.untraced_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_share"] = (
        (traced_wall - untraced_wall) / untraced_wall
    )
    missing = [name for name in names if name not in metrics]
    if missing:
        raise BenchError(f"no measurement for per-layer metrics {missing}")
    return {name: metrics[name] for name in names}


def _tally(reports: list[dict]) -> tuple[int, int]:
    attempted = failed = 0
    for report in reports:
        for unit in report["units"]:
            attempted += len(unit["latencies"])
            failed += len(unit["failures"])
        if report["warmup"] is not None:
            attempted += report["warmup"]["tasks"]
            failed += len(report["warmup"]["failures"])
    return attempted, failed


def write_trace(reports: list[dict], workload: str, seed: int) -> Path:
    """All traced units' spans as one ``repro.obs`` trace file."""
    path = OUT / f"trace-{workload}.jsonl"
    version = next(r["trace_version"] for r in reports if r["units"])
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({
            "type": "meta", "version": version, "pid": os.getpid(),
            "time": time.time(),
            "attrs": {"workload": workload, "seed": seed,
                      "source": "perfbench"},
        }) + "\n")
        for report in reports:
            for unit in report["units"]:
                for span in unit.get("spans", ()):
                    handle.write(json.dumps(span) + "\n")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    OUT.mkdir(exist_ok=True)
    try:
        reports = _collect(args)
        if args.trace:
            defs = spec["per_layer"]
            values = per_layer(reports, [d["name"] for d in defs])
            trace_path = write_trace(reports, args.workload, args.seed)
        else:
            defs = spec["end_to_end"]
            values = end_to_end(reports)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    attempted, failed = _tally(reports)
    for report in reports:
        for unit in report["units"]:
            for line in unit["failures"][:20]:
                print(f"MISMATCH {line}", file=sys.stderr)
        if report["warmup"]:
            for line in report["warmup"]["failures"][:20]:
                print(f"MISMATCH (warm-up) {line}", file=sys.stderr)
    metrics = {}
    for definition in defs:
        name, unit = definition["name"], definition["unit"]
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{args.workload} {name} = {values[name]:.6g} {unit}")
    if args.trace:
        print(f"{args.workload} trace written to {trace_path.relative_to(ROOT)}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
