"""Self-test of the benchmark harness (not of the program).

Usage (from the repository root; takes about three minutes)::

    python3 perfbench/selftest.py

Checks that:

* every wrapper is installed where callers look the name up and every
  original is back afterwards;
* ``BENCHMARK.json`` and ``perfbench/metrics.json`` describe the same
  per-layer metrics and workloads;
* a traced run of each workload is correct, its trace passes
  ``repro trace validate`` and renders with ``repro trace flame``;
* no named layer shows zero calls on every workload;
* the benchmark fails, printing no result, without the program's sources.

Exits 0 when all checks pass, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from run import OUT, SPEC, _child_env  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

failures: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        failures.append(message)


def check_patching() -> None:
    layers.import_targets()
    targets = [
        (layers._resolve(module, path), path)
        for _layer, module, path, _hook in layers.PATCHES
    ] + [
        (layers._resolve(module, path), path)
        for _counter, module, path in layers.LOOKUPS
    ]
    originals = [owner.__dict__[attr] for (owner, attr), _ in targets]
    with layers.Instrumentation(0):
        for ((owner, attr), path), original in zip(targets, originals):
            check(owner.__dict__[attr] is not original,
                  f"wrapper installed at {owner.__name__}.{attr} ({path})")
    for ((owner, attr), path), original in zip(targets, originals):
        check(owner.__dict__[attr] is original,
              f"original restored at {owner.__name__}.{attr}")
    import gc

    from repro.obs import NULL_TRACER, get_tracer

    check(get_tracer() is NULL_TRACER, "program tracer restored")
    check(not gc.callbacks, "GC callback removed")


def check_manifest(spec: dict, manifest: dict) -> None:
    names = [m["name"] for m in spec["per_layer"]]
    check(sorted(names) == sorted(manifest["per_layer"]),
          "metrics.json covers exactly BENCHMARK.json's per-layer metrics")
    workloads = [w["name"] for w in spec["workloads"]]
    check(sorted(workloads) == sorted(WORKLOADS) == sorted(
        manifest["workloads"]), "workloads agree across files")
    moved = {
        e2e["name"] for e2e in spec["end_to_end"]
    }
    for name, entry in manifest["per_layer"].items():
        for workload, metrics in entry["moves"].items():
            if workload not in WORKLOADS or not set(metrics) <= moved:
                check(False, f"{name}: bad prediction {workload}: {metrics}")
        for workload in entry["exact_on"]:
            if workload not in WORKLOADS:
                check(False, f"{name}: unknown workload {workload}")


def traced_run(workload: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    check(done.returncode == 0, f"{workload}: traced run exits 0")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    check(result["correct"] and result["failed"] == 0,
          f"{workload}: traced run correct")
    trace = OUT / f"trace-{workload}.jsonl"
    for command, what in (("validate", "validates"), ("flame", "renders")):
        shown = subprocess.run(
            [sys.executable, "-m", "repro", "trace", command, str(trace)],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True,
            timeout=300,
        )
        check(shown.returncode == 0 and shown.stdout.strip(),
              f"{workload}: trace {what} with 'repro trace {command}'")
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_layers_called(per_workload: dict[str, dict]) -> None:
    for layer in layers.LAYERS:
        name = ("runtime.gc.collections" if layer == "runtime.gc"
                else f"{layer}.calls")
        calls = {w: m.get(name, 0) for w, m in per_workload.items()}
        check(any(calls.values()), f"{name} non-zero on some workload {calls}")


def check_fails_without_sources() -> None:
    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(SPEC, bare / SPEC.name)
        shutil.copytree(HERE, bare / HERE.name,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "judge_warm",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        check(done.returncode != 0 and '"correct"' not in done.stdout,
              "fails without a result when the sources are absent")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    manifest = json.loads((HERE / "metrics.json").read_text(encoding="utf-8"))
    check_patching()
    check_manifest(spec, manifest)
    OUT.mkdir(exist_ok=True)
    check_fails_without_sources()
    per_workload = {name: traced_run(name) for name in sorted(WORKLOADS)}
    check_layers_called(per_workload)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
