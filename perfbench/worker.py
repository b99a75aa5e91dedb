"""One benchmark process: set a workload up, run timed units, report.

Run by ``run.py``, never by hand::

    python3 perfbench/worker.py --workload table1_cold --seed 1 \\
        --budget 20 --trace none --out perfbench/out/unit.json

``--budget`` is the timed seconds this process may spend; it runs units
until the budget is used (at least one, or two when ``--trace alternate``)
or the workload's per-process unit limit is reached. ``--trace`` chooses
which units run instrumented: ``none``, ``all`` or ``alternate`` (untraced
first). ``--probe`` only sets up and exits, to sample set-up time.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402
from workloads import WORKLOADS, another_unit  # noqa: E402


def _ratio(hits: int, lookups: int) -> float:
    return hits / lookups if lookups else 0.0


def layer_metrics(inst: "layers.Instrumentation", unit, heap_objects: int):
    """Per-layer metrics of one traced unit (see ``BENCHMARK.json``)."""
    rec = inst.recorder
    counts = rec.counts
    out: dict[str, float] = {}
    for layer in layers.LAYERS:
        if layer != "runtime.gc":
            out[f"{layer}.s"] = rec.seconds[layer]
            out[f"{layer}.calls"] = counts.get(f"{layer}.calls", 0)
    for lang in ("verilog", "vhdl"):
        out[f"{lang}.lex.bytes"] = counts.get(f"{lang}.lex.bytes", 0)
    for name in ("sim.kernel.activations", "sim.kernel.delta_cycles",
                 "sim.batch.plan.refused", "sim.batch.run.vectors"):
        out[name] = counts.get(name, 0)
    batch_done = counts.get("sim.batch.run.done", 0)
    out["sim.batch.share"] = _ratio(
        batch_done, batch_done + counts.get("sim.kernel.calls", 0)
    )
    if "cache_hits" in unit.extra:
        hits, misses = unit.extra["cache_hits"], unit.extra["cache_misses"]
    else:
        hits = rec.program_counter("cache.hit")
        misses = rec.program_counter("cache.miss")
    out["eda.cache.hit_ratio"] = _ratio(hits, hits + misses)
    for memo in ("parse", "analyze", "compile"):
        hits = rec.program_counter(f"frontend.{memo}.hit")
        out[f"eda.memo.{memo}.hits"] = hits
        out[f"eda.memo.{memo}.hit_ratio"] = _ratio(
            hits, counts.get(f"eda.memo.{memo}.lookups", 0)
        )
    out["runtime.gc.s"] = rec.seconds["runtime.gc"]
    out["runtime.gc.collections"] = counts.get("runtime.gc.collections", 0)
    out["runtime.gc.gen2"] = counts.get("runtime.gc.gen2", 0)
    out["runtime.gc.pause_max_ms"] = rec.gc_pause_max * 1e3
    out["runtime.heap.objects"] = heap_objects
    out["formal.proved"] = unit.extra.get("formal_proved", 0)
    attributed = sum(rec.seconds.values())
    out["unit.traced_s"] = inst.wall
    out["layers.attributed_share"] = _ratio(attributed, inst.wall)
    out["unattributed.s"] = inst.wall - attributed
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--budget", type=float, default=0.0)
    parser.add_argument("--trace", choices=["none", "all", "alternate"],
                        default="none")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]()
    layers.import_targets()
    workload.setup(args.seed)
    setup_s = time.perf_counter() - _STARTED
    report = {"setup_s": setup_s, "units": [], "warmup": None}
    warmup = getattr(workload, "warmup", None)
    if warmup is not None:
        report["warmup"] = {
            "tasks": len(warmup.latencies), "failures": warmup.failures,
        }
    if not args.probe:
        from repro.obs.trace import TRACE_FORMAT_VERSION

        report["trace_version"] = TRACE_FORMAT_VERSION
        limit = workload.max_units_per_process
        min_units = 2 if args.trace == "alternate" else 1
        timed = 0.0
        index = 0
        while True:
            traced = args.trace == "all" or (
                args.trace == "alternate" and index % 2 == 1
            )
            entry = {"traced": traced}
            if traced:
                inst = layers.Instrumentation(index)
                with inst:
                    unit = workload.run_unit()
                heap_objects = len(gc.get_objects())
                entry["layers"] = layer_metrics(inst, unit, heap_objects)
                entry["spans"] = inst.recorder.records(
                    workload=args.workload, seed=args.seed, unit=index
                )
            else:
                unit = workload.run_unit()
            unit.live = None  # free the unit's working set before the next
            entry.update(
                wall=unit.wall, latencies=unit.latencies, keys=unit.keys,
                failures=unit.failures,
            )
            report["units"].append(entry)
            timed += unit.wall
            index += 1
            if limit is not None and index >= limit:
                break
            if index >= min_units and not another_unit(
                timed, unit.wall, args.budget
            ):
                break
    report["rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
