"""Per-layer self time, measured from outside the program.

The benchmark does not rely on spans inside ``repro``. It replaces the
public entry points of each layer with thin timing wrappers, patched where
callers actually look the names up (``repro.eda.toolchain`` imports
``parse_verilog`` & co. by name, so the wrapper goes into that module, not
the defining one), and restores every original afterwards.

A layer's *self time* is the wall time of its calls minus the time of the
nested calls into other wrapped layers and minus the garbage-collector
pauses that fell inside it; GC pauses are a layer of their own
(``runtime.gc``). Spans are kept in memory and written once, at the end of
the run, in the ``repro.obs`` trace JSONL schema, so ``repro trace
validate`` accepts the file and ``repro trace flame`` renders the split.
"""

from __future__ import annotations

import functools
import gc
import importlib
import os
import time

#: Every wrapped entry point: (layer, module, attribute path, hook).
#: The module is the one whose namespace callers read the name from.
#: ``hook`` names an extra counter update run after each call.
PATCHES = (
    ("verilog.lex", "repro.verilog.lexer", "VerilogLexer.tokenize", "lex"),
    ("vhdl.lex", "repro.vhdl.lexer", "VhdlLexer.tokenize", "lex"),
    ("verilog.parse", "repro.eda.toolchain", "parse_verilog", None),
    ("vhdl.parse", "repro.eda.toolchain", "parse_vhdl", None),
    ("hdl.source", "repro.hdl.source", "SourceFile.__init__", None),
    ("verilog.analyze", "repro.verilog.analyzer", "VerilogAnalyzer.analyze",
     None),
    ("vhdl.analyze", "repro.vhdl.analyzer", "VhdlAnalyzer.analyze", None),
    ("sim.elab_verilog", "repro.eda.toolchain", "elaborate_verilog", None),
    ("sim.elab_vhdl", "repro.eda.toolchain", "elaborate_vhdl", None),
    ("sim.kernel", "repro.sim.kernel", "Simulator.run", "kernel"),
    ("sim.batch.plan", "repro.sim.batch", "plan_combinational", "plan"),
    ("sim.batch.plan", "repro.sim.batch", "plan_sequential", "plan"),
    ("sim.batch.run", "repro.sim.batch", "run_bundle", "batch_run"),
    ("eda.compile", "repro.eda.toolchain", "Toolchain.compile", "compile"),
    ("eda.simulate", "repro.eda.toolchain", "Toolchain.simulate", None),
    ("qa.generate", "repro.qa.fuzz", "generate_spec", None),
    ("qa.generate", "repro.qa.render", "render_verilog", None),
    ("qa.generate", "repro.qa.render", "render_vhdl", None),
    ("qa.generate", "repro.qa.oracle", "render", None),
    ("qa.oracle", "repro.qa.fuzz", "run_oracle", None),
    ("formal", "repro.formal", "check_source", None),
    ("llm", "repro.llm.synthetic", "SyntheticDesignLLM.complete", None),
    ("agents", "repro.agents.base", "Agent.ask_llm", None),
    ("agents", "repro.agents.code_agent", "CodeAgent.ensure_specification",
     None),
    ("agents", "repro.agents.code_agent", "CodeAgent.generate_testbench",
     None),
    ("agents", "repro.agents.code_agent", "CodeAgent.generate_rtl", None),
    ("agents", "repro.agents.code_agent", "CodeAgent.revise_rtl", None),
    ("agents", "repro.agents.review_agent", "ReviewAgent.review", None),
    ("agents", "repro.agents.verification_agent", "VerificationAgent.verify",
     None),
    ("agents", "repro.agents.verification_agent",
     "VerificationAgent.verify_formal", None),
    ("core.pipeline", "repro.core.pipeline", "Aivril2Pipeline.run", None),
    ("core.pipeline", "repro.eval.runner", "run_baseline", None),
    ("eval.runner", "repro.eval.runner", "_TaskContext.run_problem", None),
    ("exec.engine", "repro.exec.engine", "ExecutionEngine.run", None),
)

#: Memo lookups counted without a span: (counter, module, attribute path).
LOOKUPS = (
    ("eda.memo.parse.lookups", "repro.eda.toolchain",
     "Toolchain._parse_cached"),
    ("eda.memo.analyze.lookups", "repro.eda.toolchain",
     "Toolchain._analyze_memoized"),
)

#: The layers whose self time the per-layer metrics report, in trace order.
LAYERS = tuple(dict.fromkeys(layer for layer, *_ in PATCHES)) + ("runtime.gc",)

ROOT = "bench.unit"


def import_targets() -> None:
    """Import every patched module, so traced and untraced processes load
    the same code before any unit runs."""
    for _layer, module, *_rest in PATCHES + LOOKUPS:
        importlib.import_module(module)


def _resolve(module_name: str, path: str):
    """(owner object, attribute name) for a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class Recorder:
    """Span stack, per-layer self time and counts for one traced unit."""

    def __init__(self, registry, unit: int):
        #: the program's own metrics registry (memo hit counters)
        self.registry = registry
        #: keeps span ids unique across the units one process traces
        self.unit = unit
        self.seconds: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.counts: dict[str, int] = {}
        self.gc_pause_max = 0.0
        self.pid = os.getpid()
        self._stack: list[list] = []
        self._seq = 0
        #: finished spans as tuples; turned into records by :meth:`records`
        self._spans: list[tuple] = []
        self._perf0 = time.perf_counter()
        self._epoch0 = time.time()
        self._gc_started = 0.0

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- spans ---------------------------------------------------------

    def enter(self, layer: str) -> list:
        self._seq += 1
        parent = self._stack[-1][3] if self._stack else 0
        # [layer, start, child seconds, seq, parent seq, cpu start]
        frame = [layer, time.perf_counter(), 0.0, self._seq, parent,
                 time.process_time()]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, failed: bool = False) -> float:
        end = time.perf_counter()
        cpu = time.process_time() - frame[5]
        self._stack.pop()
        wall = end - frame[1]
        layer = frame[0]
        if layer != ROOT:
            self.seconds[layer] += wall - frame[2]
            self.count(layer + ".calls")
        if self._stack:
            self._stack[-1][2] += wall
        self._spans.append(
            (layer, frame[3], frame[4], frame[1], end, max(cpu, 0.0), failed)
        )
        return wall

    def gc_callback(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._gc_started = now
            return
        pause = now - self._gc_started
        self.seconds["runtime.gc"] += pause
        self.count("runtime.gc.collections")
        if info.get("generation") == 2:
            self.count("runtime.gc.gen2")
        self.gc_pause_max = max(self.gc_pause_max, pause)
        self._seq += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += pause
        self._spans.append((
            "runtime.gc", self._seq, parent[3] if parent else 0,
            self._gc_started, now, pause, False,
        ))

    def records(self, **root_attrs) -> list[dict]:
        """The unit's spans in the ``repro.obs`` trace record layout."""
        out = []
        for name, seq, parent, start, end, cpu, failed in self._spans:
            attrs = root_attrs if name == ROOT else {}
            out.append({
                "type": "span",
                "name": name,
                "span_id": f"{self.pid:x}-{self.unit}-{seq:x}",
                "parent_id": (
                    f"{self.pid:x}-{self.unit}-{parent:x}" if parent else None
                ),
                "pid": self.pid,
                "seq": seq,
                "start": self._epoch0 + (start - self._perf0),
                "end": self._epoch0 + (end - self._perf0),
                "wall_seconds": end - start,
                "cpu_seconds": cpu,
                "status": "error" if failed else "ok",
                "error": "raised" if failed else "",
                "attrs": dict(attrs),
            })
        return out

    # -- after-call hooks ----------------------------------------------

    def program_counter(self, name: str) -> int:
        metric = self.registry.get(name)
        return metric.value if metric is not None else 0

    def hook_lex(self, layer, args, result) -> None:
        self.count(layer + ".bytes", len(args[0].source.text))

    def hook_kernel(self, layer, args, result) -> None:
        stats = args[0].stats
        self.count("sim.kernel.activations", stats.process_activations)
        self.count("sim.kernel.delta_cycles", stats.delta_cycles)

    def hook_plan(self, layer, args, result) -> None:
        if result is None:
            self.count("sim.batch.plan.refused")

    def hook_batch_run(self, layer, args, result) -> None:
        if result is not None:
            self.count("sim.batch.run.done")
            self.count("sim.batch.run.vectors", result.vectors)


def _wrap(recorder: Recorder, layer: str, fn, hook):
    after = getattr(recorder, f"hook_{hook}") if hook else None

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        frame = recorder.enter(layer)
        failed = True
        result = None
        try:
            result = fn(*args, **kwargs)
            failed = False
            return result
        finally:
            recorder.exit(frame, failed)
            if after is not None:
                after(layer, args, result)

    return timed


def _wrap_compile(recorder: Recorder, fn):
    """``Toolchain.compile`` also counts compile-memo lookups: every call
    the opt-in result cache did not answer consults the memo."""
    timed = _wrap(recorder, "eda.compile", fn, None)

    @functools.wraps(fn)
    def compile_(*args, **kwargs):
        before = recorder.program_counter("cache.hit")
        try:
            return timed(*args, **kwargs)
        finally:
            if recorder.program_counter("cache.hit") == before:
                recorder.count("eda.memo.compile.lookups")

    return compile_


def _wrap_count(recorder: Recorder, counter: str, fn):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        recorder.count(counter)
        return fn(*args, **kwargs)

    return counted


class Instrumentation:
    """Installs the wrappers and GC callback; :meth:`restore` undoes both.

    Use as a context manager around one traced unit of work. While active,
    a ``repro.obs`` tracer with a discarding sink is installed so the
    program's own counters (``frontend.*.hit``, ``cache.hit``) count.
    """

    def __init__(self, unit: int):
        from repro.obs import NullSink, Tracer

        self.tracer = Tracer(NullSink())
        self.recorder = Recorder(self.tracer.metrics, unit)
        self._saved: list[tuple[object, str, object]] = []
        self._previous_tracer = None
        self._root: list | None = None
        self.wall = 0.0

    def __enter__(self) -> "Instrumentation":
        from repro.obs import get_tracer, set_tracer

        recorder = self.recorder
        try:
            for layer, module, path, hook in PATCHES:
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr]
                if hook == "compile":
                    wrapped = _wrap_compile(recorder, original)
                else:
                    wrapped = _wrap(recorder, layer, original, hook)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapped)
            for counter, module, path in LOOKUPS:
                owner, attr = _resolve(module, path)
                original = owner.__dict__[attr]
                self._saved.append((owner, attr, original))
                setattr(owner, attr, _wrap_count(recorder, counter, original))
        except BaseException:
            self.restore()
            raise
        self._previous_tracer = get_tracer()
        set_tracer(self.tracer)
        gc.callbacks.append(recorder.gc_callback)
        self._root = recorder.enter(ROOT)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._root is not None:
            self.wall = self.recorder.exit(self._root, exc_type is not None)
            self._root = None
        self.restore()
        return False

    def restore(self) -> None:
        """Put every original back; raises if any patch did not revert."""
        from repro.obs import set_tracer

        if self.recorder.gc_callback in gc.callbacks:
            gc.callbacks.remove(self.recorder.gc_callback)
        if self._previous_tracer is not None:
            set_tracer(self._previous_tracer)
            self._previous_tracer = None
        saved, self._saved = self._saved, []
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        for owner, attr, original in saved:
            if owner.__dict__[attr] is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")
