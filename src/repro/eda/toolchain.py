"""The toolchain: compile (analyze + elaborate) and simulate HDL sources.

Design goals:

* **One call, one log.** ``compile()`` returns everything a Review Agent
  needs; ``simulate()`` returns everything a Verification Agent needs. The
  logs are plain text in Vivado's format; structured diagnostics ride along
  for tests and metrics.
* **Never raise on bad input.** Defective code (that is the whole point of
  the paper) produces failing results with populated logs.
* **Deterministic latency model.** Real EDA runtimes are part of the paper's
  Figure 3; each result carries a modeled ``tool_seconds`` derived from the
  workload (file sizes, simulation activity) so latency accounting is
  reproducible, alongside the true wall-clock for transparency.
* **Optional memoization.** Experiment sweeps recompile and resimulate the
  same (sources, top) pairs many times — the baseline and AIVRIL2 judgments
  both run the suite's golden testbench against identical text. A
  content-hash LRU cache (:class:`ToolchainCache`) makes repeats nearly
  free while returning results equal field-by-field to a cold run (only
  ``wall_seconds``, the true elapsed time, reflects the cheap lookup).
  Caching is **off** by default; pass ``cache=True`` (or a configured
  :class:`ToolchainCache`) to opt in.
"""

from __future__ import annotations

import enum
import hashlib
import logging
import threading
import time as _time
from collections import OrderedDict
from dataclasses import dataclass, field, replace

from repro.hdl.diagnostics import Diagnostic, DiagnosticCollector, render_vivado_log
from repro.obs import get_tracer
from repro.hdl.source import SourceFile
from repro.sim.elab_verilog import elaborate_verilog
from repro.sim.elab_vhdl import elaborate_vhdl
from repro.sim.kernel import SimulationError, Simulator
from repro.verilog.analyzer import VerilogAnalyzer
from repro.verilog.parser import parse_verilog
from repro.vhdl.analyzer import VhdlAnalyzer
from repro.vhdl.parser import parse_vhdl

log = logging.getLogger(__name__)


class Language(enum.Enum):
    """Target RTL language; AIVRIL2 is orthogonal to this choice."""

    VERILOG = "verilog"
    VHDL = "vhdl"

    @property
    def file_extension(self) -> str:
        return ".v" if self is Language.VERILOG else ".vhd"

    @property
    def compiler(self) -> str:
        return "xvlog" if self is Language.VERILOG else "xvhdl"


@dataclass(frozen=True)
class HdlFile:
    """One named HDL source file submitted to the toolchain."""

    name: str
    text: str
    language: Language


@dataclass
class CompileResult:
    """Outcome of analysis + elaboration."""

    ok: bool
    log: str
    diagnostics: list[Diagnostic] = field(default_factory=list)
    tool_seconds: float = 0.0
    wall_seconds: float = 0.0

    @property
    def error_count(self) -> int:
        return sum(1 for d in self.diagnostics if d.is_error)


@dataclass
class SimResult:
    """Outcome of a simulation run."""

    ok: bool  # compiled and ran to completion (regardless of test verdicts)
    log: str
    output_lines: list[str] = field(default_factory=list)
    compile_result: CompileResult | None = None
    end_time: int = 0
    finished_cleanly: bool = False
    runtime_error: str = ""
    tool_seconds: float = 0.0
    wall_seconds: float = 0.0


@dataclass
class CacheStats:
    """Hit/miss/eviction counters for one :class:`ToolchainCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.lookups:
            return 0.0
        return self.hits / self.lookups

    def snapshot(self) -> "CacheStats":
        return CacheStats(self.hits, self.misses, self.evictions)

    def delta(self, earlier: "CacheStats") -> "CacheStats":
        """Counter change since an ``earlier`` snapshot."""
        return CacheStats(
            hits=self.hits - earlier.hits,
            misses=self.misses - earlier.misses,
            evictions=self.evictions - earlier.evictions,
        )


class ToolchainCache:
    """Bounded LRU memo of compile/simulate results, keyed by content hash.

    The key covers everything that determines a result: the operation kind,
    the top unit, every file's name, language and full text, and the
    simulator's time limit. Two source sets that happen to *render* the
    same log therefore never collide — the key is derived from the inputs,
    never from the outputs.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError(f"cache maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, object]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    @staticmethod
    def key(kind: str, files: list[HdlFile], top: str,
            extra: tuple = ()) -> str:
        digest = hashlib.sha256()
        for part in (kind, top, *map(str, extra)):
            digest.update(part.encode())
            digest.update(b"\x1e")  # record separator: no concatenation tricks
        for hdl_file in files:
            for part in (hdl_file.name, hdl_file.language.value,
                         hdl_file.text):
                digest.update(str(len(part)).encode())
                digest.update(b"\x1f")
                digest.update(part.encode())
        return digest.hexdigest()

    def get(self, key: str):
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        self.stats.hits += 1
        return entry

    def put(self, key: str, value) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def clear(self) -> None:
        self._entries.clear()


#: memo of batch plans keyed by DUT content + observation ports + env flags.
#: Module-global (not per-Toolchain) because plan construction needs a full
#: elaboration — sweeps spin up many Toolchain instances over the same DUT
#: text. Values are ``(plan | None)``; negative entries stop ineligible
#: designs from re-elaborating on every simulate call. Plans are immutable
#: once built, so sharing across threads is safe; the lock only guards the
#: OrderedDict bookkeeping.
_BATCH_PLAN_MEMO: "OrderedDict[str, object]" = OrderedDict()
_BATCH_PLAN_MEMO_MAX = 128
_BATCH_PLAN_LOCK = threading.Lock()
_BATCH_PLAN_MISS = object()


def _copy_compile_result(result: CompileResult,
                         wall_seconds: float) -> CompileResult:
    return replace(
        result, diagnostics=list(result.diagnostics), wall_seconds=wall_seconds
    )


def _copy_sim_result(result: SimResult, wall_seconds: float) -> SimResult:
    compile_copy = None
    if result.compile_result is not None:
        compile_copy = _copy_compile_result(
            result.compile_result, result.compile_result.wall_seconds
        )
    return replace(
        result,
        output_lines=list(result.output_lines),
        compile_result=compile_copy,
        wall_seconds=wall_seconds,
    )


class Toolchain:
    """Compiles and simulates HDL, mimicking the Vivado xvlog/xvhdl/xsim flow."""

    #: modeled seconds per compile invocation (fixed tool startup cost)
    COMPILE_BASE_SECONDS = 0.4
    #: modeled seconds per KiB of source analyzed
    COMPILE_PER_KIB_SECONDS = 0.015
    #: modeled seconds per simulation launch
    SIM_BASE_SECONDS = 0.6
    #: modeled seconds per 1000 process activations
    SIM_PER_KACT_SECONDS = 0.02
    #: modeled seconds per 1000 stimulus vectors on the batch tier
    SIM_PER_KVEC_SECONDS = 0.005

    #: bounded size of the per-file parse memo and file-set analysis memo
    FRONTEND_MEMO_MAX = 512

    def __init__(
        self,
        *,
        max_sim_time: int = 200_000,
        cache: "ToolchainCache | bool | None" = None,
    ):
        self.max_sim_time = max_sim_time
        if cache is True:
            cache = ToolchainCache()
        elif cache is False:
            cache = None
        self.cache = cache
        # Frontend memoization, always on (unlike the opt-in result cache):
        # parsing and analysis are pure functions of source text, but
        # elaboration must re-run per call because it builds a fresh mutable
        # Design. simulate() runs the frontend twice per cold call (once for
        # the compile log, once for the design it actually runs), and sweeps
        # re-submit identical text many times, so this removes the dominant
        # redundant work even when result caching is off. Cached ASTs are
        # frozen dataclasses and diagnostics are immutable, so sharing them
        # across calls is safe; hits replay the recorded diagnostics into the
        # caller's collector in original order.
        self._parse_memo: "OrderedDict[str, tuple]" = OrderedDict()
        self._analysis_memo: "OrderedDict[str, tuple[Diagnostic, ...]]" = (
            OrderedDict()
        )
        # compile() discards the Design it elaborates and keeps only the
        # rendered result, which is a pure function of the sources — so the
        # result itself memoizes safely (unlike simulate(), whose opt-in
        # caching stays the caller's choice). Hits skip re-elaboration, the
        # dominant cost when the same text is compiled repeatedly.
        self._compile_memo: "OrderedDict[str, CompileResult]" = OrderedDict()

    @property
    def cache_stats(self) -> CacheStats:
        """Counters of the attached cache (all zeros when caching is off)."""
        if self.cache is None:
            return CacheStats()
        return self.cache.stats

    # ------------------------------------------------------------------
    # compile
    # ------------------------------------------------------------------

    def compile(self, files: list[HdlFile], top: str) -> CompileResult:
        """Analyze and elaborate; diagnostics render into one compile log."""
        tracer = get_tracer()
        with tracer.span(
            "toolchain.compile", top=top, files=len(files)
        ) as span:
            started = _time.perf_counter()
            key = ""
            if self.cache is not None:
                key = ToolchainCache.key("compile", files, top)
                cached = self.cache.get(key)
                if cached is not None:
                    span.set_attrs(
                        cache="hit", ok=cached.ok,
                        error_count=cached.error_count,
                        tool_seconds=cached.tool_seconds,
                    )
                    tracer.metrics.counter("cache.hit").inc()
                    return _copy_compile_result(
                        cached, _time.perf_counter() - started
                    )
                span.set_attr("cache", "miss")
                tracer.metrics.counter("cache.miss").inc()
            else:
                span.set_attr("cache", "off")
            memo_key = key or ToolchainCache.key("compile", files, top)
            memoized = self._compile_memo.get(memo_key)
            if memoized is not None:
                self._compile_memo.move_to_end(memo_key)
                tracer.metrics.counter("frontend.compile.hit").inc()
                span.set_attrs(
                    ok=memoized.ok, error_count=memoized.error_count,
                    tool_seconds=memoized.tool_seconds,
                )
                return _copy_compile_result(
                    memoized, _time.perf_counter() - started
                )
            collector = DiagnosticCollector()
            language = files[0].language if files else Language.VERILOG
            design = self._build_design(files, top, collector)
            wall = _time.perf_counter() - started
            total_kib = sum(len(f.text) for f in files) / 1024.0
            modeled = self.COMPILE_BASE_SECONDS + self.COMPILE_PER_KIB_SECONDS * total_kib
            result = CompileResult(
                ok=not collector.has_errors and design is not None,
                log=render_vivado_log(
                    collector.diagnostics, tool=language.compiler, top=top
                ),
                diagnostics=list(collector.diagnostics),
                tool_seconds=modeled,
                wall_seconds=wall,
            )
            if self.cache is not None:
                # store a private copy so later caller mutations cannot poison it
                self.cache.put(key, _copy_compile_result(result, wall))
            self._memo_put(
                self._compile_memo, memo_key,
                _copy_compile_result(result, wall), self.FRONTEND_MEMO_MAX,
            )
            span.set_attrs(
                ok=result.ok, error_count=result.error_count,
                tool_seconds=result.tool_seconds,
            )
            tracer.metrics.histogram("toolchain.compile.seconds").observe(wall)
            log.debug(
                "compile top=%s files=%d ok=%s errors=%d",
                top, len(files), result.ok, result.error_count,
            )
            return result

    def _build_design(
        self, files: list[HdlFile], top: str, collector: DiagnosticCollector
    ):
        """Shared frontend pipeline; returns the elaborated design or None."""
        if not files:
            collector.error("VRFC 1-100", "no source files supplied")
            return None
        languages = {f.language for f in files}
        if len(languages) > 1:
            collector.error(
                "VRFC 1-101",
                "mixed-language elaboration of one top is not supported; "
                "submit a single-language file set per run",
            )
            return None
        language = files[0].language
        if language is Language.VERILOG:
            return self._build_verilog(files, top, collector)
        return self._build_vhdl(files, top, collector)

    @staticmethod
    def _memo_put(memo: OrderedDict, key: str, value,
                  maxsize: int) -> None:
        memo[key] = value
        memo.move_to_end(key)
        while len(memo) > maxsize:
            memo.popitem(last=False)

    def _parse_cached(self, hdl_file: HdlFile):
        """Parse one file through the memo; returns (ast, diagnostics)."""
        key = ToolchainCache.key("parse", [hdl_file], "")
        entry = self._parse_memo.get(key)
        if entry is not None:
            self._parse_memo.move_to_end(key)
            get_tracer().metrics.counter("frontend.parse.hit").inc()
            return entry
        sub = DiagnosticCollector()
        if hdl_file.language is Language.VERILOG:
            tree, _ = parse_verilog(
                hdl_file.text, name=hdl_file.name, collector=sub
            )
        else:
            tree, _ = parse_vhdl(
                hdl_file.text, name=hdl_file.name, collector=sub
            )
        entry = (tree, tuple(sub.diagnostics))
        self._memo_put(self._parse_memo, key, entry, self.FRONTEND_MEMO_MAX)
        return entry

    def _analyze_memoized(self, files, collector, run) -> None:
        """Run the analysis pass, replaying recorded diagnostics on a hit.

        Analysis reads the whole file set (cross-module/entity references),
        so the key covers every file; its only output visible to callers is
        the diagnostic stream, which a hit replays verbatim.
        """
        key = ToolchainCache.key("analyze", files, "")
        cached = self._analysis_memo.get(key)
        if cached is not None:
            self._analysis_memo.move_to_end(key)
            get_tracer().metrics.counter("frontend.analyze.hit").inc()
            collector.diagnostics.extend(cached)
            return
        mark = len(collector.diagnostics)
        run()
        self._memo_put(
            self._analysis_memo, key,
            tuple(collector.diagnostics[mark:]), self.FRONTEND_MEMO_MAX,
        )

    def _build_verilog(self, files, top, collector):
        modules = {}
        sources: dict[str, SourceFile] = {}
        units = []
        for hdl_file in files:
            source = SourceFile(hdl_file.name, hdl_file.text)
            unit, parse_diags = self._parse_cached(hdl_file)
            collector.diagnostics.extend(parse_diags)
            units.append((unit, source))
            for module in unit.modules:
                modules[module.name] = module
                sources[module.name] = source

        def analyze():
            for unit, source in units:
                analyzer = VerilogAnalyzer(source, collector, library=modules)
                analyzer.library = {
                    k: v for k, v in modules.items()
                    if k not in {m.name for m in unit.modules}
                }
                analyzer.analyze(unit)

        self._analyze_memoized(files, collector, analyze)
        if collector.has_errors:
            return None
        top_source = sources.get(top, SourceFile(files[0].name, files[0].text))
        design, _ = elaborate_verilog(modules, top, top_source, collector)
        return design

    def _build_vhdl(self, files, top, collector):
        entities = {}
        architectures = {}
        sources: dict[str, SourceFile] = {}
        design_files = []
        for hdl_file in files:
            source = SourceFile(hdl_file.name, hdl_file.text)
            design_file, parse_diags = self._parse_cached(hdl_file)
            collector.diagnostics.extend(parse_diags)
            design_files.append((design_file, source))
            for entity in design_file.entities:
                entities[entity.name] = entity
                sources[entity.name] = source
            for arch in design_file.architectures:
                architectures[arch.entity] = arch

        def analyze():
            for design_file, source in design_files:
                local = {e.name for e in design_file.entities}
                analyzer = VhdlAnalyzer(
                    source,
                    collector,
                    library={
                        k: v for k, v in entities.items() if k not in local
                    },
                )
                analyzer.analyze(design_file)

        self._analyze_memoized(files, collector, analyze)
        if collector.has_errors:
            return None
        top = top.lower()
        top_source = sources.get(top, SourceFile(files[0].name, files[0].text))
        from repro.vhdl.ast import DesignFile
        from repro.hdl.source import SourceSpan

        merged = DesignFile(
            span=SourceSpan(0, 0),
            entities=tuple(entities.values()),
            architectures=tuple(architectures.values()),
        )
        design, _ = elaborate_vhdl(merged, top, top_source, collector)
        return design

    # ------------------------------------------------------------------
    # simulate
    # ------------------------------------------------------------------

    def simulate(self, files: list[HdlFile], top: str) -> SimResult:
        """Compile then run the simulation; returns the xsim-style log."""
        tracer = get_tracer()
        with tracer.span(
            "toolchain.simulate", top=top, files=len(files)
        ) as span:
            started = _time.perf_counter()
            key = ""
            if self.cache is not None:
                key = ToolchainCache.key(
                    "simulate", files, top, extra=(self.max_sim_time,)
                )
                cached = self.cache.get(key)
                if cached is not None:
                    span.set_attrs(
                        cache="hit", ok=cached.ok,
                        tool_seconds=cached.tool_seconds,
                    )
                    tracer.metrics.counter("cache.hit").inc()
                    return _copy_sim_result(
                        cached, _time.perf_counter() - started
                    )
                span.set_attr("cache", "miss")
                tracer.metrics.counter("cache.miss").inc()
            else:
                span.set_attr("cache", "off")
            result = self._simulate_uncached(files, top, started)
            if self.cache is not None:
                self.cache.put(
                    key, _copy_sim_result(result, result.wall_seconds)
                )
            span.set_attrs(
                ok=result.ok,
                finished_cleanly=result.finished_cleanly,
                tool_seconds=result.tool_seconds,
            )
            tracer.metrics.histogram("toolchain.simulate.seconds").observe(
                result.wall_seconds
            )
            log.debug(
                "simulate top=%s files=%d ok=%s end_time=%d",
                top, len(files), result.ok, result.end_time,
            )
            return result

    def _simulate_uncached(
        self, files: list[HdlFile], top: str, started: float
    ) -> SimResult:
        batched = self._try_batch(files, top, started)
        if batched is not None:
            return batched
        compile_result = self.compile(files, top)
        if not compile_result.ok:
            wall = _time.perf_counter() - started
            sim_log = compile_result.log + "\nERROR: [XSIM 43-3225] Simulation not run: compilation failed"
            return SimResult(
                ok=False,
                log=sim_log,
                compile_result=compile_result,
                tool_seconds=compile_result.tool_seconds,
                wall_seconds=wall,
            )
        collector = DiagnosticCollector()
        design = self._build_design(files, top, collector)
        if design is None:  # pragma: no cover - compile above succeeded
            return SimResult(ok=False, log=compile_result.log,
                             compile_result=compile_result)
        simulator = Simulator(design, max_time=self.max_sim_time)
        runtime_error = ""
        try:
            stats = simulator.run()
        except SimulationError as exc:
            runtime_error = str(exc)
            stats = simulator.stats
        metrics = get_tracer().metrics
        metrics.counter("sim.activations").inc(stats.process_activations)
        metrics.counter("sim.delta_cycles").inc(stats.delta_cycles)
        metrics.counter("sim.cone_calls").inc(stats.cone_calls)
        wall = _time.perf_counter() - started
        modeled = (
            compile_result.tool_seconds
            + self.SIM_BASE_SECONDS
            + self.SIM_PER_KACT_SECONDS * stats.process_activations / 1000.0
        )
        sim_log = self._render_sim_log(
            top, simulator.output, stats, runtime_error
        )
        return SimResult(
            ok=not runtime_error,
            log=sim_log,
            output_lines=list(simulator.output),
            compile_result=compile_result,
            end_time=stats.end_time,
            finished_cleanly=stats.finished_cleanly,
            runtime_error=runtime_error,
            tool_seconds=modeled,
            wall_seconds=wall,
        )

    # ------------------------------------------------------------------
    # batch tier
    # ------------------------------------------------------------------

    def _batch_plan(self, dut_files: list[HdlFile], bundle):
        """The (possibly memoized) batch plan for one DUT + observation set."""
        from repro.designs.model import TOP_NAME
        from repro.sim import batch as _batch

        spec = bundle.spec
        ports = tuple(
            f"{p.name}:{p.width}:{p.direction}" for p in spec.ports
        )
        key = ToolchainCache.key(
            "batch-plan", dut_files, TOP_NAME,
            extra=("clocked" if spec.clocked else "comb", *ports),
        )
        with _BATCH_PLAN_LOCK:
            plan = _BATCH_PLAN_MEMO.get(key, _BATCH_PLAN_MISS)
            if plan is not _BATCH_PLAN_MISS:
                _BATCH_PLAN_MEMO.move_to_end(key)
                return plan
        design = self._build_design(dut_files, TOP_NAME, DiagnosticCollector())
        plan = None
        if design is not None:
            in_ports = [(p.name, p.width) for p in spec.inputs]
            out_ports = [(p.name, p.width) for p in spec.outputs]
            if spec.clocked:
                plan = _batch.plan_sequential(design, in_ports, out_ports)
            else:
                plan = _batch.plan_combinational(design, in_ports, out_ports)
        with _BATCH_PLAN_LOCK:
            _BATCH_PLAN_MEMO[key] = plan
            _BATCH_PLAN_MEMO.move_to_end(key)
            while len(_BATCH_PLAN_MEMO) > _BATCH_PLAN_MEMO_MAX:
                _BATCH_PLAN_MEMO.popitem(last=False)
        return plan

    def _try_batch(
        self, files: list[HdlFile], top: str, started: float
    ) -> SimResult | None:
        """Batch-tier fast path for a registered golden testbench.

        Returns a SimResult observationally identical to event-simulating
        the same file set, or ``None`` to fall through to the kernel: the
        tier is disabled, the testbench text is not a registered bundle,
        the run would exceed ``max_sim_time``, or the DUT is not batchable.
        """
        from repro.sim import compile as simcompile

        if (
            simcompile.batch_disabled()
            or simcompile.interpreter_forced()
            or simcompile.level_disabled()
        ):
            return None
        from repro.designs import tbgen
        from repro.sim import batch as _batch
        from repro.sim.kernel import SimStats

        if top != tbgen.TB_NAME:
            return None
        bundle = None
        dut_files = []
        for hdl_file in files:
            found = tbgen.stimulus_bundle(hdl_file.text)
            if found is not None:
                if bundle is not None:
                    return None  # two testbenches in one set — not our shape
                bundle = found
            else:
                dut_files.append(hdl_file)
        if bundle is None or not dut_files:
            return None
        if bundle.clocked and not bundle.spec.has_reset:
            # without a driven rst the register prologue is not the reset
            # constants; the canonical QA shapes always carry a reset
            return None
        n = len(bundle.stimulus)
        if bundle.clocked:
            end_time = (
                tbgen.RESET_CYCLES * 2 * tbgen.HALF_PERIOD_NS
                + n * 2 * tbgen.HALF_PERIOD_NS
            )
        else:
            end_time = n * tbgen.SETTLE_NS
        if end_time > self.max_sim_time:
            return None  # the kernel would truncate; let it
        plan = self._batch_plan(dut_files, bundle)
        if plan is None:
            return None
        compile_result = self.compile(files, top)
        if not compile_result.ok:
            return None
        outcome = _batch.run_bundle(plan, bundle)
        if outcome is None:
            return None
        stats = SimStats(
            end_time=outcome.end_time,
            batch_calls=1,
            batch_vectors=outcome.vectors,
            batch_demotions=outcome.demotions,
            finished_cleanly=outcome.finished_cleanly,
        )
        metrics = get_tracer().metrics
        metrics.counter("sim.batch_calls").inc()
        metrics.counter("sim.batch_vectors").inc(outcome.vectors)
        metrics.counter("sim.batch_demotions").inc(outcome.demotions)
        wall = _time.perf_counter() - started
        modeled = (
            compile_result.tool_seconds
            + self.SIM_BASE_SECONDS
            + self.SIM_PER_KVEC_SECONDS * outcome.vectors / 1000.0
        )
        output_lines = list(outcome.output_lines)
        sim_log = self._render_sim_log(top, output_lines, stats, "")
        return SimResult(
            ok=True,
            log=sim_log,
            output_lines=output_lines,
            compile_result=compile_result,
            end_time=outcome.end_time,
            finished_cleanly=outcome.finished_cleanly,
            runtime_error="",
            tool_seconds=modeled,
            wall_seconds=wall,
        )

    @staticmethod
    def _render_sim_log(top: str, output: list[str], stats, runtime_error: str) -> str:
        lines = [
            f"INFO: [XSIM 4-301] Starting simulation of '{top}'",
            "run all",
        ]
        lines.extend(output)
        if runtime_error:
            lines.append(f"ERROR: [XSIM 43-3861] {runtime_error}")
        else:
            lines.append(
                f"INFO: [XSIM 4-302] Simulation completed at time {stats.end_time} ns"
            )
        return "\n".join(lines)
