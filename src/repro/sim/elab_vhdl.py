"""Elaboration: VHDL AST → simulation-ready :class:`~repro.sim.runtime.Design`.

Lowers entity/architecture pairs onto the same runtime the Verilog elaborator
targets, which is what makes the toolchain "mixed-language" like the Vivado
setup in the paper:

* concurrent assignments (simple/conditional/selected) → re-evaluating
  processes, with ``after`` delays for testbench clock generators;
* processes → generator interpreters with persistent variables, edge memory
  for ``rising_edge``/``'event``, and full wait-statement support;
* sequential signal assignment → NBA-region (delta) updates, matching VHDL's
  signal-update semantics;
* instantiations → recursive elaboration plus port-map wiring processes.

Index arithmetic honours each signal's declared range direction
(``downto``/``to``), so ``v(0)`` means the right bound in both conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile
from repro.sim.kernel import Delay, Finish, Simulator, WaitChange
from repro.sim.runtime import Design, Process, Sensitivity, Signal
from repro.sim.values import Logic
from repro.vhdl import ast

_CODE_ELAB = "VRFC 10-3780"

SEP = "."

_STD_LOGIC_CHARS = {
    "0": Logic(1, 0),
    "L": Logic(1, 0),
    "1": Logic(1, 1),
    "H": Logic(1, 1),
}


from repro.sim.kernel import SimulationError


class _ElabAbort(SimulationError):
    """Elaboration/evaluation failed; a diagnostic has been emitted.

    Subclasses :class:`SimulationError` so that an abort raised *during
    simulation* (from defective generated code, e.g. an out-of-range index
    computed at runtime) terminates the run with a reportable simulation
    error instead of crashing the kernel.
    """


@dataclass
class _TypeInfo:
    """Declared shape of one object: width plus index mapping."""

    width: int
    left: int = 0
    right: int = 0
    descending: bool = True
    kind: str = "vector"  # scalar | vector | integer | boolean

    def bit_offset(self, index: int) -> int:
        """Map a VHDL index to a low-order bit offset in the Logic vector."""
        if self.descending:
            return index - self.right
        return self.left + self.width - 1 - index

    def slice_offsets(self, left: int, right: int) -> tuple[int, int]:
        """Map a VHDL slice (left, right) to (msb, lsb) bit offsets."""
        a = self.bit_offset(left)
        b = self.bit_offset(right)
        return (max(a, b), min(a, b))


_SCALAR = _TypeInfo(width=1, kind="scalar")
_INTEGER = _TypeInfo(width=32, left=31, right=0, kind="integer")
_BOOLEAN = _TypeInfo(width=1, kind="boolean")


@dataclass
class _VScope:
    """One elaborated architecture instance."""

    entity: ast.Entity
    arch: ast.Architecture
    prefix: str
    signals: dict[str, Signal] = field(default_factory=dict)
    constants: dict[str, Logic] = field(default_factory=dict)
    types: dict[str, _TypeInfo] = field(default_factory=dict)


@dataclass
class _EvalCtx:
    """Evaluation context: scope plus process-local state."""

    scope: _VScope
    sim: Simulator | None
    variables: dict[str, Logic] = field(default_factory=dict)
    var_types: dict[str, _TypeInfo] = field(default_factory=dict)
    loop_vars: dict[str, Logic] = field(default_factory=dict)
    edge_mem: dict[Signal, Logic] = field(default_factory=dict)


class VhdlElaborator:
    """Builds a :class:`Design` for one top entity of an analyzed design file."""

    MAX_DEPTH = 64
    LOOP_LIMIT = 1_000_000
    #: sanity cap on declared vector widths (defends against defective code
    #: declaring astronomically wide signals and exhausting memory)
    MAX_SIGNAL_WIDTH = 1 << 16

    def __init__(
        self,
        entities: dict[str, ast.Entity],
        architectures: dict[str, ast.Architecture],
        source: SourceFile,
        collector: DiagnosticCollector,
    ):
        self.entities = entities
        self.architectures = architectures
        self.source = source
        self.collector = collector
        self.design = Design()
        self._depth = 0
        #: cone-eligible processes nominated for the levelized tier, plus the
        #: signals written by everything else (the sole-driver fence)
        self._cone_members: list = []
        self._external_writes: set[Signal] = set()

    # ------------------------------------------------------------------

    def elaborate(self, top: str) -> Design | None:
        top = top.lower()
        if top not in self.entities:
            self.collector.error(
                _CODE_ELAB, f"top entity '{top}' not found", source=self.source
            )
            return None
        self.design.name = top
        try:
            self._elaborate_entity(top, prefix="", generic_overrides={})
        except _ElabAbort:
            return None
        if self.collector.has_errors:
            return None
        self._install_cones()
        return self.design

    # ------------------------------------------------------------------

    def _error(self, span, message: str) -> None:
        self.collector.error(_CODE_ELAB, message, source=self.source, span=span)

    # ------------------------------------------------------------------
    # compiled tier
    # ------------------------------------------------------------------

    def _compiled(self, build):
        """Run a compile-tier builder under the fallback safety net.

        Returns the compiled process factory, or None when the interpreter
        must be used: the tier is disabled (``REPRO_SIM_INTERP``), the
        builder declined (returned None), raised, or emitted diagnostics
        (compilation must be silent — anything it would report, the
        interpreter reports at the same point it always did).
        """
        from repro.sim.compile import interpreter_forced

        if interpreter_forced():
            return None
        mark = len(self.collector.diagnostics)
        try:
            factory = build()
        except Exception:
            factory = None
        if len(self.collector.diagnostics) != mark:
            del self.collector.diagnostics[mark:]
            factory = None
        return factory

    # ------------------------------------------------------------------
    # levelized tier
    # ------------------------------------------------------------------

    def _install_cones(self) -> None:
        from repro.sim import compile as simcompile

        if not self._cone_members:
            return
        if simcompile.interpreter_forced() or simcompile.level_disabled():
            return
        from repro.sim.compile import level as _level

        try:
            _level.install_cones(
                self.design,
                self._cone_members,
                self._external_writes,
            )
        except Exception:
            pass  # any surprise leaves the closure tier untouched

    def _note_external_target(self, target, scope: _VScope) -> None:
        """Record a target written outside the cone tier (sole-driver fence)."""
        try:
            name = _target_name(target)
        except Exception:
            return
        signal = scope.signals.get(name)
        if signal is not None:
            self._external_writes.add(signal)

    def _elaborate_entity(
        self, name: str, prefix: str, generic_overrides: dict[str, Logic]
    ) -> _VScope:
        if self._depth >= self.MAX_DEPTH:
            self._error(None, "instantiation depth limit exceeded")
            raise _ElabAbort
        entity = self.entities[name]
        arch = self.architectures.get(name)
        if arch is None:
            self._error(
                entity.span, f"entity '{name}' has no architecture"
            )
            raise _ElabAbort
        self._depth += 1
        try:
            scope = _VScope(entity=entity, arch=arch, prefix=prefix)
            self._bind_generics(scope, generic_overrides)
            self._declare_objects(scope)
            for statement in arch.statements:
                self._elaborate_concurrent(statement, scope)
            return scope
        finally:
            self._depth -= 1

    def _bind_generics(self, scope: _VScope, overrides: dict[str, Logic]) -> None:
        for generic in scope.entity.generics:
            if generic.name in overrides:
                scope.constants[generic.name] = overrides[generic.name]
            elif generic.default is not None:
                ctx = _EvalCtx(scope=scope, sim=None)
                scope.constants[generic.name] = _eval(generic.default, ctx, self)
            else:
                self._error(
                    generic.span,
                    f"generic '{generic.name}' has no default and no map entry",
                )
                raise _ElabAbort

    def _type_info(self, mark: ast.TypeMark, scope: _VScope) -> _TypeInfo:
        if mark.name in ("std_logic", "std_ulogic", "bit"):
            return _SCALAR
        if mark.name in ("integer", "natural", "positive", "time"):
            return _INTEGER
        if mark.name == "boolean":
            return _BOOLEAN
        if mark.left is None or mark.right is None:
            self._error(mark.span, f"type '{mark.name}' needs a range constraint")
            raise _ElabAbort
        ctx = _EvalCtx(scope=scope, sim=None)
        left = _to_int(_eval(mark.left, ctx, self), mark.span, self)
        right = _to_int(_eval(mark.right, ctx, self), mark.span, self)
        width = abs(left - right) + 1
        if width > self.MAX_SIGNAL_WIDTH:
            self._error(
                mark.span,
                f"vector width {width} exceeds the supported maximum "
                f"({self.MAX_SIGNAL_WIDTH})",
            )
            raise _ElabAbort(f"vector width {width} too large")
        if mark.descending and left < right:
            self._error(
                mark.span, f"'downto' range has left < right ({left} downto {right})"
            )
            raise _ElabAbort
        if not mark.descending and left > right:
            self._error(
                mark.span, f"'to' range has left > right ({left} to {right})"
            )
            raise _ElabAbort
        return _TypeInfo(
            width=width, left=left, right=right, descending=mark.descending
        )

    def _declare_objects(self, scope: _VScope) -> None:
        for port in scope.entity.ports:
            info = self._type_info(port.type_mark, scope)
            signal = Signal(scope.prefix + port.name, info.width)
            self.design.add_signal(signal)
            scope.signals[port.name] = signal
            scope.types[port.name] = info
        for decl in scope.arch.declarations:
            info = self._type_info(decl.type_mark, scope)
            if isinstance(decl, ast.ConstantDecl):
                ctx = _EvalCtx(scope=scope, sim=None)
                value = _eval_with_width(decl.value, ctx, self, info.width)
                scope.constants[decl.name] = value.resize(info.width)
                scope.types[decl.name] = info
                continue
            init: Logic | None = None
            if decl.init is not None:
                ctx = _EvalCtx(scope=scope, sim=None)
                init = _eval_with_width(decl.init, ctx, self, info.width)
            signal = Signal(scope.prefix + decl.name, info.width, init)
            self.design.add_signal(signal)
            scope.signals[decl.name] = signal
            scope.types[decl.name] = info

    # ------------------------------------------------------------------
    # concurrent statements
    # ------------------------------------------------------------------

    def _elaborate_concurrent(self, statement, scope: _VScope) -> None:
        if isinstance(statement, ast.ConcurrentAssign):
            self._concurrent_assign(statement, scope)
        elif isinstance(statement, ast.ConditionalAssign):
            self._conditional_assign(statement, scope)
        elif isinstance(statement, ast.SelectedAssign):
            self._selected_assign(statement, scope)
        elif isinstance(statement, ast.ProcessStatement):
            self._process(statement, scope)
        elif isinstance(statement, ast.EntityInstantiation):
            self._instantiate(statement, scope)
        else:
            self._error(statement.span, "unsupported concurrent statement")

    def _reads_of(self, *exprs) -> set[Signal]:
        reads: set[Signal] = set()
        for expr, scope in exprs:
            _collect_reads(expr, scope, reads)
        return reads

    def _concurrent_assign(self, statement: ast.ConcurrentAssign, scope: _VScope):
        reads = self._reads_of((statement.value, scope))
        target = statement.target
        target_width = self._target_width(target, scope)
        from repro.sim.compile import vhdl as _cvh

        if statement.after is not None:
            ctx0 = _EvalCtx(scope=scope, sim=None)
            delay = _to_int(_eval(statement.after, ctx0, self), statement.span, self)
            target_signal = self._target_signal(target, scope)

            delayed_factory = self._compiled(
                lambda: _cvh.delayed_assign_factory(
                    statement, scope, self, target_signal, delay, reads,
                    target_width,
                )
            )
            if delayed_factory is None:

                def delayed_factory(sim, value=statement.value, scope=scope,
                                    signal=target_signal, delay=delay,
                                    reads=reads, width=target_width):
                    ctx = _EvalCtx(scope=scope, sim=sim)

                    def body():
                        while True:
                            new = _eval_with_width(value, ctx, self, width)
                            if new == signal.value:
                                if not reads:
                                    return
                                yield WaitChange.on(*reads)
                                continue
                            yield Delay(delay)
                            sim.write_signal(signal, new)

                    return body()

            name = f"{scope.prefix}cassign@{self._line(statement)}"
            self.design.add_process(Process(name, delayed_factory))
            self._external_writes.add(target_signal)
            return

        factory = self._compiled(
            lambda: _cvh.concurrent_assign_factory(
                statement, scope, self, reads, target_width
            )
        )
        if factory is None:

            def factory(sim, target=target, value=statement.value, scope=scope,
                        reads=reads, width=target_width):
                ctx = _EvalCtx(scope=scope, sim=sim)

                def body():
                    while True:
                        result = _eval_with_width(value, ctx, self, width)
                        self._write_target(target, result, ctx, blocking=True)
                        if not reads:
                            return
                        yield WaitChange.on(*reads)

                return body()

        name = f"{scope.prefix}cassign@{self._line(statement)}"
        process = Process(name, factory)
        self.design.add_process(process)

        from repro.sim.compile import level as _level

        member = self._compiled(
            lambda: _level.vhdl_concurrent_member(
                process, statement, scope, self, reads, target_width
            )
        )
        if member is not None:
            self._cone_members.append(member)
        else:
            self._note_external_target(target, scope)

    def _conditional_assign(self, statement: ast.ConditionalAssign, scope: _VScope):
        reads: set[Signal] = set()
        _collect_reads(statement.otherwise, scope, reads)
        for value, condition in statement.arms:
            _collect_reads(value, scope, reads)
            _collect_reads(condition, scope, reads)
        width = self._target_width(statement.target, scope)

        from repro.sim.compile import vhdl as _cvh

        factory = self._compiled(
            lambda: _cvh.conditional_assign_factory(
                statement, scope, self, reads, width
            )
        )
        if factory is None:

            def factory(sim, st=statement, scope=scope, reads=reads,
                        width=width):
                ctx = _EvalCtx(scope=scope, sim=sim)

                def body():
                    while True:
                        chosen = st.otherwise
                        for value, condition in st.arms:
                            if _eval(condition, ctx, self).is_true():
                                chosen = value
                                break
                        result = _eval_with_width(chosen, ctx, self, width)
                        self._write_target(st.target, result, ctx, blocking=True)
                        if not reads:
                            return
                        yield WaitChange.on(*reads)

                return body()

        name = f"{scope.prefix}condassign@{self._line(statement)}"
        process_obj = Process(name, factory)
        self.design.add_process(process_obj)

        from repro.sim.compile import level as _level

        member = self._compiled(
            lambda: _level.vhdl_conditional_member(
                process_obj, statement, scope, self, reads, width
            )
        )
        if member is not None:
            self._cone_members.append(member)
        else:
            self._note_external_target(statement.target, scope)

    def _selected_assign(self, statement: ast.SelectedAssign, scope: _VScope):
        reads: set[Signal] = set()
        _collect_reads(statement.selector, scope, reads)
        for value, choices in statement.arms:
            _collect_reads(value, scope, reads)
        if statement.otherwise is not None:
            _collect_reads(statement.otherwise, scope, reads)
        width = self._target_width(statement.target, scope)

        from repro.sim.compile import vhdl as _cvh

        factory = self._compiled(
            lambda: _cvh.selected_assign_factory(
                statement, scope, self, reads, width
            )
        )
        if factory is not None:
            name = f"{scope.prefix}selassign@{self._line(statement)}"
            self.design.add_process(Process(name, factory))
            # selected assigns may skip the write (no others arm): not
            # idempotent under cone over-evaluation, so never a member
            self._note_external_target(statement.target, scope)
            return

        def factory(sim, st=statement, scope=scope, reads=reads, width=width):
            ctx = _EvalCtx(scope=scope, sim=sim)

            def body():
                while True:
                    selector = _eval(st.selector, ctx, self)
                    chosen = st.otherwise
                    for value, choices in st.arms:
                        matched = False
                        for choice in choices:
                            label = _eval_with_width(
                                choice, ctx, self, selector.width
                            )
                            if selector.case_eq(label).is_true():
                                matched = True
                                break
                        if matched:
                            chosen = value
                            break
                    if chosen is not None:
                        result = _eval_with_width(chosen, ctx, self, width)
                        self._write_target(st.target, result, ctx, blocking=True)
                    if not reads:
                        return
                    yield WaitChange.on(*reads)

            return body()

        name = f"{scope.prefix}selassign@{self._line(statement)}"
        self.design.add_process(Process(name, factory))
        self._note_external_target(statement.target, scope)

    # ------------------------------------------------------------------
    # processes
    # ------------------------------------------------------------------

    def _process(self, process: ast.ProcessStatement, scope: _VScope) -> None:
        sens_signals: list[Signal] = []
        if process.sensitivity == ("all",):
            reads: set[Signal] = set()
            for statement in process.body:
                _collect_reads_seq(statement, scope, reads)
            sens_signals = sorted(reads, key=lambda s: s.name)
        else:
            for name in process.sensitivity:
                signal = scope.signals.get(name)
                if signal is None:
                    self._error(
                        process.span,
                        f"sensitivity entry '{name}' is not a signal",
                    )
                    continue
                sens_signals.append(signal)
        watched = _edge_watched_signals(process.body, scope)
        label = process.label or f"proc@{self._line(process)}"
        # processes carry variables, edge memory, and waits — never cone
        # members, so everything they assign fences off the levelized tier
        self._external_writes |= _seq_written_signals(process.body, scope)

        from repro.sim.compile import vhdl as _cvh

        factory = self._compiled(
            lambda: _cvh.process_factory(
                process, scope, self, tuple(sens_signals), tuple(watched)
            )
        )
        if factory is not None:
            self._add_process_with_sync(process, scope, label, factory)
            return

        def factory(sim, process=process, scope=scope,
                    sens=tuple(sens_signals), watched=tuple(watched)):
            ctx = _EvalCtx(scope=scope, sim=sim)
            for decl in process.declarations:
                info = self._type_info(decl.type_mark, scope)
                ctx.var_types[decl.name] = info
                if decl.init is not None:
                    ctx.variables[decl.name] = _eval_with_width(
                        decl.init, ctx, self, info.width
                    ).resize(info.width)
                else:
                    ctx.variables[decl.name] = Logic.unknown(info.width)
            for signal in watched:
                ctx.edge_mem[signal] = signal.value

            def run():
                while True:
                    yield from self._exec_body(process.body, ctx)
                    if sens:
                        yield WaitChange.on(*sens)
                    elif not _body_has_wait(process.body):
                        return  # analyzer already flagged this

            def snapshotting(gen):
                for command in gen:
                    for signal in watched:
                        ctx.edge_mem[signal] = signal.value
                    yield command

            return snapshotting(run())

        self._add_process_with_sync(process, scope, label, factory)

    def _add_process_with_sync(
        self, process: ast.ProcessStatement, scope: _VScope, label: str, factory
    ) -> None:
        """Register the process, recognizing synchronous register banks.

        The batch tier (:mod:`repro.sim.batch`) needs the kernel
        :class:`Process` identity to pair each recognized register bank with
        its process, so recognition happens here where the object is in hand.
        """
        proc_obj = Process(f"{scope.prefix}{label}", factory)
        self.design.add_process(proc_obj)
        from repro.sim.compile import level as _level

        update = self._compiled(
            lambda: _level.vhdl_sync_update(
                proc_obj, process, scope, scope.signals.get
            )
        )
        if update is not None:
            self.design.sync_updates.append(update)

    def _exec_body(self, body: tuple, ctx: _EvalCtx):
        for statement in body:
            yield from self._exec_seq(statement, ctx)

    def _exec_seq(self, statement: ast.SeqStatement, ctx: _EvalCtx):
        sim = ctx.sim
        assert sim is not None
        if isinstance(statement, ast.SignalAssign):
            width = self._target_width(statement.target, ctx.scope, ctx)
            value = _eval_with_width(statement.value, ctx, self, width)
            if statement.after is not None:
                delay = _to_int(
                    _eval(statement.after, ctx, self), statement.span, self
                )
                signal = self._target_signal(statement.target, ctx.scope)
                sim.schedule_write(signal, value.resize(signal.width), delay)
            else:
                self._write_target(statement.target, value, ctx, blocking=False)
        elif isinstance(statement, ast.VariableAssign):
            width = self._target_width(statement.target, ctx.scope, ctx)
            value = _eval_with_width(statement.value, ctx, self, width)
            self._write_variable(statement.target, value, ctx)
        elif isinstance(statement, ast.IfStatement):
            for condition, body in statement.arms:
                if _eval(condition, ctx, self).is_true():
                    yield from self._exec_body(body, ctx)
                    return
            yield from self._exec_body(statement.else_body, ctx)
        elif isinstance(statement, ast.CaseStatement):
            yield from self._exec_case(statement, ctx)
        elif isinstance(statement, ast.ForLoop):
            low = _to_int(_eval(statement.low, ctx, self), statement.span, self)
            high = _to_int(_eval(statement.high, ctx, self), statement.span, self)
            indices = range(low, high + 1)
            if statement.descending:
                indices = reversed(indices)
            outer = ctx.loop_vars.get(statement.var)
            for index in indices:
                ctx.loop_vars[statement.var] = Logic.from_int(index, 32)
                yield from self._exec_body(statement.body, ctx)
            if outer is None:
                ctx.loop_vars.pop(statement.var, None)
            else:
                ctx.loop_vars[statement.var] = outer
        elif isinstance(statement, ast.WhileLoop):
            iterations = 0
            while _eval(statement.condition, ctx, self).is_true():
                yield from self._exec_body(statement.body, ctx)
                iterations += 1
                if iterations > self.LOOP_LIMIT:
                    from repro.sim.kernel import SimulationError

                    raise SimulationError("while-loop iteration limit exceeded")
        elif isinstance(statement, ast.WaitStatement):
            yield from self._exec_wait(statement, ctx)
        elif isinstance(statement, ast.AssertStatement):
            condition = _eval(statement.condition, ctx, self)
            if not condition.is_true():
                message = "Assertion violation."
                if statement.message is not None:
                    message = _eval_text(statement.message, ctx, self)
                sim.display(
                    f"{statement.severity.upper()}: {message}"
                )
                if statement.severity == "failure":
                    yield Finish(1)
        elif isinstance(statement, ast.ReportStatement):
            message = _eval_text(statement.message, ctx, self)
            if statement.severity == "note":
                sim.display(message)
            else:
                sim.display(f"{statement.severity.upper()}: {message}")
            if statement.severity == "failure":
                yield Finish(1)
        elif isinstance(statement, ast.NullStatement):
            pass
        else:
            self._error(statement.span, "unsupported sequential statement")
            raise _ElabAbort

    def _exec_case(self, statement: ast.CaseStatement, ctx: _EvalCtx):
        subject = _eval(statement.subject, ctx, self)
        others_body = None
        for alternative in statement.alternatives:
            if not alternative.choices:
                others_body = alternative.body
                continue
            for choice in alternative.choices:
                label = _eval_with_width(choice, ctx, self, subject.width)
                if subject.resize(max(subject.width, label.width)).case_eq(
                    label.resize(max(subject.width, label.width))
                ).is_true():
                    yield from self._exec_body(alternative.body, ctx)
                    return
        if others_body is not None:
            yield from self._exec_body(others_body, ctx)

    def _exec_wait(self, statement: ast.WaitStatement, ctx: _EvalCtx):
        sim = ctx.sim
        if statement.for_time is not None:
            delay = _to_int(_eval(statement.for_time, ctx, self), statement.span, self)
            yield Delay(delay)
            return
        if statement.until is not None:
            reads: set[Signal] = set()
            _collect_reads(statement.until, ctx.scope, reads)
            if not reads:
                message = (
                    "'wait until' condition reads no signals and can never "
                    "become true"
                )
                self._error(statement.span, message)
                raise _ElabAbort(message)
            while True:
                yield WaitChange.on(*reads)
                if _eval(statement.until, ctx, self).is_true():
                    return
        if statement.on_signals:
            signals = []
            for name in statement.on_signals:
                signal = ctx.scope.signals.get(name)
                if signal is not None:
                    signals.append(signal)
            yield WaitChange.on(*signals)
            return
        # bare `wait;` — suspend forever
        yield WaitChange(())

    # ------------------------------------------------------------------
    # instantiation
    # ------------------------------------------------------------------

    def _instantiate(self, inst: ast.EntityInstantiation, scope: _VScope) -> None:
        if inst.entity not in self.entities:
            self._error(inst.span, f"unknown entity '{inst.entity}'")
            return
        entity = self.entities[inst.entity]
        ctx0 = _EvalCtx(scope=scope, sim=None)
        overrides: dict[str, Logic] = {}
        generic_names = [g.name for g in entity.generics]
        for position, item in enumerate(inst.generic_map):
            if item.value is None:
                continue
            value = _eval(item.value, ctx0, self)
            if item.name is not None:
                overrides[item.name] = value
            elif position < len(generic_names):
                overrides[generic_names[position]] = value
        child_prefix = f"{scope.prefix}{inst.label}{SEP}"
        child_scope = self._elaborate_entity(inst.entity, child_prefix, overrides)
        port_by_name = {p.name: p for p in entity.ports}
        port_order = [p.name for p in entity.ports]
        bindings: list[tuple[str, ast.Expression]] = []
        for position, item in enumerate(inst.port_map):
            if item.expr is None:
                continue
            if item.port is not None:
                if item.port in port_by_name:
                    bindings.append((item.port, item.expr))
            elif position < len(port_order):
                bindings.append((port_order[position], item.expr))
        for port_name, expr in bindings:
            decl = port_by_name[port_name]
            child_signal = child_scope.signals.get(port_name)
            if child_signal is None:
                continue
            if decl.direction == "in":
                self._wire_input(expr, child_signal, scope, inst)
            elif decl.direction in ("out", "buffer"):
                self._wire_output(expr, child_signal, scope, inst)
            else:
                self._error(
                    inst.span, f"inout port '{port_name}' is not supported"
                )

    def _wire_input(self, expr, child_signal: Signal, scope: _VScope, inst) -> None:
        reads: set[Signal] = set()
        _collect_reads(expr, scope, reads)

        from repro.sim.compile import vhdl as _cvh

        factory = self._compiled(
            lambda: _cvh.wire_input_factory(expr, child_signal, scope, self, reads)
        )
        if factory is None:

            def factory(sim, expr=expr, scope=scope, child=child_signal,
                        reads=reads):
                ctx = _EvalCtx(scope=scope, sim=sim)

                def body():
                    while True:
                        sim.write_signal(
                            child, _eval_with_width(expr, ctx, self, child.width)
                        )
                        if not reads:
                            return
                        yield WaitChange.on(*reads)

                return body()

        process = Process(
            f"{scope.prefix}{inst.label}.in.{child_signal.name}", factory
        )
        self.design.add_process(process)

        from repro.sim.compile import level as _level

        member = self._compiled(
            lambda: _level.vhdl_wire_input_member(
                process, expr, child_signal, scope, self, reads
            )
        )
        if member is not None:
            self._cone_members.append(member)
        else:
            self._external_writes.add(child_signal)

    def _wire_output(self, expr, child_signal: Signal, scope: _VScope, inst) -> None:
        if not isinstance(expr, (ast.Name, ast.Indexed, ast.Sliced)):
            self._error(
                inst.span,
                f"output port connection on instance '{inst.label}' must be "
                "a signal name",
            )
            return

        from repro.sim.compile import vhdl as _cvh

        factory = self._compiled(
            lambda: _cvh.wire_output_factory(expr, child_signal, scope, self)
        )
        if factory is None:

            def factory(sim, target=expr, scope=scope, child=child_signal):
                ctx = _EvalCtx(scope=scope, sim=sim)

                def body():
                    while True:
                        self._write_target(target, child.value, ctx, blocking=True)
                        yield WaitChange.on(child)

                return body()

        process = Process(
            f"{scope.prefix}{inst.label}.out.{child_signal.name}", factory
        )
        self.design.add_process(process)

        from repro.sim.compile import level as _level

        member = self._compiled(
            lambda: _level.vhdl_wire_output_member(
                process, expr, child_signal, scope, self
            )
        )
        if member is not None:
            self._cone_members.append(member)
        else:
            self._note_external_target(expr, scope)

    # ------------------------------------------------------------------
    # targets
    # ------------------------------------------------------------------

    def _target_signal(self, target, scope: _VScope) -> Signal:
        name = _target_name(target)
        signal = scope.signals.get(name)
        if signal is None:
            self._error(target.span, f"cannot assign to '{name}'")
            raise _ElabAbort
        return signal

    def _target_width(
        self, target, scope: _VScope, ctx: _EvalCtx | None = None
    ) -> int:
        name = _target_name(target)
        if ctx is not None and name in ctx.var_types:
            info = ctx.var_types[name]
        else:
            info = scope.types.get(name)
        if info is None:
            return 1
        if isinstance(target, ast.Name):
            return info.width
        if isinstance(target, ast.Indexed):
            return 1
        if isinstance(target, ast.Sliced):
            eval_ctx = ctx if ctx is not None else _EvalCtx(scope=scope, sim=None)
            try:
                left = _to_int(_eval(target.left, eval_ctx, self), target.span, self)
                right = _to_int(_eval(target.right, eval_ctx, self), target.span, self)
            except _ElabAbort:
                return info.width
            return abs(left - right) + 1
        return info.width

    def _write_target(self, target, value: Logic, ctx: _EvalCtx, *, blocking: bool):
        scope = ctx.scope
        name = _target_name(target)
        sim = ctx.sim
        assert sim is not None
        if name in ctx.variables:
            self._write_variable(target, value, ctx)
            return
        signal = scope.signals.get(name)
        if signal is None:
            self._error(target.span, f"cannot assign to '{name}'")
            raise _ElabAbort
        info = scope.types.get(name, _TypeInfo(width=signal.width))
        if isinstance(target, ast.Name):
            if blocking:
                sim.write_signal(signal, value.resize(signal.width))
            else:
                sim.schedule_nba(signal, value.resize(signal.width))
            return
        if isinstance(target, ast.Indexed):
            index_value = _eval(target.index, ctx, self)
            if index_value.has_x:
                return  # unknown index: the write has no effect (xsim behaviour)
            offset = info.bit_offset(index_value.to_int())
            if blocking:
                sim.write_signal(signal, signal.value.set_slice(offset, offset, value))
            else:
                sim.schedule_nba_update(
                    signal, lambda old, o=offset, v=value: old.set_slice(o, o, v)
                )
            return
        if isinstance(target, ast.Sliced):
            left_value = _eval(target.left, ctx, self)
            right_value = _eval(target.right, ctx, self)
            if left_value.has_x or right_value.has_x:
                return  # unknown bounds: the write has no effect
            left = left_value.to_int()
            right = right_value.to_int()
            msb, lsb = info.slice_offsets(left, right)
            if blocking:
                sim.write_signal(signal, signal.value.set_slice(msb, lsb, value))
            else:
                sim.schedule_nba_update(
                    signal,
                    lambda old, m=msb, l=lsb, v=value: old.set_slice(m, l, v),
                )
            return
        self._error(target.span, "unsupported assignment target")
        raise _ElabAbort

    def _write_variable(self, target, value: Logic, ctx: _EvalCtx) -> None:
        name = _target_name(target)
        if name not in ctx.variables:
            self._error(target.span, f"'{name}' is not a variable")
            raise _ElabAbort
        info = ctx.var_types[name]
        if isinstance(target, ast.Name):
            ctx.variables[name] = value.resize(info.width)
            return
        current = ctx.variables[name]
        if isinstance(target, ast.Indexed):
            index_value = _eval(target.index, ctx, self)
            if index_value.has_x:
                return
            offset = info.bit_offset(index_value.to_int())
            ctx.variables[name] = current.set_slice(offset, offset, value)
            return
        if isinstance(target, ast.Sliced):
            left = _to_int(_eval(target.left, ctx, self), target.span, self)
            right = _to_int(_eval(target.right, ctx, self), target.span, self)
            msb, lsb = info.slice_offsets(left, right)
            ctx.variables[name] = current.set_slice(msb, lsb, value)
            return
        self._error(target.span, "unsupported variable assignment target")
        raise _ElabAbort

    def _line(self, node) -> int:
        return self.source.location(node.span.start_offset).line


# --------------------------------------------------------------------------
# expression evaluation
# --------------------------------------------------------------------------


def _target_name(target) -> str:
    if isinstance(target, ast.Name):
        return target.name
    if isinstance(target, (ast.Indexed, ast.Sliced)):
        return target.name
    raise TypeError(f"not a target: {target!r}")


def _to_int(value: Logic, span, elab: VhdlElaborator) -> int:
    if value.has_x:
        message = "expression with unknown ('X') bits used as an integer"
        elab._error(span, message)
        raise _ElabAbort(message)
    return value.to_int()


def _eval_with_width(
    expr, ctx: _EvalCtx, elab: VhdlElaborator, width: int
) -> Logic:
    """Evaluate with an expected width for context-dependent forms (aggregates)."""
    if isinstance(expr, ast.Aggregate):
        return _eval_aggregate(expr, ctx, elab, width)
    return _eval(expr, ctx, elab)


def _eval_aggregate(
    expr: ast.Aggregate, ctx: _EvalCtx, elab: VhdlElaborator, width: int
) -> Logic:
    if expr.others is not None and not expr.elements:
        fill = _eval(expr.others, ctx, elab)
        return fill.resize(1).replicate(width)
    # positional elements from the left (MSB side), padded by others
    result = Logic.unknown(width)
    position = width - 1
    for _, element in expr.elements:
        if position < 0:
            break
        bit = _eval(element, ctx, elab).resize(1)
        result = result.set_slice(position, position, bit)
        position -= 1
    if expr.others is not None and position >= 0:
        fill = _eval(expr.others, ctx, elab).resize(1)
        for index in range(position, -1, -1):
            result = result.set_slice(index, index, fill)
    return result


def _resolve_name(name: str, ctx: _EvalCtx) -> Logic | Signal | None:
    if name in ctx.loop_vars:
        return ctx.loop_vars[name]
    if name in ctx.variables:
        return ctx.variables[name]
    if name in ctx.scope.constants:
        return ctx.scope.constants[name]
    if name in ctx.scope.signals:
        return ctx.scope.signals[name]
    if name == "true":
        return Logic(1, 1)
    if name == "false":
        return Logic(1, 0)
    return None


def _name_type(name: str, ctx: _EvalCtx) -> _TypeInfo | None:
    if name in ctx.var_types:
        return ctx.var_types[name]
    return ctx.scope.types.get(name)


def _eval(expr, ctx: _EvalCtx, elab: VhdlElaborator) -> Logic:
    if isinstance(expr, ast.IntLiteral):
        return Logic.from_int(expr.value, 32)
    if isinstance(expr, ast.CharLiteral):
        known = _STD_LOGIC_CHARS.get(expr.value.upper())
        return known if known is not None else Logic.unknown(1)
    if isinstance(expr, ast.StringLiteral):
        return _string_to_logic(expr)
    if isinstance(expr, ast.Aggregate):
        elab._error(expr.span, "aggregate used without a width context")
        raise _ElabAbort
    if isinstance(expr, ast.Name):
        resolved = _resolve_name(expr.name, ctx)
        if resolved is None:
            elab._error(expr.span, f"'{expr.name}' is not declared")
            raise _ElabAbort
        return resolved.value if isinstance(resolved, Signal) else resolved
    if isinstance(expr, ast.Indexed):
        resolved = _resolve_name(expr.name, ctx)
        if resolved is None:
            elab._error(expr.span, f"'{expr.name}' is not declared")
            raise _ElabAbort
        vector = resolved.value if isinstance(resolved, Signal) else resolved
        info = _name_type(expr.name, ctx) or _TypeInfo(width=vector.width)
        index_value = _eval(expr.index, ctx, elab)
        if index_value.has_x:
            return Logic.unknown(1)
        return vector.bit(info.bit_offset(index_value.to_int()))
    if isinstance(expr, ast.Sliced):
        resolved = _resolve_name(expr.name, ctx)
        if resolved is None:
            elab._error(expr.span, f"'{expr.name}' is not declared")
            raise _ElabAbort
        vector = resolved.value if isinstance(resolved, Signal) else resolved
        info = _name_type(expr.name, ctx) or _TypeInfo(width=vector.width)
        left_value = _eval(expr.left, ctx, elab)
        right_value = _eval(expr.right, ctx, elab)
        if left_value.has_x or right_value.has_x:
            return Logic.unknown(1)
        msb, lsb = info.slice_offsets(left_value.to_int(), right_value.to_int())
        if msb - lsb + 1 > VhdlElaborator.MAX_SIGNAL_WIDTH:
            message = f"slice width {msb - lsb + 1} exceeds the supported maximum"
            elab._error(expr.span, message)
            raise _ElabAbort(message)
        return vector.slice(msb, lsb)
    if isinstance(expr, ast.Call):
        return _eval_call(expr, ctx, elab)
    if isinstance(expr, ast.Attribute):
        return _eval_attribute(expr, ctx, elab)
    if isinstance(expr, ast.Unary):
        operand = _eval(expr.operand, ctx, elab)
        if expr.op == "not":
            return ~operand
        if expr.op == "-":
            return operand.neg()
        if expr.op == "+":
            return operand
        if expr.op == "abs":
            if operand.has_x:
                return Logic.unknown(operand.width)
            signed = operand.to_signed()
            return Logic.from_int(abs(signed), operand.width)
        elab._error(expr.span, f"unsupported unary operator '{expr.op}'")
        raise _ElabAbort
    if isinstance(expr, ast.Binary):
        return _eval_binary(expr, ctx, elab)
    elab._error(expr.span, f"cannot evaluate {type(expr).__name__}")
    raise _ElabAbort


def _string_to_logic(expr: ast.StringLiteral) -> Logic:
    text = expr.value.replace("_", "")
    if expr.base in ("", "b"):
        if not text:
            return Logic.unknown(1)
        return Logic.from_string(text)
    bits_per = {"x": 4, "o": 3}[expr.base]
    bits = 0
    xmask = 0
    for char in text:
        bits <<= bits_per
        xmask <<= bits_per
        if char in "-xXuUzZwW":
            xmask |= (1 << bits_per) - 1
        else:
            bits |= int(char, 16 if expr.base == "x" else 8)
    return Logic(max(1, bits_per * len(text)), bits, xmask)


def _eval_binary(expr: ast.Binary, ctx: _EvalCtx, elab: VhdlElaborator) -> Logic:
    op = expr.op
    lhs = _eval_with_width(expr.lhs, ctx, elab, _operand_width(expr.rhs, ctx))
    rhs = _eval_with_width(expr.rhs, ctx, elab, lhs.width)
    if op == "and":
        return lhs & rhs
    if op == "or":
        return lhs | rhs
    if op == "xor":
        return lhs ^ rhs
    if op == "nand":
        return ~(lhs & rhs)
    if op == "nor":
        return ~(lhs | rhs)
    if op == "xnor":
        return ~(lhs ^ rhs)
    if op == "=":
        return lhs.eq(rhs)
    if op == "/=":
        return lhs.ne(rhs)
    if op == "<":
        return lhs.lt(rhs)
    if op == "<=":
        return lhs.le(rhs)
    if op == ">":
        return lhs.gt(rhs)
    if op == ">=":
        return lhs.ge(rhs)
    if op == "+":
        return lhs.add(rhs)
    if op == "-":
        return lhs.sub(rhs)
    if op == "*":
        # numeric_std: the product is lhs'length + rhs'length wide
        if lhs.has_x or rhs.has_x:
            return Logic.unknown(lhs.width + rhs.width)
        return Logic.from_int(lhs.to_int() * rhs.to_int(), lhs.width + rhs.width)
    if op == "/":
        return lhs.div(rhs)
    if op == "mod" or op == "rem":
        return lhs.mod(rhs)
    if op == "&":
        return lhs.concat(rhs)
    if op == "**":
        if lhs.has_x or rhs.has_x:
            return Logic.unknown(32)
        return Logic.from_int(lhs.to_int() ** min(rhs.to_int(), 64), 32)
    elab._error(expr.span, f"unsupported operator '{op}'")
    raise _ElabAbort


def _operand_width(expr, ctx: _EvalCtx) -> int:
    """Best-effort width of the *other* operand, for aggregate operands."""
    if isinstance(expr, ast.Name):
        info = _name_type(expr.name, ctx)
        if info is not None:
            return info.width
    if isinstance(expr, ast.StringLiteral) and expr.base in ("", "b"):
        return max(1, len(expr.value.replace("_", "")))
    return 32


def _eval_call(expr: ast.Call, ctx: _EvalCtx, elab: VhdlElaborator) -> Logic:
    name = expr.name
    if name in ("rising_edge", "falling_edge"):
        if len(expr.args) != 1 or not isinstance(expr.args[0], ast.Name):
            elab._error(expr.span, f"{name} expects a signal name")
            raise _ElabAbort
        signal = ctx.scope.signals.get(expr.args[0].name)
        if signal is None:
            elab._error(expr.span, f"{name} argument must be a signal")
            raise _ElabAbort
        prev = ctx.edge_mem.get(signal, signal.value)
        prev_char = prev.bit_char(0)
        cur_char = signal.value.bit_char(0)
        if name == "rising_edge":
            fired = prev_char != "1" and cur_char == "1"
        else:
            fired = prev_char != "0" and cur_char == "0"
        return Logic(1, 1 if fired else 0)
    args = [_eval(a, ctx, elab) for a in expr.args]
    if name in ("to_unsigned", "to_signed", "conv_std_logic_vector", "resize"):
        if len(args) != 2:
            elab._error(expr.span, f"{name} expects (value, length)")
            raise _ElabAbort
        length = _to_int(args[1], expr.span, elab)
        if not 1 <= length <= VhdlElaborator.MAX_SIGNAL_WIDTH:
            elab._error(
                expr.span,
                f"{name} length {length} is out of the supported range",
            )
            raise _ElabAbort(f"{name} length {length} out of range")
        return args[0].resize(length)
    if name in ("to_integer", "conv_integer"):
        return args[0].resize(32)
    if name in ("std_logic_vector", "unsigned", "signed", "to_stdlogicvector",
                "to_01"):
        return args[0]
    if name in ("shift_left", "shift_right", "rotate_left", "rotate_right"):
        if len(args) != 2:
            elab._error(expr.span, f"{name} expects (value, count)")
            raise _ElabAbort
        value, count = args
        if count.has_x:
            return Logic.unknown(value.width)
        amount = count.to_int() % max(value.width, 1)
        if name == "shift_left":
            return value.shl(count)
        if name == "shift_right":
            return value.shr(count)
        if name == "rotate_left":
            if amount == 0:
                return value
            return value.slice(value.width - 1 - amount, 0).concat(
                value.slice(value.width - 1, value.width - amount)
            )
        if amount == 0:
            return value
        return value.slice(amount - 1, 0).concat(value.slice(value.width - 1, amount))
    if name == "std_match":
        if len(args) != 2:
            elab._error(expr.span, "std_match expects two vectors")
            raise _ElabAbort
        a, b = args
        width = max(a.width, b.width)
        a, b = a.resize(width), b.resize(width)
        considered = ((1 << width) - 1) & ~(a.xmask | b.xmask)
        return Logic(1, 1 if ((a.bits ^ b.bits) & considered) == 0 else 0)
    elab._error(expr.span, f"unsupported function '{name}'")
    raise _ElabAbort


def _eval_attribute(expr: ast.Attribute, ctx: _EvalCtx, elab: VhdlElaborator) -> Logic:
    info = _name_type(expr.name, ctx)
    if expr.attr == "event":
        signal = ctx.scope.signals.get(expr.name)
        if signal is None:
            elab._error(expr.span, "'event requires a signal")
            raise _ElabAbort
        prev = ctx.edge_mem.get(signal, signal.value)
        return Logic(1, 0 if prev == signal.value else 1)
    if expr.attr == "last_value":
        signal = ctx.scope.signals.get(expr.name)
        if signal is None:
            elab._error(expr.span, "'last_value requires a signal")
            raise _ElabAbort
        return ctx.edge_mem.get(signal, signal.value)
    if info is None:
        elab._error(expr.span, f"'{expr.name}' has no known type")
        raise _ElabAbort
    if expr.attr == "length":
        return Logic.from_int(info.width, 32)
    if expr.attr == "left":
        return Logic.from_int(info.left, 32)
    if expr.attr == "right":
        return Logic.from_int(info.right, 32)
    if expr.attr == "high":
        return Logic.from_int(max(info.left, info.right), 32)
    if expr.attr == "low":
        return Logic.from_int(min(info.left, info.right), 32)
    elab._error(expr.span, f"unsupported attribute '{expr.attr}'")
    raise _ElabAbort


def _eval_text(expr, ctx: _EvalCtx, elab: VhdlElaborator) -> str:
    """Evaluate an expression in *message* context (report strings)."""
    if isinstance(expr, ast.StringLiteral) and expr.base == "":
        return expr.value
    if isinstance(expr, ast.Binary) and expr.op == "&":
        return _eval_text(expr.lhs, ctx, elab) + _eval_text(expr.rhs, ctx, elab)
    value = _eval(expr, ctx, elab)
    if value.has_x:
        return value.to_bit_string()
    if value.width > 8:
        return str(value.to_int())
    return value.to_bit_string()


# --------------------------------------------------------------------------
# read sets & edge watching
# --------------------------------------------------------------------------


def _collect_reads(expr, scope: _VScope, out: set[Signal]) -> None:
    if expr is None or isinstance(
        expr, (ast.IntLiteral, ast.CharLiteral, ast.StringLiteral)
    ):
        return
    if isinstance(expr, ast.Name):
        signal = scope.signals.get(expr.name)
        if signal is not None:
            out.add(signal)
    elif isinstance(expr, ast.Indexed):
        signal = scope.signals.get(expr.name)
        if signal is not None:
            out.add(signal)
        _collect_reads(expr.index, scope, out)
    elif isinstance(expr, ast.Sliced):
        signal = scope.signals.get(expr.name)
        if signal is not None:
            out.add(signal)
        _collect_reads(expr.left, scope, out)
        _collect_reads(expr.right, scope, out)
    elif isinstance(expr, ast.Call):
        for arg in expr.args:
            _collect_reads(arg, scope, out)
    elif isinstance(expr, ast.Attribute):
        signal = scope.signals.get(expr.name)
        if signal is not None:
            out.add(signal)
    elif isinstance(expr, ast.Unary):
        _collect_reads(expr.operand, scope, out)
    elif isinstance(expr, ast.Binary):
        _collect_reads(expr.lhs, scope, out)
        _collect_reads(expr.rhs, scope, out)
    elif isinstance(expr, ast.Aggregate):
        if expr.others is not None:
            _collect_reads(expr.others, scope, out)
        for _, element in expr.elements:
            _collect_reads(element, scope, out)


def _collect_reads_seq(statement, scope: _VScope, out: set[Signal]) -> None:
    if isinstance(statement, (ast.SignalAssign, ast.VariableAssign)):
        _collect_reads(statement.value, scope, out)
        if isinstance(statement.target, ast.Indexed):
            _collect_reads(statement.target.index, scope, out)
    elif isinstance(statement, ast.IfStatement):
        for condition, body in statement.arms:
            _collect_reads(condition, scope, out)
            for inner in body:
                _collect_reads_seq(inner, scope, out)
        for inner in statement.else_body:
            _collect_reads_seq(inner, scope, out)
    elif isinstance(statement, ast.CaseStatement):
        _collect_reads(statement.subject, scope, out)
        for alternative in statement.alternatives:
            for inner in alternative.body:
                _collect_reads_seq(inner, scope, out)
    elif isinstance(statement, (ast.ForLoop, ast.WhileLoop)):
        if isinstance(statement, ast.WhileLoop):
            _collect_reads(statement.condition, scope, out)
        for inner in statement.body:
            _collect_reads_seq(inner, scope, out)
    elif isinstance(statement, ast.AssertStatement):
        _collect_reads(statement.condition, scope, out)


def _seq_written_signals(body: tuple, scope: _VScope) -> set[Signal]:
    """Signals assigned anywhere in a sequential body (over-approximate).

    Used as the levelized tier's sole-driver fence: a process variable
    shadowing a signal name still counts the signal, which only shrinks
    cone coverage, never correctness.
    """
    writes: set[Signal] = set()

    def note(target) -> None:
        if isinstance(target, (ast.Name, ast.Indexed, ast.Sliced)):
            signal = scope.signals.get(target.name)
            if signal is not None:
                writes.add(signal)

    def walk(statements: tuple) -> None:
        for statement in statements:
            if isinstance(statement, ast.SignalAssign):
                note(statement.target)
            elif isinstance(statement, ast.IfStatement):
                for _condition, arm_body in statement.arms:
                    walk(arm_body)
                walk(statement.else_body)
            elif isinstance(statement, ast.CaseStatement):
                for alternative in statement.alternatives:
                    walk(alternative.body)
            elif isinstance(statement, (ast.ForLoop, ast.WhileLoop)):
                walk(statement.body)

    walk(body)
    return writes


def _edge_watched_signals(body: tuple, scope: _VScope) -> set[Signal]:
    """Signals referenced by rising_edge/falling_edge/'event in a process."""
    watched: set[Signal] = set()

    def walk_expr(expr) -> None:
        if isinstance(expr, ast.Call) and expr.name in (
            "rising_edge", "falling_edge"
        ):
            for arg in expr.args:
                if isinstance(arg, ast.Name):
                    signal = scope.signals.get(arg.name)
                    if signal is not None:
                        watched.add(signal)
        elif isinstance(expr, ast.Attribute) and expr.attr in ("event", "last_value"):
            signal = scope.signals.get(expr.name)
            if signal is not None:
                watched.add(signal)
        elif isinstance(expr, ast.Unary):
            walk_expr(expr.operand)
        elif isinstance(expr, ast.Binary):
            walk_expr(expr.lhs)
            walk_expr(expr.rhs)
        elif isinstance(expr, ast.Call):
            for arg in expr.args:
                walk_expr(arg)

    def walk(statement) -> None:
        if isinstance(statement, ast.IfStatement):
            for condition, arm_body in statement.arms:
                walk_expr(condition)
                for inner in arm_body:
                    walk(inner)
            for inner in statement.else_body:
                walk(inner)
        elif isinstance(statement, ast.CaseStatement):
            for alternative in statement.alternatives:
                for inner in alternative.body:
                    walk(inner)
        elif isinstance(statement, (ast.ForLoop, ast.WhileLoop)):
            if isinstance(statement, ast.WhileLoop):
                walk_expr(statement.condition)
            for inner in statement.body:
                walk(inner)
        elif isinstance(statement, ast.WaitStatement):
            if statement.until is not None:
                walk_expr(statement.until)
        elif isinstance(statement, (ast.SignalAssign, ast.VariableAssign)):
            walk_expr(statement.value)
        elif isinstance(statement, ast.AssertStatement):
            walk_expr(statement.condition)

    for statement in body:
        walk(statement)
    return watched


def _body_has_wait(body: tuple) -> bool:
    from repro.vhdl.analyzer import _contains_wait

    return _contains_wait(body)


def elaborate_vhdl(
    design_file: ast.DesignFile,
    top: str,
    source: SourceFile,
    collector: DiagnosticCollector | None = None,
    extra_entities: dict[str, ast.Entity] | None = None,
    extra_architectures: dict[str, ast.Architecture] | None = None,
) -> tuple[Design | None, DiagnosticCollector]:
    """Elaborate *top* from a design file; returns (design, diagnostics)."""
    collector = collector if collector is not None else DiagnosticCollector()
    entities = dict(extra_entities or {})
    architectures = dict(extra_architectures or {})
    for entity in design_file.entities:
        entities[entity.name] = entity
    for arch in design_file.architectures:
        architectures[arch.entity] = arch
    elaborator = VhdlElaborator(entities, architectures, source, collector)
    design = elaborator.elaborate(top)
    return design, collector
