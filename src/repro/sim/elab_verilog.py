"""Elaboration: Verilog AST → simulation-ready :class:`~repro.sim.runtime.Design`.

The elaborator instantiates the module hierarchy (flattening instance names
with a ``dot`` separator), sizes every signal from its declared range under
the active parameter environment, and compiles procedural code into generator
based interpreter processes for the shared kernel:

* ``assign`` → a process that re-evaluates on any change of its read set;
* ``always @(...)`` → wait-then-execute loop (``@(*)`` runs once at time 0 so
  purely constant logic still settles);
* ``initial`` → run-once process;
* instantiations → child design merged in, with port-connection processes.

Elaboration-time problems (bad widths, non-constant bounds, unsupported
targets) are emitted as diagnostics, never exceptions: the toolchain reports
them in the compile log like any other error.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.hdl.diagnostics import DiagnosticCollector
from repro.hdl.source import SourceFile
from repro.sim.kernel import Delay, Finish, Simulator, WaitChange
from repro.sim.runtime import Design, Edge, Process, Sensitivity, Signal
from repro.sim.values import Logic
from repro.verilog import ast

_CODE_ELAB = "VRFC 10-3370"

#: hierarchy separator in flattened signal names
SEP = "."


from repro.sim.kernel import SimulationError


class _ElabAbort(SimulationError):
    """Elaboration/evaluation of the current item failed (diagnostic emitted).

    Subclasses :class:`SimulationError` so aborts raised while *executing*
    defective generated code terminate the simulation with a reportable
    error instead of crashing the kernel.
    """


@dataclass
class _Scope:
    """One elaborated module instance: its signals and parameter bindings."""

    module: ast.Module
    prefix: str
    signals: dict[str, Signal] = field(default_factory=dict)
    params: dict[str, Logic] = field(default_factory=dict)

    def resolve(self, name: str) -> Signal | Logic | None:
        if name in self.params:
            return self.params[name]
        return self.signals.get(name)


class _Lcg:
    """Deterministic 32-bit LCG backing ``$random`` (reproducible runs)."""

    def __init__(self, seed: int = 0xACE1):
        self.state = seed & 0xFFFFFFFF

    def next(self) -> int:
        self.state = (self.state * 1664525 + 1013904223) & 0xFFFFFFFF
        return self.state


class VerilogElaborator:
    """Builds a :class:`Design` for one top module of an analyzed unit."""

    MAX_DEPTH = 64
    LOOP_LIMIT = 1_000_000

    def __init__(
        self,
        modules: dict[str, ast.Module],
        source: SourceFile,
        collector: DiagnosticCollector,
    ):
        self.modules = modules
        self.source = source
        self.collector = collector
        self.design = Design()
        self.rng = _Lcg()
        self._instance_stack: list[str] = []
        #: cone-eligible processes nominated for the levelized tier, plus the
        #: signals written by everything else (the sole-driver fence)
        self._cone_members: list = []
        self._external_writes: set[Signal] = set()

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def elaborate(self, top: str) -> Design | None:
        module = self.modules.get(top)
        if module is None:
            self.collector.error(
                _CODE_ELAB, f"top module '{top}' not found", source=self.source
            )
            return None
        self.design.name = top
        try:
            self._elaborate_module(module, prefix="", param_overrides={})
        except _ElabAbort:
            return None
        if self.collector.has_errors:
            return None
        self._install_cones()
        return self.design

    # ------------------------------------------------------------------
    # module instantiation
    # ------------------------------------------------------------------

    def _elaborate_module(
        self,
        module: ast.Module,
        prefix: str,
        param_overrides: dict[str, Logic],
    ) -> _Scope:
        if len(self._instance_stack) >= self.MAX_DEPTH:
            self._error(module.span, "instantiation depth limit exceeded (recursion?)")
            raise _ElabAbort
        self._instance_stack.append(module.name)
        try:
            scope = _Scope(module=module, prefix=prefix)
            self._bind_parameters(scope, param_overrides)
            self._declare_signals(scope)
            for item in module.items:
                self._elaborate_item(item, scope)
            return scope
        finally:
            self._instance_stack.pop()

    def _bind_parameters(self, scope: _Scope, overrides: dict[str, Logic]) -> None:
        for item in scope.module.items:
            if isinstance(item, ast.ParamDecl):
                if not item.local and item.name in overrides:
                    scope.params[item.name] = overrides[item.name]
                else:
                    scope.params[item.name] = self._const_eval(item.value, scope)
        unknown = set(overrides) - set(scope.params)
        for name in unknown:
            self._error(
                scope.module.span,
                f"module '{scope.module.name}' has no parameter '{name}'",
            )

    def _declare_signals(self, scope: _Scope) -> None:
        declared: dict[str, ast.Node] = {}

        def add(name: str, width: int, node: ast.Node, init: Logic | None = None):
            if name in declared:
                return  # duplicate reported by the analyzer
            declared[name] = node
            signal = Signal(scope.prefix + name, width, init)
            self.design.add_signal(signal)
            scope.signals[name] = signal

        # body declarations first: non-ANSI port ranges/reg-ness live there
        body_ports = {
            item.name: item
            for item in scope.module.items
            if isinstance(item, ast.PortDecl)
        }
        for port in scope.module.ports:
            decl = body_ports.get(port.name, port)
            dims = decl.dims if decl.dims is not None else port.dims
            add(port.name, self._range_width(dims, scope), decl)
        for item in scope.module.items:
            if isinstance(item, ast.NetDecl):
                width = 32 if item.kind == "integer" else self._range_width(
                    item.dims, scope
                )
                init = None
                if item.init is not None and item.kind in ("reg", "integer"):
                    init = self._const_eval(item.init, scope)
                add(item.name, width, item, init)

    #: sanity cap on declared vector widths; beyond this it is certainly a
    #: defect (and unguarded it lets broken code exhaust host memory)
    MAX_SIGNAL_WIDTH = 1 << 16

    def _range_width(self, dims: ast.Range | None, scope: _Scope) -> int:
        if dims is None:
            return 1
        msb = self._const_eval(dims.msb, scope)
        lsb = self._const_eval(dims.lsb, scope)
        try:
            width = msb.to_int() - lsb.to_int() + 1
        except ValueError:
            self._error(dims.span, "range bounds contain unknown bits")
            raise _ElabAbort
        if width <= 0:
            self._error(
                dims.span,
                f"descending range required: [{msb.to_int()}:{lsb.to_int()}]",
            )
            raise _ElabAbort
        if width > self.MAX_SIGNAL_WIDTH:
            self._error(
                dims.span,
                f"vector width {width} exceeds the supported maximum "
                f"({self.MAX_SIGNAL_WIDTH})",
            )
            raise _ElabAbort
        return width

    def _const_eval(self, expr: ast.Expression, scope: _Scope) -> Logic:
        """Evaluate a constant expression (parameters and literals only)."""
        value = _eval(expr, scope, None, self)
        return value

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

    def _note_external_lvalue(self, target: ast.LValue, scope: _Scope) -> None:
        """Record an lvalue written outside the cone tier (sole-driver fence)."""
        if isinstance(target, ast.Concat):
            for part in target.parts:
                self._note_external_lvalue(part, scope)
            return
        name = target.name if isinstance(target, ast.Identifier) else target.target
        resolved = scope.resolve(name)
        if isinstance(resolved, Signal):
            self._external_writes.add(resolved)

    # ------------------------------------------------------------------
    # items
    # ------------------------------------------------------------------

    def _elaborate_item(self, item: ast.ModuleItem, scope: _Scope) -> None:
        if isinstance(item, (ast.PortDecl, ast.ParamDecl)):
            return
        if isinstance(item, ast.NetDecl):
            if item.init is not None and item.kind == "wire":
                target = ast.Identifier(span=item.span, name=item.name)
                self._continuous_assign(target, item.init, scope)
            return
        if isinstance(item, ast.ContinuousAssign):
            self._continuous_assign(item.target, item.value, scope)
        elif isinstance(item, ast.AlwaysBlock):
            self._always_block(item, scope)
        elif isinstance(item, ast.InitialBlock):
            from repro.sim.compile import verilog as _cv

            factory = self._compiled(
                lambda: _cv.initial_factory(item.body, scope, self)
            )
            if factory is None:
                factory = lambda sim, body=item.body, sc=scope: _exec(
                    body, sc, sim, self
                )
            self.design.add_process(
                Process(f"{scope.prefix}initial@{_line(self, item)}", factory)
            )
            self._external_writes |= _written_signals(item.body, scope)
        elif isinstance(item, ast.Instantiation):
            self._instantiate(item, scope)
        else:
            self._error(item.span, f"unsupported module item {type(item).__name__}")

    def _continuous_assign(
        self, target: ast.LValue, value: ast.Expression, scope: _Scope
    ) -> None:
        read_signals = self._read_set(value, scope)
        read_signals |= self._lvalue_index_reads(target, scope)

        from repro.sim.compile import verilog as _cv

        factory = self._compiled(
            lambda: _cv.continuous_assign_factory(
                target, value, scope, self, read_signals
            )
        )
        if factory is None:

            def factory(sim, target=target, value=value, scope=scope,
                        reads=read_signals):
                def body():
                    width = _lvalue_width(target, scope, sim, self)
                    while True:
                        result = _eval(value, scope, sim, self, width)
                        _assign(target, result, scope, sim, self, blocking=True)
                        if not reads:
                            return
                        yield WaitChange.on(*reads)

                return body()

        name = f"{scope.prefix}assign@{_line(self, target)}"
        process = Process(name, factory)
        self.design.add_process(process)

        from repro.sim.compile import level as _level

        member = self._compiled(
            lambda: _level.verilog_assign_member(
                process, target, value, scope, self, read_signals
            )
        )
        if member is not None:
            self._cone_members.append(member)
        else:
            self._note_external_lvalue(target, scope)

    def _always_block(self, block: ast.AlwaysBlock, scope: _Scope) -> None:
        sens = block.sensitivity
        name = f"{scope.prefix}always@{_line(self, block)}"
        if sens is None:
            # `always #5 clk = ~clk;` style: the body itself must delay
            if not _contains_delay(block.body):
                self._error(
                    block.span,
                    "always block without sensitivity or delay would loop forever",
                )
                return

            from repro.sim.compile import verilog as _cv

            factory = self._compiled(
                lambda: _cv.free_always_factory(block.body, scope, self)
            )
            if factory is None:

                def factory(sim, body=block.body, sc=scope):
                    def run():
                        while True:
                            yield from _exec(body, sc, sim, self)

                    return run()

            self.design.add_process(Process(name, factory))
            self._external_writes |= _written_signals(block.body, scope)
            return

        if sens.star:
            reads = self._read_set_stmt(block.body, scope)
            entries = tuple(Sensitivity(s, Edge.ANY) for s in sorted(reads, key=lambda s: s.name))
        else:
            entries = []
            for item in sens.items:
                signal = self._sens_signal(item.signal, scope)
                if signal is None:
                    continue
                edge = {"pos": Edge.POS, "neg": Edge.NEG, "any": Edge.ANY}[item.edge]
                entries.append(Sensitivity(signal, edge))
            entries = tuple(entries)
        edge_triggered = any(e.edge is not Edge.ANY for e in entries)

        from repro.sim.compile import verilog as _cv

        factory = self._compiled(
            lambda: _cv.always_factory(
                block.body, scope, self, entries,
                initial_run=sens.star or not edge_triggered,
            )
        )
        if factory is None:

            def factory(sim, body=block.body, sc=scope, entries=entries,
                        star=sens.star, edge_triggered=edge_triggered):
                def run():
                    if star or not edge_triggered:
                        # settle combinational logic at time zero
                        yield from _exec(body, sc, sim, self)
                    while True:
                        if not entries:
                            return
                        yield WaitChange(entries)
                        yield from _exec(body, sc, sim, self)

                return run()

        process = Process(name, factory)
        self.design.add_process(process)

        writes = _written_signals(block.body, scope)
        raw_reads = self._read_set_stmt_raw(block.body, scope)
        member = None
        # cone-eligible only when every read is statically covered: @(*) by
        # construction, explicit lists only if all-ANY and ⊇ the read set
        covered = sens.star or (
            not edge_triggered
            and {e.signal for e in entries} >= (raw_reads - writes)
        )
        if covered and writes:
            from repro.sim.compile import level as _level

            member = self._compiled(
                lambda: _level.verilog_always_member(
                    process, block.body, scope, self, raw_reads, writes
                )
            )
        if member is not None:
            self._cone_members.append(member)
        else:
            self._external_writes |= writes
            if edge_triggered:
                from repro.sim.compile import level as _level

                update = self._compiled(
                    lambda: _level.verilog_sync_update(
                        process, entries, block.body, scope
                    )
                )
                if update is not None:
                    self.design.sync_updates.append(update)

    def _sens_signal(self, expr: ast.Expression, scope: _Scope) -> Signal | None:
        if isinstance(expr, ast.Identifier):
            resolved = scope.resolve(expr.name)
            if isinstance(resolved, Signal):
                return resolved
            self._error(expr.span, f"sensitivity item '{expr.name}' is not a signal")
            return None
        if isinstance(expr, (ast.BitSelect, ast.PartSelect)):
            resolved = scope.resolve(expr.target)
            if isinstance(resolved, Signal):
                return resolved
        self._error(expr.span, "unsupported sensitivity expression")
        return None

    # ------------------------------------------------------------------
    # instantiation
    # ------------------------------------------------------------------

    def _instantiate(self, inst: ast.Instantiation, scope: _Scope) -> None:
        child_module = self.modules.get(inst.module)
        if child_module is None:
            self._error(inst.span, f"unknown module '{inst.module}'")
            return
        overrides = self._parameter_overrides(inst, child_module, scope)
        child_prefix = f"{scope.prefix}{inst.instance}{SEP}"
        child_scope = self._elaborate_module(child_module, child_prefix, overrides)
        connections = self._normalize_connections(inst, child_module)
        port_decls = self._port_decls(child_module)
        for port_name, expr in connections:
            decl = port_decls.get(port_name)
            if decl is None or expr is None:
                continue
            child_signal = child_scope.signals.get(port_name)
            if child_signal is None:
                continue
            if decl.direction == "input":
                self._wire_input(expr, child_signal, scope, inst)
            elif decl.direction == "output":
                self._wire_output(expr, child_signal, scope, inst)
            else:
                self._error(inst.span, f"inout port '{port_name}' is not supported")

    def _port_decls(self, module: ast.Module) -> dict[str, ast.PortDecl]:
        decls = {p.name: p for p in module.ports}
        for item in module.items:
            if isinstance(item, ast.PortDecl):
                decls[item.name] = item
        return decls

    def _parameter_overrides(
        self, inst: ast.Instantiation, child: ast.Module, scope: _Scope
    ) -> dict[str, Logic]:
        public = [
            i.name for i in child.items if isinstance(i, ast.ParamDecl) and not i.local
        ]
        overrides: dict[str, Logic] = {}
        for name, expr in inst.parameters:
            value = self._const_eval(expr, scope)
            if name.startswith("#"):
                index = int(name[1:])
                if index < len(public):
                    overrides[public[index]] = value
                else:
                    self._error(
                        inst.span,
                        f"too many positional parameters for '{inst.module}'",
                    )
            else:
                overrides[name] = value
        return overrides

    def _normalize_connections(
        self, inst: ast.Instantiation, child: ast.Module
    ) -> list[tuple[str, ast.Expression | None]]:
        port_names = child.port_names()
        result: list[tuple[str, ast.Expression | None]] = []
        positional = [c for c in inst.connections if c.port is None]
        if positional:
            for index, conn in enumerate(inst.connections):
                if index >= len(port_names):
                    break
                result.append((port_names[index], conn.expr))
        else:
            for conn in inst.connections:
                if conn.port in port_names:
                    result.append((conn.port, conn.expr))
        return result

    def _wire_input(
        self,
        expr: ast.Expression,
        child_signal: Signal,
        scope: _Scope,
        inst: ast.Instantiation,
    ) -> None:
        reads = self._read_set(expr, scope)

        from repro.sim.compile import verilog as _cv

        factory = self._compiled(
            lambda: _cv.wire_input_factory(expr, child_signal, scope, self, reads)
        )
        if factory is None:

            def factory(sim, expr=expr, scope=scope, child=child_signal,
                        reads=reads):
                def body():
                    while True:
                        sim.write_signal(
                            child, _eval(expr, scope, sim, self, child.width)
                        )
                        if not reads:
                            return
                        yield WaitChange.on(*reads)

                return body()

        process = Process(
            f"{scope.prefix}{inst.instance}.in.{child_signal.name}", factory
        )
        self.design.add_process(process)

        from repro.sim.compile import level as _level

        member = self._compiled(
            lambda: _level.verilog_wire_input_member(
                process, expr, child_signal, scope, self, reads
            )
        )
        if member is not None:
            self._cone_members.append(member)
        else:
            self._external_writes.add(child_signal)

    def _wire_output(
        self,
        expr: ast.Expression,
        child_signal: Signal,
        scope: _Scope,
        inst: ast.Instantiation,
    ) -> None:
        if not isinstance(
            expr, (ast.Identifier, ast.BitSelect, ast.PartSelect, ast.Concat)
        ):
            self._error(
                inst.span,
                f"output port connection on instance '{inst.instance}' "
                "must be a net lvalue",
            )
            return

        from repro.sim.compile import verilog as _cv

        factory = self._compiled(
            lambda: _cv.wire_output_factory(expr, child_signal, scope, self)
        )
        if factory is None:

            def factory(sim, target=expr, scope=scope, child=child_signal):
                def body():
                    while True:
                        _assign(target, child.value, scope, sim, self, blocking=True)
                        yield WaitChange.on(child)

                return body()

        process = Process(
            f"{scope.prefix}{inst.instance}.out.{child_signal.name}", factory
        )
        self.design.add_process(process)

        from repro.sim.compile import level as _level

        member = self._compiled(
            lambda: _level.verilog_wire_output_member(
                process, expr, child_signal, scope, self
            )
        )
        if member is not None:
            self._cone_members.append(member)
        else:
            self._note_external_lvalue(expr, scope)

    # ------------------------------------------------------------------
    # read sets
    # ------------------------------------------------------------------

    def _read_set(self, expr: ast.Expression, scope: _Scope) -> set[Signal]:
        reads: set[Signal] = set()
        self._collect_reads(expr, scope, reads)
        return reads

    def _collect_reads(
        self, expr: ast.Expression, scope: _Scope, out: set[Signal]
    ) -> None:
        if isinstance(expr, ast.Identifier):
            resolved = scope.resolve(expr.name)
            if isinstance(resolved, Signal):
                out.add(resolved)
        elif isinstance(expr, ast.Unary):
            self._collect_reads(expr.operand, scope, out)
        elif isinstance(expr, ast.Binary):
            self._collect_reads(expr.lhs, scope, out)
            self._collect_reads(expr.rhs, scope, out)
        elif isinstance(expr, ast.Ternary):
            self._collect_reads(expr.cond, scope, out)
            self._collect_reads(expr.if_true, scope, out)
            self._collect_reads(expr.if_false, scope, out)
        elif isinstance(expr, ast.Concat):
            for part in expr.parts:
                self._collect_reads(part, scope, out)
        elif isinstance(expr, ast.Replicate):
            self._collect_reads(expr.count, scope, out)
            self._collect_reads(expr.value, scope, out)
        elif isinstance(expr, (ast.BitSelect, ast.PartSelect, ast.IndexedPartSelect)):
            resolved = scope.resolve(expr.target)
            if isinstance(resolved, Signal):
                out.add(resolved)
            if isinstance(expr, ast.BitSelect):
                self._collect_reads(expr.index, scope, out)
            elif isinstance(expr, ast.PartSelect):
                self._collect_reads(expr.msb, scope, out)
                self._collect_reads(expr.lsb, scope, out)
            else:
                self._collect_reads(expr.base, scope, out)
                self._collect_reads(expr.width, scope, out)
        elif isinstance(expr, ast.SystemFunctionCall):
            for arg in expr.args:
                self._collect_reads(arg, scope, out)

    def _lvalue_index_reads(self, lvalue: ast.LValue, scope: _Scope) -> set[Signal]:
        reads: set[Signal] = set()
        if isinstance(lvalue, ast.BitSelect):
            self._collect_reads(lvalue.index, scope, reads)
        elif isinstance(lvalue, ast.IndexedPartSelect):
            self._collect_reads(lvalue.base, scope, reads)
        elif isinstance(lvalue, ast.Concat):
            for part in lvalue.parts:
                reads |= self._lvalue_index_reads(part, scope)
        return reads

    def _read_set_stmt(self, stmt: ast.Statement, scope: _Scope) -> set[Signal]:
        """All signals read anywhere in a statement — the @(*) sensitivity."""
        # loop induction variables written inside the block are not real
        # sensitivity sources; removing them avoids self-triggering loops.
        return self._read_set_stmt_raw(stmt, scope) - _written_signals(stmt, scope)

    def _read_set_stmt_raw(self, stmt: ast.Statement, scope: _Scope) -> set[Signal]:
        """All signals read anywhere in a statement, written ones included."""
        reads: set[Signal] = set()

        def walk(node: ast.Statement) -> None:
            if isinstance(node, ast.Block):
                for inner in node.statements:
                    walk(inner)
            elif isinstance(node, ast.If):
                self._collect_reads(node.condition, scope, reads)
                walk(node.then_branch)
                if node.else_branch is not None:
                    walk(node.else_branch)
            elif isinstance(node, ast.Case):
                self._collect_reads(node.subject, scope, reads)
                for item in node.items:
                    for label in item.labels:
                        self._collect_reads(label, scope, reads)
                    walk(item.body)
            elif isinstance(node, ast.Assign):
                self._collect_reads(node.value, scope, reads)
                reads.update(self._lvalue_index_reads(node.target, scope))
            elif isinstance(node, ast.For):
                walk(node.init)
                self._collect_reads(node.condition, scope, reads)
                walk(node.step)
                walk(node.body)
            elif isinstance(node, (ast.Repeat, ast.While)):
                cond = node.count if isinstance(node, ast.Repeat) else node.condition
                self._collect_reads(cond, scope, reads)
                walk(node.body)
            elif isinstance(node, ast.Forever):
                walk(node.body)
            elif isinstance(node, (ast.DelayControl, ast.EventControl)):
                if node.statement is not None:
                    walk(node.statement)
            elif isinstance(node, ast.SystemTaskCall):
                for arg in node.args:
                    self._collect_reads(arg, scope, reads)

        walk(stmt)
        return reads

    # ------------------------------------------------------------------

    def _error(self, span, message: str) -> None:
        self.collector.error(_CODE_ELAB, message, source=self.source, span=span)


# --------------------------------------------------------------------------
# expression evaluation
# --------------------------------------------------------------------------


#: binary operators whose operands take the assignment-context width
_CONTEXT_BINARY = frozenset({"+", "-", "*", "/", "%", "&", "|", "^"})
#: unary operators whose operand takes the assignment-context width
_CONTEXT_UNARY = frozenset({"+", "-", "~"})


def _eval(
    expr: ast.Expression,
    scope: _Scope,
    sim: Simulator | None,
    elab: VerilogElaborator,
    ctx_width: int | None = None,
) -> Logic:
    """Evaluate an expression.

    ``ctx_width`` implements IEEE 1364 context-determined sizing: in an
    assignment, arithmetic/bitwise operands are extended to the larger of
    their self-determined width and the target width *before* the operation,
    so carries out of narrow operands are preserved
    (e.g. ``{cout, sum} = a + b + cin``).
    """
    if isinstance(expr, ast.Number):
        return expr.value
    if isinstance(expr, ast.StringLiteral):
        # strings in expression position: pack ASCII (rare; used by $display only)
        data = expr.value.encode("ascii", "replace") or b"\0"
        bits = int.from_bytes(data, "big")
        return Logic.from_int(bits, max(8, 8 * len(data)))
    if isinstance(expr, ast.Identifier):
        resolved = scope.resolve(expr.name)
        if isinstance(resolved, Signal):
            return resolved.value
        if isinstance(resolved, Logic):
            return resolved
        elab._error(expr.span, f"'{expr.name}' is not declared")
        raise _ElabAbort
    if isinstance(expr, ast.Unary):
        inner_ctx = ctx_width if expr.op in _CONTEXT_UNARY else None
        operand = _eval(expr.operand, scope, sim, elab, inner_ctx)
        if inner_ctx is not None and operand.width < inner_ctx:
            operand = operand.resize(inner_ctx)
        return _apply_unary(expr.op, operand)
    if isinstance(expr, ast.Binary):
        if expr.op in _CONTEXT_BINARY:
            lhs = _eval(expr.lhs, scope, sim, elab, ctx_width)
            rhs = _eval(expr.rhs, scope, sim, elab, ctx_width)
            width = max(lhs.width, rhs.width, ctx_width or 0)
            return _apply_binary(expr.op, lhs.resize(width), rhs.resize(width))
        if expr.op in ("<<", ">>", "<<<", ">>>"):
            lhs = _eval(expr.lhs, scope, sim, elab, ctx_width)
            if ctx_width is not None and lhs.width < ctx_width:
                lhs = lhs.resize(ctx_width)
            rhs = _eval(expr.rhs, scope, sim, elab)
            return _apply_binary(expr.op, lhs, rhs)
        lhs = _eval(expr.lhs, scope, sim, elab)
        rhs = _eval(expr.rhs, scope, sim, elab)
        return _apply_binary(expr.op, lhs, rhs)
    if isinstance(expr, ast.Ternary):
        cond = _eval(expr.cond, scope, sim, elab)
        if cond.truthy().has_x:
            # IEEE: merge both branches; approximate with all-X of merged width
            a = _eval(expr.if_true, scope, sim, elab, ctx_width)
            b = _eval(expr.if_false, scope, sim, elab, ctx_width)
            return Logic.unknown(max(a.width, b.width))
        if cond.is_true():
            return _eval(expr.if_true, scope, sim, elab, ctx_width)
        return _eval(expr.if_false, scope, sim, elab, ctx_width)
    if isinstance(expr, ast.Concat):
        result: Logic | None = None
        for part in expr.parts:
            value = _eval(part, scope, sim, elab)
            result = value if result is None else result.concat(value)
        assert result is not None
        return result
    if isinstance(expr, ast.Replicate):
        count = _eval(expr.count, scope, sim, elab)
        value = _eval(expr.value, scope, sim, elab)
        try:
            n = count.to_int()
        except ValueError:
            elab._error(expr.span, "replication count has unknown bits")
            raise _ElabAbort
        if n <= 0 or n > 4096:
            message = f"invalid replication count {n}"
            elab._error(expr.span, message)
            raise _ElabAbort(message)
        if n * value.width > VerilogElaborator.MAX_SIGNAL_WIDTH:
            message = (
                f"replication result width {n * value.width} exceeds the "
                "supported maximum"
            )
            elab._error(expr.span, message)
            raise _ElabAbort(message)
        return value.replicate(n)
    if isinstance(expr, ast.BitSelect):
        base = _resolve_vector(expr.target, expr.span, scope, elab)
        index = _eval(expr.index, scope, sim, elab)
        if index.has_x:
            return Logic.unknown(1)
        return base.bit(index.to_int())
    if isinstance(expr, ast.PartSelect):
        base = _resolve_vector(expr.target, expr.span, scope, elab)
        msb = _eval(expr.msb, scope, sim, elab)
        lsb = _eval(expr.lsb, scope, sim, elab)
        if msb.has_x or lsb.has_x:
            return Logic.unknown(1)
        _check_select_width(msb.to_int(), lsb.to_int(), expr.span, elab)
        return base.slice(msb.to_int(), lsb.to_int())
    if isinstance(expr, ast.IndexedPartSelect):
        base_value = _resolve_vector(expr.target, expr.span, scope, elab)
        start = _eval(expr.base, scope, sim, elab)
        width = _eval(expr.width, scope, sim, elab)
        if start.has_x or width.has_x:
            return Logic.unknown(1)
        w = width.to_int()
        lo = start.to_int() if expr.ascending else start.to_int() - w + 1
        return base_value.slice(lo + w - 1, lo)
    if isinstance(expr, ast.SystemFunctionCall):
        return _eval_system_function(expr, scope, sim, elab)
    elab._error(expr.span, f"cannot evaluate {type(expr).__name__}")
    raise _ElabAbort


def _check_select_width(msb: int, lsb: int, span, elab: VerilogElaborator) -> None:
    """Reject part selects whose width would exhaust memory."""
    width = msb - lsb + 1
    if width > VerilogElaborator.MAX_SIGNAL_WIDTH:
        message = (
            f"part-select width {width} exceeds the supported maximum"
        )
        elab._error(span, message)
        raise _ElabAbort(message)


def _resolve_vector(
    name: str, span, scope: _Scope, elab: VerilogElaborator
) -> Logic:
    resolved = scope.resolve(name)
    if isinstance(resolved, Signal):
        return resolved.value
    if isinstance(resolved, Logic):
        return resolved
    elab._error(span, f"'{name}' is not declared")
    raise _ElabAbort


def _eval_system_function(
    expr: ast.SystemFunctionCall,
    scope: _Scope,
    sim: Simulator | None,
    elab: VerilogElaborator,
) -> Logic:
    if expr.name == "$time":
        if sim is None:
            elab._error(expr.span, "$time used in a constant expression")
            raise _ElabAbort
        return Logic.from_int(sim.time, 64)
    if expr.name in ("$signed", "$unsigned"):
        if len(expr.args) != 1:
            elab._error(expr.span, f"{expr.name} takes exactly one argument")
            raise _ElabAbort
        return _eval(expr.args[0], scope, sim, elab)
    if expr.name == "$random":
        return Logic.from_int(elab.rng.next(), 32)
    if expr.name == "$clog2":
        if len(expr.args) != 1:
            elab._error(expr.span, "$clog2 takes exactly one argument")
            raise _ElabAbort
        value = _eval(expr.args[0], scope, sim, elab)
        if value.has_x:
            return Logic.unknown(32)
        n = value.to_int()
        return Logic.from_int(max(0, (n - 1).bit_length()), 32)
    elab._error(expr.span, f"unsupported system function '{expr.name}'")
    raise _ElabAbort


_UNARY_OPS: dict[str, Callable[[Logic], Logic]] = {
    "+": lambda v: v,
    "-": Logic.neg,
    "~": Logic.__invert__,
    "!": Logic.logical_not,
    "&": Logic.reduce_and,
    "|": Logic.reduce_or,
    "^": Logic.reduce_xor,
    "~&": lambda v: v.reduce_and().logical_not(),
    "~|": lambda v: v.reduce_or().logical_not(),
    "~^": lambda v: v.reduce_xor().logical_not(),
}

_BINARY_OPS: dict[str, Callable[[Logic, Logic], Logic]] = {
    "+": Logic.add,
    "-": Logic.sub,
    "*": Logic.mul,
    "/": Logic.div,
    "%": Logic.mod,
    "&": Logic.__and__,
    "|": Logic.__or__,
    "^": Logic.__xor__,
    "==": Logic.eq,
    "!=": Logic.ne,
    "===": Logic.case_eq,
    "!==": lambda a, b: a.case_eq(b).logical_not(),
    "<": Logic.lt,
    "<=": Logic.le,
    ">": Logic.gt,
    ">=": Logic.ge,
    "<<": Logic.shl,
    "<<<": Logic.shl,
    ">>": Logic.shr,
    ">>>": Logic.ashr,
    "&&": Logic.logical_and,
    "||": Logic.logical_or,
}


def _apply_unary(op: str, operand: Logic) -> Logic:
    try:
        return _UNARY_OPS[op](operand)
    except KeyError:
        raise _ElabAbort from None


def _apply_binary(op: str, lhs: Logic, rhs: Logic) -> Logic:
    if op == "**":
        if lhs.has_x or rhs.has_x:
            return Logic.unknown(max(lhs.width, 32))
        return Logic.from_int(lhs.bits ** min(rhs.bits, 64), max(lhs.width, 32))
    try:
        return _BINARY_OPS[op](lhs, rhs)
    except KeyError:
        raise _ElabAbort from None


# --------------------------------------------------------------------------
# statement execution (generator interpreter)
# --------------------------------------------------------------------------


def _exec(
    stmt: ast.Statement,
    scope: _Scope,
    sim: Simulator,
    elab: VerilogElaborator,
):
    """Execute a statement; a generator yielding kernel commands."""
    if isinstance(stmt, ast.Block):
        for inner in stmt.statements:
            yield from _exec(inner, scope, sim, elab)
    elif isinstance(stmt, ast.If):
        condition = _eval(stmt.condition, scope, sim, elab)
        if condition.is_true():
            yield from _exec(stmt.then_branch, scope, sim, elab)
        elif stmt.else_branch is not None:
            yield from _exec(stmt.else_branch, scope, sim, elab)
    elif isinstance(stmt, ast.Case):
        yield from _exec_case(stmt, scope, sim, elab)
    elif isinstance(stmt, ast.Assign):
        width = _lvalue_width(stmt.target, scope, sim, elab)
        value = _eval(stmt.value, scope, sim, elab, width)
        _assign(stmt.target, value, scope, sim, elab, blocking=stmt.blocking)
    elif isinstance(stmt, ast.For):
        yield from _exec(stmt.init, scope, sim, elab)
        iterations = 0
        while _eval(stmt.condition, scope, sim, elab).is_true():
            yield from _exec(stmt.body, scope, sim, elab)
            yield from _exec(stmt.step, scope, sim, elab)
            iterations += 1
            if iterations > VerilogElaborator.LOOP_LIMIT:
                from repro.sim.kernel import SimulationError

                raise SimulationError("for-loop iteration limit exceeded")
    elif isinstance(stmt, ast.Repeat):
        count = _eval(stmt.count, scope, sim, elab)
        times = 0 if count.has_x else count.to_int()
        for _ in range(times):
            yield from _exec(stmt.body, scope, sim, elab)
    elif isinstance(stmt, ast.While):
        iterations = 0
        while _eval(stmt.condition, scope, sim, elab).is_true():
            yield from _exec(stmt.body, scope, sim, elab)
            iterations += 1
            if iterations > VerilogElaborator.LOOP_LIMIT:
                from repro.sim.kernel import SimulationError

                raise SimulationError("while-loop iteration limit exceeded")
    elif isinstance(stmt, ast.Forever):
        while True:
            yield from _exec(stmt.body, scope, sim, elab)
    elif isinstance(stmt, ast.DelayControl):
        delay = _eval(stmt.delay, scope, sim, elab)
        yield Delay(0 if delay.has_x else delay.to_int())
        if stmt.statement is not None:
            yield from _exec(stmt.statement, scope, sim, elab)
    elif isinstance(stmt, ast.EventControl):
        entries = []
        for item in stmt.sensitivity.items:
            signal = elab._sens_signal(item.signal, scope)
            if signal is not None:
                edge = {"pos": Edge.POS, "neg": Edge.NEG, "any": Edge.ANY}[item.edge]
                entries.append(Sensitivity(signal, edge))
        if entries:
            yield WaitChange(tuple(entries))
        if stmt.statement is not None:
            yield from _exec(stmt.statement, scope, sim, elab)
    elif isinstance(stmt, ast.SystemTaskCall):
        yield from _exec_system_task(stmt, scope, sim, elab)
    elif isinstance(stmt, ast.NullStatement):
        pass
    else:
        elab._error(stmt.span, f"cannot execute {type(stmt).__name__}")
        raise _ElabAbort


def _exec_case(stmt: ast.Case, scope: _Scope, sim, elab):
    subject = _eval(stmt.subject, scope, sim, elab)
    default_body = None
    for item in stmt.items:
        if not item.labels:
            default_body = item.body
            continue
        for label_expr in item.labels:
            label = _eval(label_expr, scope, sim, elab)
            if _case_match(stmt.kind, subject, label):
                yield from _exec(item.body, scope, sim, elab)
                return
    if default_body is not None:
        yield from _exec(default_body, scope, sim, elab)


def _case_match(kind: str, subject: Logic, label: Logic) -> bool:
    width = max(subject.width, label.width)
    subject = subject.resize(width)
    label = label.resize(width)
    if kind == "case":
        return subject.case_eq(label).is_true()
    # casez/casex: X/Z bits of the label (and for casex, the subject) are wildcards
    wildcard = label.xmask
    if kind == "casex":
        wildcard |= subject.xmask
    considered = ((1 << width) - 1) & ~wildcard
    if subject.xmask & considered:
        return False
    return ((subject.bits ^ label.bits) & considered) == 0


def _exec_system_task(stmt: ast.SystemTaskCall, scope: _Scope, sim, elab):
    name = stmt.name
    if name in ("$display", "$write", "$monitor", "$strobe", "$error"):
        text = _format_display(stmt, scope, sim, elab)
        if name == "$error":
            text = f"ERROR: {text}"
        sim.display(text)
    elif name == "$fatal":
        sim.display("FATAL: " + _format_display(stmt, scope, sim, elab))
        yield Finish(1)
    elif name in ("$finish", "$stop"):
        yield Finish(0)
    else:
        elab._error(stmt.span, f"unsupported system task '{name}'")
        raise _ElabAbort
    return
    yield  # pragma: no cover - makes this a generator even on non-yield paths


def _format_display(stmt: ast.SystemTaskCall, scope, sim, elab) -> str:
    if not stmt.args:
        return ""
    first = stmt.args[0]
    if isinstance(first, ast.StringLiteral):
        return _format_string(first.value, list(stmt.args[1:]), scope, sim, elab)
    rendered = []
    for arg in stmt.args:
        value = _eval(arg, scope, sim, elab)
        rendered.append(value.format("d") if value.is_fully_known else value.format("b"))
    return " ".join(rendered)


def _format_string(fmt: str, args: list, scope, sim, elab) -> str:
    out: list[str] = []
    i = 0
    arg_index = 0
    fmt = fmt.replace("\\n", "\n").replace("\\t", "\t").replace('\\"', '"')
    while i < len(fmt):
        char = fmt[i]
        if char != "%":
            out.append(char)
            i += 1
            continue
        i += 1
        if i >= len(fmt):
            out.append("%")
            break
        # optional width / zero-pad digits
        width_digits = ""
        while i < len(fmt) and fmt[i].isdigit():
            width_digits += fmt[i]
            i += 1
        spec = fmt[i].lower() if i < len(fmt) else "%"
        i += 1
        if spec == "%":
            out.append("%")
            continue
        if arg_index >= len(args):
            out.append("<missing>")
            continue
        arg = args[arg_index]
        arg_index += 1
        if spec == "s" and isinstance(arg, ast.StringLiteral):
            out.append(arg.value)
            continue
        value = _eval(arg, scope, sim, elab)
        if spec == "t":
            out.append(str(value.to_int() if value.is_fully_known else "x"))
        elif spec in ("b", "d", "h", "o"):
            text = value.format(spec)
            if width_digits and spec == "d":
                text = text.rjust(int(width_digits) or len(text), "0" if width_digits.startswith("0") else " ")
            out.append(text)
        elif spec == "c":
            out.append(chr(value.bits & 0x7F) if value.is_fully_known else "x")
        elif spec == "s":
            out.append(_logic_to_text(value))
        else:
            out.append(f"%{spec}")
    return "".join(out)


def _logic_to_text(value: Logic) -> str:
    if value.has_x:
        return "x"
    data = value.bits.to_bytes(max(1, (value.width + 7) // 8), "big")
    return data.lstrip(b"\0").decode("ascii", "replace")


# --------------------------------------------------------------------------
# assignment
# --------------------------------------------------------------------------


def _assign(
    target: ast.LValue,
    value: Logic,
    scope: _Scope,
    sim: Simulator,
    elab: VerilogElaborator,
    *,
    blocking: bool,
) -> None:
    if isinstance(target, ast.Concat):
        # {a, b} = value — split from the high end
        offset = value.width
        for part in target.parts:
            signal = _target_signal(part, scope, elab)
            width = _lvalue_width(part, scope, sim, elab)
            offset -= width
            lo = max(offset, 0)
            part_value = value.slice(lo + width - 1, lo)
            _assign(part, part_value, scope, sim, elab, blocking=blocking)
        return
    signal = _target_signal(target, scope, elab)
    if isinstance(target, ast.Identifier):
        if blocking:
            sim.write_signal(signal, value.resize(signal.width))
        else:
            sim.schedule_nba(signal, value.resize(signal.width))
        return
    msb, lsb = _select_bounds(target, scope, sim, elab)
    if msb is None or lsb is None:
        return  # X index: assignment has no effect (IEEE)
    if blocking:
        sim.write_signal(signal, signal.value.set_slice(msb, lsb, value))
    else:
        sim.schedule_nba_update(
            signal, lambda old, m=msb, l=lsb, v=value: old.set_slice(m, l, v)
        )


def _target_signal(target: ast.LValue, scope: _Scope, elab: VerilogElaborator) -> Signal:
    name = target.name if isinstance(target, ast.Identifier) else target.target
    resolved = scope.resolve(name)
    if isinstance(resolved, Signal):
        return resolved
    elab._error(target.span, f"cannot assign to '{name}'")
    raise _ElabAbort


def _lvalue_width(target: ast.LValue, scope, sim, elab) -> int:
    if isinstance(target, ast.Concat):
        return sum(_lvalue_width(p, scope, sim, elab) for p in target.parts)
    if isinstance(target, ast.Identifier):
        return _target_signal(target, scope, elab).width
    msb, lsb = _select_bounds(target, scope, sim, elab)
    if msb is None or lsb is None:
        return 1
    return msb - lsb + 1


def _select_bounds(target: ast.LValue, scope, sim, elab) -> tuple[int | None, int | None]:
    if isinstance(target, ast.BitSelect):
        index = _eval(target.index, scope, sim, elab)
        if index.has_x:
            return None, None
        return index.to_int(), index.to_int()
    if isinstance(target, ast.PartSelect):
        msb = _eval(target.msb, scope, sim, elab)
        lsb = _eval(target.lsb, scope, sim, elab)
        if msb.has_x or lsb.has_x:
            return None, None
        _check_select_width(msb.to_int(), lsb.to_int(), target.span, elab)
        return msb.to_int(), lsb.to_int()
    if isinstance(target, ast.IndexedPartSelect):
        base = _eval(target.base, scope, sim, elab)
        width = _eval(target.width, scope, sim, elab)
        if base.has_x or width.has_x:
            return None, None
        w = width.to_int()
        lo = base.to_int() if target.ascending else base.to_int() - w + 1
        return lo + w - 1, lo
    raise TypeError(f"not a select lvalue: {target!r}")


# --------------------------------------------------------------------------
# misc helpers
# --------------------------------------------------------------------------


def _contains_delay(stmt: ast.Statement) -> bool:
    if isinstance(stmt, ast.DelayControl):
        return True
    if isinstance(stmt, ast.EventControl):
        return True
    if isinstance(stmt, ast.Block):
        return any(_contains_delay(s) for s in stmt.statements)
    if isinstance(stmt, ast.If):
        branches = [stmt.then_branch]
        if stmt.else_branch is not None:
            branches.append(stmt.else_branch)
        return any(_contains_delay(b) for b in branches)
    if isinstance(stmt, (ast.For, ast.Repeat, ast.While, ast.Forever)):
        return _contains_delay(stmt.body)
    return False


def _written_signals(stmt: ast.Statement, scope: _Scope) -> set[Signal]:
    writes: set[Signal] = set()

    def target_signal(lvalue: ast.LValue) -> None:
        if isinstance(lvalue, ast.Concat):
            for part in lvalue.parts:
                target_signal(part)
            return
        name = lvalue.name if isinstance(lvalue, ast.Identifier) else lvalue.target
        resolved = scope.resolve(name)
        if isinstance(resolved, Signal):
            writes.add(resolved)

    def walk(node: ast.Statement) -> None:
        if isinstance(node, ast.Block):
            for inner in node.statements:
                walk(inner)
        elif isinstance(node, ast.If):
            walk(node.then_branch)
            if node.else_branch is not None:
                walk(node.else_branch)
        elif isinstance(node, ast.Case):
            for item in node.items:
                walk(item.body)
        elif isinstance(node, ast.Assign):
            target_signal(node.target)
        elif isinstance(node, ast.For):
            walk(node.init)
            walk(node.step)
            walk(node.body)
        elif isinstance(node, (ast.Repeat, ast.While, ast.Forever)):
            walk(node.body)
        elif isinstance(node, (ast.DelayControl, ast.EventControl)):
            if node.statement is not None:
                walk(node.statement)

    walk(stmt)
    return writes


def _line(elab: VerilogElaborator, node) -> int:
    return elab.source.location(node.span.start_offset).line


def elaborate_verilog(
    modules: dict[str, ast.Module],
    top: str,
    source: SourceFile,
    collector: DiagnosticCollector | None = None,
) -> tuple[Design | None, DiagnosticCollector]:
    """Elaborate *top* against a module library; returns (design, diagnostics)."""
    collector = collector if collector is not None else DiagnosticCollector()
    elaborator = VerilogElaborator(modules, source, collector)
    design = elaborator.elaborate(top)
    return design, collector
