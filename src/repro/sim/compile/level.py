"""Levelized combinational cones: the third simulation tier.

The closure tier (PR "compile-at-elaboration") still pays the kernel's
generator dispatch and waiter bookkeeping for every combinational process on
every delta cycle. This module goes one step further at elaboration time:

1. the elaborators nominate *cone members* — processes whose static
   sensitivity covers their full read set and whose bodies are pure,
   idempotent, single-driver writes (continuous assigns, ``@(*)`` blocks,
   port wirings; VHDL concurrent/conditional assigns and port wirings);
2. :func:`install_cones` levelizes them — Kahn topological sort over the
   member dataflow graph, connected components become cones — and emits one
   straight-line Python function per cone, compiled once and shared via a
   source-text cache;
3. each :class:`~repro.sim.runtime.Cone` replaces its member processes in
   the design and is re-queued by the kernel whenever an input signal
   changes: a settled delta cycle becomes one function call instead of N
   generator wake-ups.

Inside a cone body the *two-state fast path* applies when every member has a
masked-int lowering (:mod:`.twostate`): a single aggregated ``xmask`` test
over the cone inputs guards straight-line int arithmetic; the first live X
demotes the cone to its four-state closure body *for that evaluation only*.

Eligibility is decided conservatively — any member that cannot be proven
safe simply keeps its existing :class:`~repro.sim.runtime.Process`, so the
tier can only ever shrink to the closure tier, never change observables:

* **coverage** — the static sensitivity must be a superset of the reads
  (guaranteed by construction for assigns/wirings, checked for ``@(*)``);
* **purity** — no ``$random``/``$time`` (over-evaluation would advance LCG
  state), no ``$display``/system tasks (duplicate output), no delays;
* **sole driver** — a member's targets must not be written by any other
  member or by any non-member process (``external_writes``);
* **idempotence** — a member must not read what it writes (re-evaluation
  with any input change must be a no-op once settled);
* **acyclic** — members on a combinational cycle stay ordinary processes
  and the delta-limit oscillation diagnostics keep firing as before.
"""

from __future__ import annotations

from typing import Callable

from repro.sim.runtime import Cone, Design, Process, Signal


class ConeMember:
    """One cone-eligible process: dataflow facts plus body builders.

    * ``reads``/``writes`` — the raw signal sets driving levelization;
    * ``bind(sim)`` — returns the four-state once-evaluator for one run;
    * ``emit(names)`` — two-state ``(source, width)`` for the member's
      value over the int locals in *names*, or ``None``. Only meaningful
      for single-target members.
    """

    __slots__ = ("name", "process", "reads", "writes", "bind", "emit")

    def __init__(
        self,
        name: str,
        process: Process,
        reads: frozenset[Signal],
        writes: tuple[Signal, ...],
        bind: Callable,
        emit: Callable | None = None,
    ):
        self.name = name
        self.process = process
        self.reads = reads
        self.writes = writes
        self.bind = bind
        self.emit = emit

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ConeMember({self.name})"


# -- generated-source cache ----------------------------------------------------

#: source text → its compiled entry function. Generated code (cone factories
#: here, batch loops in :mod:`.vector`) is fully determined by its source, so
#: structurally identical designs across elaborations share one code object.
_SOURCE_CACHE: dict[str, Callable] = {}
_SOURCE_CACHE_LIMIT = 4096


def compile_source(source: str, entry: str) -> Callable:
    """Compile generated *source* once and return its function *entry*."""
    fn = _SOURCE_CACHE.get(source)
    if fn is None:
        if len(_SOURCE_CACHE) >= _SOURCE_CACHE_LIMIT:
            _SOURCE_CACHE.clear()
        namespace: dict = {}
        exec(compile(source, "<generated>", "exec"), namespace)
        fn = namespace[entry]
        _SOURCE_CACHE[source] = fn
    return fn


# -- codegen -------------------------------------------------------------------


def _twostate_source(members, inputs) -> str | None:
    """Straight-line two-state cone body, or None if any member lacks one."""
    from repro.sim.compile import twostate as ts

    names: dict[Signal, str] = {}
    for k, signal in enumerate(inputs):
        names[signal] = f"i{k}"
    for j, member in enumerate(members):
        if member.emit is None or len(member.writes) != 1:
            return None
        names[member.writes[0]] = f"o{j}"
    assigns = []
    for j, member in enumerate(members):
        target = member.writes[0]
        if target.width > ts.MAX_EMIT_WIDTH:
            return None
        emitted = member.emit(names)
        if emitted is None:
            return None
        src, width = emitted
        if width > target.width:
            src = f"({src} & {(1 << target.width) - 1})"
        assigns.append((j, src))
    lines = ["def _factory(S, T, F):"]
    if inputs:
        lines.append(f"    ({', '.join(f's{k}' for k in range(len(inputs)))},) = S")
    lines.append(f"    ({', '.join(f't{j}' for j in range(len(members)))},) = T")
    lines.append(f"    ({', '.join(f'f{j}' for j in range(len(members)))},) = F")
    lines.append("    def _cone(sim):")
    for k in range(len(inputs)):
        lines.append(f"        v{k} = s{k}._value")
    if inputs:
        xtest = " | ".join(f"v{k}.xmask" for k in range(len(inputs)))
        lines.append(f"        if {xtest}:")
        for j in range(len(members)):
            lines.append(f"            f{j}(sim)")
        lines.append("            return")
    lines.append("        wb = sim.write_signal_bits")
    for k in range(len(inputs)):
        lines.append(f"        i{k} = v{k}.bits")
    for j, src in assigns:
        lines.append(f"        o{j} = {src}")
        lines.append(f"        wb(t{j}, o{j})")
    lines.append("    return _cone")
    lines.append("")
    return "\n".join(lines)


def _fourstate_source(members) -> str:
    """Unrolled four-state cone body: the member closures in topo order."""
    lines = ["def _factory(S, T, F):"]
    lines.append(f"    ({', '.join(f'f{j}' for j in range(len(members)))},) = F")
    lines.append("    def _cone(sim):")
    for j in range(len(members)):
        lines.append(f"        f{j}(sim)")
    lines.append("    return _cone")
    lines.append("")
    return "\n".join(lines)


def _build_cone(members, inputs) -> Cone | None:
    """Compile one cone from topo-ordered members, or None on any surprise."""
    try:
        source = _twostate_source(members, inputs)
        if source is None:
            source = _fourstate_source(members)
        maker = compile_source(source, "_factory")
    except Exception:
        return None
    targets = []
    for member in members:
        targets.extend(member.writes)
    S = tuple(inputs)
    T = tuple(targets)
    binds = tuple(member.bind for member in members)

    def make(sim, maker=maker, S=S, T=T, binds=binds):
        return maker(S, T, tuple(bind(sim) for bind in binds))

    name = f"cone:{members[0].name}"
    if len(members) > 1:
        name += f"+{len(members) - 1}"
    cone = Cone(name, make, S)
    # keep the topo-ordered member tuple so the batch tier can re-lower the
    # same emits into vector bodies (ignored by the event kernel)
    cone.recipe = tuple(members)
    return cone


# -- partitioning --------------------------------------------------------------


def install_cones(
    design: Design,
    members: list[ConeMember],
    external_writes: set[Signal],
) -> None:
    """Levelize eligible members into cones and install them in *design*.

    Members that fail any eligibility rule (multi-driver, self-dependent,
    cyclic) silently keep their existing processes. Mutations happen only
    after all cones compiled, so a failure cannot leave the design half
    converted.
    """
    if not members:
        return
    # sole-driver + idempotence filter
    writer_count: dict[Signal, int] = {}
    for member in members:
        for signal in member.writes:
            writer_count[signal] = writer_count.get(signal, 0) + 1
    eligible = [
        m
        for m in members
        if m.writes
        and not any(
            s in external_writes or writer_count[s] > 1 for s in m.writes
        )
        and not any(s in m.reads for s in m.writes)
    ]
    if not eligible:
        return
    # dataflow edges: producer -> consumer
    producer: dict[Signal, int] = {}
    for idx, member in enumerate(eligible):
        for signal in member.writes:
            producer[signal] = idx
    succs: list[list[int]] = [[] for _ in eligible]
    preds: list[int] = [0] * len(eligible)
    edges: list[set[int]] = [set() for _ in eligible]  # undirected, for CCs
    for idx, member in enumerate(eligible):
        for signal in member.reads:
            src = producer.get(signal)
            if src is not None and src != idx:
                succs[src].append(idx)
                preds[idx] += 1
                edges[src].add(idx)
                edges[idx].add(src)
    # Kahn topological sort; members left with predecessors sit on a
    # combinational cycle and stay ordinary processes
    order: list[int] = [idx for idx, n in enumerate(preds) if n == 0]
    remaining = list(preds)
    head = 0
    while head < len(order):
        for succ in succs[order[head]]:
            remaining[succ] -= 1
            if remaining[succ] == 0:
                order.append(succ)
        head += 1
    position = {idx: pos for pos, idx in enumerate(order)}
    acyclic = set(order)
    # connected components over dataflow edges only — members that merely
    # share inputs (e.g. every port wiring reading clk) stay separate cones
    component: dict[int, int] = {}
    groups: list[list[int]] = []
    for idx in order:
        if idx in component:
            continue
        group: list[int] = []
        stack = [idx]
        component[idx] = len(groups)
        while stack:
            node = stack.pop()
            group.append(node)
            for other in edges[node]:
                if other in acyclic and other not in component:
                    component[other] = len(groups)
                    stack.append(other)
        groups.append(group)
    # build every cone before mutating the design
    built: list[tuple[Cone, list[ConeMember]]] = []
    for group in groups:
        group.sort(key=position.__getitem__)
        group_members = [eligible[idx] for idx in group]
        writes = {s for m in group_members for s in m.writes}
        inputs = sorted(
            {s for m in group_members for s in m.reads} - writes,
            key=lambda s: s.name,
        )
        cone = _build_cone(group_members, inputs)
        if cone is not None:
            built.append((cone, group_members))
    if not built:
        return
    # install: replace each cone's members in the process list (first slot
    # keeps the cone, the rest vanish) and register input triggers
    owner: dict[int, Cone] = {}
    for cone, group_members in built:
        for member in group_members:
            owner[id(member.process)] = cone
    placed: set[int] = set()
    new_processes: list = []
    for process in design.processes:
        cone = owner.get(id(process))
        if cone is None:
            new_processes.append(process)
        elif id(cone) not in placed:
            placed.add(id(cone))
            new_processes.append(cone)
    design.processes[:] = new_processes
    for cone, _group_members in built:
        for signal in cone.inputs:
            signal.cones = signal.cones + (cone,)
        design.cones.append(cone)


# -- member builders (Verilog) -------------------------------------------------


def verilog_assign_member(process, target, value, scope, elab, reads):
    """ConeMember for ``assign identifier = value``, or None."""
    from repro.sim.compile import verilog as cv

    if _verilog_impure_expr(value):
        return None
    once = cv.continuous_assign_once(target, value, scope, elab)
    if once is None:
        return None
    bind, writes = once
    target_signal = writes[0]

    def emit(names, value=value, scope=scope, ctxw=target_signal.width):
        from repro.sim.compile import twostate as ts

        return ts.verilog_expr(value, scope, ctxw, names)

    return ConeMember(process.name, process, frozenset(reads), writes, bind, emit)


def verilog_always_member(process, body, scope, elab, reads, writes):
    """ConeMember for a covered combinational ``always`` block, or None."""
    from repro.sim.compile import verilog as cv
    from repro.verilog import ast as vast

    if not writes or not _verilog_pure_comb_body(body, scope):
        return None
    bind = cv.always_once(body, scope, elab)
    if bind is None:
        return None
    return ConeMember(
        process.name, process, frozenset(reads), tuple(sorted(writes, key=lambda s: s.name)), bind
    )


def verilog_wire_input_member(process, expr, child, scope, elab, reads):
    """ConeMember for an instance input-port wire, or None."""
    from repro.sim.compile import verilog as cv

    if _verilog_impure_expr(expr):
        return None
    bind, writes = cv.wire_input_once(expr, child, scope, elab)

    def emit(names, expr=expr, scope=scope, ctxw=child.width):
        from repro.sim.compile import twostate as ts

        return ts.verilog_expr(expr, scope, ctxw, names)

    return ConeMember(process.name, process, frozenset(reads), writes, bind, emit)


def verilog_wire_output_member(process, target, child, scope, elab):
    """ConeMember for a whole-signal output-port wire, or None."""
    from repro.sim.compile import verilog as cv
    from repro.sim.compile import twostate as ts

    once = cv.wire_output_once(target, child, scope, elab)
    if once is None:
        return None
    bind, writes = once
    parent = writes[0]

    def emit(names, child=child, parent=parent):
        local = names.get(child)
        if local is None or child.width > ts.MAX_EMIT_WIDTH:
            return None
        if child.width > parent.width:
            return f"({local} & {(1 << parent.width) - 1})", parent.width
        return local, child.width

    return ConeMember(
        process.name, process, frozenset((child,)), writes, bind, emit
    )


# -- synchronous-update recognizers (batch tier) --------------------------------
#
# The batch tier advances clocked designs one edge at a time without the
# event kernel, which requires knowing exactly what a ``posedge clk`` process
# does. These recognizers accept only the canonical synchronous-reset
# register-bank shape (the one tbgen-verified designs and the QA renderers
# produce) and record a :class:`~repro.sim.runtime.SyncUpdate`; anything else
# returns None and the design simply stays ineligible for batching.


def _eval_const_source(src: str) -> int | None:
    """Evaluate an emitted expression that read no signals (a constant)."""
    try:
        value = eval(src, {"__builtins__": {}}, {})  # noqa: S307 - our codegen
    except Exception:
        return None
    return value if isinstance(value, int) else None


def verilog_sync_update(process, entries, body, scope):
    """Recognize ``always @(posedge clk) if (rst) <consts> else <nbas>``."""
    from repro.sim.compile import twostate as ts
    from repro.sim.runtime import Edge, SyncReg, SyncUpdate
    from repro.verilog import ast as vast

    if len(entries) != 1 or entries[0].edge is not Edge.POS:
        return None
    clock = entries[0].signal

    def nba_list(stmt):
        """Flatten to [(target Signal, value expr)], or None on any surprise."""
        out = []
        stack = [stmt]
        while stack:
            node = stack.pop(0)
            if isinstance(node, vast.Block):
                stack[0:0] = list(node.statements)
            elif isinstance(node, vast.Assign):
                if node.blocking or not isinstance(node.target, vast.Identifier):
                    return None
                target = scope.resolve(node.target.name)
                if not isinstance(target, Signal):
                    return None
                if target.width > ts.MAX_EMIT_WIDTH:
                    return None
                out.append((target, node.value))
            elif isinstance(node, vast.NullStatement):
                pass
            else:
                return None
        return out

    node = body
    while isinstance(node, vast.Block) and len(node.statements) == 1:
        node = node.statements[0]
    if not isinstance(node, vast.If) or node.else_branch is None:
        return None
    if not isinstance(node.condition, vast.Identifier):
        return None
    reset = scope.resolve(node.condition.name)
    if not isinstance(reset, Signal):
        return None
    then_assigns = nba_list(node.then_branch)
    else_assigns = nba_list(node.else_branch)
    if not then_assigns or not else_assigns:
        return None
    resets: dict[Signal, int] = {}
    for target, value in then_assigns:
        emitted = ts.verilog_expr(value, scope, target.width, {})
        if emitted is None:
            return None
        const = _eval_const_source(emitted[0])
        if const is None:
            return None
        resets[target] = const & ((1 << target.width) - 1)
    regs = []
    seen: set[Signal] = set()
    for target, value in else_assigns:
        if target in seen or target not in resets:
            return None
        seen.add(target)

        def emit(names, value=value, scope=scope, ctxw=target.width):
            return ts.verilog_expr(value, scope, ctxw, names)

        regs.append(SyncReg(target, resets[target], emit))
    if seen != set(resets):
        return None
    return SyncUpdate(process, clock, reset, tuple(regs))


def vhdl_sync_update(process, proc_ast, scope, resolve):
    """Recognize ``process(clk) if rising_edge(clk) then if rst = '1' ...``."""
    from repro.sim.compile import twostate as ts
    from repro.sim.runtime import SyncReg, SyncUpdate
    from repro.vhdl import ast as vast

    def rising_edge_clk(cond):
        if isinstance(cond, vast.Indexed) and cond.name == "rising_edge":
            arg = cond.index
        elif (
            isinstance(cond, vast.Call)
            and cond.name == "rising_edge"
            and len(cond.args) == 1
        ):
            arg = cond.args[0]
        else:
            return None
        return arg.name if isinstance(arg, vast.Name) else None

    def assign_list(stmts):
        """Flatten to [(target Signal, value expr)], or None on any surprise."""
        out = []
        for stmt in stmts:
            if isinstance(stmt, vast.NullStatement):
                continue
            if not isinstance(stmt, vast.SignalAssign) or stmt.after is not None:
                return None
            if not isinstance(stmt.target, vast.Name):
                return None
            target = resolve(stmt.target.name)
            if not isinstance(target, Signal):
                return None
            if target.width > ts.MAX_EMIT_WIDTH:
                return None
            out.append((target, stmt.value))
        return out

    def reset_const(value, width):
        if isinstance(value, vast.Aggregate) and not value.elements:
            if isinstance(value.others, vast.CharLiteral):
                if value.others.value == "0":
                    return 0
                if value.others.value == "1":
                    return (1 << width) - 1
            return None
        emitted = ts.vhdl_expr(value, scope, width, {})
        if emitted is None:
            return None
        const = _eval_const_source(emitted[0])
        if const is None:
            return None
        return const & ((1 << width) - 1)

    if proc_ast.declarations or len(proc_ast.body) != 1:
        return None
    outer = proc_ast.body[0]
    if not isinstance(outer, vast.IfStatement):
        return None
    if outer.else_body or len(outer.arms) != 1:
        return None
    cond, body = outer.arms[0]
    clk_name = rising_edge_clk(cond)
    if clk_name is None or tuple(proc_ast.sensitivity) != (clk_name,):
        return None
    clock = resolve(clk_name)
    if not isinstance(clock, Signal):
        return None
    if len(body) != 1 or not isinstance(body[0], vast.IfStatement):
        return None
    inner = body[0]
    if len(inner.arms) != 1:
        return None
    rcond, rbody = inner.arms[0]
    if not (isinstance(rcond, vast.Binary) and rcond.op == "="):
        return None
    if not isinstance(rcond.lhs, vast.Name):
        return None
    if not (isinstance(rcond.rhs, vast.CharLiteral) and rcond.rhs.value == "1"):
        return None
    reset = resolve(rcond.lhs.name)
    if not isinstance(reset, Signal):
        return None
    then_assigns = assign_list(rbody)
    else_assigns = assign_list(inner.else_body)
    if not then_assigns or not else_assigns:
        return None
    resets: dict[Signal, int] = {}
    for target, value in then_assigns:
        const = reset_const(value, target.width)
        if const is None:
            return None
        resets[target] = const
    regs = []
    seen: set[Signal] = set()
    for target, value in else_assigns:
        if target in seen or target not in resets:
            return None
        seen.add(target)

        def emit(names, value=value, scope=scope, width=target.width):
            return ts.vhdl_expr(value, scope, width, names)

        regs.append(SyncReg(target, resets[target], emit))
    if seen != set(resets):
        return None
    return SyncUpdate(process, clock, reset, tuple(regs))


def _verilog_impure_expr(expr) -> bool:
    """True if evaluating *expr* has side effects ($random advances a LCG)."""
    from repro.verilog import ast as vast

    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, vast.SystemFunctionCall):
            if node.name in ("$random", "$time"):
                return True
            stack.extend(node.args)
        elif isinstance(node, vast.Unary):
            stack.append(node.operand)
        elif isinstance(node, vast.Binary):
            stack.extend((node.lhs, node.rhs))
        elif isinstance(node, vast.Ternary):
            stack.extend((node.cond, node.if_true, node.if_false))
        elif isinstance(node, vast.Concat):
            stack.extend(node.parts)
        elif isinstance(node, vast.Replicate):
            stack.extend((node.count, node.value))
        elif isinstance(node, vast.BitSelect):
            stack.append(node.index)
        elif isinstance(node, vast.PartSelect):
            stack.extend((node.msb, node.lsb))
        elif isinstance(node, vast.IndexedPartSelect):
            stack.extend((node.base, node.width))
    return False


def _verilog_pure_comb_body(stmt, scope) -> bool:
    """True if an always body is pure, delay-free, whole-signal blocking.

    Conservative walker: any statement kind it does not recognize fails the
    check and the block stays an ordinary process.
    """
    from repro.sim.runtime import Signal
    from repro.verilog import ast as vast

    stack = [stmt]
    while stack:
        node = stack.pop()
        if node is None:
            continue
        if isinstance(node, vast.Block):
            stack.extend(node.statements)
        elif isinstance(node, vast.Assign):
            if not node.blocking:
                return False
            if not isinstance(node.target, vast.Identifier):
                return False  # select targets read-modify-write the signal
            if not isinstance(scope.resolve(node.target.name), Signal):
                return False
            if _verilog_impure_expr(node.value):
                return False
        elif isinstance(node, vast.If):
            if _verilog_impure_expr(node.condition):
                return False
            stack.extend((node.then_branch, node.else_branch))
        elif isinstance(node, vast.Case):
            if _verilog_impure_expr(node.subject):
                return False
            for item in node.items:
                for label in item.labels:
                    if _verilog_impure_expr(label):
                        return False
                stack.append(item.body)
        elif isinstance(node, vast.NullStatement):
            pass
        else:
            # loops, delays, event controls, system tasks, nested blocks of
            # any other kind: keep the process
            return False
    return True


# -- member builders (VHDL) ----------------------------------------------------


def vhdl_concurrent_member(process, statement, scope, elab, reads, width):
    """ConeMember for a plain concurrent assignment, or None."""
    from repro.sim.compile import vhdl as ch

    once = ch.concurrent_assign_once(statement, scope, elab, width)
    if once is None:
        return None
    bind, writes = once
    target_signal = writes[0]

    def emit(names, statement=statement, scope=scope, width=width,
             target=target_signal):
        from repro.sim.compile import twostate as ts

        emitted = ts.vhdl_expr(statement.value, scope, width, names)
        if emitted is None:
            return None
        src, w = emitted
        return src, w

    return ConeMember(process.name, process, frozenset(reads), writes, bind, emit)


def vhdl_conditional_member(process, statement, scope, elab, reads, width):
    """ConeMember for a conditional concurrent assignment, or None."""
    from repro.sim.compile import vhdl as ch

    once = ch.conditional_assign_once(statement, scope, elab, width)
    if once is None:
        return None
    bind, writes = once

    def emit(names, statement=statement, scope=scope, width=width):
        from repro.sim.compile import twostate as ts

        # nested conditional expression; with fully-known inputs the first
        # true condition picks the value, mirroring the factory's arm scan
        src = None
        otherwise = ts.vhdl_expr(statement.otherwise, scope, width, names)
        if otherwise is None:
            return None
        src, w = otherwise
        for value, condition in reversed(statement.arms):
            value_e = ts.vhdl_expr(value, scope, width, names)
            cond_e = ts.vhdl_expr(condition, scope, None, names)
            if value_e is None or cond_e is None:
                return None
            v_src, v_w = value_e
            src = f"({v_src} if {cond_e[0]} else {src})"
            w = max(w, v_w)
        return src, w

    return ConeMember(process.name, process, frozenset(reads), writes, bind, emit)


def vhdl_wire_input_member(process, expr, child, scope, elab, reads):
    """ConeMember for an instantiation input-port wire."""
    from repro.sim.compile import vhdl as ch

    bind, writes = ch.wire_input_once(expr, child, scope, elab)

    def emit(names, expr=expr, scope=scope, width=child.width):
        from repro.sim.compile import twostate as ts

        return ts.vhdl_expr(expr, scope, width, names)

    return ConeMember(process.name, process, frozenset(reads), writes, bind, emit)


def vhdl_wire_output_member(process, target, child, scope, elab):
    """ConeMember for a whole-signal output-port wire, or None."""
    from repro.sim.compile import twostate as ts
    from repro.sim.compile import vhdl as ch

    once = ch.wire_output_once(target, child, scope, elab)
    if once is None:
        return None
    bind, writes = once
    parent = writes[0]

    def emit(names, child=child, parent=parent):
        local = names.get(child)
        if local is None or child.width > ts.MAX_EMIT_WIDTH:
            return None
        if child.width > parent.width:
            return f"({local} & {(1 << parent.width) - 1})", parent.width
        return local, child.width

    return ConeMember(
        process.name, process, frozenset((child,)), writes, bind, emit
    )
