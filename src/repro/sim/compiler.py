"""RTL mutant schema: every mutant of a design compiled into generated Python.

Each mutant (a patch ``nid -> replacement``) of a :class:`MutantSchema`
owns an integer slot, so an executor is just ``(functions, slot)``:
nothing compiles per mutant or per call.  The interpreter
(:mod:`repro.sim.interp`) is the reference semantics.  docs/API.md,
"RTL mutant execution", describes the layout.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
from typing import NamedTuple

from repro.errors import MutantRuntimeError, SimulationError
from repro.hdl import ast
from repro.hdl import types as ty
from repro.hdl.design import Design, Process, SymbolKind
from repro.hdl.values import BV
from repro.sim.interp import (
    Evaluator,
    _apply_logical,
    _bit_offset,
    _coerce,
    _concat,
    _mod,
    _rem,
)


class _Program(NamedTuple):
    """One process compiled over one unit split (see
    :meth:`_Codegen.program`)."""

    run: tuple                 # the ``_runK`` units, in order
    probe: tuple               # the ``_probeK`` units (empty: not emitted)
    points: list               # probe flag index -> the slots it stands for
    first: dict                # slot -> the lowest unit holding its sites


class MutantSchema:
    """All covered mutants of one design, compiled into one program.

    A ``probed`` schema emits each process's probe units with its run
    units, from one walk over one unit split; an unprobed one emits them
    only once :meth:`prober` is first called, recompiling every process.
    """

    def __init__(self, design: Design, probed: bool = False):
        self._design = design
        self._probed = probed
        self._lock = threading.Lock()
        self._slots: dict[tuple, int] = {}
        self._patches: list[dict[int, ast.Node]] = [{}]
        self._compiled = 0
        #: process label -> its current :class:`_Program`.
        self._programs: dict[str, _Program] = {}
        #: process label -> {nid: (node, parent, role)}, built on compile.
        self._nodes: dict[str, dict] | None = None

    def cover(self, patches) -> list[int]:
        """Give every patch a slot (returned, in order); compiled at the
        next execution."""
        with self._lock:
            return [self._slot(patch) for patch in patches]

    def slot(self, patch: dict[int, ast.Node] | None = None) -> int:
        """``patch``'s slot (covering it first when it is new)."""
        with self._lock:
            return self._slot(patch)

    def covered(self) -> frozenset[int]:
        """Every mutant slot given out so far."""
        with self._lock:
            return frozenset(range(1, len(self._patches)))

    def executor(self, patch: dict[int, ast.Node] | None = None):
        """The executor running ``patch``: a callable ``(process,
        values, variables, scheduled, events)`` running one process
        activation, as :class:`repro.sim.scheduler.Simulator` takes.  It
        runs each process's current program, so after a recompile it
        runs the new one.
        """
        with self._lock:
            slot = self._slot(patch)
            if self._compiled < len(self._patches):
                self._compile()
        programs = self._programs

        def run(process: Process, values, variables, scheduled, events):
            for unit in programs[process.label].run:
                unit(values, variables, scheduled, events, slot)

        return run

    def prober(self, slots) -> Prober:
        """An infection probe over the sites of covered ``slots``, on
        the programs compiled now (see :class:`Prober`)."""
        with self._lock:
            self._probed = True
            self._compile()
            return Prober({
                label: (program, [
                    tuple(sorted(owners & slots)) for owners in program.points
                ])
                for label, program in self._programs.items()
            })

    def _slot(self, patch) -> int:
        if not patch:
            return 0
        key = tuple(sorted((nid, node.nid) for nid, node in patch.items()))
        slot = self._slots.get(key)
        if slot is None:
            slot = self._slots[key] = len(self._patches)
            self._patches.append(patch)
        return slot

    def _compile(self) -> None:
        """Recompile every process that has no program yet, holds a
        patch covered since the last compile, or lacks the probe units
        a probed schema needs."""
        if self._nodes is None:
            self._nodes = {
                process.label: {
                    node.nid: (node, parent, role)
                    for node, parent, role in _walk(process.body)
                }
                for process in self._design.processes
            }
        fresh = [
            nid for patch in self._patches[self._compiled:] for nid in patch
        ]
        for process in self._design.processes:
            nodes = self._nodes[process.label]
            program = self._programs.get(process.label)
            if program is None or any(nid in nodes for nid in fresh) or (
                self._probed and not program.probe
            ):
                self._programs[process.label] = _Codegen(
                    process, self._patches, nodes, self._probed
                ).program(self._design.name)
        self._compiled = len(self._patches)


class Prober:
    """An infection probe over the sites of some covered slots.

    Calling it as ``(process, values, variables, scheduled, events,
    infected=None, entries=None)`` runs one activation of the original
    (slot 0) and returns a set of slots that holds every probed slot
    the activation infected: at a reached site, a replacement whose
    value differs from the original's in class or value, or raises, and
    every slot of a reached statement site.  A probed slot outside the
    set took the original's path on that activation, so running it
    would have made the same writes.  Passing ``infected`` adds to that
    set instead of a new one, so a bench can run the probe as its
    executor over many activations.  Passing a list as ``entries``
    appends to it, per activation, copies of the ``(variables,
    scheduled)`` maps entering each unit of :meth:`program`'s split:
    a slot's run of that program's units from its first unit on, from
    copies of that entry, is its whole activation.

    Each call copies the flag list, and a site writes back into the
    copy the slots it has not infected yet: a site reached again in
    the same activation (a loop body) checks only those, and none once
    all are infected.  The shared flag tuples are never written, so
    threads share one probe.
    """

    def __init__(self, flags: dict):
        self._flags = flags

    def program(self, process: Process) -> _Program:
        """The compiled ``process`` this probe runs: its run units and
        each slot's first unit match the entries it records."""
        return self._flags[process.label][0]

    def __call__(self, process: Process, values, variables, scheduled,
                 events, infected: set[int] | None = None,
                 entries: list | None = None):
        program, live = self._flags[process.label]
        if infected is None:
            infected = set()
        pending = list(live)
        if entries is None:
            for unit in program.probe:
                unit(values, variables, scheduled, events, pending, infected)
            return infected
        entry = []
        for unit in program.probe:
            entry.append((dict(variables), dict(scheduled)))
            unit(values, variables, scheduled, events, pending, infected)
        entries.append(entry)
        return infected


def _walk(value, parent=None, role=None):
    """Every AST node under ``value`` as ``(node, parent, field name)``."""
    if isinstance(value, ast.Node):
        yield value, parent, role
        for field in dataclasses.fields(value):
            yield from _walk(getattr(value, field.name), value, field.name)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _walk(item, parent, role)


#: (parent type, role) pairs whose code depends on the child's type.
_TYPED_ROLES = {
    (ast.Binary, "left"), (ast.Unary, "operand"), (ast.Index, "prefix"),
    (ast.Slice, "prefix"), (ast.Case, "selector"),
}


def _site_of(nodes: dict, nid: int, replacement: ast.Node) -> int:
    """The node a patch entry dispatches at (its parent when hoisted).

    Vector code bakes in the bounds, other code only the type class;
    edge and ``'event`` code bakes in the signal name, and an
    assignment the name of its target.
    """
    node, parent, role = nodes[nid]
    if isinstance(node, ast.Stmt):
        return nid
    if role == "target":
        return parent.nid
    keys = [t if isinstance(t, ty.BitVectorType) else type(t)
            for t in (node.ty, replacement.ty)]
    if isinstance(parent, (ast.Attribute, ast.Call)) or (
        (type(parent), role) in _TYPED_ROLES and keys[0] != keys[1]
    ):
        return parent.nid
    return nid


_NOT_CONST = object()

#: Generated source per compiled unit (see :meth:`_Codegen.functions`).
_UNIT_CHARS = 6000

_BOOL_OPS = {
    "and": "({} and {})", "or": "({} or {})", "xor": "({} != {})",
    "nand": "(not ({} and {}))", "nor": "(not ({} or {}))",
    "xnor": "({} == {})",
}
_BIT_OPS = {
    "and": "({} & {})", "or": "({} | {})", "xor": "({} ^ {})",
    "nand": "(({} & {}) ^ 1)", "nor": "(({} | {}) ^ 1)",
    "xnor": "(({} ^ {}) ^ 1)",
}
_PY_OPS = {"<", "<=", ">", ">=", "+", "-", "*"}
#: Inline assignment checks per target type: true when ``t`` does not
#: fit (``_coerce`` then raises the interpreter's error).
_CHECKS = {
    ty.IntegerType: "{t}.__class__ is not int or {t} < {ty.low} or "
                    "{t} > {ty.high}",
    ty.BitType: "{t}.__class__ is not int or {t} < 0 or {t} > 1",
    ty.BooleanType: "{t} is not True and {t} is not False",
    ty.EnumType: "{t}.__class__ is not int or {t} < 0 or {t} >= {n}",
    ty.BitVectorType: "{t}.__class__ is not BV or {t}.width != {ty.width}",
}


def _bv_key(value):
    if isinstance(value, BV):
        return (value.value, value.width)
    raise MutantRuntimeError("case selector/choice kind mismatch")


def _infect(infected: set, value, flags: list, index: int,
            alternative) -> None:
    """Probe: add the pending slots of ``flags[index]`` whose
    replacement differs from ``value``, and leave the rest pending.

    ``alternative(slot)`` evaluates a slot's replacement; one that
    raises (any error: the mutant then raises the same way) infects.
    Slots already in ``infected`` are not evaluated again.
    """
    pending = []
    for slot in flags[index]:
        if slot in infected:
            continue
        try:
            other = alternative(slot)
        except Exception:
            infected.add(slot)
            continue
        if other.__class__ is not value.__class__ or other != value:
            infected.add(slot)
        else:
            pending.append(slot)
    flags[index] = pending


def _infect_table(infected: set, value, flags: list, index: int,
                  table: dict) -> None:
    """:func:`_infect` over constant replacements (``{slot: value}``)."""
    pending = []
    for slot in flags[index]:
        if slot in infected:
            continue
        other = table[slot]
        if other.__class__ is not value.__class__ or other != value:
            infected.add(slot)
        else:
            pending.append(slot)
    flags[index] = pending


_HELPERS = {
    "BV": BV, "_bv_key": _bv_key, "_mod": _mod, "_rem": _rem,
    "_Error": MutantRuntimeError,
    "_apply_logical": _apply_logical, "_bit_offset": _bit_offset,
    "_coerce": _coerce, "_concat": _concat,
    "_truth": Evaluator._truth, "_values_equal": Evaluator._values_equal,
    "_infect": _infect, "_infect_table": _infect_table,
}


def _member(slots) -> str:
    """Test of ``_m`` against sorted ``slots`` (a range when contiguous)."""
    if len(slots) == 1:
        return f"_m == {slots[0]}"
    if slots[-1] - slots[0] == len(slots) - 1:
        return f"{slots[0]} <= _m <= {slots[-1]}"
    return f"_m in {{{', '.join(map(str, slots))}}}"


def _chain(alts: list[tuple[int, str]]) -> str:
    """Conditional expression picking one alternative per slot (one of
    ``alts``'s slots is ``_m``)."""
    chain = alts[-1][1]
    for slot, code in reversed(alts[:-1]):
        chain = f"{code} if _m == {slot} else {chain}"
    return chain


def _select(orig: str, alts: list[tuple[int, str]]) -> str:
    """:func:`_chain`, with ``orig`` for every other slot."""
    member = _member([slot for slot, _ in alts])
    return f"({orig} if not ({member}) else {_chain(alts)})"


_RUN, _PROBE = 0, 1


class _Codegen:
    """Generates a process's code over every covered slot.

    Generation runs in one of two modes: *live* (the original tree,
    sites dispatch on ``_m``) or *static* under one slot's ``patch``
    (``{}`` for the pristine variant), where nodes resolve through the
    patch exactly as the interpreter resolves them.  With ``probe`` the
    same walk also emits the *probe* units, in which live sites become
    infection checks instead (see :class:`Prober`): ``_probeK(R, V, S,
    E, L, I)`` runs the original and adds infected slots to the set
    ``I``.  ``L[k]`` holds the probed slots among ``points[k]``, the
    slots of one site or of the sites under one statement: a statement
    with no probed slot under it runs its pristine variant, and a site
    checks only its probed slots that are not yet infected, then keeps
    in its ``L[k]`` those still pending (``L`` is the activation's
    copy).  Static code, which is the same in both, is generated once
    and emitted to both.
    """

    def __init__(self, process: Process, patches: list[dict],
                 nodes: dict, probe: bool = False):
        self._process = process
        self._patches = patches
        self._nodes = nodes
        #: The sources emitted to (``_RUN``, ``_PROBE``), and whether
        #: the code being generated is the probe's live code.
        self._targets = (_RUN, _PROBE) if probe else (_RUN,)
        self._probe = False
        self._sites: dict[int, list[int]] = {}
        for slot, patch in enumerate(patches):
            for nid, replacement in patch.items():
                if nid in nodes:
                    site = _site_of(nodes, nid, replacement)
                    self._sites.setdefault(site, []).append(slot)
        #: Probe flag index -> the slots it stands for.
        self._points: list[frozenset[int]] = []
        self._under_memo: dict[int, tuple[int, ...]] = {}
        self._lines: tuple[list[str], list[str]] = ([], [])
        self._size = [0, 0]
        self._consts: dict[object, str] = {}
        self._reads: dict[str, str] = {}
        self._vars: dict[str, str] = {}
        self._scope: list[tuple[str, str, tuple[int, int] | None]] = []
        self._ids = itertools.count()

    def program(self, design_name: str) -> _Program:
        """The process body as units to run in order.

        The body splits at top-level statements into units of about
        ``_UNIT_CHARS`` of source (the larger of the run and probe
        sources), compiled one by one, which bounds the compiler's
        transient memory.  The run and probe units share the split.
        Variables write through to ``V``, so each unit reloads them on
        entry.
        """
        namespace = dict(_HELPERS)
        units: tuple[list, list] = ([], [])
        first: dict[int, int] = {}
        body = self._process.body or [ast.NullStmt()]
        for index, stmt in enumerate(body):
            self._stmt(stmt, {}, True, 1)
            for slot in self._under(stmt):
                first.setdefault(slot, len(units[_RUN]))
            if index + 1 < len(body) and max(self._size) < _UNIT_CHARS:
                continue
            namespace.update(
                {name: value for value, name in self._consts.values()}
            )
            loads = [f"    {local} = R[{name!r}]"
                     for name, local in self._reads.items()]
            loads += [f"    {local} = V[{name!r}]"
                      for name, local in self._vars.items()]
            for target in self._targets:
                name, params = (("_run", "_m"), ("_probe", "L, I"))[target]
                name += str(len(units[target]))
                source = "\n".join([f"def {name}(R, V, S, E, {params}):",
                                    *loads, *self._lines[target]])
                filename = f"<schema {design_name}:{self._process.label}>"
                exec(compile(source, filename, "exec"), namespace)
                units[target].append(namespace[name])
            self._lines, self._size = ([], []), [0, 0]
            self._reads, self._vars = {}, {}
        return _Program(tuple(units[_RUN]), tuple(units[_PROBE]),
                        self._points, first)

    # -- plumbing ------------------------------------------------------------

    def _emit(self, indent: int, line: str) -> None:
        text = "    " * indent + line
        for target in self._targets:
            self._lines[target].append(text)
            self._size[target] += len(line)

    def _tmp(self) -> str:
        return f"_t{next(self._ids)}"

    def _const(self, value) -> str:
        """A namespace constant for a non-literal value (BV, HDL type)."""
        key = (type(value), repr(value))
        if key not in self._consts:
            self._consts[key] = (value, f"_K{len(self._consts)}")
        return self._consts[key][1]

    def _point(self, slots) -> str:
        """The probe flag (an ``L`` item) standing for ``slots``."""
        self._points.append(frozenset(slots))
        return f"L[{len(self._points) - 1}]"

    def _local(self, table: dict[str, str], prefix: str, name: str) -> str:
        if name not in table:
            table[name] = f"{prefix}{len(table)}"
        return table[name]

    def _live_site(self, node: ast.Node, live: bool) -> bool:
        return live and node.nid in self._sites

    def _under(self, stmt: ast.Stmt) -> tuple[int, ...]:
        """Slots with a site at or under an original statement."""
        if stmt.nid not in self._under_memo:
            slots: set[int] = set()
            for node, _, _ in _walk(stmt):
                slots.update(self._sites.get(node.nid, ()))
            self._under_memo[stmt.nid] = tuple(sorted(slots))
        return self._under_memo[stmt.nid]

    def _value_of(self, node: ast.Expr, patch: dict, live: bool):
        """The node's value when it is a compile-time constant."""
        if self._live_site(node, live):
            return _NOT_CONST
        node = patch.get(node.nid, node)
        kind = type(node)
        if kind in (ast.IntLit, ast.BitLit, ast.BoolLit):
            return node.value
        if kind is ast.EnumLit:
            return node.index
        if kind is ast.BitStringLit:
            return BV.from_string(node.bits)
        if kind is ast.Name and node.symbol.kind in (
            SymbolKind.CONSTANT, SymbolKind.ENUM_LITERAL
        ):
            return node.symbol.init
        return _NOT_CONST

    def _range(self, node: ast.Expr, patch: dict, live: bool):
        """Static ``(low, high)`` bounds of an integer expression."""
        value = self._value_of(node, patch, live)
        if type(value) is int:
            return value, value
        node = patch.get(node.nid, node)
        if (
            not self._live_site(node, live)
            and type(node) is ast.Name
            and node.symbol.kind is SymbolKind.LOOP_VAR
        ):
            return self._loop(node.symbol.name)[1]
        return None

    def _loop(self, name: str):
        for var, local, bounds in reversed(self._scope):
            if var == name:
                return local, bounds
        raise SimulationError(f"unbound loop variable {name!r}")

    def _dispatch(self, node: ast.Node, patch: dict, live: bool, gen) -> str:
        code = gen(node, patch, live)
        if not self._live_site(node, live):
            return code
        slots = self._sites[node.nid]
        values = {slot: self._value_of(node, self._patches[slot], False)
                  for slot in slots}
        if gen == self._choice_key:  # vector choices compare as keys
            values = {slot: (v.value, v.width) if isinstance(v, BV)
                      else _NOT_CONST for slot, v in values.items()}
        if self._probe:
            value, flag = self._tmp(), self._point(slots)
            index = len(self._points) - 1  # the site writes back L[index]
            if _NOT_CONST not in values.values():
                table = self._const(values)
                scan = f"_infect_table(I, {value}, L, {index}, {table})"
            else:
                chain = _chain([
                    (slot, gen(node, self._patches[slot], False))
                    for slot in slots
                ])
                scan = (f"_infect(I, {value}, L, {index}, "
                        f"lambda _m: {chain})")
            return f"(({value} := {code}), {flag} and {scan})[0]"
        if len(slots) > 2 and _NOT_CONST not in values.values():
            # Constant replacements (CVR, CCR): one table lookup.
            table = self._const(values)
            return f"({table}[_m] if _m in {table} else {code})"
        return _select(code, [
            (slot, gen(node, self._patches[slot], False)) for slot in slots
        ])

    # -- statements ----------------------------------------------------------

    def _body(self, body: list[ast.Stmt], patch: dict, live: bool,
              indent: int) -> None:
        if not body:
            self._emit(indent, "pass")
        for stmt in body:
            self._stmt(stmt, patch, live, indent)

    def _stmt(self, stmt: ast.Stmt, patch: dict, live: bool,
              indent: int) -> None:
        under = self._under(stmt) if live else ()
        if not under:
            self._emit_stmt(stmt, patch, False, indent)
            return
        own = self._sites.get(stmt.nid, [])
        # Each source gets its own live variant; the pristine ``else``
        # branch is generated once for both.
        targets, probe = self._targets, self._probe
        for target in targets:
            self._targets, self._probe = (target,), target == _PROBE
            if self._probe:
                self._emit(indent, f"if {self._point(under)}:")
                if own:
                    flag = self._point(own)
                    self._emit(indent + 1, f"I.update({flag})")
                self._emit_stmt(stmt, patch, True, indent + 1)
                continue
            self._emit(indent, f"if {_member(under)}:")
            for index, slot in enumerate(own):
                keyword = "if" if index == 0 else "elif"
                self._emit(indent + 1, f"{keyword} _m == {slot}:")
                self._emit_stmt(stmt, self._patches[slot], False, indent + 2)
            if len(own) < len(under):
                if own:
                    self._emit(indent + 1, "else:")
                self._emit_stmt(stmt, patch, True, indent + 1 + bool(own))
        self._targets, self._probe = targets, probe
        self._emit(indent, "else:")
        self._emit_stmt(stmt, patch, False, indent + 1)

    def _emit_stmt(self, stmt: ast.Stmt, patch: dict, live: bool,
                   indent: int) -> None:
        stmt = patch.get(stmt.nid, stmt)
        kind = type(stmt)
        if kind is ast.SignalAssign or kind is ast.VarAssign:
            self._assign(stmt, patch, live, indent, kind is ast.SignalAssign)
        elif kind is ast.If:
            for index, (cond, body) in enumerate(stmt.arms):
                keyword = "if" if index == 0 else "elif"
                code = self._expr(cond, patch, live)
                self._emit(indent, f"{keyword} (_c := {code}) is True:")
                self._body(body, patch, live, indent + 1)
                self._emit(indent, "elif _c is not False:")
                self._emit(indent + 1, "_truth(_c)")
            if stmt.else_body:
                self._emit(indent, "else:")
                self._body(stmt.else_body, patch, live, indent + 1)
        elif kind is ast.Case:
            self._case(stmt, patch, live, indent)
        elif kind is ast.ForLoop:
            low = self._expr(stmt.low, patch, live)
            high = self._expr(stmt.high, patch, live)
            bounds = (self._value_of(stmt.low, patch, live),
                      self._value_of(stmt.high, patch, live))
            local = f"_i{next(self._ids)}"
            if stmt.direction == "to":
                self._emit(indent, f"for {local} in range({low}, {high} + 1):")
            else:
                self._emit(indent,
                           f"for {local} in range({low}, {high} - 1, -1):")
                bounds = bounds[::-1]
            if not all(type(bound) is int for bound in bounds):
                bounds = None
            self._scope.append((stmt.var, local, bounds))
            self._body(stmt.body, patch, live, indent + 1)
            self._scope.pop()
        elif kind is ast.NullStmt:
            self._emit(indent, "pass")
        else:
            raise SimulationError(f"cannot compile {kind.__name__}")

    def _case(self, stmt: ast.Case, patch: dict, live: bool,
              indent: int) -> None:
        selector = self._expr(stmt.selector, patch, live)
        vector = isinstance(
            patch.get(stmt.selector.nid, stmt.selector).ty, ty.BitVectorType
        )
        key = self._tmp()
        self._emit(indent, f"{key} = {f'_bv_key({selector})' if vector else selector}")
        gen = self._choice_key if vector else self._plain_expr
        keyword, others = "if", None
        for when in stmt.whens:
            if when.is_others:
                others = when.body
                continue
            tests = " or ".join(
                f"{key} == {self._dispatch(choice, patch, live, gen)}"
                for choice in when.choices
            )
            self._emit(indent, f"{keyword} {tests or 'False'}:")
            self._body(when.body, patch, live, indent + 1)
            keyword = "elif"
        if others is not None:
            if keyword == "if":
                self._body(others, patch, live, indent)
            else:
                self._emit(indent, "else:")
                self._body(others, patch, live, indent + 1)

    def _choice_key(self, choice: ast.Expr, patch: dict, live: bool) -> str:
        value = self._value_of(choice, patch, live)
        if isinstance(value, BV):
            return repr((value.value, value.width))
        return f"_bv_key({self._plain_expr(choice, patch, live)})"

    def _assign(self, stmt, patch: dict, live: bool, indent: int,
                signal: bool) -> None:
        target = patch.get(stmt.target.nid, stmt.target)
        if isinstance(target, ast.Name):
            value = self._checked(stmt.value, patch, live, target.symbol.ty,
                                  indent)
            self._store(target.symbol.name, value, signal, indent)
            return
        if not isinstance(target, (ast.Index, ast.Slice)):
            raise SimulationError(
                f"unsupported assignment target {type(target).__name__}"
            )
        name = target.prefix.symbol.name
        vec_type = target.prefix.symbol.ty
        base = (
            f"(S[{name!r}] if {name!r} in S else "
            f"{self._local(self._reads, 'r', name)})"
            if signal else self._local(self._vars, "v", name)
        )
        if isinstance(target, ast.Index):
            offset = self._tmp()
            self._emit(indent, f"{offset} = "
                       f"{self._offset(vec_type, target.index, patch, live)}")
            bit = self._checked(stmt.value, patch, live, ty.BIT, indent)
            self._store(name, f"{base}.with_bit({offset}, {bit})", signal,
                        indent)
            return
        high, low, piece = self._tmp(), self._tmp(), self._tmp()
        self._emit(indent, f"{high} = "
                   f"{self._offset(vec_type, target.left, patch, live)}")
        self._emit(indent, f"{low} = "
                   f"{self._offset(vec_type, target.right, patch, live)}")
        self._emit(indent, f"{piece} = {self._expr(stmt.value, patch, live)}")
        self._emit(indent, f"if {piece}.__class__ is not BV or {piece}.width"
                   f" != {high} - {low} + 1: raise _Error('slice assignment"
                   " width mismatch')")
        self._store(name, f"{base}.with_slice({high}, {low}, {piece})",
                    signal, indent)

    def _store(self, name: str, value: str, signal: bool,
               indent: int) -> None:
        if signal:
            self._emit(indent, f"S[{name!r}] = {value}")
        else:
            local = self._local(self._vars, "v", name)
            self._emit(indent, f"{local} = V[{name!r}] = {value}")

    def _checked(self, node: ast.Expr, patch: dict, live: bool,
                 target_type, indent: int) -> str:
        """Code for ``node``'s value, type/range-checked for a target."""
        code = self._expr(node, patch, live)
        value = self._value_of(node, patch, live)
        if value is not _NOT_CONST:
            try:
                _coerce(value, target_type)
                return code
            except MutantRuntimeError:
                pass  # the check below raises when the write executes
        bounds = self._range(node, patch, live)
        if isinstance(target_type, ty.IntegerType) and bounds and (
            target_type.low <= bounds[0] <= bounds[1] <= target_type.high
        ):
            return code
        if type(target_type) not in _CHECKS:
            raise SimulationError(f"unknown target type {target_type!r}")
        temp = self._tmp()
        bad = _CHECKS[type(target_type)].format(
            t=temp, ty=target_type, n=len(getattr(target_type, "literals", ()))
        )
        self._emit(indent, "if " + bad.replace(temp, f"({temp} := {code})", 1)
                   + f": _coerce({temp}, {self._const(target_type)})")
        return temp

    # -- expressions ---------------------------------------------------------

    def _expr(self, node: ast.Expr, patch: dict, live: bool) -> str:
        return self._dispatch(node, patch, live, self._plain_expr)

    def _offset(self, vec_type, index: ast.Expr, patch: dict,
                live: bool) -> str:
        """Code for a checked 0-based bit offset into ``vec_type``."""
        value = self._value_of(index, patch, live)
        if value is not _NOT_CONST:
            try:
                return str(vec_type.bit_index(value))
            except ValueError:
                return f"_bit_offset({self._const(vec_type)}, {value!r})"
        code = self._expr(index, patch, live)
        right, left = vec_type.right, vec_type.left
        bounds = self._range(index, patch, live)
        if bounds and right <= bounds[0] and bounds[1] <= left:
            return code if right == 0 else f"({code} - {right})"
        temp = self._tmp()
        return (f"({temp} - {right} if {right} <= ({temp} := {code}) <= "
                f"{left} else _bit_offset({self._const(vec_type)}, {temp}))")

    def _plain_expr(self, node: ast.Expr, patch: dict, live: bool) -> str:
        """Code for ``node`` itself (its own site dispatch excluded)."""
        node = patch.get(node.nid, node)
        kind = type(node)
        value = self._value_of(node, {}, False)
        if value is not _NOT_CONST:
            if isinstance(value, (bool, int)):
                return repr(value)
            return self._const(value)
        if kind is ast.Name:
            symbol = node.symbol
            if symbol.kind is SymbolKind.VARIABLE:
                return self._local(self._vars, "v", symbol.name)
            if symbol.kind is SymbolKind.LOOP_VAR:
                return self._loop(symbol.name)[0]
            return self._local(self._reads, "r", symbol.name)
        if kind is ast.Binary:
            return self._binary(node, patch, live)
        if kind is ast.Unary:
            operand_type = patch.get(node.operand.nid, node.operand).ty
            operand = self._expr(node.operand, patch, live)
            if node.op == "not":
                if isinstance(operand_type, ty.BooleanType):
                    return f"(not {operand})"
                if isinstance(operand_type, ty.BitVectorType):
                    return f"BV(~{operand}.value, {operand_type.width})"
                return f"({operand} ^ 1)"
            if node.op == "-":
                return f"(-{operand})"
            raise SimulationError(f"unsupported unary operator {node.op!r}")
        if kind is ast.Index or kind is ast.Slice:
            vec_type = patch.get(node.prefix.nid, node.prefix).ty
            if not isinstance(vec_type, ty.BitVectorType):
                raise SimulationError("indexing a non-vector expression")
            prefix = self._expr(node.prefix, patch, live)
            if kind is ast.Slice:
                return (
                    f"{prefix}.slice("
                    f"{self._offset(vec_type, node.left, patch, live)}, "
                    f"{self._offset(vec_type, node.right, patch, live)})"
                )
            offset = self._offset(vec_type, node.index, patch, live)
            return f"(({prefix}.value >> {offset}) & 1)"
        if kind is ast.Attribute:
            name = patch.get(node.prefix.nid, node.prefix).symbol.name
            return f"({name!r} in E)"
        if kind is ast.Call:
            name = patch.get(node.args[0].nid, node.args[0]).symbol.name
            level = {"rising_edge": 1, "falling_edge": 0}.get(node.func)
            if level is None:
                raise SimulationError(f"unknown function {node.func!r}")
            signal = self._local(self._reads, "r", name)
            return f"({name!r} in E and {signal} == {level})"
        if kind is ast.OthersAggregate:
            width = node.ty.width
            ones = self._const(BV((1 << width) - 1, width))
            zeros = self._const(BV(0, width))
            bit = self._value_of(node.value, patch, live)
            if bit is not _NOT_CONST:
                return ones if bit else zeros
            return f"({ones} if {self._expr(node.value, patch, live)} else {zeros})"
        raise SimulationError(f"cannot compile {kind.__name__}")

    def _binary(self, node: ast.Binary, patch: dict, live: bool) -> str:
        op = node.op
        left_type = patch.get(node.left.nid, node.left).ty
        left = self._expr(node.left, patch, live)
        right = self._expr(node.right, patch, live)
        if op in _BIT_OPS:
            if isinstance(left_type, ty.BooleanType):
                return _BOOL_OPS[op].format(left, right)
            if isinstance(left_type, ty.BitVectorType):
                return f"_apply_logical({op!r}, {left}, {right})"
            return _BIT_OPS[op].format(left, right)
        if op in ("=", "/="):
            if isinstance(left_type, ty.BitVectorType):
                equal = f"_values_equal({left}, {right})"
                return equal if op == "=" else f"(not {equal})"
            return f"({left} {'==' if op == '=' else '!='} {right})"
        if op in _PY_OPS:
            return f"({left} {op} {right})"
        if op in ("mod", "rem"):
            divisor = self._value_of(node.right, patch, live)
            if op == "mod" and type(divisor) is int and divisor != 0:
                return f"({left} % {right})"
            return f"_{op}({left}, {right})"
        if op == "&":
            return f"_concat({left}, {right})"
        raise SimulationError(f"unsupported binary operator {op!r}")
