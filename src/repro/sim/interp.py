"""Expression evaluation and statement execution with mutant patching.

The evaluator resolves every node through a *patch table* (``nid`` ->
replacement node) before interpreting it, which is how mutants execute
without copying the design (mutant schema).  Runtime type errors caused
by patched nodes (out-of-range writes, division by zero, bad indexes)
raise :class:`repro.errors.MutantRuntimeError`, which the mutation engine
counts as a kill.
"""

from __future__ import annotations

import operator

from repro.errors import MutantRuntimeError, SimulationError
from repro.hdl import ast
from repro.hdl import types as ty
from repro.hdl.design import Symbol, SymbolKind
from repro.hdl.values import BV


class ExecContext:
    """Mutable state one process activation sees.

    ``values`` are the current signals and ``scheduled`` this delta's
    updates; ``variables`` persists across process activations (VHDL
    semantics); ``loop_stack`` holds for-loop variable bindings.
    """

    __slots__ = ("values", "scheduled", "variables", "events", "loop_stack")

    def __init__(self, values, scheduled, variables, events):
        self.values = values
        self.scheduled = scheduled
        self.variables = variables
        self.events = events
        self.loop_stack: list[tuple[str, int]] = []

    def loop_value(self, name: str) -> int:
        for var, value in reversed(self.loop_stack):
            if var == name:
                return value
        raise SimulationError(f"unbound loop variable {name!r}")


class Evaluator:
    """Interprets (possibly patched) process bodies."""

    def __init__(self, patch: dict[int, ast.Node] | None = None):
        self._patch = patch if patch is not None else {}

    # -- patch plumbing ------------------------------------------------------

    def resolve(self, node: ast.Node) -> ast.Node:
        if not self._patch:
            return node
        return self._patch.get(node.nid, node)

    def exec_process(self, process, values: dict, variables: dict,
                     scheduled: dict, events) -> None:
        """One activation of ``process`` (the executor interface of
        :class:`repro.sim.scheduler.Simulator`)."""
        self.exec_body(
            process.body, ExecContext(values, scheduled, variables, events)
        )

    # -- statements ----------------------------------------------------------

    def exec_body(self, body: list[ast.Stmt], ctx: ExecContext) -> None:
        for stmt in body:
            self.exec_stmt(stmt, ctx)

    def exec_stmt(self, stmt: ast.Stmt, ctx: ExecContext) -> None:
        stmt = self.resolve(stmt)
        if isinstance(stmt, ast.SignalAssign):
            value = self.eval(stmt.value, ctx)
            self._assign(stmt.target, value, ctx, signal=True)
        elif isinstance(stmt, ast.VarAssign):
            value = self.eval(stmt.value, ctx)
            self._assign(stmt.target, value, ctx, signal=False)
        elif isinstance(stmt, ast.If):
            for cond, body in stmt.arms:
                if self._truth(self.eval(cond, ctx)):
                    self.exec_body(body, ctx)
                    return
            self.exec_body(stmt.else_body, ctx)
        elif isinstance(stmt, ast.Case):
            self._exec_case(stmt, ctx)
        elif isinstance(stmt, ast.ForLoop):
            self._exec_for(stmt, ctx)
        elif isinstance(stmt, ast.NullStmt):
            pass
        else:  # pragma: no cover - analyzer rejects other statements
            raise SimulationError(f"cannot execute {type(stmt).__name__}")

    def _exec_case(self, stmt: ast.Case, ctx: ExecContext) -> None:
        selector = self.eval(stmt.selector, ctx)
        others_body = None
        for when in stmt.whens:
            if when.is_others:
                others_body = when.body
                continue
            for choice in when.choices:
                if self._values_equal(self.eval(choice, ctx), selector):
                    self.exec_body(when.body, ctx)
                    return
        if others_body is not None:
            self.exec_body(others_body, ctx)

    def _exec_for(self, stmt: ast.ForLoop, ctx: ExecContext) -> None:
        low = self.eval(stmt.low, ctx)
        high = self.eval(stmt.high, ctx)
        if stmt.direction == "to":
            values = range(low, high + 1)
        else:
            values = range(low, high - 1, -1)
        ctx.loop_stack.append((stmt.var, 0))
        try:
            for value in values:
                ctx.loop_stack[-1] = (stmt.var, value)
                self.exec_body(stmt.body, ctx)
        finally:
            ctx.loop_stack.pop()

    def _assign(
        self, target: ast.Expr, value, ctx: ExecContext, signal: bool
    ) -> None:
        target = self.resolve(target)
        store = ctx.scheduled if signal else ctx.variables
        if isinstance(target, ast.Name):
            store[target.symbol.name] = _coerce(value, target.symbol.ty)
            return
        if isinstance(target, (ast.Index, ast.Slice)):
            symbol = target.prefix.symbol
            name = symbol.name
            # A partial signal update builds on this delta's pending value.
            current = store[name] if name in store else ctx.values[name]
            if isinstance(target, ast.Index):
                offset = _bit_offset(symbol.ty, self.eval(target.index, ctx))
                store[name] = current.with_bit(offset, _coerce(value, ty.BIT))
                return
            high = _bit_offset(symbol.ty, self.eval(target.left, ctx))
            low = _bit_offset(symbol.ty, self.eval(target.right, ctx))
            if not isinstance(value, BV) or value.width != high - low + 1:
                raise MutantRuntimeError("slice assignment width mismatch")
            store[name] = current.with_slice(high, low, value)
            return
        raise SimulationError(
            f"unsupported assignment target {type(target).__name__}"
        )

    # -- expressions -----------------------------------------------------------

    def eval(self, node: ast.Expr, ctx: ExecContext):
        node = self.resolve(node)
        kind = type(node)
        if kind is ast.Name:
            symbol: Symbol = node.symbol
            sym_kind = symbol.kind
            if sym_kind in (SymbolKind.CONSTANT, SymbolKind.ENUM_LITERAL):
                return symbol.init
            if sym_kind is SymbolKind.VARIABLE:
                return ctx.variables[symbol.name]
            if sym_kind is SymbolKind.LOOP_VAR:
                return ctx.loop_value(symbol.name)
            return ctx.values[symbol.name]
        if kind is ast.IntLit or kind is ast.BitLit or kind is ast.BoolLit:
            return node.value
        if kind is ast.BitStringLit:
            return BV.from_string(node.bits)
        if kind is ast.EnumLit:
            return node.index
        if kind is ast.Binary:
            return self._eval_binary(node, ctx)
        if kind is ast.Unary:
            return self._eval_unary(node, ctx)
        if kind is ast.Index:
            vector = self.eval(node.prefix, ctx)
            index = self.eval(node.index, ctx)
            prefix = self.resolve(node.prefix)
            offset = _bit_offset(_vector_type(prefix), index)
            return vector.bit(offset)
        if kind is ast.Slice:
            vector = self.eval(node.prefix, ctx)
            left = self.eval(node.left, ctx)
            right = self.eval(node.right, ctx)
            prefix = self.resolve(node.prefix)
            vec_type = _vector_type(prefix)
            return vector.slice(
                _bit_offset(vec_type, left), _bit_offset(vec_type, right)
            )
        if kind is ast.Attribute:
            # Only 'event is supported: true when the prefix signal changed
            # in the commit that triggered this activation.
            prefix = self.resolve(node.prefix)
            return prefix.symbol.name in ctx.events
        if kind is ast.Call:
            signal = self.resolve(node.args[0])
            name = signal.symbol.name
            if node.func == "rising_edge":
                return name in ctx.events and ctx.values[name] == 1
            if node.func == "falling_edge":
                return name in ctx.events and ctx.values[name] == 0
            raise SimulationError(f"unknown function {node.func!r}")
        if kind is ast.OthersAggregate:
            bit = self.eval(node.value, ctx)
            width = node.ty.width
            return BV((1 << width) - 1 if bit else 0, width)
        raise SimulationError(f"cannot evaluate {kind.__name__}")

    def _eval_unary(self, node: ast.Unary, ctx: ExecContext):
        value = self.eval(node.operand, ctx)
        op = node.op
        if op == "not":
            if value is True or value is False:
                return not value
            if isinstance(value, BV):
                return BV(~value.value, value.width)
            return value ^ 1
        if op == "-":
            return -value
        raise SimulationError(f"unsupported unary operator {op!r}")

    def _eval_binary(self, node: ast.Binary, ctx: ExecContext):
        op = node.op
        left = self.eval(node.left, ctx)
        if left is _SHORT_CIRCUIT.get(op):
            # Boolean and/or/nand/nor short-circuit (as in VHDL): the
            # right operand, which may raise, is never evaluated.
            return left if op in ("and", "or") else not left
        right = self.eval(node.right, ctx)
        if op in _LOGICAL:
            return _apply_logical(op, left, right)
        if op == "=":
            return self._values_equal(left, right)
        if op == "/=":
            return not self._values_equal(left, right)
        if op in _ARITHMETIC:
            return _ARITHMETIC[op](left, right)
        if op == "&":
            return _concat(left, right)
        raise SimulationError(f"unsupported binary operator {op!r}")

    @staticmethod
    def _values_equal(left, right) -> bool:
        if isinstance(left, BV) or isinstance(right, BV):
            if not (isinstance(left, BV) and isinstance(right, BV)):
                raise MutantRuntimeError("comparing vector with scalar")
            if left.width != right.width:
                raise MutantRuntimeError("comparing vectors of unequal width")
            return left.value == right.value
        return left == right

    @staticmethod
    def _truth(value) -> bool:
        if value is True or value is False:
            return value
        raise MutantRuntimeError(f"condition is not boolean: {value!r}")


_LOGICAL = frozenset({"and", "or", "nand", "nor", "xor", "xnor"})
#: Boolean left-operand values that decide a connective on their own.
_SHORT_CIRCUIT = {"and": False, "nand": False, "or": True, "nor": True}


def _mod(dividend, divisor):
    if divisor == 0:
        raise MutantRuntimeError("mod by zero")
    return dividend % divisor


def _rem(dividend, divisor):
    if divisor == 0:
        raise MutantRuntimeError("rem by zero")
    return dividend - divisor * int(dividend / divisor)


#: Integer operators evaluated as Python's (``mod``/``rem`` checked).
_ARITHMETIC = {
    "<": operator.lt, "<=": operator.le, ">": operator.gt,
    ">=": operator.ge, "+": operator.add, "-": operator.sub,
    "*": operator.mul, "mod": _mod, "rem": _rem,
}


def _apply_logical(op: str, left, right):
    if isinstance(left, bool) and isinstance(right, bool):
        truth = {
            "and": left and right,
            "or": left or right,
            "nand": not (left and right),
            "nor": not (left or right),
            "xor": left != right,
            "xnor": left == right,
        }
        return truth[op]
    if isinstance(left, BV) and isinstance(right, BV):
        if left.width != right.width:
            raise MutantRuntimeError("logical op on vectors of unequal width")
        raw = _bitwise(op, left.value, right.value)
        return BV(raw, left.width)
    if isinstance(left, int) and isinstance(right, int):
        return _bitwise(op, left, right) & 1
    raise MutantRuntimeError(
        f"logical operator {op!r} on mixed operand kinds"
    )


def _bitwise(op: str, a: int, b: int) -> int:
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "nand":
        return ~(a & b)
    if op == "nor":
        return ~(a | b)
    return ~(a ^ b)  # xnor


def _concat(left, right) -> BV:
    left_bv = left if isinstance(left, BV) else BV(left, 1)
    right_bv = right if isinstance(right, BV) else BV(right, 1)
    return left_bv.concat(right_bv)


def _vector_type(prefix: ast.Expr) -> ty.BitVectorType:
    if isinstance(prefix.ty, ty.BitVectorType):
        return prefix.ty
    raise MutantRuntimeError("indexing a non-vector value")


def _bit_offset(vec_type: ty.HdlType, index: int) -> int:
    if not isinstance(vec_type, ty.BitVectorType):
        raise MutantRuntimeError("indexing a non-vector value")
    try:
        return vec_type.bit_index(index)
    except ValueError as exc:
        raise MutantRuntimeError(str(exc)) from None


def _coerce(value, target_type: ty.HdlType):
    """Range/width-check ``value`` against ``target_type``.

    Out-of-range results become :class:`MutantRuntimeError` so mutant
    execution reports a kill instead of corrupting state.
    """
    if isinstance(target_type, ty.BitType):
        if value in (0, 1) and not isinstance(value, bool):
            return value
        raise MutantRuntimeError(f"cannot assign {value!r} to bit")
    if isinstance(target_type, ty.BooleanType):
        if isinstance(value, bool):
            return value
        raise MutantRuntimeError(f"cannot assign {value!r} to boolean")
    if isinstance(target_type, ty.IntegerType):
        if isinstance(value, int) and not isinstance(value, bool):
            if target_type.contains(value):
                return value
            raise MutantRuntimeError(
                f"value {value} outside {target_type}"
            )
        raise MutantRuntimeError(f"cannot assign {value!r} to integer")
    if isinstance(target_type, ty.EnumType):
        if isinstance(value, int) and 0 <= value < len(target_type.literals):
            return value
        raise MutantRuntimeError(f"cannot assign {value!r} to {target_type}")
    if isinstance(target_type, ty.BitVectorType):
        if isinstance(value, BV) and value.width == target_type.width:
            return value
        raise MutantRuntimeError(f"cannot assign {value!r} to {target_type}")
    raise SimulationError(f"unknown target type {target_type!r}")

