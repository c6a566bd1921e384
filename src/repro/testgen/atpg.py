"""PODEM — deterministic test pattern generation for stuck-at faults.

Classic five-valued PODEM (Goel 1981) over the combinational netlist:
objective / backtrace / imply with a decision stack and a backtrack
limit.  Used by the validation-data-reuse experiment to measure "ATPG
effort" (backtracks, decisions) with and without a preloaded test set,
and usable standalone as a coverage top-up.

Each net carries one 4-bit dual-rail code for both machines (see
``_code``): D is good 1 / faulty 0, D' good 0 / faulty 1.  A gate is
one lookup in a 256-entry table indexed by its two input codes, which
evaluates the good and the faulty machine at once.  Implication is
event-driven: the first implication of a fault is one full topological
pass, every later one propagates only the primary inputs that changed
since, through their fanout in topological order (see
:meth:`Podem._imply`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.errors import AtpgError
from repro.fault.model import StuckAtFault
from repro.netlist.cells import INVERTING, GateType
from repro.netlist.levelize import topo_gates
from repro.netlist.netlist import Netlist
from repro.obs import metrics as _metrics


# -- dual-rail codes ------------------------------------------------------------
#
# Bit 0 is "good = 1", bit 1 "faulty = 1", bit 2 "good != 0" and bit 3
# "faulty != 0", so each machine reads 0 as (0, 0), 1 as (1, 1) and X as
# (0, 1).  Kleene AND is ``&`` and OR is ``|`` over both machines at once.

def _code(good: int | None, faulty: int | None) -> int:
    """The code of a (good, faulty) pair; ``None`` is X."""
    def rails(value):
        return (0, 0) if value == 0 else (1, 1) if value == 1 else (0, 1)
    g_one, g_maybe = rails(good)
    f_one, f_maybe = rails(faulty)
    return g_one | f_one << 1 | g_maybe << 2 | f_maybe << 3


def _value(one: int, maybe: int) -> int | None:
    return None if one != maybe else one


#: code -> the good / faulty machine's value (``None`` for X).
GOOD = tuple(_value(c & 1, c >> 2 & 1) for c in range(16))
FAULTY = tuple(_value(c >> 1 & 1, c >> 3 & 1) for c in range(16))

_X_CODE = _code(None, None)
#: PI value -> its code in both machines.
_PI_CODES = {None: _X_CODE, 0: _code(0, 0), 1: _code(1, 1)}
#: Masks of the good machine's rails, and a stuck value's faulty rails.
_GOOD_RAILS = 0b0101
_STUCK_RAILS = (0b0000, 0b1010)


def _not(c: int) -> int:
    # Per machine: the output is 1 where the input cannot be nonzero,
    # and may be nonzero where the input is not 1.
    return (~c >> 2 & 3) | (~c & 3) << 2


def _xor(x: int, y: int) -> int:
    # Per machine: 1 where one input is 1 and the other 0; may be
    # nonzero where one may be nonzero while the other is not 1.
    x_one, x_maybe, y_one, y_maybe = x & 3, x >> 2, y & 3, y >> 2
    one = (x_one & ~y_maybe) | (~x_maybe & y_one)
    maybe = (x_maybe & ~y_one) | (~x_one & y_maybe)
    return (one & 3) | (maybe & 3) << 2


#: gate type -> (fold over the inputs, invert the result).
_GATE_OPS = {
    GateType.AND: (lambda x, y: x & y, False),
    GateType.NAND: (lambda x, y: x & y, True),
    GateType.OR: (lambda x, y: x | y, False),
    GateType.NOR: (lambda x, y: x | y, True),
    GateType.XOR: (_xor, False),
    GateType.XNOR: (_xor, True),
}


def _pair_table(op, invert: bool) -> bytes:
    """``op`` over every (x, y) code pair, indexed by ``x << 4 | y``."""
    return bytes(
        _not(op(x, y)) if invert else op(x, y)
        for x in range(16) for y in range(16)
    )


def _unary_table(op) -> bytes:
    """A one-input gate's table; it reads only the low operand ``y``."""
    return bytes(op(y) for x in range(16) for y in range(16))


_FOLD_TABLES = {
    gate_type: _pair_table(op, False)
    for gate_type, (op, _) in _GATE_OPS.items()
}
#: gate type -> its table at two or more inputs (constants: at none).
_TABLES = {
    **{gate_type: _pair_table(op, invert)
       for gate_type, (op, invert) in _GATE_OPS.items()},
    GateType.CONST0: _unary_table(lambda y: _code(0, 0)),
    GateType.CONST1: _unary_table(lambda y: _code(1, 1)),
}
#: Tables of every one-input gate: BUF and NOT, or an n-ary type at one.
_BUFFER = _unary_table(lambda y: y)
_INVERTER = _unary_table(_not)

#: code -> both machines known.
_RESOLVED = tuple(
    GOOD[c] is not None and FAULTY[c] is not None for c in range(16)
)
#: code -> the good machine known.
_GOOD_KNOWN = tuple(GOOD[c] is not None for c in range(16))
#: code -> the line carries a (possibly partial) fault effect: X against
#: a value may still diverge, X against X may not.
_DIFFERS = tuple(GOOD[c] != FAULTY[c] for c in range(16))
#: code -> a primary output with this code detects the fault.
_DETECTS = tuple(_RESOLVED[c] and _DIFFERS[c] for c in range(16))


@dataclass
class AtpgFaultOutcome:
    fault: StuckAtFault
    status: str                # "detected" | "redundant" | "aborted"
    vector: int | None         # packed PI assignment (X bits filled with 0)
    decisions: int
    backtracks: int


@dataclass
class AtpgResult:
    outcomes: list[AtpgFaultOutcome] = field(default_factory=list)

    @property
    def detected(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "detected")

    @property
    def redundant(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "redundant")

    @property
    def aborted(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "aborted")

    @property
    def total_backtracks(self) -> int:
        return sum(o.backtracks for o in self.outcomes)

    @property
    def total_decisions(self) -> int:
        return sum(o.decisions for o in self.outcomes)

    @property
    def vectors(self) -> list[int]:
        return [
            o.vector for o in self.outcomes
            if o.status == "detected" and o.vector is not None
        ]


class Podem:
    """PODEM engine bound to one combinational netlist.

    Gates are addressed by their index in topological order.  Per gate
    the engine keeps a spec ``(table, a, b, fold, out)``: the output
    code is ``table[codes[a] << 4 | codes[b]]``, where a gate of three
    or more inputs first folds all but its last input into the ``a``
    operand (``fold`` is then ``(fold table, nets)``, else ``None``).
    One-input gates read ``b`` only; constants read nothing.  Per net
    the engine keeps the sorted indices of the gates that read it.
    """

    def __init__(self, netlist: Netlist, backtrack_limit: int = 2000):
        if netlist.dffs:
            raise AtpgError(
                "PODEM operates on combinational netlists only"
            )
        self._netlist = netlist
        self._order = topo_gates(netlist)
        self._inputs = netlist.input_bits          # ordered: _pack_vector
        self._input_set = frozenset(self._inputs)
        self._outputs = frozenset(netlist.output_bits)
        self._backtrack_limit = backtrack_limit
        self._index = {gate.gid: i for i, gate in enumerate(self._order)}
        #: gate-output net -> the driver's topo index
        self._driven = {gate.output: i for i, gate in enumerate(self._order)}
        self._ins = [tuple(gate.inputs) for gate in self._order]
        self._outs = [gate.output for gate in self._order]
        #: (PI net, value -> code) in input order
        self._pi_codes = [(nid, _PI_CODES) for nid in self._inputs]
        self._specs = [
            _spec(gate.gate_type, ins, out)
            for gate, ins, out in zip(self._order, self._ins, self._outs)
        ]
        loads: list[set[int]] = [set() for _ in range(netlist.num_nets)]
        for i, ins in enumerate(self._ins):
            for nid in ins:
                loads[nid].add(i)
        self._loads = [tuple(sorted(s)) for s in loads]
        #: gate-output net -> (inverts, inputs), for the backtrace
        self._drivers = {
            gate.output: (INVERTING.get(gate.gate_type, False),
                          tuple(gate.inputs) if not gate.gate_type.is_const
                          else None)
            for gate in netlist.gates
        }
        #: per topo index: 1 once queued in the current wave
        self._pending = bytearray(len(self._order))
        self._idle = bytes(len(self._order))
        #: origin -> _Cone; an origin is a topo index (gate) or ~net (PI)
        self._cones: dict[int, _Cone] = {}
        #: gate evaluations so far, for the ``gate_evals`` counter
        self._gate_evals = 0

    # -- public API ------------------------------------------------------------

    def generate(self, fault: StuckAtFault) -> AtpgFaultOutcome:
        """Find a vector detecting ``fault``, or prove it redundant."""
        state = self._new_state(fault)
        decisions = 0
        backtracks = 0
        stack: list[tuple[int, int, bool]] = []  # (pi net, value, flipped)
        while True:
            self._imply(state)
            if self._fault_detected(state):
                return AtpgFaultOutcome(
                    fault, "detected", self._pack_vector(state),
                    decisions, backtracks,
                )
            objective = self._objective(state)
            if objective is not None:
                pi, value = self._backtrace(state, *objective)
                stack.append((pi, value, False))
                state.assignments[pi] = value
                decisions += 1
                continue
            # No objective achievable: backtrack.
            while stack:
                pi, value, flipped = stack.pop()
                del state.assignments[pi]
                if not flipped:
                    backtracks += 1
                    if backtracks > self._backtrack_limit:
                        return AtpgFaultOutcome(
                            fault, "aborted", None, decisions, backtracks
                        )
                    stack.append((pi, value ^ 1, True))
                    state.assignments[pi] = value ^ 1
                    break
            else:
                return AtpgFaultOutcome(
                    fault, "redundant", None, decisions, backtracks
                )

    def run(self, faults: list[StuckAtFault]) -> AtpgResult:
        m = _metrics.active()
        started = time.monotonic() if m.enabled else 0.0
        evals_before = self._gate_evals
        result = AtpgResult([self.generate(fault) for fault in faults])
        if m.enabled:
            # Once per call: the implication loop stays untouched.
            m.counter("testgen.podem.faults", len(faults))
            m.counter("testgen.podem.decisions", result.total_decisions)
            m.counter("testgen.podem.backtracks", result.total_backtracks)
            m.counter(
                "testgen.podem.gate_evals", self._gate_evals - evals_before
            )
            m.observe("testgen.podem.seconds", time.monotonic() - started)
        return result

    # -- implication ----------------------------------------------------------

    def _new_state(self, fault: StuckAtFault) -> "_PodemState":
        """A fault's search state, with the fault injected.

        A stem fault on a gate output masks that gate's table to
        ``(code & good rails) | stuck rails``, so the faulty output is
        the stuck value even while the good one is X.  A branch fault
        moves the faulted pin to the ``b`` slot (every multi-input gate
        is commutative) and masks only that operand the same way.  A
        primary-input stem is injected where the PI's code is set, and
        only once the PI is assigned.
        """
        if fault.dff is not None:
            raise AtpgError("PODEM has no flip-flops to fault")
        if fault.gate is not None:
            origin = self._index[fault.gate]
        elif fault.net in self._driven:
            origin = self._driven[fault.net]
        else:
            origin = ~fault.net
        cone = self._cones.get(origin)
        if cone is None:
            cone = self._cones[origin] = self._cone(origin)
        specs, pi_codes = self._specs, self._pi_codes
        if origin >= 0:
            specs = list(specs)
            specs[origin] = _faulted_spec(
                self._order[origin].gate_type, self._ins[origin],
                self._outs[origin], fault,
            )
        else:
            stuck = _STUCK_RAILS[fault.stuck]
            faulted = {
                value: code if value is None
                else (code & _GOOD_RAILS) | stuck
                for value, code in _PI_CODES.items()
            }
            pi_codes = [
                (nid, faulted if nid == fault.net else to_code)
                for nid, to_code in pi_codes
            ]
        return _PodemState(fault, cone, origin, specs, pi_codes)

    def _cone(self, origin: int) -> "_Cone":
        """The gates and outputs a fault at ``origin`` can reach."""
        flags = bytearray(len(self._order))
        if origin >= 0:
            flags[origin] = 1
            frontier = [self._outs[origin]]
            nets = []
        else:
            frontier = [~origin]
            nets = [~origin]
        while frontier:
            nid = frontier.pop()
            for i in self._loads[nid]:
                if not flags[i]:
                    flags[i] = 1
                    frontier.append(self._outs[i])
        gates = tuple(i for i, flag in enumerate(flags) if flag)
        nets.extend(self._outs[i] for i in gates)
        outputs = tuple(nid for nid in nets if nid in self._outputs)
        return _Cone(gates, outputs)

    def _imply(self, state: "_PodemState") -> None:
        """Bring ``state.codes`` up to the assignments.

        The first call per fault is the full pass (:meth:`_imply_full`).
        Later calls diff each PI's code against the one implied last
        time (a PI changes X->v on a decision, v->v^1 on a flip and
        v->X on a pop) and re-evaluate only the gates those changes
        reach.  Queued gates are flags in a bytearray indexed by topo
        index, taken in ascending order with ``find``; since a gate's
        loads come after it, one forward scan is a topological wave,
        and the flags are cleared only when it ends.  A gate whose code
        comes out unchanged queues none of its loads, which stops the
        wave there; undoing a decision is just another wave.
        """
        codes = state.codes
        if codes is None:
            self._imply_full(state)
            return
        loads, pending = self._loads, self._pending
        value = state.assignments.get
        for nid, to_code in state.pi_codes:
            code = to_code[value(nid)]
            if code != codes[nid]:
                codes[nid] = code
                for j in loads[nid]:
                    pending[j] = 1
        specs = state.specs
        i = pending.find(1)
        while i >= 0:
            table, a, b, fold, out = specs[i]
            if fold is None:
                code = table[codes[a] << 4 | codes[b]]
            else:
                code = table[_fold(fold, codes) << 4 | codes[b]]
            if code != codes[out]:
                codes[out] = code
                for j in loads[out]:
                    pending[j] = 1
            i = pending.find(1, i + 1)
        # Every queued gate was evaluated once; clear the queue whole.
        self._gate_evals += pending.count(1)
        pending[:] = self._idle

    def _imply_full(self, state: "_PodemState") -> None:
        """One topological pass over every gate, from the assignments."""
        codes = [_X_CODE] * self._netlist.num_nets
        value = state.assignments.get
        for nid, to_code in state.pi_codes:
            codes[nid] = to_code[value(nid)]
        for table, a, b, fold, out in state.specs:
            if fold is None:
                codes[out] = table[codes[a] << 4 | codes[b]]
            else:
                codes[out] = table[_fold(fold, codes) << 4 | codes[b]]
        self._gate_evals += len(self._order)
        state.codes = codes

    # -- search ---------------------------------------------------------------

    def _fault_detected(self, state: "_PodemState") -> bool:
        codes = state.codes
        return any(_DETECTS[codes[nid]] for nid in state.cone.outputs)

    def _objective(self, state: "_PodemState") -> tuple[int, int] | None:
        """Next (net, value) objective, or None when stuck."""
        fault = state.fault
        site_good = GOOD[state.codes[fault.net]]
        if site_good is None:
            return fault.net, fault.stuck ^ 1
        if site_good == fault.stuck:
            return None  # site fixed at the stuck value: backtrack
        # Propagate: take the lowest-level D-frontier gate and set one
        # of its X inputs to the non-controlling value.
        i = self._d_frontier(state)
        if i is None:
            return None
        codes = state.codes
        for nid in self._ins[i]:
            if not _GOOD_KNOWN[codes[nid]]:
                return nid, _non_controlling(self._order[i].gate_type)
        return None

    def _d_frontier(self, state: "_PodemState") -> int | None:
        """The topo index of the first D-frontier gate, if any.

        Only the fault's output cone can carry a fault effect (outside
        it the two machines agree net for net), so only it is scanned.
        """
        codes, outs, ins_of = state.codes, self._outs, self._ins
        fault = state.fault
        branch = state.origin if fault.gate is not None else -1
        for i in state.cone.gates:
            # Resolved outputs (both machines known) need no help; the
            # half-known case (one machine pinned by a controlling value
            # on the faulty side only) still belongs to the frontier.
            if _RESOLVED[codes[outs[i]]]:
                continue
            ins = ins_of[i]
            if all(_GOOD_KNOWN[codes[nid]] for nid in ins):
                continue
            for pin, nid in enumerate(ins):
                code = codes[nid]
                # Branch faults inject only into the faulted gate's view
                # of its pin, so the net's own code is not enough.
                if i == branch and pin == fault.pin:
                    code = (code & _GOOD_RAILS) | state.stuck_rails
                if _DIFFERS[code]:
                    return i
        return None

    def _backtrace(
        self, state: "_PodemState", net: int, value: int
    ) -> tuple[int, int]:
        """Walk the objective back to an unassigned primary input."""
        codes = state.codes
        current, want = net, value
        guard = 0
        while current not in self._input_set:
            guard += 1
            if guard > 10 * len(self._order) + 10:
                raise AtpgError("backtrace did not reach a primary input")
            driver = self._drivers.get(current)
            if driver is None:
                raise AtpgError(
                    f"net {self._netlist.net_name(current)!r} has no driver"
                )
            inverts, inputs = driver
            if inputs is None:
                raise AtpgError("objective requires changing a constant")
            want ^= inverts
            for nid in inputs:
                if not _GOOD_KNOWN[codes[nid]]:
                    current = nid
                    break
            else:
                # Shouldn't happen (objective net was X); pick input 0.
                current = inputs[0]
        return current, want

    def _pack_vector(self, state: "_PodemState") -> int:
        packed = 0
        for nid in self._inputs:
            bit = state.assignments.get(nid, 0) or 0
            packed = (packed << 1) | bit
        return packed


@dataclass(frozen=True)
class _Cone:
    """A fault origin's output cone, memoised per :class:`Podem`."""

    gates: tuple[int, ...]      # the cone's topo indices, ascending
    outputs: tuple[int, ...]    # primary outputs inside the cone


class _PodemState:
    """One fault's search state: the PI assignment and both machines.

    ``origin`` is the topo index of the gate that injects the fault
    (the faulted gate of a branch fault, the driver of a stem), or
    ``~net`` for a primary-input stem.  ``specs`` and ``pi_codes`` are
    the engine's, with the fault injected: the origin gate's spec is
    its faulted spec, and a faulted PI maps an assigned value to the
    stuck value in the faulty machine.  ``codes`` is indexed by net id
    and stays ``None`` until the first implication.
    """

    def __init__(self, fault: StuckAtFault, cone: _Cone, origin: int,
                 specs: list, pi_codes: list):
        self.fault = fault
        self.cone = cone
        self.origin = origin
        self.specs = specs
        self.pi_codes = pi_codes
        self.stuck_rails = _STUCK_RAILS[fault.stuck]
        self.assignments: dict[int, int] = {}
        self.codes: list[int] | None = None


def _spec(gate_type: GateType, ins: tuple[int, ...], out: int) -> tuple:
    """A gate's ``(table, a, b, fold, out)`` evaluation spec."""
    if not ins:                         # constants read no operand
        return _TABLES[gate_type], out, out, None, out
    if len(ins) == 1:
        table = _INVERTER if INVERTING[gate_type] else _BUFFER
        return table, ins[0], ins[0], None, out
    table = _TABLES[gate_type]
    if len(ins) == 2:
        return table, ins[0], ins[1], None, out
    return table, ins[0], ins[-1], (_FOLD_TABLES[gate_type], ins[:-1]), out


def _faulted_spec(gate_type: GateType, ins: tuple[int, ...], out: int,
                  fault: StuckAtFault) -> tuple:
    """A gate's spec with ``fault`` injected (see ``Podem._new_state``)."""
    stuck = _STUCK_RAILS[fault.stuck]
    if fault.gate is None:
        table, a, b, fold, out = _spec(gate_type, ins, out)
        return (bytes((c & _GOOD_RAILS) | stuck for c in table),
                a, b, fold, out)
    order = list(ins)
    order[fault.pin], order[-1] = order[-1], order[fault.pin]
    table, a, b, fold, out = _spec(gate_type, tuple(order), out)
    masked = bytes(
        table[x << 4 | (y & _GOOD_RAILS) | stuck]
        for x in range(16) for y in range(16)
    )
    return masked, a, b, fold, out


def _fold(fold: tuple, codes: list[int]) -> int:
    """All but the last input of a 3+ input gate, folded to one code."""
    table, nets = fold
    code = codes[nets[0]]
    for nid in nets[1:]:
        code = table[code << 4 | codes[nid]]
    return code


def _non_controlling(gate_type: GateType) -> int:
    if gate_type in (GateType.AND, GateType.NAND):
        return 1
    if gate_type in (GateType.OR, GateType.NOR):
        return 0
    return 1  # XOR-ish: either value can help; pick 1
