"""PODEM — deterministic test pattern generation for stuck-at faults.

Classic five-valued PODEM (Goel 1981) over the combinational netlist:
objective / backtrace / imply with a decision stack and a backtrack
limit.  Used by the validation-data-reuse experiment to measure "ATPG
effort" (backtracks, decisions) with and without a preloaded test set,
and usable standalone as a coverage top-up.

Values are encoded as (good, faulty) bit pairs with ``None`` for X:
D = (1, 0), D' = (0, 1).  Implication is event-driven: the first
implication of a fault is one full topological pass, every later one
propagates only the primary inputs that changed since, through their
fanout in topological order (see :meth:`Podem._imply`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from heapq import heappop, heappush

from repro.errors import AtpgError
from repro.fault.model import StuckAtFault
from repro.netlist.cells import GateType
from repro.netlist.levelize import topo_gates
from repro.netlist.netlist import Gate, Netlist
from repro.obs import metrics as _metrics

_X = None


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
    the engine keeps its evaluator, input nets and output net; per net,
    the sorted indices of the gates that read it.
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
        self._drivers: dict[int, Gate] = {
            gate.output: gate for gate in netlist.gates
        }
        self._index = {gate.gid: i for i, gate in enumerate(self._order)}
        self._evals = [_EVALUATORS[gate.gate_type] for gate in self._order]
        self._ins = [tuple(gate.inputs) for gate in self._order]
        self._outs = [gate.output for gate in self._order]
        loads: list[set[int]] = [set() for _ in range(netlist.num_nets)]
        for i, ins in enumerate(self._ins):
            for nid in ins:
                loads[nid].add(i)
        self._loads = [tuple(sorted(s)) for s in loads]
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
        if fault.dff is not None:
            raise AtpgError("PODEM has no flip-flops to fault")
        if fault.gate is not None:
            origin = self._index[fault.gate]
        elif fault.net in self._drivers:
            origin = self._index[self._drivers[fault.net].gid]
        else:
            origin = ~fault.net
        cone = self._cones.get(origin)
        if cone is None:
            cone = self._cones[origin] = self._cone(origin)
        return _PodemState(fault, cone, origin)

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
        return _Cone(flags, gates, outputs)

    def _imply(self, state: "_PodemState") -> None:
        """Bring ``state.good``/``state.faulty`` up to the assignments.

        The first call per fault is the full pass (:meth:`_imply_full`).
        Later calls diff the PI assignment against the values implied
        last time (a PI changes X->v on a decision, v->v^1 on a flip
        and v->X on a pop) and re-evaluate only the gates those changes
        reach, in topological order.  A gate whose (good, faulty) pair
        comes out unchanged schedules none of its loads, which stops
        the wave there; undoing a decision is just another wave.
        """
        good, faulty = state.good, state.faulty
        if good is None:
            self._imply_full(state)
            return
        assignments = state.assignments
        loads = self._loads
        scheduled: set[int] = set()
        heap: list[int] = []
        for nid in self._inputs:
            value = assignments.get(nid, _X)
            if value == good[nid]:
                continue
            good[nid] = value
            faulty[nid] = state.pi_faulty(nid, value)
            for i in loads[nid]:
                if i not in scheduled:
                    scheduled.add(i)
                    heappush(heap, i)
        evals, ins_of, outs = self._evals, self._ins, self._outs
        flags, origin = state.cone.flags, state.origin
        while heap:
            i = heappop(heap)
            ins = ins_of[i]
            g_out = evals[i](good, ins)
            if i == origin:
                f_out = state.origin_faulty(evals[i], faulty, ins)
            elif flags[i]:
                f_out = evals[i](faulty, ins)
            else:
                f_out = g_out
            out = outs[i]
            if g_out == good[out] and f_out == faulty[out]:
                continue
            good[out] = g_out
            faulty[out] = f_out
            for j in loads[out]:
                if j not in scheduled:
                    scheduled.add(j)
                    heappush(heap, j)
        self._gate_evals += len(scheduled)

    def _imply_full(self, state: "_PodemState") -> None:
        """One topological pass over every gate, from the assignments.

        Injection rules: a branch fault replaces only the faulted
        gate's view of its pin; a gate-output stem fault forces the
        faulty output to the stuck value even while the good value is
        X; a primary-input stem fault makes the faulty PI the stuck
        value once the PI is assigned and X while it is not.  Outside
        the gates only detection and the D-frontier read that value,
        and both read a PI stem only once it is assigned.
        """
        size = self._netlist.num_nets
        good: list[int | None] = [_X] * size
        faulty: list[int | None] = [_X] * size
        for nid in self._inputs:
            value = state.assignments.get(nid, _X)
            good[nid] = value
            faulty[nid] = state.pi_faulty(nid, value)
        flags, origin = state.cone.flags, state.origin
        for i, (evaluate, ins, out) in enumerate(
            zip(self._evals, self._ins, self._outs)
        ):
            g_out = good[out] = evaluate(good, ins)
            if i == origin:
                faulty[out] = state.origin_faulty(evaluate, faulty, ins)
            elif flags[i]:
                faulty[out] = evaluate(faulty, ins)
            else:
                faulty[out] = g_out
        self._gate_evals += len(self._order)
        state.good = good
        state.faulty = faulty

    # -- search ---------------------------------------------------------------

    def _fault_detected(self, state: "_PodemState") -> bool:
        good, faulty = state.good, state.faulty
        for nid in state.cone.outputs:
            g_val = good[nid]
            if g_val is not _X and faulty[nid] is not _X \
                    and g_val != faulty[nid]:
                return True
        return False

    def _fault_activated(self, state: "_PodemState") -> bool:
        fault = state.fault
        site_good = state.good[fault.net]
        return site_good is not _X and site_good != fault.stuck

    def _objective(self, state: "_PodemState") -> tuple[int, int] | None:
        """Next (net, value) objective, or None when stuck."""
        fault = state.fault
        site = fault.net
        if state.good[site] is _X:
            return site, fault.stuck ^ 1
        if not self._fault_activated(state):
            return None  # site fixed at the stuck value: backtrack
        # Propagate: take the lowest-level D-frontier gate and set one
        # of its X inputs to the non-controlling value.
        gate = self._d_frontier(state)
        if gate is None:
            return None
        for nid in gate.inputs:
            if state.good[nid] is _X:
                return nid, _non_controlling(gate.gate_type)
        return None

    def _d_frontier(self, state: "_PodemState") -> Gate | None:
        """The first D-frontier gate in topological order, if any.

        Only the fault's output cone can carry a fault effect (outside
        it the two machines agree net for net), so only it is scanned.
        """
        good, faulty = state.good, state.faulty
        fault = state.fault
        branch = state.origin if fault.gate is not None else -1
        for i in state.cone.gates:
            out = self._outs[i]
            # Resolved outputs (both machines known) need no help; the
            # half-known case (one machine pinned by a controlling value
            # on the faulty side only) still belongs to the frontier.
            if good[out] is not _X and faulty[out] is not _X:
                continue
            ins = self._ins[i]
            if all(good[nid] is not _X for nid in ins):
                continue
            for pin, nid in enumerate(ins):
                # Branch faults inject only into the faulted gate's view
                # of its pin, so the net's faulty value is not enough.
                faulty_in = (
                    fault.stuck if i == branch and pin == fault.pin
                    else faulty[nid]
                )
                if _differs(good[nid], faulty_in):
                    return self._order[i]
        return None

    def _backtrace(
        self, state: "_PodemState", net: int, value: int
    ) -> tuple[int, int]:
        """Walk the objective back to an unassigned primary input."""
        current, want = net, value
        guard = 0
        while current not in self._input_set:
            guard += 1
            if guard > 10 * len(self._order) + 10:
                raise AtpgError("backtrace did not reach a primary input")
            gate = self._drivers.get(current)
            if gate is None:
                raise AtpgError(
                    f"net {self._netlist.net_name(current)!r} has no driver"
                )
            if gate.gate_type.is_const:
                raise AtpgError("objective requires changing a constant")
            want = want ^ (1 if _inverts(gate.gate_type) else 0)
            x_inputs = [
                nid for nid in gate.inputs if state.good[nid] is _X
            ]
            if not x_inputs:
                # Shouldn't happen (objective net was X); pick input 0.
                x_inputs = [gate.inputs[0]]
            current = x_inputs[0]
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

    flags: bytearray            # per topo index: 1 if in the cone
    gates: tuple[int, ...]      # the cone's topo indices, ascending
    outputs: tuple[int, ...]    # primary outputs inside the cone


class _PodemState:
    """One fault's search state: the PI assignment and both machines.

    ``origin`` is the topo index of the gate that injects the fault
    (the faulted gate of a branch fault, the driver of a stem), or
    ``~net`` for a primary-input stem.  ``good``/``faulty`` are indexed
    by net id and stay ``None`` until the first implication.
    """

    def __init__(self, fault: StuckAtFault, cone: _Cone, origin: int):
        self.fault = fault
        self.cone = cone
        self.origin = origin
        self.assignments: dict[int, int] = {}
        self.good: list[int | None] | None = None
        self.faulty: list[int | None] | None = None

    def pi_faulty(self, nid: int, value: int | None) -> int | None:
        """The faulty machine's value of primary input ``nid``."""
        if value is not _X and ~nid == self.origin:
            return self.fault.stuck
        return value

    def origin_faulty(self, evaluate, faulty, ins) -> int | None:
        """The faulty output of the origin gate."""
        fault = self.fault
        if fault.gate is None:
            return fault.stuck
        view = [faulty[nid] for nid in ins]
        view[fault.pin] = fault.stuck
        return evaluate(view, range(len(view)))


def _differs(good: int | None, faulty: int | None) -> bool:
    """Whether a line carries a (possibly partial) fault effect."""
    if good is _X and faulty is _X:
        return False
    if good is _X or faulty is _X:
        return True  # may still diverge: worth driving through
    return good != faulty


# -- three-valued gate evaluation (X = None) ---------------------------------
#
# Each evaluator reads ``values[nid]`` for every input net ``nid`` of
# ``ins``.  AND/OR return on the first controlling input; XOR on the
# first X.


def _and(values, ins):
    out = 1
    for nid in ins:
        value = values[nid]
        if value == 0:
            return 0
        if value is _X:
            out = _X
    return out


def _or(values, ins):
    out = 0
    for nid in ins:
        value = values[nid]
        if value == 1:
            return 1
        if value is _X:
            out = _X
    return out


def _xor(values, ins):
    parity = 0
    for nid in ins:
        value = values[nid]
        if value is _X:
            return _X
        parity ^= value
    return parity


def _inverted(evaluate):
    def inverted(values, ins):
        out = evaluate(values, ins)
        return _X if out is _X else out ^ 1
    return inverted


_EVALUATORS = {
    GateType.AND: _and,
    GateType.NAND: _inverted(_and),
    GateType.OR: _or,
    GateType.NOR: _inverted(_or),
    GateType.XOR: _xor,
    GateType.XNOR: _inverted(_xor),
    GateType.BUF: _xor,
    GateType.NOT: _inverted(_xor),
    GateType.CONST0: lambda values, ins: 0,
    GateType.CONST1: lambda values, ins: 1,
}


def _non_controlling(gate_type: GateType) -> int:
    if gate_type in (GateType.AND, GateType.NAND):
        return 1
    if gate_type in (GateType.OR, GateType.NOR):
        return 0
    return 1  # XOR-ish: either value can help; pick 1


def _inverts(gate_type: GateType) -> bool:
    return gate_type in (GateType.NAND, GateType.NOR, GateType.NOT,
                         GateType.XNOR)
