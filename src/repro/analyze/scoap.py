"""SCOAP testability scoring, ternary constants, observability.

Three classic static analyses over the levelized netlist, bundled in a
:class:`TestabilityAnalysis`:

* **Ternary constant propagation** — every net is ``0``, ``1`` or ``X``
  (unknown).  Primary inputs start at ``X``; DFF outputs start at their
  architectural reset value and are demoted to ``X`` whenever the
  computed next-state value disagrees, iterated to a (monotone)
  fixpoint.  A net that ends ``0``/``1`` provably holds that value in
  *every* reachable state under *every* input — the proof is an
  induction from the reset state, which is exactly where the fault
  simulators start.
* **Structural observability** — a net is *observable* when a path of
  gate-input -> gate-output and DFF-D -> DFF-Q edges connects it to a
  primary output.  A net with no such path can never be observed, in
  the fault-free or any faulty machine: no mechanism exists by which
  its value participates in an output.  (The converse is not claimed —
  a structurally observable net may still be untestable.)
* **SCOAP controllability/observability** — the Goldstein measures:
  ``CC0``/``CC1`` count the (minimum) effort to set a net to 0/1,
  ``CO`` the effort to propagate it to an output, both iterated across
  flip-flop boundaries to a fixpoint.  These are *heuristic ranks*
  (higher = harder to test) consumed by the ``testability`` sampling
  strategy and the ``repro analyze`` report; only the two analyses
  above feed the untestable-fault pruning, because only they are
  sound.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.netlist.cells import GateType
from repro.netlist.levelize import topo_gates
from repro.netlist.netlist import DFF, Gate, Netlist

#: Cost assigned to "cannot be done" (uncontrollable value); all SCOAP
#: arithmetic saturates here so feedback iterations terminate.
INF = 1 << 20

#: Ternary unknown.
X = None


@dataclass
class TestabilityAnalysis:
    """Per-net static testability facts for one netlist."""

    netlist: Netlist
    #: net id -> proven constant value (0/1); absent means unknown.
    constants: dict[int, int]
    #: net ids with a structural path to a primary output.
    observable: frozenset[int]
    cc0: dict[int, int]
    cc1: dict[int, int]
    co: dict[int, int]

    def is_observable(self, nid: int) -> bool:
        return nid in self.observable

    def difficulty(self, nid: int) -> int:
        """Combined SCOAP rank of one net (higher = harder to test).

        ``min(CC0, CC1)`` is the cheaper activation polarity; adding
        ``CO`` gives the classical detect-cost estimate for the easier
        stuck-at fault on the net, saturated at :data:`INF`.
        """
        control = min(self.cc0.get(nid, INF), self.cc1.get(nid, INF))
        return min(INF, control + self.co.get(nid, INF))

    def summary(self) -> dict:
        """JSON-ready aggregate view (the ``repro analyze`` payload)."""
        nets = range(len(self.netlist.nets))
        finite = [
            self.difficulty(n) for n in nets if self.difficulty(n) < INF
        ]
        return {
            "nets": len(self.netlist.nets),
            "constant_nets": sorted(self.constants),
            "unobservable_nets": sorted(
                n for n in nets if n not in self.observable
            ),
            "max_difficulty": max(finite, default=0),
            "mean_difficulty": (
                round(sum(finite) / len(finite), 2) if finite else 0.0
            ),
        }


def analyze_testability(netlist: Netlist) -> TestabilityAnalysis:
    """Run all three analyses; see the module docstring."""
    ordered = topo_gates(netlist)
    constants = constant_nets(netlist, ordered)
    observable = observable_nets(netlist)
    cc0, cc1 = _controllability(netlist, ordered)
    co = _observability_cost(netlist, ordered, cc0, cc1)
    return TestabilityAnalysis(
        netlist=netlist,
        constants=constants,
        observable=observable,
        cc0=cc0,
        cc1=cc1,
        co=co,
    )


# -- ternary constants --------------------------------------------------------

def eval_ternary(gate_type: GateType, values: list[int | None]) -> int | None:
    """Evaluate one gate over 0/1/X values (X = :data:`None`)."""
    if gate_type is GateType.CONST0:
        return 0
    if gate_type is GateType.CONST1:
        return 1
    if gate_type in (GateType.NOT, GateType.BUF):
        value = values[0]
        if gate_type is GateType.BUF:
            return value
        return X if value is X else 1 - value
    if gate_type in (GateType.AND, GateType.NAND):
        if any(v == 0 for v in values):
            out = 0
        elif all(v == 1 for v in values):
            out = 1
        else:
            return X
    elif gate_type in (GateType.OR, GateType.NOR):
        if any(v == 1 for v in values):
            out = 1
        elif all(v == 0 for v in values):
            out = 0
        else:
            return X
    elif gate_type in (GateType.XOR, GateType.XNOR):
        if any(v is X for v in values):
            return X
        out = 0
        for v in values:
            out ^= v
    else:
        return X
    if gate_type in (GateType.NAND, GateType.NOR, GateType.XNOR):
        out = 1 - out
    return out


def constant_nets(
    netlist: Netlist, ordered: list[Gate] | None = None
) -> dict[int, int]:
    """Nets provably constant in every reachable state (see module doc)."""
    if ordered is None:
        ordered = topo_gates(netlist)
    values: dict[int, int | None] = {
        nid: X for nid in netlist.input_bits
    }
    # Optimistic start: every flip-flop sits at its reset value; each
    # sweep demotes Q nets whose computed D disagrees.  Demotion is
    # monotone (0/1 -> X, never back), so the loop ends within
    # ``len(dffs) + 1`` sweeps.
    for dff in netlist.dffs:
        values[dff.q] = dff.reset_value
    while True:
        for gate in ordered:
            values[gate.output] = eval_ternary(
                gate.gate_type, [values[nid] for nid in gate.inputs]
            )
        demoted = False
        for dff in netlist.dffs:
            if values[dff.q] is X:
                continue
            if values.get(dff.d, X) != values[dff.q]:
                values[dff.q] = X
                demoted = True
        if not demoted:
            break
    return {
        nid: value for nid, value in values.items() if value is not X
    }


# -- structural observability -------------------------------------------------

def observable_nets(netlist: Netlist) -> frozenset[int]:
    """Nets with a structural path to a primary output.

    Sequential-aware: a DFF forwards observability from its Q net to
    its D net (one cycle later is still observed).
    """
    gates_by_output: dict[int, Gate] = {
        gate.output: gate for gate in netlist.gates
    }
    dff_by_q: dict[int, DFF] = {dff.q: dff for dff in netlist.dffs}
    observable: set[int] = set()
    frontier: list[int] = list(dict.fromkeys(netlist.output_bits))
    observable.update(frontier)
    while frontier:
        nid = frontier.pop()
        gate = gates_by_output.get(nid)
        if gate is not None:
            for source in gate.inputs:
                if source not in observable:
                    observable.add(source)
                    frontier.append(source)
        dff = dff_by_q.get(nid)
        if dff is not None and dff.d not in observable:
            observable.add(dff.d)
            frontier.append(dff.d)
    return frozenset(observable)


# -- SCOAP --------------------------------------------------------------------

def _sat(value: int) -> int:
    return value if value < INF else INF


def _gate_cc(
    gate: Gate, cc0: dict[int, int], cc1: dict[int, int]
) -> tuple[int, int]:
    """(CC0, CC1) of one gate output from its input costs."""
    t = gate.gate_type
    in0 = [cc0.get(nid, INF) for nid in gate.inputs]
    in1 = [cc1.get(nid, INF) for nid in gate.inputs]
    if t is GateType.CONST0:
        return 0, INF
    if t is GateType.CONST1:
        return INF, 0
    if t in (GateType.NOT,):
        return _sat(in1[0] + 1), _sat(in0[0] + 1)
    if t in (GateType.BUF,):
        return _sat(in0[0] + 1), _sat(in1[0] + 1)
    if t in (GateType.AND, GateType.NAND):
        zero = _sat(min(in0) + 1)             # one controlling input
        one = _sat(sum(in1) + 1)              # all inputs non-controlling
        return (one, zero) if t is GateType.NAND else (zero, one)
    if t in (GateType.OR, GateType.NOR):
        one = _sat(min(in1) + 1)
        zero = _sat(sum(in0) + 1)
        return (one, zero) if t is GateType.NOR else (zero, one)
    if t in (GateType.XOR, GateType.XNOR):
        # Parity DP: cheapest way to an even/odd number of ones.
        even, odd = 0, INF
        for c0, c1 in zip(in0, in1):
            even, odd = (
                _sat(min(even + c0, odd + c1)),
                _sat(min(odd + c0, even + c1)),
            )
        zero, one = _sat(even + 1), _sat(odd + 1)
        return (one, zero) if t is GateType.XNOR else (zero, one)
    return INF, INF


def _controllability(
    netlist: Netlist, ordered: list[Gate]
) -> tuple[dict[int, int], dict[int, int]]:
    cc0: dict[int, int] = {}
    cc1: dict[int, int] = {}
    for nid in netlist.input_bits:
        cc0[nid] = cc1[nid] = 1
    for dff in netlist.dffs:
        cc0[dff.q] = cc1[dff.q] = INF
    # Relax to fixpoint: combinational sweep + the sequential transfer
    # CC(Q) = CC(D) + 1.  Costs only ever decrease (from INF), so the
    # sweep terminates; the cap bounds feedback loops.
    while True:
        changed = False
        for gate in ordered:
            zero, one = _gate_cc(gate, cc0, cc1)
            if zero < cc0.get(gate.output, INF):
                cc0[gate.output] = zero
                changed = True
            if one < cc1.get(gate.output, INF):
                cc1[gate.output] = one
                changed = True
        for dff in netlist.dffs:
            for cc in (cc0, cc1):
                through = _sat(cc.get(dff.d, INF) + 1)
                if through < cc.get(dff.q, INF):
                    cc[dff.q] = through
                    changed = True
        if not changed:
            return cc0, cc1


def _side_cost(
    gate: Gate, pin: int, cc0: dict[int, int], cc1: dict[int, int]
) -> int:
    """Cost of holding every *other* input at a propagating value."""
    t = gate.gate_type
    total = 0
    for index, nid in enumerate(gate.inputs):
        if index == pin:
            continue
        if t in (GateType.AND, GateType.NAND):
            total += cc1.get(nid, INF)       # side inputs non-controlling
        elif t in (GateType.OR, GateType.NOR):
            total += cc0.get(nid, INF)
        else:  # XOR/XNOR: any known side value propagates
            total += min(cc0.get(nid, INF), cc1.get(nid, INF))
        if total >= INF:
            return INF
    return total


def _observability_cost(
    netlist: Netlist,
    ordered: list[Gate],
    cc0: dict[int, int],
    cc1: dict[int, int],
) -> dict[int, int]:
    co: dict[int, int] = {nid: INF for net in () for nid in ()}
    for nid in netlist.output_bits:
        co[nid] = 0
    while True:
        changed = False
        # Reverse-topological combinational sweep: a gate's input CO
        # derives from its output CO plus the side-input condition.
        for gate in reversed(ordered):
            out_co = co.get(gate.output, INF)
            if out_co >= INF:
                continue
            for pin, nid in enumerate(gate.inputs):
                through = _sat(
                    out_co + _side_cost(gate, pin, cc0, cc1) + 1
                )
                if through < co.get(nid, INF):
                    co[nid] = through
                    changed = True
        for dff in netlist.dffs:
            through = _sat(co.get(dff.q, INF) + 1)
            if through < co.get(dff.d, INF):
                co[dff.d] = through
                changed = True
        if not changed:
            return co
