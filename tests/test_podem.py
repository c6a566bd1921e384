"""PODEM outcome pins and the implication differentials.

The digests below were computed with the original full-pass PODEM (one
topological re-implication of the whole netlist after every decision
and backtrack).  The event-driven implementation must reproduce every
outcome bit for bit: status, packed vector, decisions and backtracks.

The paper netlists exercise only AND2/OR2/NOT (c432), XOR2 (c499) and
NAND2 (c17).  The random-netlist differential below covers every gate
type at 1-4 inputs against a per-machine three-valued reference kept
here.  ``scripts/check_podem_random.py --seeds N`` runs it over a wider
seed range.
"""

import hashlib
import json

import pytest

from repro.fault import CombFaultSimulator, collapse_faults, generate_faults
from repro.fault.model import StuckAtFault
from repro.netlist.cells import GateType
from repro.netlist.netlist import Gate, Net, Netlist
from repro.obs import metrics as obs_metrics
from repro.testgen import Podem
from repro.testgen.atpg import FAULTY, GOOD
from repro.util import rng_stream
from tests.conftest import netlist_of

#: (circuit, fault stride, backtrack limit) -> sha256 of the outcome rows.
PODEM_GOLDEN = {
    ("c17", 1, 2000):
        "852ccde41ecd430bb74e0025be7fe2287d1927ebc4a5bc96e09fb6c5633958f7",
    ("c432", 8, 24):
        "375c3fa1d6bc9e654d5a87f45df43e0d5645fbd38920afdab46fffd21502546e",
    ("c499", 16, 24):
        "3807f62e307ba50505ca08a791930ac6311cc61b32c92dbd227db08197e60506",
}


def outcome_digest(outcomes) -> str:
    rows = [[o.status, o.vector, o.decisions, o.backtracks]
            for o in outcomes]
    text = json.dumps(rows, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("key", sorted(PODEM_GOLDEN), ids=lambda k: k[0])
def test_podem_outcomes_match_golden(key):
    circuit, stride, limit = key
    netlist = netlist_of(circuit)
    faults = collapse_faults(netlist)[::stride]
    result = Podem(netlist, backtrack_limit=limit).run(faults)
    assert outcome_digest(result.outcomes) == PODEM_GOLDEN[key]


# -- incremental implication vs. the full pass --------------------------------

#: Indices into c432's collapsed fault list: a PI stem fault detected
#: after backtracking, a PI stem fault that aborts, a branch fault, a
#: gate-output stem fault, and a gate-output stem fault proven
#: redundant (its search backtracks through every flip and pop).
C432_STEP_FAULTS = (10, 0, 81, 129, 111)


class _CheckedPodem(Podem):
    """Checks every incremental implication against a fresh full pass.

    The two must agree on every net's code, which pins both machines.
    """

    def __init__(self, netlist, **kwargs):
        super().__init__(netlist, **kwargs)
        self.transitions = set()
        self.implications = 0

    def _imply(self, state):
        before = list(state.codes) if state.codes is not None else None
        super()._imply(state)
        self.implications += 1
        fresh = self._new_state(state.fault)
        fresh.assignments = dict(state.assignments)
        self._imply_full(fresh)
        assert state.codes == fresh.codes, state.fault
        if before is None:
            return
        for nid in self._inputs:
            old, new = GOOD[before[nid]], GOOD[state.codes[nid]]
            if old is None and new is not None:
                self.transitions.add("decide")
            elif old is not None and new is None:
                self.transitions.add("pop")
            elif old is not None and new != old:
                self.transitions.add("flip")


def test_incremental_implication_matches_full_pass():
    netlist = netlist_of("c432")
    collapsed = collapse_faults(netlist)
    faults = [collapsed[i] for i in C432_STEP_FAULTS]
    inputs = set(netlist.input_bits)
    kinds = {
        "branch" if f.gate is not None
        else "pi-stem" if f.net in inputs else "gate-stem"
        for f in faults
    }
    assert kinds == {"branch", "pi-stem", "gate-stem"}

    checked = _CheckedPodem(netlist, backtrack_limit=24)
    outcomes = [checked.generate(f) for f in faults]
    plain = Podem(netlist, backtrack_limit=24)
    assert outcomes == [plain.generate(f) for f in faults]
    statuses = {o.status for o in outcomes}
    assert statuses == {"detected", "aborted", "redundant"}
    assert checked.transitions == {"decide", "flip", "pop"}
    assert checked.implications > 100


def test_pi_stem_fault_is_x_until_assigned(c17_netlist):
    podem = Podem(c17_netlist)
    pi = c17_netlist.input_bits[0]
    state = podem._new_state(StuckAtFault(net=pi, stuck=1))

    def machines():
        code = state.codes[pi]
        return GOOD[code], FAULTY[code]

    podem._imply(state)
    assert machines() == (None, None)
    state.assignments[pi] = 0
    podem._imply(state)
    assert machines() == (0, 1)
    del state.assignments[pi]
    podem._imply(state)
    assert machines() == (None, None)


# -- random netlists vs. a per-machine three-valued reference --------------------
#
# The reference is the scalar implication PODEM used before the dual-rail
# codes: each machine is a list of 0/1/None (X) per net, every gate is
# evaluated once per machine, and the fault is injected by these rules.
# A gate-output stem forces the faulty output to the stuck value even
# while the good one is X.  A branch replaces only the faulted gate's
# view of its pin.  A PI stem makes the faulty PI the stuck value once
# the PI is assigned, and X while it is not.

def _ref_and(values):
    out = 1
    for value in values:
        if value == 0:
            return 0
        if value is None:
            out = None
    return out


def _ref_or(values):
    out = 0
    for value in values:
        if value == 1:
            return 1
        if value is None:
            out = None
    return out


def _ref_xor(values):
    parity = 0
    for value in values:
        if value is None:
            return None
        parity ^= value
    return parity


def _ref_inverted(evaluate):
    def inverted(values):
        out = evaluate(values)
        return None if out is None else out ^ 1
    return inverted


_REF_EVALUATORS = {
    GateType.AND: _ref_and,
    GateType.NAND: _ref_inverted(_ref_and),
    GateType.OR: _ref_or,
    GateType.NOR: _ref_inverted(_ref_or),
    GateType.XOR: _ref_xor,
    GateType.XNOR: _ref_inverted(_ref_xor),
    GateType.BUF: _ref_xor,
    GateType.NOT: _ref_inverted(_ref_xor),
    GateType.CONST0: lambda values: 0,
    GateType.CONST1: lambda values: 1,
}


def reference_imply(netlist, order, fault, assignments):
    """Both machines, per net, by the scalar rules above."""
    good = [None] * netlist.num_nets
    faulty = [None] * netlist.num_nets
    for nid in netlist.input_bits:
        value = assignments.get(nid)
        good[nid] = faulty[nid] = value
        if fault.is_stem and nid == fault.net and value is not None:
            faulty[nid] = fault.stuck
    for gate in order:
        evaluate = _REF_EVALUATORS[gate.gate_type]
        good[gate.output] = evaluate([good[n] for n in gate.inputs])
        view = [faulty[n] for n in gate.inputs]
        if gate.gid == fault.gate:
            view[fault.pin] = fault.stuck
        faulty[gate.output] = evaluate(view)
        if fault.is_stem and gate.output == fault.net:
            faulty[gate.output] = fault.stuck
    return good, faulty


def random_netlist(seed: int) -> Netlist:
    """A seeded random combinational netlist, built without folding.

    ``NetlistBuilder`` would fold constants and rewrite gates, so the
    netlist is assembled directly: every gate type, 1-4 inputs for the
    n-ary ones, inputs drawn with replacement from earlier nets (so
    fanout branches and reconvergence are common).  Every dangling gate
    output is a primary output, plus a few more nets, now and then a PI.
    """
    rng = rng_stream(seed, "podem-random-netlist")
    netlist = Netlist(f"random{seed}")

    def net(name):
        netlist.nets.append(Net(len(netlist.nets), name))
        return len(netlist.nets) - 1

    inputs = [net(f"i{k}") for k in range(rng.randint(2, 6))]
    netlist.input_ports = [(f"i{k}", [nid]) for k, nid in enumerate(inputs)]
    types = sorted(GateType, key=lambda t: t.value)
    loaded = set()
    for gid in range(rng.randint(4, 18)):
        gate_type = rng.choice(types)
        arity = gate_type.arity
        if arity is None:
            arity = rng.randint(1, 4)
        ins = [rng.randrange(len(netlist.nets)) for _ in range(arity)]
        loaded.update(ins)
        netlist.gates.append(Gate(gid, gate_type, ins, net(f"g{gid}")))
    outputs = [g.output for g in netlist.gates if g.output not in loaded]
    outputs += [
        nid for nid in range(len(netlist.nets))
        if nid not in outputs and rng.random() < 0.15
    ]
    netlist.output_ports = [(f"o{k}", [nid]) for k, nid in enumerate(outputs)]
    netlist.validate()
    return netlist


class _ReferencePodem(Podem):
    """Checks every implication against :func:`reference_imply`."""

    def __init__(self, netlist, **kwargs):
        super().__init__(netlist, **kwargs)
        self.implications = 0

    def _imply(self, state):
        super()._imply(state)
        self.implications += 1
        good, faulty = reference_imply(
            self._netlist, self._order, state.fault, state.assignments
        )
        for nid, code in enumerate(state.codes):
            assert (GOOD[code], FAULTY[code]) == (good[nid], faulty[nid]), (
                self._netlist.name, state.fault, self._netlist.net_name(nid)
            )


def _fault_kind(netlist, fault):
    if fault.gate is not None:
        return "branch"
    return "pi-stem" if fault.net in netlist.input_bits else "gate-stem"


def check_random_netlist(seed: int) -> dict:
    """Run PODEM on every fault of ``random_netlist(seed)``, checked.

    Every implication must match the reference net by net in both
    machines, every ``detected`` vector must detect its fault under
    fault simulation, and no fault PODEM calls redundant may be
    detected by any input vector.  Returns what was covered.
    """
    netlist = random_netlist(seed)
    faults = generate_faults(netlist)
    podem = _ReferencePodem(netlist, backtrack_limit=64)
    outcomes = podem.run(faults).outcomes
    width = len(netlist.input_bits)
    exhaustive = CombFaultSimulator(
        netlist, faults, engine="interp"
    ).simulate(list(range(1 << width)))
    for fault, outcome, first in zip(faults, outcomes,
                                     exhaustive.detection):
        if outcome.status == "detected":
            single = CombFaultSimulator(
                netlist, [fault], engine="interp"
            ).simulate([outcome.vector])
            assert single.detection == [0], (netlist.name, fault, outcome)
        elif outcome.status == "redundant":
            assert first is None, (netlist.name, fault, first)
    return {
        "gates": {(g.gate_type, len(g.inputs)) for g in netlist.gates},
        "kinds": {_fault_kind(netlist, f) for f in faults},
        "statuses": {o.status for o in outcomes},
        "implications": podem.implications,
    }


#: Seeds tier-1 runs; the CI step widens the range.
RANDOM_SEEDS = range(24)


def test_podem_matches_reference_on_random_netlists():
    gates, kinds, statuses = set(), set(), set()
    implications = 0
    for seed in RANDOM_SEEDS:
        covered = check_random_netlist(seed)
        gates |= covered["gates"]
        kinds |= covered["kinds"]
        statuses |= covered["statuses"]
        implications += covered["implications"]
    assert {t for t, _ in gates} == set(GateType)
    for gate_type in (GateType.AND, GateType.NAND, GateType.OR,
                      GateType.NOR, GateType.XOR, GateType.XNOR):
        assert {n for t, n in gates if t is gate_type} == {1, 2, 3, 4}
    assert kinds == {"branch", "pi-stem", "gate-stem"}
    assert statuses >= {"detected", "redundant"}
    assert implications > 1000


# -- observability --------------------------------------------------------------


def test_podem_metrics_once_per_run_and_outcomes_unchanged():
    netlist = netlist_of("c432")
    faults = collapse_faults(netlist)[::40]
    plain = Podem(netlist, backtrack_limit=24).run(faults)
    with obs_metrics.collecting() as registry:
        podem = Podem(netlist, backtrack_limit=24)
        observed = podem.run(faults)
        snapshot = registry.snapshot()
    assert observed.outcomes == plain.outcomes
    counters = snapshot["counters"]
    assert counters["testgen.podem.faults"] == len(faults)
    assert counters["testgen.podem.decisions"] == plain.total_decisions
    assert counters["testgen.podem.backtracks"] == plain.total_backtracks
    # At least the initial full pass per fault, at most one full pass
    # per implication (one per decision and backtrack, plus the first).
    gates = len(netlist.gates)
    evals = counters["testgen.podem.gate_evals"]
    implications = (
        len(faults) + plain.total_decisions + plain.total_backtracks
    )
    assert gates * len(faults) < evals < gates * implications
    assert snapshot["histograms"]["testgen.podem.seconds"]["count"] == 1

