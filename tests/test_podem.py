"""PODEM outcome pins and the incremental-implication differential.

The digests below were computed with the original full-pass PODEM (one
topological re-implication of the whole netlist after every decision
and backtrack).  The event-driven implementation must reproduce every
outcome bit for bit: status, packed vector, decisions and backtracks.
"""

import hashlib
import json

import pytest

from repro.fault import collapse_faults
from repro.fault.model import StuckAtFault
from repro.obs import metrics as obs_metrics
from repro.testgen import Podem
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
    """Checks every incremental implication against a fresh full pass."""

    def __init__(self, netlist, **kwargs):
        super().__init__(netlist, **kwargs)
        self.transitions = set()
        self.implications = 0

    def _imply(self, state):
        before = list(state.good) if state.good is not None else None
        super()._imply(state)
        self.implications += 1
        fresh = self._new_state(state.fault)
        fresh.assignments = dict(state.assignments)
        self._imply_full(fresh)
        assert state.good == fresh.good, state.fault
        assert state.faulty == fresh.faulty, state.fault
        if before is None:
            return
        for nid in self._inputs:
            old, new = before[nid], state.good[nid]
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
    podem._imply(state)
    assert state.good[pi] is None and state.faulty[pi] is None
    state.assignments[pi] = 0
    podem._imply(state)
    assert (state.good[pi], state.faulty[pi]) == (0, 1)
    del state.assignments[pi]
    podem._imply(state)
    assert state.faulty[pi] is None


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

