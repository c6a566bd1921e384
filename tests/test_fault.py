"""Fault model, collapsing and fault simulation tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import InjectionPlan
from repro.engine.compiled import CompiledEngine
from repro.errors import FaultSimError, SimulationError
from repro.fault import (
    CombFaultSimulator,
    SeqFaultSimulator,
    collapse_faults,
    generate_faults,
    simulate_stuck_at,
)
from repro.fault.model import StuckAtFault
from repro.fault.models import build_fault_model
from repro.netlist.bench import C17_BENCH, parse_bench
from repro.util import rng_stream
from tests.conftest import netlist_of


@pytest.fixture(scope="module")
def c17net():
    return parse_bench(C17_BENCH, "c17")


def test_c17_textbook_fault_counts(c17net):
    assert len(generate_faults(c17net)) == 34
    assert len(collapse_faults(c17net)) == 22


def test_branch_faults_only_on_fanout(c17net):
    branch_nets = {
        f.net for f in generate_faults(c17net) if f.gate is not None
    }
    names = {c17net.net_name(n) for n in branch_nets}
    assert names == {"3", "11", "16"}  # the three fanout stems of c17


def test_collapsed_representative_detection_equivalence(c17net):
    """Any fault equivalent to a representative is detected identically."""
    # NAND input s-a-0 is equivalent to its output s-a-1.
    gate = c17net.gates[0]           # 10 = NAND(1, 3)
    in_fault = StuckAtFault(net=gate.inputs[0], stuck=0)
    out_fault = StuckAtFault(net=gate.output, stuck=1)
    rng = rng_stream(1, "collapse-eq")
    patterns = [rng.getrandbits(5) for _ in range(64)]
    sim = CombFaultSimulator(c17net, [in_fault, out_fault])
    result = sim.simulate(patterns)
    assert result.detection[0] == result.detection[1]


def test_comb_full_coverage_with_exhaustive_patterns(c17net):
    sim = CombFaultSimulator(c17net)
    result = sim.simulate(list(range(32)))
    assert result.coverage() == 1.0


def test_known_single_fault_detection(c17net):
    # Output 22 stuck-at-1: detected by any pattern making 22 == 0,
    # i.e. N10 = N16 = 1.
    target = next(
        f for f in generate_faults(c17net)
        if c17net.net_name(f.net) == "22" and f.stuck == 1 and f.is_stem
    )
    sim = CombFaultSimulator(c17net, [target])
    # i1=1, i3=1 makes n10=0 -> 22=1: fault NOT detected.
    undetected = sim.simulate([0b11100])
    assert undetected.detection[0] is None
    # i1=0 ... with n16=1: 22 = 0 in good machine -> detected.
    detected = sim.simulate([0b00000])
    assert detected.detection[0] is not None


def test_comb_rejects_sequential_netlists():
    with pytest.raises(FaultSimError):
        CombFaultSimulator(netlist_of("b01"))


def test_seq_and_comb_agree_on_combinational_circuit():
    netlist = netlist_of("c17")
    faults = collapse_faults(netlist)
    rng = rng_stream(9, "seqcomb")
    patterns = [rng.getrandbits(5) for _ in range(40)]
    comb = CombFaultSimulator(netlist, faults).simulate(patterns)
    seq = SeqFaultSimulator(netlist, faults).simulate(patterns)
    assert comb.detection == seq.detection


def _seq_case(model_name: str, circuit: str, count: int = 64):
    """A model, a spread of its b0x faults and random stimuli."""
    netlist = netlist_of(circuit)
    model = build_fault_model(model_name)
    faults = model.collapse(netlist)
    faults = faults[:: max(1, len(faults) // 60)]
    rng = rng_stream(10, f"lanes-{model_name}-{circuit}")
    width = len(netlist.input_bits)
    stimuli = [rng.getrandbits(width) for _ in range(count)]
    return netlist, model, faults, stimuli


def _sliced(model, netlist, stimuli, faults, size: int) -> list:
    """Detections of ``faults`` simulated in consecutive ``size`` slices."""
    detection = []
    for start in range(0, len(faults), size):
        detection += model.simulate(
            netlist, stimuli, faults[start:start + size]
        ).detection
    return detection


def test_seq_lane_chunking_invariance():
    """A slice of a fault list detects what it does in the whole list.

    The grid's fault-chunk units rely on this: each simulates one
    consecutive slice of the list.
    """
    for model_name in ("stuck-at", "transition", "seu"):
        for circuit in ("b01", "b03"):
            netlist, model, faults, stimuli = _seq_case(model_name, circuit)
            whole = model.simulate(netlist, stimuli, faults).detection
            assert any(cycle is not None for cycle in whole)
            for size in (1, 5, 64):
                got = _sliced(model, netlist, stimuli, faults, size)
                assert got == whole, (model_name, circuit, size)


@pytest.mark.parametrize("model_name", ["stuck-at", "transition", "seu"])
def test_seq_early_detected_chunk_stops_alone(model_name):
    """A fault chunk detected long before the others leaves them unchanged.

    The list is reordered by detection cycle, and each slice of 5
    faults is simulated on its own, as a grid fault-chunk unit would.
    """
    netlist, model, faults, stimuli = _seq_case(model_name, "b03")
    reference = model.simulate(netlist, stimuli, faults)
    by_cycle = sorted(
        range(len(faults)),
        key=lambda i: (reference.detection[i] is None,
                       reference.detection[i] or 0),
    )
    ordered = [faults[i] for i in by_cycle]
    expected = [reference.detection[i] for i in by_cycle]
    assert model.simulate(netlist, stimuli, ordered).detection == expected
    assert _sliced(model, netlist, stimuli, ordered, 5) == expected
    # The first chunk is fully detected many cycles before the last
    # detection of the run.
    first_done = max(expected[:5])
    assert first_done is not None
    last = max(cycle for cycle in expected if cycle is not None)
    assert last >= first_done + 5


@pytest.mark.parametrize("model_name", ["stuck-at", "transition", "seu"])
def test_seq_empty_fault_list_decodes_no_stimulus(model_name):
    netlist = netlist_of("b01")
    bad = 1 << len(netlist.input_bits)
    model = build_fault_model(model_name)
    result = model.simulate(netlist, [bad, bad], [])
    assert result.detection == []
    assert result.num_patterns == 2


@pytest.mark.parametrize("model_name", ["stuck-at", "transition", "seu"])
def test_seq_out_of_range_stimulus(model_name):
    """A bad stimulus raises iff some lane is still alive to decode it."""
    netlist, model, faults, stimuli = _seq_case(model_name, "b03")
    bad = 1 << len(netlist.input_bits)
    detection = model.simulate(netlist, stimuli, faults).detection
    assert None in detection
    with pytest.raises(SimulationError):
        model.simulate(netlist, stimuli[:20] + [bad], faults)
    # Faults all detected by cycle `done` never reach a later stimulus.
    early = [f for f, cycle in zip(faults, detection)
             if cycle is not None and cycle < 10]
    assert len(early) > 5
    done = max(c for c in detection if c is not None and c < 10)
    result = model.simulate(netlist, stimuli[: done + 1] + [bad], early)
    assert None not in result.detection


class _CountingEngine(CompiledEngine):
    """A private compiled engine that counts good-machine kernel steps."""

    def __init__(self):
        super().__init__()
        self.good_steps = {"next_state": 0, "observe": 0}

    def cycle(self, netlist, plan=None, observe=None):
        fns = super().cycle(netlist, plan, observe)

        def counted(kind, fn):
            def run(inputs, state, mask):
                if mask == 1:
                    self.good_steps[kind] += 1
                return fn(inputs, state, mask)
            return run

        return tuple(
            counted(kind, fn) for kind, fn in zip(self.good_steps, fns)
        )


@pytest.mark.parametrize("model_name", ["stuck-at", "transition", "seu"])
def test_seq_good_machine_and_plan_key_once(model_name, monkeypatch):
    """One good machine per stimulus sequence; one plan key per call."""
    netlist, model, _faults, stimuli = _seq_case(model_name, "b01", 24)
    # 14 lanes: the faulty machine never runs at mask 1.
    faults = model.collapse(netlist)[:14]
    keys = []
    original = InjectionPlan.injection_key

    def counted(plan):
        keys.append(plan)
        return original(plan)

    monkeypatch.setattr(InjectionPlan, "injection_key", counted)
    engine = _CountingEngine()
    result = model.simulate(netlist, stimuli, faults, engine=engine)
    if None in result.detection:
        cycles = len(stimuli)
    else:
        cycles = max(result.detection) + 1
    assert cycles > 1
    # One good-machine step per cycle: next state before the edge,
    # outputs after it.
    assert engine.good_steps == {"next_state": cycles, "observe": cycles}
    # SEU machines evolve freely: no injection plan at all.
    assert len(keys) == (0 if model_name == "seu" else 1)


@pytest.mark.parametrize("model_name", ["stuck-at", "transition"])
def test_seq_default_width_is_one_plan_per_call(model_name, monkeypatch):
    """At the default width each call injects its whole list at once."""
    netlist = netlist_of("b03")
    model = build_fault_model(model_name)
    faults = model.collapse(netlist)
    assert len(faults) > 256
    rng = rng_stream(10, f"one-word-{model_name}")
    width = len(netlist.input_bits)
    stimuli = [rng.getrandbits(width) for _ in range(64)]
    reference = _sliced(model, netlist, stimuli, faults, 256)
    keys = []
    original = InjectionPlan.injection_key

    def counted(plan):
        keys.append(len(plan.faults))
        return original(plan)

    monkeypatch.setattr(InjectionPlan, "injection_key", counted)
    for _ in range(2):
        keys.clear()
        got = model.simulate(netlist, stimuli, faults)
        assert keys == [len(faults)]
        assert got.detection == reference


def test_seq_counters_count_each_call():
    from repro.obs import metrics as obs_metrics

    netlist = netlist_of("b03")
    faults = collapse_faults(netlist)
    stimuli = [0, 1, 2, 3]
    registry = obs_metrics.enable()
    try:
        simulator = SeqFaultSimulator(netlist, faults)
        simulator.simulate(stimuli)
        simulator.simulate(stimuli)
        SeqFaultSimulator(netlist, faults[:256]).simulate(stimuli)
    finally:
        obs_metrics.disable()
    counters = registry.snapshot()["counters"]
    assert counters["engine.compiled.seq.passes"] == 3
    assert counters["engine.compiled.seq.faults"] == 2 * len(faults) + 256
    assert counters["engine.compiled.seq.cycles"] == 3 * len(stimuli)
    assert "engine.compiled.seq.chunks" not in counters


def test_dispatcher_picks_engine(b01_netlist, c17_netlist):
    rng = rng_stream(2, "dispatch")
    seq_result = simulate_stuck_at(
        b01_netlist, [rng.getrandbits(2) for _ in range(16)]
    )
    comb_result = simulate_stuck_at(
        c17_netlist, [rng.getrandbits(5) for _ in range(16)]
    )
    assert seq_result.num_patterns == 16
    assert comb_result.num_patterns == 16


def test_detection_monotone_in_prefix_length(c17net):
    sim = CombFaultSimulator(c17net)
    patterns = list(range(20))
    result = sim.simulate(patterns)
    curve = result.coverage_curve()
    assert all(b >= a for a, b in zip(curve, curve[1:]))
    assert curve[-1] == result.coverage()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1,
                max_size=40))
def test_coverage_curve_consistency(patterns):
    netlist = parse_bench(C17_BENCH, "c17")
    result = CombFaultSimulator(netlist).simulate(patterns)
    curve = result.coverage_curve()
    for length in (1, len(patterns) // 2 or 1, len(patterns)):
        assert curve[length - 1] == pytest.approx(result.coverage(length))


def test_length_to_reach(c17net):
    result = CombFaultSimulator(c17net).simulate(list(range(32)))
    full = result.length_to_reach(1.0)
    assert full is not None
    assert result.coverage(full) == 1.0
    assert result.coverage(full - 1) < 1.0 if full > 1 else True
    assert result.length_to_reach(0.0) in (0, 1)


def test_detection_prefix_consistency(c17net):
    """First-detection with the full set matches a shorter run."""
    rng = rng_stream(3, "prefix")
    patterns = [rng.getrandbits(5) for _ in range(30)]
    sim = CombFaultSimulator(c17net)
    full = sim.simulate(patterns)
    half = sim.simulate(patterns[:15])
    for f_full, f_half in zip(full.detection, half.detection):
        if f_full is not None and f_full < 15:
            assert f_half == f_full
        elif f_half is not None:
            assert f_full == f_half


def test_stem_fault_on_output_port(c17net):
    fault = next(
        f for f in generate_faults(c17net)
        if c17net.net_name(f.net) == "23" and f.stuck == 0 and f.is_stem
    )
    result = CombFaultSimulator(c17net, [fault]).simulate(list(range(32)))
    assert result.detection[0] is not None


def test_empty_pattern_list(c17net):
    result = CombFaultSimulator(c17net).simulate([])
    assert result.coverage() == 0.0
    assert result.detected == 0


def test_undetected_faults_listed(b01_netlist):
    result = simulate_stuck_at(b01_netlist, [0, 1, 2, 3])
    undetected = result.undetected_faults()
    assert len(undetected) == result.num_faults - result.detected
