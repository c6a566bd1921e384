"""Behavioural simulator tests: delta cycles, processes, testbench."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import circuit_names, load_circuit
from repro.errors import MutantRuntimeError, OscillationError, SimulationError
from repro.hdl import load_design
from repro.hdl.values import BV
from repro.mutation import MutationEngine, generate_mutants
from repro.sim import StimulusEncoder, Testbench
from repro.sim.scheduler import Simulator
from repro.sim.testbench import encode_outputs
from repro.util import rng_stream


def test_mux_selects(mux_design):
    bench = Testbench(mux_design)
    assert bench.step({"a": 1, "b": 0, "sel": 0}) == (1,)
    assert bench.step({"a": 1, "b": 0, "sel": 1}) == (0,)
    assert bench.step({"a": 0, "b": 1, "sel": 1}) == (1,)


def test_counter_counts_and_wraps(counter_design):
    bench = Testbench(counter_design)
    bench.reset()
    seen = []
    for _ in range(10):
        value, wrap = bench.step({"enable": 1})
        seen.append((value.value, wrap))
    # After the first edge count=1 is registered; value shows the
    # pre-increment count per the Mealy decode in the process.
    values = [v for v, _ in seen]
    assert values[:8] == [0, 1, 2, 3, 4, 5, 6, 7]
    assert seen[8][0] == 0  # wrapped
    assert any(w == 1 for _, w in seen)


def test_counter_holds_when_disabled(counter_design):
    bench = Testbench(counter_design)
    bench.reset()
    bench.step({"enable": 1})
    first = bench.step({"enable": 0})
    second = bench.step({"enable": 0})
    assert first == second


def test_parity_process_with_loop(parity_design):
    bench = Testbench(parity_design)
    for value in range(16):
        (p,) = bench.step({"d": BV(value, 4)})
        assert p == bin(value).count("1") % 2


def test_variables_persist_between_activations():
    design = load_design(
        """
        entity t is port ( clock : in bit; y : out bit ); end t;
        architecture rtl of t is
        begin
          process (clock)
            variable flip : bit;
          begin
            if rising_edge(clock) then
              flip := flip xor '1';
              y <= flip;
            end if;
          end process;
        end rtl;
        """
    )
    bench = Testbench(design)
    outs = [bench.step({})[0] for _ in range(4)]
    assert outs == [1, 0, 1, 0]


def test_oscillating_combinational_loop_detected():
    design = load_design(
        """
        entity t is port ( a : in bit; y : out bit ); end t;
        architecture rtl of t is
          signal s : bit;
        begin
          s <= not s;
          y <= s;
        end rtl;
        """
    )
    sim = Simulator(design, max_delta=32)
    with pytest.raises(OscillationError):
        sim.initialize()


def test_reset_returns_to_initial_state(b01):
    bench = Testbench(b01)
    rng = rng_stream(5, "reset-test")
    enc = StimulusEncoder(b01)
    first = bench.run_sequence(
        [enc.decode(rng.getrandbits(enc.width)) for _ in range(10)]
    )
    rng = rng_stream(5, "reset-test")
    second = bench.run_sequence(
        [enc.decode(rng.getrandbits(enc.width)) for _ in range(10)]
    )
    assert first == second


def test_save_restore_state(b01):
    bench = Testbench(b01)
    bench.reset()
    enc = StimulusEncoder(b01)
    bench.step(enc.decode(3))
    snapshot = bench.save_state()
    after_a = [bench.step(enc.decode(1)) for _ in range(5)]
    bench.restore_state(snapshot)
    after_b = [bench.step(enc.decode(1)) for _ in range(5)]
    assert after_a == after_b


@pytest.mark.parametrize("name", circuit_names())
def test_compiled_backend_matches_interpreter(name):
    design = load_circuit(name)
    enc = StimulusEncoder(design)
    rng = rng_stream(99, name, "backend-compare")
    stimuli = [enc.decode(rng.getrandbits(enc.width)) for _ in range(30)]
    interp = Testbench(design, backend="interp").run_sequence(stimuli)
    compiled = Testbench(design, backend="compiled").run_sequence(stimuli)
    assert interp == compiled


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2**41 - 1))
def test_encoder_roundtrip_c499(packed):
    design = load_circuit("c499")
    enc = StimulusEncoder(design)
    assert enc.encode(enc.decode(packed)) == packed


def test_encode_outputs_packs_in_port_order(b01):
    packed = encode_outputs(b01, (1, 0))
    assert packed == 0b10


def test_unknown_stimulus_port_rejected(b01):
    bench = Testbench(b01)
    bench.reset()
    with pytest.raises(SimulationError, match="nonexistent"):
        bench.step({"nonexistent": 1})


# -- clock-edge fast path ------------------------------------------------------


def reference_reset(sim, clock="clock", reset="reset", level=1):
    """Testbench.reset spelled out as generic delta-loop calls."""
    sim.initialize()
    sim.set_inputs({clock: 0})
    sim.set_inputs({reset: level})
    sim.set_inputs({clock: 1})
    sim.set_inputs({clock: 0})
    sim.set_inputs({reset: 1 - level})


def reference_step(sim, stimulus, clock="clock"):
    """One testbench cycle through three generic ``set_inputs`` calls."""
    sim.set_inputs({**stimulus, clock: 0})
    sim.set_inputs({clock: 1})
    outputs = sim.snapshot_outputs()
    sim.set_inputs({clock: 0})
    return outputs


def _outcome(call):
    try:
        return call(), None
    except (MutantRuntimeError, OscillationError) as exc:
        return None, type(exc)


def _typed_state(sim):
    values, variables, initialized = sim.save_state()
    types = {name: type(value) for name, value in values.items()}
    return values, variables, initialized, types


@pytest.mark.parametrize("name", ["b01", "b02", "b03", "b06"])
def test_clock_cycle_matches_delta_loop_on_every_mutant(name):
    design = load_circuit(name)
    engine = MutationEngine(design)
    mutants = generate_mutants(design)
    engine.cover(mutants)
    enc = engine.encoder
    rng = rng_stream(24, name, "clock-cycle")
    stimuli = [enc.decode(rng.getrandbits(enc.width)) for _ in range(24)]
    for mutant in [None, *mutants]:
        fast = Testbench(design, executor=engine.executor(mutant))
        slow = Simulator(design, executor=engine.executor(mutant))
        _, fast_error = _outcome(fast.reset)
        _, slow_error = _outcome(lambda: reference_reset(slow))
        assert fast_error == slow_error
        if fast_error is not None:
            continue
        # Stepping on after a raise also compares the half-done edge a
        # raising process leaves behind (clock high, pending updates).
        for cycle, stimulus in enumerate(stimuli):
            got, fast_error = _outcome(lambda: fast.step(stimulus))
            want, slow_error = _outcome(lambda: reference_step(slow, stimulus))
            assert (got, fast_error) == (want, slow_error), (mutant, cycle)
            assert _typed_state(fast._sim) == _typed_state(slow), (
                mutant, cycle,
            )


_CLOCKED_Q = """
entity t is port ( clock : in bit; d : in bit; y : out bit ); end t;
architecture rtl of t is
  signal q : bit;
begin
  process (clock)
  begin
    if rising_edge(clock) then
      q <= d;
    end if;
  end process;
  %s
end rtl;
"""


def _settle_rounds(monkeypatch, sim):
    """Record the ``rounds`` argument of every ``_settle`` call."""
    calls = []
    settle = sim._settle

    def spy(events, rounds=None):
        calls.append(rounds)
        return settle(events, rounds)

    monkeypatch.setattr(sim, "_settle", spy)
    return calls


def test_clock_cycle_settles_combinational_reader_in_same_step(monkeypatch):
    design = load_design(_CLOCKED_Q % "y <= not q;")
    bench = Testbench(design, max_delta=8)
    bench.reset()
    calls = _settle_rounds(monkeypatch, bench._sim)
    slow = Simulator(design, max_delta=8)
    slow.initialize()
    slow.set_inputs({"clock": 0})
    for d in (1, 1, 0, 1, 0, 0):
        got = bench.step({"d": d})
        assert got == reference_step(slow, {"d": d})
        assert got == (1 - d,)
        assert bench.save_state() == slow.save_state()
    # Every edge that moved q handed its events, and the rounds left
    # after the edge's own, to the delta loop.
    assert calls and set(calls) == {7}


@pytest.mark.parametrize("sensitivity", ["clock", "clock, clock"])
def test_clock_cycle_runs_the_clock_watchers_on_both_edges(sensitivity):
    # A combinational process sensitive to the clock alone wakes once
    # on each edge, so its variable toggles twice per cycle.
    body = """
  process (%s)
    variable flip : bit;
  begin
    flip := flip xor '1';
    y <= flip;
  end process;
""" % sensitivity
    design = load_design(_CLOCKED_Q % body)
    bench = Testbench(design)
    bench.reset()
    slow = Simulator(design)
    slow.initialize()
    slow.set_inputs({"clock": 0})
    for d in (1, 0, 0, 1):
        assert bench.step({"d": d}) == reference_step(slow, {"d": d}) == (0,)
        assert bench.save_state() == slow.save_state()


def test_clock_cycle_keeps_oscillation_after_the_edge():
    body = """
  process (q, s)
  begin
    if q = '1' then
      s <= not s;
    else
      s <= '0';
    end if;
  end process;
  y <= s;
"""
    design = load_design(
        (_CLOCKED_Q % body).replace("signal q : bit;", "signal q, s : bit;")
    )
    bench = Testbench(design, max_delta=16)
    bench.reset()
    assert bench.step({"d": 0}) == (0,)
    with pytest.raises(OscillationError):
        bench.step({"d": 1})
    slow = Simulator(design, max_delta=16)
    slow.initialize()
    reference_step(slow, {"d": 0})
    with pytest.raises(OscillationError):
        reference_step(slow, {"d": 1})


def _pending_s(sim):
    sim.initialize()
    sim._scheduled["s"] = 1  # as a process that raised mid-body leaves it


@pytest.mark.parametrize(
    "disturb",
    [lambda sim: None, lambda sim: sim.set_inputs({"clock": 1}), _pending_s],
    ids=["uninitialized", "clock-high", "pending-update"],
)
def test_clock_cycle_falls_back_off_the_quiet_low_clock(disturb):
    # The counting process wakes on every clock, q and s event, so any
    # difference in the order or number of delta rounds shows in n.
    body = """
  process (clock, q, s)
    variable n : integer range 0 to 15;
  begin
    n := (n + 1) mod 16;
    if n mod 2 = 1 then
      y <= '1';
    else
      y <= '0';
    end if;
  end process;
"""
    design = load_design(
        (_CLOCKED_Q % body).replace("signal q : bit;", "signal q, s : bit;")
    )
    fast, slow = Simulator(design), Simulator(design)
    for sim in (fast, slow):
        disturb(sim)
    assert fast.clock_cycle({"d": 1}, "clock") == reference_step(
        slow, {"d": 1}
    )
    assert fast.save_state() == slow.save_state()


@pytest.mark.parametrize("max_delta", [0, 1, 2, 3])
def test_b01_needs_three_delta_rounds(b01, max_delta):
    enc = StimulusEncoder(b01)
    stimuli = [enc.decode(v % (1 << enc.width)) for v in range(0, 40, 3)]
    bench = Testbench(b01, max_delta=max_delta)
    if max_delta < 3:
        with pytest.raises(OscillationError):
            bench.run_sequence(stimuli)
        return
    assert bench.run_sequence(stimuli) == Testbench(b01).run_sequence(stimuli)


@pytest.mark.parametrize("extra", [{"clock": 1}, {"reset": 1}, {"reset": 0}])
def test_stimulus_naming_clock_or_reset_takes_generic_path(
    b01, monkeypatch, extra
):
    enc = StimulusEncoder(b01)
    bench = Testbench(b01)
    bench.reset()
    slow = Simulator(b01)
    reference_reset(slow)
    generic = []
    set_inputs = bench._sim.set_inputs
    monkeypatch.setattr(
        bench._sim, "set_inputs",
        lambda values: generic.append(values) or set_inputs(values),
    )
    for packed in range(6):
        stimulus = {**enc.decode(packed), **extra}
        assert bench.step(stimulus) == reference_step(slow, stimulus)
        assert bench.save_state() == slow.save_state()
    assert len(generic) == 3 * 6


def test_clock_cycle_fast_path_skips_set_inputs(b01, monkeypatch):
    bench = Testbench(b01)
    bench.reset()
    # A generic step would call set_inputs, which is now not callable.
    monkeypatch.setattr(bench._sim, "set_inputs", None)
    enc = StimulusEncoder(b01)
    assert bench.step(enc.decode(1)) == Testbench(b01).run_sequence(
        [enc.decode(1)]
    )[0]
