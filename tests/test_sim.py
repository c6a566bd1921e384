"""Behavioural simulator tests: delta cycles, processes, testbench."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import circuit_names, load_circuit
from repro.errors import MutantRuntimeError, OscillationError, SimulationError
from repro.hdl import ast, load_design
from repro.hdl import types as ty
from repro.hdl.values import BV
from repro.mutation import Mutant, MutationEngine, generate_mutants
from repro.mutation.execution import _ClockedMachine
from repro.sim import StimulusEncoder, Testbench
from repro.sim.compiler import MutantSchema
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
    interp = Testbench(design).run_sequence(stimuli)
    compiled = Testbench(
        design, executor=MutantSchema(design).executor()
    ).run_sequence(stimuli)
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


# -- clocked stepping ---------------------------------------------------------


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


def _typed_state(state):
    """A ``save_state``-shaped checkpoint with the class of every value
    (a mutant holding ``True`` is not in the state of one holding 1)."""
    values, variables, initialized = state
    types = {name: type(value) for name, value in values.items()}
    var_types = {
        label: {name: type(value) for name, value in store.items()}
        for label, store in variables.items()
    }
    return values, variables, initialized, types, var_types


def _assert_machines_match_delta_loop(engine, mutants, stimuli):
    """The engine's machine (the clocked machine, or the bench for a
    patch that may write the clock or reset) against the generic delta
    loop on a plain simulator running the same executor, for the
    original and every mutant: outputs, error types and typed state
    after reset and every step, up to the first raise."""
    design = engine._design
    slots = engine.cover(mutants)
    original = engine._kind(engine, engine.executor())
    machines = [(None, original)] + [
        (mutant, engine._machine(engine._kind, mutant, slot))
        for mutant, slot in zip(mutants, slots)
    ]
    for mutant, machine in machines:
        slow = Simulator(design, executor=engine.executor(mutant))
        _, fast_error = _outcome(machine.reset)
        _, slow_error = _outcome(lambda: reference_reset(slow))
        assert fast_error == slow_error, mutant
        if fast_error is not None:
            continue
        assert _typed_state(machine.state()) == _typed_state(
            slow.save_state()
        ), mutant
        # The clocked machine refuses to step after a raise: stop there.
        for cycle, stimulus in enumerate(stimuli):
            got, fast_error = _outcome(lambda: machine.step(stimulus))
            want, slow_error = _outcome(lambda: reference_step(slow, stimulus))
            assert (got, fast_error) == (want, slow_error), (mutant, cycle)
            if fast_error is not None:
                break
            assert _typed_state(machine.state()) == _typed_state(
                slow.save_state()
            ), (mutant, cycle)


@pytest.mark.parametrize("name", ["b01", "b02", "b03", "b06"])
def test_clock_cycle_matches_delta_loop_on_every_mutant(name):
    design = load_circuit(name)
    engine = MutationEngine(design)
    enc = engine.encoder
    rng = rng_stream(24, name, "clock-cycle")
    stimuli = [enc.decode(rng.getrandbits(enc.width)) for _ in range(24)]
    _assert_machines_match_delta_loop(
        engine, generate_mutants(design), stimuli
    )


_HOLD = """
entity hold is
  port ( clock, reset, d : in bit; y : out bit );
end hold;
architecture rtl of hold is
  type state_t is (s_a, s_b);
  signal st : state_t;
begin
  p : process (clock, reset)
  begin
    if reset = '1' then
      st <= s_a;
      y <= '0';
    elsif rising_edge(clock) then
      if st = s_b then
        st <= s_b;
      elsif d = '1' then
        st <= s_b;
      end if;
      if st = s_b then
        y <= '1';
      else
        y <= '0';
      end if;
    end if;
  end process p;
end rtl;
"""

#: d over a step list: st moves to s_b on the first d = 1, then holds.
_HOLD_STIMULI = [{"d": d} for d in (0, 1, 0, 0, 1, 1, 0, 0)]


def _clocked_engine(design):
    engine = MutationEngine(design)
    assert engine._kind is _ClockedMachine
    return engine


def test_clocked_machine_activates_on_the_falling_edge():
    # The edge test rewritten to ``clock = '0'`` (the clocked template
    # would not match it): the process acts on the falling edge only,
    # so the sample after a rising edge shows y written a step late.
    design = load_design(_HOLD, "hold")
    branch = design.processes[0].body[0]
    edge, body = branch.arms[1]
    branch.arms[1] = (ast.Binary(
        op="=", left=edge.args[0], right=ast.BitLit(value=0, ty=ty.BIT),
        ty=ty.BOOLEAN,
    ), body)
    engine = _clocked_engine(design)
    machine = engine._kind(engine, engine.executor())
    machine.reset()
    outputs = [machine.step(stimulus)[0] for stimulus in _HOLD_STIMULI]
    assert outputs == [0, 0, 0, 1, 1, 1, 1, 1]
    _assert_machines_match_delta_loop(engine, [], _HOLD_STIMULI)


def test_clocked_machine_commits_an_equal_value_of_another_class_never():
    # A hand-built patch writes True where st already holds s_b (1):
    # the commit, ``!=``-guarded as the delta loop's is, keeps the int.
    # (A bit signal would not take True: assigning it is a runtime
    # error.)
    design = load_design(_HOLD, "hold")
    process = design.processes[0]
    hold = process.body[0].arms[1][1][0].arms[0][1][0]  # st <= s_b
    truthy = Mutant(
        mid=10_000, operator="test", site_nid=hold.value.nid,
        replacement=ast.BoolLit(value=True, ty=ty.BOOLEAN),
        description="p: s_b -> true", process_label=process.label,
    )
    engine = _clocked_engine(design)
    machine = engine._machine(_ClockedMachine, truthy,
                              engine.cover([truthy])[0])
    assert isinstance(machine, _ClockedMachine)
    machine.reset()
    for stimulus in _HOLD_STIMULI:
        machine.step(stimulus)
    assert type(machine.state()[0]["st"]) is int
    _assert_machines_match_delta_loop(engine, [truthy], _HOLD_STIMULI)


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


def test_clock_cycle_settles_combinational_reader_in_same_step():
    # The delta loop runs the reader of q in the rising edge's settle,
    # so the sample after the edge already shows the new q.
    design = load_design(_CLOCKED_Q % "y <= not q;")
    bench = Testbench(design, max_delta=8)
    bench.reset()
    for d in (1, 1, 0, 1, 0, 0):
        assert bench.step({"d": d}) == (1 - d,)


@pytest.mark.parametrize("sensitivity", ["clock", "clock, clock"])
def test_clock_cycle_runs_the_clock_watchers_on_both_edges(sensitivity):
    # A combinational process sensitive to the clock alone wakes once
    # on each edge, so its variable toggles twice per cycle (woken on
    # the rising edge only, y would alternate 0, 1, 0, 1).
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
    for d in (1, 0, 0, 1):
        assert bench.step({"d": d}) == (0,)


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
