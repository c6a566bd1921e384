"""Differential tests: the compiled mutant schema against the interpreter.

``backend="interp"`` is the reference semantics.  Every mutant of the
paper's small circuits (and a fixed slice of c499's) must produce the
same kill records, kill matrices and triage categories on both, runtime
errors and oscillation included.
"""

import sys
import threading

import pytest

from repro.circuits import load_circuit
from repro.hdl import load_design
from repro.hdl.values import BV
from repro.mutation import MutationEngine, generate_mutants
from repro.sim import StimulusEncoder
from repro.util import rng_stream


def _vectors(design, count, label):
    width = StimulusEncoder(design).width
    rng = rng_stream(11, design.name, label)
    return [rng.getrandbits(width) for _ in range(count)]


def _engines(design):
    return (MutationEngine(design, backend="compiled"),
            MutationEngine(design, backend="interp"))


def _assert_same(design, mutants, vectors):
    schema, interp = _engines(design)
    records = schema.run_all(mutants, vectors)
    assert records == interp.run_all(mutants, vectors)
    if not design.is_sequential:
        assert schema.comb_kill_sets(mutants, vectors) == (
            interp.comb_kill_sets(mutants, vectors)
        )
    survivors = [m for m, r in zip(mutants, records) if not r.killed]
    assert schema.triage_survivors(survivors, vectors) == (
        interp.triage_survivors(survivors, vectors)
    )
    return records


@pytest.mark.parametrize("name,count", [
    ("c17", 24), ("c432", 12), ("b01", 40), ("b03", 40),
])
def test_schema_matches_interp_on_every_mutant(name, count):
    design = load_circuit(name)
    mutants = generate_mutants(design)
    records = _assert_same(design, mutants, _vectors(design, count, "all"))
    assert any(r.killed for r in records)
    assert any(not r.killed for r in records)


def test_schema_matches_interp_on_c499_slice():
    design = load_circuit("c499")
    mutants = generate_mutants(design)[::25]
    assert len(mutants) == 133
    _assert_same(design, mutants, _vectors(design, 6, "slice"))


def test_runtime_kills_match_on_b03():
    # b03's slot arithmetic has range-violating mutants: those kills
    # must come from the inlined checks, at the same cycle.
    design = load_circuit("b03")
    mutants = generate_mutants(design)
    vectors = _vectors(design, 40, "all")
    schema, interp = _engines(design)
    runtime = [r for r in schema.run_all(mutants, vectors)
               if r.reason == "runtime"]
    assert runtime
    assert runtime == [r for r in interp.run_all(mutants, vectors)
                       if r.reason == "runtime"]


WRITE_THROUGH = """
entity wt is
  port ( a : in bit_vector(3 downto 0); k : in integer range 0 to 3;
         y : out bit_vector(3 downto 0); z : out bit );
end wt;
architecture rtl of wt is
begin
  p : process (a, k)
    variable last : bit_vector(3 downto 0);
    variable i : integer range 0 to 3;
  begin
    y <= last;
    last := a;
    i := 3 - k;
    z <= a(i);
  end process p;
end rtl;
"""


def test_variable_writes_survive_a_runtime_error():
    design = load_design(WRITE_THROUGH, "wt")
    mutants = generate_mutants(design)
    # AOR 3 - k -> 3 + k raises *after* ``last := a`` was written.
    plus = next(m for m in mutants if m.description.endswith("-> 3 + k"))
    encode = StimulusEncoder(design).encode
    a0, a1 = 0b1010, 0b0110
    vectors = [encode({"a": BV(a0, 4), "k": 1}),
               encode({"a": BV(a1, 4), "k": 0})]
    for engine in _engines(design):
        # Vector 0 raises; vector 1 then outputs ``last`` = a0, exactly
        # as the original does, so only vector 0 kills.
        assert engine.comb_kill_sets([plus], vectors) == {plus.mid: {0}}
    _assert_same(design, mutants, _vectors(design, 16, "wt") + vectors)


OSCILLATOR = """
entity osc is
  port ( b, c : in bit; y : out bit );
end osc;
architecture rtl of osc is
  signal s, t : bit;
begin
  s <= t and b;
  t <= c and s;
  y <= t;
end rtl;
"""


def test_oscillating_mutant_matches():
    design = load_design(OSCILLATOR, "osc")
    mutants = generate_mutants(design)
    # UOI s -> not s closes an inverting loop: s = t, t = not s.
    loop = next(m for m in mutants if m.description.endswith("s -> not s"))
    vectors = [0b00, 0b11, 0b01]
    for engine in _engines(design):
        record = engine.run_mutant(loop, vectors[:2])
        assert (record.killed, record.reason) == (True, "oscillation")
        assert engine.comb_kill_sets([loop], vectors)[loop.mid] == {1, 2}
    _assert_same(design, mutants, vectors)


OFFSET_VECTOR = """
entity ov is
  port ( v : in bit_vector(7 downto 4); s : in bit; y, z : out bit );
end ov;
architecture rtl of ov is
begin
  p : process (v, s)
  begin
    y <= v(5);
    z <= '0';
    for i in 4 to 7 loop
      if v(i) = s then
        z <= '1';
      end if;
    end loop;
  end process p;
end rtl;
"""


def test_prefix_type_change_is_hoisted():
    # CVR v -> "0000" is typed bit_vector(3 downto 0): the index must
    # specialize on the replacement's bounds (v(5) is out of range).
    design = load_design(OFFSET_VECTOR, "ov")
    mutants = generate_mutants(design)
    records = _assert_same(design, mutants, _vectors(design, 16, "ov"))
    cvr = [r for m, r in zip(mutants, records)
           if m.operator == "CVR" and '-> "' in m.description]
    assert cvr and all(r.reason == "runtime" for r in cvr)


def test_concurrent_sweeps_share_one_schema():
    # Threads sweeping disjoint mutant slices of one engine race to add
    # slots and recompile; a slot lost between two compiles would run
    # as the original design and change its matrix.
    design = load_circuit("c17")
    mutants = generate_mutants(design)
    vectors = _vectors(design, 3, "threads")
    slices = [mutants[start::8] for start in range(8)]
    expected = [MutationEngine(design).comb_kill_sets(part, vectors)
                for part in slices]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(6):
            engine = MutationEngine(design)
            results: dict[int, dict] = {}

            def sweep(index):
                results[index] = engine.comb_kill_sets(slices[index], vectors)

            threads = [threading.Thread(target=sweep, args=(index,))
                       for index in range(len(slices))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not any(thread.is_alive() for thread in threads)
            assert [results[i] for i in range(len(slices))] == expected
    finally:
        sys.setswitchinterval(interval)


def test_new_mutants_recompile_over_the_union():
    design = load_circuit("c432")
    mutants = generate_mutants(design)
    vectors = _vectors(design, 8, "union")
    engine = MutationEngine(design)
    first = engine.comb_kill_sets(mutants[:100], vectors)
    second = engine.comb_kill_sets(mutants[300:400], vectors)
    again = engine.comb_kill_sets(mutants[:100], vectors)
    fresh = MutationEngine(design).comb_kill_sets(mutants[300:400], vectors)
    assert first == again and second == fresh
    assert len(engine._schema._patches) == 1 + 200


VECTOR_CASE = """
entity vc is
  port ( v : in bit_vector(1 downto 0); a : in bit; y : out bit );
end vc;
architecture rtl of vc is
begin
  p : process (v, a)
  begin
    case v is
      when "00" => y <= a;
      when "01" => y <= not a;
      when "10" => y <= '1';
      when "11" => y <= a;
      when others => null;
    end case;
  end process p;
end rtl;
"""


def test_vector_case_choices_dispatch_by_table():
    # Every choice has several constant CCR replacements, so the schema
    # looks them up in a slot table of (value, width) keys.
    design = load_design(VECTOR_CASE, "vc")
    mutants = generate_mutants(design)
    ccr = [m for m in mutants if m.operator == "CCR"]
    assert len(ccr) >= 6
    records = _assert_same(design, mutants, list(range(8)))
    assert any(r.killed for m, r in zip(mutants, records) if m in ccr)
