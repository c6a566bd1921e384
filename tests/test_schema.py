"""Differential tests: the compiled mutant schema against the interpreter.

``backend="interp"`` is the reference semantics.  Every mutant of the
paper's small circuits (and a fixed slice of c499's) must produce the
same kill records, kill matrices and triage categories on both, runtime
errors and oscillation included; on the sequential circuits also the
same equivalence estimates and generated test sets.  On the comb fast
path and on sequential designs the compiled sweeps are screened by an
infection probe; every comparison there also checks that the screen
skipped some pairs, and that the interpreter skipped none.  Hand-built
designs pin the sequential screen's edges: a reset-branch mutant, a
mutant that leaves the original's path and rejoins it, a late runtime
error, a post-edge settle, a caller reference or trace that differs
from the original, and a state that differs only in class.
"""

import hashlib
import sys
import threading

import pytest

from repro.circuits import load_circuit
from repro.hdl import ast, load_design
from repro.hdl import types as ty
from repro.hdl.values import BV
from repro.mutation import (
    KillRecord,
    Mutant,
    MutationEngine,
    estimate_equivalents,
    generate_mutants,
)
from repro.mutation.execution import (
    NEVER_ACTIVATED,
    PROPAGATION_BLOCKED,
    _can_fast_path,
)
from repro.mutation.score import equivalence_stimuli
from repro.obs import metrics
from repro.search import SearchBudget
from repro.sim import StimulusEncoder, Testbench
from repro.testgen.mutation_gen import MutationTestGenerator
from repro.util import rng_stream


def _vectors(design, count, label):
    width = StimulusEncoder(design).width
    rng = rng_stream(11, design.name, label)
    return [rng.getrandbits(width) for _ in range(count)]


def _engines(design):
    return (MutationEngine(design, backend="compiled"),
            MutationEngine(design, backend="interp"))


def _screened(run):
    """``run()``'s result and its ``(pairs, runs)`` screen counters."""
    with metrics.collecting() as registry:
        result = run()
    counters = registry.snapshot()["counters"]
    return result, (counters.get("mutation.screen.pairs", 0),
                    counters.get("mutation.screen.runs", 0))


def _assert_same(design, mutants, vectors):
    schema, interp = _engines(design)
    records, schema_counts = _screened(
        lambda: schema.run_all(mutants, vectors)
    )
    interp_records, interp_counts = _screened(
        lambda: interp.run_all(mutants, vectors)
    )
    assert records == interp_records
    sweeps = [(schema_counts, interp_counts)]
    if not design.is_sequential:
        matrix, counts = _screened(
            lambda: schema.comb_kill_sets(mutants, vectors)
        )
        expected, unscreened = _screened(
            lambda: interp.comb_kill_sets(mutants, vectors)
        )
        assert matrix == expected
        sweeps.append((counts, unscreened))
    # Every walk counts its pairs.  Every step is a pair; the screen
    # skips some only when compiled, and never on the comb bench path.
    screened = design.is_sequential or _can_fast_path(design)
    for (pairs, runs), (all_pairs, all_runs) in sweeps:
        if screened:
            assert 0 < runs < pairs
        else:
            assert 0 < runs == pairs
        assert 0 < all_runs == all_pairs
    survivors = [m for m, r in zip(mutants, records) if not r.killed]
    assert schema.triage_survivors(survivors, vectors) == (
        interp.triage_survivors(survivors, vectors)
    )
    return records


@pytest.mark.parametrize("name,count", [
    ("c17", 24), ("c432", 12), ("b01", 40), ("b02", 40), ("b03", 40),
    ("b06", 40),
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


HOLD = """
entity hold is
  port ( a, b : in bit; y : out bit );
end hold;
architecture rtl of hold is
begin
  p : process (a, b)
    variable n : bit;
  begin
    if b = '1' then
      n := a;
    end if;
    y <= n;
  end process p;
end rtl;
"""


def test_comb_fast_path_carries_variables_across_vectors():
    # ``n`` holds its value while b = '0': the fast path runs vectors in
    # order on one variable map, as across process activations.
    design = load_design(HOLD, "hold")
    encode = StimulusEncoder(design).encode
    vectors = [encode({"a": a, "b": b})
               for a, b in ((0, 1), (1, 0), (0, 1), (1, 1), (0, 0))]
    mutants = generate_mutants(design)
    # CVR a -> '1' stores a wrong n on vectors 0 and 2; it kills on
    # vector 1, where its site is not even reached, only by the value
    # it carries in, and it agrees with the original again from 3 on.
    stuck = next(m for m in mutants if m.description.endswith("a -> '1'"))
    for engine in _engines(design):
        assert engine.reference_outputs(vectors) == [
            (0,), (0,), (0,), (1,), (1,)
        ]
        assert engine.comb_kill_sets([stuck], vectors) == {
            stuck.mid: {0, 1, 2}
        }
        assert engine.run_mutant(stuck, vectors[1:]) == KillRecord(
            stuck.mid, True, 1, "output-diff"
        )
        # A caller's reference is honoured where the screen would skip.
        assert engine.run_mutant(stuck, vectors[4:], [(1,)]) == KillRecord(
            stuck.mid, True, 0, "output-diff"
        )
    # Only vector 4 is skipped: the mutant diverges on 0 and re-joins
    # the original's state only after 3.
    _, counts = _screened(
        lambda: MutationEngine(design).comb_kill_sets([stuck], vectors)
    )
    assert counts == (5, 4)
    _assert_same(design, mutants, vectors + _vectors(design, 16, "hold"))


def test_comb_triage_starts_every_vector_from_the_pristine_state():
    # Triage on a comb design restarts each vector from the pristine
    # state, unlike the fast path's kills: on (a, b) = (1, 1), (1, 0) the
    # original holds n = 1 into vector 1, but from the pristine state it
    # keeps n = 0 there while ``b -> a`` (mid 4) stores n = 1, so that
    # survivor counts as activated.
    design = load_design(HOLD, "hold")
    mutants = generate_mutants(design)
    assert mutants[4].description == "p: b -> a"
    vectors = [3, 2]
    for engine in _engines(design):
        records = engine.run_all(mutants, vectors)
        survivors = [m for m, r in zip(mutants, records) if not r.killed]
        assert engine.triage_survivors(survivors, vectors) == {
            4: PROPAGATION_BLOCKED, 7: PROPAGATION_BLOCKED,
            9: NEVER_ACTIVATED, 10: PROPAGATION_BLOCKED,
            14: NEVER_ACTIVATED, 17: NEVER_ACTIVATED,
            20: PROPAGATION_BLOCKED, 23: PROPAGATION_BLOCKED,
        }


#: ``HOLD`` plus a second process, so off the comb fast path.
HOLD_TWO = HOLD.replace("y : out bit", "y, z : out bit").replace(
    "end process p;", "end process p;\n  q : process (a)\n  begin\n"
    "    z <= a;\n  end process q;",
)


def test_bench_path_reference_starts_every_vector_from_the_pristine_state():
    # The bench path runs every mutant's vector from the pristine state;
    # the reference must too.  Carried over, n = 1 from vector 0 would
    # give y = 1 on vector 1, and ``'1' -> a`` (whose outputs equal the
    # original's on every vector) would count as killed there.
    design = load_design(HOLD_TWO, "hold")
    assert not _can_fast_path(design)
    encode = StimulusEncoder(design).encode
    stimuli = [{"a": a, "b": b} for a, b in ((1, 1), (0, 0), (0, 1), (1, 0))]
    vectors = [encode(stimulus) for stimulus in stimuli]
    pristine = [Testbench(design).run_sequence([stimulus])[0]
                for stimulus in stimuli]
    assert pristine == [(1, 1), (0, 0), (0, 0), (0, 1)]
    mutants = generate_mutants(design)
    same = _nth(mutants, "p: '1' -> a")
    for engine in _engines(design):
        assert engine.reference_outputs(vectors) == pristine
        assert engine.run_mutant(same, vectors) == KillRecord(
            same.mid, False, None, "survived"
        )
        assert engine.comb_kill_sets([same], vectors) == {same.mid: set()}
    _assert_same(design, mutants, vectors + _vectors(design, 8, "hold2"))


SHORT_CIRCUIT = """
entity sc is
  port ( k : in integer range 0 to 3; v : in bit_vector(3 downto 0);
         y : out bit );
end sc;
architecture rtl of sc is
begin
  p : process (k, v)
  begin
    y <= '0';
    if k > 0 and v(k - 1) = '1' then
      y <= '1';
    end if;
  end process p;
end rtl;
"""


def test_screen_respects_short_circuit_and_partial_errors():
    # ``v(k - 1)`` is only evaluated when k > 0 (at k = 0 the original
    # itself would index out of range), and AOR k - 1 -> k + 1 raises
    # only on the vectors with k = 3.
    design = load_design(SHORT_CIRCUIT, "sc")
    encode = StimulusEncoder(design).encode
    vectors = [encode({"k": k, "v": BV(v, 4)})
               for k in range(4) for v in (0b0000, 0b1111, 0b0101)]
    mutants = generate_mutants(design)
    plus = next(m for m in mutants if m.description.endswith("-> k + 1"))
    for engine in _engines(design):
        assert engine.comb_kill_sets([plus], vectors) == {
            plus.mid: {9, 10, 11}
        }
    records = _assert_same(design, mutants, vectors)
    assert any(r.reason == "runtime" for r in records)


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


#: ``OFFSET_VECTOR`` plus a second process, so off the comb fast path.
OFFSET_VECTOR_TWO = OFFSET_VECTOR.replace(
    "y, z : out bit", "y, z, w : out bit"
).replace(
    "end process p;", "end process p;\n  q : process (s)\n  begin\n"
    "    w <= s;\n  end process q;",
)


def test_bench_path_reset_error_kills_every_vector():
    # CVR v -> "0000" raises as soon as p runs, so already in the
    # pristine bench's reset: a runtime kill with no cycle, a kill on
    # every vector, and an activated survivor in triage.
    design = load_design(OFFSET_VECTOR_TWO, "ov")
    assert not _can_fast_path(design)
    mutants = generate_mutants(design)
    cvr = next(m for m in mutants
               if m.operator == "CVR" and '-> "' in m.description)
    vectors = _vectors(design, 6, "ov2")
    for engine in _engines(design):
        assert engine.run_mutant(cvr, vectors) == KillRecord(
            cvr.mid, True, None, "runtime"
        )
        assert engine.comb_kill_sets([cvr], vectors) == {
            cvr.mid: set(range(6))
        }
        assert engine.triage_survivor(cvr, vectors) == PROPAGATION_BLOCKED


def test_concurrent_sweeps_share_one_schema():
    # Threads sweeping disjoint mutant slices of one engine race to add
    # slots and recompile; a slot lost between two compiles would run
    # as the original design and change its matrix.  On c432 (the comb
    # fast path) they also race to build and memoize the screen's probe.
    for name in ("c17", "c432"):
        _race_sweeps(load_circuit(name))


def _race_sweeps(design):
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


# -- the sequential screen --------------------------------------------------


def _nth(mutants, text, nth=0):
    """The ``nth`` mutant, in generation order, whose description ends
    in ``text``."""
    return [m for m in mutants if m.description.endswith(text)][nth]


def test_sequential_run_all_records_screen_counters():
    design = load_circuit("b03")
    mutants = generate_mutants(design)
    _, (pairs, runs) = _screened(
        lambda: MutationEngine(design).run_all(
            mutants, _vectors(design, 24, "counters")
        )
    )
    assert pairs > runs > 0


@pytest.mark.parametrize("name", ["b01", "b02", "b03", "b06"])
def test_sequential_sweeps_match_interp(name):
    # Equivalence estimates and generated test sets, on every mutant:
    # the generator's candidate chunks and commits go through the same
    # screen as run_mutant.
    design = load_circuit(name)
    mutants = generate_mutants(design)
    analyses, generated = [], []
    for engine in _engines(design):
        analyses.append(_screened(lambda: estimate_equivalents(
            design, mutants, budget=48, engine=engine
        )))
        generator = MutationTestGenerator(
            design, seed=5, engine=engine, max_vectors=48,
            search_budget=SearchBudget(max_candidates=144),
        )
        generated.append(_screened(lambda: generator.generate(mutants)))
    for (result, counts), (expected, unscreened) in (analyses, generated):
        assert result == expected
        assert 0 < counts[1] < counts[0]
        assert 0 < unscreened[1] == unscreened[0]
    result = generated[0][0]
    assert result.vectors and result.killed_mids


RESET_BRANCH = """
entity rb is
  port ( clock, reset, d : in bit; y : out bit );
end rb;
architecture rtl of rb is
  signal q : bit;
begin
  p : process (clock, reset)
  begin
    if reset = '1' then
      q <= '0';
      y <= '0';
    elsif rising_edge(clock) then
      if d = '1' then
        q <= not q;
      end if;
      y <= q;
    end if;
  end process p;
end rtl;
"""


def test_reset_branch_mutant_is_infected_during_reset():
    # CR q <= '0' -> '1' sits in the reset branch: the reset sequence
    # is its only infection, and its state leaves the original's there.
    design = load_design(RESET_BRANCH, "rb")
    mutants = generate_mutants(design)
    stuck = _nth(mutants, "'0' -> '1'")
    vectors = [0] * 6
    for engine in _engines(design):
        assert engine.run_mutant(stuck, vectors) == KillRecord(
            stuck.mid, True, 0, "output-diff"
        )
        assert engine.triage_survivor(stuck, vectors) == PROPAGATION_BLOCKED
    _assert_same(design, mutants, vectors + _vectors(design, 16, "rb"))


REJOIN = """
entity rj is
  port ( clock, reset, load, d, e : in bit; y : out bit );
end rj;
architecture rtl of rj is
  signal r : bit;
begin
  p : process (clock, reset)
  begin
    if reset = '1' then
      r <= '0';
      y <= '0';
    elsif rising_edge(clock) then
      if load = '1' then
        r <= d;
      end if;
      y <= r and e;
    end if;
  end process p;
end rtl;
"""


def test_mutant_rejoins_the_original_path():
    design = load_design(REJOIN, "rj")
    encode = StimulusEncoder(design).encode
    vectors = [encode({"load": load, "d": d, "e": e}) for load, d, e in (
        (1, 0, 0),  # 0: infected, r = 1 against 0: off the path
        (0, 0, 0),  # 1: runs (off the path); e = 0 masks r
        (1, 1, 0),  # 2: not infected, but runs; r = 1 on both: rejoins
        (0, 0, 1),  # 3: skipped (site not reached)
        (1, 1, 1),  # 4: skipped ('1' = d: not infected)
        (1, 0, 0),  # 5: infected again: off the path
        (0, 0, 1),  # 6: y = r: kills
    )]
    mutants = generate_mutants(design)
    stuck = _nth(mutants, ": d -> '1'")
    for engine in _engines(design):
        assert engine.run_mutant(stuck, vectors) == KillRecord(
            stuck.mid, True, 6, "output-diff"
        )
        assert engine.triage_survivor(stuck, vectors[:5]) == (
            PROPAGATION_BLOCKED
        )
    record, counts = _screened(
        lambda: MutationEngine(design).run_mutant(stuck, vectors)
    )
    assert counts == (7, 5)
    _, counts = _screened(
        lambda: MutationEngine(design, backend="interp").run_mutant(
            stuck, vectors
        )
    )
    assert counts == (7, 7)
    _assert_same(design, mutants, vectors + _vectors(design, 24, "rj"))


COUNTER = """
entity ctr is
  port ( clock, reset, en : in bit; y : out bit );
end ctr;
architecture rtl of ctr is
  signal cnt : integer range 0 to 7;
begin
  p : process (clock, reset)
  begin
    if reset = '1' then
      cnt <= 0;
      y <= '0';
    elsif rising_edge(clock) then
      if en = '1' then
        if cnt = 7 then
          cnt <= 0;
        else
          cnt <= cnt + 1;
        end if;
      end if;
      if cnt = 3 then
        y <= '1';
      else
        y <= '0';
      end if;
    end if;
  end process p;
end rtl;
"""


def test_range_error_on_a_late_infected_cycle():
    # ROR cnt = 7 -> cnt > 7 agrees with the original until cnt reaches
    # 7 (cycle 7); there it takes the else branch and cnt + 1 = 8
    # overflows the range.
    design = load_design(COUNTER, "ctr")
    mutants = generate_mutants(design)
    late = _nth(mutants, "cnt = 7 -> cnt > 7")
    vectors = [1] * 10
    for engine in _engines(design):
        assert engine.run_mutant(late, vectors) == KillRecord(
            late.mid, True, None, "runtime"
        )
        assert engine.run_mutant(late, vectors[:7]).reason == "survived"
    _, counts = _screened(
        lambda: MutationEngine(design).run_mutant(late, vectors)
    )
    assert counts == (8, 1)
    records = _assert_same(design, mutants,
                           vectors + _vectors(design, 24, "ctr"))
    assert any(r.reason == "runtime" for r in records)


def test_caller_reference_and_trace_that_differ_from_the_original():
    # With en = 0 the mutant's site is never reached, so the screen
    # would skip every cycle: a caller's reference or trace that is not
    # the original's makes it run where they differ.
    design = load_design(COUNTER, "ctr")
    mutants = generate_mutants(design)
    late = _nth(mutants, "cnt = 7 -> cnt > 7")
    vectors = [0] * 5
    for engine in _engines(design):
        reference = engine.reference_outputs(vectors)
        assert engine.run_mutant(late, vectors, reference).reason == (
            "survived"
        )
        wrong = list(reference)
        wrong[2] = (1,)
        assert engine.run_mutant(late, vectors, wrong) == KillRecord(
            late.mid, True, 2, "output-diff"
        )
        trace = engine.reference_state_trace(vectors)
        assert engine.triage_survivor(late, vectors, trace) == (
            NEVER_ACTIVATED
        )
        values, variables = trace[3]
        bent = list(trace)
        bent[3] = ({**values, "cnt": 5}, variables)
        assert engine.triage_survivor(late, vectors, bent) == (
            PROPAGATION_BLOCKED
        )
    wrong = list(MutationEngine(design).reference_outputs(vectors))
    wrong[2] = (1,)
    _, counts = _screened(
        lambda: MutationEngine(design).run_mutant(late, vectors, wrong)
    )
    assert counts == (3, 1)


SETTLE = """
entity cs is
  port ( clock, reset, d : in bit; y : out bit );
end cs;
architecture rtl of cs is
  signal q : bit;
begin
  seq : process (clock, reset)
  begin
    if reset = '1' then
      q <= '0';
    elsif rising_edge(clock) then
      q <= d;
    end if;
  end process seq;
  comb : process (q)
  begin
    if q = '1' then
      y <= '1';
    else
      y <= '0';
    end if;
  end process comb;
end rtl;
"""


def test_probe_covers_the_settle_after_the_clock_edge():
    # ``comb`` runs only in the delta settle after an edge that changes
    # q.  CR y <= '1' -> '0' (the second "'1' -> '0'": the first is in
    # q = '1') is reached only once q = 1, and only there.
    design = load_design(SETTLE, "cs")
    mutants = generate_mutants(design)
    dark = _nth(mutants, "comb: '1' -> '0'", 1)
    vectors = [0, 0, 1, 1, 0]
    for engine in _engines(design):
        assert engine.run_mutant(dark, vectors) == KillRecord(
            dark.mid, True, 2, "output-diff"
        )
    _, counts = _screened(
        lambda: MutationEngine(design).run_mutant(dark, vectors)
    )
    assert counts == (3, 1)
    _assert_same(design, mutants, vectors + _vectors(design, 16, "cs"))


def test_state_equal_only_by_value_stays_off_the_path():
    # A hand-built mutant writes True for s_b (index 1) into b02's enum
    # state: equal to the original's 1, but not of its class, so the
    # mutant stays off the path until stato is written again (cycle 1).
    design = load_circuit("b02")
    site = _nth(generate_mutants(design), ": s_b -> s_a")
    truthy = Mutant(
        mid=10_000, operator="test", site_nid=site.site_nid,
        replacement=ast.BoolLit(value=True, ty=ty.BOOLEAN),
        description="fsm: s_b -> true", process_label=site.process_label,
    )
    vectors = [1, 0, 0, 0, 0, 0]
    for engine in _engines(design):
        assert engine.run_mutant(truthy, vectors).reason == "survived"
    _, counts = _screened(
        lambda: MutationEngine(design).run_mutant(truthy, vectors)
    )
    assert counts == (6, 2)


# -- probe pins -------------------------------------------------------------


def _probe_digest(probe):
    """sha256 of a probe's infection masks (sorted ``(slot, mask)``
    pairs) and its reset slots."""
    text = repr((sorted(probe.masks.items()), sorted(probe.reset)))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: ``_probe_digest`` per pinned pass; re-pin only for a change meant to
#: move which slots a probe reports as infected, and say why.
PROBE_GOLDEN = {
    "c432": "1a15982017233ad7429af1b9941086c048f819e93b710d8deb26b06210895635",
    "b03": "5a17b9a745c6be3db82558f4cdbb42fe8b29a2f5082f675c8a58309c63c4e80b",
}


def test_comb_probe_masks_are_pinned():
    # c432's loop bodies reach each site nine times per vector.
    design = load_circuit("c432")
    engine = MutationEngine(design)
    engine.cover(generate_mutants(design))
    stimuli, _ = equivalence_stimuli(design, 64, 20050307)
    probe = engine._probe(stimuli, engine._schema.covered())
    assert not probe.reset and len(probe.masks) > 100
    assert _probe_digest(probe) == PROBE_GOLDEN["c432"]


def test_sequential_probe_masks_are_pinned():
    design = load_circuit("b03")
    engine = MutationEngine(design)
    engine.cover(generate_mutants(design))
    decoded = engine.decode_all(_vectors(design, 32, "probe-pin"))
    probe = engine._pass(
        decoded, prober=engine._prober(engine._schema.covered())
    )
    assert probe.reset and len(probe.masks) > 100
    assert _probe_digest(probe) == PROBE_GOLDEN["b03"]


def _probe_metrics(run):
    """``(passes, activations, seconds count)`` of ``run()``'s probes."""
    with metrics.collecting() as registry:
        run()
    snapshot = registry.snapshot()
    counters = snapshot["counters"]
    seconds = snapshot["histograms"].get("mutation.probe.seconds", {})
    return (counters.get("mutation.probe.passes", 0),
            counters.get("mutation.probe.activations", 0),
            seconds.get("count", 0))


def test_probe_passes_record_metrics_once_per_pass():
    # One pass per stimulus list: the second sweep of a list hits the
    # probe memo; vectors on the comb path, cycles on sequential ones.
    design = load_circuit("c432")
    mutants = generate_mutants(design)[::8]
    vectors = _vectors(design, 12, "probe-metrics")
    engine = MutationEngine(design)

    def sweeps():
        engine.comb_kill_sets(mutants, vectors)
        engine.comb_kill_sets(mutants, vectors)

    assert _probe_metrics(sweeps) == (1, 12, 1)
    design = load_circuit("b03")
    mutants = generate_mutants(design)[::4]
    engine = MutationEngine(design)
    vectors = _vectors(design, 10, "probe-metrics")
    assert _probe_metrics(lambda: engine.run_all(mutants, vectors)) == (
        1, 10, 1
    )
    # The interpreter's reference trace is an unprobed pass.
    interp = MutationEngine(design, backend="interp")
    assert _probe_metrics(
        lambda: interp.reference_state_trace(vectors)
    ) == (0, 0, 0)
