"""Mutation engine tests: operators, generation, execution, scoring."""

import pytest

from repro.circuits import load_circuit
from repro.hdl import load_design
from repro.mutation import (
    MutationEngine,
    estimate_equivalents,
    generate_mutants,
    mutants_by_operator,
    mutation_score,
)
from repro.mutation.operators import OPERATOR_NAMES, operators_named
from repro.util import rng_stream

SMALL = """
entity small is
  port ( a, b : in bit; clock, reset : in bit; y : out bit );
end small;
architecture rtl of small is
  constant limit : integer := 2;
  signal cnt : integer range 0 to 3;
begin
  process (clock, reset)
  begin
    if reset = '1' then
      cnt <= 0;
      y <= '0';
    elsif rising_edge(clock) then
      y <= a and b;
      if cnt < limit then
        cnt <= cnt + 1;
      else
        cnt <= 0;
        y <= a or b;
      end if;
    end if;
  end process;
end rtl;
"""


@pytest.fixture(scope="module")
def small_design():
    return load_design(SMALL, "small")


def test_operator_registry_has_ten():
    assert len(OPERATOR_NAMES) == 10
    assert operators_named(["LOR", "CR"])[0].name == "LOR"


def test_unknown_operator_rejected():
    with pytest.raises(KeyError):
        operators_named(["XYZ"])


def test_mutants_deterministic(small_design):
    first = generate_mutants(small_design)
    second = generate_mutants(small_design)
    assert [m.description for m in first] == [
        m.description for m in second
    ]
    assert [m.mid for m in first] == list(range(len(first)))


def test_operator_restriction(small_design):
    only_lor = generate_mutants(small_design, ["LOR"])
    assert only_lor
    assert all(m.operator == "LOR" for m in only_lor)


def test_lor_counts(small_design):
    # Two logical expressions (and / or), five alternatives each.
    lor = generate_mutants(small_design, ["LOR"])
    assert len(lor) == 10


def test_aor_generates_arithmetic_swaps(small_design):
    aor = generate_mutants(small_design, ["AOR"])
    assert aor
    assert all("+" in m.description or "-" in m.description
               or "mod" in m.description or "rem" in m.description
               or "*" in m.description for m in aor)


def test_guard_plumbing_not_mutated(small_design):
    mutants = generate_mutants(small_design)
    assert not any("reset = '1'" in m.description for m in mutants)
    assert not any("rising_edge" in m.description for m in mutants)


def test_cr_includes_sibling_constants():
    design = load_design(
        """
        entity t is port ( clock : in bit; y : out bit ); end t;
        architecture rtl of t is
          constant c1 : integer := 1;
          constant c2 : integer := 2;
          signal s : integer range 0 to 3;
        begin
          process (clock)
          begin
            if rising_edge(clock) then
              s <= c1;
              if s = c1 then
                y <= '1';
              else
                y <= '0';
              end if;
            end if;
          end process;
        end rtl;
        """
    )
    cr = generate_mutants(design, ["CR"])
    assert any("c1 -> c2" in m.description for m in cr)


def test_ccr_replaces_case_choices(b01=None):
    design = load_circuit("b01")
    ccr = generate_mutants(design, ["CCR"])
    assert ccr
    assert all(m.description and "when" in m.description for m in ccr)


def test_vr_same_type_pool(small_design):
    vr = generate_mutants(small_design, ["VR"])
    # a and b are the only same-type (bit) data alternatives here.
    for mutant in vr:
        assert "->" in mutant.description


def test_mutant_patch_does_not_touch_design(small_design):
    mutants = generate_mutants(small_design, ["LOR"])
    engine = MutationEngine(small_design)
    stimuli = [0, 1, 2, 3, 3, 2, 1, 0]
    before = engine.reference_outputs(stimuli)
    engine.run_all(mutants, stimuli)
    after = engine.reference_outputs(stimuli)
    assert before == after


def test_killed_mutant_reports_cycle(small_design):
    mutants = generate_mutants(small_design, ["LOR"])
    engine = MutationEngine(small_design)
    stimuli = [3, 3, 3, 0, 1, 2, 3]
    records = engine.run_all(mutants, stimuli)
    killed = [r for r in records if r.killed and r.reason == "output-diff"]
    assert killed
    assert all(
        r.cycle is not None and 0 <= r.cycle < len(stimuli) for r in killed
    )


def test_runtime_error_mutants_killed(small_design):
    # AOR cnt+1 -> cnt-1 underflows the 0..3 range at cnt=0.
    mutants = generate_mutants(small_design, ["AOR"])
    engine = MutationEngine(small_design)
    records = engine.run_all(mutants, [3, 3, 3, 3])
    assert any(r.reason == "runtime" for r in records)


def test_compiled_and_interp_agree_on_kills(small_design):
    mutants = generate_mutants(small_design)
    stimuli = [0, 3, 1, 2, 3, 3, 0]
    compiled = MutationEngine(small_design, backend="compiled")
    interp = MutationEngine(small_design, backend="interp")
    rc = compiled.run_all(mutants, stimuli)
    ri = interp.run_all(mutants, stimuli)
    assert [(r.killed, r.cycle) for r in rc] == [
        (r.killed, r.cycle) for r in ri
    ]


def test_comb_kill_sets_match_run_mutant(c432=None):
    design = load_circuit("c17")
    mutants = generate_mutants(design, ["LOR"])[:10]
    engine = MutationEngine(design)
    rng = rng_stream(21, "killsets")
    vectors = [rng.getrandbits(5) for _ in range(16)]
    matrix = engine.comb_kill_sets(mutants, vectors)
    for mutant in mutants:
        record = engine.run_mutant(mutant, vectors)
        if record.killed:
            assert min(matrix[mutant.mid]) == record.cycle
        else:
            assert not matrix[mutant.mid]


def test_mutation_score_formula():
    assert mutation_score(100, 80, 20) == 1.0
    assert mutation_score(100, 40, 20) == 0.5
    assert mutation_score(10, 0, 10) == 1.0  # vacuous population


def test_equivalence_analysis_finds_redundant_mutant():
    # y <= a or (a and b): the CVR mutant b -> '1' yields a or a = a ...
    # wait, a or (a and '1') = a or a = a == original (absorption): the
    # mutant is equivalent and must survive the exhaustive campaign.
    design = load_design(
        """
        entity t is port ( a, b : in bit; y : out bit ); end t;
        architecture rtl of t is
        begin
          proc : process (a, b)
          begin
            y <= a or (a and b);
          end process proc;
        end rtl;
        """
    )
    mutants = generate_mutants(design, ["CVR"])
    target = next(
        m for m in mutants if "b -> '1'" in m.description
    )
    analysis = estimate_equivalents(design, mutants, budget=64, seed=3)
    assert analysis.exhaustive  # 2-bit input space
    assert target.mid in analysis.equivalent_mids


def test_equivalence_analysis_kills_real_mutants(small_design):
    mutants = generate_mutants(small_design, ["LOR"])
    analysis = estimate_equivalents(small_design, mutants, budget=64, seed=3)
    # 'and' -> 'nand' on the registered output is observably different.
    nand_mutant = next(
        m for m in mutants if "a nand b" in m.description
    )
    assert nand_mutant.mid not in analysis.equivalent_mids


def test_mutants_by_operator_partition(small_design):
    mutants = generate_mutants(small_design)
    groups = mutants_by_operator(mutants)
    assert sum(len(g) for g in groups.values()) == len(mutants)
    for op, group in groups.items():
        assert all(m.operator == op for m in group)


def test_descriptions_are_informative(small_design):
    for mutant in generate_mutants(small_design)[:50]:
        assert mutant.process_label in mutant.description
        assert str(mutant)
