"""Test generation: random/LFSR sources, mutation-adequate selection,
PODEM and compaction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import load_circuit
from repro.fault import CombFaultSimulator, collapse_faults
from repro.mutation import MutationEngine, generate_mutants
from repro.testgen import (
    LfsrGenerator,
    MutationTestGenerator,
    Podem,
    RandomVectorGenerator,
    reverse_order_compaction,
)
from repro.testgen.atpg import AtpgError
from repro.netlist.bench import C17_BENCH, parse_bench
from tests.conftest import netlist_of


def test_random_generator_deterministic():
    a = RandomVectorGenerator(16, 42).vectors(20)
    b = RandomVectorGenerator(16, 42).vectors(20)
    assert a == b


def test_random_generator_label_sensitivity():
    a = RandomVectorGenerator(16, 42, "x").vectors(20)
    b = RandomVectorGenerator(16, 42, "y").vectors(20)
    assert a != b


@given(st.integers(min_value=1, max_value=48))
def test_random_vectors_fit_width(width):
    gen = RandomVectorGenerator(width, 7)
    assert all(0 <= v < 2**width for v in gen.vectors(50))


@pytest.mark.parametrize("count", [0, -1, -20])
def test_random_vectors_rejects_non_positive_counts(count):
    from repro.errors import TestGenError

    with pytest.raises(TestGenError):
        RandomVectorGenerator(8, 7).vectors(count)
    with pytest.raises(TestGenError):
        LfsrGenerator(8, 7).vectors(count)


def test_lfsr_taps_table_is_validated():
    from repro.errors import TestGenError
    from repro.testgen.random_gen import LFSR_TAPS, _validate_taps

    _validate_taps(LFSR_TAPS)  # the shipped table passes
    broken = dict(LFSR_TAPS)
    del broken[17]
    with pytest.raises(TestGenError):
        _validate_taps(broken)  # a coverage gap is caught
    with pytest.raises(TestGenError):
        _validate_taps({**LFSR_TAPS, 8: (6, 5, 4)})  # missing top bit
    with pytest.raises(TestGenError):
        _validate_taps({**LFSR_TAPS, 8: (8, 9)})  # tap out of range
    with pytest.raises(TestGenError):
        _validate_taps({**LFSR_TAPS, 8: (8, 8, 5, 4)})  # duplicate tap


@pytest.mark.parametrize("width", [2, 3, 4, 5, 8])
def test_lfsr_maximal_period(width):
    gen = LfsrGenerator(width, seed=1)
    seen = set()
    for _ in range(2**width - 1):
        seen.add(gen.vector())
    assert len(seen) == 2**width - 1
    assert 0 not in seen or width == 1


@given(st.integers(min_value=2, max_value=8),
       st.integers(min_value=1, max_value=2**30))
@settings(max_examples=30, deadline=None)
def test_lfsr_full_period_never_repeats_before_cycling(width, seed):
    # Maximal-length property: from any non-zero seed state, the first
    # 2**n - 1 outputs are pairwise distinct (every non-zero state is
    # visited exactly once), and the sequence then cycles.
    gen = LfsrGenerator(width, seed=seed)
    period = 2**width - 1
    sequence = gen.vectors(period)
    assert len(set(sequence)) == period
    assert 0 not in sequence
    assert gen.vectors(period) == sequence


def test_lfsr_wide_fold():
    gen = LfsrGenerator(50, seed=1)
    vectors = gen.vectors(10)
    assert all(0 <= v < 2**50 for v in vectors)
    assert len(set(vectors)) > 1


def test_lfsr_deterministic():
    assert LfsrGenerator(8, 3).vectors(10) == LfsrGenerator(8, 3).vectors(10)


# -- mutation-adequate generation ------------------------------------------


def verify_kills(design, mutants, result):
    """Independently re-check that the claimed mutants die on the set."""
    engine = MutationEngine(design)
    by_mid = {m.mid: m for m in mutants}
    for mid in sorted(result.killed_mids)[:25]:
        record = engine.run_mutant(by_mid[mid], result.vectors)
        assert record.killed, f"mutant {mid} claimed killed but survives"


def test_comb_generation_kills_what_it_claims():
    design = load_circuit("c17")
    mutants = generate_mutants(design)
    generator = MutationTestGenerator(design, seed=5, max_vectors=64)
    result = generator.generate(mutants)
    assert result.vectors
    assert result.kill_fraction > 0.8
    verify_kills(design, mutants, result)


def test_seq_generation_kills_what_it_claims():
    design = load_circuit("b01")
    mutants = generate_mutants(design, ["LOR", "CR"])
    generator = MutationTestGenerator(design, seed=5, max_vectors=96)
    result = generator.generate(mutants)
    assert result.vectors
    assert result.kill_fraction > 0.5
    verify_kills(design, mutants, result)


def test_generation_respects_max_vectors():
    design = load_circuit("b01")
    mutants = generate_mutants(design)
    generator = MutationTestGenerator(design, seed=5, max_vectors=12)
    result = generator.generate(mutants)
    assert len(result.vectors) <= 12 + 4  # chunk granularity slack


def test_generation_deterministic():
    design = load_circuit("b01")
    mutants = generate_mutants(design, ["LOR"])
    r1 = MutationTestGenerator(design, seed=9).generate(mutants)
    r2 = MutationTestGenerator(design, seed=9).generate(mutants)
    assert r1.vectors == r2.vectors
    assert r1.killed_mids == r2.killed_mids


def test_seq_generation_decodes_each_candidate_chunk_once():
    design = load_circuit("b01")
    mutants = generate_mutants(design)
    engine = MutationEngine(design)
    encoder = engine.encoder
    calls = []
    decode = encoder.decode
    encoder.decode = lambda packed: calls.append(packed) or decode(packed)
    generator = MutationTestGenerator(
        design, seed=5, engine=engine, chunk_length=4
    )
    result = generator.generate(mutants)
    assert result.rounds > 1 and result.vectors
    assert 0 < len(calls) <= result.candidates_tried + 4 * result.rounds


def test_generation_empty_mutant_list():
    design = load_circuit("c17")
    result = MutationTestGenerator(design, seed=1).generate([])
    assert result.vectors == []
    assert result.kill_fraction == 1.0


# -- PODEM -------------------------------------------------------------------


@pytest.fixture(scope="module")
def c17net():
    return parse_bench(C17_BENCH, "c17")


def test_podem_detects_every_c17_fault(c17net):
    podem = Podem(c17net)
    faults = collapse_faults(c17net)
    result = podem.run(faults)
    assert result.detected == len(faults)
    assert result.redundant == 0
    # Cross-check every generated vector with the fault simulator.
    sim = CombFaultSimulator(c17net, faults)
    for outcome in result.outcomes:
        fault_result = CombFaultSimulator(
            c17net, [outcome.fault]
        ).simulate([outcome.vector])
        assert fault_result.detection[0] == 0, outcome.fault
    del sim


def test_podem_finds_redundant_fault():
    # y = a OR (a AND b): the AND output stuck-at-0 is redundant
    # (absorption: y == a either way).
    text = (
        "INPUT(a)\nINPUT(b)\nOUTPUT(y)\n"
        "t = AND(a, b)\ny = OR(a, t)\n"
    )
    netlist = parse_bench(text, "redundant")
    from repro.fault.model import StuckAtFault

    target_net = next(
        n.nid for n in netlist.nets if n.name == "t"
    )
    outcome = Podem(netlist).generate(StuckAtFault(net=target_net, stuck=0))
    assert outcome.status == "redundant"


def test_podem_vectors_on_synthesized_c432():
    netlist = netlist_of("c432")
    faults = collapse_faults(netlist)[:40]
    result = Podem(netlist, backtrack_limit=300).run(faults)
    assert result.detected > 0
    for outcome in result.outcomes:
        if outcome.status != "detected":
            continue
        check = CombFaultSimulator(
            netlist, [outcome.fault]
        ).simulate([outcome.vector])
        assert check.detection[0] == 0


def test_podem_rejects_sequential():
    with pytest.raises(AtpgError):
        Podem(netlist_of("b01"))


# -- compaction ----------------------------------------------------------------


def test_compaction_preserves_coverage(c17net):
    from repro.util import rng_stream

    rng = rng_stream(8, "compaction")
    vectors = [rng.getrandbits(5) for _ in range(40)]
    sim = CombFaultSimulator(c17net)
    before = sim.simulate(vectors).coverage()
    compacted = reverse_order_compaction(c17net, vectors)
    after = sim.simulate(compacted).coverage()
    assert after == pytest.approx(before)
    assert len(compacted) <= len(vectors)
    assert set(compacted) <= set(vectors)


def test_compaction_empty():
    netlist = parse_bench(C17_BENCH, "c17")
    assert reverse_order_compaction(netlist, []) == []


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=31), min_size=1,
                max_size=25))
def test_compaction_never_increases_length(vectors):
    netlist = parse_bench(C17_BENCH, "c17")
    compacted = reverse_order_compaction(netlist, vectors)
    assert len(compacted) <= len(vectors)
