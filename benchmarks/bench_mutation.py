"""Performance: mutant generation and schema execution.

``run_benchmarks.py --suite mutation`` turns the comb kill-sweep rows
(``test_comb_kill_sweep_speed``) into the ``BENCH_mutation.json``
trajectory at the repo root.
"""

import pytest

from benchmarks.conftest import cpus
from repro.circuits import load_circuit
from repro.mutation import MutationEngine, generate_mutants
from repro.sim import StimulusEncoder
from repro.util import rng_stream

#: Comb kill sweeps: circuit -> (mutant stride, vectors per batch).
#: c499's population is sliced so a round stays around a second.
SWEEPS = {"c432": (1, 64), "c499": (4, 32)}


@pytest.mark.parametrize("name", ["b01", "c432"])
def test_mutant_generation_speed(benchmark, name):
    design = load_circuit(name)
    mutants = benchmark(generate_mutants, design)
    assert len(mutants) > 100


@pytest.mark.parametrize("name", ["b01", "c432"])
def test_mutant_execution_speed(benchmark, name):
    design = load_circuit(name)
    mutants = generate_mutants(design)[:150]
    engine = MutationEngine(design)
    width = StimulusEncoder(design).width
    rng = rng_stream(2, name, "bench-mut")
    stimuli = [rng.getrandbits(width) for _ in range(32)]
    reference = engine.reference_outputs(stimuli)

    def campaign():
        return engine.run_all(mutants, stimuli, reference)

    records = benchmark.pedantic(campaign, rounds=2, iterations=1)
    assert sum(r.killed for r in records) > 0


def test_compiled_vs_interpreted_speedup(benchmark):
    """The mutant schema is the campaign default: time a mutant sweep."""
    design = load_circuit("c432")
    mutants = generate_mutants(design)[::4]
    width = StimulusEncoder(design).width
    rng = rng_stream(3, "bench-backend")
    stimuli = [rng.getrandbits(width) for _ in range(32)]
    compiled = MutationEngine(design, backend="compiled")
    reference = compiled.reference_outputs(stimuli)

    def sweep():
        return compiled.run_all(mutants, stimuli, reference)

    records = benchmark.pedantic(sweep, rounds=3, iterations=1)
    # The interpreter is the oracle; a sub-slice keeps the check cheap.
    interp = MutationEngine(design, backend="interp")
    assert records[::8] == interp.run_all(mutants[::8], stimuli)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_comb_kill_sweep_speed(benchmark, name):
    """``comb_kill_sets`` as test generation calls it: every round is a
    fresh candidate batch against the whole (sliced) population."""
    stride, count = SWEEPS[name]
    design = load_circuit(name)
    mutants = generate_mutants(design)[::stride]
    engine = MutationEngine(design)
    width = StimulusEncoder(design).width
    rng = rng_stream(4, name, "bench-sweep")
    engine.comb_kill_sets(mutants, [0])  # compile outside the timing

    def batch():
        return (mutants, [rng.getrandbits(width) for _ in range(count)]), {}

    benchmark.extra_info.update(
        circuit=name, sweep="comb_kill_sets", mutants=len(mutants),
        vectors=count, cpus=cpus(),
    )
    matrix = benchmark.pedantic(engine.comb_kill_sets, setup=batch,
                                rounds=3, iterations=1)
    assert any(matrix.values())
