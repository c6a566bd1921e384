"""Performance: mutant generation and schema execution."""

import pytest

from repro.circuits import load_circuit
from repro.mutation import MutationEngine, generate_mutants
from repro.sim import StimulusEncoder
from repro.util import rng_stream


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
