"""Regenerates the paper's Table 1 (operator fault-coverage efficiency).

The measured artefact is the end-to-end experiment: per-operator mutant
generation, mutation-adequate test generation, gate-level fault
simulation and the NLFCE comparison against the pseudo-random baseline.
"""

from benchmarks.conftest import write_out
from repro.experiments.report import table1_text
from repro.experiments.table1 import run_table1


def test_table1_regeneration(benchmark, config, circuits):
    result = benchmark.pedantic(
        lambda: run_table1(
            circuits=circuits, config=config.replace(max_vectors=96)
        ),
        rounds=1,
        iterations=1,
    )
    text = table1_text(result)
    write_out("table1.txt", text)
    print()
    print(text)
    covered = {row.circuit for row in result.rows}
    assert covered == set(circuits)
    # The paper's headline ordering: LOR is never the best operator.
    for circuit in covered:
        efficiencies = result.nlfce_by_operator(circuit)
        if "LOR" in efficiencies and len(efficiencies) > 1:
            best = max(efficiencies, key=efficiencies.get)
            assert best != "LOR", (circuit, efficiencies)
