"""Regenerates the paper's Table 2 (sampling-strategy comparison)."""

from benchmarks.conftest import write_out
from repro.experiments.report import table2_text
from repro.experiments.table2 import run_table2


def test_table2_regeneration(benchmark, config, circuits):
    result = benchmark.pedantic(
        lambda: run_table2(
            circuits=circuits, config=config.replace(max_vectors=96),
            calibrate=True,
        ),
        rounds=1,
        iterations=1,
    )
    text = table2_text(result)
    write_out("table2.txt", text)
    print()
    print(text)
    for circuit in circuits:
        random_row = result.row(circuit, "random")
        ours = result.row(circuit, "test-oriented")
        # Both strategies must draw identical sample sizes (paper: "the
        # two strategies extract exactly the same percentage").
        assert random_row.selected == ours.selected
        assert 0.0 <= ours.ms_pct <= 100.0
