"""Ablation: weight scheme for the test-oriented sampler."""

from benchmarks.conftest import write_out
from repro.experiments.ablation import run_weight_ablation
from repro.experiments.report import rows_text


def test_weight_scheme_ablation(benchmark, config):
    rows = benchmark.pedantic(
        lambda: run_weight_ablation(
            circuit="b01", config=config.replace(max_vectors=96)
        ),
        rounds=1,
        iterations=1,
    )
    text = rows_text(
        rows,
        ["Circuit", "Variant", "Fraction", "Selected", "MS%", "NLFCE"],
        ["circuit", "variant", "fraction", "selected", "ms_pct", "nlfce"],
        "Ablation: weighting schemes (b01, 10%)",
    )
    write_out("ablation_weights.txt", text)
    print()
    print(text)
    variants = {r.variant for r in rows}
    assert {"paper-ranks", "uniform", "calibrated"} <= variants
