"""Ablation: does the sampling-rate choice (10%) matter?"""

from benchmarks.conftest import write_out
from repro.experiments.ablation import run_rate_ablation
from repro.experiments.report import rows_text


def test_sampling_rate_ablation(benchmark, config):
    rows = benchmark.pedantic(
        lambda: run_rate_ablation(
            circuit="b01", rates=(0.05, 0.10, 0.20),
            config=config.replace(max_vectors=96),
        ),
        rounds=1,
        iterations=1,
    )
    text = rows_text(
        rows,
        ["Circuit", "Variant", "Fraction", "Selected", "MS%", "NLFCE"],
        ["circuit", "variant", "fraction", "selected", "ms_pct", "nlfce"],
        "Ablation: sampling rate sweep (b01)",
    )
    write_out("ablation_rate.txt", text)
    print()
    print(text)
    assert len(rows) == 6  # 3 rates x 2 strategies
    # Larger samples never hurt the mutation score for a fixed strategy.
    for variant in ("random", "test-oriented"):
        scores = [
            r.ms_pct for r in rows if r.variant == variant
        ]
        assert max(scores) >= scores[0] - 1e-9
