"""Ablations around the paper's design choices.

* sampling-rate sweep — does the test-oriented advantage persist at
  5/10/20/40% sampling?
* weight-scheme sweep — calibrated NLFCE weights vs. the paper's rank
  ordering vs. uniform weights (uniform reduces to stratified-random).

Both sweeps are thin consumers of the campaign pipeline: the operator
calibration runs once (a Table-1 campaign), then each variant is an
evaluation-only campaign with explicit weights, the variant's sampling
fraction, and the variant name mixed into the sampling stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.config import CampaignConfig
from repro.campaign.runner import Campaign
from repro.experiments.table1 import run_table1
from repro.sampling.weighted import PAPER_RANK_WEIGHTS, weights_from_nlfce


@dataclass
class AblationRow:
    circuit: str
    variant: str
    fraction: float
    selected: int
    ms_pct: float
    nlfce: float


def _calibrated_weights(
    circuit: str, config: CampaignConfig, testgen_seed: int, max_vectors: int
) -> dict[str, float]:
    calibration = run_table1(
        circuits=(circuit,), config=config, testgen_seed=testgen_seed,
        max_vectors=max_vectors,
    )
    measured = calibration.nlfce_by_operator(circuit)
    return (
        weights_from_nlfce(measured) if measured else dict(PAPER_RANK_WEIGHTS)
    )


def _evaluate(
    circuit: str,
    config: CampaignConfig,
    strategy: str,
    fraction: float,
    weights: dict[str, float],
    variant_label: str,
    sampling_seed: int,
    testgen_seed: int,
    max_vectors: int,
) -> "tuple[int, float, float]":
    """(selected, MS%, NLFCE) of one strategy/fraction/weights variant."""
    campaign_config = config.replace(
        operators=(),
        strategies=(strategy,),
        fraction=fraction,
        weights=weights,
        sample_labels=(variant_label,),
        sampling_seed=sampling_seed,
        testgen_seed=testgen_seed,
        max_vectors=max_vectors,
    )
    result = Campaign(campaign_config).run((circuit,))
    row = result.circuit(circuit).strategies[0]
    return row.selected, row.ms_pct, row.nlfce


def run_rate_ablation(
    circuit: str = "b01",
    rates: tuple[float, ...] = (0.05, 0.10, 0.20, 0.40),
    config: CampaignConfig | None = None,
    sampling_seed: int = 13,
    testgen_seed: int = 7,
    max_vectors: int = 256,
) -> list[AblationRow]:
    """Test-oriented vs random sampling at each of ``rates``.

    ``sampling_seed``, ``testgen_seed`` and ``max_vectors`` win over the
    ``config`` fields of the same name; each variant sets ``operators``,
    ``strategies``, ``fraction``, ``weights`` and ``sample_labels``.
    """
    config = config or CampaignConfig()
    weights = _calibrated_weights(circuit, config, testgen_seed, max_vectors)
    rows: list[AblationRow] = []
    for rate in rates:
        for strategy in ("random", "test-oriented"):
            selected, ms_pct, nlfce = _evaluate(
                circuit, config, strategy, rate, weights, f"rate{rate}",
                sampling_seed, testgen_seed, max_vectors,
            )
            rows.append(
                AblationRow(
                    circuit=circuit,
                    variant=strategy,
                    fraction=rate,
                    selected=selected,
                    ms_pct=ms_pct,
                    nlfce=nlfce,
                )
            )
    return rows


def run_weight_ablation(
    circuit: str = "b01",
    fraction: float = 0.10,
    config: CampaignConfig | None = None,
    sampling_seed: int = 13,
    testgen_seed: int = 7,
    max_vectors: int = 256,
) -> list[AblationRow]:
    """Calibrated vs paper-rank vs uniform weights at ``fraction``.

    Same overrides as :func:`run_rate_ablation`.
    """
    config = config or CampaignConfig()
    calibration = run_table1(
        circuits=(circuit,), config=config, testgen_seed=testgen_seed,
        max_vectors=max_vectors,
    )
    measured = calibration.nlfce_by_operator(circuit)
    schemes: dict[str, dict[str, float]] = {
        "paper-ranks": dict(PAPER_RANK_WEIGHTS),
        "uniform": {op: 1.0 for op in PAPER_RANK_WEIGHTS},
    }
    if measured:
        schemes["calibrated"] = weights_from_nlfce(measured)
    rows: list[AblationRow] = []
    for variant, weights in sorted(schemes.items()):
        selected, ms_pct, nlfce = _evaluate(
            circuit, config, "test-oriented", fraction, weights, variant,
            sampling_seed, testgen_seed, max_vectors,
        )
        rows.append(
            AblationRow(
                circuit=circuit,
                variant=variant,
                fraction=fraction,
                selected=selected,
                ms_pct=ms_pct,
                nlfce=nlfce,
            )
        )
    return rows
