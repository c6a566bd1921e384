"""Table 1 — Operator Fault Coverage Efficiency.

For each (circuit, operator) pair: generate the operator's mutants,
derive mutation-adequate validation data from them, fault-simulate the
data on the synthesized gate-level netlist and compare against the
pseudo-random baseline via ΔFC%, ΔL% and NLFCE.

The paper notes operators only appear where they apply ("CR ... is only
used if the high level description includes a constant declaration");
pairs with no mutation sites are skipped the same way.

This module is a thin facade: the computation is the campaign
pipeline's calibration pass (:mod:`repro.campaign`) with sampling
disabled; :func:`run_table1` keeps the historical signature and result
type for existing callers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.campaign.config import (
    DEFAULT_CIRCUITS,
    DEFAULT_OPERATORS,
    CampaignConfig,
)
from repro.campaign.runner import Campaign


@dataclass
class Table1Row:
    circuit: str
    operator: str
    mutants: int
    test_length: int
    mfc_pct: float
    dfc_pct: float
    dl_pct: float
    nlfce: float
    reached_mfc: bool


@dataclass
class Table1Result:
    rows: list[Table1Row] = field(default_factory=list)

    def nlfce_by_operator(self, circuit: str) -> dict[str, float]:
        """Calibration input for the test-oriented sampler."""
        return {
            row.operator: row.nlfce
            for row in self.rows
            if row.circuit == circuit
        }

    def operator_ranking(self, circuit: str) -> list[str]:
        pairs = sorted(
            self.nlfce_by_operator(circuit).items(), key=lambda kv: kv[1]
        )
        return [op for op, _ in pairs]


def run_table1(
    circuits: tuple[str, ...] = DEFAULT_CIRCUITS,
    operators: tuple[str, ...] = DEFAULT_OPERATORS,
    config: CampaignConfig | None = None,
    testgen_seed: int = 7,
    max_vectors: int = 256,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> Table1Result:
    """Regenerate Table 1 (a calibration-only campaign).

    ``operators``, ``testgen_seed``, ``max_vectors``, ``jobs`` and
    ``cache_dir`` win over the ``config`` fields of the same name, and
    ``strategies`` is always empty.
    """
    campaign_config = (config or CampaignConfig()).replace(
        operators=tuple(operators),
        strategies=(),
        testgen_seed=testgen_seed,
        max_vectors=max_vectors,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    return Campaign(campaign_config).run(tuple(circuits)).table1()
