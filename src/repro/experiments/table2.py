"""Table 2 — test-oriented vs. classical random mutant sampling.

Both strategies select the same fraction (10%) of the whole mutant
population; validation data are generated from the *sample* only, then:

* ``MS%`` is computed on the **entire** population (killed / (M - E),
  E from the lab's budgeted equivalence analysis), and
* ``NLFCE`` is computed on the synthesized netlist against the lab's
  pseudo-random baseline,

exactly the two quantities the paper reports per circuit and strategy.
The test-oriented sampler's weights are calibrated from a Table-1-style
run on the same circuit (falling back to the paper's published operator
ranking when calibration is disabled).

This module is a thin facade over the campaign pipeline
(:mod:`repro.campaign`): one default campaign run computes the
calibration pass and both strategies; :func:`run_table2` keeps the
historical signature and result type for existing callers.
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
class Table2Row:
    circuit: str
    strategy: str
    population: int
    selected: int
    equivalents: int
    killed: int
    ms_pct: float
    test_length: int
    nlfce: float
    #: Survivor triage counts (see repro.mutation.execution).
    never_activated: int = 0
    propagation_blocked: int = 0
    possibly_equivalent: int = 0


@dataclass
class Table2Result:
    rows: list[Table2Row] = field(default_factory=list)

    def row(self, circuit: str, strategy: str) -> Table2Row:
        for row in self.rows:
            if row.circuit == circuit and row.strategy == strategy:
                return row
        raise KeyError(f"no row for {circuit}/{strategy}")

    def advantage(self, circuit: str) -> tuple[float, float]:
        """(MS delta, NLFCE delta): test-oriented minus random."""
        ours = self.row(circuit, "test-oriented")
        random_row = self.row(circuit, "random")
        return (
            ours.ms_pct - random_row.ms_pct,
            ours.nlfce - random_row.nlfce,
        )


def run_table2(
    circuits: tuple[str, ...] = DEFAULT_CIRCUITS,
    fraction: float = 0.10,
    config: CampaignConfig | None = None,
    sampling_seed: int = 13,
    testgen_seed: int = 7,
    max_vectors: int = 256,
    calibrate: bool = True,
    jobs: int = 1,
    cache_dir: str | None = None,
) -> Table2Result:
    """Regenerate Table 2 (the default campaign pipeline).

    ``fraction``, ``sampling_seed``, ``testgen_seed``, ``max_vectors``,
    ``jobs`` and ``cache_dir`` win over the ``config`` fields of the same
    name; ``calibrate`` sets ``operators`` and ``weight_scheme``, and
    ``strategies`` is always random plus test-oriented.
    """
    campaign_config = (config or CampaignConfig()).replace(
        operators=DEFAULT_OPERATORS if calibrate else (),
        strategies=("random", "test-oriented"),
        fraction=fraction,
        weight_scheme="calibrated" if calibrate else "paper-ranks",
        sampling_seed=sampling_seed,
        testgen_seed=testgen_seed,
        max_vectors=max_vectors,
        jobs=jobs,
        cache_dir=cache_dir,
    )
    return Campaign(campaign_config).run(tuple(circuits)).table2()
