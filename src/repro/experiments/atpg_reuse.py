"""Validation-data reuse vs. from-scratch ATPG (paper §1 motivation).

The paper's flow argument: validation data are "free" for structural
test, so running them first should cut the deterministic ATPG effort
and the number of extra deterministic vectors.  This experiment
quantifies that on the combinational benchmarks:

* ``atpg-only``    — PODEM targets every collapsed fault;
* ``reuse``        — the mutation-adequate validation data run first,
  PODEM only targets what they leave undetected.

Reported effort: PODEM decisions + backtracks, and the deterministic
vector count.

The validation data come from a campaign with the ``exhaustive``
sampling strategy and a truncated pipeline (no whole-population scoring
or NLFCE — only the vectors matter here); PODEM itself stays outside
the pipeline, consuming the campaign's vector artifact.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.campaign.config import CampaignConfig
from repro.campaign.runner import Campaign
from repro.circuits import get_circuit
from repro.experiments.context import get_lab
from repro.testgen.atpg import Podem


@dataclass
class AtpgReuseRow:
    circuit: str
    mode: str
    preload_vectors: int
    preload_coverage_pct: float
    targeted_faults: int
    decisions: int
    backtracks: int
    atpg_vectors: int
    final_coverage_pct: float


def run_atpg_reuse(
    circuits: tuple[str, ...] = ("c17", "c432", "c499"),
    config: CampaignConfig | None = None,
    testgen_seed: int = 7,
    backtrack_limit: int = 500,
    max_vectors: int = 256,
    fault_stride: int = 1,
) -> list[AtpgReuseRow]:
    """Compare ATPG effort with and without validation-data preload.

    ``fault_stride`` deterministically subsamples the deterministic
    target lists (every n-th fault, applied identically to both modes)
    so quick runs stay a paired comparison.  ``testgen_seed`` and
    ``max_vectors`` win over the ``config`` fields of the same name;
    ``operators``, ``strategies`` and ``stages`` are fixed to the
    exhaustive-sampling vector pipeline.
    """
    config = config or CampaignConfig()
    comb = tuple(
        name for name in circuits if not get_circuit(name).sequential
    )  # PODEM is combinational
    if not comb:
        return []
    campaign_config = config.replace(
        operators=(),
        strategies=("exhaustive",),
        testgen_seed=testgen_seed,
        max_vectors=max_vectors,
        stages=("synth", "mutants", "sampling", "testgen"),
    )
    campaign = Campaign(campaign_config).run(comb)

    rows: list[AtpgReuseRow] = []
    for circuit in comb:
        lab = get_lab(circuit, config)
        podem = Podem(lab.netlist, backtrack_limit)

        # Mode 1: deterministic-only.
        scratch_targets = lab.faults[::fault_stride]
        atpg_all = podem.run(scratch_targets)
        only_vectors = atpg_all.vectors
        final = lab.fault_sim(only_vectors).coverage() if only_vectors else 0.0
        rows.append(
            AtpgReuseRow(
                circuit=circuit,
                mode="atpg-only",
                preload_vectors=0,
                preload_coverage_pct=0.0,
                targeted_faults=len(scratch_targets),
                decisions=atpg_all.total_decisions,
                backtracks=atpg_all.total_backtracks,
                atpg_vectors=len(only_vectors),
                final_coverage_pct=100.0 * final,
            )
        )

        # Mode 2: validation-data preload, ATPG top-up.
        validation = campaign.circuit(circuit).strategy("exhaustive").vectors
        preload_result = lab.fault_sim(validation)
        remaining = preload_result.undetected_faults()[::fault_stride]
        atpg_rest = podem.run(remaining)
        combined = validation + atpg_rest.vectors
        final = lab.fault_sim(combined).coverage() if combined else 0.0
        rows.append(
            AtpgReuseRow(
                circuit=circuit,
                mode="reuse",
                preload_vectors=len(validation),
                preload_coverage_pct=100.0 * preload_result.coverage(),
                targeted_faults=len(remaining),
                decisions=atpg_rest.total_decisions,
                backtracks=atpg_rest.total_backtracks,
                atpg_vectors=len(atpg_rest.vectors),
                final_coverage_pct=100.0 * final,
            )
        )
    return rows
