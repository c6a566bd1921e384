"""The benchmark's workloads: closed-loop campaigns through the public API.

Each pass is one campaign driven by a single process, with telemetry and
trace off.  Campaigns run the paper's test-oriented strategy only (the
rows the metrics report), and their lab budgets are cut from the defaults
(c432: equivalence 256 -> 64 vectors, random baseline 2048 -> 512;
b01/b03: equivalence 64, random baseline 1024 -> 256) so that a
campaign pass takes a few seconds and a run holds several of them.
The pipeline, operators and search knobs stay the defaults, which keeps
the shape of the default campaign (the RTL mutant executor dominates on
c432).

Every workload runs the paper's seed set, whatever the benchmark's
``--seed``: the deterministic outputs then repeat exactly from run to
run, and run-to-run spread is host time alone.  Other seed sets change
the work itself (c432 ``comb_kill_sets`` evaluations ranged from 35.6k
to 51.1k over four seed sets), which would swamp the bounds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass

from repro import Campaign, CampaignConfig
from repro.experiments.atpg_reuse import run_atpg_reuse
from repro.experiments.context import LabConfig, get_lab

#: Knobs of the ``atpg-c432`` workload: PODEM targets every 48th fault,
#: and the validation set is cut to 8 vectors, which leaves PODEM the
#: larger share of a pass (about 5 s of 9, against 3 s of campaign).
ATPG_BACKTRACK_LIMIT = 24
ATPG_FAULT_STRIDE = 48
ATPG_MAX_VECTORS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    circuits: tuple[str, ...]
    #: the golden-digest table the payloads must match (the grid is
    #: bit-identical to serial by contract, so it shares the serial one).
    golden: str
    grid: bool = False
    atpg: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "comb-c432",
            "default pipeline on c432, test-oriented strategy, budgets cut: "
            "the RTL comb fast path (comb_kill_sets, run_mutant) dominates",
            ("c432",), "comb-c432",
        ),
        Workload(
            "seq-b01-b03",
            "default pipeline on b01+b03, test-oriented, budgets cut: "
            "sequential fault simulation and the delta-cycle Testbench",
            ("b01", "b03"), "seq-b01-b03",
        ),
        Workload(
            "grid-c432",
            "comb-c432 sharded on the process grid with up to 2 workers: "
            "the difference from comb-c432 is the grid's cost",
            ("c432",), "comb-c432", grid=True,
        ),
        Workload(
            "atpg-c432",
            "validation-data reuse ahead of PODEM on c432 (atpg-only and "
            "reuse modes): PODEM dominates, and only here",
            ("c432",), "atpg-c432", atpg=True,
        ),
        # Not in BENCHMARK.json: a seconds-long check of the harness.
        Workload(
            "smoke-c17", "the harness end to end in seconds",
            ("c17",), "smoke-c17",
        ),
    )
}


def grid_workers() -> int:
    return min(2, os.cpu_count() or 1)


def campaign_config(workload: Workload) -> CampaignConfig:
    budgets = {"equivalence_budget": 64, "random_budget_comb": 512,
               "random_budget_seq": 256}
    config = CampaignConfig(circuits=workload.circuits,
                            strategies=("test-oriented",), **budgets)
    if workload.grid:
        config = config.replace(grid="process", grid_workers=grid_workers())
    return config


def lab_config(workload: Workload) -> LabConfig:
    return campaign_config(workload).lab_config()


def setup(workload: Workload) -> None:
    """Build every lab the pass needs; the pass then hits the memo."""
    for circuit in workload.circuits:
        get_lab(circuit, lab_config(workload)).all_mutants


def run(workload: Workload, events=None):
    """One pass; returns what :func:`payloads` and :func:`quality` read."""
    if workload.atpg:
        return run_atpg_reuse(
            workload.circuits,
            lab_config(workload),
            backtrack_limit=ATPG_BACKTRACK_LIMIT,
            max_vectors=ATPG_MAX_VECTORS,
            fault_stride=ATPG_FAULT_STRIDE,
        )
    return Campaign(campaign_config(workload), events=events).run()


def digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def payloads(workload: Workload, result) -> dict[str, object]:
    """Circuit -> canonical payload (``CircuitResult.to_dict`` or the
    circuit's ``AtpgReuseRow`` list)."""
    if workload.atpg:
        return {
            circuit: [
                dataclasses.asdict(row)
                for row in result if row.circuit == circuit
            ]
            for circuit in workload.circuits
        }
    return {c.circuit: c.to_dict() for c in result.circuits}


def quality(workload: Workload, result) -> dict[str, float]:
    """Deterministic test-data quality, averaged over circuits.

    Campaigns report the test-oriented Table-2 row, atpg-c432 the
    reuse-mode row (validation preload plus PODEM top-up).
    """
    rows = []
    if workload.atpg:
        for row in result:
            if row.mode == "reuse":
                rows.append({
                    "test_length": row.preload_vectors + row.atpg_vectors,
                    "fault_coverage_pct": row.final_coverage_pct,
                    "atpg_vectors": row.atpg_vectors,
                })
    else:
        for circuit in result.circuits:
            row = circuit.strategy("test-oriented")
            lab = get_lab(circuit.circuit, lab_config(workload))
            rows.append({
                "test_length": row.test_length,
                "fault_coverage_pct": (
                    100.0 * lab.fault_sim(row.vectors).coverage()
                ),
                "mutation_score_pct": row.ms_pct,
                "nlfce": row.nlfce,
            })
    keys = sorted({key for row in rows for key in row})
    return {
        key: sum(row.get(key, 0.0) for row in rows) / len(rows)
        for key in keys
    }
