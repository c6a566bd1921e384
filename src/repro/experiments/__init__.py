"""Experiment harness regenerating the paper's evaluation.

Every experiment here is a thin consumer of the campaign pipeline
(:mod:`repro.campaign`) — the historical ``run_*`` entry points and
result types are kept as the stable facade:

* :mod:`repro.experiments.table1` — Table 1, operator fault-coverage
  efficiency (ΔFC%, ΔL%, NLFCE per circuit/operator)
* :mod:`repro.experiments.table2` — Table 2, test-oriented vs random
  10% mutant sampling (MS% and NLFCE per circuit)
* :mod:`repro.experiments.atpg_reuse` — the §1 claim: validation-data
  reuse reduces gate-level ATPG effort
* :mod:`repro.experiments.ablation` — sampling-rate and weight-scheme
  ablations
* :mod:`repro.experiments.search_compare` — search strategies compared
  at an equal candidate budget (kills per candidate vs. the blind
  baseline)
"""

from repro.experiments.context import CircuitLab, get_lab
from repro.experiments.table1 import Table1Result, Table1Row, run_table1
from repro.experiments.table2 import Table2Result, Table2Row, run_table2
from repro.experiments.atpg_reuse import AtpgReuseRow, run_atpg_reuse
from repro.experiments.ablation import run_rate_ablation, run_weight_ablation
from repro.experiments.search_compare import (
    SearchCompareRow,
    run_search_compare,
)
from repro.experiments.report import campaign_text, table1_text, table2_text

__all__ = [
    "AtpgReuseRow",
    "SearchCompareRow",
    "CircuitLab",
    "Table1Result",
    "Table1Row",
    "Table2Result",
    "Table2Row",
    "campaign_text",
    "get_lab",
    "run_atpg_reuse",
    "run_rate_ablation",
    "run_search_compare",
    "run_table1",
    "run_table2",
    "run_weight_ablation",
    "table1_text",
    "table2_text",
]
