"""NLFCE — Non-Linear Fault Coverage Efficiency (paper, section 3).

Compares a mutation-generated test set against a pseudo-random baseline
on gate-level stuck-at coverage:

* ``MFC``  — coverage of the mutation test set (length ``Lm``)
* ``RFC(l)`` — random coverage curve over the baseline budget
* ``ΔFC% = 100 * (MFC - RFC(Lm)) / RFC(Lm)`` — coverage gain at equal
  test length
* ``ΔL%  = 100 * (Lr - Lm) / Lr`` with ``Lr`` the shortest random
  prefix reaching MFC — length gain at equal coverage
* ``NLFCE = ΔFC% * ΔL%`` (the product; e.g. the paper's b01/LOR row:
  0.66 x 10.84 = +7.16)

When the random budget never reaches MFC, ``Lr`` falls back to the
budget and the report flags the NLFCE value as a *lower bound*.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fault.coverage import FaultSimResult
from repro.fault.model import StuckAtFault
from repro.fault.runner import simulate_faults
from repro.netlist.netlist import Netlist


@dataclass
class NlfceReport:
    """One NLFCE measurement (one circuit, one mutation test set)."""

    mutation_length: int           # Lm
    mfc: float                     # coverage of the mutation data
    rfc_at_lm: float               # random coverage at equal length
    delta_fc_pct: float
    random_length_for_mfc: int     # Lr (or the budget if never reached)
    reached_mfc: bool
    delta_l_pct: float
    random_budget: int

    @property
    def nlfce(self) -> float:
        """Sign-aware product: both gains negative means a *loss*.

        The paper's NLFCE multiplies two gains; a naive product would
        turn doubly-negative results positive, so the magnitude keeps
        the product but the sign follows the gains.
        """
        product = self.delta_fc_pct * self.delta_l_pct
        if self.delta_fc_pct < 0 and self.delta_l_pct < 0:
            return -product
        return product

    def row(self) -> dict[str, float]:
        return {
            "Lm": self.mutation_length,
            "MFC%": 100.0 * self.mfc,
            "dFC%": self.delta_fc_pct,
            "dL%": self.delta_l_pct,
            "NLFCE": self.nlfce,
        }


def nlfce_from_results(
    mutation_result: FaultSimResult,
    random_result: FaultSimResult,
) -> NlfceReport:
    """Compute the report from two fault-simulation results."""
    lm = mutation_result.num_patterns
    mfc = mutation_result.coverage()
    rfc_at_lm = random_result.coverage(min(lm, random_result.num_patterns))
    if rfc_at_lm > 0:
        delta_fc = 100.0 * (mfc - rfc_at_lm) / rfc_at_lm
    elif mfc > 0:
        # Degenerate baseline: credit the full mutation coverage.
        delta_fc = 100.0 * mfc
    else:
        delta_fc = 0.0
    lr = random_result.length_to_reach(mfc)
    reached = lr is not None
    if lr is None:
        lr = random_result.num_patterns
    if lr > 0:
        delta_l = 100.0 * (lr - lm) / lr
    else:
        delta_l = 0.0
    return NlfceReport(
        mutation_length=lm,
        mfc=mfc,
        rfc_at_lm=rfc_at_lm,
        delta_fc_pct=delta_fc,
        random_length_for_mfc=lr,
        reached_mfc=reached,
        delta_l_pct=delta_l,
        random_budget=random_result.num_patterns,
    )


def compute_nlfce(
    netlist: Netlist,
    mutation_vectors: list[int],
    random_vectors: list[int],
    faults: list[StuckAtFault] | None = None,
    engine=None,
    model=None,
) -> NlfceReport:
    """Fault-simulate both test sets on ``netlist`` and report NLFCE.

    ``model`` names (or is an instance of) a registered fault model;
    ``None`` keeps the paper's stuck-at metric.  Both test sets are
    always measured under the *same* model, so the efficiency ratio
    stays meaningful.
    """
    mutation_result = simulate_faults(
        netlist, mutation_vectors, faults, engine=engine, model=model
    )
    random_result = simulate_faults(
        netlist, random_vectors, faults, engine=engine, model=model
    )
    return nlfce_from_results(mutation_result, random_result)
