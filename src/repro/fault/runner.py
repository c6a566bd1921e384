"""Model-aware fault-simulation dispatch."""

from __future__ import annotations

from repro.fault.coverage import FaultSimResult
from repro.fault.model import StuckAtFault
from repro.fault.models.base import build_fault_model
from repro.netlist.netlist import Netlist


def simulate_faults(
    netlist: Netlist,
    stimuli: list[int],
    faults: list | None = None,
    engine=None,
    model=None,
) -> FaultSimResult:
    """Fault-simulate packed stimuli on ``netlist`` under a fault model.

    ``model`` is a registered model name, a model instance, or ``None``
    for the default (single stuck-at).  ``faults`` defaults to the
    model's collapsed fault list; ``engine`` selects the
    :mod:`repro.engine` backend by name (default backend when ``None``).
    A sequential netlist's fault list is simulated in one
    fault-parallel word.
    """
    model = build_fault_model(model)
    return model.simulate(
        netlist, stimuli, faults=faults, engine=engine
    )


def simulate_stuck_at(
    netlist: Netlist,
    stimuli: list[int],
    faults: list[StuckAtFault] | None = None,
    engine=None,
) -> FaultSimResult:
    """Stuck-at fault simulation (the historical entry point).

    Sequential netlists (any DFF) use the fault-parallel simulator;
    pure combinational ones the pattern-parallel simulator.  Kept as a
    thin wrapper over the registered ``stuck-at`` model so callers that
    predate the model registry keep their exact behavior.
    """
    return simulate_faults(
        netlist, stimuli, faults=faults, engine=engine, model="stuck-at",
    )
