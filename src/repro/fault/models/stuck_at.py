"""The single stuck-at model, wrapped as a registered fault model.

This is the pinned reference behavior: it delegates to the exact
functions the fault layer used before the registry existed
(:func:`repro.fault.model.generate_faults`,
:func:`repro.fault.collapse.collapse_faults`, and the two simulators),
so existing configurations produce bit-identical fault lists and
detection records.
"""

from __future__ import annotations

from repro.fault.collapse import collapse_faults
from repro.fault.comb_sim import CombFaultSimulator
from repro.fault.model import StuckAtFault, generate_faults
from repro.fault.models.base import FaultModel, register_fault_model
from repro.fault.seq_sim import SeqFaultSimulator


@register_fault_model
class StuckAtModel(FaultModel):
    """Classical single stuck-at faults (stems + fanout branches)."""

    name = "stuck-at"

    def generate(self, netlist) -> list[StuckAtFault]:
        return generate_faults(netlist)

    def collapse(self, netlist,
                 faults: list | None = None) -> list[StuckAtFault]:
        return collapse_faults(netlist, faults)

    def describe(self, fault: StuckAtFault, netlist) -> str:
        return fault.describe(netlist)

    def simulate(self, netlist, stimuli: list[int],
                 faults: list | None = None, engine=None):
        if faults is None:
            faults = self.collapse(netlist)
        if netlist.dffs:
            return SeqFaultSimulator(
                netlist, faults, engine=engine
            ).simulate(stimuli)
        return CombFaultSimulator(netlist, faults, engine=engine).simulate(
            stimuli
        )
