"""Pattern-parallel single-fault simulation for combinational circuits.

All patterns of the test set ride one arbitrary-precision integer per
net (lane *i* = pattern *i*).  The whole collapsed fault list goes to
the selected :mod:`repro.engine` backend's ``fault_diff_batch`` in one
call, which returns each fault's primary-output difference word (the
XOR of faulty and good outputs): ``interp`` re-evaluates each fault's
output cone, ``vector`` packs one faulty machine per row, and
``compiled`` walks each fault to its fanout-free-region stem and flips
all reached stems in packed passes.  The lowest set bit of a word is
the fault's first-detecting pattern.
"""

from __future__ import annotations

import time

from repro.engine import build_engine
from repro.errors import FaultSimError
from repro.fault.collapse import collapse_faults
from repro.fault.coverage import FaultSimResult
from repro.fault.model import StuckAtFault
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import unpack_patterns
from repro.obs import metrics as _metrics


class CombFaultSimulator:
    """Stuck-at fault simulation of a combinational netlist."""

    def __init__(self, netlist: Netlist,
                 faults: list[StuckAtFault] | None = None,
                 engine=None):
        if netlist.dffs:
            raise FaultSimError(
                "CombFaultSimulator requires a purely combinational "
                "netlist; use SeqFaultSimulator instead"
            )
        self._netlist = netlist
        self._engine = build_engine(engine)
        self._faults = (
            faults if faults is not None else collapse_faults(netlist)
        )

    @property
    def faults(self) -> list[StuckAtFault]:
        return self._faults

    @property
    def netlist(self) -> Netlist:
        return self._netlist

    @property
    def engine(self):
        return self._engine

    def simulate(self, patterns: list[int]) -> FaultSimResult:
        """Fault-simulate packed input patterns (MSB-first packing)."""
        count = len(patterns)
        if count == 0:
            return FaultSimResult(list(self._faults),
                                  [None] * len(self._faults), 0)
        mask = (1 << count) - 1
        netlist, engine = self._netlist, self._engine
        m = _metrics.active()
        started = time.monotonic() if m.enabled else 0.0
        good = engine.eval_full(
            netlist, unpack_patterns(patterns, netlist.input_bits), mask
        )
        # One batched call: backends that propagate many faults per
        # pass (the ``vector`` backend packs one fault per row) get the
        # whole collapsed list; engines without the optional batch hook
        # (duck-typed instances predating it) keep the fault_diff loop.
        batch = getattr(engine, "fault_diff_batch", None)
        if batch is not None:
            words = batch(netlist, self._faults, good, mask)
        else:
            words = [
                engine.fault_diff(netlist, fault, good, mask)
                for fault in self._faults
            ]
        if m.enabled:
            # Per-pass coarse counters: one simulate call is one full
            # eval plus one batched diff over the collapsed fault list
            # (the per-fault loop is too hot to touch).
            name = getattr(engine, "name", "engine")
            m.counter(f"engine.{name}.comb.passes")
            m.counter(f"engine.{name}.comb.patterns", count)
            m.counter(f"engine.{name}.comb.faults", len(self._faults))
            m.counter(f"engine.{name}.comb.diff_words", len(words))
            m.observe(
                f"engine.{name}.comb.seconds", time.monotonic() - started
            )
        detection = [_first_lane(word) for word in words]
        return FaultSimResult(list(self._faults), detection, count)


def _first_lane(word: int) -> int | None:
    if word == 0:
        return None
    return (word & -word).bit_length() - 1
