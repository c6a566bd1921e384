"""Pattern-parallel single-fault simulation for combinational circuits.

All patterns of the test set ride one arbitrary-precision integer per
net (lane *i* = pattern *i*).  The whole collapsed fault list goes to
the selected :mod:`repro.engine` backend's ``fault_diff_batch`` in one
call, which returns each fault's primary-output difference word (the
XOR of faulty and good outputs): ``interp`` re-evaluates each fault's
output cone, and ``compiled`` walks each fault to its
fanout-free-region stem and flips all reached stems in packed passes.
The lowest set bit of a word is the fault's first-detecting pattern.
"""

from __future__ import annotations

import time

from repro.engine import build_engine
from repro.errors import FaultSimError
from repro.fault.collapse import collapse_faults
from repro.fault.coverage import FaultSimResult, first_lane
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

    def good_words(self, patterns: list[int]) -> dict[int, int]:
        """Good-machine net words over packed input patterns.

        The fault-independent half of :meth:`simulate`: every slice of
        a fault list simulated over the same patterns shares it.
        """
        return self._engine.eval_full(
            self._netlist,
            unpack_patterns(patterns, self._netlist.input_bits),
            (1 << len(patterns)) - 1,
        )

    def simulate(self, patterns: list[int],
                 good: dict[int, int] | None = None) -> FaultSimResult:
        """Fault-simulate packed input patterns (MSB-first packing).

        ``good`` is :meth:`good_words` of the same patterns, when the
        caller already has it; by default it is computed here.
        """
        count = len(patterns)
        if count == 0:
            return FaultSimResult(list(self._faults),
                                  [None] * len(self._faults), 0)
        mask = (1 << count) - 1
        netlist, engine = self._netlist, self._engine
        m = _metrics.active()
        started = time.monotonic() if m.enabled else 0.0
        if good is None:
            good = self.good_words(patterns)
        words = engine.fault_diff_batch(netlist, self._faults, good, mask)
        if m.enabled:
            # Per-pass coarse counters: one simulate call is one full
            # eval (none when ``good`` was passed) plus one batched diff
            # over the fault list (the per-fault loop is too hot to
            # touch).
            name = getattr(engine, "name", "engine")
            m.counter(f"engine.{name}.comb.passes")
            m.counter(f"engine.{name}.comb.patterns", count)
            m.counter(f"engine.{name}.comb.faults", len(self._faults))
            m.counter(f"engine.{name}.comb.diff_words", len(words))
            m.observe(
                f"engine.{name}.comb.seconds", time.monotonic() - started
            )
        detection = [first_lane(word) for word in words]
        return FaultSimResult(list(self._faults), detection, count)
