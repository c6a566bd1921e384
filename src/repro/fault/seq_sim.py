"""Fault-parallel stuck-at simulation for sequential circuits.

Each bit lane of a net word is one faulty machine; the good machine is
simulated separately with single-bit words and replicated for the
output compare.  Faults are processed in chunks of ``lanes`` machines.
Injection masks are pre-compiled per chunk:

* stem faults override the net word after its driver evaluates;
* branch faults override one gate's (or one DFF's) view of its input.

Every cycle performs the evaluate / clock / re-evaluate sequence that
matches :class:`repro.sim.testbench.Testbench`, so detection cycles are
directly comparable with behavioural runs.  The per-gate work runs on a
pluggable :mod:`repro.engine` backend; the ``compiled`` backend bakes
each chunk's injection masks into generated straight-line code.
"""

from __future__ import annotations

import time

from repro.engine import InjectionPlan, build_engine
from repro.errors import FaultSimError
from repro.fault.collapse import collapse_faults
from repro.fault.coverage import FaultSimResult
from repro.fault.model import StuckAtFault
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import unpack_patterns
from repro.obs import metrics as _metrics


class SeqFaultSimulator:
    """Stuck-at fault simulation of a sequential netlist."""

    def __init__(
        self,
        netlist: Netlist,
        faults: list[StuckAtFault] | None = None,
        lanes: int = 256,
        engine=None,
    ):
        if lanes < 1:
            raise FaultSimError("lanes must be >= 1")
        self._netlist = netlist
        self._engine = build_engine(engine)
        self._faults = (
            faults if faults is not None else collapse_faults(netlist)
        )
        self._lanes = lanes
        self._outputs = netlist.output_bits

    @property
    def faults(self) -> list[StuckAtFault]:
        return self._faults

    @property
    def netlist(self) -> Netlist:
        return self._netlist

    @property
    def engine(self):
        return self._engine

    @property
    def lanes(self) -> int:
        return self._lanes

    def simulate(self, stimuli: list[int]) -> FaultSimResult:
        """Fault-simulate a packed input sequence (applied after reset)."""
        detection: list[int | None] = [None] * len(self._faults)
        m = _metrics.active()
        started = time.monotonic() if m.enabled else 0.0
        chunks = 0
        for start in range(0, len(self._faults), self._lanes):
            chunk = self._faults[start : start + self._lanes]
            plan = self._compile(chunk)
            chunk_detect = self._run_chunk(plan, stimuli)
            for offset, cycle in enumerate(chunk_detect):
                detection[start + offset] = cycle
            chunks += 1
        if m.enabled:
            # Per-simulate coarse counters; the per-cycle loop inside
            # _run_chunk is the hot path and stays untouched.
            name = getattr(self._engine, "name", "engine")
            m.counter(f"engine.{name}.seq.passes")
            m.counter(f"engine.{name}.seq.faults", len(self._faults))
            m.counter(f"engine.{name}.seq.cycles", len(stimuli))
            m.counter(f"engine.{name}.seq.chunks", chunks)
            m.observe(
                f"engine.{name}.seq.seconds", time.monotonic() - started
            )
        return FaultSimResult(
            list(self._faults), detection, len(stimuli)
        )

    def _compile(self, chunk: list[StuckAtFault]) -> InjectionPlan:
        plan = InjectionPlan(faults=chunk)

        def merge(table: dict, key, lane: int, stuck: int) -> None:
            clear, setm = table.get(key, (0, 0))
            clear |= 1 << lane
            if stuck:
                setm |= 1 << lane
            table[key] = (clear, setm)

        for lane, fault in enumerate(chunk):
            if fault.gate is not None:
                merge(plan.branch, (fault.gate, fault.pin), lane, fault.stuck)
            elif fault.dff is not None:
                merge(plan.dff_branch, fault.dff, lane, fault.stuck)
            else:
                merge(plan.stem, fault.net, lane, fault.stuck)
        return plan

    def _run_chunk(
        self, plan: InjectionPlan, stimuli: list[int]
    ) -> list[int | None]:
        mask = (1 << len(plan.faults)) - 1
        netlist, engine = self._netlist, self._engine
        # Faulty-lane state and good-machine state.
        state = {
            dff.q: mask if dff.reset_value else 0 for dff in netlist.dffs
        }
        good_state = {
            dff.q: dff.reset_value for dff in netlist.dffs
        }
        # Stem faults on DFF outputs must corrupt the reset state too.
        for q in state:
            if q in plan.stem:
                clear, setm = plan.stem[q]
                state[q] = (state[q] & ~clear) | setm
        detect_cycle: list[int | None] = [None] * len(plan.faults)
        alive = mask

        for cycle, packed in enumerate(stimuli):
            single = unpack_patterns([packed], netlist.input_bits)
            inputs = {nid: mask if word else 0 for nid, word in single.items()}
            words = engine.eval_injected(
                netlist, plan, {**inputs, **state}, mask
            )
            good = engine.eval_full(netlist, {**single, **good_state}, 1)
            next_state = self._next_state(plan, words, mask)
            good_next = {dff.q: good[dff.d] for dff in netlist.dffs}
            words = engine.eval_injected(
                netlist, plan, {**inputs, **next_state}, mask
            )
            good = engine.eval_full(netlist, {**single, **good_next}, 1)
            state, good_state = next_state, good_next

            diff = 0
            for nid in self._outputs:
                good_rep = mask if good[nid] else 0
                diff |= words[nid] ^ good_rep
            newly = diff & alive
            if newly:
                alive &= ~newly
                while newly:
                    low = newly & -newly
                    lane = low.bit_length() - 1
                    detect_cycle[lane] = cycle
                    newly ^= low
                if not alive:
                    break
        return detect_cycle

    def _next_state(
        self, plan: InjectionPlan, words: dict[int, int], mask: int
    ) -> dict[int, int]:
        next_state: dict[int, int] = {}
        for dff in self._netlist.dffs:
            word = words[dff.d]
            override = plan.dff_branch.get(dff.fid)
            if override is not None:
                clear, setm = override
                word = (word & ~clear) | setm
            next_state[dff.q] = word
            # Stem faults on the Q net keep forcing the state element.
            stem = plan.stem.get(dff.q)
            if stem is not None:
                clear, setm = stem
                next_state[dff.q] = (next_state[dff.q] & ~clear) | setm
        return next_state
