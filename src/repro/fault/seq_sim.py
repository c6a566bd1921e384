"""Fault-parallel stuck-at simulation for sequential circuits.

Each bit lane of a net word is one faulty machine, and a call packs
its whole fault list into one word, so it compiles one faulty-machine
kernel and makes one kernel call per cycle however long the list is:
both engines compute on Python ints, and at these widths an int
operation's cost grows far more slowly than its width (a b03 kernel
step costs about 60-80 us at 914 lanes and 21-25 us at 128 on a 2-CPU
Xeon host).  Lanes are independent machines, so any consecutive slice
of a list detects exactly what it does inside the whole list; the
grid's fault-chunk units rely on that.  Injection masks are
pre-compiled per list:

* stem faults override the net word wherever it is read, a flip-flop
  output included, so a stuck Q forces its state element every cycle;
* branch faults override one gate's (or one DFF's) view of its input.

Simulation is cycle-major (:func:`simulate_chunks`, shared with the
transition and SEU models): each cycle steps one single-lane good
machine and then the fault-parallel machine, until every lane is
detected.  Every cycle captures the next state from the pre-edge
evaluation and samples the outputs from the post-edge one, which
matches :class:`repro.sim.testbench.Testbench`, so detection cycles are
directly comparable with behavioural runs.  The per-gate work runs on
a pluggable :mod:`repro.engine` backend's clock-cycle kernel
(``engine.cycle``), resolved once per call: ``next_state`` before the
edge, ``observe`` after it, over tuples of words.  The ``compiled``
backend evaluates only the fan-in cone each of them reads, with the
list's masks baked into generated straight-line code.
"""

from __future__ import annotations

import time

from repro.engine import InjectionPlan, build_engine
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
        engine=None,
    ):
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

    def simulate(self, stimuli: list[int]) -> FaultSimResult:
        """Fault-simulate a packed input sequence (applied after reset)."""
        m = _metrics.active()
        started = time.monotonic() if m.enabled else 0.0
        detection = simulate_chunks(
            self._netlist, self._engine, self._faults, stimuli,
            self._machine,
        )
        if m.enabled:
            # Per-simulate coarse counters; the per-cycle loop inside
            # simulate_chunks is the hot path and stays untouched.
            name = getattr(self._engine, "name", "engine")
            m.counter(f"engine.{name}.seq.passes")
            m.counter(f"engine.{name}.seq.faults", len(self._faults))
            m.counter(f"engine.{name}.seq.cycles", len(stimuli))
            m.observe(
                f"engine.{name}.seq.seconds", time.monotonic() - started
            )
        return FaultSimResult(
            list(self._faults), detection, len(stimuli)
        )

    def _compile(self, faults: list[StuckAtFault]) -> InjectionPlan:
        plan = InjectionPlan(faults=faults)

        def merge(table: dict, key, lane: int, stuck: int) -> None:
            clear, setm = table.get(key, (0, 0))
            clear |= 1 << lane
            if stuck:
                setm |= 1 << lane
            table[key] = (clear, setm)

        for lane, fault in enumerate(faults):
            if fault.gate is not None:
                merge(plan.branch, (fault.gate, fault.pin), lane, fault.stuck)
            elif fault.dff is not None:
                merge(plan.dff_branch, fault.dff, lane, fault.stuck)
            else:
                merge(plan.stem, fault.net, lane, fault.stuck)
        return plan

    def _machine(self, faults: list[StuckAtFault], mask: int):
        next_state, observe = self._engine.cycle(
            self._netlist, self._compile(faults)
        )
        state = reset_state(self._netlist, mask)

        def advance(cycle: int, inputs: tuple, good: tuple) -> tuple:
            nonlocal state
            state = next_state(inputs, state, mask)
            return observe(inputs, state, mask)

        return advance


def reset_state(netlist: Netlist, mask: int) -> tuple[int, ...]:
    """Every DFF's reset value in all lanes of ``mask``, in DFF order."""
    return tuple(mask if dff.reset_value else 0 for dff in netlist.dffs)


def simulate_chunks(
    netlist: Netlist, engine, faults: list, stimuli: list[int], machine,
    watch: tuple[int, ...] = (),
) -> list[int | None]:
    """First-detection cycle per fault, simulated cycle-major.

    ``machine(faults, mask)`` builds the faulty machines of the whole
    list (one per lane of ``mask``) and returns its
    ``advance(cycle, inputs, good)``: one clock cycle over the
    lane-replicated input words (a tuple in ``netlist.input_bits``
    order), returning the post-clock primary-output words in
    ``netlist.output_bits`` order.  ``good`` is the single-lane good
    machine's post-clock words of the primary outputs followed by the
    ``watch`` nets, for the same cycle.  The run stops once every lane
    is detected: stimuli past the last live cycle are never decoded,
    and an empty list decodes none.
    """
    detection: list[int | None] = [None] * len(faults)
    if not faults:
        return detection
    alive = mask = (1 << len(faults)) - 1
    advance = machine(faults, mask)
    input_bits, width = netlist.input_bits, len(netlist.output_bits)
    good_next, good_observe = engine.cycle(
        netlist, None, tuple(netlist.output_bits) + tuple(watch)
    )
    good_state = reset_state(netlist, 1)
    for cycle, packed in enumerate(stimuli):
        single = unpack_patterns([packed], input_bits)
        bits = tuple(single[nid] for nid in input_bits)
        good_state = good_next(bits, good_state, 1)
        good = good_observe(bits, good_state, 1)
        words = advance(cycle, tuple(mask if bit else 0 for bit in bits),
                        good)
        diff = 0
        for word, bit in zip(words, good[:width]):
            diff |= word ^ (mask if bit else 0)
        newly = diff & alive
        alive &= ~newly
        while newly:
            low = newly & -newly
            detection[low.bit_length() - 1] = cycle
            newly ^= low
        if not alive:
            break
    return detection
