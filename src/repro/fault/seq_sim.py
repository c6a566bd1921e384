"""Fault-parallel stuck-at simulation for sequential circuits.

Each bit lane of a net word is one faulty machine.  By default
(``lanes=None``) a call packs its whole fault list into one word, so
it compiles one faulty-machine kernel and makes one kernel call per
cycle however long the list is: both engines compute on Python ints,
and at these widths an int operation's cost grows far more slowly
than its width (a b03 kernel step costs about 60-80 us at 914 lanes
and 21-25 us at 128 on a 2-CPU Xeon host).  A set ``lanes`` cuts
the list into chunks of at most that many machines (detections do
not depend on it).  Injection masks are pre-compiled per chunk:

* stem faults override the net word wherever it is read, a flip-flop
  output included, so a stuck Q forces its state element every cycle;
* branch faults override one gate's (or one DFF's) view of its input.

Simulation is cycle-major (:func:`simulate_chunks`, shared with the
transition and SEU models): every chunk is built up front, then each
cycle steps one single-lane good machine and advances every chunk that
still has undetected lanes against it, until all chunks are fully
detected.  Every cycle captures the next state from the pre-edge
evaluation and samples the outputs from the post-edge one, which
matches :class:`repro.sim.testbench.Testbench`, so detection cycles are
directly comparable with behavioural runs.  The per-gate work runs on
a pluggable :mod:`repro.engine` backend's clock-cycle kernel
(``engine.cycle``), resolved once per chunk: ``next_state`` before the
edge, ``observe`` after it, over tuples of words.  The ``compiled``
backend evaluates only the fan-in cone each of them reads, with the
chunk's masks baked into generated straight-line code.
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
        lanes: int | None = None,
        engine=None,
    ):
        self._netlist = netlist
        self._engine = build_engine(engine)
        self._faults = (
            faults if faults is not None else collapse_faults(netlist)
        )
        self._lanes = lanes
        self._width = _chunk_width(lanes, len(self._faults))

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
    def lanes(self) -> int | None:
        """The chunk width; ``None``: one chunk per fault list."""
        return self._lanes

    def simulate(self, stimuli: list[int]) -> FaultSimResult:
        """Fault-simulate a packed input sequence (applied after reset)."""
        m = _metrics.active()
        started = time.monotonic() if m.enabled else 0.0
        detection = simulate_chunks(
            self._netlist, self._engine, self._faults, self._width,
            stimuli, self._machine,
        )
        if m.enabled:
            # Per-simulate coarse counters; the per-cycle loop inside
            # simulate_chunks is the hot path and stays untouched.
            name = getattr(self._engine, "name", "engine")
            m.counter(f"engine.{name}.seq.passes")
            m.counter(f"engine.{name}.seq.faults", len(self._faults))
            m.counter(f"engine.{name}.seq.cycles", len(stimuli))
            m.counter(f"engine.{name}.seq.chunks",
                      -(-len(self._faults) // self._width))
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

    def _machine(self, chunk: list[StuckAtFault], mask: int):
        next_state, observe = self._engine.cycle(
            self._netlist, self._compile(chunk)
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


def _chunk_width(lanes: int | None, count: int) -> int:
    """Machines per chunk of a ``count``-fault list (``None``: all)."""
    if lanes is None:
        return max(count, 1)
    if lanes < 1:
        raise FaultSimError("lanes must be >= 1")
    return lanes


def simulate_chunks(
    netlist: Netlist, engine, faults: list, lanes: int | None,
    stimuli: list[int], machine, watch: tuple[int, ...] = (),
) -> list[int | None]:
    """First-detection cycle per fault, simulated cycle-major.

    Faults run in chunks of ``lanes`` machines, or all in one chunk
    when ``lanes`` is ``None``.  ``machine(chunk, mask)`` builds the
    faulty machines of one chunk (one per lane of ``mask``) and returns
    its ``advance(cycle, inputs, good)``: one clock cycle over the
    lane-replicated input words (a tuple in ``netlist.input_bits``
    order), returning the chunk's post-clock primary-output words in
    ``netlist.output_bits`` order.  ``good`` is the single-lane good
    machine's post-clock words of the primary outputs followed by the
    ``watch`` nets, for the same cycle.
    Lanes are independent machines, so detection cycles match a
    chunk-by-chunk run bit for bit; a fully detected chunk stops
    advancing, and stimuli past the last live cycle are never decoded.
    """
    size = _chunk_width(lanes, len(faults))
    detection: list[int | None] = [None] * len(faults)
    live = []  # [first fault index, lane mask, alive lanes, advance]
    for start in range(0, len(faults), size):
        chunk = faults[start : start + size]
        mask = (1 << len(chunk)) - 1
        live.append([start, mask, mask, machine(chunk, mask)])
    input_bits, width = netlist.input_bits, len(netlist.output_bits)
    good_next, good_observe = engine.cycle(
        netlist, None, tuple(netlist.output_bits) + tuple(watch)
    )
    good_state = reset_state(netlist, 1)
    for cycle, packed in enumerate(stimuli):
        if not live:
            break
        single = unpack_patterns([packed], input_bits)
        bits = tuple(single[nid] for nid in input_bits)
        good_state = good_next(bits, good_state, 1)
        good = good_observe(bits, good_state, 1)
        # lane mask -> (replicated inputs, replicated good outputs)
        replicated: dict[int, tuple] = {}
        for entry in live:
            start, mask, alive, advance = entry
            pair = replicated.get(mask)
            if pair is None:
                pair = replicated[mask] = (
                    tuple(mask if bit else 0 for bit in bits),
                    tuple(mask if bit else 0 for bit in good[:width]),
                )
            inputs, expected = pair
            words = advance(cycle, inputs, good)
            diff = 0
            for word, want in zip(words, expected):
                diff |= word ^ want
            newly = diff & alive
            entry[2] = alive & ~newly
            while newly:
                low = newly & -newly
                detection[start + low.bit_length() - 1] = cycle
                newly ^= low
        live = [entry for entry in live if entry[2]]
    return detection
