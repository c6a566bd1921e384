"""Single-event upsets: transient one-cycle bit-flips.

A radiation-style transient corrupts one storage element (or, in a
purely combinational circuit, one net) for a single cycle; whether it
is ever *observed* depends on how the corruption propagates afterwards.
The fault universe pairs every site with a deterministic sample of
injection cycles, so the universe is a pure function of the netlist and
the model's knobs — never of the stimuli — which is what lets grid
planners shard the list before any vectors exist.  A fault whose cycle
lies beyond the test length is simply never activated.

Knobs (``CampaignConfig.fault_model_knobs`` / ``build_fault_model``):

* ``cycles`` — how many injection cycles to sample (default 8).
* ``stride`` — spacing between sampled cycles (default 7); cycle *j*
  of the sample is ``j * stride``, so the defaults probe cycles
  0, 7, 14, ... 49.

Execution:

* **Sequential**: one flipped DFF bit per (dff, cycle) pair.  Lanes
  are fault machines on the same cycle-major one-word loop as
  :class:`repro.fault.SeqFaultSimulator`, but no
  :class:`~repro.engine.InjectionPlan` is needed at all: each
  lane's state bit is XOR-flipped once, at its scheduled cycle, and the
  corrupted state then evolves freely through the plan-less clock-cycle
  kernel — transient by construction, persistent only through real
  feedback paths.
* **Combinational**: a single-event transient on one driven net during
  one pattern.  Pattern-parallel: per net, both stuck-at polarity
  difference words combine into the flip-difference word
  ``(diff_sa0 & good) | (diff_sa1 & ~good)`` — bit *t* set iff
  *inverting* the net is observed at an output under pattern *t* — and
  each (net, cycle) fault just tests its cycle's bit.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import build_engine
from repro.errors import FaultError
from repro.fault.coverage import FaultSimResult
from repro.fault.model import StuckAtFault
from repro.fault.models.base import FaultModel, register_fault_model
from repro.fault.seq_sim import reset_state, simulate_chunks
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import unpack_patterns

DEFAULT_CYCLES = 8
DEFAULT_STRIDE = 7


@dataclass(frozen=True)
class SeuFault:
    """One transient bit-flip: ``net`` inverted during ``cycle``.

    ``net`` is a DFF output (state bit) in sequential circuits, any
    driven net in combinational ones; ``cycle`` is the 0-based clock
    cycle (or pattern index) of the upset.
    """

    net: int
    cycle: int

    def describe(self, netlist: Netlist) -> str:
        return f"{netlist.net_name(self.net)} seu @ cycle {self.cycle}"


@register_fault_model
class SeuModel(FaultModel):
    """Transient bit-flips at deterministically sampled cycles."""

    name = "seu"

    def __init__(self, cycles: int = DEFAULT_CYCLES,
                 stride: int = DEFAULT_STRIDE):
        if not isinstance(cycles, int) or cycles < 1:
            raise FaultError(
                f"seu 'cycles' knob must be a positive integer, "
                f"got {cycles!r}"
            )
        if not isinstance(stride, int) or stride < 1:
            raise FaultError(
                f"seu 'stride' knob must be a positive integer, "
                f"got {stride!r}"
            )
        self.cycles = cycles
        self.stride = stride

    def sampled_cycles(self) -> list[int]:
        """The deterministic injection schedule: j * stride per sample."""
        return [j * self.stride for j in range(self.cycles)]

    def generate(self, netlist: Netlist) -> list[SeuFault]:
        if netlist.dffs:
            sites = [dff.q for dff in netlist.dffs]
        else:
            sites = list(netlist.input_bits)
            sites.extend(gate.output for gate in netlist.gates)
        return [
            SeuFault(net=nid, cycle=cycle)
            for nid in sites
            for cycle in self.sampled_cycles()
        ]

    def collapse(self, netlist: Netlist,
                 faults: list | None = None) -> list[SeuFault]:
        """Identity: distinct (site, cycle) upsets are never equivalent
        structurally — equal observability is a property of the
        stimuli, which collapsing must not depend on."""
        if faults is None:
            faults = self.generate(netlist)
        return list(faults)

    def describe(self, fault: SeuFault, netlist: Netlist) -> str:
        return fault.describe(netlist)

    def simulate(self, netlist: Netlist, stimuli: list[int],
                 faults: list | None = None,
                 engine=None) -> FaultSimResult:
        if faults is None:
            faults = self.collapse(netlist)
        if netlist.dffs:
            return self._simulate_seq(netlist, stimuli, faults, engine)
        return self._simulate_comb(netlist, stimuli, faults, engine)

    # -- combinational: single-event transients, pattern-parallel -------

    def _simulate_comb(self, netlist: Netlist, patterns: list[int],
                       faults: list, engine) -> FaultSimResult:
        count = len(patterns)
        if count == 0:
            return FaultSimResult(list(faults), [None] * len(faults), 0)
        engine = build_engine(engine)
        mask = (1 << count) - 1
        good = engine.eval_full(
            netlist, unpack_patterns(patterns, netlist.input_bits), mask
        )
        # Per distinct net, one flip-difference word serves every cycle
        # sample: bit t set iff inverting the net changes an output
        # under pattern t.  Built from both stuck-at polarities in one
        # batched call.
        nets = sorted({fault.net for fault in faults})
        lowered = [
            StuckAtFault(net=nid, stuck=stuck)
            for nid in nets
            for stuck in (0, 1)
        ]
        words = engine.fault_diff_batch(netlist, lowered, good, mask)
        flip: dict[int, int] = {}
        for index, nid in enumerate(nets):
            diff_sa0, diff_sa1 = words[2 * index], words[2 * index + 1]
            flip[nid] = (diff_sa0 & good[nid]) | (diff_sa1 & ~good[nid] & mask)
        detection: list[int | None] = []
        for fault in faults:
            hit = (
                fault.cycle < count
                and (flip[fault.net] >> fault.cycle) & 1
            )
            detection.append(fault.cycle if hit else None)
        return FaultSimResult(list(faults), detection, count)

    # -- sequential: one flipped state bit per lane ---------------------

    def _simulate_seq(self, netlist: Netlist, stimuli: list[int],
                      faults: list, engine) -> FaultSimResult:
        engine = build_engine(engine)
        detection = simulate_chunks(
            netlist, engine, faults, stimuli,
            lambda faults, mask: self._machine(netlist, engine, faults, mask),
        )
        return FaultSimResult(list(faults), detection, len(stimuli))

    def _machine(self, netlist: Netlist, engine, faults: list, mask: int):
        index = {dff.q: k for k, dff in enumerate(netlist.dffs)}
        # cycle -> {state index -> lane bits to flip when entering it}
        flips: dict[int, dict[int, int]] = {}
        for lane, fault in enumerate(faults):
            per_dff = flips.setdefault(fault.cycle, {})
            k = index[fault.net]
            per_dff[k] = per_dff.get(k, 0) | (1 << lane)
        next_state, observe = engine.cycle(netlist)
        state = reset_state(netlist, mask)

        def advance(cycle: int, inputs: tuple, good: tuple) -> tuple:
            nonlocal state
            # The upset strikes the state entering this cycle (cycle 0
            # flips the reset state).
            upsets = flips.get(cycle)
            if upsets:
                state = tuple(
                    word ^ upsets.get(k, 0) for k, word in enumerate(state)
                )
            state = next_state(inputs, state, mask)
            return observe(inputs, state, mask)

        return advance
