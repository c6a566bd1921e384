"""Transition (delay) faults: slow-to-rise / slow-to-fall nets.

A transition fault delays one edge of one net past the cycle boundary.
Detecting ``slow-to-rise n`` takes a two-pattern launch/capture test:
the *launch* pattern sets ``n`` to 0, the *capture* pattern attempts
the 0->1 transition and propagates the (still stuck) old value to an
observed output.  A slow net therefore behaves, during the capture
evaluation, exactly like a stuck-at fault at its *initial* value — a
conditional stuck-at activated only when the launch value was the
initial value.  That lowering is what this model executes:

* **Combinational** (pattern-parallel): consecutive test patterns are
  the launch/capture pairs.  The capture-side difference word is the
  plain stuck-at cone diff (one ``fault_diff_batch`` call over all
  faults); the launch condition is one
  shift of the good word (``good << 1`` holds each pattern's
  predecessor value); their AND is the detection word.
* **Sequential** (fault-parallel): faults ride the same cycle-major
  lane-chunk driver as :class:`repro.fault.SeqFaultSimulator`
  (:func:`repro.fault.seq_sim.simulate_chunks`) with one *static*
  :class:`~repro.engine.InjectionPlan` per chunk forcing each lane's
  net to its initial value — so the compiled backend bakes the chunk
  into code once, exactly like stuck-at chunks.  The launch condition
  is evaluated per cycle per lane against the *good* machine (the
  classical fault-free-launch approximation: a slow net misbehaves in
  a cycle iff its previous settled good value was the edge's initial
  value; cycle 0 has no launch), and each cycle's faulty evaluation
  merges the injected and the free words lane-wise under that
  activation mask.  The faulty machine's state is persistent: a
  corrupted value captured into a flip-flop keeps propagating through
  later (possibly inactive) cycles until it reaches an output, exactly
  like a stuck-at fault effect — which is what makes transition faults
  on state-cone nets observable in FSM-style circuits at all.

The fault universe is both edges on every driven net (stems only —
a per-branch delay distinction has no observable meaning here), and
collapsing chains through NOT/BUF gates on single-load nets: a buffer
preserves the slow edge, an inverter maps slow-to-rise to the output's
slow-to-fall.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.engine import InjectionPlan, build_engine
from repro.fault.coverage import FaultSimResult
from repro.fault.model import StuckAtFault
from repro.fault.models.base import (
    FaultModel,
    first_lane,
    register_fault_model,
)
from repro.fault.seq_sim import simulate_chunks
from repro.netlist.cells import GateType
from repro.netlist.netlist import Netlist
from repro.netlist.simulate import unpack_patterns


@dataclass(frozen=True)
class TransitionFault:
    """One slow edge on one net stem."""

    net: int
    rise: bool  # True: slow-to-rise (0->1 delayed); False: slow-to-fall

    @property
    def initial(self) -> int:
        """The launch value — the value the slow net is stuck at."""
        return 0 if self.rise else 1

    def describe(self, netlist: Netlist) -> str:
        edge = "rise" if self.rise else "fall"
        return f"{netlist.net_name(self.net)} slow-to-{edge}"


@register_fault_model
class TransitionModel(FaultModel):
    """Slow-to-rise/fall faults via launch/capture two-pattern tests."""

    name = "transition"

    def generate(self, netlist: Netlist) -> list[TransitionFault]:
        faults: list[TransitionFault] = []
        driven: list[int] = list(netlist.input_bits)
        driven.extend(gate.output for gate in netlist.gates)
        driven.extend(dff.q for dff in netlist.dffs)
        for nid in driven:
            for rise in (False, True):
                faults.append(TransitionFault(net=nid, rise=rise))
        return faults

    def collapse(self, netlist: Netlist,
                 faults: list | None = None) -> list[TransitionFault]:
        """Chain slow edges through single-load NOT/BUF gates."""
        if faults is None:
            faults = self.generate(netlist)
        universe = {(f.net, f.rise): f for f in faults}
        loads: dict[int, int] = {}
        for gate in netlist.gates:
            for nid in gate.inputs:
                loads[nid] = loads.get(nid, 0) + 1
        for dff in netlist.dffs:
            loads[dff.d] = loads.get(dff.d, 0) + 1

        parent: dict[tuple[int, bool], tuple[int, bool]] = {}

        def find(key):
            root = parent.setdefault(key, key)
            if root == key:
                return key
            root = find(root)
            parent[key] = root
            return root

        for gate in netlist.gates:
            if gate.gate_type not in (GateType.NOT, GateType.BUF):
                continue
            nid = gate.inputs[0]
            if loads.get(nid, 0) > 1:
                continue  # a shared net's delay is not the gate's alone
            inv = gate.gate_type is GateType.NOT
            for rise in (False, True):
                in_key = (nid, rise)
                out_key = (gate.output, rise ^ inv)
                if in_key in universe and out_key in universe:
                    ra, rb = find(in_key), find(out_key)
                    if ra != rb:
                        parent[ra] = rb

        classes: dict = {}
        for key in universe:
            classes.setdefault(find(key), []).append(key)
        representatives = [
            universe[min(members)] for members in classes.values()
        ]
        representatives.sort(key=lambda f: (f.net, f.rise))
        return representatives

    def describe(self, fault: TransitionFault, netlist: Netlist) -> str:
        return fault.describe(netlist)

    def simulate(self, netlist: Netlist, stimuli: list[int],
                 faults: list | None = None, lanes: int = 256,
                 engine=None) -> FaultSimResult:
        if faults is None:
            faults = self.collapse(netlist)
        if netlist.dffs:
            return self._simulate_seq(netlist, stimuli, faults, lanes,
                                      engine)
        return self._simulate_comb(netlist, stimuli, faults, engine)

    # -- combinational: pattern-parallel --------------------------------

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
        # Capture side: each slow net acts as stuck at its initial value.
        lowered = [
            StuckAtFault(net=fault.net, stuck=fault.initial)
            for fault in faults
        ]
        words = engine.fault_diff_batch(netlist, lowered, good, mask)
        detection: list[int | None] = []
        for fault, word in zip(faults, words):
            # Bit t of (good << 1) is the net's value at pattern t-1 —
            # the launch value.  Pattern 0 has no launch partner.
            launch = good[fault.net] << 1
            act = (~launch if fault.rise else launch) & mask & ~1
            detection.append(first_lane(word & act))
        return FaultSimResult(list(faults), detection, count)

    # -- sequential: fault-parallel lane chunks -------------------------

    def _simulate_seq(self, netlist: Netlist, stimuli: list[int],
                      faults: list, lanes: int,
                      engine) -> FaultSimResult:
        engine = build_engine(engine)
        detection = simulate_chunks(
            netlist, engine, faults, lanes, stimuli,
            lambda chunk, mask: self._machine(netlist, engine, chunk, mask),
        )
        return FaultSimResult(list(faults), detection, len(stimuli))

    def _machine(self, netlist: Netlist, engine, chunk: list, mask: int):
        # One static plan per chunk: every lane's net forced to its
        # initial value.  Activation is applied afterwards as a lane
        # mask on the output difference, so the plan (and the compiled
        # backend's generated code) never varies per cycle.
        plan = InjectionPlan(faults=list(chunk))
        for lane, fault in enumerate(chunk):
            clear, setm = plan.stem.get(fault.net, (0, 0))
            clear |= 1 << lane
            if fault.initial:
                setm |= 1 << lane
            plan.stem[fault.net] = (clear, setm)
        run = engine.injected(netlist, plan)
        dffs, outputs = netlist.dffs, netlist.output_bits
        state = {dff.q: mask if dff.reset_value else 0 for dff in dffs}
        prev_good: dict[int, int] | None = None  # settled values, cycle t-1

        def advance(cycle: int, inputs: dict[int, int],
                    good: dict[int, int]) -> dict[int, int]:
            nonlocal state, prev_good
            # Launch condition: the previous cycle's settled good value
            # was the slow edge's initial value.  Cycle 0 has no launch.
            act = 0
            if prev_good is not None:
                for lane, fault in enumerate(chunk):
                    if prev_good[fault.net] == fault.initial:
                        act |= 1 << lane
            prev_good = good
            nact = mask & ~act

            # Pre-clock: active lanes see their site forced; the merge
            # under ``act`` keeps the plan static per chunk.
            free = engine.eval_full(netlist, {**inputs, **state}, mask)
            if act:
                inj = run({**inputs, **state}, mask)
                state = {
                    dff.q: (inj[dff.d] & act) | (free[dff.d] & nact)
                    for dff in dffs
                }
            else:
                state = {dff.q: free[dff.d] for dff in dffs}
            # Post-clock: captured corruption is now ordinary state
            # divergence and propagates on inactive lanes too.
            free = engine.eval_full(netlist, {**inputs, **state}, mask)
            if not act:
                return free
            inj = run({**inputs, **state}, mask)
            return {
                nid: (inj[nid] & act) | (free[nid] & nact)
                for nid in outputs
            }

        return advance
