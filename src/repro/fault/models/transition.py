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
  into one cycle kernel, exactly like stuck-at chunks.  The launch
  condition is evaluated per cycle per lane against the *good* machine
  (the classical fault-free-launch approximation: a slow net
  misbehaves in a cycle iff its previous settled good value was the
  edge's initial value; cycle 0 has no launch), which therefore also
  observes every fault net, and each cycle merges the injected and
  the free kernels' state and output words lane-wise under that
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
from repro.fault.coverage import FaultSimResult, first_lane
from repro.fault.model import StuckAtFault
from repro.fault.models.base import FaultModel, register_fault_model
from repro.fault.seq_sim import reset_state, simulate_chunks
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
                 faults: list | None = None, lanes: int | None = None,
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
                      faults: list, lanes: int | None,
                      engine) -> FaultSimResult:
        engine = build_engine(engine)
        # The good machine also observes every fault net: the launch
        # condition reads its previous settled value.
        watch = tuple(dict.fromkeys(fault.net for fault in faults))
        base = len(netlist.output_bits)
        slot = {nid: base + k for k, nid in enumerate(watch)}
        detection = simulate_chunks(
            netlist, engine, faults, lanes, stimuli,
            lambda chunk, mask: self._machine(
                netlist, engine, chunk, mask, slot),
            watch=watch,
        )
        return FaultSimResult(list(faults), detection, len(stimuli))

    def _machine(self, netlist: Netlist, engine, chunk: list, mask: int,
                 slot: dict[int, int]):
        # One static plan per chunk: every lane's net forced to its
        # initial value.  Activation is applied afterwards as a lane
        # merge, so the plan (and the compiled backend's generated
        # code) never varies per cycle.
        plan = InjectionPlan(faults=list(chunk))
        # (good-word slot, initial value) -> lanes launched by it
        launch: dict[tuple[int, int], int] = {}
        for lane, fault in enumerate(chunk):
            clear, setm = plan.stem.get(fault.net, (0, 0))
            clear |= 1 << lane
            if fault.initial:
                setm |= 1 << lane
            plan.stem[fault.net] = (clear, setm)
            key = (slot[fault.net], fault.initial)
            launch[key] = launch.get(key, 0) | (1 << lane)
        launch_items = list(launch.items())
        free_next, free_observe = engine.cycle(netlist)
        inj_next, inj_observe = engine.cycle(netlist, plan)
        state = reset_state(netlist, mask)
        prev_good: tuple | None = None  # settled values, cycle t-1

        def advance(cycle: int, inputs: tuple, good: tuple) -> tuple:
            nonlocal state, prev_good
            # Launch condition: the previous cycle's settled good value
            # was the slow edge's initial value.  Cycle 0 has no launch.
            act = 0
            if prev_good is not None:
                for (index, initial), lanes in launch_items:
                    if prev_good[index] == initial:
                        act |= lanes
            prev_good = good
            if not act:
                state = free_next(inputs, state, mask)
                return free_observe(inputs, state, mask)
            nact = mask & ~act
            # Pre-clock: active lanes see their site forced.  Post-clock:
            # captured corruption is now ordinary state divergence and
            # propagates on inactive lanes too.
            state = tuple(
                (inj & act) | (free & nact) for inj, free in zip(
                    inj_next(inputs, state, mask),
                    free_next(inputs, state, mask),
                )
            )
            return tuple(
                (inj & act) | (free & nact) for inj, free in zip(
                    inj_observe(inputs, state, mask),
                    free_observe(inputs, state, mask),
                )
            )

        return advance
