"""Mutant execution against stimuli: kills, matrices, survivors.

Strong mutation: a mutant is killed by a stimulus sequence when any
sampled output differs from the original at any cycle, or when its
execution raises a run-time error / fails to settle (observably
different behaviour).  Sequences always start from reset.

On the compiled backend a weak-mutation screen picks the (mutant,
vector) and (mutant, cycle) pairs that need running; it never changes
a result.  One probed pass of the original per stimulus list records
the slots each vector or cycle infects, the original's state entering
each one and its outputs.  A mutant in the original's state whose slot
is not infected takes the original's path, so it skips that pair:

* on the comb fast path, :class:`_CombSweep` does this per vector;
* on sequential designs, :meth:`MutationEngine._walk` does it per
  cycle, and serves ``run_mutant``/``run_all``, survivor triage and
  the sequential test generator (:class:`SequenceSweep`).

The interpreter (``backend="interp"``) is never screened: it is the
oracle the screen is tested against.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

from repro.errors import MutantRuntimeError, OscillationError
from repro.hdl.design import Design
from repro.mutation.mutant import Mutant
from repro.obs import metrics as _metrics
from repro.sim.compiler import MutantSchema
from repro.sim.interp import Evaluator
from repro.sim.testbench import StimulusEncoder, Testbench


_NO_EVENTS: frozenset[str] = frozenset()


def _comb_step(process, names, executor, values, variables) -> tuple:
    """One activation of a one-process combinational design.

    Such a process reads only input ports (the synthesizable-comb
    discipline), so one execution per vector replaces the delta-cycle
    scheduler.  ``values`` is a full signal map; ``variables`` carry
    over from one vector to the next, as across process activations.
    """
    scheduled: dict[str, object] = {}
    executor(process, values, variables, scheduled, _NO_EVENTS)
    return _read_outputs(names, values, scheduled)


def _read_outputs(names, values, scheduled) -> tuple:
    return tuple([
        scheduled[name] if name in scheduled else values[name]
        for name in names
    ])


def _initial_variables(process) -> dict:
    return {var.name: var.init for var in process.variables}


def _same_state(variables: dict, state: dict) -> bool:
    """Whether two variable maps hold equal values of the same classes
    (``True == 1``, but a mutant holding 1 is not on the original's
    path).  Both maps are copies of one initial map, and writes only
    replace values, so their values line up key by key."""
    return variables == state and (
        list(map(type, variables.values()))
        == list(map(type, state.values()))
    )


def _same_machine(state: tuple, other: tuple) -> bool:
    """:func:`_same_state` over two bench checkpoints: every signal and
    every process's variables."""
    values, variables, _ = state
    other_values, other_variables, _ = other
    return _same_state(values, other_values) and all(
        _same_state(store, other_variables[label])
        for label, store in variables.items()
    )


def _observable(state: tuple) -> tuple:
    """The comparable slice of a ``save_state`` checkpoint.

    Signal values plus process variables; the ``initialized`` flag is
    bench bookkeeping, identical on both machines by construction.
    """
    values, variables, _initialized = state
    return values, variables


@dataclass(frozen=True)
class _Probe:
    """The original's pass over a stimulus list, with infection masks.

    On the comb fast path ``states[k]`` are the process variables
    entering vector ``k``; on a sequential design it is the bench
    checkpoint (``save_state``) entering cycle ``k``, and ``reset``
    holds the slots the reset sequence infected (none from a
    checkpoint).
    """

    masks: dict[int, int]      # slot -> bit k set when infected on vector k
    states: list               # state entering vector k (one more: after)
    outputs: list[tuple]       # the original's outputs per vector
    reset: frozenset[int] = frozenset()

    @functools.cached_property
    def trace(self) -> list[tuple]:
        """The observable state after each cycle (sequential)."""
        return [_observable(state) for state in self.states[1:]]


class _Tally:
    """The screen's counters: pairs considered, and the runs left."""

    def __init__(self) -> None:
        self.runs = 0
        self.skipped = 0

    def record(self) -> None:
        """Count the pairs and runs as ``mutation.screen.*``."""
        m = _metrics.active()
        if m.enabled:
            m.counter("mutation.screen.pairs", self.runs + self.skipped)
            m.counter("mutation.screen.runs", self.runs)


def _record_probe(m, activations: int, started: float) -> None:
    """Count one probe pass over ``activations`` vectors or cycles as
    ``mutation.probe.*`` (``m`` enabled; ``started`` its monotonic
    start)."""
    m.counter("mutation.probe.passes")
    m.counter("mutation.probe.activations", activations)
    m.observe("mutation.probe.seconds", time.monotonic() - started)


def _can_fast_path(design: Design) -> bool:
    if design.is_sequential or len(design.processes) != 1:
        return False
    process = design.processes[0]
    # The fast path needs the process to read input ports only.
    return all(
        design.symbols[name].kind.name == "PORT_IN"
        for name in process.reads
    )


@dataclass(frozen=True)
class KillRecord:
    """Outcome of running one mutant against one stimulus sequence."""

    mid: int
    killed: bool
    cycle: int | None          # first differing cycle (0-based)
    reason: str                # "output-diff" | "runtime" | "oscillation" | "survived"


#: Surviving-mutant triage categories (the fault-classification
#: scheme): the test data never excited the mutated site at all, or it
#: did infect internal state but the infection never reached an
#: observed output, or the equivalence sweep flagged the mutant as a
#: candidate equivalent (no stimulus may be able to kill it).
NEVER_ACTIVATED = "never-activated"
PROPAGATION_BLOCKED = "propagation-blocked"
POSSIBLY_EQUIVALENT = "possibly-equivalent"
TRIAGE_CATEGORIES = (
    NEVER_ACTIVATED, PROPAGATION_BLOCKED, POSSIBLY_EQUIVALENT
)


def _first_kill(mid: int, steps, reference: list[tuple]) -> KillRecord:
    """The kill record of the first of ``steps`` (``(index, outputs,
    after)``) whose outputs differ from ``reference``, or whose run
    raised."""
    try:
        for index, outputs, _ in steps:
            if outputs != reference[index]:
                return KillRecord(mid, True, index, "output-diff")
    except MutantRuntimeError:
        return KillRecord(mid, True, None, "runtime")
    except OscillationError:
        return KillRecord(mid, True, None, "oscillation")
    return KillRecord(mid, False, None, "survived")


def _triage(steps, probe: _Probe | None, trace: list[tuple]) -> str:
    """A survivor's category from its ``steps`` against ``trace``: a
    state after a step that differs, or a run that raises (the reset's
    included: an activation without an output kill), means it was
    activated.  A step that rejoined the original's path (``after``
    None) left it in ``probe``'s state."""
    try:
        for index, _, after in steps:
            if after is None:
                after = probe.states[index + 1]
            if _observable(after) != trace[index]:
                return PROPAGATION_BLOCKED
    except (MutantRuntimeError, OscillationError):
        return PROPAGATION_BLOCKED
    return NEVER_ACTIVATED


class MutationEngine:
    """Runs mutants of one design against packed stimulus sequences.

    ``backend="compiled"`` runs every mutant as a slot of the engine's
    :class:`~repro.sim.compiler.MutantSchema`, screened (see the module
    docstring); ``"interp"`` runs the reference interpreter on every
    pair.
    """

    def __init__(self, design: Design, max_delta: int = 256,
                 backend: str = "compiled"):
        self._design = design
        self._encoder = StimulusEncoder(design)
        self._max_delta = max_delta
        self._fast = _can_fast_path(design)
        self._schema = MutantSchema(design) if backend == "compiled" else None
        self._defaults = {
            symbol.name: symbol.init for symbol in design.signal_like_symbols
        }
        self._memo: tuple | None = None
        #: ``(stimuli, slots, _Probe)`` of the last probed list
        #: (compiled only).
        self._probe_memo: tuple | None = None
        #: ``(the probe's list, caller's list, mask)`` of the last
        #: caller reference or trace.
        self._agreement: tuple | None = None
        #: Slots of the last covered population: ``run_mutant`` probes
        #: their sites, so one probe serves a ``run_mutant`` loop.
        self._population: frozenset[int] = frozenset()

    @property
    def design(self) -> Design:
        return self._design

    @property
    def encoder(self) -> StimulusEncoder:
        return self._encoder

    def decode_all(self, stimuli: list[int]) -> list[dict[str, object]]:
        return [self._encoder.decode(packed) for packed in stimuli]

    def cover(self, mutants: list[Mutant]) -> list[int]:
        """Add ``mutants`` to the schema, compiled at the next execution
        (sweeps cover first: one compile per population, not mutant).
        Returns their slots (empty on the interpreter)."""
        if self._schema is None:
            return []
        slots = self._schema.cover(mutant.patch() for mutant in mutants)
        self._population = frozenset(slots)
        return slots

    def executor(self, mutant: Mutant | None = None):
        """The process executor running ``mutant`` (None: the original)."""
        patch = None if mutant is None else mutant.patch()
        if self._schema is None:
            return Evaluator(patch).exec_process
        return self._schema.executor(patch)

    def testbench(self, mutant: Mutant | None = None) -> Testbench:
        """A (not yet reset) bench running ``mutant`` on this engine."""
        return Testbench(
            self._design, max_delta=self._max_delta,
            executor=self.executor(mutant),
        )

    def _stimuli(self, stimuli: list[int]) -> tuple[list, list]:
        """``(decoded stimuli, fast-path signal maps)``, memoized for the
        last list: sweeps run every mutant against the same one."""
        key = tuple(stimuli)
        memo = self._memo
        if memo is None or memo[0] != key:
            decoded = self.decode_all(stimuli)
            rows = decoded
            if self._fast:
                rows = [{**self._defaults, **stim} for stim in decoded]
            memo = self._memo = (key, decoded, rows)
        return memo[1], memo[2]

    def reference_outputs(self, stimuli: list[int]) -> list[tuple]:
        """Original-design responses (no patch).

        On a sequential design the compiled backend takes them from the
        probe over the covered population, which its sweeps then share.
        """
        decoded, rows = self._stimuli(stimuli)
        if self._fast:
            process = self._design.processes[0]
            names = self._output_names()
            executor = self.executor()
            variables = _initial_variables(process)
            return [_comb_step(process, names, executor, values, variables)
                    for values in rows]
        if self._design.is_sequential and self._schema is not None:
            return list(self._probe(stimuli, self._population).outputs)
        return self.testbench().run_sequence(decoded)

    def _output_names(self) -> list[str]:
        return [port.name for port in self._design.output_ports]

    def _probe_slots(self, mutant: Mutant) -> tuple[int, frozenset[int]]:
        """``mutant``'s slot and the slots to probe for it: the last
        covered population, or every covered slot when it is not in it
        (compiled only)."""
        slot, slots = self._schema.slot(mutant.patch()), self._population
        if slot not in slots:  # not covered by the last sweep
            slots = self._schema.covered()
        return slot, slots

    def _probe(self, stimuli: list[int], slots: frozenset[int]) -> _Probe:
        """The original's probed pass over ``stimuli`` (compiled
        backend; comb fast path or sequential), memoized for the last
        list: a ``run_mutant`` loop over one list probes once."""
        key = tuple(stimuli)
        memo = self._probe_memo
        if memo is not None and memo[0] == key and slots <= memo[1]:
            return memo[2]
        decoded, rows = self._stimuli(stimuli)
        if not self._fast:
            result = self._pass(decoded, prober=self._schema.prober(slots))
            self._probe_memo = (key, slots, result)
            return result
        process = self._design.processes[0]
        names = self._output_names()
        probe = self._schema.prober(slots)
        m = _metrics.active()
        started = time.monotonic() if m.enabled else 0.0
        variables = _initial_variables(process)
        states = [dict(variables)]
        outputs = []
        masks: dict[int, int] = {}
        for index, values in enumerate(rows):
            scheduled: dict[str, object] = {}
            infected = probe(process, values, variables, scheduled,
                             _NO_EVENTS)
            outputs.append(_read_outputs(names, values, scheduled))
            states.append(dict(variables))
            bit = 1 << index
            for slot in infected:
                masks[slot] = masks.get(slot, 0) | bit
        if m.enabled:
            _record_probe(m, len(rows), started)
        result = _Probe(masks, states, outputs)
        self._probe_memo = (key, slots, result)
        return result

    def _prober(self, slots: frozenset[int]):
        """A schema probe over ``slots`` (None on the interpreter)."""
        return None if self._schema is None else self._schema.prober(slots)

    def _pass(self, decoded: list[dict], start: tuple | None = None,
              prober=None) -> _Probe:
        """The original's pass over sequential ``decoded`` stimuli.

        It starts from reset (``start`` None) or from the checkpoint
        ``start``.  With a schema ``prober`` every activation of the
        pass is probed: the reset sequence's go to ``reset``, and each
        cycle's (both clock edges and any delta settle) to its bit of
        ``masks``.  Without one the masks stay empty.
        """
        m = _metrics.active()
        started = time.monotonic() if m.enabled else 0.0
        infected: set[int] = set()
        executor = self.executor() if prober is None else (
            functools.partial(prober, infected=infected)
        )
        bench = Testbench(self._design, max_delta=self._max_delta,
                          executor=executor)
        if start is None:
            bench.reset()
        else:
            bench.restore_state(start)
        reset = frozenset(infected)
        states = [bench.save_state()]
        outputs = []
        masks: dict[int, int] = {}
        for index, stimulus in enumerate(decoded):
            infected.clear()
            outputs.append(bench.step(stimulus))
            states.append(bench.save_state())
            bit = 1 << index
            for slot in infected:
                masks[slot] = masks.get(slot, 0) | bit
        if m.enabled and prober is not None:
            _record_probe(m, len(decoded), started)
        return _Probe(masks, states, outputs, reset)

    def _disagreement(self, mine: list, theirs: list) -> int:
        """Mask of the indexes where a caller's list ``theirs`` (a
        reference output list or state trace) differs from the probe's
        own ``mine`` (never, when the caller took it from the probe): a
        mutant has to run there even on the original's path."""
        if theirs is mine:
            return 0
        cached = self._agreement
        if cached and cached[0] is mine and cached[1] is theirs:
            return cached[2]
        mask = 0
        for index, (own, other) in enumerate(zip(mine, theirs)):
            if own != other:
                mask |= 1 << index
        self._agreement = (mine, theirs, mask)
        return mask

    def _sweep(self, stimuli: list[int], reference: list[tuple] | None,
               slots: frozenset[int]) -> _CombSweep:
        """A comb fast-path sweep over ``stimuli``; the compiled backend
        screens it with a probe over ``slots``."""
        _, rows = self._stimuli(stimuli)
        probe = mismatch = None
        if self._schema is not None:
            probe = self._probe(stimuli, slots)
            if reference is None:
                reference = probe.outputs
            mismatch = self._disagreement(probe.outputs, reference)
        elif reference is None:
            reference = self.reference_outputs(stimuli)
        return _CombSweep(self._design.processes[0], self._output_names(),
                          rows, reference, probe, mismatch)

    def _fresh_bench(self, mutant: Mutant | None) -> tuple[Testbench, tuple]:
        """A reset bench plus its pristine state checkpoint.

        The bench path runs combinational designs the comb fast path
        cannot (several processes, or a process reading an internal
        signal), and restores the pristine checkpoint before every
        vector, so a mutant cannot smuggle state from one vector into
        the next through a reused bench; that costs a state copy, not
        a bench construction.  The fast path differs: it carries
        process variables from one vector to the next.
        """
        bench = self.testbench(mutant)
        bench.reset()
        return bench, bench.save_state()

    # -- sequential screen ---------------------------------------------------

    def _sequence(self, mutant: Mutant, stimuli: list[int],
                  theirs: list | None, own: str, tally: _Tally) -> tuple:
        """One mutant's reset-started run over sequential ``stimuli``:
        ``(steps, probe, theirs)``.

        ``steps`` is the :meth:`_walk` from reset.  ``theirs`` is the
        caller's list to compare with (None: the probe's own
        ``outputs`` or ``trace``, named by ``own``).  Besides the
        cycles that infect its slot, the mutant runs those where
        ``theirs`` is not the probe's, even on the original's path.
        The interpreter has no probe (``probe`` None).
        """
        decoded, _ = self._stimuli(stimuli)
        probe = slot = None
        pending = 0
        if self._schema is not None:
            slot, slots = self._probe_slots(mutant)
            probe = self._probe(stimuli, slots)
            mine = getattr(probe, own)
            if theirs is None:
                theirs = mine
            pending = probe.masks.get(slot, 0) | (
                self._disagreement(mine, theirs)
            )
        steps = self._from_reset(mutant, decoded, probe, slot, pending,
                                 tally)
        return steps, probe, theirs

    def _from_reset(self, mutant: Mutant, decoded: list[dict],
                    probe: _Probe | None, slot: int | None, pending: int,
                    tally: _Tally):
        """:meth:`_walk` of ``mutant`` from reset (its errors, the
        reset's included, propagate)."""
        start = None
        if probe is not None:
            start = self._reset_state(mutant, slot, probe)
        yield from self._walk(functools.partial(self.testbench, mutant),
                              decoded, probe, start, pending, tally)

    def _bench_steps(self, mutant: Mutant, decoded: list[dict]):
        """Yield ``(index, outputs, bench)`` for every vector of the
        combinational bench path, each from the pristine state (its
        errors propagate)."""
        bench, pristine = self._fresh_bench(mutant)
        for index, stimulus in enumerate(decoded):
            bench.restore_state(pristine)
            yield index, bench.step(stimulus), bench

    def _reset_state(self, mutant: Mutant, slot: int | None,
                     probe: _Probe | None) -> tuple | None:
        """``mutant``'s state after the reset sequence.

        Screened (a ``probe`` from reset), None when it is the
        original's: its reset was not infected, or it came back to the
        original's state.  Raises the mutant's reset errors.
        """
        if probe is not None and slot not in probe.reset:
            return None
        bench = self.testbench(mutant)
        bench.reset()
        state = bench.save_state()
        if probe is not None and _same_machine(state, probe.states[0]):
            return None
        return state

    def _walk(self, bench, decoded: list[dict], probe: _Probe | None,
              start: tuple | None, pending: int, tally: _Tally):
        """Yield ``(cycle, outputs, after)`` for each cycle of
        ``decoded`` that a mutant runs; its own errors propagate.

        ``bench()`` returns the mutant's bench, built on first need.
        Unscreened (``probe`` None) the mutant runs every cycle on it,
        from reset (``start`` None) or from the checkpoint ``start``,
        and ``after`` is its state after the cycle.

        Screened, ``start`` None puts the mutant on the original's
        path: in ``probe.states[k]`` entering cycle ``k``.  On the path
        it runs only the cycles in the ``pending`` mask, from the
        probe's state; on any other cycle it would take the original's
        path, so its outputs and next state are the probe's.  Off the
        path (``start`` its own checkpoint) it runs every cycle, and it
        rejoins the path when its state after a cycle equals the
        probe's by class and value; ``after`` is then None.
        """
        count = len(decoded)
        if probe is None:
            machine = bench()
            if start is None:
                machine.reset()
            else:
                machine.restore_state(start)
            for cycle, stimulus in enumerate(decoded):
                tally.runs += 1
                outputs = machine.step(stimulus)
                yield cycle, outputs, machine.save_state()
            return
        states = probe.states
        machine = None
        state, held = start, False  # held: the bench is in ``state``
        cycle = 0
        while cycle < count:
            if state is None:
                ahead = pending >> cycle
                skip = count - cycle
                if ahead:
                    skip = min(skip, (ahead & -ahead).bit_length() - 1)
                tally.skipped += skip
                cycle += skip
                if cycle == count:
                    return
                state, held = states[cycle], False
            if machine is None:
                machine = bench()
            if not held:
                machine.restore_state(state)
                held = True
            tally.runs += 1
            outputs = machine.step(decoded[cycle])
            cycle += 1
            state = machine.save_state()
            if _same_machine(state, states[cycle]):
                state = None
            yield cycle - 1, outputs, state

    def run_mutant(
        self,
        mutant: Mutant,
        stimuli: list[int],
        reference: list[tuple] | None = None,
    ) -> KillRecord:
        """Run one mutant, stopping at the first observable difference.

        Sequential stimuli are one reset-started sequence, screened on
        the compiled backend (see :meth:`_walk`).  On the comb fast
        path, process variables carry from one vector to the next (see
        :class:`_CombSweep`, which also screens the run); other
        combinational designs evaluate every vector from the pristine
        state.
        """
        if self._fast:
            slot, slots = 0, self._population
            if self._schema is not None:
                slot, slots = self._probe_slots(mutant)
            sweep = self._sweep(stimuli, reference, slots)
            record = KillRecord(mutant.mid, False, None, "survived")
            for cycle, error in sweep.diffs(self.executor(mutant), slot):
                if error is None:
                    record = KillRecord(mutant.mid, True, cycle,
                                        "output-diff")
                elif isinstance(error, MutantRuntimeError):
                    record = KillRecord(mutant.mid, True, None, "runtime")
                else:
                    record = KillRecord(mutant.mid, True, None,
                                        "oscillation")
                break
            sweep.record()
            return record
        if not self._design.is_sequential:
            decoded, _ = self._stimuli(stimuli)
            if reference is None:
                reference = self.reference_outputs(stimuli)
            return _first_kill(mutant.mid, self._bench_steps(mutant, decoded),
                               reference)
        tally = _Tally()
        steps, _, reference = self._sequence(
            mutant, stimuli, reference, "outputs", tally
        )
        if reference is None:
            reference = self.reference_outputs(stimuli)
        record = _first_kill(mutant.mid, steps, reference)
        tally.record()
        return record

    def run_all(
        self,
        mutants: list[Mutant],
        stimuli: list[int],
        reference: list[tuple] | None = None,
    ) -> list[KillRecord]:
        self.cover(mutants)
        if reference is None:
            reference = self.reference_outputs(stimuli)
        return [
            self.run_mutant(mutant, stimuli, reference)
            for mutant in mutants
        ]

    def killed_mids(
        self,
        mutants: list[Mutant],
        stimuli: list[int],
        reference: list[tuple] | None = None,
    ) -> set[int]:
        return {
            record.mid
            for record in self.run_all(mutants, stimuli, reference)
            if record.killed
        }

    # -- surviving-mutant triage --------------------------------------------

    def reference_state_trace(self, stimuli: list[int]) -> list[tuple]:
        """Per-cycle internal-state checkpoints of the original design.

        Computed once per stimulus set and shared across every
        survivor's triage; combinational designs restore the pristine
        checkpoint before each vector, as the bench path of
        :meth:`run_mutant` does (the comb fast path carries variables).
        A sequential design's compiled backend takes the trace from its
        probe.
        """
        decoded, _ = self._stimuli(stimuli)
        if self._design.is_sequential:
            if self._schema is not None:
                return list(self._probe(stimuli, self._population).trace)
            return self._pass(decoded).trace
        bench, pristine = self._fresh_bench(None)
        trace: list[tuple] = []
        for stimulus in decoded:
            bench.restore_state(pristine)
            bench.step(stimulus)
            trace.append(_observable(bench.save_state()))
        return trace

    def triage_survivor(
        self,
        mutant: Mutant,
        stimuli: list[int],
        trace: list[tuple] | None = None,
    ) -> str:
        """Why ``stimuli`` failed to kill a surviving mutant.

        Steps the mutant in lockstep against the reference state trace
        and compares the *complete* machine state (every signal and
        process variable) after each cycle: a mutant whose state never
        deviates was :data:`NEVER_ACTIVATED` by the test data; one that
        deviated internally yet survived (its outputs matched) was
        activated but :data:`PROPAGATION_BLOCKED` on the way to an
        observed output.  The third category,
        :data:`POSSIBLY_EQUIVALENT`, is assigned by the caller from the
        equivalence analysis before ever running this sweep.  On a
        sequential design the compiled backend screens the steps (see
        :meth:`_walk`): a skipped cycle leaves the mutant in the
        original's state.
        """
        if trace is None:
            trace = self.reference_state_trace(stimuli)
        if not self._design.is_sequential:
            decoded, _ = self._stimuli(stimuli)
            steps = (
                (index, outputs, bench.save_state())
                for index, outputs, bench in self._bench_steps(mutant,
                                                               decoded)
            )
            return _triage(steps, None, trace)
        tally = _Tally()
        steps, probe, trace = self._sequence(mutant, stimuli, trace, "trace",
                                             tally)
        category = _triage(steps, probe, trace)
        tally.record()
        return category

    def triage_survivors(
        self, mutants: list[Mutant], stimuli: list[int]
    ) -> dict[int, str]:
        """Triage categories for a batch of survivors (shared trace)."""
        if not mutants:
            return {}
        self.cover(mutants)
        trace = self.reference_state_trace(stimuli)
        return {
            mutant.mid: self.triage_survivor(mutant, stimuli, trace)
            for mutant in mutants
        }

    def comb_kill_sets(
        self,
        mutants: list[Mutant],
        vectors: list[int],
        reference: list[tuple] | None = None,
    ) -> dict[int, set[int]]:
        """For combinational designs: mid -> indexes of killing vectors.

        The whole matrix comes from one pass per mutant over the
        candidate list.  On the comb fast path process variables carry
        from one vector to the next, and the pass is screened (see
        :class:`_CombSweep`); the bench path evaluates every vector
        from the pristine state.
        """
        slots = self.cover(mutants)
        matrix: dict[int, set[int]] = {}
        if self._fast:
            sweep = self._sweep(vectors, reference, frozenset(slots))
            for mutant, slot in zip(mutants, slots or [0] * len(mutants)):
                matrix[mutant.mid] = {
                    index for index, _ in
                    sweep.diffs(self.executor(mutant), slot)
                }
            sweep.record()
            return matrix
        if reference is None:
            reference = self.reference_outputs(vectors)
        decoded, _ = self._stimuli(vectors)
        for mutant in mutants:
            kills: set[int] = set()
            try:
                bench, pristine = self._fresh_bench(mutant)
            except (MutantRuntimeError, OscillationError):
                # Initialization itself misbehaves: observably different
                # on every vector.
                matrix[mutant.mid] = set(range(len(decoded)))
                continue
            for index, stimulus in enumerate(decoded):
                try:
                    bench.restore_state(pristine)
                    if bench.step(stimulus) != reference[index]:
                        kills.add(index)
                except (MutantRuntimeError, OscillationError):
                    # The erroring vector observably differs; a fresh
                    # bench continues the sweep for the remaining ones.
                    kills.add(index)
                    bench, pristine = self._fresh_bench(mutant)
            matrix[mutant.mid] = kills
        return matrix


@dataclass(frozen=True)
class ChunkTrial:
    """One candidate chunk tried by a :class:`SequenceSweep`."""

    kills: set[int]            # live mids the chunk kills
    ends: dict                 # survivor mid -> its state after (None: the original's)
    checkpoint: tuple          # the original's state after the chunk


class SequenceSweep:
    """Live mutants along one reset-started sequence, grown chunk by chunk.

    It keeps the original's checkpoint at the end of the sequence so
    far and each live mutant's own, None while that is the original's.
    :meth:`trial` runs a candidate chunk from there (one probed pass of
    the original, then each live mutant's screened cycles, see
    :meth:`MutationEngine._walk`) without moving anything;
    :meth:`commit` appends a tried chunk from its end states, so
    nothing is simulated twice.  On the interpreter every live mutant
    keeps its own checkpoint and runs every cycle.
    """

    def __init__(self, engine: MutationEngine, mutants: list[Mutant]):
        self._engine = engine
        slots = engine.cover(mutants)
        self._screened = engine._schema is not None
        self._slots = dict(zip((m.mid for m in mutants), slots))
        self._prober = engine._prober(frozenset(slots))
        reset = engine._pass([], prober=self._prober)
        self._checkpoint = reset.states[0]
        screen = reset if self._screened else None
        #: Mutants killed by their reset sequence.
        self.killed: set[int] = set()
        self.live: dict[int, Mutant] = {}
        self._states: dict[int, tuple | None] = {}
        self._benches: dict[int, Testbench] = {}
        for mutant in mutants:
            try:
                state = engine._reset_state(
                    mutant, self._slots.get(mutant.mid), screen
                )
            except (MutantRuntimeError, OscillationError):
                self.killed.add(mutant.mid)
                continue
            self.live[mutant.mid] = mutant
            self._states[mutant.mid] = state

    def _bench(self, mid: int) -> Testbench:
        bench = self._benches.get(mid)
        if bench is None:
            bench = self._benches[mid] = self._engine.testbench(
                self.live[mid]
            )
        return bench

    def trial(self, decoded: list[dict]) -> ChunkTrial:
        """Run the live mutants through the chunk ``decoded``: which it
        kills, and where it leaves the others."""
        engine = self._engine
        probe = engine._pass(decoded, self._checkpoint, self._prober)
        screen = probe if self._screened else None
        outputs = probe.outputs
        tally = _Tally()
        kills: set[int] = set()
        ends: dict[int, tuple | None] = {}
        for mid in self.live:
            state = self._states[mid]
            pending = probe.masks.get(self._slots.get(mid), 0)
            try:
                for cycle, outs, after in engine._walk(
                    functools.partial(self._bench, mid), decoded, screen,
                    state, pending, tally,
                ):
                    if outs != outputs[cycle]:
                        kills.add(mid)
                        break
                    state = after
                else:
                    ends[mid] = state
            except (MutantRuntimeError, OscillationError):
                kills.add(mid)
        tally.record()
        return ChunkTrial(kills, ends, probe.states[-1])

    def commit(self, trial: ChunkTrial) -> None:
        """Append a chunk :meth:`trial` ran from the current state."""
        self._checkpoint = trial.checkpoint
        for mid in trial.kills:
            del self.live[mid], self._states[mid]
            self._benches.pop(mid, None)
        self._states.update(trial.ends)
        if trial.kills and self._screened:
            self._prober = self._engine._prober(frozenset(
                self._slots[mid] for mid in self.live
            ))


class _CombSweep(_Tally):
    """Mutants against one vector list on the comb fast path.

    Process variables carry from one vector to the next, as across
    process activations.  With a probe (the compiled backend) the sweep
    is screened: a mutant whose variables equal the original's entering
    vector ``k`` and whose slot the probe did not infect on ``k`` takes
    the original's path there, writing the original's outputs and
    variables, so it skips ``k``.  Otherwise it runs ``k``, and it goes
    back to skipping once its variables equal the original's after a
    vector.  The interpreter (no probe) runs every pair.
    """

    def __init__(self, process, names: list[str], rows: list[dict],
                 reference: list[tuple], probe: _Probe | None,
                 mismatch: int | None):
        super().__init__()
        self._process = process
        self._names = names
        self._rows = rows
        self._reference = reference
        self._probe = probe
        self._mismatch = mismatch

    def diffs(self, executor, slot: int):
        """Yield ``(index, error)`` for every vector on which the mutant
        (``executor``, schema ``slot``) differs from the reference: its
        outputs differ (``error`` None) or its execution raised."""
        process, names, rows = self._process, self._names, self._rows
        reference, probe = self._reference, self._probe
        count = len(rows)
        if probe is None:
            variables, pending = _initial_variables(process), 0
        else:
            variables = None  # None: equal to the original's
            pending = probe.masks.get(slot, 0) | self._mismatch
        index = 0
        while index < count:
            if variables is None:
                ahead = pending >> index
                skip = (ahead & -ahead).bit_length() - 1 if ahead else (
                    count - index
                )
                self.skipped += skip
                index += skip
                if index == count:
                    return
                variables = dict(probe.states[index])
            self.runs += 1
            try:
                error = None
                differs = _comb_step(process, names, executor, rows[index],
                                     variables) != reference[index]
            except (MutantRuntimeError, OscillationError) as caught:
                error, differs = caught, True
            if differs:
                yield index, error
            index += 1
            if probe is not None and _same_state(variables,
                                                 probe.states[index]):
                variables = None
