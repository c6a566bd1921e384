"""Mutant execution against stimuli: kills, matrices, survivors.

Strong mutation: a mutant is killed by a stimulus sequence when any
sampled output differs from the original at any cycle, or when its
execution raises a run-time error / fails to settle (observably
different behaviour).  Sequences always start from reset.

Every execution is a walk of a *machine* over a stimulus list (see
:func:`_walk`): ``reset``, ``step`` one vector or cycle and read its
outputs, save (``state``) and restore (``load``) its state, and tell
whether it is in a given state of the original's (``same``: equal by
class and value).  Three machines cover the designs:

* :class:`_CombMachine`, the comb fast path (one process reading input
  ports only): the process variables, carried from one vector to the
  next as across process activations;
* :class:`_BenchMachine`, a sequential design's :class:`Testbench`
  and its checkpoints;
* :class:`_PristineMachine`, a :class:`Testbench` that starts every
  vector from its post-reset checkpoint: other combinational designs,
  and survivor triage on every combinational design.

On the compiled backend a weak-mutation screen picks the (mutant,
vector) and (mutant, cycle) pairs that need running; it never changes
a result.  One probed pass of the original per stimulus list records
the slots each step infects, the original's state entering each one
and its outputs.  A mutant in the original's state whose slot is not
infected takes the original's path, so it skips that step.  The
pristine machine is never screened, and neither is the interpreter
(``backend="interp"``): it is the oracle the screen is tested against.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import NamedTuple

from repro.errors import MutantRuntimeError, OscillationError
from repro.hdl.design import Design
from repro.mutation.mutant import Mutant
from repro.obs import metrics as _metrics
from repro.sim.compiler import MutantSchema
from repro.sim.interp import Evaluator
from repro.sim.testbench import StimulusEncoder, Testbench


_NO_EVENTS: frozenset[str] = frozenset()


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


class _CombMachine:
    """A one-process combinational design on the comb fast path.

    Such a process reads only input ports (the synthesizable-comb
    discipline), so one execution per vector replaces the delta-cycle
    scheduler; a step takes a full signal map.  The state is the
    process's variable map, carried over from one vector to the next,
    as across process activations.  ``same`` compares the live map, so
    a step copies nothing.
    """

    screened = True

    def __init__(self, engine: MutationEngine, executor):
        self._process = engine._design.processes[0]
        self._names = engine._names
        self._executor = executor
        self._variables: dict = {}

    def reset(self) -> None:
        self._variables = {
            var.name: var.init for var in self._process.variables
        }

    def step(self, values: dict) -> tuple:
        scheduled: dict[str, object] = {}
        self._executor(self._process, values, self._variables, scheduled,
                       _NO_EVENTS)
        return tuple([
            scheduled[name] if name in scheduled else values[name]
            for name in self._names
        ])

    def state(self) -> dict:
        return dict(self._variables)

    def load(self, state: dict) -> None:
        self._variables = dict(state)

    def same(self, state: dict) -> bool:
        return _same_state(self._variables, state)


class _BenchMachine:
    """A sequential design's :class:`Testbench`; a state is its
    ``save_state`` checkpoint.  The bench is built on the first reset
    or load, so a mutant that never leaves the original's path never
    builds one.  One checkpoint per step serves ``state`` and ``same``.
    """

    screened = True

    def __init__(self, engine: MutationEngine, executor):
        self._engine = engine
        self._executor = executor
        self._bench: Testbench | None = None
        self._saved: tuple | None = None  # the checkpoint of now

    def _built(self) -> Testbench:
        if self._bench is None:
            self._bench = Testbench(self._engine._design,
                                    max_delta=self._engine._max_delta,
                                    executor=self._executor)
        return self._bench

    def reset(self) -> None:
        self._saved = None
        self._built().reset()

    def step(self, stimulus: dict) -> tuple:
        self._saved = None
        return self._bench.step(stimulus)

    def state(self) -> tuple:
        if self._saved is None:
            self._saved = self._bench.save_state()
        return self._saved

    def load(self, state: tuple) -> None:
        self._built().restore_state(state)
        self._saved = state

    def same(self, state: tuple) -> bool:
        return _same_machine(self.state(), state)


class _PristineMachine(_BenchMachine):
    """A combinational :class:`Testbench` that runs every step from its
    post-reset checkpoint, so no vector sees state another one left.

    It runs the combinational designs the comb fast path cannot
    (several processes, or a process reading an internal signal), and
    survivor triage on every combinational design.  Never screened:
    each step restarts from the pristine state, not from the one
    ``load`` put it in.
    """

    screened = False

    def reset(self) -> None:
        super().reset()
        self._pristine = self.state()

    def step(self, stimulus: dict) -> tuple:
        self._bench.restore_state(self._pristine)
        return super().step(stimulus)


@dataclass(frozen=True)
class _Probe:
    """The original's pass over a stimulus list, with infection masks.

    ``states[k]`` is the machine's state entering step ``k`` (process
    variables on the comb fast path, a bench checkpoint otherwise), and
    ``reset`` holds the slots the reset sequence infected (none from a
    checkpoint).  An unprobed pass leaves the masks empty.
    """

    masks: dict[int, int]      # slot -> bit k set when infected on step k
    states: list               # state entering step k (one more: after)
    outputs: list[tuple]       # the original's outputs per step
    reset: frozenset[int] = frozenset()

    @functools.cached_property
    def trace(self) -> list[tuple]:
        """The observable state after each step (bench machines)."""
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


def _reset_state(machine, slot: int | None, probe: _Probe | None):
    """``machine``'s state after its reset sequence.

    Screened (a ``probe`` from reset), None when it is the original's:
    its reset was not infected, or it came back to the original's
    state.  Raises the reset's errors.
    """
    if probe is not None and slot not in probe.reset:
        return None
    machine.reset()
    if probe is not None and machine.same(probe.states[0]):
        return None
    return machine.state()


def _walk(machine, rows: list, expected: list, probe: _Probe | None,
          state, pending: int, tally: _Tally, traced: bool = False):
    """Yield ``(index, error)`` for each step of ``rows`` on which the
    mutant's ``machine`` differs from ``expected[index]``: its outputs
    (with ``traced``, its observable state after the step) differ, or
    the step raised ``error``.  Return whether it ended on the
    original's path.

    Unscreened (``probe`` None) the machine runs every step from
    ``state``.  Screened, ``state`` None puts the mutant on the
    original's path: in ``probe.states[k]`` entering step ``k``.  On
    the path it runs only the steps in the ``pending`` mask, from the
    probe's state; on any other it would take the original's path, so
    its outputs and next state are the probe's.  Off the path
    (``state`` its own) it runs every step, and it rejoins the path
    when its state after a step is the probe's (``machine.same``).  A
    step that raised leaves the machine where it stopped, and the walk
    goes on from there if the caller asks for more.
    """
    count = len(rows)
    states = None if probe is None else probe.states
    on = state is None  # on the original's path
    if not on:
        machine.load(state)
    index = 0
    while index < count:
        if on:
            ahead = pending >> index
            skip = (ahead & -ahead).bit_length() - 1 if ahead else (
                count - index
            )
            tally.skipped += skip
            index += skip
            if index == count:
                return True
            machine.load(states[index])
        tally.runs += 1
        error = seen = None
        try:
            seen = machine.step(rows[index])
            if traced:
                seen = _observable(machine.state())
        except (MutantRuntimeError, OscillationError) as caught:
            error = caught
        if error is not None or seen != expected[index]:
            yield index, error
        index += 1
        on = states is not None and machine.same(states[index])
    return on


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


def _first_kill(mid: int, walk) -> KillRecord:
    """The kill record of the first step a walk yields: a step that
    raised, or a reset that raised, kills with no cycle."""
    index, error = next(walk, (None, None))
    if isinstance(error, MutantRuntimeError):
        return KillRecord(mid, True, None, "runtime")
    if isinstance(error, OscillationError):
        return KillRecord(mid, True, None, "oscillation")
    if index is None:
        return KillRecord(mid, False, None, "survived")
    return KillRecord(mid, True, index, "output-diff")


class _Sweep(NamedTuple):
    """What every mutant's walk over one stimulus list shares."""

    kind: type                 # the machine class
    rows: list                 # its step inputs
    probe: _Probe | None       # the screen (None: unscreened)
    expected: list             # outputs (or states) to compare with
    mismatch: int              # steps where ``expected`` is not the probe's
    traced: bool               # compare states after each step


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
        self._names = [port.name for port in design.output_ports]
        #: The machine of kill analysis, and that of survivor triage.
        self._kind = self._trace_kind = (
            _BenchMachine if design.is_sequential else _PristineMachine
        )
        if _can_fast_path(design):
            self._kind = _CombMachine
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

    def _rows(self, stimuli: list[int], kind: type) -> list:
        """``kind``'s step inputs for ``stimuli``: full signal maps on
        the comb fast path, decoded stimuli otherwise.  Memoized for the
        last list: sweeps run every mutant against the same one."""
        key = tuple(stimuli)
        memo = self._memo
        if memo is None or memo[0] != key:
            decoded = self.decode_all(stimuli)
            rows = decoded
            if self._kind is _CombMachine:
                rows = [{**self._defaults, **stim} for stim in decoded]
            memo = self._memo = (key, decoded, rows)
        return memo[2] if kind is _CombMachine else memo[1]

    def _pass(self, rows: list, start: tuple | None = None, prober=None,
              kind: type | None = None) -> _Probe:
        """The original's pass over ``rows`` on a ``kind`` machine (the
        engine's by default).

        It starts from reset (``start`` None) or from the checkpoint
        ``start``.  With a schema ``prober`` every activation of the
        pass is probed: the reset sequence's go to ``reset``, and each
        step's (on a bench, both clock edges and any delta settle) to
        its bit of ``masks``.  Without one the masks stay empty.
        """
        m = _metrics.active()
        started = time.monotonic() if m.enabled else 0.0
        infected: set[int] = set()
        executor = self.executor() if prober is None else (
            functools.partial(prober, infected=infected)
        )
        machine = (kind or self._kind)(self, executor)
        if start is None:
            machine.reset()
        else:
            machine.load(start)
        reset = frozenset(infected)
        states = [machine.state()]
        outputs = []
        masks: dict[int, int] = {}
        for index, row in enumerate(rows):
            infected.clear()
            outputs.append(machine.step(row))
            states.append(machine.state())
            bit = 1 << index
            for slot in infected:
                masks[slot] = masks.get(slot, 0) | bit
        if m.enabled and prober is not None:
            _record_probe(m, len(rows), started)
        return _Probe(masks, states, outputs, reset)

    def _probe(self, stimuli: list[int], slots: frozenset[int]) -> _Probe:
        """The original's probed pass over ``stimuli`` (compiled
        backend), memoized for the last list: a ``run_mutant`` loop
        over one list probes once."""
        key = tuple(stimuli)
        memo = self._probe_memo
        if memo is not None and memo[0] == key and slots <= memo[1]:
            return memo[2]
        result = self._pass(self._rows(stimuli, self._kind),
                            prober=self._schema.prober(slots))
        self._probe_memo = (key, slots, result)
        return result

    def _prober(self, slots: frozenset[int]):
        """A schema probe over ``slots`` (None on the interpreter)."""
        return None if self._schema is None else self._schema.prober(slots)

    def _reference(self, stimuli: list[int], kind: type) -> _Probe:
        """The original's pass over ``stimuli`` on a ``kind`` machine.

        A sequential design's compiled backend takes the probe over the
        covered population, which its sweeps then share; elsewhere an
        unprobed pass is cheaper than a probe that a later sweep over
        other slots would redo.
        """
        if self._schema is not None and self._design.is_sequential:
            return self._probe(stimuli, self._population)
        return self._pass(self._rows(stimuli, kind), kind=kind)

    def reference_outputs(self, stimuli: list[int]) -> list[tuple]:
        """Original-design responses (no patch), from the original's
        walk on the engine's machine: on the comb bench path each
        vector starts from the pristine state, as every mutant's does.
        """
        return list(self._reference(stimuli, self._kind).outputs)

    def _probe_slots(self, mutant: Mutant) -> tuple[int | None,
                                                     frozenset[int]]:
        """``mutant``'s slot and the slots to probe for it: the last
        covered population, or every covered slot when it is not in it
        (None and the population on the interpreter)."""
        if self._schema is None:
            return None, self._population
        slot, slots = self._schema.slot(mutant.patch()), self._population
        if slot not in slots:  # not covered by the last sweep
            slots = self._schema.covered()
        return slot, slots

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

    def _sweep(self, stimuli: list[int], theirs: list | None,
               slots: frozenset[int], traced: bool = False) -> _Sweep:
        """Walks over ``stimuli`` compared with the caller's list
        ``theirs``: reference outputs, or with ``traced`` a state trace
        on the triage machine (None: the original's).  A screened
        machine probes ``slots``; besides the steps that infect a
        mutant's slot, the mutant runs those where ``theirs`` is not
        the probe's, even on the original's path."""
        kind = self._trace_kind if traced else self._kind
        probe, mismatch = None, 0
        if self._schema is not None and kind.screened:
            probe = self._probe(stimuli, slots)
            mine = probe.trace if traced else probe.outputs
            theirs = mine if theirs is None else theirs
            mismatch = self._disagreement(mine, theirs)
        elif theirs is None:
            reference = self._reference(stimuli, kind)
            theirs = reference.trace if traced else reference.outputs
        return _Sweep(kind, self._rows(stimuli, kind), probe, theirs,
                      mismatch, traced)

    def _from_reset(self, mutant: Mutant, slot: int | None, sweep: _Sweep,
                    tally: _Tally):
        """``mutant``'s :func:`_walk` from reset over ``sweep``, or, when
        its reset raises, the one difference ``(None, error)``."""
        machine = sweep.kind(self, self.executor(mutant))
        probe = sweep.probe
        try:
            state = _reset_state(machine, slot, probe)
        except (MutantRuntimeError, OscillationError) as caught:
            return iter([(None, caught)])
        pending = 0 if probe is None else (
            probe.masks.get(slot, 0) | sweep.mismatch
        )
        return _walk(machine, sweep.rows, sweep.expected, probe, state,
                     pending, tally, sweep.traced)

    def run_mutant(
        self,
        mutant: Mutant,
        stimuli: list[int],
        reference: list[tuple] | None = None,
    ) -> KillRecord:
        """Run one mutant, stopping at the first observable difference.

        Sequential stimuli are one reset-started sequence.  On the comb
        fast path process variables carry from one vector to the next;
        other combinational designs evaluate every vector from the
        pristine state.  The compiled backend screens the run (see
        :func:`_walk`) except on that pristine bench path.
        """
        slot, slots = self._probe_slots(mutant)
        tally = _Tally()
        record = _first_kill(mutant.mid, self._from_reset(
            mutant, slot, self._sweep(stimuli, reference, slots), tally
        ))
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
        return list(self._reference(stimuli, self._trace_kind).trace)

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
        observed output; a run that raises, its reset's included,
        was activated too.  The third category,
        :data:`POSSIBLY_EQUIVALENT`, is assigned by the caller from the
        equivalence analysis before ever running this sweep.  On a
        sequential design the compiled backend screens the steps (see
        :func:`_walk`): a skipped cycle leaves the mutant in the
        original's state.
        """
        slot, slots = self._probe_slots(mutant)
        tally = _Tally()
        record = _first_kill(mutant.mid, self._from_reset(
            mutant, slot, self._sweep(stimuli, trace, slots, traced=True),
            tally,
        ))
        tally.record()
        return PROPAGATION_BLOCKED if record.killed else NEVER_ACTIVATED

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

        The whole matrix comes from one walk per mutant over the
        candidate list.  On the comb fast path process variables carry
        from one vector to the next, even past a vector whose run
        raised, and the walk is screened (see :func:`_walk`); the bench
        path evaluates every vector from the pristine state.
        """
        slots = self.cover(mutants)
        sweep = self._sweep(vectors, reference, frozenset(slots))
        tally = _Tally()
        matrix: dict[int, set[int]] = {}
        for mutant, slot in zip(mutants, slots or [None] * len(mutants)):
            kills = {index for index, _ in
                     self._from_reset(mutant, slot, sweep, tally)}
            if None in kills:
                # Its reset itself misbehaves: observably different on
                # every vector.
                kills = set(range(len(vectors)))
            matrix[mutant.mid] = kills
        tally.record()
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
    :func:`_walk`) without moving anything; :meth:`commit` appends a
    tried chunk from its end states, so nothing is simulated twice.  On
    the interpreter every live mutant keeps its own checkpoint and runs
    every cycle.
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
        self._machines: dict[int, _BenchMachine] = {}
        for mutant in mutants:
            machine = engine._kind(engine, engine.executor(mutant))
            try:
                state = _reset_state(
                    machine, self._slots.get(mutant.mid), screen
                )
            except (MutantRuntimeError, OscillationError):
                self.killed.add(mutant.mid)
                continue
            self.live[mutant.mid] = mutant
            self._states[mutant.mid] = state
            self._machines[mutant.mid] = machine

    def trial(self, decoded: list[dict]) -> ChunkTrial:
        """Run the live mutants through the chunk ``decoded``: which it
        kills, and where it leaves the others."""
        probe = self._engine._pass(decoded, self._checkpoint, self._prober)
        screen = probe if self._screened else None
        tally = _Tally()
        kills: set[int] = set()
        ends: dict[int, tuple | None] = {}
        for mid, machine in self._machines.items():
            walk = _walk(machine, decoded, probe.outputs, screen,
                         self._states[mid],
                         probe.masks.get(self._slots.get(mid), 0), tally)
            try:
                next(walk)
                kills.add(mid)
            except StopIteration as done:
                ends[mid] = None if done.value else machine.state()
        tally.record()
        return ChunkTrial(kills, ends, probe.states[-1])

    def commit(self, trial: ChunkTrial) -> None:
        """Append a chunk :meth:`trial` ran from the current state."""
        self._checkpoint = trial.checkpoint
        for mid in trial.kills:
            del self.live[mid], self._states[mid], self._machines[mid]
        self._states.update(trial.ends)
        if trial.kills and self._screened:
            self._prober = self._engine._prober(frozenset(
                self._slots[mid] for mid in self.live
            ))
