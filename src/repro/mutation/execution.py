"""Mutant execution against stimuli: kills, matrices, survivors.

Strong mutation: a mutant is killed by a stimulus sequence when any
sampled output differs from the original at any cycle, or when its
execution raises a run-time error / fails to settle (observably
different behaviour).  Sequences always start from reset.  On the comb
fast path a weak-mutation screen (see :class:`_CombSweep`) picks the
(mutant, vector) pairs that need running; it never changes a result.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class _Probe:
    """The original's pass over a vector list, with infection masks."""

    slots: frozenset[int]      # the slots whose sites were probed
    masks: dict[int, int]      # slot -> bit k set when infected on vector k
    states: list[dict]         # variables entering vector k (one more: after)
    outputs: list[tuple]       # the original's outputs per vector


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


class MutationEngine:
    """Runs mutants of one design against packed stimulus sequences.

    ``backend="compiled"`` runs every mutant as a slot of the engine's
    :class:`~repro.sim.compiler.MutantSchema`; ``"interp"`` runs the
    reference interpreter.
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
        #: ``(stimuli, _Probe)`` of the last probed list (compiled only).
        self._probe_memo: tuple | None = None
        #: ``(probe, reference, mask)`` of the last caller reference.
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
        """Original-design responses (no patch)."""
        decoded, rows = self._stimuli(stimuli)
        if self._fast:
            process = self._design.processes[0]
            names = self._output_names()
            executor = self.executor()
            variables = _initial_variables(process)
            return [_comb_step(process, names, executor, values, variables)
                    for values in rows]
        return self.testbench().run_sequence(decoded)

    def _output_names(self) -> list[str]:
        return [port.name for port in self._design.output_ports]

    def _probe(self, stimuli: list[int], slots: frozenset[int]) -> _Probe:
        """The original's probed pass over ``stimuli`` (comb fast path,
        compiled backend), memoized for the last list: a ``run_mutant``
        loop over one list probes once."""
        key = tuple(stimuli)
        memo = self._probe_memo
        if memo is not None and memo[0] == key and slots <= memo[1].slots:
            return memo[1]
        _, rows = self._stimuli(stimuli)
        process = self._design.processes[0]
        names = self._output_names()
        probe = self._schema.prober(slots)
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
        result = _Probe(slots, masks, states, outputs)
        self._probe_memo = (key, result)
        return result

    def _disagreement(self, probe: _Probe, reference: list[tuple]) -> int:
        """Mask of the vectors where a caller's ``reference`` is not the
        original's output (never, from :meth:`reference_outputs`): a
        mutant has to run there even on the original's path."""
        if reference is probe.outputs:
            return 0
        cached = self._agreement
        if cached and cached[0] is probe and cached[1] is reference:
            return cached[2]
        mask = 0
        for index, (mine, theirs) in enumerate(zip(probe.outputs, reference)):
            if mine != theirs:
                mask |= 1 << index
        self._agreement = (probe, reference, mask)
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
            mismatch = self._disagreement(probe, reference)
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

    def run_mutant(
        self,
        mutant: Mutant,
        stimuli: list[int],
        reference: list[tuple] | None = None,
    ) -> KillRecord:
        """Run one mutant, stopping at the first observable difference.

        Sequential stimuli are one reset-started sequence.  On the comb
        fast path, process variables carry from one vector to the next
        (see :class:`_CombSweep`, which also screens the run); other
        combinational designs evaluate every vector from the pristine
        state.
        """
        if self._fast:
            slot, slots = 0, self._population
            if self._schema is not None:
                slot = self._schema.slot(mutant.patch())
                if slot not in slots:  # not covered by the last sweep
                    slots = self._schema.covered()
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
        if reference is None:
            reference = self.reference_outputs(stimuli)
        decoded, _ = self._stimuli(stimuli)
        try:
            bench, pristine = self._fresh_bench(mutant)
            sequential = self._design.is_sequential
            for cycle, stimulus in enumerate(decoded):
                if not sequential:
                    bench.restore_state(pristine)
                outputs = bench.step(stimulus)
                if outputs != reference[cycle]:
                    return KillRecord(mutant.mid, True, cycle, "output-diff")
        except MutantRuntimeError:
            return KillRecord(mutant.mid, True, None, "runtime")
        except OscillationError:
            return KillRecord(mutant.mid, True, None, "oscillation")
        return KillRecord(mutant.mid, False, None, "survived")

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

    @staticmethod
    def _observable_state(state: tuple) -> tuple:
        """The comparable slice of a ``save_state`` checkpoint.

        Signal values plus process variables; the ``initialized`` flag
        is bench bookkeeping, identical on both machines by
        construction.
        """
        values, variables, _initialized = state
        return values, variables

    def reference_state_trace(self, stimuli: list[int]) -> list[tuple]:
        """Per-cycle internal-state checkpoints of the original design.

        Computed once per stimulus set and shared across every
        survivor's triage; combinational designs restore the pristine
        checkpoint before each vector, as the bench path of
        :meth:`run_mutant` does (the comb fast path carries variables).
        """
        decoded, _ = self._stimuli(stimuli)
        bench, pristine = self._fresh_bench(None)
        sequential = self._design.is_sequential
        trace: list[tuple] = []
        for stimulus in decoded:
            if not sequential:
                bench.restore_state(pristine)
            bench.step(stimulus)
            trace.append(self._observable_state(bench.save_state()))
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
        equivalence analysis before ever running this sweep.
        """
        if trace is None:
            trace = self.reference_state_trace(stimuli)
        decoded, _ = self._stimuli(stimuli)
        try:
            bench, pristine = self._fresh_bench(mutant)
        except (MutantRuntimeError, OscillationError):
            # Initialization itself misbehaves — internal activation
            # without an output kill (or this would not be a survivor).
            return PROPAGATION_BLOCKED
        sequential = self._design.is_sequential
        for cycle, stimulus in enumerate(decoded):
            if not sequential:
                bench.restore_state(pristine)
            try:
                bench.step(stimulus)
            except (MutantRuntimeError, OscillationError):
                return PROPAGATION_BLOCKED
            state = self._observable_state(bench.save_state())
            if state != trace[cycle]:
                return PROPAGATION_BLOCKED
        return NEVER_ACTIVATED

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


class _CombSweep:
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
        self._process = process
        self._names = names
        self._rows = rows
        self._reference = reference
        self._probe = probe
        self._mismatch = mismatch
        self._runs = 0
        self._skipped = 0

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
                self._skipped += skip
                index += skip
                if index == count:
                    return
                variables = dict(probe.states[index])
            self._runs += 1
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

    def record(self) -> None:
        """Count the sweep's pairs and the runs the screen left."""
        m = _metrics.active()
        if m.enabled:
            m.counter("mutation.screen.pairs", self._runs + self._skipped)
            m.counter("mutation.screen.runs", self._runs)
