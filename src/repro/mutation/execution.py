"""Mutant execution against stimuli: kills, matrices, survivors.

Strong mutation: a mutant is killed by a stimulus sequence when any
sampled output differs from the original at any cycle, or when its
execution raises a run-time error / fails to settle (observably
different behaviour).  Sequences always start from reset.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MutantRuntimeError, OscillationError
from repro.hdl.design import Design
from repro.mutation.mutant import Mutant
from repro.sim.compiler import MutantSchema
from repro.sim.interp import Evaluator
from repro.sim.testbench import StimulusEncoder, Testbench


def _comb_outputs(design: Design, executor):
    """Fast path for one-process combinational designs.

    Such a process reads only input ports (the synthesizable-comb
    discipline), so one execution per vector replaces the delta-cycle
    scheduler.  Returns ``outputs(values)`` for a full signal map;
    variables persist across vectors, as across process activations.
    """
    process = design.processes[0]
    variables = {var.name: var.init for var in process.variables}
    names = [port.name for port in design.output_ports]
    events: frozenset[str] = frozenset()

    def outputs(values: dict[str, object]) -> tuple:
        scheduled: dict[str, object] = {}
        executor(process, values, variables, scheduled, events)
        return tuple([
            scheduled[name] if name in scheduled else values[name]
            for name in names
        ])

    return outputs


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

    @property
    def design(self) -> Design:
        return self._design

    @property
    def encoder(self) -> StimulusEncoder:
        return self._encoder

    def decode_all(self, stimuli: list[int]) -> list[dict[str, object]]:
        return [self._encoder.decode(packed) for packed in stimuli]

    def cover(self, mutants: list[Mutant]) -> None:
        """Add ``mutants`` to the schema, compiled at the next execution
        (sweeps cover first: one compile per population, not mutant)."""
        if self._schema is not None:
            self._schema.cover(mutant.patch() for mutant in mutants)

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
            outputs = _comb_outputs(self._design, self.executor())
            return [outputs(values) for values in rows]
        return self.testbench().run_sequence(decoded)

    def _fresh_bench(self, mutant: Mutant | None) -> tuple[Testbench, tuple]:
        """A reset bench plus its pristine state checkpoint.

        Combinational vectors are independent by definition, but a
        mutant may read an internal signal and thereby smuggle state
        from one evaluation into the next when a bench is reused;
        restoring the pristine checkpoint before every vector keeps the
        per-vector semantics the fast path has (fresh evaluation), at a
        state-copy rather than bench-construction price.
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

        Sequential stimuli are one reset-started sequence; for
        combinational designs every vector is evaluated from fresh
        state.
        """
        if reference is None:
            reference = self.reference_outputs(stimuli)
        decoded, rows = self._stimuli(stimuli)
        try:
            if self._fast:
                outputs = _comb_outputs(self._design, self.executor(mutant))
                for cycle, values in enumerate(rows):
                    if outputs(values) != reference[cycle]:
                        return KillRecord(
                            mutant.mid, True, cycle, "output-diff"
                        )
                return KillRecord(mutant.mid, False, None, "survived")
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
        checkpoint before each vector, matching :meth:`run_mutant`.
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

        Every vector is independent (no state), so the whole matrix
        comes from one pass per mutant over the candidate list.
        """
        self.cover(mutants)
        if reference is None:
            reference = self.reference_outputs(vectors)
        decoded, rows = self._stimuli(vectors)
        matrix: dict[int, set[int]] = {}
        if self._fast:
            for mutant in mutants:
                kills: set[int] = set()
                outputs = _comb_outputs(self._design, self.executor(mutant))
                for index, values in enumerate(rows):
                    try:
                        if outputs(values) != reference[index]:
                            kills.add(index)
                    except (MutantRuntimeError, OscillationError):
                        kills.add(index)
                matrix[mutant.mid] = kills
            return matrix
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
