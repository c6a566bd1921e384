"""Mutation-adequate test data generation (the paper's validation data).

Candidate vectors come from a pluggable :mod:`repro.search` strategy
and are kept only when they kill live mutants ("selecting only input
data that are mutation adequate", section 2 of the paper).  The default
``random`` strategy reproduces the paper's blind pseudo-random draw
bit-for-bit; the coverage-guided strategies (``bitflip``, ``genetic``,
``anneal``) evolve new candidates from ones that already killed.

* Combinational designs: classic greedy set cover over candidate
  batches — each batch's kill sets are computed in one sweep, then the
  best vectors are taken until the batch stops contributing.  The
  per-vector kill counts are fed back to the strategy.
* Sequential designs: the test set is a single reset-started sequence,
  grown chunk by chunk; each round the strategy proposes several
  candidate chunks and the one killing the most live mutants is
  appended.  Every candidate chunk's kill count is fed back.  A
  :class:`~repro.mutation.execution.SequenceSweep` keeps the state
  checkpoints, so no chunk re-simulates the prefix: each candidate is
  one probed pass of the original from the round's checkpoint, after
  which a live mutant runs only the cycles where it is off the
  original's path or its site is infected (on the compiled backend;
  the interpreter runs them all).  Every survivor's state after the
  winning chunk is kept, so appending it simulates nothing again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdl.design import Design
from repro.mutation.execution import ChunkTrial, MutationEngine, SequenceSweep
from repro.mutation.mutant import Mutant
from repro.search import SearchBudget, SearchStrategy, build_search_strategy


@dataclass
class TestGenResult:
    """Outcome of a mutation-adequate generation run."""

    vectors: list[int]
    killed_mids: set[int]
    total_targets: int
    candidates_tried: int
    rounds: int = 0
    log: list[str] = field(default_factory=list)

    @property
    def length(self) -> int:
        return len(self.vectors)

    @property
    def kill_fraction(self) -> float:
        if self.total_targets == 0:
            return 1.0
        return len(self.killed_mids) / self.total_targets


class MutationTestGenerator:
    """Greedy mutation-adequate stimulus selection for one design."""

    def __init__(
        self,
        design: Design,
        seed: int = 1,
        engine: MutationEngine | None = None,
        batch_size: int = 64,
        chunk_length: int = 4,
        chunk_candidates: int = 6,
        stall_rounds: int = 4,
        max_vectors: int = 1024,
        strategy: str | SearchStrategy = "random",
        search_budget: SearchBudget | None = None,
        search_knobs: dict | None = None,
    ):
        self._design = design
        self._engine = engine or MutationEngine(design)
        self._seed = seed
        self._batch_size = batch_size
        self._chunk_length = chunk_length
        self._chunk_candidates = chunk_candidates
        self._stall_rounds = stall_rounds
        self._max_vectors = max_vectors
        self._strategy = strategy
        self._budget = search_budget or SearchBudget()
        self._search_knobs = search_knobs

    def _make_strategy(self, cycles: int = 1) -> SearchStrategy:
        """One fresh strategy per generation run.

        The stream labels match the pre-search random generator, so
        ``strategy="random"`` reproduces its vector sequence exactly.
        For sequential designs ``cycles = chunk_length`` makes the unit
        of search a whole multi-cycle chunk, so the guided strategies
        mutate input *sequences*, not single cycles.
        """
        encoder = self._engine.encoder
        if isinstance(self._strategy, SearchStrategy):
            expected = encoder.width * cycles
            # Wrapper subclasses that skip SearchStrategy.__init__ have
            # no width to check (the property raises AttributeError,
            # which getattr maps to None) — they opt out of this guard
            # and own their geometry.
            width = getattr(self._strategy, "width", None)
            if width is not None and width != expected:
                from repro.errors import SearchError

                raise SearchError(
                    f"supplied strategy proposes {width}-bit vectors but "
                    f"this design needs {expected} "
                    f"({encoder.width}-bit stimuli x {cycles} cycles); "
                    f"build it with cycles={cycles}"
                )
            return self._strategy
        return build_search_strategy(
            self._strategy,
            width=encoder.width,
            seed=self._seed,
            labels=(self._design.name, "mutation-testgen"),
            field_widths=encoder.field_widths,
            cycles=cycles,
            knobs=self._search_knobs,
        )

    def generate(self, mutants: list[Mutant]) -> TestGenResult:
        from repro.obs import metrics as _metrics

        if self._design.is_sequential:
            result = self._generate_sequential(mutants)
        else:
            result = self._generate_combinational(mutants)
        m = _metrics.active()
        if m.enabled:
            m.counter("search.generations")
            m.counter("search.candidates", result.candidates_tried)
            m.counter("search.rounds", result.rounds)
            m.counter("search.kills", len(result.killed_mids))
            m.gauge("search.corpus_size", len(result.vectors))
        return result

    # -- combinational ---------------------------------------------------------

    def _generate_combinational(self, mutants: list[Mutant]) -> TestGenResult:
        strategy = self._make_strategy()
        budget = self._budget
        live: dict[int, Mutant] = {m.mid: m for m in mutants}
        selected: list[int] = []
        killed: set[int] = set()
        tried = 0
        stall = 0
        rounds = 0
        while live and stall < self._stall_rounds and (
            len(selected) < self._max_vectors
        ) and not budget.exhausted(tried, stall):
            count = budget.clamp(self._batch_size, tried)
            if count < 1:
                break
            rounds += 1
            batch = strategy.propose(count)
            tried += len(batch)
            kill_sets = self._engine.comb_kill_sets(
                list(live.values()), batch
            )
            # Invert: vector index -> set of mids it kills.
            by_vector: dict[int, set[int]] = {}
            for mid, indexes in kill_sets.items():
                for index in indexes:
                    by_vector.setdefault(index, set()).add(mid)
            strategy.feedback(
                batch,
                [len(by_vector.get(i, ())) for i in range(len(batch))],
            )
            # Invariant: every kill set in by_vector is non-empty and
            # only contains live mids, so the winner's whole set is the
            # gain and the update is a subtraction — no per-iteration
            # reconstruction of the live-mid set.
            progress = False
            while by_vector and len(selected) < self._max_vectors:
                best_index = max(
                    by_vector, key=lambda i: (len(by_vector[i]), -i)
                )
                gained = by_vector.pop(best_index)
                selected.append(batch[best_index])
                killed.update(gained)
                for mid in gained:
                    live.pop(mid, None)
                progress = True
                by_vector = {
                    index: remaining
                    for index, mids in by_vector.items()
                    if (remaining := mids - gained)
                }
            stall = 0 if progress else stall + 1
        return TestGenResult(
            vectors=selected,
            killed_mids=killed,
            total_targets=len(mutants),
            candidates_tried=tried,
            rounds=rounds,
        )

    # -- sequential ---------------------------------------------------------------

    def _split_chunk(self, packed: int) -> list[int]:
        """Unpack a chunk proposal into per-cycle vectors (cycle 0 is
        in the most significant bits)."""
        width = self._engine.encoder.width
        mask = (1 << width) - 1
        length = self._chunk_length
        return [
            (packed >> (width * (length - 1 - cycle))) & mask
            for cycle in range(length)
        ]

    def _generate_sequential(self, mutants: list[Mutant]) -> TestGenResult:
        strategy = self._make_strategy(cycles=self._chunk_length)
        budget = self._budget
        decode = self._engine.encoder.decode
        sweep = SequenceSweep(self._engine, mutants)
        killed = set(sweep.killed)
        selected: list[int] = []
        tried = 0
        stall = 0
        rounds = 0
        while sweep.live and stall < self._stall_rounds and (
            len(selected) < self._max_vectors
        ) and not budget.exhausted(tried, stall):
            # Propose as many whole chunks as the candidate cap allows.
            n_chunks = min(
                self._chunk_candidates,
                budget.clamp(
                    self._chunk_candidates * self._chunk_length, tried
                ) // self._chunk_length,
            )
            if n_chunks < 1:
                break
            rounds += 1
            # Each chunk is decoded once and shared by every machine.
            candidates = []
            for proposal in strategy.propose(n_chunks):
                chunk = self._split_chunk(proposal)
                candidates.append((proposal, chunk, [decode(p) for p in chunk]))
            tried += self._chunk_length * n_chunks
            best: tuple[list[int], ChunkTrial] | None = None
            for proposal, chunk, stimuli in candidates:
                trial = sweep.trial(stimuli)
                strategy.feedback([proposal], [len(trial.kills)])
                if best is None or len(trial.kills) > len(best[1].kills):
                    best = (chunk, trial)
            assert best is not None
            chunk, trial = best
            if not trial.kills:
                stall += 1
                continue
            stall = 0
            # The winner's end states are kept: committing simulates
            # nothing again.
            sweep.commit(trial)
            selected.extend(chunk)
            killed.update(trial.kills)
        return TestGenResult(
            vectors=selected,
            killed_mids=killed,
            total_targets=len(mutants),
            candidates_tried=tried,
            rounds=rounds,
        )
