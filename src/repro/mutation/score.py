"""Mutation score and budgeted equivalent-mutant analysis.

The paper's score: ``MS(P, TS) = K / (M - E)`` with M generated, K
killed and E equivalent mutants.  Equivalence being undecidable, E is
estimated with a fixed budget: a mutant no stimulus in an exhaustive
(small combinational input spaces) or seeded-random campaign kills is
classified *probably equivalent*.  The classification is deterministic
given (seed, budget) and is reported alongside every score.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.hdl.design import Design
from repro.mutation.execution import MutationEngine
from repro.mutation.mutant import Mutant
from repro.util.rng import rng_stream


def mutation_score(total: int, killed: int, equivalents: int) -> float:
    """``K / (M - E)``, safely handling empty denominators."""
    alive_base = total - equivalents
    if alive_base <= 0:
        return 1.0
    return killed / alive_base


@dataclass
class MutationScore:
    """A mutation-score measurement over a mutant population."""

    total: int
    killed: int
    equivalents: int

    @property
    def score(self) -> float:
        return mutation_score(self.total, self.killed, self.equivalents)

    @property
    def percent(self) -> float:
        return 100.0 * self.score


@dataclass
class EquivalenceAnalysis:
    """Result of the budgeted equivalence campaign."""

    equivalent_mids: set[int]
    budget: int
    seed: int
    exhaustive: bool
    kill_cycle: dict[int, int | None] = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.equivalent_mids)


#: Input widths up to this bound are enumerated exhaustively.
_EXHAUSTIVE_WIDTH = 10
#: Sequential circuits repeat the exhaustive set this many times in a
#: random order, so state-dependent kills get several chances.
_SEQ_EXHAUSTIVE_ROUNDS = 4


def equivalence_stimuli(
    design: Design, budget: int, seed: int
) -> tuple[list[int], bool]:
    """The stimulus set used to classify equivalence.

    Returns (packed stimuli, exhaustive?).
    """
    from repro.sim.testbench import StimulusEncoder

    width = StimulusEncoder(design).width
    rng = rng_stream(seed, design.name, "equivalence")
    if width <= _EXHAUSTIVE_WIDTH:
        space = list(range(1 << width))
        if design.is_sequential:
            # Sequential kills depend on state trajectories, not single
            # vectors: cover the per-cycle space repeatedly (shuffled)
            # until the full cycle budget is spent.  Not exhaustive in
            # the sequence sense, so it is not flagged as such.
            rounds = max(
                _SEQ_EXHAUSTIVE_ROUNDS, -(-budget // len(space))
            )
            stimuli: list[int] = []
            for _ in range(rounds):
                rng.shuffle(space)
                stimuli.extend(space)
            return stimuli[:max(budget, len(space))], False
        return space, True
    return [rng.getrandbits(width) for _ in range(budget)], False


def estimate_equivalents(
    design: Design,
    mutants: list[Mutant],
    budget: int = 512,
    seed: int = 20050307,
    engine: MutationEngine | None = None,
) -> EquivalenceAnalysis:
    """Classify mutants that the budgeted campaign never kills.

    Pass the caller's ``engine`` to share its compiled mutant schema.
    """
    stimuli, exhaustive = equivalence_stimuli(design, budget, seed)
    engine = engine or MutationEngine(design)
    engine.cover(mutants)
    reference = engine.reference_outputs(stimuli)
    survivors: set[int] = set()
    kill_cycle: dict[int, int | None] = {}
    for mutant in mutants:
        record = engine.run_mutant(mutant, stimuli, reference)
        kill_cycle[mutant.mid] = record.cycle
        if not record.killed:
            survivors.add(mutant.mid)
    return EquivalenceAnalysis(
        equivalent_mids=survivors,
        budget=len(stimuli),
        seed=seed,
        exhaustive=exhaustive,
        kill_cycle=kill_cycle,
    )
