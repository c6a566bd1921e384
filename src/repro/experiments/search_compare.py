"""Search-strategy comparison: kills per candidate at equal budget.

For each circuit every registered (or requested) :mod:`repro.search`
strategy runs the mutation-adequate generator against the same mutant
population, the same candidate budget and the same labelled seed; the
rows quantify kills-per-candidate versus the blind ``random`` baseline.
Fitness is evaluated through the lab's :class:`MutationEngine`, so the
compiled backend's speed directly buys search depth.

Caveat worth knowing when reading sequential rows: the generator grows
one greedy reset-started sequence, so on small sequential benches
(b01's two-bit stimulus) the committed prefix dominates — every
strategy converges to the same plateau once the remaining mutants'
machines have synchronized with the reference.  The combinational rows
are where corpus guidance buys the most.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.campaign.config import CampaignConfig
from repro.experiments.context import get_lab
from repro.search import search_strategy_names
from repro.testgen.mutation_gen import MutationTestGenerator

#: The default evaluation pair: one ISCAS-85 combinational circuit and
#: one ITC'99 sequential bench (the paper's two families).
DEFAULT_SEARCH_CIRCUITS = ("c432", "b01")

#: Generator seed of the shipped comparison (and BENCH_search.json).
DEFAULT_SEARCH_SEED = 5


@dataclass
class SearchCompareRow:
    """One (circuit, strategy) evaluation at a fixed candidate budget."""

    circuit: str
    strategy: str
    budget: int
    candidates: int            #: candidates actually proposed
    vectors: int               #: mutation-adequate vectors selected
    killed: int
    targets: int
    seconds: float

    @property
    def kill_pct(self) -> float:
        if self.targets == 0:
            return 100.0
        return 100.0 * self.killed / self.targets

    @property
    def kills_per_1k(self) -> float:
        """Kills per 1000 proposed candidates (the efficiency metric)."""
        if self.candidates == 0:
            return 0.0
        return 1000.0 * self.killed / self.candidates


def run_search_compare(
    circuits: tuple[str, ...] = DEFAULT_SEARCH_CIRCUITS,
    strategies: tuple[str, ...] | None = None,
    budget: int = 512,
    config: CampaignConfig | None = None,
) -> list[SearchCompareRow]:
    """Run every strategy on every circuit at an equal candidate budget.

    The generator reads ``config`` (default: the shipped comparison,
    ``DEFAULT_SEARCH_SEED`` and 128 vectors) with its ``search`` block
    set to the swept strategy and ``budget``.  ``search_knobs`` are
    dropped: they are one strategy's constructor knobs.
    """
    config = config or CampaignConfig(
        testgen_seed=DEFAULT_SEARCH_SEED, max_vectors=128
    )
    names = tuple(strategies) if strategies else search_strategy_names()
    rows: list[SearchCompareRow] = []
    for circuit in circuits:
        lab = get_lab(circuit, config)
        mutants = lab.all_mutants
        for name in names:
            generator = MutationTestGenerator.from_config(
                lab.design,
                config.replace(
                    search=name, search_budget=budget, search_knobs=None
                ),
                lab.engine,
            )
            started = time.monotonic()
            result = generator.generate(mutants)
            rows.append(
                SearchCompareRow(
                    circuit=circuit,
                    strategy=name,
                    budget=budget,
                    candidates=result.candidates_tried,
                    vectors=len(result.vectors),
                    killed=len(result.killed_mids),
                    targets=result.total_targets,
                    seconds=time.monotonic() - started,
                )
            )
    return rows
