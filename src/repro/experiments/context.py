"""Shared per-circuit experiment state with caching.

Synthesis, fault collapsing, the random fault-coverage baseline, the
mutant population and the equivalence analysis are all deterministic
given (circuit, seed, budgets) — :func:`get_lab` memoizes them so Table
1, Table 2 and the ablations never recompute each other's inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.analyze.prune import split_untestable
from repro.circuits import get_circuit, load_circuit
from repro.engine import DEFAULT_ENGINE
from repro.fault.coverage import FaultSimResult
from repro.fault.models import DEFAULT_FAULT_MODEL, build_fault_model
from repro.hdl.design import Design
from repro.mutation.execution import MutationEngine
from repro.mutation.generator import generate_mutants
from repro.mutation.mutant import Mutant
from repro.mutation.score import EquivalenceAnalysis, estimate_equivalents
from repro.netlist.netlist import Netlist
from repro.sim.testbench import StimulusEncoder
from repro.synth import synthesize
from repro.testgen.random_gen import RandomVectorGenerator


@dataclass
class LabConfig:
    """Budgets and seeds shared by the experiments.

    This is the lab-level slice of the full campaign configuration; the
    pipeline derives one via :meth:`from_campaign` (see
    :class:`repro.campaign.CampaignConfig`, which callers should prefer
    as the single configuration object).  Its fields are the
    :func:`get_lab` memo key, so Table 1, Table 2 and the ablation
    variants — campaign configs that differ only outside this slice —
    share one lab.
    """

    seed: int = 20050301
    random_budget_comb: int = 2048
    random_budget_seq: int = 1024
    equivalence_budget: int = 256
    fault_lanes: int = 256
    engine: str = DEFAULT_ENGINE
    fault_model: str = DEFAULT_FAULT_MODEL
    fault_model_knobs: dict | None = None
    #: Skip simulating provably untestable faults (repro.analyze.prune).
    #: Payloads stay bit-identical: pruned faults are still reported,
    #: as undetected, in every result.
    prune_untestable: bool = False

    def random_budget(self, sequential: bool) -> int:
        return (
            self.random_budget_seq if sequential else self.random_budget_comb
        )

    @classmethod
    def from_campaign(cls, config) -> "LabConfig":
        """The lab slice of a :class:`repro.campaign.CampaignConfig`."""
        return cls(**{f.name: getattr(config, f.name) for f in fields(cls)})


class CircuitLab:
    """Everything the experiments need about one benchmark circuit."""

    def __init__(self, name: str, config: LabConfig | None = None):
        self.name = name
        self.info = get_circuit(name)
        self.config = config or LabConfig()
        self.design: Design = load_circuit(name)
        self.netlist: Netlist = synthesize(self.design)
        self.fault_model = build_fault_model(
            self.config.fault_model, self.config.fault_model_knobs
        )
        self.faults: list = self.fault_model.collapse(self.netlist)
        #: collapse order, minus provably untestable faults — the list
        #: actually simulated.  ``faults`` stays the full universe so
        #: coverage denominators and payloads are unchanged by pruning.
        self.sim_faults: list = self.faults
        #: [(pruned fault, reason)] in collapse order.
        self.pruned_faults: list[tuple[object, str]] = []
        if self.config.prune_untestable:
            self.sim_faults, self.pruned_faults = split_untestable(
                self.netlist, self.faults
            )
        self.encoder = StimulusEncoder(self.design)
        self.engine = MutationEngine(self.design)
        self._random_vectors: list[int] | None = None
        self._random_baseline: FaultSimResult | None = None
        self._mutants: list[Mutant] | None = None
        self._equivalence: EquivalenceAnalysis | None = None

    # -- random baseline -----------------------------------------------------

    @property
    def random_vectors(self) -> list[int]:
        """The pseudo-random baseline test set (fixed per lab)."""
        if self._random_vectors is None:
            budget = self.config.random_budget(self.design.is_sequential)
            gen = RandomVectorGenerator(
                self.encoder.width, self.config.seed, self.name,
                "random-baseline",
            )
            self._random_vectors = gen.vectors(budget)
        return self._random_vectors

    @property
    def random_baseline(self) -> FaultSimResult:
        """Fault-simulation of the random baseline (RFC curve)."""
        if self._random_baseline is None:
            self._random_baseline = self.fault_sim(self.random_vectors)
        return self._random_baseline

    def fault_sim(self, vectors: list[int]) -> FaultSimResult:
        result = self.fault_model.simulate(
            self.netlist, vectors, self.sim_faults, self.config.fault_lanes,
            engine=self.config.engine,
        )
        return self.expand_detection(result)

    def expand_detection(self, result: FaultSimResult) -> FaultSimResult:
        """Re-inflate a simulated-faults result to the full universe.

        Pruned faults re-enter at their collapse-order positions as
        undetected (``None``) — which is what simulating them would
        have produced, so payloads are bit-identical with pruning on
        or off.
        """
        if not self.pruned_faults:
            return result
        pruned = {id(fault) for fault, _ in self.pruned_faults}
        simulated = iter(result.detection)
        detection = [
            None if id(fault) in pruned else next(simulated)
            for fault in self.faults
        ]
        return FaultSimResult(
            list(self.faults), detection, result.num_patterns
        )

    @property
    def has_random_baseline(self) -> bool:
        """Whether the lazy baseline is already materialized."""
        return self._random_baseline is not None

    @property
    def has_equivalence(self) -> bool:
        """Whether the lazy equivalence analysis is already materialized."""
        return self._equivalence is not None

    def prime_random_baseline(self, result: FaultSimResult) -> None:
        """Seed the lazy baseline with an externally computed result.

        Used by the grid executor, whose sharded computation is
        bit-identical to the serial one by contract; a baseline that is
        already materialized wins (first computation sticks).
        """
        if self._random_baseline is None:
            self._random_baseline = result

    def prime_equivalence(self, analysis: "EquivalenceAnalysis") -> None:
        """Seed the lazy equivalence analysis (grid counterpart)."""
        if self._equivalence is None:
            self._equivalence = analysis

    # -- mutants ----------------------------------------------------------------

    @property
    def all_mutants(self) -> list[Mutant]:
        if self._mutants is None:
            self._mutants = generate_mutants(self.design)
            # Registers the population only: the schema compiles it on
            # the engine's first execution, once for every later subset.
            self.engine.cover(self._mutants)
        return self._mutants

    @property
    def equivalence(self) -> EquivalenceAnalysis:
        """Budgeted equivalent-mutant classification (cached)."""
        if self._equivalence is None:
            self._equivalence = estimate_equivalents(
                self.design,
                self.all_mutants,
                budget=self.config.equivalence_budget,
                seed=self.config.seed,
                engine=self.engine,
            )
        return self._equivalence


_LABS: dict[tuple, CircuitLab] = {}


def get_lab(name: str, config: LabConfig | None = None) -> CircuitLab:
    """Memoized :class:`CircuitLab` lookup."""
    config = config or LabConfig()
    # Knob dicts key as sorted item tuples, so equal knobs share a lab.
    key = (name,) + tuple(
        tuple(sorted(value.items())) if isinstance(value, dict) else value
        for value in (getattr(config, f.name) for f in fields(config))
    )
    if key not in _LABS:
        _LABS[key] = CircuitLab(name, config)
    return _LABS[key]


from repro.campaign.config import (  # noqa: E402  (single source of truth)
    DEFAULT_CIRCUITS,
    DEFAULT_OPERATORS,
)

#: The four circuits of the paper's evaluation.
PAPER_CIRCUITS = DEFAULT_CIRCUITS
#: The operators of Table 1.
PAPER_OPERATORS = DEFAULT_OPERATORS
