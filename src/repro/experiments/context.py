"""Shared per-circuit experiment state with caching.

Synthesis, fault collapsing, the random fault-coverage baseline, the
mutant population and the equivalence analysis are all deterministic
given the circuit and the :data:`repro.campaign.config.LAB_FIELDS` of a
:class:`repro.campaign.CampaignConfig` (seed, budgets, engine, fault
model) — :func:`get_lab` memoizes them on exactly those fields, so Table
1, Table 2 and the ablations never recompute each other's inputs.
"""

from __future__ import annotations

from repro.analyze.prune import split_untestable
from repro.campaign.config import LAB_FIELDS, CampaignConfig
from repro.circuits import get_circuit, load_circuit
from repro.fault.coverage import FaultSimResult
from repro.fault.models import build_fault_model
from repro.hdl.design import Design
from repro.mutation.execution import MutationEngine
from repro.mutation.generator import generate_mutants
from repro.mutation.mutant import Mutant
from repro.mutation.score import EquivalenceAnalysis, estimate_equivalents
from repro.netlist.netlist import Netlist
from repro.sim.testbench import StimulusEncoder
from repro.synth import synthesize
from repro.testgen.random_gen import RandomVectorGenerator


#: Kept for ``perfbench/workloads.py``, which still imports the name.
LabConfig = CampaignConfig


class CircuitLab:
    """Everything the experiments need about one benchmark circuit.

    ``config`` is stored as its :meth:`~CampaignConfig.lab_config`
    slice, so a shared lab never carries the non-lab fields of the
    caller that first built it.  ``engine`` selects the netlist engine
    only (fault simulation); the RTL mutant backend below is always the
    compiled schema, and ``tests/test_schema.py`` is its oracle check
    against the RTL interpreter.
    """

    def __init__(self, name: str, config: CampaignConfig | None = None):
        self.name = name
        self.info = get_circuit(name)
        self.config = (config or CampaignConfig()).lab_config()
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
            budget = (
                self.config.random_budget_seq if self.design.is_sequential
                else self.config.random_budget_comb
            )
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
            self.netlist, vectors, self.sim_faults, engine=self.config.engine,
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


def get_lab(name: str, config: CampaignConfig | None = None) -> CircuitLab:
    """Memoized :class:`CircuitLab` lookup, keyed on ``LAB_FIELDS``."""
    config = config or CampaignConfig()
    # Knob dicts key as sorted item tuples, so equal knobs share a lab.
    key = (name,) + tuple(
        tuple(sorted(value.items())) if isinstance(value, dict) else value
        for value in (getattr(config, field) for field in LAB_FIELDS)
    )
    if key not in _LABS:
        _LABS[key] = CircuitLab(name, config)
    return _LABS[key]
