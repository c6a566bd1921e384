"""Pipeline stages: the units a campaign composes per circuit.

A stage transforms a shared :class:`CircuitContext`.  Stages are
*incremental*: each processes only the work earlier stages queued that
it has not already handled (a target without test data, a test set
without a fault simulation, ...), so a pipeline may list the same stage
more than once — the default pipeline runs
``search``/``fault-validation``/``metrics`` twice, first over the
per-operator calibration targets, then over the sampled-strategy
targets that ``sampling`` queues in between.  (``testgen`` is the
historical alias of ``search``.)

Stages register by name in :data:`STAGE_REGISTRY` via the
:func:`register_stage` decorator, so pipelines are described as tuples
of names in :class:`repro.campaign.CampaignConfig` and third parties
can plug in (or override) stages without touching the runner.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.fault.coverage import FaultSimResult
from repro.metrics.nlfce import NlfceReport, nlfce_from_results
from repro.mutation.generator import mutants_by_operator
from repro.mutation.mutant import Mutant
from repro.sampling.registry import build_strategy
from repro.sampling.weighted import PAPER_RANK_WEIGHTS, weights_from_nlfce
from repro.testgen.mutation_gen import MutationTestGenerator, TestGenResult

#: Target kinds.
OPERATOR_TARGET = "operator"
STRATEGY_TARGET = "strategy"


@dataclass
class Target:
    """One unit of evaluation work: a labelled mutant subset.

    ``operator:*`` targets carry one operator's whole stratum (the
    calibration / Table-1 measurements); ``strategy:*`` targets carry a
    sampled subset (the Table-2 measurements).  Downstream stages fill
    the artifact slots in order: test data, fault simulation, kills,
    NLFCE report.
    """

    label: str
    kind: str
    name: str
    mutants: list[Mutant]
    testgen: TestGenResult | None = None
    faultsim: FaultSimResult | None = None
    killed: set[int] | None = None
    #: mid -> (first differing cycle or None, kill reason) for every
    #: killed mutant: the replayable kill witness.
    witnesses: dict[int, tuple[int | None, str]] | None = None
    #: triage category -> sorted surviving mids (see
    #: :data:`repro.mutation.execution.TRIAGE_CATEGORIES`).
    triage: dict[str, list[int]] | None = None
    report: NlfceReport | None = None


class CircuitContext:
    """Mutable per-circuit state threaded through the stages.

    ``grid`` (a :class:`repro.grid.GridExecutor`, or ``None``) is the
    within-circuit execution policy: when set, the heavy axis-parallel
    operations below dispatch as sharded work units; when unset they
    run the classic in-process path.  Both paths are bit-identical by
    contract, so stages call the helpers unconditionally.
    """

    def __init__(self, circuit: str, config, grid=None):
        self.circuit = circuit
        self.config = config
        self.grid = grid                      # GridExecutor | None
        self.lab = None                       # CircuitLab, set by "synth"
        self.population: list[Mutant] | None = None
        self.groups: dict[str, list[Mutant]] | None = None
        self.targets: dict[str, Target] = {}
        self.weights: dict[str, float] | None = None
        self.equivalence = None               # EquivalenceAnalysis | None

    def require_lab(self):
        if self.lab is None:
            raise ConfigError(
                f"stage needs the 'synth' stage to have run for "
                f"{self.circuit!r} first"
            )
        return self.lab

    # -- grid-dispatchable operations ----------------------------------------

    def fault_sim(self, vectors: list[int], key: str) -> FaultSimResult:
        """Stuck-at validation of ``vectors`` (sharded under a grid)."""
        lab = self.require_lab()
        if self.grid is not None:
            return self.grid.fault_sim(lab, vectors, key)
        return lab.fault_sim(vectors)

    def kill_analysis(
        self, mutants, vectors: list[int], key: str
    ) -> tuple[set[int], dict[int, tuple[int | None, str]]]:
        """Kill analysis with per-mutant witnesses (sharded under a grid).

        Returns the killed mids and, for each of them, the replayable
        witness ``(first differing cycle or None, reason)``.
        """
        lab = self.require_lab()
        if self.grid is not None:
            return self.grid.kill_analysis(lab, mutants, vectors, key)
        records = lab.engine.run_all(mutants, vectors)
        killed = {r.mid for r in records if r.killed}
        witnesses = {
            r.mid: (r.cycle, r.reason) for r in records if r.killed
        }
        return killed, witnesses

    def random_baseline(self) -> FaultSimResult:
        """The circuit's random fault-coverage baseline.

        Under a grid the (heavy) fault simulation runs sharded and
        primes the lab's lazy slot, so every later consumer shares it.
        """
        lab = self.require_lab()
        if self.grid is not None and not lab.has_random_baseline:
            lab.prime_random_baseline(
                self.grid.fault_sim(lab, lab.random_vectors, "baseline")
            )
        return lab.random_baseline

    def equivalence_analysis(self):
        """The budgeted equivalence sweep (sharded under a grid)."""
        lab = self.require_lab()
        if self.grid is not None and not lab.has_equivalence:
            lab.prime_equivalence(self.grid.equivalence(lab))
        return lab.equivalence

    def operator_targets(self) -> list[Target]:
        return [
            t for t in self.targets.values() if t.kind == OPERATOR_TARGET
        ]


# -- registry ----------------------------------------------------------------

class Stage:
    """A named, idempotent pipeline step over a :class:`CircuitContext`."""

    name: str = ""

    def run(self, ctx: CircuitContext) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


#: name -> stage class.
STAGE_REGISTRY: dict[str, type[Stage]] = {}


def register_stage(cls: type[Stage]) -> type[Stage]:
    """Class decorator adding ``cls`` to the registry under ``cls.name``."""
    if not cls.name:
        raise ConfigError(
            f"{cls.__name__} needs a non-empty 'name' to be registered"
        )
    STAGE_REGISTRY[cls.name] = cls
    return cls


def get_stage(name: str) -> Stage:
    """Instantiate the registered stage called ``name``."""
    try:
        cls = STAGE_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(STAGE_REGISTRY))
        raise ConfigError(
            f"unknown pipeline stage {name!r} (registered: {known})"
        ) from None
    return cls()


def stage_names() -> tuple[str, ...]:
    return tuple(sorted(STAGE_REGISTRY))


# -- the built-in stages -----------------------------------------------------

@register_stage
class SynthStage(Stage):
    """Elaborate, synthesize and fault-collapse the circuit (the lab)."""

    name = "synth"

    def run(self, ctx: CircuitContext) -> None:
        if ctx.lab is not None:
            return
        from repro.experiments.context import get_lab

        ctx.lab = get_lab(ctx.circuit, ctx.config)


@register_stage
class MutantStage(Stage):
    """Generate the mutant population and queue the calibration targets."""

    name = "mutants"

    def run(self, ctx: CircuitContext) -> None:
        lab = ctx.require_lab()
        if ctx.population is None:
            ctx.population = lab.all_mutants
            ctx.groups = mutants_by_operator(ctx.population)
        for operator in ctx.config.operators:
            label = f"operator:{operator}"
            group = (ctx.groups or {}).get(operator)
            if label in ctx.targets or not group:
                continue  # already queued, or operator does not apply
            ctx.targets[label] = Target(
                label, OPERATOR_TARGET, operator, group
            )


def resolve_weights(ctx: CircuitContext) -> dict[str, float]:
    """Operator weights for the test-oriented sampler.

    Explicit ``config.weights`` win; otherwise the scheme decides:
    ``calibrated`` normalizes the per-operator NLFCE measured on this
    circuit's operator targets (falling back to the paper's rank
    ordering when nothing was measured, and filling unmeasured
    operators with their rank scaled into [0, 1]); ``paper-ranks`` and
    ``uniform`` use fixed tables.
    """
    config = ctx.config
    if config.weights is not None:
        return dict(config.weights)
    if config.weight_scheme == "paper-ranks":
        return dict(PAPER_RANK_WEIGHTS)
    if config.weight_scheme == "uniform":
        return {op: 1.0 for op in PAPER_RANK_WEIGHTS}
    # "calibrated" (__post_init__ rejects anything else)
    measured = {
        t.name: t.report.nlfce
        for t in ctx.operator_targets()
        if t.report is not None
    }
    weights = (
        weights_from_nlfce(measured) if measured else dict(PAPER_RANK_WEIGHTS)
    )
    for op, rank in PAPER_RANK_WEIGHTS.items():
        weights.setdefault(op, rank / 4.0)
    return weights


@register_stage
class SamplingStage(Stage):
    """Sample the population once per configured strategy."""

    name = "sampling"

    def run(self, ctx: CircuitContext) -> None:
        config = ctx.config
        if not config.strategies:
            return
        ctx.require_lab()
        if ctx.population is None:
            raise ConfigError(
                "the 'sampling' stage needs 'mutants' to have run"
            )
        if ctx.weights is None:
            ctx.weights = resolve_weights(ctx)
        for name in config.strategies:
            label = f"strategy:{name}"
            if label in ctx.targets:
                continue
            strategy = build_strategy(name, config.fraction, ctx.weights)
            sample = strategy.sample(
                ctx.population, config.sampling_seed, ctx.circuit,
                *config.sample_labels,
            )
            ctx.targets[label] = Target(label, STRATEGY_TARGET, name, sample)


@register_stage
class SearchStage(Stage):
    """Strategy-driven mutation-adequate test generation.

    Candidate vectors for every pending target come from the
    :mod:`repro.search` strategy the config's ``search`` block selects;
    the default ``random`` strategy reproduces the historical blind
    pseudo-random generation bit-for-bit.
    """

    name = "search"

    def run(self, ctx: CircuitContext) -> None:
        lab = ctx.require_lab()
        generator = MutationTestGenerator.from_config(
            lab.design, ctx.config, lab.engine
        )
        for target in ctx.targets.values():
            if target.testgen is not None:
                continue
            target.testgen = generator.generate(target.mutants)


@register_stage
class TestGenStage(SearchStage):
    """Backwards-compatible alias: ``testgen`` runs the search stage.

    Kept so pre-search pipelines (config files listing ``testgen``)
    keep working; with the default ``search="random"`` block the
    behaviour is identical to the historical stage.
    """

    name = "testgen"


@register_stage
class FaultValidationStage(Stage):
    """Fault validation: fault-simulate test sets, score strategies.

    For every target with test data, fault-simulates the vectors on the
    synthesized netlist under the configured fault model.  For strategy
    targets it additionally runs the whole-population kill analysis the
    mutation score needs (known equivalents excluded from targets and
    denominator alike), keeps each kill's witness for replay, and
    triages the survivors into ``never-activated`` /
    ``propagation-blocked`` / ``possibly-equivalent``.
    """

    name = "fault-validation"

    def run(self, ctx: CircuitContext) -> None:
        ctx.require_lab()
        for target in ctx.targets.values():
            if target.testgen is None:
                continue
            vectors = target.testgen.vectors
            if target.faultsim is None and vectors:
                target.faultsim = ctx.fault_sim(vectors, target.label)
            if target.kind != STRATEGY_TARGET or target.killed is not None:
                continue
            if ctx.equivalence is None:
                ctx.equivalence = ctx.equivalence_analysis()
            if vectors:
                candidates = [
                    m for m in (ctx.population or [])
                    if m.mid not in ctx.equivalence.equivalent_mids
                ]
                target.killed, target.witnesses = ctx.kill_analysis(
                    candidates, vectors, target.label
                )
            else:
                target.killed, target.witnesses = set(), {}
            target.triage = self._triage(ctx, target, vectors)

    @staticmethod
    def _triage(ctx: CircuitContext, target: Target,
                vectors: list[int]) -> dict[str, list[int]]:
        """Classify every survivor of one strategy's test set.

        The state-trace sweep is cheap relative to the kill analysis
        (one lockstep run per survivor, early-exited at the first
        internal difference) and deterministic, so it runs in-process
        even under a grid.
        """
        from repro.mutation.execution import (
            NEVER_ACTIVATED,
            POSSIBLY_EQUIVALENT,
            TRIAGE_CATEGORIES,
        )

        lab = ctx.require_lab()
        killed = target.killed or set()
        equivalent = ctx.equivalence.equivalent_mids
        prescreened: dict[int, str] = {}
        if ctx.config.static_prescreen:
            # Static pre-screen: survivors hosted in provably dead
            # behavioural logic are possibly-equivalent without a
            # lockstep sweep.  Kill status still wins — dead-logic
            # mutants can die of run-time errors.
            from repro.analyze.prescreen import prescreen_mutants

            prescreened = prescreen_mutants(
                lab.design, ctx.population or []
            )
        triage: dict[str, list[int]] = {
            category: [] for category in TRIAGE_CATEGORIES
        }
        pending = []
        for mutant in ctx.population or []:
            if mutant.mid in killed:
                continue
            if mutant.mid in equivalent or mutant.mid in prescreened:
                triage[POSSIBLY_EQUIVALENT].append(mutant.mid)
            elif not vectors:
                triage[NEVER_ACTIVATED].append(mutant.mid)
            else:
                pending.append(mutant)
        for mid, category in lab.engine.triage_survivors(
            pending, vectors
        ).items():
            triage[category].append(mid)
        for mids in triage.values():
            mids.sort()
        return triage


@register_stage
class MetricsStage(Stage):
    """NLFCE against the circuit's pseudo-random baseline."""

    name = "metrics"

    def run(self, ctx: CircuitContext) -> None:
        ctx.require_lab()
        for target in ctx.targets.values():
            if target.faultsim is None or target.report is not None:
                continue
            target.report = nlfce_from_results(
                target.faultsim, ctx.random_baseline()
            )
