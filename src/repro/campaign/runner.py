"""The campaign runner: serial, process-parallel, or grid-sharded.

``Campaign(config).run(circuits)`` is the single entry point for the
whole mutation-sampling flow.  Per circuit it executes the configured
stage pipeline over a fresh :class:`CircuitContext` and condenses the
context into a plain-data :class:`CircuitResult`.

Two parallelism axes, both bit-for-bit identical to serial, and one
process boundary (:class:`repro.grid.ProcessScheduler`) under both:

* **Per-circuit** (``config.jobs > 1``): circuits are independent —
  every random stream is derived from ``(seed, labels...)`` with the
  circuit name in the labels — so whole circuits run as one wave of
  ``circuit`` work units on the grid's process scheduler.  Results
  cross the process boundary as dicts (the same payload the on-disk
  cache stores).  Speedup caps at the circuit count.
* **Within-circuit** (``config.grid``): the heavy axis-parallel
  operations (fault validation, kill analysis, the equivalence sweep)
  are sharded into :mod:`repro.grid` work units and executed on the
  configured scheduler, with every finished unit persisted to the job
  store when a cache directory is set.  ``run(..., resume=True)``
  reuses those stored units, so a killed campaign picks up where it
  stopped.  When both axes are requested, the grid wins: circuits run
  in the parent (nesting process pools would oversubscribe) and units
  fan out instead.

Either way each finished circuit goes through one completion step:
stored in the result cache, counted in the metrics, then reported
through ``on_circuit_done`` — so a hook that aborts the run never
loses a finished circuit.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from repro.campaign.cache import ResultCache
from repro.campaign.config import CampaignConfig
from repro.campaign.events import CampaignEvents, guard_events
from repro.campaign.result import (
    CampaignResult,
    CircuitResult,
    OperatorRow,
    StrategyRow,
)
from repro.campaign.stages import (
    OPERATOR_TARGET,
    STRATEGY_TARGET,
    CircuitContext,
    get_stage,
)
from repro.mutation.score import MutationScore
from repro.obs import metrics as _metrics

_NULL_EVENTS = CampaignEvents()


@contextmanager
def _telemetry_scope(config: CampaignConfig):
    """Install a metrics registry for the run when the config asks.

    Yields the registry collecting this run's metrics, or ``None``
    when telemetry is off.  If a registry is already active (an
    enclosing scope — e.g. a worker-side ``collecting()`` — or an
    explicit ``obs.enable_metrics()``), it is reused rather than
    shadowed so nested campaigns fold into one set of totals.
    """
    if not config.telemetry:
        yield None
        return
    current = _metrics.active()
    if current.enabled:
        yield current
        return
    with _metrics.collecting() as registry:
        yield registry


def run_circuit(
    circuit: str,
    config: CampaignConfig,
    events: CampaignEvents | None = None,
    grid=None,
) -> CircuitResult:
    """Run the configured stage pipeline for one circuit.

    ``grid`` (a :class:`repro.grid.GridExecutor`) shards the heavy
    operations inside the stages; ``None`` keeps the classic path.
    """
    events = guard_events(events if events is not None else _NULL_EVENTS)
    ctx = CircuitContext(circuit, config, grid=grid)
    m = _metrics.active()
    for name in config.stages:
        stage = get_stage(name)
        events.on_stage_start(circuit, name)
        started = time.monotonic()
        stage.run(ctx)
        seconds = time.monotonic() - started
        if m.enabled:
            m.counter("campaign.stage_runs")
            m.observe(f"stage.{name}.seconds", seconds)
        events.on_stage_end(circuit, name, seconds)
    return _build_result(ctx)


def _build_result(ctx: CircuitContext) -> CircuitResult:
    lab = ctx.lab
    stats = lab.netlist.stats() if lab is not None else {}
    population = len(ctx.population) if ctx.population is not None else 0
    equivalents = ctx.equivalence.count if ctx.equivalence is not None else 0

    operators = []
    for target in ctx.targets.values():
        if target.kind != OPERATOR_TARGET or target.report is None:
            continue
        report = target.report
        operators.append(
            OperatorRow(
                operator=target.name,
                mutants=len(target.mutants),
                test_length=report.mutation_length,
                mfc_pct=100.0 * report.mfc,
                dfc_pct=report.delta_fc_pct,
                dl_pct=report.delta_l_pct,
                nlfce=report.nlfce,
                reached_mfc=report.reached_mfc,
            )
        )

    strategies = []
    for target in ctx.targets.values():
        if target.kind != STRATEGY_TARGET:
            continue
        vectors = list(target.testgen.vectors) if target.testgen else []
        if target.killed is not None:
            killed = len(target.killed)
        elif target.testgen is not None:
            # Whole-population scoring was not run (no fault-validation
            # stage): fall back to the kills within the sample itself.
            killed = len(target.testgen.killed_mids)
        else:
            killed = 0
        score = MutationScore(
            total=population, killed=killed, equivalents=equivalents
        )
        strategies.append(
            StrategyRow(
                strategy=target.name,
                population=population,
                selected=len(target.mutants),
                equivalents=equivalents,
                killed=killed,
                ms_pct=score.percent,
                test_length=(
                    target.report.mutation_length if target.report else 0
                ),
                nlfce=target.report.nlfce if target.report else 0.0,
                vectors=vectors,
                triage={
                    k: sorted(v) for k, v in (target.triage or {}).items()
                },
                # String mid keys survive a JSON round-trip unchanged,
                # so cached and fresh results compare bit-identical.
                witnesses={
                    str(mid): [cycle, reason]
                    for mid, (cycle, reason) in sorted(
                        (target.witnesses or {}).items()
                    )
                },
            )
        )

    return CircuitResult(
        circuit=ctx.circuit,
        sequential=lab.design.is_sequential if lab is not None else False,
        gates=stats.get("gates", 0),
        dffs=stats.get("dffs", 0),
        depth=stats.get("depth", 0),
        faults=len(lab.faults) if lab is not None else 0,
        mutants=population,
        equivalents=equivalents,
        operators=operators,
        strategies=strategies,
        weights=ctx.weights,
    )


class Campaign:
    """One composable, parallel, resumable mutation-sampling run."""

    def __init__(
        self,
        config: CampaignConfig | None = None,
        events: CampaignEvents | None = None,
    ):
        self.config = config or CampaignConfig()
        self.events = events or _NULL_EVENTS
        #: the metrics registry of the most recent ``run`` (``None``
        #: when ``config.telemetry`` is off) — front ends read it to
        #: print or export the collected totals.
        self.last_metrics: _metrics.Metrics | None = None

    def run(self, circuits=None, resume: bool = False) -> CampaignResult:
        """Run the pipeline over ``circuits`` (default: the config's).

        Cached circuits are loaded, the rest computed — serially, on the
        grid's process pool (``config.jobs > 1``), or sharded through a grid
        scheduler (``config.grid``) — and every freshly computed result
        is written back to the cache as it completes.  ``resume=True``
        (requires ``cache_dir``) additionally reuses finished work
        units from the grid job store when a grid scheduler is
        configured, so a killed run picks up from its last completed
        unit; without a grid, resume granularity is whatever the
        result cache holds (whole circuits), which the cache provides
        on any run.
        """
        from repro.errors import CampaignError

        config = self.config
        events = guard_events(self.events)
        names = tuple(circuits) if circuits is not None else config.circuits
        if resume and not config.cache_dir:
            raise CampaignError(
                "resume needs the cache_dir option (set cache_dir in "
                "the config, or pass --cache-dir on the CLI): finished "
                "circuits and work units live there"
            )
        with _telemetry_scope(config) as registry:
            self.last_metrics = registry
            return self._execute(names, config, events, resume)

    def _execute(
        self,
        names: tuple[str, ...],
        config: CampaignConfig,
        events: CampaignEvents,
        resume: bool,
    ) -> CampaignResult:
        m = _metrics.active()
        events.on_campaign_start(names, config)
        started = time.monotonic()

        cache = (
            ResultCache(
                config.cache_dir, config,
                max_entries=config.cache_max_entries,
            )
            if config.cache_dir else None
        )
        grid = None
        if config.grid:
            from repro.grid import GridExecutor

            grid = GridExecutor(config, events=events, resume=resume)
        results: dict[str, CircuitResult] = {}
        hits: list[str] = []
        pending: list[str] = []
        for name in names:
            if name in results or name in pending:
                continue
            cached = cache.load(name) if cache is not None else None
            if cached is not None:
                results[name] = cached
                hits.append(name)
                events.on_circuit_done(name, cached, 0.0, cached=True)
            else:
                pending.append(name)

        def complete(name: str, result: CircuitResult, seconds: float):
            # Persist before reporting, so a hook that aborts the run
            # cannot lose a finished circuit.
            if cache is not None:
                cache.store(result)
            results[name] = result
            if m.enabled:
                m.counter("campaign.circuits_run")
                m.observe("circuit.seconds", seconds)
            events.on_circuit_done(name, result, seconds)

        try:
            if grid is None and config.jobs > 1 and len(pending) > 1:
                self._farm(pending, config, events, complete)
            else:
                for name in pending:
                    events.on_circuit_start(name)
                    circuit_started = time.monotonic()
                    result = run_circuit(name, config, events, grid=grid)
                    complete(
                        name, result, time.monotonic() - circuit_started
                    )
        finally:
            if grid is not None:
                grid.close()

        result = CampaignResult(
            config=config,
            circuits=[results[name] for name in dict.fromkeys(names)],
            cache_hits=tuple(hits),
        )
        campaign_seconds = time.monotonic() - started
        if m.enabled:
            m.gauge("campaign.seconds", campaign_seconds)
            m.counter("campaign.runs")
        events.on_campaign_end(result, campaign_seconds)
        return result

    @staticmethod
    def _farm(pending, config, events, complete) -> None:
        """Run whole circuits as one wave of ``circuit`` units on the
        grid's process scheduler (the one local process boundary)."""
        from repro.grid import CIRCUIT, ProcessScheduler, WorkUnit

        units = [
            WorkUnit(name, "campaign", "circuit", CIRCUIT, index,
                     len(pending))
            for index, name in enumerate(pending)
        ]
        scheduler = ProcessScheduler(min(config.jobs, len(pending)))
        try:
            scheduler.run(
                units,
                config,
                on_start=lambda unit: events.on_circuit_start(unit.circuit),
                on_done=lambda unit, seconds, data: complete(
                    unit.circuit, CircuitResult.from_dict(data), seconds
                ),
            )
        finally:
            scheduler.close()
