"""The grid executor: plan → (resume) → schedule → merge.

:class:`GridExecutor` is the object a :class:`repro.campaign.Campaign`
threads through its circuit contexts when ``config.grid`` names a
scheduler.  Each campaign operation becomes one *wave*: the planner
shards the axis into work units, completed units are loaded from the
:class:`~repro.grid.store.JobStore` (when resuming), the remainder runs
on the scheduler, every fresh result is persisted as it lands, and the
merged result is bit-identical to the serial computation.

The executor owns one scheduler instance for the whole campaign.  A
forking scheduler keeps its workers across the waves of one circuit
and forks them again for the next; before each wave the executor warms
the lab in the parent (a combinational lab's netlist program), so the
workers inherit it instead of each building it.  Call :meth:`close` —
``Campaign.run`` does, in a ``finally`` — to release them.
"""

from __future__ import annotations

from repro.campaign.events import CampaignEvents
from repro.engine import build_engine
from repro.fault.coverage import FaultSimResult
from repro.grid.planner import plan_equivalence, plan_fault_sim, plan_kill_analysis
from repro.grid.scheduler import build_scheduler
from repro.grid.store import JobStore
from repro.grid.units import (
    WorkUnit,
    merge_detections,
    merge_equivalence,
    merge_killed,
    merge_witnesses,
)
from repro.mutation.score import EquivalenceAnalysis, equivalence_stimuli
from repro.obs import metrics as _metrics

_NULL_EVENTS = CampaignEvents()


class GridExecutor:
    """Executes sharded campaign operations on a pluggable scheduler."""

    def __init__(self, config, events=None, resume: bool = False):
        self._config = config
        self._events = events if events is not None else _NULL_EVENTS
        self._scheduler = build_scheduler(config.grid, config.grid_workers)
        self._store = (
            JobStore(config.cache_dir, config) if config.cache_dir else None
        )
        self._resume = resume

    @property
    def scheduler(self):
        return self._scheduler

    @property
    def store(self) -> JobStore | None:
        return self._store

    def close(self) -> None:
        """Shut down the scheduler's pooled resources."""
        self._scheduler.close()

    # -- operations ----------------------------------------------------------

    def fault_sim(self, lab, vectors: list[int], key: str) -> FaultSimResult:
        """Sharded fault validation, bit-identical to ``lab.fault_sim``.

        The fault list (and its model) lives in the fingerprinted
        config every worker rebuilds, so units carry only index ranges.
        Planning and sharding run over the post-prune ``sim_faults``
        list (identical to ``faults`` unless ``prune_untestable`` is
        on); the merged detections are re-inflated to the full universe
        by the lab, exactly like the serial path.
        """
        units = plan_fault_sim(
            lab.name, key, len(lab.sim_faults), vectors,
            self._config.grid_shard,
        )
        results = self._dispatch(lab, units)
        return lab.expand_detection(FaultSimResult(
            list(lab.sim_faults), merge_detections(results), len(vectors)
        ))

    def kill_analysis(
        self, lab, mutants, vectors: list[int], key: str
    ) -> tuple[set[int], dict[int, tuple[int | None, str]]]:
        """Sharded kill analysis plus the per-kill replay witnesses."""
        units = plan_kill_analysis(
            lab.name, key, [m.mid for m in mutants], vectors,
            self._config.grid_shard,
        )
        results = self._dispatch(lab, units)
        return merge_killed(results), merge_witnesses(results)

    def equivalence(self, lab) -> EquivalenceAnalysis:
        """Sharded budgeted equivalence sweep over the population."""
        config = self._config
        units = plan_equivalence(
            lab.name, [m.mid for m in lab.all_mutants], config.grid_shard
        )
        survivors, kill_cycle = merge_equivalence(self._dispatch(lab, units))
        # The stimulus metadata (actual length, exhaustive flag) is a
        # cheap pure-RNG derivation; the sweeps themselves ran sharded.
        stimuli, exhaustive = equivalence_stimuli(
            lab.design, config.equivalence_budget, config.seed
        )
        return EquivalenceAnalysis(
            equivalent_mids=survivors,
            budget=len(stimuli),
            seed=config.seed,
            exhaustive=exhaustive,
            kill_cycle=kill_cycle,
        )

    # -- dispatch ------------------------------------------------------------

    def _dispatch(self, lab, units: list[WorkUnit]) -> list[dict]:
        """Run one wave of units; results come back in plan order."""
        events = self._events
        m = _metrics.active()
        results: list[dict | None] = [None] * len(units)
        pending: list[int] = []
        for index, unit in enumerate(units):
            cached = (
                self._store.load(unit)
                if (self._store is not None and self._resume)
                else None
            )
            if cached is not None:
                results[index] = cached
                if m.enabled:
                    m.counter("grid.unit.cached")
                events.on_unit_result(unit, cached)
                events.on_unit_done(unit, 0.0, cached=True)
            else:
                pending.append(index)
        if pending:
            if self._scheduler.forks and not lab.netlist.dffs:
                # Built once here, the netlist program and both of its
                # evaluators reach every worker forked for this wave
                # (the search has already compiled the RTL schema).
                build_engine(self._config.engine).warm(lab.netlist)
            position = {units[index].uid: index for index in pending}

            def on_start(unit: WorkUnit) -> None:
                events.on_unit_start(unit)

            def on_done(unit: WorkUnit, seconds: float, result: dict) -> None:
                # Persist before reporting, so a hook that aborts the
                # run cannot lose a finished unit.
                if self._store is not None:
                    self._store.store(unit, result, seconds)
                results[position[unit.uid]] = result
                if m.enabled:
                    m.counter("grid.unit.done")
                    m.observe("grid.unit.seconds", seconds)
                events.on_unit_result(unit, result)
                events.on_unit_done(unit, seconds)

            self._scheduler.run(
                [units[index] for index in pending],
                self._config,
                on_start=on_start,
                on_done=on_done,
            )
        return results  # type: ignore[return-value]
