"""repro.grid — sharded work-unit execution with a resumable job store.

The campaign flow is embarrassingly parallel *inside* a circuit: every
collapsed fault's detection and every mutant's verdict is independent
of its neighbours.  This package decomposes the heavy per-circuit
operations — stuck-at validation, whole-population kill analysis, the
budgeted equivalence sweep — into deterministic, order-independent
:class:`WorkUnit` shards whose merges are pure unions/concatenations,
so any scheduler reproduces the serial campaign bit for bit::

    from repro.campaign import Campaign, CampaignConfig

    config = CampaignConfig(grid="process", grid_workers=4,
                            cache_dir="cache/")
    result = Campaign(config).run(["c432"])          # sharded inside c432
    Campaign(config).run(["c432"], resume=True)      # reuse finished units

Pieces:

* :class:`WorkUnit` (:mod:`repro.grid.units`) — one shard: circuit ×
  stage × partition, with a spec digest as identity.
* Planners (:mod:`repro.grid.planner`) — fault chunks and mutant
  partitions, sized by the fingerprinted ``grid_shard`` knob only
  (never by worker count), so resumes survive re-sizing the pool.
* Schedulers (:mod:`repro.grid.scheduler`) — named registry:
  ``serial`` reference, ``process`` work-stealing pool with a graceful
  ``KeyboardInterrupt`` drain, and ``remote`` (units dispatched to a
  :mod:`repro.net` coordinator over HTTP).  ``process`` is the one
  local process boundary: the campaign's ``jobs > 1`` circuit farming
  runs whole-circuit (``circuit``) units on it as well, and
  :func:`process_entry` builds the result envelope for both it and
  the :mod:`repro.net` worker daemon.
* :class:`JobStore` (:mod:`repro.grid.store`) — JSON-per-unit ledger
  under the campaign cache's fingerprint scheme; powers
  ``repro run --resume``.
* :class:`GridExecutor` (:mod:`repro.grid.executor`) — plan → resume →
  schedule → merge; what the campaign stages dispatch through.
"""

from repro.grid.executor import GridExecutor
from repro.grid.planner import (
    AUTO_UNITS,
    plan_equivalence,
    plan_fault_sim,
    plan_kill_analysis,
    shard_ranges,
    shard_size,
)
from repro.grid.scheduler import (
    DEFAULT_SCHEDULER,
    SCHEDULERS,
    ProcessScheduler,
    RemoteScheduler,
    Scheduler,
    SerialScheduler,
    build_scheduler,
    get_scheduler,
    register_scheduler,
    scheduler_names,
)
from repro.grid.store import STORE_VERSION, JobStore
from repro.grid.units import (
    CIRCUIT,
    EQUIV_PART,
    FAULT_CHUNK,
    MUTANT_PART,
    UNIT_KINDS,
    WorkUnit,
    merge_detections,
    merge_equivalence,
    merge_killed,
    merge_witnesses,
)
from repro.grid.worker import execute_unit, process_entry

__all__ = [
    "AUTO_UNITS",
    "CIRCUIT",
    "DEFAULT_SCHEDULER",
    "EQUIV_PART",
    "FAULT_CHUNK",
    "GridExecutor",
    "JobStore",
    "MUTANT_PART",
    "ProcessScheduler",
    "RemoteScheduler",
    "SCHEDULERS",
    "STORE_VERSION",
    "Scheduler",
    "SerialScheduler",
    "UNIT_KINDS",
    "WorkUnit",
    "build_scheduler",
    "execute_unit",
    "get_scheduler",
    "merge_detections",
    "merge_equivalence",
    "merge_killed",
    "merge_witnesses",
    "plan_equivalence",
    "plan_fault_sim",
    "plan_kill_analysis",
    "process_entry",
    "register_scheduler",
    "scheduler_names",
    "shard_ranges",
    "shard_size",
]
