"""Work-unit execution: the same code path in every scheduler.

:func:`execute_unit` turns one :class:`~repro.grid.units.WorkUnit` into
a plain JSON-serializable result dict.  It reads per-circuit state
through the memoized :func:`repro.experiments.context.get_lab`: the
serial scheduler shares the parent's lab outright, a process worker,
forked from the parent for its wave's circuit, inherits the lab the
parent built, and a ``repro worker`` daemon builds it at its first
unit of the circuit and reuses it after.  A ``circuit`` unit runs one
whole circuit's stage pipeline (``jobs > 1`` circuit farming) and
returns the :class:`~repro.campaign.result.CircuitResult` payload.

A worker also keeps ``_WAVE_MEMO``: wave-invariant state (mutant-sweep
references, equivalence stimuli, and the good-machine words of a
combinational stuck-at fault-chunk wave), keyed as listed at its
definition and bounded at ``_WAVE_MEMO_MAX`` entries, least recently
used dropped first.  So the units of one wave on one worker pay for
that state once, and a comb stuck-at chunk runs only the batched fault
diff over its own faults.

:func:`process_entry` is the one process boundary: the function a
process-scheduler worker calls for each unit it reads from its pipe,
and the :mod:`repro.net` worker daemon for each unit it leases.  It
rebuilds unit and config from plain data, times the unit, and returns
the envelope the parent harvests — ``seconds``, ``result``, and
optional ``metrics``/``spans``.
"""

from __future__ import annotations

import os
import threading
import time
from collections import OrderedDict
from contextlib import ExitStack

from repro.errors import GridError
from repro.fault.comb_sim import CombFaultSimulator
from repro.fault.models.stuck_at import StuckAtModel
from repro.grid.units import (
    CIRCUIT,
    EQUIV_PART,
    FAULT_CHUNK,
    MUTANT_PART,
    WorkUnit,
)

#: Wave-invariant state, shared by every unit of a wave that a worker
#: runs.  All units of one wave replay the same stimulus list, so what
#: depends only on the design and that list is computed once per
#: worker instead of once per unit:
#:
#: * ``("kill", circuit, stimuli)`` — the mutant sweep's reference
#:   responses;
#: * ``("equiv", circuit, equivalence_budget, seed)`` — the equivalence
#:   stimuli and their reference responses;
#: * ``("good", circuit, engine, stimuli)`` — the good-machine net words
#:   of a combinational stuck-at fault-chunk wave.
#:
#: Keys hold only design-determining inputs: a circuit name fixes its
#: netlist, the behavioural mutation engine does not depend on the
#: netlist backend, and good words do not depend on the fault list.
#: Least-recently-used entries beyond ``_WAVE_MEMO_MAX`` are dropped,
#: so a long campaign cannot grow it without limit.
_WAVE_MEMO: OrderedDict = OrderedDict()
_WAVE_MEMO_MAX = 8
_WAVE_LOCK = threading.Lock()


def _memoized(key: tuple, compute):
    with _WAVE_LOCK:
        if key in _WAVE_MEMO:
            _WAVE_MEMO.move_to_end(key)
            return _WAVE_MEMO[key]
        value = compute()
        _WAVE_MEMO[key] = value
        while len(_WAVE_MEMO) > _WAVE_MEMO_MAX:
            _WAVE_MEMO.popitem(last=False)
        return value


def _simulate_chunk(lab, config, faults: list, vectors: list[int]):
    """Fault-simulate one chunk; comb stuck-at reuses the wave's good words."""
    if isinstance(lab.fault_model, StuckAtModel) and not lab.netlist.dffs:
        simulator = CombFaultSimulator(
            lab.netlist, faults, engine=config.engine
        )
        good = _memoized(
            ("good", lab.name, config.engine, tuple(vectors)),
            lambda: simulator.good_words(vectors),
        )
        return simulator.simulate(vectors, good)
    return lab.fault_model.simulate(
        lab.netlist, vectors, faults, engine=config.engine
    )


def execute_unit(unit: WorkUnit, config) -> dict:
    """Compute one work unit; returns a JSON-serializable result."""
    if unit.kind == CIRCUIT:
        from repro.campaign.runner import run_circuit

        return run_circuit(unit.circuit, config).to_dict()

    from repro.experiments.context import get_lab
    from repro.mutation.score import equivalence_stimuli

    lab = get_lab(unit.circuit, config)

    if unit.kind == FAULT_CHUNK:
        spec = unit.spec
        if len(lab.sim_faults) != spec["num_faults"]:
            raise GridError(
                f"unit {unit.uid}: fault list drifted "
                f"({len(lab.sim_faults)} != {spec['num_faults']})"
            )
        # The lab's fault model (and post-prune list) is rebuilt from
        # the same fingerprinted config on every worker, so the slice
        # is the same one the planner sharded — no model tag in the
        # unit spec.
        faults = lab.sim_faults[spec["start"]:spec["stop"]]
        result = _simulate_chunk(lab, config, faults, spec["vectors"])
        return {"detection": result.detection}

    if unit.kind == MUTANT_PART:
        wanted = set(unit.spec["mids"])
        # Population order, so the relative run order inside a partition
        # matches the serial sweep (the union is order-free regardless).
        mutants = [m for m in lab.all_mutants if m.mid in wanted]
        if len(mutants) != len(wanted):
            raise GridError(
                f"unit {unit.uid}: {len(wanted) - len(mutants)} mutant "
                f"id(s) not in the population"
            )
        vectors = unit.spec["vectors"]
        # Cover the part first: on a sequential design the reference is
        # the probe of the covered population, which the runs then share.
        lab.engine.cover(mutants)
        reference = _memoized(
            ("kill", unit.circuit, tuple(vectors)),
            lambda: lab.engine.reference_outputs(vectors),
        )
        records = lab.engine.run_all(mutants, vectors, reference)
        return {
            "killed": sorted(r.mid for r in records if r.killed),
            # JSON object keys are strings; the merge converts back.
            "witnesses": {
                str(r.mid): [r.cycle, r.reason]
                for r in records
                if r.killed
            },
        }

    if unit.kind == EQUIV_PART:
        wanted = set(unit.spec["mids"])
        mutants = [m for m in lab.all_mutants if m.mid in wanted]
        if len(mutants) != len(wanted):
            raise GridError(
                f"unit {unit.uid}: {len(wanted) - len(mutants)} mutant "
                f"id(s) not in the population"
            )

        def compute():
            stimuli, _ = equivalence_stimuli(
                lab.design, config.equivalence_budget, config.seed
            )
            return stimuli, lab.engine.reference_outputs(stimuli)

        lab.engine.cover(mutants)
        stimuli, reference = _memoized(
            ("equiv", unit.circuit, config.equivalence_budget, config.seed),
            compute,
        )
        survivors: list[int] = []
        kill_cycle: dict[str, int | None] = {}
        for mutant in mutants:
            record = lab.engine.run_mutant(mutant, stimuli, reference)
            # JSON object keys are strings; the merge converts back.
            kill_cycle[str(mutant.mid)] = record.cycle
            if not record.killed:
                survivors.append(mutant.mid)
        return {"survivors": survivors, "kill_cycle": kill_cycle}

    raise GridError(f"unknown work-unit kind {unit.kind!r}")


def worker_pid() -> str:
    """The trace ``pid`` lane of this worker process."""
    return f"worker-{os.getpid()}"


def process_entry(
    unit_data: dict, config_data: dict, pid: str | None = None
) -> dict:
    """Worker entry point: plain dicts in, plain dict out.

    When the config enables telemetry the unit runs under its own
    :mod:`repro.obs` registry and the envelope carries a ``metrics``
    snapshot for the parent to fold in — counters travel with results,
    not through a side channel.  ``config.trace`` works the same way:
    the unit runs under a worker-local tracer whose span buffer rides
    the envelope as ``spans``, and the parent stitches it into the
    campaign trace under the ``pid`` lane (default: this process's
    :func:`worker_pid`).
    """
    from repro.campaign.config import CampaignConfig
    from repro.obs import metrics as _metrics
    from repro.obs import trace as _trace

    unit = WorkUnit.from_dict(unit_data)
    config = CampaignConfig.from_dict(config_data)
    started = time.monotonic()
    registry = None
    tracer = None
    with ExitStack() as stack:
        if config.telemetry:
            registry = stack.enter_context(_metrics.collecting())
        if config.trace:
            tracer = stack.enter_context(
                _trace.tracing(_trace.Tracer(pid=pid or worker_pid()))
            )
            stack.enter_context(tracer.span(
                f"unit:{unit.kind}", "unit",
                {"uid": unit.uid, "circuit": unit.circuit,
                 "stage": unit.stage},
            ))
        result = execute_unit(unit, config)
    envelope = {
        "seconds": time.monotonic() - started,
        "result": result,
    }
    if registry is not None and not registry.is_empty():
        envelope["metrics"] = registry.snapshot()
    if tracer is not None and len(tracer):
        envelope["spans"] = tracer.export_buffer()
    return envelope
