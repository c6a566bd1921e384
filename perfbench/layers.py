"""Per-layer attribution for the traced run.

The traced run wraps the public entry point of each layer from the
benchmark's own files, so nothing under ``src/`` changes.  Every wrapper
opens a span; spans nest on one stack, and a layer's *self* time is its
span duration minus the time its child spans cover.  Because each span
hands its whole duration to exactly one parent (or to the root), the
self times of all layers sum to the summed duration of the outermost
spans; ``unattributed_s`` is the rest of the pass's wall time.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from contextlib import contextmanager

from repro.campaign.events import CampaignEvents


class Tracer:
    """Nesting-aware span accounting plus the layers' work counters."""

    def __init__(self):
        #: layer -> {"calls", "total_s", "self_s"}
        self.layers: dict[str, dict] = {}
        self.counters: dict[str, float] = defaultdict(float)
        #: summed duration of outermost spans (what the layers cover).
        self.root_s = 0.0
        self._stack: list[list[float]] = []

    @contextmanager
    def span(self, layer: str):
        children = [0.0]
        self._stack.append(children)
        started = time.perf_counter()
        try:
            yield
        finally:
            seconds = time.perf_counter() - started
            self._stack.pop()
            entry = self.layers.setdefault(
                layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0}
            )
            entry["calls"] += 1
            entry["total_s"] += seconds
            entry["self_s"] += seconds - children[0]
            if self._stack:
                self._stack[-1][0] += seconds
            else:
                self.root_s += seconds

    def self_sum(self) -> float:
        return sum(entry["self_s"] for entry in self.layers.values())


class LayerEvents(CampaignEvents):
    """Stage seconds and grid-unit busy time from the public hooks."""

    def __init__(self):
        self.stage_s: dict[str, float] = defaultdict(float)
        self.units = 0
        self.unit_busy_s = 0.0

    def on_stage_end(self, circuit, stage, seconds) -> None:
        self.stage_s[stage] += seconds

    def on_unit_done(self, unit, seconds, cached=False) -> None:
        self.units += 1
        self.unit_busy_s += seconds


def _count_comb_kill_sets(tracer, result, args):
    _engine, mutants, vectors = args[:3]
    tracer.counters["mutation.comb_kill_sets.evals"] += (
        len(mutants) * len(vectors)
    )


def _count_run_mutant(tracer, result, args):
    tracer.counters["mutation.run_mutant.kills"] += bool(result.killed)


def _count_generate(tracer, result, args):
    tracer.counters["search.generate.candidates"] += result.candidates_tried


def _count_fault_sim(tracer, result, args):
    lab, vectors = args[:2]
    tracer.counters["fault.simulate.fault_patterns"] += (
        len(vectors) * len(lab.sim_faults)
    )


def _count_podem(tracer, result, args):
    tracer.counters["testgen.podem.run.targets"] += len(args[1])
    tracer.counters["testgen.podem.run.detected"] += result.detected
    tracer.counters["testgen.podem.run.decisions"] += result.total_decisions
    tracer.counters["testgen.podem.run.backtracks"] += (
        result.total_backtracks
    )


class Instrumentation:
    """Installs the layer wrappers; spans go to ``self.tracer`` if set.

    Wrappers stay installed for the life of the process (each traced
    pass is a fresh process); setting ``tracer`` to ``None`` turns
    recording off, e.g. while the payloads are checked after the pass.
    """

    def __init__(self):
        self.tracer: Tracer | None = None
        from repro.experiments import context
        from repro.fault.models import StuckAtModel
        from repro.grid import GridExecutor
        from repro.mutation.execution import MutationEngine
        from repro.testgen.atpg import Podem
        from repro.testgen.mutation_gen import MutationTestGenerator

        engine = MutationEngine
        for owner, attr, layer, count in (
            (engine, "comb_kill_sets", "mutation.comb_kill_sets",
             _count_comb_kill_sets),
            (engine, "run_mutant", "mutation.run_mutant", _count_run_mutant),
            (engine, "triage_survivors", "mutation.triage_survivors", None),
            (engine, "reference_outputs", "mutation.reference_outputs",
             None),
            (MutationTestGenerator, "generate", "search.generate",
             _count_generate),
            (context.CircuitLab, "fault_sim", "fault.simulate",
             _count_fault_sim),
            (Podem, "run", "testgen.podem.run", _count_podem),
            (GridExecutor, "fault_sim", "grid.dispatch", None),
            (GridExecutor, "kill_analysis", "grid.dispatch", None),
            (GridExecutor, "equivalence", "grid.dispatch", None),
            # Import-site names: what CircuitLab actually calls.
            (context, "synthesize", "synth.synthesize", None),
            (context, "generate_mutants", "mutation.generate_mutants", None),
            (context, "estimate_equivalents",
             "mutation.estimate_equivalents", None),
            (StuckAtModel, "collapse", "fault.collapse", None),
        ):
            setattr(owner, attr, self._wrap(getattr(owner, attr), layer,
                                            count))

    def _wrap(self, original, layer: str, count):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            tracer = self.tracer
            if tracer is None:
                return original(*args, **kwargs)
            with tracer.span(layer):
                result = original(*args, **kwargs)
            if count is not None:
                count(tracer, result, args)
            return result

        return traced


def _self(tracer: Tracer, layer: str) -> float:
    return tracer.layers.get(layer, {}).get("self_s", 0.0)


def _total(tracer: Tracer, layer: str) -> float:
    return tracer.layers.get(layer, {}).get("total_s", 0.0)


def _calls(tracer: Tracer, layer: str) -> int:
    return tracer.layers.get(layer, {}).get("calls", 0)


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


#: Stages of the default pipeline (``stage.<name>.s`` metrics).
STAGES = ("synth", "mutants", "search", "fault-validation", "metrics",
          "sampling")


def layer_metrics(setup: Tracer, run: Tracer, events: LayerEvents,
                  wall_s: float, grid_workers: int) -> dict[str, float]:
    """The per-layer metrics of one traced pass (all zero where unused)."""
    c = run.counters
    dispatch_s = _total(run, "grid.dispatch")
    metrics = {
        "mutation.comb_kill_sets.self_s": _self(run, "mutation.comb_kill_sets"),
        "mutation.comb_kill_sets.calls": _calls(run, "mutation.comb_kill_sets"),
        "mutation.comb_kill_sets.evals": c["mutation.comb_kill_sets.evals"],
        "mutation.run_mutant.self_s": _self(run, "mutation.run_mutant"),
        "mutation.run_mutant.calls": _calls(run, "mutation.run_mutant"),
        "mutation.run_mutant.kill_ratio": _ratio(
            c["mutation.run_mutant.kills"],
            _calls(run, "mutation.run_mutant"),
        ),
        "mutation.triage_survivors.self_s": _self(
            run, "mutation.triage_survivors"
        ),
        "mutation.reference_outputs.self_s": _self(
            run, "mutation.reference_outputs"
        ),
        "mutation.estimate_equivalents.total_s": _total(
            run, "mutation.estimate_equivalents"
        ),
        "search.generate.self_s": _self(run, "search.generate"),
        "search.generate.candidates": c["search.generate.candidates"],
        "fault.simulate.self_s": _self(run, "fault.simulate"),
        "fault.simulate.fault_patterns": c["fault.simulate.fault_patterns"],
        "testgen.podem.run.self_s": _self(run, "testgen.podem.run"),
        "testgen.podem.run.decisions": c["testgen.podem.run.decisions"],
        "testgen.podem.run.backtracks": c["testgen.podem.run.backtracks"],
        "testgen.podem.run.detected_ratio": _ratio(
            c["testgen.podem.run.detected"], c["testgen.podem.run.targets"]
        ),
        "grid.dispatch.total_s": dispatch_s,
        "grid.units": events.units,
        "grid.unit_busy_s": events.unit_busy_s,
        "grid.wait_s": (
            dispatch_s - events.unit_busy_s / grid_workers
            if events.units else 0.0
        ),
        "synth.synthesize.s": _total(setup, "synth.synthesize"),
        "fault.collapse.s": _total(setup, "fault.collapse"),
        "mutation.generate_mutants.s": _total(
            setup, "mutation.generate_mutants"
        ),
        "unattributed_s": wall_s - run.root_s,
    }
    for stage in STAGES:
        metrics[f"stage.{stage}.s"] = events.stage_s.get(stage, 0.0)
    return metrics


def metric_names() -> tuple[str, ...]:
    return tuple(layer_metrics(Tracer(), Tracer(), LayerEvents(), 0.0, 1))


def top_layer(run: Tracer) -> str:
    """The layer with the largest self time."""
    if not run.layers:
        return ""
    return max(run.layers, key=lambda name: run.layers[name]["self_s"])


#: Deterministic work counters: equal on every pass of the same code.
COUNTERS = (
    "mutation.comb_kill_sets.calls",
    "mutation.comb_kill_sets.evals",
    "mutation.run_mutant.calls",
    "mutation.run_mutant.kill_ratio",
    "search.generate.candidates",
    "fault.simulate.fault_patterns",
    "testgen.podem.run.decisions",
    "testgen.podem.run.backtracks",
    "testgen.podem.run.detected_ratio",
    "grid.units",
)
