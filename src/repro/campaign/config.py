"""Typed, JSON-round-trippable configuration for campaign runs.

:class:`CampaignConfig` is the one object that governs the whole
mutation-sampling flow: the lab budgets and seed (:data:`LAB_FIELDS`,
the slice a :func:`repro.experiments.get_lab` lab is built from), the
test-generation knobs (read by
``MutationTestGenerator.from_config``), the sampling strategy
selection, the stage pipeline, and the execution policy (parallel jobs,
on-disk result cache).  It serializes to plain JSON (``to_json`` /
``from_json`` / ``from_file``) so a campaign can be described in a
config file and replayed bit-for-bit.

The *fingerprint* — a stable hash over every field that influences the
computed numbers — keys the on-disk result cache and the grid job
store.  Execution-only fields (``circuits``, ``jobs``, ``cache_dir``,
``grid_workers``, ``cache_max_entries``) are excluded: running the
same science on more workers must hit the same cache entries and
resume from the same stored work units.  Two retired fields stay in
the fingerprint payload at the values existing entries were computed
at: ``"fault_lanes": 256`` (the sequential fault simulator now runs
each fault list in one word; detections never depended on the width)
and ``"search_stale_rounds": null`` (the cap only duplicated
``stall_rounds``).  ``from_dict`` drops the ``fault_lanes`` key that
older result archives carry, and folds a ``search_stale_rounds`` cap
into ``stall_rounds``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, fields

from repro.engine import DEFAULT_ENGINE, engine_names
from repro.errors import ConfigError, FaultError
from repro.fault.models import (
    DEFAULT_FAULT_MODEL,
    build_fault_model,
    fault_model_names,
)
from repro.search import DEFAULT_SEARCH, search_strategy_names

#: The four circuits of the paper's evaluation.
DEFAULT_CIRCUITS = ("b01", "b03", "c432", "c499")
#: The operators of the paper's Table 1.
DEFAULT_OPERATORS = ("LOR", "VR", "CVR", "CR")

#: The default stage pipeline.  Stages are incremental — each processes
#: only the work earlier stages queued that it has not handled yet — so
#: the calibration pass (per-operator test sets and their NLFCE, the
#: paper's Table 1) runs to completion before ``sampling`` derives
#: calibrated weights and queues the per-strategy work, which the second
#: ``search``/``fault-validation``/``metrics`` pass then evaluates.
#: ``search`` is the strategy-driven test generation stage (the
#: ``search`` config block picks the :mod:`repro.search` strategy; the
#: default ``random`` reproduces the historical ``testgen`` stage
#: bit-for-bit, and ``testgen`` remains registered as an alias).
DEFAULT_PIPELINE = (
    "synth",
    "mutants",
    "search",
    "fault-validation",
    "metrics",
    "sampling",
    "search",
    "fault-validation",
    "metrics",
)

#: How the test-oriented sampler's operator weights are derived.
WEIGHT_SCHEMES = ("calibrated", "paper-ranks", "uniform")

#: Fields that change how a campaign *executes*, not what it computes.
#: (``grid_workers`` is pure execution width — a campaign killed on two
#: workers must resume on eight against the same cache and job-store
#: entries; ``grid``/``grid_shard`` stay in the fingerprint as
#: provenance, like ``engine``.)
EXECUTION_FIELDS = frozenset(
    {"circuits", "jobs", "cache_dir", "grid_workers", "cache_max_entries",
     "coordinator", "telemetry", "trace"}
)

#: The fields a per-circuit lab (:class:`repro.experiments.CircuitLab`:
#: netlist, fault list, random baseline, equivalence sweep) is built
#: from.  They key the :func:`repro.experiments.get_lab` memo, so
#: campaigns that differ only outside this slice share one lab.
LAB_FIELDS = (
    "seed", "random_budget_comb", "random_budget_seq", "equivalence_budget",
    "engine", "fault_model", "fault_model_knobs", "prune_untestable",
)

_TUPLE_FIELDS = ("operators", "strategies", "sample_labels", "stages",
                 "circuits")


def _flag(default, help: str, **metadata):
    """A field ``repro.cli`` exposes as the flag ``--<name-with-dashes>``."""
    return dataclasses.field(
        default=default, metadata={"help": help, **metadata}
    )


@dataclass
class CampaignConfig:
    """Everything a :class:`repro.campaign.Campaign` needs to run.

    A field with ``help`` metadata is a CLI flag: ``repro.cli`` derives
    the flag's spelling, type, default and help from the field.
    """

    # -- seeds ---------------------------------------------------------------
    seed: int = _flag(20050301, "master experiment seed (random baseline, "
                                "equivalence classification)")
    testgen_seed: int = _flag(7, "mutation-adequate generator seed")
    sampling_seed: int = _flag(13, "mutant sampling seed")

    # -- lab budgets (part of LAB_FIELDS) -------------------------------------
    random_budget_comb: int = 2048
    random_budget_seq: int = 1024
    equivalence_budget: int = _flag(
        256, "stimuli for equivalent-mutant classification"
    )

    # -- simulation backend --------------------------------------------------
    # In the fingerprint so the result cache never mixes backends — the
    # backends are bit-identical by contract, recording one is about
    # provenance, not results.
    engine: str = _flag(
        DEFAULT_ENGINE, "repro.engine backend every netlist and fault "
                        "simulation runs on"
    )

    # -- fault model ---------------------------------------------------------
    # Fingerprinted — different models compute different numbers — but
    # omitted from the fingerprint payload at its default so existing
    # stuck-at configs keep their byte-identical fingerprints (and
    # their cache / job-store entries).
    fault_model: str = _flag(
        DEFAULT_FAULT_MODEL, "fault model of every fault list and fault "
                             "simulation (validation and NLFCE)"
    )
    #: per-model knobs forwarded to the model constructor (e.g. the
    #: ``seu`` model's ``cycles``/``stride``); ``None`` = model
    #: defaults.  Fingerprinted unless ``None``, same reasoning.
    fault_model_knobs: dict | None = None

    # -- static analysis -----------------------------------------------------
    # Fingerprinted anyway — dropped at its default so existing
    # fingerprints survive — to record provenance.
    prune_untestable: bool = _flag(
        False, "skip simulating faults repro.analyze proves untestable "
               "(payloads stay bit-identical: pruned faults are reported "
               "undetected)"
    )
    # Fingerprinted (dropped at default): it reassigns triage
    # categories, which are part of the payload.
    static_prescreen: bool = _flag(
        False, "tag mutants in provably dead behavioural logic as "
               "possibly-equivalent instead of running their equivalence "
               "kill sweep"
    )

    # -- test generation knobs -----------------------------------------------
    max_vectors: int = _flag(256, "cap on generated validation vectors")
    batch_size: int = 64
    chunk_length: int = 4
    chunk_candidates: int = 6
    stall_rounds: int = 4

    # -- candidate search (the repro.search subsystem) -----------------------
    search: str = _flag(
        DEFAULT_SEARCH, "repro.search strategy proposing candidate vectors "
                        "during test generation (random: the paper's "
                        "blind draw)"
    )
    search_budget: int | None = _flag(
        None, "total candidate-vector cap per target (default: uncapped)"
    )
    #: per-strategy knobs forwarded to the strategy constructor.
    search_knobs: dict | None = None

    # -- calibration / sampling ----------------------------------------------
    operators: tuple[str, ...] = DEFAULT_OPERATORS
    strategies: tuple[str, ...] = ("random", "test-oriented")
    fraction: float = _flag(
        0.10, "fraction of the mutant population each sampling strategy "
              "selects"
    )
    weight_scheme: str = "calibrated"
    #: Explicit operator weights; when set, ``weight_scheme`` is ignored.
    weights: dict[str, float] | None = None
    #: Extra labels mixed into the sampling RNG stream (ablation variants).
    sample_labels: tuple[str, ...] = ()

    # -- pipeline ------------------------------------------------------------
    stages: tuple[str, ...] = DEFAULT_PIPELINE

    # -- grid execution (within-circuit sharding) ----------------------------
    # Fingerprinted for provenance — all schedulers are bit-identical
    # to serial by contract.
    grid: str | None = _flag(
        None, "repro.grid scheduler sharding work units inside each "
              "circuit (supersedes --jobs; default: the unsharded path)"
    )
    # Fingerprinted: it defines the unit boundaries the job store is
    # keyed by.
    grid_shard: int = _flag(
        0, "items (faults/mutants) per grid work unit (0 = auto: split "
           "each axis into up to 16 units)"
    )
    # Execution-only: resuming on a different pool size reuses every
    # stored unit.
    grid_workers: int = _flag(1, "workers for the grid scheduler")
    # Execution-only — *where* units run, never *what* they compute, so
    # a campaign started against one coordinator resumes against
    # another (or locally) unchanged.
    coordinator: str | None = _flag(
        None, "coordinator base URL for --grid remote (http://host:port)",
        metavar="URL",
    )

    # -- execution (excluded from the fingerprint) ---------------------------
    circuits: tuple[str, ...] = _flag(DEFAULT_CIRCUITS, "circuits to run")
    jobs: int = _flag(
        1, "parallel worker processes over whole circuits (see --grid "
           "for within-circuit sharding)"
    )
    cache_dir: str | None = _flag(
        None, "directory for the on-disk result cache and the grid job "
              "store"
    )
    cache_max_entries: int | None = _flag(
        None, "LRU bound (mtime-ordered sweep) on result-cache entries "
              "(default: unlimited)"
    )
    #: collect :mod:`repro.obs` metrics during the run.  Execution-only
    #: by contract — telemetry observes the computation and never feeds
    #: it, so it stays out of the fingerprint and cached results are
    #: shared between instrumented and plain runs.
    telemetry: bool = False
    #: collect :mod:`repro.obs` trace spans during the run — including
    #: inside grid/remote workers, whose span buffers ride the result
    #: envelopes home and are stitched into the parent's trace.  Same
    #: execution-only contract as ``telemetry``.
    trace: bool = False

    def __post_init__(self) -> None:
        for name in _TUPLE_FIELDS:
            value = getattr(self, name)
            if not isinstance(value, tuple):
                setattr(self, name, tuple(value))
        if self.weights is not None:
            self.weights = {
                str(op): float(w) for op, w in self.weights.items()
            }
        if self.engine not in engine_names():
            raise ConfigError(
                f"engine must be one of {engine_names()}, "
                f"got {self.engine!r}"
            )
        if self.fault_model not in fault_model_names():
            raise ConfigError(
                f"fault_model must be one of {fault_model_names()}, "
                f"got {self.fault_model!r}"
            )
        if self.fault_model_knobs is not None:
            self.fault_model_knobs = {
                str(knob): value
                for knob, value in self.fault_model_knobs.items()
            }
        try:
            build_fault_model(self.fault_model, self.fault_model_knobs)
        except FaultError as exc:
            raise ConfigError(str(exc)) from exc
        if self.search not in search_strategy_names():
            raise ConfigError(
                f"search must be one of {search_strategy_names()}, "
                f"got {self.search!r}"
            )
        if self.search_budget is not None and self.search_budget < 1:
            raise ConfigError(
                f"search_budget must be >= 1, got {self.search_budget}"
            )
        if self.search_knobs is not None:
            self.search_knobs = {
                str(knob): value for knob, value in self.search_knobs.items()
            }
        if self.random_budget_comb < 1 or self.random_budget_seq < 1:
            raise ConfigError(
                f"random budgets must be >= 1, got comb="
                f"{self.random_budget_comb} seq={self.random_budget_seq}"
            )
        if self.weight_scheme not in WEIGHT_SCHEMES:
            raise ConfigError(
                f"weight_scheme must be one of {WEIGHT_SCHEMES}, "
                f"got {self.weight_scheme!r}"
            )
        if not 0.0 < self.fraction <= 1.0:
            raise ConfigError(
                f"fraction must be in (0, 1], got {self.fraction}"
            )
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")
        if self.grid is not None:
            from repro.grid import scheduler_names

            if self.grid not in scheduler_names():
                raise ConfigError(
                    f"grid must be one of {scheduler_names()}, "
                    f"got {self.grid!r}"
                )
        if self.grid_shard < 0:
            raise ConfigError(
                f"grid_shard must be >= 0, got {self.grid_shard}"
            )
        if self.grid_workers < 1:
            raise ConfigError(
                f"grid_workers must be >= 1, got {self.grid_workers}"
            )
        if self.coordinator is not None and not isinstance(
            self.coordinator, str
        ):
            raise ConfigError(
                f"coordinator must be a URL string, got "
                f"{type(self.coordinator).__name__}"
            )
        if self.grid == "remote" and not self.coordinator:
            raise ConfigError(
                "the remote grid scheduler needs the coordinator "
                "option (--coordinator http://host:port)"
            )
        if self.cache_max_entries is not None and self.cache_max_entries < 1:
            raise ConfigError(
                f"cache_max_entries must be >= 1, got "
                f"{self.cache_max_entries}"
            )
        self.telemetry = bool(self.telemetry)
        self.trace = bool(self.trace)
        self.prune_untestable = bool(self.prune_untestable)
        self.static_prescreen = bool(self.static_prescreen)

    def lab_config(self) -> "CampaignConfig":
        """The :data:`LAB_FIELDS` slice: every other field at its default."""
        return CampaignConfig(
            **{name: getattr(self, name) for name in LAB_FIELDS}
        )

    # -- serialization -------------------------------------------------------

    def to_dict(self) -> dict:
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignConfig":
        if not isinstance(data, dict):
            raise ConfigError(
                f"campaign config must be an object, got "
                f"{type(data).__name__}"
            )
        # Archives written while these were fields carry them: the
        # lane width changed no result, and the stale-round cap only
        # ever tightened ``stall_rounds``.
        stale = data.get("search_stale_rounds")
        data = {key: value for key, value in data.items()
                if key not in ("fault_lanes", "search_stale_rounds")}
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(
                f"unknown campaign config keys: {', '.join(unknown)}"
            )
        config = cls(**data)
        if stale is None:
            return config
        if not isinstance(stale, int) or stale < 1:
            raise ConfigError(
                f"search_stale_rounds must be >= 1, got {stale!r}"
            )
        return config.replace(stall_rounds=min(config.stall_rounds, stale))

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "CampaignConfig":
        try:
            data = json.loads(text)
        except ValueError as exc:
            raise ConfigError(f"invalid campaign config JSON: {exc}") from exc
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path) -> "CampaignConfig":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigError(f"cannot read campaign config: {exc}") from exc
        return cls.from_json(text)

    def replace(self, **changes) -> "CampaignConfig":
        """A copy with ``changes`` applied (dataclasses.replace)."""
        return dataclasses.replace(self, **changes)

    def fingerprint(self) -> str:
        """Stable hash over every result-affecting field.

        Keys the on-disk result cache together with the circuit name and
        the cache format version.
        """
        payload = {
            key: value
            for key, value in self.to_dict().items()
            if key not in EXECUTION_FIELDS
        }
        # The fault-model fields joined the config after the cache and
        # job-store formats stabilized; dropping them at their defaults
        # keeps every pre-existing stuck-at fingerprint byte-identical.
        if payload.get("fault_model") == DEFAULT_FAULT_MODEL:
            payload.pop("fault_model", None)
        if payload.get("fault_model_knobs") is None:
            payload.pop("fault_model_knobs", None)
        # Same back-compat treatment for the static-analysis knobs.
        if payload.get("prune_untestable") is False:
            payload.pop("prune_untestable", None)
        if payload.get("static_prescreen") is False:
            payload.pop("static_prescreen", None)
        # The retired fields, at the values every existing entry was
        # computed at: detections never depended on the lane width, and
        # ``from_dict`` folds any stale-round cap into ``stall_rounds``.
        payload["fault_lanes"] = 256
        payload["search_stale_rounds"] = None
        canonical = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
