"""Command-line interface: ``python -m repro <command>``.

Commands

* ``list``       — registered benchmark circuits
* ``show``       — stats of one circuit (mutants, gates, faults)
* ``synth``      — synthesize a circuit and print its ``.bench`` netlist
* ``mutants``    — list (a sample of) a circuit's mutants
* ``analyze``    — static netlist analysis of one circuit: structural
  lint (cycles, undriven/multi-driven nets, dead logic), SCOAP
  testability scores and an untestable-fault prune preview per model
* ``lint``       — AST lint of Python sources against the repo's
  determinism invariants (``repro lint src`` runs in CI)
* ``engines``    — registered netlist-simulation backends
* ``fault-models`` — registered fault models (stuck-at, transition, seu)
* ``strategies`` — registered search and sampling strategies
* ``grid``       — registered grid schedulers / job-store inspection
* ``replay``     — re-execute a stored kill witness from a campaign
  result JSON (``repro replay result.json <mutant-id>``), or explain
  why a mutant has none (survivor triage)
* ``testgen``    — generate mutation-adequate validation data
* ``run``        — execute a full campaign from a JSON config file
  (``--resume`` continues a killed run: finished circuits from the
  result cache, finished grid work units from the job store;
  ``--grid remote --coordinator URL`` dispatches units to a
  coordinator's attached workers)
* ``serve``      — run a repro.net coordinator: grid unit broker plus
  the campaign-as-a-service front door
* ``worker``     — attach a worker daemon to a coordinator
* ``submit``     — submit a campaign config to a coordinator and
  stream its event envelopes back as JSON lines
* ``trace``      — top-k self-time summary (or ``--validate`` schema
  check) of a Chrome trace-event JSON written by ``repro run --trace``
* ``top``        — refreshing live view of a coordinator's
  ``GET /metrics`` telemetry (queue depth, worker throughput,
  per-campaign progress)
* ``status``     — one-shot campaign progress from a coordinator URL
  or an on-disk event journal under a ``serve --cache-dir``
* ``bench-diff`` — compare benchmark trajectory runs and flag
  regressions (the CI perf gate)
* ``table1``     — regenerate the paper's Table 1
* ``table2``     — regenerate the paper's Table 2
* ``atpg-reuse`` — the §1 validation-reuse experiment
* ``ablation``   — sampling-rate / weight-scheme ablations
* ``search-compare`` — search strategies at an equal candidate budget

Every subcommand is a thin consumer of the campaign pipeline, and its
options build one :class:`repro.campaign.CampaignConfig`.  There is one
list of those options, in ``campaign/config.py``: a field with ``help``
metadata is the flag ``--<field name with dashes>``, typed, defaulted
and described by the field, with choices from the engine, fault-model,
search or grid registry.  Each command names the fields it accepts:

* ``table1`` / ``table2`` take the seeds, budgets, simulation, search
  and execution fields (``--jobs``, ``--grid*``, ``--cache-dir``, ...);
* the lab-based commands (``atpg-reuse``, ``ablation``,
  ``search-compare``) take only the fields they read — the flags
  among ``LAB_FIELDS`` (the fields a per-circuit lab is built from)
  plus the seeds and ``--max-vectors`` their facade takes — so any
  other flag is an argparse error rather than silently dropped;
* ``repro run`` replays a campaign described entirely by a JSON config
  file, overriding a fixed set of its fields from the same flags.

``--random-budget`` sets both random budgets.
"""

from __future__ import annotations

import argparse
import sys
import typing
from dataclasses import fields

from repro.campaign.config import (
    DEFAULT_CIRCUITS,
    DEFAULT_OPERATORS,
    LAB_FIELDS,
    CampaignConfig,
)

_FIELDS = {f.name: f for f in fields(CampaignConfig)}
_TYPES = typing.get_type_hints(CampaignConfig)

#: The config flags of the table commands (``table2`` adds ``fraction``).
_TABLE_FLAGS = (
    "seed", "testgen_seed", "sampling_seed", "equivalence_budget",
    "max_vectors", "engine", "fault_model", "prune_untestable",
    "static_prescreen", "search", "search_budget",
    "jobs", "grid", "grid_workers", "grid_shard", "coordinator",
    "cache_dir", "cache_max_entries",
)

#: The config fields ``repro run`` overrides on top of its config file.
_RUN_OVERRIDES = (
    "circuits", "jobs", "grid", "grid_workers", "grid_shard",
    "coordinator", "engine", "fault_model", "cache_dir",
    "cache_max_entries", "search", "search_budget",
)


def _lab_flags(*facade_fields: str) -> tuple[str, ...]:
    """The ``LAB_FIELDS`` that are flags, plus ``facade_fields``.

    ``facade_fields`` are the other config fields the command's facade
    reads from the config it is handed.
    """
    return tuple(
        name for name in LAB_FIELDS if "help" in _FIELDS[name].metadata
    ) + facade_fields


def _choices(name: str) -> tuple[str, ...] | None:
    """The registry names a registry-backed field accepts."""
    from repro.engine import engine_names
    from repro.fault.models import fault_model_names
    from repro.grid import scheduler_names
    from repro.search import search_strategy_names

    registry = {
        "engine": engine_names, "fault_model": fault_model_names,
        "grid": scheduler_names, "search": search_strategy_names,
    }.get(name)
    return registry() if registry else None


def _add_config_flags(parser: argparse.ArgumentParser, names,
                      override: bool = False) -> None:
    """One ``--field-name`` flag per ``CampaignConfig`` field in ``names``.

    ``override`` flags default to ``None``: not given, the value from
    the config file stands.
    """
    for name in names:
        field = _FIELDS[name]
        kind = _TYPES[name]
        if type(None) in typing.get_args(kind):  # ``X | None``
            kind = typing.get_args(kind)[0]
        help_text = field.metadata["help"]
        options = dict(
            default=None if override else field.default,
            help=f"{help_text}; overrides the config file" if override
            else help_text,
        )
        if kind is bool:
            options.update(action="store_true")
        else:
            options.update(metavar=field.metadata.get("metavar"),
                           choices=_choices(name))
            if typing.get_origin(kind) is tuple:
                options.update(nargs="*")
            elif kind is not str:
                options.update(type=kind)
        parser.add_argument("--" + name.replace("_", "-"), **options)


def _add_experiment_flags(parser: argparse.ArgumentParser, names) -> None:
    """The ``names`` config flags plus ``--random-budget``."""
    parser.add_argument("--random-budget", type=int, default=None,
                        help="random baseline length (sets both the "
                             "combinational and the sequential budget)")
    _add_config_flags(parser, names)


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the result as JSON to PATH")
    parser.add_argument("--progress", action="store_true",
                        help="report per-stage progress on stderr")


def _campaign_config(args, **overrides) -> CampaignConfig:
    """One CampaignConfig from the parsed config flags.

    A field the subcommand declares no flag for keeps its default.
    ``--circuits`` is not read here: the table commands hand it to
    ``Campaign.run`` and keep the config's list (and so the archived
    config) at its default.
    """
    values = {
        f.name: getattr(args, f.name)
        for f in fields(CampaignConfig)
        if "help" in f.metadata and f.name != "circuits"
        and hasattr(args, f.name)
    }
    if getattr(args, "random_budget", None) is not None:
        values["random_budget_comb"] = args.random_budget
        values["random_budget_seq"] = args.random_budget
    return CampaignConfig(**{**values, **overrides})


def _events(args):
    from repro.campaign.events import CampaignEvents, ProgressEvents

    if getattr(args, "progress", False):
        return ProgressEvents()
    return CampaignEvents()


def _archive(args, produce_json) -> None:
    """Write ``produce_json()`` to ``--json PATH`` when requested.

    Takes a producer so the (potentially large) serialization only
    happens when the user asked for an archive.
    """
    if getattr(args, "json", None):
        from repro.experiments.report import write_json

        write_json(args.json, produce_json())


def main(argv: list[str] | None = None) -> int:
    from repro.errors import ReproError

    try:
        return _main(argv)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Mutation sampling for structural test data generation "
            "(Scholive et al., DATE 2005 reproduction)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmark circuits")

    show = sub.add_parser("show", help="circuit statistics")
    show.add_argument("circuit")

    synth = sub.add_parser("synth", help="print the synthesized .bench")
    synth.add_argument("circuit")

    mutants = sub.add_parser("mutants", help="list mutants")
    mutants.add_argument("circuit")
    mutants.add_argument("--operator", default=None)
    mutants.add_argument("--limit", type=int, default=20)

    analyze = sub.add_parser(
        "analyze",
        help="static netlist analysis: structure lint, testability, "
             "untestable-fault preview",
    )
    analyze.add_argument("circuit")
    analyze.add_argument("--json", action="store_true",
                         help="emit the report as JSON")

    lint = sub.add_parser(
        "lint", help="lint Python sources for repo determinism invariants"
    )
    lint.add_argument("paths", nargs="*", default=["src"],
                      help="files or directories to lint (default: src)")
    lint.add_argument("--rules", default=None,
                      help="comma-separated rule subset (default: all)")
    lint.add_argument("--json", action="store_true",
                      help="emit findings as JSON")

    sub.add_parser("engines", help="list netlist-simulation backends")

    sub.add_parser("fault-models", help="list registered fault models")

    sub.add_parser(
        "strategies", help="list search and sampling strategies"
    )

    grid = sub.add_parser(
        "grid",
        help="list grid schedulers, or inspect a job store",
    )
    grid.add_argument("--store", default=None, metavar="DIR",
                      help="cache directory whose grid job store(s) to "
                           "inspect")
    grid.add_argument("--config", default=None, metavar="PATH",
                      help="campaign config JSON narrowing --store to "
                           "one fingerprint")

    replay = sub.add_parser(
        "replay",
        help="re-execute a stored kill witness from a campaign result",
    )
    replay.add_argument("result", help="campaign result JSON "
                                       "(from --json PATH)")
    replay.add_argument("mid", type=int, help="mutant id to replay")
    replay.add_argument("--circuit", default=None,
                        help="restrict the witness search to one circuit")
    replay.add_argument("--strategy", default=None,
                        help="restrict the witness search to one "
                             "strategy row")

    testgen = sub.add_parser(
        "testgen", help="generate mutation-adequate validation data"
    )
    testgen.add_argument("circuit")
    testgen.add_argument("--operator", default=None)
    # --seed stays the generator seed it has always been here.
    testgen.add_argument("--seed", "--testgen-seed", dest="testgen_seed",
                         type=int, default=CampaignConfig.testgen_seed,
                         help=_FIELDS["testgen_seed"].metadata["help"])
    _add_config_flags(testgen, ("max_vectors", "search", "search_budget"))

    run = sub.add_parser(
        "run", help="execute a campaign from a JSON config file"
    )
    run.add_argument("config", help="path to a CampaignConfig JSON file")
    _add_config_flags(run, _RUN_OVERRIDES, override=True)
    run.add_argument("--resume", action="store_true",
                     help="resume a killed run (needs --cache-dir): "
                          "finished circuits come from the result "
                          "cache, and with a grid scheduler finished "
                          "work units come from the job store")
    _add_output_flags(run)
    run.add_argument("--telemetry", action="store_true",
                     help="collect execution metrics and print a "
                          "summary on stderr (never affects results "
                          "or fingerprints)")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="write a Chrome trace-event JSON of the run "
                          "(open in Perfetto / chrome://tracing, or "
                          "summarize with 'repro trace PATH')")

    serve = sub.add_parser(
        "serve",
        help="run a repro.net coordinator (unit broker + campaign "
             "service)",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1; use "
                            "0.0.0.0 to accept remote workers)")
    serve.add_argument("--port", type=int, default=8752,
                       help="bind port (default: 8752; 0 = ephemeral)")
    serve.add_argument("--cache-dir", default=None,
                       help="shared result-cache / job-store directory; "
                            "completed units are persisted here so "
                            "'repro run --resume' survives a "
                            "coordinator crash")
    serve.add_argument("--lease-timeout", type=float, default=None,
                       help="seconds a worker may stay silent before "
                            "its units are reassigned (default: 60)")
    serve.add_argument("--no-service", action="store_true",
                       help="plain unit broker: refuse campaign "
                            "submissions")
    serve.add_argument("--verbose", action="store_true",
                       help="also log every HTTP request")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="stitch the span buffers workers attach to "
                            "their completions into one Chrome trace, "
                            "written to PATH on shutdown")

    worker = sub.add_parser(
        "worker", help="attach a worker daemon to a coordinator"
    )
    worker.add_argument("coordinator",
                        help="coordinator base URL (http://host:port)")
    worker.add_argument("--name", default=None,
                        help="worker name shown in coordinator logs "
                             "(default: hostname-pid)")
    worker.add_argument("--max-units", type=int, default=None,
                        help="exit after completing this many units")
    worker.add_argument("--max-idle", type=float, default=None,
                        help="exit after this many consecutive idle "
                             "seconds")

    submit = sub.add_parser(
        "submit",
        help="submit a campaign to a coordinator and stream its "
             "events",
    )
    submit.add_argument("coordinator",
                        help="coordinator base URL (http://host:port)")
    submit.add_argument("config",
                        help="path to a CampaignConfig JSON file")
    submit.add_argument("--circuits", nargs="*", default=None,
                        help="override the config's circuit list")
    submit.add_argument("--since", type=int, default=0,
                        help="resume the event stream from this "
                             "sequence number")
    submit.add_argument("--poll", type=float, default=0.5,
                        help="event poll interval in seconds "
                             "(default: 0.5)")
    submit.add_argument("--quiet", action="store_true",
                        help="suppress the event stream; print only "
                             "the final summary")
    submit.add_argument("--json", default=None, metavar="PATH",
                        help="also write the result as JSON to PATH")

    trace = sub.add_parser(
        "trace",
        help="summarize a trace file from 'repro run --trace'",
    )
    trace.add_argument("trace", help="Chrome trace-event JSON file")
    trace.add_argument("--top", type=int, default=15,
                       help="spans to show, ranked by self time "
                            "(default: 15)")
    trace.add_argument("--validate", action="store_true",
                       help="check the trace-event schema instead of "
                            "summarizing (exit 1 on violations)")

    top = sub.add_parser(
        "top",
        help="live view of a coordinator's /metrics telemetry",
    )
    top.add_argument("coordinator",
                     help="coordinator base URL (http://host:port)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="refresh interval in seconds (default: 2)")
    top.add_argument("--once", action="store_true",
                     help="print one snapshot and exit (no screen "
                          "clearing; scripts and CI)")

    status = sub.add_parser(
        "status",
        help="campaign progress from a coordinator or an event journal",
    )
    status.add_argument("target",
                        help="coordinator base URL (http://host:port), "
                             "a journal directory, a campaign directory "
                             "holding one, or a serve --cache-dir root")
    status.add_argument("--campaign", default=None,
                        help="restrict to one campaign id")
    status.add_argument("--json", action="store_true",
                        help="emit the progress snapshots as JSON")

    bench_diff = sub.add_parser(
        "bench-diff",
        help="compare benchmark trajectory runs and flag regressions",
    )
    bench_diff.add_argument("fresh",
                            help="trajectory JSON holding the candidate "
                                 "run (benchmarks/BENCH_*.json)")
    bench_diff.add_argument("baseline", nargs="?", default=None,
                            help="baseline trajectory JSON (default: "
                                 "the run before the latest in FRESH)")
    bench_diff.add_argument("--tolerance", type=float, default=None,
                            help="allowed fractional degradation before "
                                 "a metric regresses (default: 0.5)")

    table1 = sub.add_parser("table1", help="regenerate Table 1")
    table1.add_argument("--circuits", nargs="*", default=list(DEFAULT_CIRCUITS))
    _add_experiment_flags(table1, _TABLE_FLAGS)
    _add_output_flags(table1)

    table2 = sub.add_parser("table2", help="regenerate Table 2")
    table2.add_argument("--circuits", nargs="*", default=list(DEFAULT_CIRCUITS))
    table2.add_argument("--no-calibrate", action="store_true")
    _add_experiment_flags(table2, _TABLE_FLAGS + ("fraction",))
    _add_output_flags(table2)

    # The lab-based commands declare only the fields their facade reads.
    reuse = sub.add_parser("atpg-reuse", help="validation-reuse experiment")
    reuse.add_argument("--circuits", nargs="*",
                       default=["c17", "c432", "c499"])
    reuse.add_argument("--json", default=None, metavar="PATH",
                       help="also write the rows as JSON to PATH")
    _add_experiment_flags(reuse, _lab_flags("testgen_seed", "max_vectors"))

    ablation = sub.add_parser("ablation", help="ablation studies")
    ablation.add_argument("kind", choices=["rate", "weights"])
    ablation.add_argument("--circuit", default="b01")
    ablation.add_argument("--json", default=None, metavar="PATH",
                          help="also write the rows as JSON to PATH")
    _add_experiment_flags(ablation, _lab_flags(
        "sampling_seed", "testgen_seed", "max_vectors",
    ))

    compare = sub.add_parser(
        "search-compare",
        help="compare search strategies at an equal candidate budget",
    )
    compare.add_argument("--circuits", nargs="*", default=None,
                         help="circuits to compare on (default: c432 b01)")
    compare.add_argument("--strategies", nargs="*", default=None,
                         choices=_choices("search"),
                         help="strategies to compare (default: all)")
    compare.add_argument("--budget", type=int, default=512,
                         help="candidate budget per strategy run")
    compare.add_argument("--json", default=None, metavar="PATH",
                         help="also write the rows as JSON to PATH")
    # The strategy is swept here, so --search is out; an unset seed
    # resolves to the shipped comparison's DEFAULT_SEARCH_SEED in
    # _cmd_search_compare.
    _add_experiment_flags(compare, _lab_flags("testgen_seed", "max_vectors"))
    compare.set_defaults(testgen_seed=None)
    return parser


def _main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    command = args.command

    if command == "list":
        from repro.circuits import circuit_names, get_circuit

        for name in circuit_names():
            info = get_circuit(name)
            style = "seq " if info.sequential else "comb"
            print(f"{name:6s} [{info.family:7s} {style}] {info.description}")
        return 0

    if command == "show":
        return _cmd_show(args)
    if command == "synth":
        from repro.circuits import load_circuit
        from repro.netlist.bench import write_bench
        from repro.synth import synthesize

        print(write_bench(synthesize(load_circuit(args.circuit))), end="")
        return 0
    if command == "mutants":
        return _cmd_mutants(args)
    if command == "analyze":
        return _cmd_analyze(args)
    if command == "lint":
        return _cmd_lint(args)
    if command == "engines":
        return _cmd_engines()
    if command == "fault-models":
        return _cmd_fault_models()
    if command == "strategies":
        return _cmd_strategies()
    if command == "grid":
        return _cmd_grid(args)
    if command == "replay":
        return _cmd_replay(args)
    if command == "testgen":
        return _cmd_testgen(args)
    if command == "run":
        return _cmd_run(args)
    if command == "serve":
        return _cmd_serve(args)
    if command == "worker":
        return _cmd_worker(args)
    if command == "submit":
        return _cmd_submit(args)
    if command == "trace":
        return _cmd_trace(args)
    if command == "top":
        return _cmd_top(args)
    if command == "status":
        return _cmd_status(args)
    if command == "bench-diff":
        return _cmd_bench_diff(args)
    if command == "table1":
        from repro.campaign.runner import Campaign
        from repro.experiments.report import table1_text

        config = _campaign_config(
            args, operators=DEFAULT_OPERATORS, strategies=(),
        )
        result = Campaign(config, _events(args)).run(tuple(args.circuits))
        print(table1_text(result.table1()))
        _archive(args, result.to_json)
        return 0
    if command == "table2":
        from repro.campaign.runner import Campaign
        from repro.experiments.report import table2_text

        calibrate = not args.no_calibrate
        config = _campaign_config(
            args,
            operators=DEFAULT_OPERATORS if calibrate else (),
            strategies=("random", "test-oriented"),
            weight_scheme="calibrated" if calibrate else "paper-ranks",
        )
        result = Campaign(config, _events(args)).run(tuple(args.circuits))
        print(table2_text(result.table2()))
        _archive(args, result.to_json)
        return 0
    if command == "atpg-reuse":
        from repro.experiments.atpg_reuse import run_atpg_reuse
        from repro.experiments.report import rows_text, to_json

        rows = run_atpg_reuse(
            circuits=tuple(args.circuits), config=_campaign_config(args),
        )
        print(
            rows_text(
                rows,
                ["Circuit", "Mode", "Preload", "Cov0%", "Faults",
                 "Decisions", "Backtracks", "ATPG vecs", "Final%"],
                ["circuit", "mode", "preload_vectors",
                 "preload_coverage_pct", "targeted_faults", "decisions",
                 "backtracks", "atpg_vectors", "final_coverage_pct"],
                "Validation-data reuse vs deterministic-only ATPG",
            )
        )
        _archive(args, lambda: to_json(rows))
        return 0
    if command == "ablation":
        from repro.experiments.ablation import (
            run_rate_ablation,
            run_weight_ablation,
        )
        from repro.experiments.report import rows_text, to_json

        runner = run_rate_ablation if args.kind == "rate" else (
            run_weight_ablation
        )
        rows = runner(circuit=args.circuit, config=_campaign_config(args))
        print(
            rows_text(
                rows,
                ["Circuit", "Variant", "Fraction", "Selected", "MS%",
                 "NLFCE"],
                ["circuit", "variant", "fraction", "selected", "ms_pct",
                 "nlfce"],
                f"Ablation: {args.kind}",
            )
        )
        _archive(args, lambda: to_json(rows))
        return 0
    if command == "search-compare":
        return _cmd_search_compare(args)
    parser.error(f"unknown command {command!r}")
    return 2


def _cmd_show(args) -> int:
    from repro.circuits import get_circuit, load_circuit
    from repro.fault import collapse_faults, generate_faults
    from repro.mutation import generate_mutants, mutants_by_operator
    from repro.synth import synthesize

    info = get_circuit(args.circuit)
    design = load_circuit(args.circuit)
    netlist = synthesize(design)
    mutants = generate_mutants(design)
    groups = mutants_by_operator(mutants)
    print(f"{info.name}: {info.description}")
    print(f"  family      : {info.family}")
    print(f"  style       : {'sequential' if info.sequential else 'combinational'}")
    stats = netlist.stats()
    print(f"  gates/dffs  : {stats['gates']} / {stats['dffs']}")
    print(f"  logic depth : {stats['depth']}")
    print(f"  faults      : {len(generate_faults(netlist))} uncollapsed, "
          f"{len(collapse_faults(netlist))} collapsed")
    print(f"  mutants     : {len(mutants)} "
          f"({', '.join(f'{op}:{len(ms)}' for op, ms in sorted(groups.items()))})")
    return 0


def _cmd_analyze(args) -> int:
    import json

    from repro.analyze import analyze_testability, lint_netlist
    from repro.analyze.prune import split_untestable
    from repro.circuits import load_circuit
    from repro.fault.models import fault_model_names, get_fault_model
    from repro.synth import synthesize

    netlist = synthesize(load_circuit(args.circuit))
    analysis = analyze_testability(netlist)
    findings = lint_netlist(netlist)
    prune: dict[str, dict] = {}
    for model_name in fault_model_names():
        model = get_fault_model(model_name)()
        faults = model.collapse(netlist)
        _, pruned = split_untestable(netlist, faults, analysis)
        reasons: dict[str, int] = {}
        for _, reason in pruned:
            reasons[reason] = reasons.get(reason, 0) + 1
        prune[model_name] = {
            "faults": len(faults),
            "pruned": len(pruned),
            "reasons": dict(sorted(reasons.items())),
        }
    report = {
        "circuit": args.circuit,
        "stats": netlist.stats(),
        "testability": analysis.summary(),
        "findings": [finding.to_dict() for finding in findings],
        "prune": prune,
    }
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    stats = report["stats"]
    print(f"{args.circuit}: {stats['gates']} gates, {stats['dffs']} dffs, "
          f"{stats['nets']} nets")
    t = report["testability"]
    print(f"  constants     : {len(t['constant_nets'])} nets proven "
          f"constant")
    print(f"  unobservable  : {len(t['unobservable_nets'])} nets with no "
          f"path to an output")
    print(f"  scoap         : mean difficulty {t['mean_difficulty']}, "
          f"max {t['max_difficulty']}")
    for model_name, row in prune.items():
        why = ", ".join(f"{k}:{v}" for k, v in row["reasons"].items())
        print(f"  prune[{model_name:10s}]: {row['pruned']}/{row['faults']} "
              f"provably untestable{f' ({why})' if why else ''}")
    if findings:
        print(f"  {len(findings)} structural finding(s):")
        for finding in findings:
            print(f"    [{finding.check}] {finding.net}: {finding.detail}")
    else:
        print("  structure     : clean")
    return 0


def _cmd_lint(args) -> int:
    import json

    from repro.analyze.lint import lint_paths, rule_names

    rules: tuple[str, ...] = ()
    if args.rules:
        rules = tuple(
            name.strip() for name in args.rules.split(",") if name.strip()
        )
        for name in rules:
            if name not in rule_names():
                from repro.errors import AnalyzeError

                raise AnalyzeError(
                    f"unknown lint rule {name!r} "
                    f"(registered: {', '.join(rule_names())})"
                )
    findings = lint_paths(args.paths, rules)
    if args.json:
        print(json.dumps(
            [finding.to_dict() for finding in findings],
            indent=2, sort_keys=True,
        ))
    else:
        for finding in findings:
            print(finding)
        label = "finding" if len(findings) == 1 else "findings"
        print(f"repro lint: {len(findings)} {label}")
    return 1 if findings else 0


def _cmd_engines() -> int:
    from repro.engine import DEFAULT_ENGINE, engine_names, get_engine

    for name in engine_names():
        cls = get_engine(name)
        doc = (cls.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        marker = "*" if name == DEFAULT_ENGINE else " "
        print(f"{marker} {name:10s} {summary}")
    print("(* = default backend)")
    return 0


def _cmd_fault_models() -> int:
    from repro.fault.models import (
        DEFAULT_FAULT_MODEL,
        fault_model_names,
        get_fault_model,
    )

    for name in fault_model_names():
        cls = get_fault_model(name)
        doc = (cls.__doc__ or "").strip().splitlines()
        summary = doc[0] if doc else ""
        marker = "*" if name == DEFAULT_FAULT_MODEL else " "
        print(f"{marker} {name:10s} {summary}")
    print("(* = default fault model)")
    return 0


def _cmd_replay(args) -> int:
    """Re-execute one stored kill witness and verify it still kills."""
    from pathlib import Path

    from repro.campaign.result import CampaignResult
    from repro.circuits import load_circuit
    from repro.errors import ConfigError
    from repro.mutation import MutationEngine, generate_mutants

    try:
        text = Path(args.result).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read campaign result: {exc}") from exc
    result = CampaignResult.from_json(text)

    mid = args.mid
    key = str(mid)
    for circuit in result.circuits:
        if args.circuit is not None and circuit.circuit != args.circuit:
            continue
        for row in circuit.strategies:
            if args.strategy is not None and row.strategy != args.strategy:
                continue
            label = f"{circuit.circuit}/{row.strategy}"
            witness = row.witnesses.get(key)
            if witness is None:
                # No witness: explain why from the triage records.
                category = next(
                    (
                        cat for cat, mids in (row.triage or {}).items()
                        if mid in mids
                    ),
                    None,
                )
                if category is not None:
                    print(
                        f"{label}: mutant {mid} survived — "
                        f"triaged as {category}"
                    )
                    return 1
                continue
            cycle, reason = witness[0], witness[1]
            design = load_circuit(circuit.circuit)
            mutants = generate_mutants(design)
            if not 0 <= mid < len(mutants):
                print(
                    f"{label}: witness for mutant {mid} found, but the "
                    f"id is outside the population "
                    f"(0..{len(mutants) - 1})"
                )
                return 2
            record = MutationEngine(design).run_mutant(
                mutants[mid], list(row.vectors)
            )
            print(
                f"{label}: mutant {mid} ({mutants[mid]})\n"
                f"  stored  : killed at cycle {cycle} ({reason})\n"
                f"  replayed: "
                + (
                    f"killed at cycle {record.cycle} ({record.reason})"
                    if record.killed
                    else "NOT killed"
                )
            )
            if (
                record.killed
                and record.cycle == cycle
                and record.reason == reason
            ):
                print("  verdict : witness verified")
                return 0
            print("  verdict : MISMATCH with the stored witness")
            return 2
    scope = ""
    if args.circuit or args.strategy:
        scope = (
            f" (searched circuit={args.circuit or 'any'}, "
            f"strategy={args.strategy or 'any'})"
        )
    print(f"no kill witness for mutant {mid} in {args.result}{scope}")
    return 1


def _cmd_strategies() -> int:
    from repro.sampling import STRATEGIES
    from repro.search import DEFAULT_SEARCH, SEARCH_STRATEGIES

    def summary(cls) -> str:
        doc = (cls.__doc__ or "").strip().splitlines()
        return doc[0] if doc else ""

    print("search strategies (candidate-vector proposal, --search):")
    for name in sorted(SEARCH_STRATEGIES):
        marker = "*" if name == DEFAULT_SEARCH else " "
        print(f"{marker} {name:14s} {summary(SEARCH_STRATEGIES[name])}")
    print("sampling strategies (mutant selection, campaign 'strategies'):")
    for name in sorted(STRATEGIES):
        print(f"  {name:14s} {summary(STRATEGIES[name])}")
    print("(* = default search strategy)")
    return 0


def _cmd_grid(args) -> int:
    from repro.grid import DEFAULT_SCHEDULER, SCHEDULERS, scheduler_names

    if args.store is None:
        for name in scheduler_names():
            cls = SCHEDULERS[name]
            doc = (cls.__doc__ or "").strip().splitlines()
            summary = doc[0] if doc else ""
            marker = "*" if name == DEFAULT_SCHEDULER else " "
            print(f"{marker} {name:10s} {summary}")
        print("(* = reference scheduler; all are bit-identical to it)")
        return 0
    return _cmd_grid_store(args)


def _cmd_grid_store(args) -> int:
    """List stored work units under a cache directory."""
    from pathlib import Path

    from repro.grid import JobStore, STORE_VERSION

    base = Path(args.store)
    if args.config is not None:
        config = CampaignConfig.from_file(args.config)
        directories = [
            base / f"grid-{config.fingerprint()}-v{STORE_VERSION}"
        ]
    else:
        directories = sorted(base.glob("grid-*"))
    found = False
    for directory in directories:
        if not directory.is_dir():
            continue
        # (circuit, stage, key) -> [done, planned, compute seconds]
        groups: dict[tuple[str, str, str], list] = {}
        for unit in JobStore.read_directory(directory):
            try:
                key = (unit["circuit"], unit["stage"], unit["key"])
                total = int(unit["total"])
            except (TypeError, ValueError, KeyError):
                continue
            row = groups.setdefault(key, [0, total, 0.0])
            row[0] += 1
            row[2] += float(unit.get("seconds") or 0.0)
        if not groups:
            continue
        found = True
        print(f"{directory.name}:")
        for (circuit, stage, key), (done, total, secs) in sorted(
            groups.items()
        ):
            print(
                f"  {circuit:8s} {stage:18s} {key:24s} "
                f"{done:4d}/{total:<4d} unit(s) done, "
                f"{secs:7.2f}s compute"
            )
    if not found:
        print("no stored grid units found")
    return 0


def _cmd_search_compare(args) -> int:
    from repro.experiments.report import rows_text, to_json
    from repro.experiments.search_compare import (
        DEFAULT_SEARCH_CIRCUITS,
        DEFAULT_SEARCH_SEED,
        run_search_compare,
    )

    if args.testgen_seed is None:
        args.testgen_seed = DEFAULT_SEARCH_SEED
    rows = run_search_compare(
        circuits=tuple(args.circuits or DEFAULT_SEARCH_CIRCUITS),
        strategies=tuple(args.strategies) if args.strategies else None,
        budget=args.budget,
        config=_campaign_config(args),
    )
    print(
        rows_text(
            rows,
            ["Circuit", "Strategy", "Budget", "Tried", "Vectors",
             "Killed", "Targets", "Kill%", "Kills/1k"],
            ["circuit", "strategy", "budget", "candidates", "vectors",
             "killed", "targets", "kill_pct", "kills_per_1k"],
            "Search strategies at an equal candidate budget",
        )
    )
    _archive(args, lambda: to_json(rows))
    return 0


def _cmd_mutants(args) -> int:
    from repro.circuits import load_circuit
    from repro.mutation import generate_mutants

    design = load_circuit(args.circuit)
    names = [args.operator] if args.operator else None
    mutants = generate_mutants(design, names)
    for mutant in mutants[: args.limit]:
        print(mutant)
    if len(mutants) > args.limit:
        print(f"... and {len(mutants) - args.limit} more")
    return 0


def _cmd_testgen(args) -> int:
    from repro.circuits import load_circuit
    from repro.mutation import generate_mutants
    from repro.testgen import MutationTestGenerator

    config = _campaign_config(args)
    design = load_circuit(args.circuit)
    names = [args.operator] if args.operator else None
    mutants = generate_mutants(design, names)
    generator = MutationTestGenerator.from_config(design, config)
    result = generator.generate(mutants)
    print(
        f"{len(result.vectors)} vectors kill {len(result.killed_mids)}/"
        f"{result.total_targets} mutants "
        f"({100 * result.kill_fraction:.1f}%)"
    )
    width = max((design.stimulus_width() + 3) // 4, 1)
    for vector in result.vectors:
        print(f"  {vector:0{width}x}")
    return 0


def _cmd_run(args) -> int:
    from repro.campaign.runner import Campaign
    from repro.experiments.report import campaign_text

    config = CampaignConfig.from_file(args.config)
    overrides = {
        name: getattr(args, name) for name in _RUN_OVERRIDES
        if getattr(args, name) is not None
    }
    if args.telemetry:
        overrides["telemetry"] = True
    if args.trace:
        # Execution-only, like telemetry: grid and remote workers see
        # config.trace and ship span buffers home in their envelopes.
        overrides["trace"] = True
    config = config.replace(**overrides)
    events = _events(args)
    tracer = None
    if args.trace:
        from repro.campaign.events import TeeEvents, TracingEvents
        from repro.obs.trace import Tracer

        tracer = Tracer()
        events = TeeEvents(TracingEvents(tracer), events)
    # A resume without a cache directory is rejected by Campaign.run
    # (the single owner of that validation).
    campaign = Campaign(config, events)
    if tracer is not None:
        from repro.obs.trace import tracing

        # Active for the run, so the schedulers stitch worker span
        # buffers into this tracer as completions are harvested.
        with tracing(tracer):
            result = campaign.run(resume=args.resume)
    else:
        result = campaign.run(resume=args.resume)
    if tracer is not None:
        tracer.write(args.trace)
        print(
            f"trace: {len(tracer)} event(s) written to {args.trace}",
            file=sys.stderr,
        )
    if args.telemetry and campaign.last_metrics is not None:
        _print_metrics(campaign.last_metrics.snapshot())
    print(campaign_text(result))
    _archive(args, result.to_json)
    return 0


def _print_metrics(snapshot: dict) -> None:
    """Telemetry summary on stderr (keeps stdout parseable)."""
    counters = snapshot.get("counters") or {}
    gauges = snapshot.get("gauges") or {}
    histograms = snapshot.get("histograms") or {}
    if not (counters or gauges or histograms):
        return
    print("telemetry:", file=sys.stderr)
    for name in sorted(counters):
        print(f"  {name:44s} {counters[name]}", file=sys.stderr)
    for name in sorted(gauges):
        print(f"  {name:44s} {gauges[name]:g}", file=sys.stderr)
    for name in sorted(histograms):
        hist = histograms[name]
        quantiles = hist.get("quantiles") or {}
        tail = "".join(
            f" {label}={quantiles[label]:.3f}s"
            for label in ("p50", "p95", "p99")
            if label in quantiles
        )
        print(
            f"  {name:44s} count={hist['count']} sum={hist['sum']:.3f}s"
            f"{tail}",
            file=sys.stderr,
        )


def _cmd_trace(args) -> int:
    """Top-k self-time summary of a Chrome trace-event JSON."""
    import json
    from pathlib import Path

    from repro.errors import ConfigError
    from repro.obs.trace import summarize

    try:
        text = Path(args.trace).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read trace file: {exc}") from exc
    try:
        trace = json.loads(text)
    except ValueError as exc:
        raise ConfigError(f"malformed trace JSON: {exc}") from exc
    if args.validate:
        from repro.obs.trace import validate_trace

        try:
            count = validate_trace(trace)
        except ValueError as exc:
            print(f"repro trace: invalid: {exc}", file=sys.stderr)
            return 1
        print(f"trace OK: {count} event(s)")
        return 0
    rows = summarize(trace, top=args.top)
    if not rows:
        print("no spans in trace")
        return 1
    print(f"{'span':44s} {'count':>6s} {'total':>10s} {'self':>10s}")
    for row in rows:
        print(
            f"{row['name'][:44]:44s} {row['count']:6d} "
            f"{row['total_us'] / 1e6:9.3f}s {row['self_us'] / 1e6:9.3f}s"
        )
    return 0


def _render_top(snapshot: dict, previous: dict, now: float,
                progress: dict | None = None) -> str:
    """One frame of ``repro top``.

    ``previous`` maps worker id -> (monotonic time, completed_total)
    from the last frame; per-worker rates come from the deltas.
    ``progress`` optionally maps campaign id -> a
    :class:`~repro.obs.progress.ProgressTracker` snapshot, rendered
    as an indented pane under the campaign's line.
    """
    lines = [
        f"queue: {snapshot.get('queue_depth', 0)} pending, "
        f"{snapshot.get('leased_units', 0)} leased, "
        f"{snapshot.get('waves', 0)} wave(s)"
    ]
    workers = snapshot.get("workers") or []
    if workers:
        lines.append("")
        lines.append(
            f"  {'worker':26s} {'leased':>6s} {'done':>7s} {'rate/s':>8s}"
        )
        for worker in workers:
            wid = str(worker.get("worker", "?"))
            name = str(worker.get("name") or wid)
            done = int(worker.get("completed_total") or 0)
            last = previous.get(wid)
            rate = "-"
            if last is not None and now > last[0]:
                rate = f"{(done - last[1]) / (now - last[0]):.2f}"
            previous[wid] = (now, done)
            lines.append(
                f"  {name[:26]:26s} {int(worker.get('leased') or 0):6d} "
                f"{done:7d} {rate:>8s}"
            )
    campaigns = snapshot.get("campaigns") or []
    for campaign in campaigns:
        cid = str(campaign.get("campaign"))
        lines.append(
            f"  campaign {cid}: "
            f"{campaign.get('status')} "
            f"({campaign.get('events', 0)} event(s))"
        )
        snap = (progress or {}).get(cid)
        if snap:
            from repro.obs.progress import format_status

            # The first format_status line repeats the state shown
            # right above; the panes below it are the value added.
            for line in format_status(snap)[1:]:
                lines.append(f"    {line}")
    metrics = snapshot.get("metrics") or {}
    counters = metrics.get("counters") or {}
    if counters:
        lines.append("")
        ranked = sorted(counters.items(), key=lambda kv: (-kv[1], kv[0]))
        for name, value in ranked[:12]:
            lines.append(f"  {name:44s} {value}")
    histograms = metrics.get("histograms") or {}
    if histograms:
        lines.append("")
        for name in sorted(histograms)[:8]:
            hist = histograms[name]
            quantiles = hist.get("quantiles") or {}
            tail = "".join(
                f" {label}={quantiles[label]:.3f}s"
                for label in ("p50", "p95", "p99")
                if label in quantiles
            )
            lines.append(
                f"  {name:44s} count={hist.get('count', 0)}{tail}"
            )
    return "\n".join(lines)


def _top_progress(client, snapshot: dict, trackers: dict) -> dict:
    """Fold each campaign's event stream into a progress snapshot.

    ``trackers`` maps campaign id -> ``(ProgressTracker, next seq)``
    and persists across frames, so every frame fetches only the events
    that landed since the previous one.
    """
    from repro.errors import ReproError
    from repro.obs.progress import ProgressTracker

    progress: dict[str, dict] = {}
    for entry in snapshot.get("campaigns") or []:
        cid = str(entry.get("campaign"))
        tracker, since = trackers.get(cid) or (ProgressTracker(), 0)
        try:
            events = client.campaign_events(cid, since)
        except ReproError:
            events = []  # raced a restart; retry next frame
        for event in events:
            tracker.feed(event)
            seq = event.get("seq")
            since = seq + 1 if isinstance(seq, int) else since + 1
        trackers[cid] = (tracker, since)
        progress[cid] = tracker.snapshot()
    return progress


def _cmd_top(args) -> int:
    """Refreshing one-screen view of a coordinator's telemetry."""
    import time

    from repro.net import CoordinatorClient

    client = CoordinatorClient(args.coordinator)
    client.ping()
    previous: dict[str, tuple[float, int]] = {}
    trackers: dict[str, tuple] = {}
    try:
        while True:
            started = time.monotonic()
            snapshot = client.metrics()
            frame = _render_top(
                snapshot, previous, started,
                _top_progress(client, snapshot, trackers),
            )
            if args.once:
                print(frame)
                return 0
            # ANSI clear + home, then the frame — one screen, no scroll.
            print(f"\x1b[2J\x1b[H{client.url}\n{frame}", flush=True)
            delay = max(args.interval, 0.2) - (time.monotonic() - started)
            if delay > 0:
                time.sleep(delay)
    except KeyboardInterrupt:
        print()
        return 0


def _cmd_serve(args) -> int:
    from repro.net import DEFAULT_LEASE_TIMEOUT, CoordinatorServer

    tracer = None
    if args.trace:
        from repro.obs.trace import Tracer

        tracer = Tracer(pid="coordinator")
    server = CoordinatorServer(
        host=args.host,
        port=args.port,
        cache_dir=args.cache_dir,
        lease_timeout=(
            args.lease_timeout if args.lease_timeout is not None
            else DEFAULT_LEASE_TIMEOUT
        ),
        service=not args.no_service,
        verbose=args.verbose,
        tracer=tracer,
    )
    store = f", job store: {args.cache_dir}" if args.cache_dir else ""
    mode = "broker only" if args.no_service else "broker + service"
    print(
        f"coordinator listening on {server.url} ({mode}{store})",
        file=sys.stderr,
        flush=True,
    )
    # SIGTERM (process managers, the remote smoke's reap) must unwind
    # like Ctrl-C does, so journals close and the trace gets written.
    def _terminate(signum, frame):
        raise SystemExit(0)

    import signal

    signal.signal(signal.SIGTERM, _terminate)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("coordinator: interrupted, shutting down", file=sys.stderr)
    finally:
        server.close()
        if tracer is not None:
            tracer.write(args.trace)
            print(
                f"trace: {len(tracer)} event(s) written to {args.trace}",
                file=sys.stderr,
            )
    return 0


def _journal_streams(target: str) -> list[tuple[str, list[dict]]]:
    """``(campaign id, events)`` pairs from an on-disk journal tree.

    Accepts a journal directory itself, a campaign directory holding a
    ``journal/`` subdirectory, or a ``serve --cache-dir`` root (all of
    whose ``service/<cid>/journal`` trees are listed).
    """
    import os

    from repro.errors import ConfigError
    from repro.obs.journal import read_records

    if not os.path.isdir(target):
        raise ConfigError(
            f"status target {target!r} is neither a coordinator URL "
            "nor a directory"
        )

    def is_journal(directory: str) -> bool:
        try:
            names = os.listdir(directory)
        except OSError:
            return False
        return any(
            name == "active.jsonl" or name.startswith("segment-")
            for name in names
        )

    normalized = os.path.normpath(target)
    if is_journal(normalized):
        cid = os.path.basename(os.path.dirname(normalized)) or normalized
        return [(cid, read_records(normalized))]
    nested = os.path.join(normalized, "journal")
    if os.path.isdir(nested):
        return [(os.path.basename(normalized), read_records(nested))]
    service = os.path.join(normalized, "service")
    root = service if os.path.isdir(service) else normalized
    streams: list[tuple[str, list[dict]]] = []
    try:
        names = sorted(os.listdir(root))
    except OSError:
        names = []
    for name in names:
        candidate = os.path.join(root, name, "journal")
        if os.path.isdir(candidate):
            streams.append((name, read_records(candidate)))
    return streams


def _cmd_status(args) -> int:
    """One-shot campaign progress from a coordinator or a journal."""
    import json

    from repro.obs.progress import ProgressTracker, format_status

    if args.target.startswith(("http://", "https://")):
        from repro.net import CoordinatorClient

        client = CoordinatorClient(args.target)
        client.ping()
        streams = [
            (str(entry.get("campaign")),
             client.campaign_events(str(entry.get("campaign")), 0))
            for entry in client.metrics().get("campaigns") or []
        ]
    else:
        streams = _journal_streams(args.target)
    if args.campaign is not None:
        streams = [
            (cid, events) for cid, events in streams
            if cid == args.campaign
        ]
    if not streams:
        print("no campaigns found")
        return 1
    reports: dict[str, dict] = {}
    for cid, events in streams:
        tracker = ProgressTracker()
        tracker.feed_all(events)
        reports[cid] = tracker.snapshot()
    if args.json:
        print(json.dumps(reports, indent=2, sort_keys=True))
        return 0
    for cid in sorted(reports):
        print(f"campaign {cid}:")
        for line in format_status(reports[cid]):
            print(f"  {line}")
    return 0


def _cmd_bench_diff(args) -> int:
    """Gate: compare benchmark trajectory runs, exit 1 on regressions."""
    from repro.errors import ConfigError
    from repro.obs.benchdiff import DEFAULT_TOLERANCE, compare_trajectories

    tolerance = (
        args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
    )
    try:
        report = compare_trajectories(
            args.fresh, args.baseline, tolerance=tolerance
        )
    except (OSError, ValueError) as exc:
        raise ConfigError(f"bench-diff: {exc}") from exc
    note = report.get("note")
    if note:
        print(f"bench-diff: {note}")
        return 0
    for entry in report["regressions"]:
        print(
            f"REGRESSION {entry['metric']}: {entry['baseline']:g} -> "
            f"{entry['fresh']:g} ({entry['ratio']:.2f}x)  [{entry['row']}]"
        )
    for entry in report["improved"]:
        print(
            f"improved   {entry['metric']}: {entry['baseline']:g} -> "
            f"{entry['fresh']:g} ({entry['ratio']:.2f}x)  [{entry['row']}]"
        )
    for entry in report["skipped"]:
        print(f"skipped    {entry['row']}: {entry['reason']}")
    print(
        f"bench-diff: {len(report['regressions'])} regression(s), "
        f"{len(report['improved'])} improved, {report['ok']} ok, "
        f"{len(report['skipped'])} skipped, "
        f"{report['unmatched']} unmatched "
        f"(tolerance {tolerance:.0%})"
    )
    return 1 if report["regressions"] else 0


def _cmd_worker(args) -> int:
    from repro.net import WorkerDaemon

    daemon = WorkerDaemon(
        args.coordinator,
        name=args.name or "",
        max_units=args.max_units,
        max_idle=args.max_idle,
    )
    try:
        daemon.run()
    except KeyboardInterrupt:
        print("worker: interrupted, exiting", file=sys.stderr)
    return 0


#: ``repro submit`` never sleeps longer than this between polls, no
#: matter how long the event stream has been quiet.
SUBMIT_BACKOFF_CAP = 10.0


def _cmd_submit(args) -> int:
    import json
    import random
    import time

    from repro.campaign.result import CampaignResult
    from repro.experiments.report import campaign_text
    from repro.net import CoordinatorClient
    from repro.obs import metrics as _metrics
    from repro.obs.metrics import Metrics

    config = CampaignConfig.from_file(args.config)
    if args.circuits is not None:
        config = config.replace(circuits=tuple(args.circuits))
    client = CoordinatorClient(args.coordinator)
    client.ping()
    cid = client.submit_campaign(config.to_dict())["campaign"]
    print(f"submitted campaign {cid} to {client.url}", file=sys.stderr)

    stats = Metrics()

    def drain(since: int) -> tuple[int, bool]:
        fresh = False
        for event in client.campaign_events(cid, since):
            fresh = True
            stats.counter("submit.events")
            since = int(event.get("seq", since)) + 1
            if not args.quiet:
                print(json.dumps(event, sort_keys=True), flush=True)
        return since, fresh

    # Quiet polls back off exponentially to a cap; any event resets
    # the delay to the base interval.  The jitter keeps a fleet of
    # watchers from synchronizing their polls against one coordinator.
    base = max(args.poll, 0.05)
    cap = max(base, SUBMIT_BACKOFF_CAP)
    delay = base
    jitter = random.Random(cid)
    since = max(0, args.since)
    while True:
        since, fresh = drain(since)
        status = client.campaign_status(cid)
        stats.counter("submit.polls")
        if status["status"] in ("done", "failed"):
            # Events that landed between the drain and the status
            # read are picked up by one final drain.
            drain(since)
            break
        if fresh:
            delay = base
        else:
            stats.counter("submit.backoffs")
            delay = min(delay * 2.0, cap)
        time.sleep(jitter.uniform(base, delay))
    counters = stats.snapshot()["counters"]
    print(
        f"campaign {cid}: {counters.get('submit.events', 0)} event(s) "
        f"over {counters.get('submit.polls', 0)} poll(s), "
        f"{counters.get('submit.backoffs', 0)} backoff(s)",
        file=sys.stderr,
    )
    active = _metrics.active()
    if active.enabled:
        active.merge(stats.snapshot())
    if status["status"] == "failed":
        print(
            f"repro: campaign {cid} failed: "
            f"{status.get('error', 'unknown error')}",
            file=sys.stderr,
        )
        return 1
    result = CampaignResult.from_dict(status["result"])
    print(campaign_text(result))
    _archive(args, result.to_json)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
