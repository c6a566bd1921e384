#!/usr/bin/env python
"""Run a perf suite; append one run to its ``BENCH_*.json`` trajectory.

Six suites, selected with ``--suite`` (default ``engine``):

* ``engine`` — ``bench_faultsim.py``: fault-simulation throughput per
  backend, appended to ``BENCH_engine.json`` with a per-circuit speedup
  summary of every backend against the ``interp`` reference (sequential
  rows at the default fault-list width appear as ``b03@default``).
* ``search`` — ``bench_search.py``: search-strategy quality at an equal
  candidate budget, appended to ``BENCH_search.json`` as a
  kills-per-candidate trajectory with a per-circuit gain summary of
  every strategy against the ``random`` baseline.
* ``grid`` — ``bench_grid.py``: one circuit's sharded fault validation
  on the ``process`` scheduler at 1/2/4/8 workers, appended to
  ``BENCH_grid.json`` as a workers-vs-throughput trajectory with a
  per-circuit wall-clock speedup summary against the 1-worker run
  (each row records ``cpus`` — interpret speedups against it).
* ``fault`` — ``bench_fault.py``: fault-model simulation throughput
  per registered model (stuck-at, transition, seu), appended to
  ``BENCH_fault.json`` with a per-circuit cost multiple of every model
  against the ``stuck-at`` reference (each row records ``cpus``).
* ``mutation`` — ``bench_mutation.py``: the comb kill sweep
  (``MutationEngine.comb_kill_sets``) on c432 and a slice of c499's
  population, a fresh candidate batch per round, appended to
  ``BENCH_mutation.json`` with a per-circuit seconds-per-sweep summary
  (each row records ``cpus``).
* ``atpg`` — ``bench_podem.py``: ``Podem.run`` on c432 (every 8th
  collapsed fault) and c499 (every 16th) at ``backtrack_limit=24``,
  appended to ``BENCH_atpg.json`` with a per-circuit seconds-per-run
  summary (each row records ``cpus`` and the pinned decision and
  backtrack counts).

All suites run under pytest-benchmark, so the numbers come from calibrated,
warmed-up rounds — compilation cost of the ``compiled`` backend lands
in the warmup.  A fresh process pays it once per netlist, so the engine
suite's ``compiled-cold`` rows time it too (a new engine every round).

Usage::

    python benchmarks/run_benchmarks.py [--suite engine|search|...|all]
                                        [--json PATH] [--pytest-args ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
ENGINE_REFERENCE = "interp"
SEARCH_REFERENCE = "random"


def run_suite(bench_file: str, extra_args: list[str]) -> dict:
    """Run one bench module under pytest-benchmark; return its JSON."""
    with tempfile.TemporaryDirectory() as tmp:
        report = Path(tmp) / "benchmark.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(REPO_ROOT / "src"), str(REPO_ROOT)]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        command = [
            sys.executable, "-m", "pytest",
            str(REPO_ROOT / "benchmarks" / bench_file),
            "-q", "--benchmark-only",
            "--benchmark-min-rounds=3",
            "--benchmark-max-time=0.5",
            f"--benchmark-json={report}",
            *extra_args,
        ]
        subprocess.run(command, check=True, cwd=REPO_ROOT, env=env)
        with open(report, "r", encoding="utf-8") as handle:
            return json.load(handle)


# -- engine suite -------------------------------------------------------------

def engine_rows(report: dict) -> list[dict]:
    rows = []
    for bench in report["benchmarks"]:
        info = bench["extra_info"]
        seconds = bench["stats"]["mean"]
        row = {
            "circuit": info["circuit"],
            "backend": info["engine"],
            "style": info["style"],
            "cpus": info["cpus"],
            "patterns": info["patterns"],
            "faults": info["faults"],
            "seconds_per_pass": seconds,
            "patterns_per_sec": info["patterns"] / seconds,
            "faults_per_sec": info["faults"] / seconds,
        }
        if "lanes" in info:
            row["lanes"] = info["lanes"]
        rows.append(row)
    rows.sort(key=lambda r: (_engine_case(r), r["backend"]))
    return rows


def _engine_case(row: dict) -> str:
    """The circuit, plus the lane width when the row records one."""
    lanes = row.get("lanes")
    return row["circuit"] if lanes is None else f"{row['circuit']}@{lanes}"


def engine_summary(rows: list[dict]) -> dict:
    """backend -> case -> throughput multiple over the reference."""
    reference = {
        _engine_case(row): row["seconds_per_pass"]
        for row in rows if row["backend"] == ENGINE_REFERENCE
    }
    table: dict[str, dict[str, float]] = {}
    for row in rows:
        case = _engine_case(row)
        if row["backend"] == ENGINE_REFERENCE or case not in reference:
            continue
        table.setdefault(row["backend"], {})[case] = round(
            reference[case] / row["seconds_per_pass"], 2
        )
    return table


def engine_print(rows: list[dict], summary: dict) -> None:
    width = max(len(_engine_case(r)) for r in rows)
    for row in rows:
        print(
            f"{_engine_case(row):{width}s} {row['backend']:10s}"
            f" {row['patterns_per_sec']:12.1f} patterns/s"
            f" {row['faults_per_sec']:12.1f} faults/s"
        )
    for backend, per_circuit in summary.items():
        pairs = ", ".join(
            f"{c}: {s:.2f}x" for c, s in sorted(per_circuit.items())
        )
        print(f"speedup {backend} vs {ENGINE_REFERENCE}: {pairs}")


# -- search suite -------------------------------------------------------------

def search_rows(report: dict) -> list[dict]:
    rows = []
    for bench in report["benchmarks"]:
        info = bench["extra_info"]
        seconds = bench["stats"]["mean"]
        candidates = info["candidates"]
        rows.append({
            "circuit": info["circuit"],
            "strategy": info["strategy"],
            "style": info["style"],
            "budget": info["budget"],
            "candidates": candidates,
            "vectors": info["vectors"],
            "killed": info["killed"],
            "targets": info["targets"],
            "seconds_per_run": seconds,
            "kills_per_candidate": (
                info["killed"] / candidates if candidates else 0.0
            ),
            "candidates_per_sec": candidates / seconds if seconds else 0.0,
        })
    rows.sort(key=lambda r: (r["circuit"], r["strategy"]))
    return rows


def search_summary(rows: list[dict]) -> dict:
    """strategy -> circuit -> kills-per-candidate multiple over random."""
    reference = {
        row["circuit"]: row["kills_per_candidate"]
        for row in rows if row["strategy"] == SEARCH_REFERENCE
    }
    table: dict[str, dict[str, float | None]] = {}
    for row in rows:
        base = reference.get(row["circuit"])
        if row["strategy"] == SEARCH_REFERENCE or base is None:
            continue
        # A zero baseline with guided kills is the strongest possible
        # win; keep the entry (as null) rather than dropping the circuit.
        table.setdefault(row["strategy"], {})[row["circuit"]] = (
            round(row["kills_per_candidate"] / base, 2) if base else None
        )
    return table


def search_print(rows: list[dict], summary: dict) -> None:
    width = max(len(r["circuit"]) for r in rows)
    for row in rows:
        print(
            f"{row['circuit']:{width}s} {row['strategy']:10s}"
            f" {row['killed']:5d}/{row['targets']:<5d} killed"
            f" {row['kills_per_candidate']:8.3f} kills/cand"
            f" {row['candidates_per_sec']:10.1f} cand/s"
        )
    for strategy, per_circuit in summary.items():
        pairs = ", ".join(
            f"{c}: {'inf' if s is None else f'{s:.2f}x'}"
            for c, s in sorted(per_circuit.items())
        )
        print(f"gain {strategy} vs {SEARCH_REFERENCE}: {pairs}")


# -- fault-model suite --------------------------------------------------------

FAULT_REFERENCE = "stuck-at"


def fault_rows(report: dict) -> list[dict]:
    rows = []
    for bench in report["benchmarks"]:
        info = bench["extra_info"]
        seconds = bench["stats"]["mean"]
        rows.append({
            "circuit": info["circuit"],
            "model": info["model"],
            "style": info["style"],
            "cpus": info["cpus"],
            "patterns": info["patterns"],
            "faults": info["faults"],
            "seconds_per_pass": seconds,
            "faults_per_sec": info["faults"] / seconds,
        })
    rows.sort(key=lambda r: (r["circuit"], r["model"]))
    return rows


def fault_summary(rows: list[dict]) -> dict:
    """model -> circuit -> wall-clock multiple over stuck-at."""
    reference = {
        row["circuit"]: row["seconds_per_pass"]
        for row in rows if row["model"] == FAULT_REFERENCE
    }
    table: dict[str, dict[str, float]] = {}
    for row in rows:
        base = reference.get(row["circuit"])
        if row["model"] == FAULT_REFERENCE or base is None:
            continue
        table.setdefault(row["model"], {})[row["circuit"]] = round(
            row["seconds_per_pass"] / base, 2
        )
    return table


def fault_print(rows: list[dict], summary: dict) -> None:
    width = max(len(r["circuit"]) for r in rows)
    for row in rows:
        print(
            f"{row['circuit']:{width}s} {row['model']:10s}"
            f" {row['seconds_per_pass']:8.3f} s/pass"
            f" {row['faults_per_sec']:12.1f} faults/s"
        )
    for model, per_circuit in sorted(summary.items()):
        pairs = ", ".join(
            f"{c}: {s:.2f}x" for c, s in sorted(per_circuit.items())
        )
        print(f"cost {model} vs {FAULT_REFERENCE}: {pairs}")


# -- grid suite ---------------------------------------------------------------

GRID_REFERENCE_WORKERS = 1


def grid_rows(report: dict) -> list[dict]:
    rows = []
    for bench in report["benchmarks"]:
        info = bench["extra_info"]
        seconds = bench["stats"]["mean"]
        rows.append({
            "circuit": info["circuit"],
            "workers": info["workers"],
            "cpus": info["cpus"],
            "style": info["style"],
            "engine": info["engine"],
            "patterns": info["patterns"],
            "faults": info["faults"],
            "seconds_per_pass": seconds,
            "faults_per_sec": info["faults"] / seconds,
        })
    rows.sort(key=lambda r: (r["circuit"], r["workers"]))
    return rows


def grid_summary(rows: list[dict]) -> dict:
    """circuit -> workers -> wall-clock multiple over the 1-worker run."""
    reference = {
        row["circuit"]: row["seconds_per_pass"]
        for row in rows if row["workers"] == GRID_REFERENCE_WORKERS
    }
    table: dict[str, dict[str, float]] = {}
    for row in rows:
        base = reference.get(row["circuit"])
        if row["workers"] == GRID_REFERENCE_WORKERS or base is None:
            continue
        table.setdefault(row["circuit"], {})[str(row["workers"])] = round(
            base / row["seconds_per_pass"], 2
        )
    return table


def grid_print(rows: list[dict], summary: dict) -> None:
    width = max(len(r["circuit"]) for r in rows)
    for row in rows:
        print(
            f"{row['circuit']:{width}s} workers={row['workers']}"
            f" (cpus={row['cpus']})"
            f" {row['seconds_per_pass']:8.3f} s/pass"
            f" {row['faults_per_sec']:12.1f} faults/s"
        )
    for circuit, per_workers in sorted(summary.items()):
        pairs = ", ".join(
            f"{w} workers: {s:.2f}x"
            for w, s in sorted(per_workers.items(), key=lambda kv: int(kv[0]))
        )
        print(
            f"speedup {circuit} vs {GRID_REFERENCE_WORKERS} worker: {pairs}"
        )


# -- mutation suite -----------------------------------------------------------

def mutation_rows(report: dict) -> list[dict]:
    rows = []
    for bench in report["benchmarks"]:
        info = bench["extra_info"]
        if "sweep" not in info:
            continue  # the module's other benches are not in the trajectory
        rows.append({
            "circuit": info["circuit"],
            "sweep": info["sweep"],
            "mutants": info["mutants"],
            "vectors": info["vectors"],
            "cpus": info["cpus"],
            "seconds_per_pass": bench["stats"]["mean"],
        })
    rows.sort(key=lambda r: (r["circuit"], r["sweep"]))
    return rows


def mutation_summary(rows: list[dict]) -> dict:
    """circuit -> seconds per sweep."""
    return {row["circuit"]: round(row["seconds_per_pass"], 4) for row in rows}


def mutation_print(rows: list[dict], summary: dict) -> None:
    for row in rows:
        print(
            f"{row['circuit']:5s} {row['sweep']} {row['mutants']} mutants"
            f" x {row['vectors']} vectors (cpus={row['cpus']})"
            f" {row['seconds_per_pass']:8.3f} s/sweep"
        )


# -- atpg suite ---------------------------------------------------------------

def atpg_rows(report: dict) -> list[dict]:
    rows = []
    for bench in report["benchmarks"]:
        info = bench["extra_info"]
        rows.append({
            key: info[key]
            for key in ("circuit", "stride", "backtrack_limit", "faults",
                        "detected", "decisions", "backtracks", "cpus")
        } | {"seconds_per_pass": bench["stats"]["mean"]})
    rows.sort(key=lambda r: r["circuit"])
    return rows


def atpg_summary(rows: list[dict]) -> dict:
    """circuit -> seconds per ``Podem.run``."""
    return {row["circuit"]: round(row["seconds_per_pass"], 4) for row in rows}


def atpg_print(rows: list[dict], summary: dict) -> None:
    for row in rows:
        print(
            f"{row['circuit']:5s} {row['faults']} faults"
            f" ({row['detected']} detected, {row['decisions']} decisions,"
            f" {row['backtracks']} backtracks; cpus={row['cpus']})"
            f" {row['seconds_per_pass']:8.3f} s/run"
        )


SUITES = {
    "engine": {
        "bench": "bench_faultsim.py",
        "out": REPO_ROOT / "BENCH_engine.json",
        "title": "fault-simulation throughput",
        "rows": engine_rows,
        "summary": engine_summary,
        "summary_key": f"speedup_vs_{ENGINE_REFERENCE}",
        "print": engine_print,
    },
    "search": {
        "bench": "bench_search.py",
        "out": REPO_ROOT / "BENCH_search.json",
        "title": "search-strategy kills per candidate",
        "rows": search_rows,
        "summary": search_summary,
        "summary_key": f"gain_vs_{SEARCH_REFERENCE}",
        "print": search_print,
    },
    "fault": {
        "bench": "bench_fault.py",
        "out": REPO_ROOT / "BENCH_fault.json",
        "title": "fault-model simulation throughput",
        "rows": fault_rows,
        "summary": fault_summary,
        "summary_key": f"cost_vs_{FAULT_REFERENCE}",
        "print": fault_print,
    },
    "grid": {
        "bench": "bench_grid.py",
        "out": REPO_ROOT / "BENCH_grid.json",
        "title": "grid fault-validation throughput vs worker count",
        "rows": grid_rows,
        "summary": grid_summary,
        "summary_key": f"speedup_vs_{GRID_REFERENCE_WORKERS}_worker",
        "print": grid_print,
    },
    "mutation": {
        "bench": "bench_mutation.py",
        "out": REPO_ROOT / "BENCH_mutation.json",
        "title": "comb kill-sweep time",
        "rows": mutation_rows,
        "summary": mutation_summary,
        "summary_key": "seconds_per_sweep",
        "print": mutation_print,
    },
    "atpg": {
        "bench": "bench_podem.py",
        "out": REPO_ROOT / "BENCH_atpg.json",
        "title": "PODEM run time",
        "rows": atpg_rows,
        "summary": atpg_summary,
        "summary_key": "seconds_per_run",
        "print": atpg_print,
    },
}


def append_run(path: Path, title: str, rows: list[dict],
               summary_key: str, summary: dict) -> dict:
    """Append one run to the trajectory file; returns the run entry."""
    trajectory = {"benchmark": title, "runs": []}
    if path.exists():
        try:
            with open(path, "r", encoding="utf-8") as handle:
                existing = json.load(handle)
            if isinstance(existing.get("runs"), list):
                trajectory = existing
        except (OSError, ValueError):
            pass  # unreadable trajectory: start a fresh one
    run = {
        "sequence": len(trajectory["runs"]) + 1,
        "rows": rows,
        summary_key: summary,
    }
    trajectory["runs"].append(run)
    # Small summary only — duplicating the full row data here would
    # bloat every committed trajectory diff.
    trajectory["latest"] = {
        "sequence": run["sequence"],
        summary_key: summary,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(trajectory, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return run


def run_one(name: str, json_path: str | None,
            pytest_args: list[str]) -> int:
    suite = SUITES[name]
    report = run_suite(suite["bench"], pytest_args)
    rows = suite["rows"](report)
    if not rows:
        print("no benchmark rows produced", file=sys.stderr)
        return 1
    summary = suite["summary"](rows)
    out = Path(json_path) if json_path else suite["out"]
    append_run(out, suite["title"], rows, suite["summary_key"], summary)
    suite["print"](rows, summary)
    print(f"trajectory written to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="engine",
                        choices=(*SUITES, "all"),
                        help="which benchmark suite to run (default: engine)")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="trajectory file to append to (single suite "
                             "only; default: the suite's BENCH_*.json at "
                             "the repo root)")
    parser.add_argument("pytest_args", nargs="*",
                        help="extra arguments forwarded to pytest")
    args = parser.parse_args(argv)

    names = list(SUITES) if args.suite == "all" else [args.suite]
    if args.json and len(names) > 1:
        parser.error("--json only applies to a single suite")
    for name in names:
        status = run_one(name, args.json, args.pytest_args)
        if status:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main())
