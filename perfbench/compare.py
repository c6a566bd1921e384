"""Compare two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Both files hold run records as ``run.py`` appends them to
``perfbench/out/records.jsonl``.  For every workload and end-to-end
metric it prints the median of each side and the change as a share of
the base median, and marks a change worse than the metric's bound in
``BENCHMARK.json`` as a regression (exit 1).  Like ``repro bench-diff``
it refuses to compare records measured on different numbers of CPUs
(exit 2).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: str) -> list[dict]:
    """The untraced runs of a records file."""
    with open(path, encoding="utf-8") as handle:
        records = [json.loads(line) for line in handle if line.strip()]
    return [record for record in records if not record["trace"]]


def medians(records: list[dict]) -> dict[tuple[str, str], float]:
    values: dict[tuple[str, str], list[float]] = {}
    for record in records:
        for metric, value in record["metrics"].items():
            values.setdefault((record["workload"], metric), []).append(value)
    return {key: statistics.median(v) for key, v in values.items()}


def compare(base: list[dict], new: list[dict], bounds: dict) -> dict:
    """``{"refused": reason}`` or ``{"rows": [...], "regressions": n}``."""
    cpus = {r["stamp"]["cpus"] for r in base + new}
    if len(cpus) > 1:
        return {"refused": f"records measured on different cpus: "
                           f"{sorted(cpus)}"}
    base_m, new_m = medians(base), medians(new)
    rows = []
    for key in sorted(base_m.keys() & new_m.keys()):
        workload, metric = key
        if metric not in bounds:
            continue
        better, bound = bounds[metric]
        old, fresh = base_m[key], new_m[key]
        change = (fresh - old) / old if old else 0.0
        worse = change if better == "lower" else -change
        rows.append({
            "workload": workload, "metric": metric, "base": old,
            "new": fresh, "change": change, "regressed": worse > bound,
        })
    flagged = [r["workload"] for r in base + new if r.get("nondeterministic")]
    return {
        "rows": rows,
        "regressions": sum(row["regressed"] for row in rows),
        "nondeterministic": sorted(set(flagged)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("base")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    report = compare(load(args.base), load(args.new), bounds)
    if "refused" in report:
        print(f"compare.py: refused: {report['refused']}", file=sys.stderr)
        return 2
    for row in report["rows"]:
        verdict = "REGRESSED" if row["regressed"] else "ok"
        print(f"{row['workload']:14s} {row['metric']:20s} "
              f"{row['base']:12.6g} -> {row['new']:12.6g} "
              f"({row['change']:+.1%}) {verdict}")
    for workload in report["nondeterministic"]:
        print(f"warning: {workload} has runs flagged nondeterministic",
              file=sys.stderr)
    return 1 if report["regressions"] else 0


if __name__ == "__main__":
    sys.exit(main())
