#!/usr/bin/env python
"""Diff the campaign's RTL mutant results against the interpreter.

    python scripts/check_rtl_interp.py      # exit 1 on any mismatch

A campaign runs its mutants on the compiled mutant schema, screened by
the infection probe, whatever ``--engine`` says: that flag picks the
netlist engine only.  This runs ``Campaign`` at the CI smoke budgets
on c17, c432 and every sequential paper design (b01, b02, b03, b06)
three times in one process: on the schema,
again on the schema compiled with every top-level statement its own
unit (``compiler._UNIT_CHARS = 0``, so comb runs resume at as many
units as they can), and with every lab's ``MutationEngine`` on the
reference interpreter (``backend="interp"``, never screened).  It
compares each circuit's ``CircuitResult`` digest (sha256 of sorted-key
compact JSON) of both schema passes with the interpreter's.  The schema
passes run the sequential designs on the clocked machine, the
interpreter's on the delta-cycle testbench.  The interpreter pass
takes about 20 s.
"""

from __future__ import annotations

import functools
import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import Campaign, CampaignConfig  # noqa: E402
from repro.experiments import context  # noqa: E402
from repro.sim import compiler  # noqa: E402

CIRCUITS = ["c17", "b01", "b02", "b03", "b06", "c432"]
#: The CI smoke budgets.
CONFIG = CampaignConfig(
    seed=77, random_budget_comb=96, random_budget_seq=96,
    equivalence_budget=32, max_vectors=24,
)


def digests() -> dict[str, str]:
    result = Campaign(CONFIG).run(CIRCUITS)
    return {
        circuit.circuit: hashlib.sha256(json.dumps(
            circuit.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")).hexdigest()
        for circuit in result.circuits
    }


def main() -> int:
    compiled = digests()
    # Fresh labs, whose schemas compile a unit per statement.
    context._LABS.clear()
    units = compiler._UNIT_CHARS
    compiler._UNIT_CHARS = 0
    try:
        split = digests()
    finally:
        compiler._UNIT_CHARS = units
    # Fresh labs, whose engines run the interpreter.
    context._LABS.clear()
    context.MutationEngine = functools.partial(
        context.MutationEngine, backend="interp"
    )
    interp = digests()
    failed = 0
    for name in CIRCUITS:
        same = compiled[name] == split[name] == interp[name]
        failed += not same
        print(f"{name}: compiled {compiled[name][:16]} "
              f"unit-per-statement {split[name][:16]} "
              f"interp {interp[name][:16]} "
              f"{'ok' if same else 'MISMATCH'}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
