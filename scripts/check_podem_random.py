#!/usr/bin/env python
"""Run the PODEM random-netlist differential over a range of seeds.

    python scripts/check_podem_random.py --seeds 200     # seeds 0..199
    python scripts/check_podem_random.py --start 500 --seeds 50

Each seed builds one random combinational netlist (every gate type, 1-4
inputs) and runs PODEM on every stuck-at fault, checking each
implication against the per-machine three-valued reference, each
``detected`` vector under fault simulation and each ``redundant`` fault
against exhaustive simulation (``check_random_netlist`` in
``tests/test_podem.py``; tier-1 runs a fixed small seed set).  Exits 1
on the first failing seed, with the assertion.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from tests.test_podem import check_random_netlist  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200,
                        help="how many seeds to run (default: 200)")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed (default: 0)")
    args = parser.parse_args(argv)
    started = time.monotonic()
    implications = 0
    for seed in range(args.start, args.start + args.seeds):
        try:
            implications += check_random_netlist(seed)["implications"]
        except AssertionError as exc:
            print(f"seed {seed}: FAILED: {exc}", file=sys.stderr)
            return 1
    print(
        f"podem random differential: {args.seeds} seeds from "
        f"{args.start}, {implications} implications checked in "
        f"{time.monotonic() - started:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
