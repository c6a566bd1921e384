#!/usr/bin/env python
"""Run the sequential cycle-kernel differential over a range of seeds.

    python scripts/check_seq_kernel_random.py --seeds 200     # seeds 0..199
    python scripts/check_seq_kernel_random.py --start 500 --seeds 50

Each seed builds one random sequential netlist whose outputs include a
primary input, a gate cone and a flip-flop output, and whose DFF ``d``
nets include a primary input and a Q.  The stuck-at, transition and
SEU models simulate their whole fault universe on ``interp`` and
``compiled`` at an odd lane width, and both backends' cycle kernels are
compared word for word; then every model runs again at the default
width (the whole universe in one word), where every kernel call must
return the same words on both backends and the detections must match
the odd-width ones (``check_seq_kernel_random`` in
``tests/test_engine.py``; tier-1 runs a fixed small seed set).  Exits 1
on the first failing seed, with the assertion.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from tests.test_engine import check_seq_kernel_random  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200,
                        help="how many seeds to run (default: 200)")
    parser.add_argument("--start", type=int, default=0,
                        help="first seed (default: 0)")
    args = parser.parse_args(argv)
    started = time.monotonic()
    faults = 0
    for seed in range(args.start, args.start + args.seeds):
        try:
            faults += check_seq_kernel_random(seed)["faults"]
        except AssertionError as exc:
            print(f"seed {seed}: FAILED: {exc}", file=sys.stderr)
            return 1
    print(
        f"seq kernel random differential: {args.seeds} seeds from "
        f"{args.start}, {faults} faults checked per backend in "
        f"{time.monotonic() - started:.1f} s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
