"""Performance: PODEM test generation.

``run_benchmarks.py --suite atpg`` turns these rows into the
``BENCH_atpg.json`` trajectory at the repo root.  The fault lists are
the golden keys of ``tests/test_podem.py`` (c432 every 8th collapsed
fault, c499 every 16th, both at ``backtrack_limit=24``), so a row's
decisions and backtracks are pinned outcomes, not just timings.
"""

import pytest

from benchmarks.conftest import cpus
from repro.circuits import load_circuit
from repro.fault import collapse_faults
from repro.synth import synthesize
from repro.testgen import Podem

#: circuit -> collapsed-fault stride; every run at BACKTRACK_LIMIT.
RUNS = {"c432": 8, "c499": 16}
BACKTRACK_LIMIT = 24


@pytest.mark.parametrize("name", sorted(RUNS))
def test_podem_run_speed(benchmark, name):
    """``Podem.run`` over the fault list, a fresh engine per round (its
    per-origin cones are memoised, so a reused one would time less)."""
    netlist = synthesize(load_circuit(name))
    faults = collapse_faults(netlist)[::RUNS[name]]

    def engine():
        return (Podem(netlist, backtrack_limit=BACKTRACK_LIMIT), faults), {}

    result = benchmark.pedantic(lambda podem, targets: podem.run(targets),
                                setup=engine, rounds=3, iterations=1)
    benchmark.extra_info.update(
        circuit=name, stride=RUNS[name], backtrack_limit=BACKTRACK_LIMIT,
        faults=len(faults), detected=result.detected,
        decisions=result.total_decisions,
        backtracks=result.total_backtracks, cpus=cpus(),
    )
    assert result.detected > 0
