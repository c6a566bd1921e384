"""Performance: grid fault-validation throughput vs worker count.

One circuit's stuck-at validation — the campaign's dominant kernel —
sharded into :mod:`repro.grid` work units and executed on the
``process`` scheduler at 1/2/4/8 workers.  ``run_benchmarks.py
--suite grid`` turns the results into the ``BENCH_grid.json``
workers-vs-throughput trajectory at the repo root.

The executor (and its persistent worker pool) lives for the whole
parametrized test, so pool spawn and per-worker lab synthesis land in
the warmup pass exactly as they amortize across a real campaign's
many dispatch waves.  ``cpus`` is recorded per row: on a single-core
container the trajectory documents overhead, not speedup.
"""

from __future__ import annotations

import pytest

from repro.experiments.context import get_lab
from repro.grid import GridExecutor
from repro.sim import StimulusEncoder
from repro.circuits import load_circuit
from repro.util import rng_stream
from benchmarks.conftest import bench_config, cpus

WORKERS = (1, 2, 4, 8)
#: The two big ISCAS'85 comb benches plus the largest ITC'99 seq bench.
CIRCUITS = ("c432", "c499", "b03")


def _stimuli(name: str, count: int) -> list[int]:
    design = load_circuit(name)
    width = StimulusEncoder(design).width
    rng = rng_stream(1, name, "bench-grid")
    return [rng.getrandbits(width) for _ in range(count)]


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("name", CIRCUITS)
def test_grid_fault_validation_throughput(benchmark, name, workers):
    config = bench_config().replace(grid="process", grid_workers=workers)
    lab = get_lab(name, config)
    sequential = lab.design.is_sequential
    # Campaign-scale pattern counts, so each unit carries enough work
    # to amortize dispatch (the baseline validation uses 1024-2048).
    stimuli = _stimuli(name, 128 if sequential else 1024)
    executor = GridExecutor(config)
    try:
        # Warm pass: pool spawn + per-worker synthesis/compilation.
        executor.fault_sim(lab, stimuli, "bench-warmup")
        benchmark.extra_info.update(
            circuit=name, workers=workers, cpus=cpus(),
            style="seq" if sequential else "comb",
            patterns=len(stimuli), faults=len(lab.faults),
            engine=config.engine,
        )
        result = benchmark(executor.fault_sim, lab, stimuli, "bench")
    finally:
        executor.close()
    assert result.coverage() > 0.3
    assert result.detection == lab.fault_sim(stimuli).detection
