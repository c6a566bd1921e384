"""Performance: stuck-at fault simulation throughput, per engine.

Parametrized over every registered :mod:`repro.engine` backend so the
``interp`` reference and the ``compiled`` code-generating backend are
measured side by side;
``benchmarks/run_benchmarks.py`` turns the results into the
``BENCH_engine.json`` trajectory at the repo root.  Warm rounds reuse
the shared engine's per-netlist programs, so the ``compiled-cold``
rows time a fresh private engine per round: codegen included, as every
new process pays it.  Each row records ``cpus``.
"""

import pytest

from repro.engine import CompiledEngine, engine_names
from repro.fault import CombFaultSimulator, SeqFaultSimulator, collapse_faults
from repro.sim import StimulusEncoder
from repro.util import rng_stream
from tests.conftest import netlist_of
from repro.circuits import load_circuit
from benchmarks.conftest import cpus


def _comb_case(name: str):
    netlist = netlist_of(name)
    faults = collapse_faults(netlist)
    width = len(netlist.input_bits)
    rng = rng_stream(1, name, "bench-fsim")
    patterns = [rng.getrandbits(width) for _ in range(256)]
    return netlist, faults, patterns


@pytest.mark.parametrize("engine", engine_names())
@pytest.mark.parametrize("name", ["c432", "c499"])
def test_comb_fault_sim_throughput(benchmark, name, engine):
    netlist, faults, patterns = _comb_case(name)
    simulator = CombFaultSimulator(netlist, faults, engine=engine)
    benchmark.extra_info.update(
        circuit=name, engine=engine, style="comb", cpus=cpus(),
        patterns=len(patterns), faults=len(faults),
    )
    result = benchmark(simulator.simulate, patterns)
    assert result.coverage() > 0.5


@pytest.mark.parametrize("name", ["c432", "c499"])
def test_comb_fault_sim_cold_compiled(benchmark, name):
    """One pass on a fresh private ``CompiledEngine``: codegen included."""
    netlist, faults, patterns = _comb_case(name)

    def fresh_simulator():
        simulator = CombFaultSimulator(
            netlist, faults, engine=CompiledEngine()
        )
        return (patterns,), {"simulator": simulator}

    def cold_pass(patterns, simulator):
        return simulator.simulate(patterns)

    benchmark.extra_info.update(
        circuit=name, engine="compiled-cold", style="comb", cpus=cpus(),
        patterns=len(patterns), faults=len(faults),
    )
    result = benchmark.pedantic(cold_pass, setup=fresh_simulator, rounds=5)
    assert result.coverage() > 0.5


@pytest.mark.parametrize("lanes", [256, None], ids=["256", "default"])
@pytest.mark.parametrize("engine", engine_names())
@pytest.mark.parametrize("name", ["b01", "b03"])
def test_seq_fault_sim_throughput(benchmark, name, engine, lanes):
    """256-lane chunks, and the default width: the list in one word.

    Only the default-width rows carry ``lanes`` ("default"), so the
    256-lane rows keep the identity of runs recorded before the
    default changed.
    """
    netlist = netlist_of(name)
    design = load_circuit(name)
    faults = collapse_faults(netlist)
    width = StimulusEncoder(design).width
    rng = rng_stream(1, name, "bench-fsim")
    stimuli = [rng.getrandbits(width) for _ in range(128)]
    simulator = SeqFaultSimulator(netlist, faults, lanes=lanes,
                                  engine=engine)
    benchmark.extra_info.update(
        circuit=name, engine=engine, style="seq", cpus=cpus(),
        patterns=len(stimuli), faults=len(faults),
    )
    if lanes is None:
        benchmark.extra_info["lanes"] = "default"
    result = benchmark(simulator.simulate, stimuli)
    assert result.coverage() > 0.3


# -- telemetry overhead -------------------------------------------------------
#
# The same compiled-engine passes with a live metrics registry, so
# BENCH_engine.json carries the telemetry cost next to the plain
# ``compiled`` rows (the disabled-path baseline).  The budget is a few
# percent: instrumentation is per simulation *pass*, never per fault.

def test_comb_fault_sim_telemetry_overhead(benchmark):
    from repro.obs import metrics as obs_metrics

    netlist = netlist_of("c432")
    faults = collapse_faults(netlist)
    width = len(netlist.input_bits)
    rng = rng_stream(1, "c432", "bench-fsim")
    patterns = [rng.getrandbits(width) for _ in range(256)]
    simulator = CombFaultSimulator(netlist, faults, engine="compiled")
    benchmark.extra_info.update(
        circuit="c432", engine="compiled+obs", style="comb", cpus=cpus(),
        patterns=len(patterns), faults=len(faults),
    )
    obs_metrics.enable()
    try:
        result = benchmark(simulator.simulate, patterns)
    finally:
        obs_metrics.disable()
    assert result.coverage() > 0.5


def test_seq_fault_sim_telemetry_overhead(benchmark):
    from repro.obs import metrics as obs_metrics

    netlist = netlist_of("b01")
    design = load_circuit("b01")
    faults = collapse_faults(netlist)
    width = StimulusEncoder(design).width
    rng = rng_stream(1, "b01", "bench-fsim")
    stimuli = [rng.getrandbits(width) for _ in range(128)]
    simulator = SeqFaultSimulator(netlist, faults, lanes=256,
                                  engine="compiled")
    benchmark.extra_info.update(
        circuit="b01", engine="compiled+obs", style="seq", cpus=cpus(),
        patterns=len(stimuli), faults=len(faults),
    )
    obs_metrics.enable()
    try:
        result = benchmark(simulator.simulate, stimuli)
    finally:
        obs_metrics.disable()
    assert result.coverage() > 0.3
