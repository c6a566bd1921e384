"""Performance: fault-model simulation throughput, per model.

Parametrized over every registered :mod:`repro.fault.models` model so
the ``stuck-at`` reference, the two-pattern ``transition`` model and
the cycle-sampled ``seu`` model are measured side by side on one comb
and one seq circuit; ``benchmarks/run_benchmarks.py --suite fault``
turns the results into the ``BENCH_fault.json`` trajectory at the repo
root.  Each row records ``cpus``.
"""

import pytest

from repro.circuits import load_circuit
from repro.fault.models import build_fault_model, fault_model_names
from repro.sim import StimulusEncoder
from repro.util import rng_stream
from benchmarks.conftest import cpus
from tests.conftest import netlist_of


@pytest.mark.parametrize("model_name", fault_model_names())
@pytest.mark.parametrize("name", ["c432", "b01"])
def test_fault_model_throughput(benchmark, name, model_name):
    netlist = netlist_of(name)
    model = build_fault_model(model_name)
    faults = model.collapse(netlist)
    style = "seq" if netlist.dffs else "comb"
    if style == "seq":
        width = StimulusEncoder(load_circuit(name)).width
        count = 128
    else:
        width = len(netlist.input_bits)
        count = 256
    rng = rng_stream(1, name, "bench-fault", model_name)
    stimuli = [rng.getrandbits(width) for _ in range(count)]
    benchmark.extra_info.update(
        circuit=name, model=model_name, style=style, cpus=cpus(),
        patterns=len(stimuli), faults=len(faults),
    )
    result = benchmark(model.simulate, netlist, stimuli, faults)
    assert result.detected > 0


# -- pruned vs unpruned -------------------------------------------------------
#
# The same stuck-at pass with provably untestable faults statically
# pruned (repro.analyze.prune), so BENCH_fault.json carries the
# payoff of ``prune_untestable`` next to the full-universe rows.  On
# circuits with no dead or constant logic (c432) the rows coincide;
# on b01 the pruned pass simulates measurably fewer faults.

@pytest.mark.parametrize("name", ["c432", "b01"])
def test_fault_model_throughput_pruned(benchmark, name):
    from repro.analyze import split_untestable

    netlist = netlist_of(name)
    model = build_fault_model("stuck-at")
    testable, pruned = split_untestable(netlist, model.collapse(netlist))
    style = "seq" if netlist.dffs else "comb"
    if style == "seq":
        width = StimulusEncoder(load_circuit(name)).width
        count = 128
    else:
        width = len(netlist.input_bits)
        count = 256
    rng = rng_stream(1, name, "bench-fault", "stuck-at")
    stimuli = [rng.getrandbits(width) for _ in range(count)]
    benchmark.extra_info.update(
        circuit=name, model="stuck-at+prune", style=style, cpus=cpus(),
        patterns=len(stimuli), faults=len(testable), pruned=len(pruned),
    )
    result = benchmark(model.simulate, netlist, stimuli, testable)
    assert result.detected > 0
