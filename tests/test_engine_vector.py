"""The ``vector`` backend: fuzzing, fallback and campaign pinning.

The generic differential suite in ``tests/test_engine.py`` already runs
every registered backend against ``interp``; this module adds the
vector-specific angles: randomized fuzz crossing the backend's own lane
thresholds (single-word scalar path, multi-word numpy path, row-batched
fault propagation), the pure big-int fallback with numpy monkeypatched
away, and full campaign payloads on real c432 + b01 circuits.
"""

from __future__ import annotations

import json

import pytest

import repro.engine.vector as vector_module
from repro.engine import VectorEngine
from repro.fault import (
    CombFaultSimulator,
    SeqFaultSimulator,
    collapse_faults,
    simulate_stuck_at,
)
from repro.netlist import CombSimulator, SeqSimulator
from repro.netlist.simulate import unpack_patterns
from repro.util import rng_stream
from tests.conftest import netlist_of
from tests.test_engine import random_netlist

#: Pattern counts straddling the packed-word boundaries: single word
#: (scalar path), a few words, and past ``_NUMPY_LANES`` rounding.
LANE_COUNTS = (1, 3, 63, 64, 65, 127, 130)


def _comb_case(case: int):
    rng = rng_stream(4242, "vector-fuzz-comb", str(case))
    netlist = random_netlist(
        rng, num_inputs=rng.randint(2, 7), num_gates=rng.randint(1, 40)
    )
    width = len(netlist.input_bits)
    count = rng.choice(LANE_COUNTS)
    patterns = [rng.getrandbits(width) for _ in range(count)]
    return netlist, patterns


def test_fuzz_combinational_matches_interp_and_compiled():
    for case in range(24):
        netlist, patterns = _comb_case(case)
        faults = collapse_faults(netlist)
        results = {
            engine: CombFaultSimulator(
                netlist, faults, engine=engine
            ).simulate(patterns)
            for engine in ("interp", "compiled", "vector")
        }
        assert (
            results["vector"].detection == results["interp"].detection
        ), f"case {case}"
        assert (
            results["vector"].detection == results["compiled"].detection
        ), f"case {case}"
        mask = (1 << len(patterns)) - 1
        words = unpack_patterns(patterns, netlist.input_bits)
        assert CombSimulator(netlist, "vector").evaluate(
            words, mask
        ) == CombSimulator(netlist, "interp").evaluate(
            words, mask
        ), f"case {case}"


def test_fuzz_sequential_matches_interp():
    for case in range(12):
        rng = rng_stream(4242, "vector-fuzz-seq", str(case))
        netlist = random_netlist(
            rng,
            num_inputs=rng.randint(2, 5),
            num_gates=rng.randint(4, 30),
            num_dffs=rng.randint(1, 5),
        )
        faults = collapse_faults(netlist)
        width = len(netlist.input_bits)
        stimuli = [
            rng.getrandbits(width) for _ in range(rng.randint(1, 20))
        ]
        # Narrow configured lanes widen through the vector lane_batch,
        # crossing the scalar/numpy threshold at different chunkings.
        lanes = rng.choice((1, 5, 64, 96, 256))
        reference = SeqFaultSimulator(
            netlist, faults, lanes=lanes, engine="interp"
        ).simulate(stimuli)
        candidate = SeqFaultSimulator(
            netlist, faults, lanes=lanes, engine="vector"
        ).simulate(stimuli)
        assert candidate.detection == reference.detection, f"case {case}"
        assert SeqSimulator(netlist, engine="vector").run_packed(
            stimuli
        ) == SeqSimulator(netlist, engine="interp").run_packed(
            stimuli
        ), f"case {case}"


def test_seq_simulator_widens_chunks_through_lane_batch():
    netlist = netlist_of("b01")
    vector_sim = SeqFaultSimulator(netlist, lanes=64, engine="vector")
    interp_sim = SeqFaultSimulator(netlist, lanes=64, engine="interp")
    assert vector_sim.lanes == interp_sim.lanes == 64
    assert interp_sim.effective_lanes == 64
    assert vector_sim.effective_lanes == 64 * VectorEngine.lane_batch


@pytest.mark.parametrize("name", ["c17", "c432", "b01"])
def test_real_circuits_match_interp(name):
    netlist = netlist_of(name)
    rng = rng_stream(4242, "vector-real", name)
    width = len(netlist.input_bits)
    vectors = [rng.getrandbits(width) for _ in range(48)]
    reference = simulate_stuck_at(netlist, vectors, engine="interp")
    candidate = simulate_stuck_at(netlist, vectors, engine="vector")
    assert candidate.detection == reference.detection


# -- numpy-absent fallback ----------------------------------------------------


@pytest.fixture()
def no_numpy(monkeypatch):
    """The vector backend with its numpy import monkeypatched away."""
    monkeypatch.setattr(vector_module, "_np", None)
    # A private instance: nothing shared with numpy-built state.
    return VectorEngine()


def test_fallback_combinational_matches_interp(no_numpy):
    for case in range(8):
        netlist, patterns = _comb_case(case)
        if not patterns:
            continue
        faults = collapse_faults(netlist)
        reference = CombFaultSimulator(
            netlist, faults, engine="interp"
        ).simulate(patterns)
        candidate = CombFaultSimulator(
            netlist, faults, engine=no_numpy
        ).simulate(patterns)
        assert candidate.detection == reference.detection, f"case {case}"


def test_fallback_sequential_matches_interp(no_numpy):
    netlist = netlist_of("b01")
    rng = rng_stream(4242, "vector-fallback", "b01")
    width = len(netlist.input_bits)
    stimuli = [rng.getrandbits(width) for _ in range(24)]
    reference = SeqFaultSimulator(
        netlist, lanes=96, engine="interp"
    ).simulate(stimuli)
    candidate = SeqFaultSimulator(
        netlist, lanes=96, engine=no_numpy
    ).simulate(stimuli)
    assert candidate.detection == reference.detection


def test_fallback_batches_rows_in_one_big_int(no_numpy, monkeypatch):
    """The fallback still word-parallelizes: shrink its batch budget so
    several row batches are exercised, results unchanged."""
    monkeypatch.setattr(vector_module, "_BATCH_BITS", 1 << 9)
    netlist = netlist_of("c17")
    rng = rng_stream(4242, "vector-fallback", "c17")
    width = len(netlist.input_bits)
    patterns = [rng.getrandbits(width) for _ in range(16)]
    reference = CombFaultSimulator(netlist, engine="interp").simulate(
        patterns
    )
    candidate = CombFaultSimulator(netlist, engine=no_numpy).simulate(
        patterns
    )
    assert candidate.detection == reference.detection


# -- campaign payloads on real circuits ---------------------------------------


def test_campaign_payload_identical_on_c432_and_b01():
    """The whole pipeline (synth -> mutants -> search -> fault
    validation -> metrics) on one comb and one seq paper circuit must
    produce byte-identical science on the vector backend."""
    from repro.campaign.config import CampaignConfig
    from repro.campaign.runner import Campaign

    payloads = {}
    for engine in ("interp", "vector"):
        config = CampaignConfig(
            engine=engine,
            random_budget_comb=128,
            random_budget_seq=64,
            equivalence_budget=16,
            max_vectors=16,
            operators=("LOR", "CR"),
        )
        result = Campaign(config).run(("c432", "b01"))
        payloads[engine] = json.loads(result.to_json())["circuits"]
    assert payloads["vector"] == payloads["interp"]
