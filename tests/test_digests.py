"""Pinned digests of the default-config campaign on the sequential circuits.

``Campaign(CampaignConfig())`` on the paper's sequential circuits runs
every RTL fast path (the mutant schema, the infection screen, the
clock-edge scheduler) and the sequential fault simulator under the
default knobs.  Each ``CircuitResult.to_dict()`` is hashed the way
``scripts/check_c499.py`` and the benchmark hash their payloads
(sha256 of sorted-key compact JSON); a change to any of those paths
that moves a result fails here.  Re-pin only for a change meant to
move results, and say why.

The sequential fault-simulation pins hash the ``detection`` list of the
stuck-at, transition and SEU models on b01, b03 and one random netlist
whose outputs include a primary input and gate cones, on both engines.

The lab facade pins hash the rows of ``run_atpg_reuse``, the two
ablations and ``run_search_compare`` at the CI smoke budgets, so a
change to how a facade builds its campaign or shares its lab that moves
a row fails here.
"""

import hashlib
import json

import pytest

from repro import Campaign, CampaignConfig

#: sha256 of each circuit's default-config ``CircuitResult``.
GOLDEN = {
    "b01": "c1627e873c13b827862032d5da75eb9c0302ccd0c9ed141b6c20509c8cdea9da",
    "b02": "e84f40bfc155d48db3e4a0de4225fcad9d9c0c33c5137123fd822745db3df98d",
    "b03": "e14492e12b881a270fd3874972241c7aca99539e455d2173bc6eeb5e5c581642",
    "b06": "a93251eac7f26056de1865162d47c8f85ee2507467b04831c8986ec46bcb2e03",
}


@pytest.fixture(scope="module")
def default_results():
    result = Campaign(CampaignConfig()).run(sorted(GOLDEN))
    return {circuit.circuit: circuit for circuit in result.circuits}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_default_campaign_digest_is_pinned(default_results, name):
    canonical = json.dumps(
        default_results[name].to_dict(), sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert digest == GOLDEN[name]


# -- sequential fault-simulation pins ----------------------------------------


def _random_seq_netlist():
    """A random netlist whose outputs include a primary input and two
    gate cones, and whose DFF ``d`` nets are a PI, a gate and a Q."""
    from repro.util import rng_stream
    from tests.test_engine import random_netlist

    rng = rng_stream(23, "seq-digest", "2")
    return random_netlist(rng, num_inputs=4, num_gates=30, num_dffs=3)


def _seq_netlist(name):
    from tests.conftest import netlist_of

    return _random_seq_netlist() if name == "random" else netlist_of(name)


#: (circuit, lanes, cycles) of each pinned sequential case.
SEQ_CASES = {"b01": (256, 64), "b03": (64, 64), "random": (7, 48)}

#: sha256 of the ``detection`` list per (fault model, circuit).
SEQ_GOLDEN = {
    "stuck-at/b01": "839030b61f7f34d6102e067140140045bbc7430ad546c18165d6e6fe83390b4b",
    "stuck-at/b03": "cbf8209fbb8a87c1cb45b2663fa05080197a6d27989866ac5c95ca5570ad75bd",
    "stuck-at/random": "137f74e82ac0c8e531252c6c79c70c65cc799d2129783ab3a369d2131840e273",
    "transition/b01": "701d3cdb6b395da09833810db4eff40efffbdbbb2117c11f121c3ddcd73bf843",
    "transition/b03": "3ec9832f2bacaf1632c48121f7476fd0736bbcc2b782db40cb291acd4aefd105",
    "transition/random": "4d0e8b32bcc4cbd6b390c7f2b41548a365ed123ea2526a4ccc82878c8c412cbe",
    "seu/b01": "fb6b2c981fe31195218ff15a18135485c27fee3afe8dc41b5b2e021932746d84",
    "seu/b03": "134e9d1006181bc93ff78f080d16c8fc098ecbb85a17649b959607ef1bb8132b",
    "seu/random": "dbca888ff5951261b080f36b92f0c78e975eae45f39f5eb9f14b9bf3d98edca0",
}


@pytest.mark.parametrize("engine", ["compiled", "interp"])
@pytest.mark.parametrize("key", sorted(SEQ_GOLDEN))
def test_seq_fault_detection_digest_is_pinned(key, engine):
    """Every sequential fault model's first-detection cycles, pinned.

    ``interp`` and ``compiled`` share one pin, so a semantic slip both
    backends make together (say, a forced Q stem stored into the
    transition model's state) still fails here.
    """
    from repro.fault.models import build_fault_model
    from repro.util import rng_stream

    model_name, circuit = key.split("/")
    lanes, cycles = SEQ_CASES[circuit]
    netlist = _seq_netlist(circuit)
    model = build_fault_model(model_name)
    rng = rng_stream(23, "seq-digest-stimuli", circuit)
    width = len(netlist.input_bits)
    stimuli = [rng.getrandbits(width) for _ in range(cycles)]
    detection = model.simulate(
        netlist, stimuli, lanes=lanes, engine=engine
    ).detection
    assert any(cycle is not None for cycle in detection)
    canonical = json.dumps(detection, separators=(",", ":"))
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert digest == SEQ_GOLDEN[key]


# -- lab facade pins ---------------------------------------------------------

#: The CI smoke budgets every lab facade pin runs at.
FACADE_CONFIG = CampaignConfig(
    random_budget_comb=96, random_budget_seq=96, equivalence_budget=32
)


def _facade_rows(name):
    from repro.experiments.ablation import (
        run_rate_ablation,
        run_weight_ablation,
    )
    from repro.experiments.atpg_reuse import run_atpg_reuse
    from repro.experiments.search_compare import run_search_compare

    if name == "atpg-reuse":
        return run_atpg_reuse(("c17",), FACADE_CONFIG, max_vectors=24)
    if name == "ablation-rate":
        return run_rate_ablation("b01", config=FACADE_CONFIG, max_vectors=24)
    if name == "ablation-weights":
        return run_weight_ablation(
            "b01", config=FACADE_CONFIG, max_vectors=24
        )
    return run_search_compare(
        ("c17",), ("random", "bitflip"), 128, FACADE_CONFIG, max_vectors=32
    )


#: First 16 hex digits of the sha256 of each facade's rows.
FACADE_GOLDEN = {
    "atpg-reuse": "4b2156c35d04ce59",
    "ablation-rate": "cded5cfaa784d8bd",
    "ablation-weights": "aff3108c2d71eaa1",
    "search-compare": "a71caed573a7fa14",
}


@pytest.mark.parametrize("name", sorted(FACADE_GOLDEN))
def test_lab_facade_digest_is_pinned(name):
    """The lab-based experiment facades' rows, pinned.

    The search-compare rows drop their wall-clock ``seconds`` field.
    """
    from dataclasses import asdict

    rows = [asdict(row) for row in _facade_rows(name)]
    for row in rows:
        row.pop("seconds", None)
    canonical = json.dumps(rows, sort_keys=True)
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    assert digest == FACADE_GOLDEN[name]
