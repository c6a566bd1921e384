"""Fault-model subsystem tests: registry, models, triage, replay.

The load-bearing properties:

* the registry mirrors ``repro.engine``'s semantics exactly
  (idempotent re-registration, ``replace=True``, helpful unknown-name
  errors),
* ``stuck-at`` is a pinned reference — same faults, same detections,
  same config fingerprints as before the subsystem existed,
* ``transition`` and ``seu`` are deterministic and bit-identical
  across engines and across fault-list shardings (the property the
  grid relies on), and
* survivor triage and kill witnesses round-trip through the campaign
  result JSON into ``repro replay``.
"""

from __future__ import annotations

import json

import pytest

from repro import cli
from repro.campaign import Campaign, CampaignConfig
from repro.campaign.result import CircuitResult, StrategyRow
from repro.errors import ConfigError, FaultError
from repro.fault import collapse_faults, simulate_faults, simulate_stuck_at
from repro.fault.models import (
    DEFAULT_FAULT_MODEL,
    FAULT_MODELS,
    FaultModel,
    SeuFault,
    SeuModel,
    StuckAtModel,
    TransitionFault,
    TransitionModel,
    build_fault_model,
    fault_model_names,
    get_fault_model,
    register_fault_model,
)
from repro.hdl import load_design
from repro.mutation import MutationEngine, generate_mutants
from repro.mutation.execution import (
    NEVER_ACTIVATED,
    POSSIBLY_EQUIVALENT,
    PROPAGATION_BLOCKED,
    TRIAGE_CATEGORIES,
)
from repro.util import rng_stream
from tests.conftest import netlist_of

ENGINES = ("interp", "compiled")


def stimuli_for(netlist, count: int, seed_name: str) -> list[int]:
    rng = rng_stream(11, seed_name)
    width = len(netlist.input_bits)
    return [rng.getrandbits(width) for _ in range(count)]


# -- registry ----------------------------------------------------------------


def test_registry_lists_all_three_models():
    assert fault_model_names() == ("seu", "stuck-at", "transition")
    assert DEFAULT_FAULT_MODEL == "stuck-at"


def test_unknown_model_error_lists_registered():
    with pytest.raises(FaultError) as excinfo:
        get_fault_model("bridging")
    message = str(excinfo.value)
    assert "bridging" in message
    for name in fault_model_names():
        assert name in message


def test_reregistering_same_class_is_idempotent():
    before = dict(FAULT_MODELS)
    register_fault_model(StuckAtModel)
    assert FAULT_MODELS == before


def test_conflicting_registration_requires_replace():
    class Imposter(FaultModel):
        name = "stuck-at"

    with pytest.raises(FaultError) as excinfo:
        register_fault_model(Imposter)
    assert "stuck-at" in str(excinfo.value)
    try:
        register_fault_model(Imposter, replace=True)
        assert get_fault_model("stuck-at") is Imposter
    finally:
        register_fault_model(StuckAtModel, replace=True)
    assert get_fault_model("stuck-at") is StuckAtModel


def test_registering_unnamed_model_rejected():
    class Nameless(FaultModel):
        name = ""

    with pytest.raises(FaultError):
        register_fault_model(Nameless)


def test_build_fault_model_variants():
    assert isinstance(build_fault_model(None), StuckAtModel)
    assert isinstance(build_fault_model("transition"), TransitionModel)
    seu = build_fault_model("seu", {"cycles": 3, "stride": 5})
    assert seu.cycles == 3 and seu.stride == 5
    instance = TransitionModel()
    assert build_fault_model(instance) is instance
    with pytest.raises(FaultError):
        build_fault_model(instance, {"cycles": 3})
    with pytest.raises(FaultError):
        build_fault_model("stuck-at", {"bogus_knob": 1})
    with pytest.raises(FaultError):
        build_fault_model("seu", {"cycles": 0})


# -- config integration ------------------------------------------------------


def test_config_rejects_unknown_fault_model():
    with pytest.raises(ConfigError) as excinfo:
        CampaignConfig(fault_model="bridging")
    message = str(excinfo.value)
    assert "bridging" in message and "stuck-at" in message


def test_config_rejects_bad_knobs():
    with pytest.raises(ConfigError):
        CampaignConfig(fault_model="seu", fault_model_knobs={"cycles": -1})


def test_stuck_at_fingerprint_is_byte_identical():
    """The default config hashes exactly as it did before these fields.

    Reconstructed by hand: the fingerprint payload of a default config
    must not contain the fault-model keys (nor the later
    static-analysis knobs) at all, so every cache and job-store entry
    written by older versions still hits; an unset ``fault_lanes``
    hashes as 256, the width those entries were computed at.
    """
    import hashlib

    from repro.campaign.config import EXECUTION_FIELDS

    config = CampaignConfig()
    payload = {
        key: value
        for key, value in config.to_dict().items()
        if key not in EXECUTION_FIELDS
        and key not in ("fault_model", "fault_model_knobs",
                        "prune_untestable", "static_prescreen")
    }
    assert payload["fault_lanes"] is None
    payload["fault_lanes"] = 256
    canonical = json.dumps(payload, sort_keys=True)
    expected = hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]
    assert config.fingerprint() == expected
    assert (
        config.replace(fault_model="stuck-at").fingerprint()
        == config.fingerprint()
    )
    # The new knobs fingerprint only when enabled.
    assert config.replace(prune_untestable=True).fingerprint() != (
        config.fingerprint()
    )
    assert config.replace(static_prescreen=True).fingerprint() != (
        config.fingerprint()
    )


def test_non_default_model_changes_fingerprint():
    config = CampaignConfig()
    assert config.replace(
        fault_model="transition"
    ).fingerprint() != config.fingerprint()
    assert config.replace(
        fault_model="seu", fault_model_knobs={"cycles": 4}
    ).fingerprint() != config.replace(fault_model="seu").fingerprint()


# -- stuck-at: the pinned reference ------------------------------------------


@pytest.mark.parametrize("circuit", ["c17", "b01"])
def test_stuck_at_model_matches_legacy_runner(circuit):
    netlist = netlist_of(circuit)
    stimuli = stimuli_for(netlist, 48, f"pin-{circuit}")
    model = StuckAtModel()
    assert [
        (f.net, f.stuck, f.gate) for f in model.collapse(netlist)
    ] == [(f.net, f.stuck, f.gate) for f in collapse_faults(netlist)]
    legacy = simulate_stuck_at(netlist, stimuli, lanes=16)
    for engine in ENGINES:
        got = model.simulate(netlist, stimuli, lanes=16, engine=engine)
        assert got.detection == legacy.detection, engine


# -- transition / seu: determinism and engine invariance ---------------------


@pytest.mark.parametrize("model_name", ["transition", "seu"])
@pytest.mark.parametrize("circuit", ["c17", "b01"])
def test_model_bit_identical_across_engines(model_name, circuit):
    netlist = netlist_of(circuit)
    stimuli = stimuli_for(netlist, 40, f"xe-{model_name}-{circuit}")
    reference = None
    for engine in ENGINES:
        result = simulate_faults(
            netlist, stimuli, lanes=9, engine=engine, model=model_name
        )
        if reference is None:
            reference = result.detection
        else:
            assert result.detection == reference, engine
    # Repeat-run determinism on the same engine.
    again = simulate_faults(
        netlist, stimuli, lanes=9, engine=ENGINES[0], model=model_name
    )
    assert again.detection == reference


@pytest.mark.parametrize("model_name", ["transition", "seu"])
def test_model_shard_invariance(model_name):
    """Detections of a fault-list slice match the full run's slice.

    This is the exact property the grid's fault-chunk units rely on:
    the universe is a pure function of the netlist (never the
    stimuli), and per-fault detections are independent.
    """
    netlist = netlist_of("b01")
    stimuli = stimuli_for(netlist, 32, f"shard-{model_name}")
    model = build_fault_model(model_name)
    faults = model.collapse(netlist)
    full = model.simulate(netlist, stimuli, faults, lanes=8).detection
    for shard in (1, 3, len(faults)):
        merged = []
        for start in range(0, len(faults), shard):
            chunk = faults[start:start + shard]
            merged.extend(
                model.simulate(netlist, stimuli, chunk, lanes=8).detection
            )
        assert merged == full, shard


def test_transition_universe_and_collapse():
    netlist = netlist_of("c17")
    model = TransitionModel()
    universe = model.generate(netlist)
    assert all(isinstance(f, TransitionFault) for f in universe)
    assert {f.rise for f in universe} == {False, True}
    collapsed = model.collapse(netlist)
    assert 0 < len(collapsed) <= len(universe)
    assert collapsed == sorted(collapsed, key=lambda f: (f.net, f.rise))


def test_seu_universe_is_stimulus_independent():
    netlist = netlist_of("b01")
    model = SeuModel(cycles=3, stride=4)
    faults = model.collapse(netlist)
    assert all(isinstance(f, SeuFault) for f in faults)
    assert {f.cycle for f in faults} == {0, 4, 8}
    # DFF state bits only, on a sequential circuit.
    q_nets = {dff.q for dff in netlist.dffs}
    assert {f.net for f in faults} == q_nets


def test_seu_faults_beyond_stimulus_length_undetected():
    netlist = netlist_of("b01")
    model = SeuModel(cycles=4, stride=8)
    stimuli = stimuli_for(netlist, 9, "short")  # cycles 16, 24 never run
    result = model.simulate(netlist, stimuli, lanes=4)
    for fault, detection in zip(result.faults, result.detection):
        if fault.cycle >= len(stimuli):
            assert detection is None


# -- campaign: grid and jobs stay bit-identical ------------------------------

FAST = dict(
    seed=77,
    random_budget_comb=64,
    random_budget_seq=64,
    equivalence_budget=24,
    max_vectors=12,
    operators=(),
    strategies=("random",),
)


@pytest.mark.parametrize("model_name", ["transition", "seu"])
def test_campaign_grid_matches_serial(model_name, tmp_path):
    serial = Campaign(
        CampaignConfig(fault_model=model_name, **FAST)
    ).run(("b01",))
    grid = Campaign(
        CampaignConfig(
            fault_model=model_name, grid="process", grid_workers=2,
            grid_shard=3, cache_dir=str(tmp_path), **FAST,
        )
    ).run(("b01",))
    assert serial.circuits[0].to_dict() == grid.circuits[0].to_dict()


def test_campaign_jobs_matches_serial():
    serial = Campaign(
        CampaignConfig(fault_model="transition", **FAST)
    ).run(("c17",))
    jobbed = Campaign(
        CampaignConfig(fault_model="transition", jobs=2, **FAST)
    ).run(("c17",))
    assert serial.circuits[0].to_dict() == jobbed.circuits[0].to_dict()


# -- survivor triage ---------------------------------------------------------

GATED = """
entity gated is
  port ( a, b : in bit; clock, reset : in bit; y : out bit );
end gated;
architecture rtl of gated is
  signal t : bit;
begin
  process (clock, reset)
  begin
    if reset = '1' then
      y <= '0';
      t <= '0';
    elsif rising_edge(clock) then
      t <= a;
      if a = '1' then
        y <= b;
      else
        y <= '0';
      end if;
    end if;
  end process;
end rtl;
"""


def test_triage_never_activated_on_dormant_branch():
    """With ``a`` pinned low, mutants inside the taken-only-when-a
    branch never perturb the state trace."""
    design = load_design(GATED, "gated")
    engine = MutationEngine(design)
    mutants = generate_mutants(design)
    # a is the MSB data input: stimuli 0/1 keep a = 0 forever.
    stimuli = [0, 1, 0, 1, 1, 0]
    target = next(m for m in mutants if "y <= b" in str(m))
    record = engine.run_mutant(target, stimuli)
    assert not record.killed
    assert engine.triage_survivor(target, stimuli) == NEVER_ACTIVATED


def test_triage_propagation_blocked_on_dead_signal():
    """Mutating the never-read signal ``t`` activates (state differs)
    but can never reach an output."""
    design = load_design(GATED, "gated")
    engine = MutationEngine(design)
    mutants = generate_mutants(design)
    stimuli = [2, 3, 2, 3, 0, 1]  # a toggles, so t is exercised
    target = next(m for m in mutants if "t <= a" in str(m))
    record = engine.run_mutant(target, stimuli)
    assert not record.killed
    assert engine.triage_survivor(target, stimuli) == PROPAGATION_BLOCKED


def test_triage_survivors_batch_partitions(counter_design):
    engine = MutationEngine(counter_design)
    mutants = generate_mutants(counter_design)
    rng = rng_stream(5, "triage-batch")
    stimuli = [rng.getrandbits(2) for _ in range(12)]
    survivors = [
        m for m in mutants if not engine.run_mutant(m, stimuli).killed
    ]
    triage = engine.triage_survivors(survivors, stimuli)
    assert sorted(triage) == sorted(m.mid for m in survivors)
    assert set(triage.values()) <= set(TRIAGE_CATEGORIES)


def test_triage_empty_survivors():
    design = load_design(GATED, "gated")
    assert MutationEngine(design).triage_survivors([], [0, 1]) == {}


# -- witnesses, result round-trip, replay ------------------------------------


@pytest.fixture(scope="module")
def c17_result():
    return Campaign(CampaignConfig(**FAST)).run(("c17",))


def test_strategy_rows_carry_triage_and_witnesses(c17_result):
    row = c17_result.circuits[0].strategies[0]
    assert row.killed == len(row.witnesses)
    survivors = {mid for mids in row.triage.values() for mid in mids}
    assert len(survivors) == row.population - row.killed
    assert set(row.triage) <= set(TRIAGE_CATEGORIES)
    assert set(row.triage.get(POSSIBLY_EQUIVALENT, ())) <= survivors
    for record in row.witnesses.values():
        assert len(record) == 2
        assert record[1] in ("output-diff", "runtime", "oscillation")


def test_circuit_result_json_round_trip(c17_result):
    circuit = c17_result.circuits[0]
    clone = CircuitResult.from_dict(json.loads(json.dumps(circuit.to_dict())))
    assert clone.to_dict() == circuit.to_dict()


def test_old_strategy_row_payloads_still_load():
    row = StrategyRow(
        strategy="random", population=10, selected=1, equivalents=0,
        killed=1, ms_pct=10.0, test_length=1, nlfce=0.0,
    )
    payload = {
        k: v for k, v in row.__dict__.items()
        if k not in ("triage", "witnesses")
    }
    from repro.campaign.result import _row_from_dict

    loaded = _row_from_dict(StrategyRow, payload)
    assert loaded.triage == {} and loaded.witnesses == {}


def test_table2_reports_triage_counts(c17_result):
    row = c17_result.table2().rows[0]
    circuit_row = c17_result.circuits[0].strategies[0]
    assert row.never_activated == len(
        circuit_row.triage.get(NEVER_ACTIVATED, ())
    )
    assert row.propagation_blocked == len(
        circuit_row.triage.get(PROPAGATION_BLOCKED, ())
    )


def test_replay_cli_round_trip(c17_result, tmp_path, capsys):
    path = tmp_path / "result.json"
    path.write_text(c17_result.to_json(), encoding="utf-8")
    row = c17_result.circuits[0].strategies[0]

    killed_mid = sorted(row.witnesses, key=int)[0]
    assert cli.main(["replay", str(path), killed_mid]) == 0
    out = capsys.readouterr().out
    assert "witness verified" in out

    survivor_mid = next(
        str(mid) for mids in row.triage.values() for mid in mids
    )
    assert cli.main(["replay", str(path), survivor_mid]) == 1
    assert "triaged as" in capsys.readouterr().out

    assert cli.main(["replay", str(path), "999999"]) == 1
    assert "no kill witness" in capsys.readouterr().out


def test_fault_models_cli_listing(capsys):
    assert cli.main(["fault-models"]) == 0
    out = capsys.readouterr().out
    for name in fault_model_names():
        assert name in out
    assert "* stuck-at" in out
