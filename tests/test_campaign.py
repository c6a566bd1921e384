"""Tests for the unified campaign pipeline API (repro.campaign)."""

import json

import pytest

from repro.campaign import (
    CACHE_VERSION,
    Campaign,
    CampaignConfig,
    CampaignEvents,
    CampaignResult,
    CircuitResult,
    ResultCache,
    STAGE_REGISTRY,
    Stage,
    get_stage,
    register_stage,
    stage_names,
)
from repro.errors import ConfigError, SamplingError
from repro.sampling import build_strategy, get_strategy

#: Tiny budgets: every stage of the real pipeline, fast.
FAST = dict(
    seed=77,
    random_budget_comb=96,
    random_budget_seq=96,
    equivalence_budget=32,
    max_vectors=24,
)


@pytest.fixture(scope="module")
def campaign_c17():
    return Campaign(CampaignConfig(**FAST)).run(("c17",))


# -- config ------------------------------------------------------------------


def test_config_json_roundtrip():
    config = CampaignConfig(
        seed=5,
        operators=("LOR", "VR"),
        strategies=("random",),
        fraction=0.25,
        weights={"LOR": 1.0, "VR": 0.5},
        sample_labels=("variant-a",),
        circuits=("c17",),
        jobs=4,
        cache_dir="/tmp/cache",
    )
    assert CampaignConfig.from_json(config.to_json()) == config


def test_config_from_dict_normalizes_lists():
    config = CampaignConfig.from_dict(
        {"operators": ["LOR"], "circuits": ["c17", "b01"]}
    )
    assert config.operators == ("LOR",)
    assert config.circuits == ("c17", "b01")


def test_config_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        CampaignConfig.from_dict({"not_a_knob": 1})


def test_config_validation():
    with pytest.raises(ConfigError):
        CampaignConfig(fraction=0.0)
    with pytest.raises(ConfigError):
        CampaignConfig(jobs=0)
    with pytest.raises(ConfigError):
        CampaignConfig(weight_scheme="magic")


def test_config_from_file(tmp_path):
    path = tmp_path / "campaign.json"
    path.write_text(CampaignConfig(seed=9).to_json())
    assert CampaignConfig.from_file(path).seed == 9


def test_fingerprint_ignores_execution_fields():
    base = CampaignConfig(**FAST)
    assert base.fingerprint() == CampaignConfig(
        **FAST, jobs=8, cache_dir="/elsewhere", circuits=("c17",)
    ).fingerprint()
    assert base.fingerprint() != CampaignConfig(
        **{**FAST, "seed": 78}
    ).fingerprint()


#: A non-default value for every ``LAB_FIELDS`` field.
LAB_VALUES = dict(
    seed=77, random_budget_comb=96, random_budget_seq=80,
    equivalence_budget=32, fault_lanes=64, engine="interp",
    fault_model="seu", fault_model_knobs={"cycles": 2},
    prune_untestable=True,
)


def test_lab_config_slice():
    from dataclasses import fields

    from repro.campaign.config import LAB_FIELDS
    from repro.experiments.context import get_lab

    assert set(LAB_FIELDS) == set(LAB_VALUES)
    assert set(LAB_FIELDS) <= {f.name for f in fields(CampaignConfig)}
    config = CampaignConfig(**LAB_VALUES, fraction=0.5, search="bitflip",
                            max_vectors=9)
    # The slice keeps every lab value and resets everything else.
    assert config.lab_config() == CampaignConfig(**LAB_VALUES)
    # A shared lab stores the slice, never its first caller's extras.
    base = CampaignConfig(**FAST)
    lab = get_lab("c17", base.replace(max_vectors=9))
    assert lab.config == base.lab_config()


def test_get_lab_shares_labs_across_non_lab_fields():
    import dataclasses

    from repro.experiments.context import get_lab

    base = CampaignConfig(**FAST)
    lab = get_lab("c17", base.lab_config())
    for other in (base.replace(fraction=0.5), base.replace(search="bitflip")):
        assert get_lab("c17", other.lab_config()) is lab
    # One change per lab field (FAST already sets the seed and budgets;
    # stuck-at takes no knobs, so its knob change is None -> {}).
    changes = dict(LAB_VALUES, seed=78, random_budget_comb=97,
                   random_budget_seq=97, equivalence_budget=33,
                   fault_model="transition", fault_model_knobs={})
    for name, value in changes.items():
        changed = dataclasses.replace(base.lab_config(), **{name: value})
        assert get_lab("c17", changed) is not lab, name
    # Knob dicts key by content, not insertion order.
    ordered, swapped = (
        base.replace(fault_model="seu", fault_model_knobs=knobs)
        for knobs in ({"cycles": 2, "stride": 1}, {"stride": 1, "cycles": 2})
    )
    assert get_lab("c17", ordered.lab_config()) is get_lab(
        "c17", swapped.lab_config()
    )


# -- registries --------------------------------------------------------------


def test_stage_registry_lookup():
    assert set(stage_names()) >= {
        "synth", "mutants", "sampling", "testgen", "fault-validation",
        "metrics",
    }
    assert get_stage("synth").name == "synth"
    with pytest.raises(ConfigError):
        get_stage("not-a-stage")


def test_stage_registry_override(monkeypatch):
    calls = []

    class RecorderStage(Stage):
        name = "recorder"

        def run(self, ctx):
            calls.append(ctx.circuit)

    monkeypatch.setitem(STAGE_REGISTRY, "recorder", RecorderStage)
    config = CampaignConfig(
        **FAST, strategies=(), operators=(),
        stages=("synth", "recorder"),
    )
    Campaign(config).run(("c17",))
    assert calls == ["c17"]


def test_strategy_registry():
    assert get_strategy("random").name == "random"
    strategy = build_strategy("test-oriented", 0.2, {"LOR": 1.0})
    assert strategy.fraction == 0.2
    assert strategy.weights == {"LOR": 1.0}
    assert build_strategy("exhaustive").sample_size(10) == 10
    with pytest.raises(SamplingError):
        get_strategy("not-a-strategy")


# -- pipeline results --------------------------------------------------------


def test_campaign_result_shape(campaign_c17):
    circuit = campaign_c17.circuit("c17")
    assert circuit.circuit == "c17"
    assert not circuit.sequential
    assert circuit.gates > 0 and circuit.faults > 0 and circuit.mutants > 0
    assert {row.strategy for row in circuit.strategies} == {
        "random", "test-oriented"
    }
    assert circuit.operators, "calibration rows expected"
    for row in circuit.strategies:
        assert 0.0 <= row.ms_pct <= 100.0
        assert len(row.vectors) == row.test_length


def test_campaign_result_json_roundtrip(campaign_c17):
    again = CampaignResult.from_json(campaign_c17.to_json())
    assert [c.to_dict() for c in again.circuits] == [
        c.to_dict() for c in campaign_c17.circuits
    ]
    assert again.config == campaign_c17.config


def test_campaign_tables_match_facades(campaign_c17):
    from repro.experiments.table1 import run_table1
    from repro.experiments.table2 import run_table2

    config = CampaignConfig(
        seed=77, random_budget_comb=96, random_budget_seq=96,
        equivalence_budget=32,
    )
    table1 = run_table1(circuits=("c17",), config=config, max_vectors=24)
    table2 = run_table2(circuits=("c17",), config=config, max_vectors=24)
    assert campaign_c17.table1().rows == table1.rows
    assert campaign_c17.table2().rows == table2.rows


def test_facades_keep_config_execution_fields(tmp_path):
    """``jobs``/``cache_dir`` left unset keep the config's values."""
    from repro.experiments.table1 import run_table1
    from repro.experiments.table2 import run_table2

    config = CampaignConfig(
        seed=77, random_budget_comb=96, random_budget_seq=96,
        equivalence_budget=32, jobs=2,
    )
    for name, facade in (("t1", run_table1), ("t2", run_table2)):
        table = facade(("c17",), config=config, max_vectors=24)
        cache = tmp_path / name
        cached = facade(
            ("c17",), config=config.replace(cache_dir=str(cache)),
            max_vectors=24,
        )
        assert list(cache.glob("c17-*.json")), f"{name}: cache not written"
        assert cached.rows == table.rows
        # An explicit keyword still wins over the config.
        other = tmp_path / f"{name}-explicit"
        facade(("c17",), config=config.replace(cache_dir=str(cache)),
               max_vectors=24, cache_dir=str(other), jobs=1)
        assert list(other.glob("c17-*.json"))


def test_parallel_matches_serial():
    serial = Campaign(CampaignConfig(**FAST, jobs=1)).run(("c17", "b01"))
    parallel = Campaign(CampaignConfig(**FAST, jobs=2)).run(("c17", "b01"))
    assert [c.to_dict() for c in parallel.circuits] == [
        c.to_dict() for c in serial.circuits
    ]
    assert [c.circuit for c in parallel.circuits] == ["c17", "b01"]


@pytest.mark.parametrize("jobs", [1, 2])
def test_finished_circuit_is_cached_before_it_is_reported(tmp_path, jobs):
    """A hook aborting on the first completion keeps that circuit."""

    class AbortOnDone(CampaignEvents):
        def __init__(self):
            self.reported = []

        def on_circuit_done(self, circuit, result, seconds, cached=False):
            self.reported.append(circuit)
            raise KeyboardInterrupt

    config = CampaignConfig(**FAST, jobs=jobs, cache_dir=str(tmp_path))
    abort = AbortOnDone()
    with pytest.raises(KeyboardInterrupt):
        Campaign(config, abort).run(("c17", "b01"))
    assert abort.reported, "the abort came from on_circuit_done"
    cache = ResultCache(str(tmp_path), config)
    assert cache.load(abort.reported[0]) is not None


def test_events_fire_in_order():
    class Recorder(CampaignEvents):
        def __init__(self):
            self.events = []

        def on_campaign_start(self, circuits, config):
            self.events.append(("campaign-start", circuits))

        def on_circuit_start(self, circuit):
            self.events.append(("circuit-start", circuit))

        def on_stage_start(self, circuit, stage):
            self.events.append(("stage-start", stage))

        def on_stage_end(self, circuit, stage, seconds):
            self.events.append(("stage-end", stage))

        def on_circuit_done(self, circuit, result, seconds, cached=False):
            self.events.append(("circuit-done", circuit, cached))

        def on_campaign_end(self, result, seconds):
            self.events.append(("campaign-end", len(result.circuits)))

    recorder = Recorder()
    config = CampaignConfig(**FAST, strategies=(), operators=("LOR",))
    Campaign(config, recorder).run(("c17",))
    kinds = [event[0] for event in recorder.events]
    assert kinds[0] == "campaign-start"
    assert kinds[1] == "circuit-start"
    assert kinds[-2] == ("circuit-done")
    assert kinds[-1] == "campaign-end"
    stages = [e[1] for e in recorder.events if e[0] == "stage-start"]
    assert stages == list(config.stages)


# -- cache -------------------------------------------------------------------


def test_cache_hit_and_miss(tmp_path):
    config = CampaignConfig(**FAST, cache_dir=str(tmp_path))
    first = Campaign(config).run(("c17",))
    assert first.cache_hits == ()
    cache = ResultCache(tmp_path, config)
    assert cache.path("c17").exists()
    assert f"v{CACHE_VERSION}" in cache.path("c17").name

    second = Campaign(config).run(("c17",))
    assert second.cache_hits == ("c17",)
    assert [c.to_dict() for c in second.circuits] == [
        c.to_dict() for c in first.circuits
    ]

    changed = CampaignConfig(
        **{**FAST, "seed": 78}, cache_dir=str(tmp_path)
    )
    third = Campaign(changed).run(("c17",))
    assert third.cache_hits == ()


def test_cache_store_cleans_up_tmp_on_failure(tmp_path, monkeypatch):
    """Regression: a failed rename used to strand `<name>.<pid>.tmp`."""
    from pathlib import Path

    config = CampaignConfig(**FAST)
    result = Campaign(config).run(("c17",)).circuits[0]
    cache = ResultCache(tmp_path, config)

    def boom(self, target):
        raise OSError("disk on fire")

    monkeypatch.setattr(Path, "replace", boom)
    with pytest.raises(OSError, match="disk on fire"):
        cache.store(result)
    assert list(tmp_path.glob("*.tmp")) == []
    assert not cache.path("c17").exists()


def test_cache_init_sweeps_stale_tmp_droppings(tmp_path):
    import os

    config = CampaignConfig(**FAST, cache_dir=str(tmp_path))
    cache = ResultCache(tmp_path, config)
    base = cache.path("c17")
    # A dead writer's dropping (pid beyond any real pid space) ...
    stale = base.with_name(base.name + f".{1 << 30}.tmp")
    stale.write_text("half a payload")
    # ... and a live writer's in-flight file (our own pid).
    inflight = base.with_name(base.name + f".{os.getpid()}.tmp")
    inflight.write_text("being written right now")
    ResultCache(tmp_path, config)
    assert not stale.exists()
    assert inflight.exists()


def test_cache_ignores_corrupt_entries(tmp_path):
    config = CampaignConfig(**FAST, cache_dir=str(tmp_path))
    Campaign(config).run(("c17",))
    cache = ResultCache(tmp_path, config)
    cache.path("c17").write_text("{ not json")
    result = Campaign(config).run(("c17",))
    assert result.cache_hits == ()
    assert result.circuit("c17").mutants > 0


def test_cache_roundtrip_result(tmp_path):
    config = CampaignConfig(**FAST)
    cache = ResultCache(tmp_path, config)
    row = CircuitResult(
        circuit="x", sequential=False, gates=1, dffs=0, depth=1,
        faults=2, mutants=3, equivalents=0,
    )
    cache.store(row)
    loaded = cache.load("x")
    assert loaded == row
    assert cache.load("y") is None


# -- custom pipelines --------------------------------------------------------


def test_truncated_pipeline_skips_scoring():
    config = CampaignConfig(
        **FAST,
        operators=(),
        strategies=("exhaustive",),
        stages=("synth", "mutants", "sampling", "testgen"),
    )
    result = Campaign(config).run(("c17",))
    row = result.circuit("c17").strategy("exhaustive")
    assert row.selected == result.circuit("c17").mutants
    assert row.vectors, "testgen ran"
    assert row.nlfce == 0.0 and row.test_length == 0  # no metrics stage
    assert result.circuit("c17").equivalents == 0     # no scoring pass


def test_pipeline_requires_synth_first():
    config = CampaignConfig(**FAST, stages=("mutants",))
    with pytest.raises(ConfigError):
        Campaign(config).run(("c17",))


def test_explicit_weights_override_scheme():
    config = CampaignConfig(
        **FAST,
        operators=(),
        strategies=("test-oriented",),
        weights={"LOR": 1.0, "VR": 0.1, "CVR": 0.1, "CR": 0.1},
    )
    result = Campaign(config).run(("c17",))
    assert result.circuit("c17").weights == {
        "LOR": 1.0, "VR": 0.1, "CVR": 0.1, "CR": 0.1,
    }


# -- CLI ---------------------------------------------------------------------


def test_cli_run_with_json(tmp_path, capsys):
    from repro.cli import main

    config_path = tmp_path / "campaign.json"
    config_path.write_text(
        CampaignConfig(**FAST, circuits=("c17",), strategies=()).to_json()
    )
    out_path = tmp_path / "result.json"
    assert main(["run", str(config_path), "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert "Campaign: circuit inventory" in out
    data = json.loads(out_path.read_text())
    assert [c["circuit"] for c in data["circuits"]] == ["c17"]


def test_cli_run_fault_lanes_overrides_the_default(tmp_path, capsys):
    from repro.cli import main

    config_path = tmp_path / "campaign.json"
    config_path.write_text(
        CampaignConfig(**FAST, circuits=("b01",), strategies=()).to_json()
    )
    lanes = {}
    for flags in ([], ["--fault-lanes", "64"]):
        out_path = tmp_path / "result.json"
        assert main(["run", str(config_path), "--json", str(out_path),
                     *flags]) == 0
        data = json.loads(out_path.read_text())
        lanes[tuple(flags)] = data["config"]["fault_lanes"]
    capsys.readouterr()
    assert lanes == {(): None, ("--fault-lanes", "64"): 64}


def test_cli_table1_json(tmp_path, capsys):
    from repro.cli import main

    out_path = tmp_path / "table1.json"
    assert main([
        "table1", "--circuits", "c17", "--seed", "77",
        "--random-budget", "96", "--equivalence-budget", "32",
        "--max-vectors", "24", "--json", str(out_path),
    ]) == 0
    assert "Operator Fault Coverage Efficiency" in capsys.readouterr().out
    data = json.loads(out_path.read_text())
    assert data["circuits"][0]["operators"], "calibration rows archived"
