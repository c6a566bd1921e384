"""Integration tests: experiment harness and the CLI."""

import pytest

from repro.campaign import CampaignConfig
from repro.experiments.context import get_lab
from repro.experiments.report import table1_text, table2_text, to_json
from repro.experiments.table1 import run_table1
from repro.experiments.table2 import run_table2
from repro.cli import main

#: Tiny budgets keep the integration tests fast while driving every
#: stage of the real pipeline.
FAST = CampaignConfig(
    seed=77,
    random_budget_comb=128,
    random_budget_seq=128,
    equivalence_budget=48,
    max_vectors=48,
)


@pytest.fixture(scope="module")
def table1_b01():
    return run_table1(circuits=("b01",), config=FAST)


@pytest.fixture(scope="module")
def table2_b01():
    return run_table2(circuits=("b01",), config=FAST, calibrate=True)


def test_table1_has_rows_for_applicable_operators(table1_b01):
    operators = {row.operator for row in table1_b01.rows}
    assert "LOR" in operators
    assert "CR" in operators  # b01 declares constants


def test_table1_rows_well_formed(table1_b01):
    for row in table1_b01.rows:
        assert row.circuit == "b01"
        assert row.mutants > 0
        assert row.test_length > 0
        assert 0.0 <= row.mfc_pct <= 100.0


def test_table1_calibration_interface(table1_b01):
    efficiencies = table1_b01.nlfce_by_operator("b01")
    assert set(efficiencies) == {r.operator for r in table1_b01.rows}
    ranking = table1_b01.operator_ranking("b01")
    assert len(ranking) == len(efficiencies)


def test_table1_deterministic(table1_b01):
    again = run_table1(circuits=("b01",), config=FAST)
    assert [
        (r.circuit, r.operator, r.nlfce) for r in again.rows
    ] == [(r.circuit, r.operator, r.nlfce) for r in table1_b01.rows]


def test_table2_has_both_strategies(table2_b01):
    strategies = {row.strategy for row in table2_b01.rows}
    assert strategies == {"random", "test-oriented"}


def test_table2_equal_sample_sizes(table2_b01):
    random_row = table2_b01.row("b01", "random")
    oriented_row = table2_b01.row("b01", "test-oriented")
    assert random_row.selected == oriented_row.selected
    assert random_row.population == oriented_row.population


def test_table2_scores_in_range(table2_b01):
    for row in table2_b01.rows:
        assert 0.0 <= row.ms_pct <= 100.0
        assert row.killed <= row.population - row.equivalents


def test_table2_advantage_interface(table2_b01):
    ms_delta, nlfce_delta = table2_b01.advantage("b01")
    assert isinstance(ms_delta, float)
    assert isinstance(nlfce_delta, float)


def test_lab_caching():
    lab1 = get_lab("b01", FAST)
    lab2 = get_lab("b01", FAST)
    assert lab1 is lab2
    assert lab1.random_vectors is lab2.random_vectors


def test_report_rendering(table1_b01, table2_b01):
    text1 = table1_text(table1_b01)
    assert "Operator Fault Coverage Efficiency" in text1
    assert "b01" in text1
    text2 = table2_text(table2_b01)
    assert "MS%" in text2


def test_json_serialization(table2_b01):
    blob = to_json(table2_b01.rows)
    assert "test-oriented" in blob


# -- CLI --------------------------------------------------------------------


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "b01" in out and "c499" in out


def test_cli_show(capsys):
    assert main(["show", "c17"]) == 0
    out = capsys.readouterr().out
    assert "collapsed" in out
    assert "mutants" in out


def test_cli_synth_bench_output(capsys):
    assert main(["synth", "c17"]) == 0
    out = capsys.readouterr().out
    assert "NAND" in out
    assert "INPUT(i1)" in out


def test_cli_mutants_limit(capsys):
    assert main(["mutants", "b01", "--operator", "LOR", "--limit", "5"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) <= 6


def test_cli_testgen(capsys):
    assert main(["testgen", "c17", "--operator", "LOR", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "vectors kill" in out


def test_cli_testgen_follows_campaign_conventions(capsys):
    # The testgen subcommand is governed by the same CampaignConfig
    # options as the experiment subcommands.
    assert main([
        "testgen", "c17", "--operator", "LOR",
        "--testgen-seed", "3", "--max-vectors", "4",
    ]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert "vectors kill" in out[0]
    assert len(out) <= 5  # the --max-vectors cap held


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


def test_cli_engines_listing(capsys):
    assert main(["engines"]) == 0
    out = capsys.readouterr().out
    assert "interp" in out
    assert "compiled" in out
    assert "default backend" in out


def test_cli_rejects_unknown_engine(capsys):
    with pytest.raises(SystemExit):
        main(["table1", "--circuits", "c17", "--engine", "laser"])


@pytest.mark.parametrize("argv", [
    "ablation rate --search bitflip",
    "ablation rate --search-budget 8",
    "ablation rate --static-prescreen",
    "atpg-reuse --search bitflip",
    "atpg-reuse --search-budget 8",
    "atpg-reuse --static-prescreen",
    "atpg-reuse --sampling-seed 3",
    "search-compare --sampling-seed 3",
    "search-compare --static-prescreen",
])
def test_lab_commands_reject_flags_they_do_not_read(
    argv, monkeypatch, capsys
):
    # The facades are stubbed so an accepted flag fails fast instead of
    # running a default-budget experiment.
    from repro.experiments import ablation, atpg_reuse, search_compare

    for module, name in ((ablation, "run_rate_ablation"),
                         (atpg_reuse, "run_atpg_reuse"),
                         (search_compare, "run_search_compare")):
        monkeypatch.setattr(module, name, lambda **kwargs: [])
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


#: ``_campaign_config(args).to_dict()`` of the table, testgen and
#: lab-based commands given no options, pinned as a literal so a
#: changed field default or a dropped flag shows up here.
CLI_DEFAULT_CONFIG = {
    "batch_size": 64, "cache_dir": None, "cache_max_entries": None,
    "chunk_candidates": 6, "chunk_length": 4,
    "circuits": ["b01", "b03", "c432", "c499"], "coordinator": None,
    "engine": "compiled", "equivalence_budget": 256,
    "fault_model": "stuck-at", "fault_model_knobs": None, "fraction": 0.1,
    "grid": None, "grid_shard": 0, "grid_workers": 1, "jobs": 1,
    "max_vectors": 256, "operators": ["LOR", "VR", "CVR", "CR"],
    "prune_untestable": False, "random_budget_comb": 2048,
    "random_budget_seq": 1024, "sample_labels": [], "sampling_seed": 13,
    "search": "random", "search_budget": None, "search_knobs": None,
    "seed": 20050301,
    "stages": ["synth", "mutants", "search", "fault-validation", "metrics",
               "sampling", "search", "fault-validation", "metrics"],
    "stall_rounds": 4, "static_prescreen": False,
    "strategies": ["random", "test-oriented"], "telemetry": False,
    "testgen_seed": 7, "trace": False, "weight_scheme": "calibrated",
    "weights": None,
}


@pytest.mark.parametrize("argv", [
    ["table1"], ["table2"], ["testgen", "c17"], ["atpg-reuse"],
    ["ablation", "rate"], ["search-compare"],
])
def test_cli_defaults_match_config(argv):
    from repro.cli import _build_parser, _campaign_config

    args = _build_parser().parse_args(argv)
    expected = dict(CLI_DEFAULT_CONFIG)
    if argv == ["search-compare"]:
        # Resolved to DEFAULT_SEARCH_SEED by the command itself.
        expected["testgen_seed"] = None
    assert _campaign_config(args).to_dict() == expected


#: The CI smoke commands of the lab facades, by ``FACADE_GOLDEN`` key.
LAB_COMMANDS = {
    "atpg-reuse": "atpg-reuse --circuits c17 --max-vectors 24",
    "ablation-rate": "ablation rate --circuit b01 --max-vectors 24",
    "ablation-weights": "ablation weights --circuit b01 --max-vectors 24",
    "search-compare": "search-compare --circuits c17 --strategies random "
                      "bitflip --budget 128 --max-vectors 32",
}


@pytest.mark.parametrize("name", sorted(LAB_COMMANDS))
def test_lab_command_digest_is_pinned(name, tmp_path, capsys):
    """The CLI path of each lab facade (flags -> config -> facade)
    writes the rows its Python call is pinned to."""
    import json

    from tests.test_digests import FACADE_GOLDEN, facade_digest

    path = tmp_path / "rows.json"
    argv = LAB_COMMANDS[name].split() + [
        "--random-budget", "96", "--equivalence-budget", "32",
        "--json", str(path),
    ]
    assert main(argv) == 0
    capsys.readouterr()
    rows = json.loads(path.read_text(encoding="utf-8"))
    assert facade_digest(rows) == FACADE_GOLDEN[name]


@pytest.mark.parametrize("command", ["table1", "table2"])
def test_cli_engine_selection_is_bit_identical(command, capsys):
    """`--engine compiled` output must equal `--engine interp` exactly."""
    argv = [
        command, "--circuits", "c17", "--random-budget", "128",
        "--equivalence-budget", "32", "--max-vectors", "32",
    ]
    outputs = {}
    for engine in ("interp", "compiled"):
        assert main(argv + ["--engine", engine]) == 0
        outputs[engine] = capsys.readouterr().out
    assert outputs["interp"] == outputs["compiled"]


def test_cli_rejects_fault_lanes(capsys):
    """The retired lane-width flag is an unknown option."""
    for argv in (["table1"], ["run", "campaign.json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--fault-lanes", "8"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
