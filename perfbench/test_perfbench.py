"""Tests of the benchmark harness itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_c17_run_emits_every_named_metric(monkeypatch, tmp_path, capsys,
                                          trace, section):
    monkeypatch.setattr(run, "RECORDS", tmp_path / "records.jsonl")
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    code = run.main(["--workload", "smoke-c17", "--seconds", "0",
                     "--trace", str(trace)])
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC[section]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    table = "\n".join(out[:-1])
    for metric in declared:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert (f"{metric['unit']:9s} {metric['better']} is better"
                in table), metric["name"]
    assert "fail_rate" in table
    if section == "end_to_end":
        assert all(e["value"] > 0 for e in result["metrics"].values())
    record = json.loads((tmp_path / "records.jsonl").read_text())
    assert {"cpus", "python", "numpy", "engine", "commit", "code"} <= set(
        record["stamp"]
    )
    assert record["nondeterministic"] is False


def test_perturbed_payload_counts_toward_fail_rate():
    workload = workloads.WORKLOADS["smoke-c17"]
    expected = run.load_golden()["smoke-c17"]
    payload = workloads.payloads(workload, workloads.run(workload))["c17"]
    good = {"digests": {"c17": workloads.digest(payload)}}
    assert run.score_pass(good, expected) == (1, 0)
    payload["strategies"][0]["killed"] += 1
    perturbed = {"digests": {"c17": workloads.digest(payload)}}
    assert run.score_pass(perturbed, expected) == (1, 1)
    crashed = {"error": "Traceback ..."}
    assert run.score_pass(crashed, expected) == (1, 1)


def test_scaling_corrects_host_speed_not_program_speed():
    nominal = {"wall_s": 2.0, "reference_s": run.REFERENCE_S}
    assert run.scaled(nominal, "wall_s") == pytest.approx(2.0)
    faster_program = dict(nominal, wall_s=1.0)
    assert run.scaled(faster_program, "wall_s") == pytest.approx(1.0)
    slow = 1.5
    slower_host = {"wall_s": 2.0 * slow ** run.HOST_SENSITIVITY,
                   "reference_s": run.REFERENCE_S * slow}
    assert run.scaled(slower_host, "wall_s") == pytest.approx(2.0)
    setup = {"setup_s": 0.5, "setup_reference_s": run.REFERENCE_S * slow}
    assert run.scaled(setup, "setup_s", "setup_reference_s") == (
        pytest.approx(0.5 / slow ** run.HOST_SENSITIVITY))


def test_self_times_plus_unattributed_cover_wall():
    tracer = layers.Tracer()
    started = time.perf_counter()
    with tracer.span("outer"):
        time.sleep(0.01)
        with tracer.span("inner"):
            time.sleep(0.02)
            with tracer.span("outer"):
                time.sleep(0.01)
    time.sleep(0.01)
    wall = time.perf_counter() - started
    unattributed = wall - tracer.root_s
    assert tracer.self_sum() == pytest.approx(tracer.root_s, abs=1e-9)
    assert unattributed > 0.005
    assert tracer.layers["inner"]["self_s"] == pytest.approx(0.02, abs=0.01)
    assert tracer.layers["outer"]["calls"] == 2


def test_counters_flag_nondeterminism_across_runs(tmp_path):
    path = tmp_path / "records.jsonl"
    base = {"workload": "w", "trace": False,
            "stamp": {"code": "abc", "cpus": 2},
            "deterministic": {"quality": {"test_length": 8.0}},
            "nondeterministic": False}
    assert not run.append_record(dict(base), path)["nondeterministic"]
    same = run.append_record(dict(base), path)
    assert not same["nondeterministic"]
    drifted = dict(base, deterministic={"quality": {"test_length": 9.0}})
    assert run.append_record(drifted, path)["nondeterministic"]
    other_code = dict(drifted, stamp={"code": "def", "cpus": 2},
                      nondeterministic=False)
    assert not run.append_record(other_code, path)["nondeterministic"]


def test_compare_refuses_records_from_different_cpus():
    def record(cpus, wall):
        return {"workload": "w", "trace": False, "stamp": {"cpus": cpus},
                "metrics": {"wall_s": wall}}

    bounds = {"wall_s": ("lower", 0.25)}
    assert "refused" in compare.compare([record(1, 1.0)], [record(2, 1.0)],
                                        bounds)
    report = compare.compare([record(2, 1.0)], [record(2, 1.3)], bounds)
    assert report["regressions"] == 1
    report = compare.compare([record(2, 1.0)], [record(2, 1.2)], bounds)
    assert report["regressions"] == 0


def test_benchmark_json_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == run.benchmark_workloads()
    for entry in SPEC["workloads"]:
        assert entry["why"] == workloads.WORKLOADS[entry["name"]].why
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"])
            for m in SPEC["per_layer"]} == run.per_layer_units()
