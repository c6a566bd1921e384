"""Tests for repro.grid: sharded work units, schedulers, job store.

The load-bearing property: every (scheduler, shard size) combination
is bit-identical to the serial campaign, because units shard along
axes whose merges are pure unions/concatenations.  Pinned here on
random comb/seq netlists (merge algebra), on real labs (kill-analysis
and equivalence unions), and on full c432+b01 campaign payloads
(end-to-end through every scheduler backend).
"""

from __future__ import annotations

import io
import json
import multiprocessing
import os
import random

import pytest

from repro.campaign import (
    Campaign,
    CampaignConfig,
    CampaignEvents,
    GuardedEvents,
    ProgressEvents,
    ResultCache,
    guard_events,
)
from repro.errors import ConfigError, GridError
from repro.experiments.context import _LABS, get_lab
from repro.fault import collapse_faults, simulate_stuck_at
from repro.grid import (
    GridExecutor,
    JobStore,
    WorkUnit,
    build_scheduler,
    get_scheduler,
    merge_detections,
    plan_fault_sim,
    plan_kill_analysis,
    register_scheduler,
    scheduler_names,
    shard_ranges,
    shard_size,
)
from repro.grid import worker
from repro.mutation import MutationEngine
from repro.obs import metrics
from repro.util import rng_stream
from tests.test_engine import random_netlist

#: Tiny budgets: every stage of the real pipeline, fast.
FAST = dict(
    seed=77,
    random_budget_comb=96,
    random_budget_seq=96,
    equivalence_budget=32,
    max_vectors=24,
)

#: c432+b01 with one operator and one strategy: every grid-dispatched
#: operation (baseline, per-target validation, kill analysis,
#: equivalence) on a big comb and a seq circuit, at test speed.
REDUCED = dict(FAST, operators=("LOR",), strategies=("random",))

SHARD_SIZES = (1, 3, 7)


def fresh_labs():
    """Drop memoized labs so grid paths actually dispatch units."""
    _LABS.clear()


@pytest.fixture(scope="module")
def serial_reduced():
    fresh_labs()
    return Campaign(CampaignConfig(**REDUCED)).run(("c432", "b01"))


@pytest.fixture(scope="module")
def serial_c17():
    fresh_labs()
    return Campaign(CampaignConfig(**FAST)).run(("c17",))


def payload(result):
    return [c.to_dict() for c in result.circuits]


# -- units and planners ------------------------------------------------------


def test_work_unit_validation_and_identity():
    unit = WorkUnit("c17", "fault-validation", "baseline", "fault-chunk",
                    0, 2, {"start": 0, "stop": 3, "vectors": [1, 2]})
    again = WorkUnit.from_dict(unit.to_dict())
    assert again == unit
    assert again.digest == unit.digest
    assert unit.uid.endswith(unit.digest)
    other = WorkUnit("c17", "fault-validation", "baseline", "fault-chunk",
                     0, 2, {"start": 0, "stop": 3, "vectors": [1, 3]})
    assert other.digest != unit.digest, "spec changes must change identity"
    with pytest.raises(GridError):
        WorkUnit("c17", "s", "k", "not-a-kind", 0, 1, {})
    with pytest.raises(GridError):
        WorkUnit("c17", "s", "k", "fault-chunk", 2, 2, {})
    with pytest.raises(GridError):
        WorkUnit.from_dict({"circuit": "c17"})


def test_shard_ranges_cover_axis():
    for total in (0, 1, 5, 16, 17):
        for size in (1, 3, 7, 16):
            ranges = shard_ranges(total, size)
            covered = [i for a, b in ranges for i in range(a, b)]
            assert covered == list(range(total))
    with pytest.raises(GridError):
        shard_ranges(4, 0)


def test_shard_size_auto_is_worker_independent():
    assert shard_size(100, 10) == 10          # explicit wins
    assert shard_size(1600, 0) == 100         # auto: 16 units
    assert shard_size(5, 0) == 1
    assert shard_size(0, 0) == 1
    with pytest.raises(GridError):
        shard_size(10, -1)


def test_planner_units_are_deterministic():
    a = plan_fault_sim("c17", "baseline", 22, [1, 2, 3], 7)
    b = plan_fault_sim("c17", "baseline", 22, [1, 2, 3], 7)
    assert [u.digest for u in a] == [u.digest for u in b]
    assert [u.index for u in a] == list(range(len(a)))
    assert all(u.total == len(a) for u in a)


# -- scheduler registry ------------------------------------------------------


def test_scheduler_registry():
    assert set(scheduler_names()) == {"serial", "process", "remote"}
    assert get_scheduler("serial").name == "serial"
    with pytest.raises(GridError):
        get_scheduler("not-a-scheduler")
    with pytest.raises(GridError):
        build_scheduler("serial", 0)

    with pytest.raises(GridError):
        @register_scheduler
        class Hijack:  # same name, different class
            name = "serial"


def test_thread_scheduler_is_gone():
    with pytest.raises(GridError):
        get_scheduler("thread")
    with pytest.raises(ConfigError):
        CampaignConfig(grid="thread")


# -- merge algebra on random netlists (satellite: property test) -------------


def _netlist_case(case: int, sequential: bool):
    rng = rng_stream(20260730, "grid-fuzz", "seq" if sequential else "comb",
                     str(case))
    netlist = random_netlist(
        rng,
        num_inputs=rng.randint(2, 6),
        num_gates=rng.randint(3, 30),
        num_dffs=rng.randint(1, 4) if sequential else 0,
    )
    width = len(netlist.input_bits)
    vectors = [rng.getrandbits(width) for _ in range(rng.randint(4, 24))]
    return netlist, vectors


@pytest.mark.parametrize("sequential", [False, True])
def test_sharded_fault_validation_bit_identical_on_random_netlists(
    sequential,
):
    for case in range(8):
        netlist, vectors = _netlist_case(case, sequential)
        faults = collapse_faults(netlist)
        serial = simulate_stuck_at(netlist, vectors, faults)
        for shard in (*SHARD_SIZES, len(faults) or 1):
            chunks = [
                simulate_stuck_at(
                    netlist, vectors, faults[start:stop]
                ).detection
                for start, stop in shard_ranges(len(faults), shard)
            ]
            merged = merge_detections(
                [{"detection": chunk} for chunk in chunks]
            )
            assert merged == serial.detection, (
                f"case {case} shard {shard}"
            )


# -- sharded operations on a real lab ----------------------------------------


def _lab(name="c17"):
    return get_lab(name, CampaignConfig(
        seed=77, random_budget_comb=96, random_budget_seq=96,
        equivalence_budget=32,
    ))


@pytest.mark.parametrize("shard", [*SHARD_SIZES, 0])
def test_executor_fault_sim_matches_lab(shard):
    lab = _lab()
    config = CampaignConfig(**FAST, grid="serial", grid_shard=shard)
    grid = GridExecutor(config)
    try:
        sharded = grid.fault_sim(lab, lab.random_vectors, "baseline")
    finally:
        grid.close()
    serial = lab.fault_sim(lab.random_vectors)
    assert sharded.detection == serial.detection
    assert sharded.num_patterns == serial.num_patterns
    assert sharded.faults == serial.faults


@pytest.fixture
def good_word_passes(monkeypatch):
    """Counts good-machine passes; starts from an empty wave memo."""
    from repro.fault.comb_sim import CombFaultSimulator

    worker._WAVE_MEMO.clear()
    calls = []
    original = CombFaultSimulator.good_words

    def counted(self, patterns):
        calls.append(len(patterns))
        return original(self, patterns)

    monkeypatch.setattr(CombFaultSimulator, "good_words", counted)
    yield calls
    worker._WAVE_MEMO.clear()


def test_fault_chunk_wave_memo_reproduces_serial(good_word_passes):
    """Interleaved c432 waves share one good-machine pass per list."""
    config = CampaignConfig(**FAST)
    lab = get_lab("c432", config)
    first = lab.random_vectors
    second = list(reversed(first[:64]))
    waves = {
        key: plan_fault_sim("c432", key, len(lab.sim_faults), vectors)
        for key, vectors in (("baseline", first), ("target", second))
    }
    order = [unit for units in waves.values() for unit in units]
    random.Random(5).shuffle(order)
    results = {unit.uid: worker.execute_unit(unit, config) for unit in order}
    for key, vectors in (("baseline", first), ("target", second)):
        merged = merge_detections(
            [results[unit.uid] for unit in waves[key]]
        )
        assert merged == lab.fault_sim(vectors).detection, key
    # One pass per stimulus list (the serial calls above add two).
    assert sorted(good_word_passes) == sorted([len(first), len(second)] * 2)
    assert len(worker._WAVE_MEMO) <= worker._WAVE_MEMO_MAX

    # A different engine or netlist never hits a stored entry.
    chunk = waves["baseline"][0]
    interp = config.replace(engine="interp")
    assert worker.execute_unit(chunk, interp) == results[chunk.uid]
    c17 = get_lab("c17", config)
    narrow = [vector & 0b11111 for vector in first]
    (whole,) = plan_fault_sim("c17", "k", len(c17.sim_faults), narrow, 99)
    assert worker.execute_unit(whole, config) == {
        "detection": c17.fault_sim(narrow).detection
    }
    assert good_word_passes[4:] == [len(first), len(narrow), len(narrow)]
    assert {key[:3] for key in worker._WAVE_MEMO} == {
        ("good", "c432", "compiled"), ("good", "c432", "interp"),
        ("good", "c17", "compiled"),
    }


def test_wave_memo_is_bounded(good_word_passes):
    config = CampaignConfig(**FAST)
    lab = _lab()
    for shift in range(3 * worker._WAVE_MEMO_MAX):
        vectors = lab.random_vectors[shift:shift + 8]
        (unit,) = plan_fault_sim("c17", "k", len(lab.sim_faults), vectors, 99)
        worker.execute_unit(unit, config)
        worker.execute_unit(unit, config)  # the second run hits
        assert len(worker._WAVE_MEMO) <= worker._WAVE_MEMO_MAX
    assert len(good_word_passes) == 3 * worker._WAVE_MEMO_MAX
    # Least recently used goes first: the oldest lists were dropped.
    assert len(worker._WAVE_MEMO) == worker._WAVE_MEMO_MAX
    assert ("good", "c17", "compiled", tuple(lab.random_vectors[:8])) not in (
        worker._WAVE_MEMO
    )


def test_pruned_comb_chunks_reinflate_like_serial(good_word_passes):
    """Chunks of a post-prune list re-inflate to the full universe."""
    fresh_labs()
    config = CampaignConfig(**FAST, grid="serial", grid_shard=100,
                            prune_untestable=True)
    lab = get_lab("c432", config)
    # No benchmark comb circuit has provably untestable faults, so the
    # test prunes the faults the baseline leaves undetected (the ones a
    # proof could cover) by hand.
    undetected = [
        fault for fault, hit in zip(lab.faults, lab.random_baseline.detection)
        if hit is None
    ]
    assert undetected
    lab.pruned_faults = [(fault, "test") for fault in undetected]
    lab.sim_faults = [f for f in lab.faults if f not in undetected]
    vectors = lab.random_vectors[:48]
    grid = GridExecutor(config)
    try:
        sharded = grid.fault_sim(lab, vectors, "target")
    finally:
        grid.close()
        fresh_labs()
    serial = lab.fault_sim(vectors)
    assert sharded.faults == lab.faults
    assert sharded.detection == serial.detection
    assert all(
        hit is None
        for fault, hit in zip(lab.faults, sharded.detection)
        if fault in undetected
    )


@pytest.mark.parametrize("shard", [*SHARD_SIZES, 0])
def test_executor_killed_mids_matches_engine(shard):
    lab = _lab()
    vectors = lab.random_vectors[:12]
    mutants = lab.all_mutants
    config = CampaignConfig(**FAST, grid="serial", grid_shard=shard)
    grid = GridExecutor(config)
    try:
        sharded = grid.kill_analysis(lab, mutants, vectors, "population")[0]
    finally:
        grid.close()
    assert sharded == lab.engine.killed_mids(mutants, vectors)


def test_sequential_mutant_part_probes_once():
    # The part is covered before its reference is taken, so the
    # reference's probe is the one its runs share, even on a worker
    # whose engine last covered another part.
    config = CampaignConfig(**FAST)
    lab = get_lab("b03", config)
    mutants = lab.all_mutants[::4]
    lab.engine.cover(lab.all_mutants[1::4])
    rng = rng_stream(5, "b03", "mutant-part")
    vectors = [rng.getrandbits(lab.engine.encoder.width) for _ in range(32)]
    (unit,) = plan_kill_analysis(
        "b03", "probe-once", [m.mid for m in mutants], vectors, len(mutants)
    )
    with metrics.collecting() as registry:
        result = worker.execute_unit(unit, config)
    assert registry.snapshot()["counters"]["mutation.probe.passes"] == 1
    records = MutationEngine(lab.design).run_all(mutants, vectors)
    assert result == {
        "killed": sorted(r.mid for r in records if r.killed),
        "witnesses": {str(r.mid): [r.cycle, r.reason]
                      for r in records if r.killed},
    }


@pytest.mark.parametrize("shard", [1, 7, 0])
def test_executor_equivalence_matches_lab(shard):
    lab = _lab()
    config = CampaignConfig(**FAST, grid="serial", grid_shard=shard)
    grid = GridExecutor(config)
    try:
        sharded = grid.equivalence(lab)
    finally:
        grid.close()
    serial = lab.equivalence
    assert sharded.equivalent_mids == serial.equivalent_mids
    assert sharded.kill_cycle == serial.kill_cycle
    assert sharded.budget == serial.budget
    assert sharded.exhaustive == serial.exhaustive
    assert sharded.seed == serial.seed


# -- full campaigns: every scheduler, bit-identical --------------------------


@pytest.mark.parametrize("shard", SHARD_SIZES)
def test_grid_campaign_shard_sizes_match_serial_c17(serial_c17, shard):
    fresh_labs()
    grid = Campaign(
        CampaignConfig(**FAST, grid="serial", grid_shard=shard)
    ).run(("c17",))
    assert payload(grid) == payload(serial_c17)


@pytest.mark.parametrize("scheduler", ["serial", "process"])
def test_grid_campaign_schedulers_match_serial_c432_b01(
    serial_reduced, scheduler
):
    fresh_labs()
    grid = Campaign(
        CampaignConfig(**REDUCED, grid=scheduler, grid_workers=2)
    ).run(("c432", "b01"))
    assert payload(grid) == payload(serial_reduced)


def test_grid_supersedes_jobs(serial_c17):
    """grid + jobs>1 runs in the parent: stage hooks stay observable."""
    fresh_labs()

    class Recorder(CampaignEvents):
        def __init__(self):
            self.stages = []
            self.units = 0

        def on_stage_start(self, circuit, stage):
            self.stages.append(stage)

        def on_unit_done(self, unit, seconds, cached=False):
            self.units += 1

    recorder = Recorder()
    config = CampaignConfig(**FAST, grid="serial", jobs=4)
    result = Campaign(config, recorder).run(("c17",))
    assert payload(result) == payload(serial_c17)
    assert recorder.stages == list(config.stages)
    assert recorder.units > 0


# -- resume (the job store) --------------------------------------------------


class AbortAfter(CampaignEvents):
    """Raise KeyboardInterrupt once the n-th unit completes."""

    def __init__(self, n):
        self.n = n
        self.count = 0

    def on_unit_done(self, unit, seconds, cached=False):
        self.count += 1
        if self.count == self.n:
            raise KeyboardInterrupt


class UnitCounter(CampaignEvents):
    def __init__(self):
        self.cached = 0
        self.fresh = 0

    def on_unit_done(self, unit, seconds, cached=False):
        if cached:
            self.cached += 1
        else:
            self.fresh += 1


def test_killed_campaign_resumes_without_recompute(tmp_path, serial_c17):
    fresh_labs()
    config = CampaignConfig(**FAST, grid="serial", cache_dir=str(tmp_path))
    with pytest.raises(KeyboardInterrupt):
        Campaign(config, AbortAfter(5)).run(("c17",))
    stored = list(tmp_path.glob("grid-*/*.json"))
    assert len(stored) == 5, "every finished unit persisted before the kill"
    assert not list(tmp_path.glob("*.json")), "no circuit-level entry yet"

    fresh_labs()
    counter = UnitCounter()
    result = Campaign(config, counter).run(("c17",), resume=True)
    assert counter.cached == 5, "finished units were not recomputed"
    assert counter.fresh > 0
    assert payload(result) == payload(serial_c17)


def test_resume_survives_worker_count_change(tmp_path, serial_c17):
    """Unit boundaries depend on grid_shard, never on grid_workers."""
    fresh_labs()
    config = CampaignConfig(
        **FAST, grid="process", grid_workers=1, cache_dir=str(tmp_path)
    )
    Campaign(config).run(("c17",))
    # Drop the circuit-level entry, keep the unit ledger: the resumed
    # run must rebuild the circuit purely from stored units.
    for entry in tmp_path.glob("*.json"):
        entry.unlink()

    fresh_labs()
    counter = UnitCounter()
    wider = config.replace(grid_workers=3)
    assert wider.fingerprint() == config.fingerprint()
    result = Campaign(wider, counter).run(("c17",), resume=True)
    assert counter.fresh == 0, "every unit came from the store"
    assert counter.cached > 0
    assert payload(result) == payload(serial_c17)


def test_resume_requires_cache_dir():
    from repro.errors import CampaignError

    config = CampaignConfig(**FAST, grid="serial")
    # CampaignError (a ConfigError: the run was *invoked* wrong), and
    # the message names the missing option.
    with pytest.raises(CampaignError, match="cache_dir"):
        Campaign(config).run(("c17",), resume=True)
    assert issubclass(CampaignError, ConfigError)


def test_job_store_ignores_corrupt_and_mismatched_entries(tmp_path):
    config = CampaignConfig(**FAST, grid="serial", cache_dir=str(tmp_path))
    store = JobStore(tmp_path, config)
    unit = plan_fault_sim("c17", "baseline", 8, [1, 2], 3)[0]
    assert store.load(unit) is None
    store.store(unit, {"detection": [None, 0, 1]}, 0.1)
    assert store.load(unit) == {"detection": [None, 0, 1]}
    # Different spec -> different identity -> miss, not a stale hit.
    other = plan_fault_sim("c17", "baseline", 8, [1, 3], 3)[0]
    assert store.load(other) is None
    store.path(unit).write_text("{ not json")
    assert store.load(unit) is None
    assert store.entries() == []


def test_job_store_warns_once_per_corrupt_file(tmp_path, capsys):
    """A truncated unit file (machine died mid-write) is skipped with
    one stderr warning, not a crash — and only warned about once."""
    config = CampaignConfig(**FAST, grid="serial", cache_dir=str(tmp_path))
    store = JobStore(tmp_path, config)
    unit = plan_fault_sim("c17", "baseline", 8, [1, 2], 3)[0]
    store.store(unit, {"detection": [None, 0, 1]}, 0.1)
    intact = store.path(unit).read_text()
    store.path(unit).write_text(intact[: len(intact) // 2])  # torn write
    assert store.load(unit) is None
    assert store.load(unit) is None
    err = capsys.readouterr().err
    assert err.count("skipping corrupt unit file") == 1
    assert unit.uid in err


def test_resume_recomputes_hand_truncated_unit(tmp_path, capsys):
    """--resume across a damaged ledger: the corrupt unit is warned
    about, recomputed, and the campaign result is unchanged."""
    fresh_labs()
    config = CampaignConfig(
        **FAST, grid="serial", grid_shard=3, strategies=(),
        operators=("LOR",), cache_dir=str(tmp_path),
    )
    first = Campaign(config).run(("c17",))
    store = JobStore(tmp_path, config)
    stored = sorted(store.directory.glob("*.json"))
    assert stored
    victim = stored[0]
    victim.write_text(victim.read_text()[:20])  # truncate mid-write
    # Drop the whole-circuit cache entry so the resume actually walks
    # the unit ledger instead of short-circuiting on the circuit hit.
    for entry in tmp_path.glob("c17-*.json"):
        entry.unlink()
    fresh_labs()
    counter = UnitCounter()
    resumed = Campaign(config, counter).run(("c17",), resume=True)
    assert payload(resumed) == payload(first)
    assert counter.fresh >= 1  # the truncated unit was recomputed
    assert counter.cached == len(stored) - 1
    assert "skipping corrupt unit file" in capsys.readouterr().err
    # The recomputed unit was re-persisted over the torn file.
    assert json.loads(victim.read_text())["unit"]["circuit"] == "c17"


def test_worker_exception_drains_finished_units():
    """A unit failing mid-wave must not lose its finished siblings."""
    config = CampaignConfig(**FAST)
    lab = _lab()
    good = plan_fault_sim(
        "c17", "baseline", len(lab.faults), lab.random_vectors[:4], 8
    )
    # A fault-count mismatch makes the worker raise GridError; queued
    # last on one worker, every good unit finishes first.
    bad = WorkUnit(
        "c17", "fault-validation", "baseline", "fault-chunk",
        0, 1, {"start": 0, "stop": 1, "num_faults": 999_999,
               "vectors": lab.random_vectors[:4]},
    )
    scheduler = build_scheduler("process", 1)
    done = []
    try:
        with pytest.raises(GridError):
            scheduler.run(
                [*good, bad], config,
                on_done=lambda unit, seconds, result: done.append(unit.uid),
            )
    finally:
        scheduler.close()
    assert sorted(done) == sorted(unit.uid for unit in good), (
        "every finished unit was harvested before the error propagated"
    )


def test_scheduler_interrupt_drains_finished_units():
    """A KeyboardInterrupt mid-wave still harvests finished futures."""
    config = CampaignConfig(**FAST)
    lab = _lab()
    units = plan_fault_sim(
        "c17", "baseline", len(lab.faults), lab.random_vectors[:8], 2
    )
    scheduler = build_scheduler("process", 2)
    done = []
    first_done = {"raised": False}

    def on_done(unit, seconds, result):
        done.append(unit.uid)
        if not first_done["raised"]:
            first_done["raised"] = True
            raise KeyboardInterrupt

    try:
        with pytest.raises(KeyboardInterrupt):
            scheduler.run(units, config, on_done=on_done)
        assert len(done) >= 1
    finally:
        scheduler.close()


def test_dead_worker_raises_grid_error_after_finished_siblings(monkeypatch):
    """A worker that dies mid-unit is seen through its sentinel; the
    units it had finished are harvested first, and the pool re-forks."""
    config = CampaignConfig(**FAST)
    lab = _lab()
    units = plan_fault_sim(
        "c17", "baseline", len(lab.faults), lab.random_vectors[:4], 4
    )
    doomed = units[-1]
    real = worker.execute_unit

    def dying(unit, config):
        if unit.uid == doomed.uid:
            os._exit(1)
        return real(unit, config)

    monkeypatch.setattr(worker, "execute_unit", dying)
    scheduler = build_scheduler("process", 1)
    done = []
    try:
        with pytest.raises(GridError, match=doomed.uid):
            scheduler.run(
                units, config,
                on_done=lambda unit, seconds, result: done.append(unit.uid),
            )
        assert done == [unit.uid for unit in units[:-1]]
        monkeypatch.setattr(worker, "execute_unit", real)
        again = scheduler.run(units, config)
    finally:
        scheduler.close()
    assert again == [real(unit, config) for unit in units]


def test_process_pool_keeps_two_units_in_flight_per_worker():
    """Each answer sends the next pending unit to the worker that gave
    it, and no worker holds more than two."""
    config = CampaignConfig(**FAST)
    lab = _lab()
    units = plan_fault_sim(
        "c17", "baseline", len(lab.faults), lab.random_vectors[:4], 4
    )
    assert len(units) >= 4
    log = []
    scheduler = build_scheduler("process", 1)
    try:
        scheduler.run(
            units, config,
            on_start=lambda unit: log.append(("start", unit.index)),
            on_done=lambda unit, seconds, result: log.append(
                ("done", unit.index)),
        )
    finally:
        scheduler.close()
    expected = [("start", 0), ("start", 1)]
    for index in range(len(units)):
        expected.append(("done", index))
        if index + 2 < len(units):
            expected.append(("start", index + 2))
    assert log == expected


def test_process_pool_forks_again_for_another_circuit():
    """Workers fork for a wave's circuit and serve its later waves; a
    wave of another circuit forks a fresh pool from the parent."""
    config = CampaignConfig(**FAST)
    scheduler = build_scheduler("process", 2)

    def wave(name):
        lab = _lab(name)
        units = plan_fault_sim(
            name, "baseline", len(lab.faults), lab.random_vectors[:4], 8
        )
        scheduler.run(units, config)
        children = multiprocessing.active_children()
        assert all(child.daemon for child in children)
        return {child.pid for child in children}

    try:
        first = wave("c17")
        assert len(first) == 2
        assert wave("c17") == first
        assert not wave("b01") & first
    finally:
        scheduler.close()
    assert multiprocessing.active_children() == []


def test_process_pool_leaves_no_children(serial_c17):
    """close() joins every worker, and so does a process-grid campaign."""
    config = CampaignConfig(**FAST)
    lab = _lab()
    units = plan_fault_sim(
        "c17", "baseline", len(lab.faults), lab.random_vectors[:4], 8
    )
    scheduler = build_scheduler("process", 2)
    try:
        scheduler.run(units, config)
        assert len(multiprocessing.active_children()) == 2
    finally:
        scheduler.close()
    assert multiprocessing.active_children() == []
    fresh_labs()
    result = Campaign(
        CampaignConfig(**FAST, grid="process", grid_workers=2)
    ).run(("c17",))
    assert payload(result) == payload(serial_c17)
    assert multiprocessing.active_children() == []


# -- events: guard, unit hooks, progress (satellites) ------------------------


def test_raising_hook_does_not_abort_campaign(serial_c17, capsys):
    fresh_labs()

    class Broken(CampaignEvents):
        def __init__(self):
            self.stage_calls = 0

        def on_stage_start(self, circuit, stage):
            self.stage_calls += 1
            raise ValueError("boom")

        def on_circuit_done(self, circuit, result, seconds, cached=False):
            raise RuntimeError("also boom")

    broken = Broken()
    result = Campaign(CampaignConfig(**FAST), broken).run(("c17",))
    assert payload(result) == payload(serial_c17)
    err = capsys.readouterr().err
    assert err.count("on_stage_start") == 1, "one warning per hook"
    assert err.count("on_circuit_done") == 1
    assert broken.stage_calls == 1, "broken hook suppressed after first raise"


def test_guard_events_is_idempotent_and_passes_base_exceptions():
    class Interrupter(CampaignEvents):
        def on_circuit_start(self, circuit):
            raise KeyboardInterrupt

    guarded = guard_events(Interrupter())
    assert guard_events(guarded) is guarded
    assert isinstance(guarded, GuardedEvents)
    with pytest.raises(KeyboardInterrupt):
        guarded.on_circuit_start("c17")


def test_progress_events_render_units():
    fresh_labs()
    stream = io.StringIO()
    config = CampaignConfig(**FAST, grid="serial")
    Campaign(config, ProgressEvents(stream)).run(("c17",))
    out = stream.getvalue()
    assert "grid=serialx1" in out
    assert "fault-validation baseline unit 1/" in out
    assert "[c17] done" in out


# -- config wiring -----------------------------------------------------------


def test_grid_config_validation():
    with pytest.raises(ConfigError):
        CampaignConfig(grid="not-a-scheduler")
    with pytest.raises(ConfigError):
        CampaignConfig(grid_shard=-1)
    with pytest.raises(ConfigError):
        CampaignConfig(grid_workers=0)
    with pytest.raises(ConfigError):
        CampaignConfig(cache_max_entries=0)


def test_grid_config_roundtrip_and_fingerprint():
    config = CampaignConfig(
        **FAST, grid="process", grid_workers=4, grid_shard=64,
        cache_max_entries=10,
    )
    assert CampaignConfig.from_json(config.to_json()) == config
    # Execution-only knobs never move the fingerprint ...
    assert config.fingerprint() == config.replace(
        grid_workers=1, cache_max_entries=None, jobs=8
    ).fingerprint()
    # ... the sharding provenance does.
    assert config.fingerprint() != config.replace(grid=None).fingerprint()
    assert config.fingerprint() != config.replace(
        grid_shard=32
    ).fingerprint()


# -- result-cache LRU (satellite) --------------------------------------------


def test_result_cache_lru_sweep(tmp_path):
    import os
    import time as time_module

    from repro.campaign import CircuitResult

    config = CampaignConfig(**FAST)

    def entry(name):
        return CircuitResult(
            circuit=name, sequential=False, gates=1, dffs=0, depth=1,
            faults=2, mutants=3, equivalents=0,
        )

    seed_dir = tmp_path / "bounded"
    unbounded = ResultCache(seed_dir, config)
    now = time_module.time()
    for age, name in enumerate(("old", "mid", "new")):
        unbounded.store(entry(name))
        stamp = now - 100 + age
        os.utime(unbounded.path(name), (stamp, stamp))

    # Constructing with the bound sweeps the stalest entry immediately.
    cache = ResultCache(seed_dir, config, max_entries=2)
    assert cache.load("old") is None
    assert cache.load("mid") is not None
    assert cache.load("new") is not None
    # Hits refreshed mtime; age "mid" again so it is the LRU victim.
    os.utime(cache.path("mid"), (now - 10, now - 10))
    cache.store(entry("fresh"))
    assert cache.load("mid") is None
    assert cache.load("new") is not None
    assert cache.load("fresh") is not None

    # Foreign JSON files in the cache directory are never sweep victims.
    foreign = seed_dir / "notes.json"
    foreign.write_text("{}")
    os.utime(foreign, (now - 10_000, now - 10_000))
    cache.store(entry("newest"))
    assert foreign.exists(), "sweep only touches cache-entry-shaped files"

    plain_dir = tmp_path / "unbounded"
    plain = ResultCache(plain_dir, config)
    for name in ("a", "b", "c", "d"):
        plain.store(entry(name))
    assert all(
        plain.load(name) is not None for name in ("a", "b", "c", "d")
    ), "default stays unbounded"

    with pytest.raises(ConfigError):
        ResultCache(tmp_path, config, max_entries=0)


# -- CLI ---------------------------------------------------------------------


def test_cli_run_grid_resume_and_listing(tmp_path, capsys):
    from repro.cli import main

    fresh_labs()
    cache_dir = tmp_path / "cache"
    config_path = tmp_path / "campaign.json"
    config_path.write_text(
        CampaignConfig(
            **FAST, circuits=("c17",), strategies=(),
            grid="serial", cache_dir=str(cache_dir),
        ).to_json()
    )
    assert main(["run", str(config_path)]) == 0
    capsys.readouterr()

    assert main(["grid"]) == 0
    out = capsys.readouterr().out
    assert "serial" in out and "process" in out and "remote" in out
    assert "thread" not in out

    assert main([
        "grid", "--store", str(cache_dir), "--config", str(config_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "fault-validation" in out and "unit(s) done" in out

    # Resume after dropping the circuit entry: completes from the store.
    for entry in cache_dir.glob("*.json"):
        entry.unlink()
    fresh_labs()
    assert main(["run", str(config_path), "--resume"]) == 0
    assert "Campaign: circuit inventory" in capsys.readouterr().out


def test_cli_resume_without_cache_dir_errors(tmp_path, capsys):
    from repro.cli import main

    config_path = tmp_path / "campaign.json"
    config_path.write_text(
        CampaignConfig(**FAST, circuits=("c17",)).to_json()
    )
    assert main(["run", str(config_path), "--resume"]) == 2
    # The error names the exact missing option.
    assert "cache_dir" in capsys.readouterr().err


def test_cli_json_includes_grid_fields(tmp_path, capsys):
    from repro.cli import _RUN_OVERRIDES, main

    config_path = tmp_path / "campaign.json"
    config_path.write_text(
        CampaignConfig(
            **FAST, circuits=("c17", "b01"), strategies=()
        ).to_json()
    )
    out_path = tmp_path / "result.json"
    # Every ``repro run`` override lands in the archived config.
    overrides = {
        "grid": "serial", "grid_workers": 2, "circuits": ["c17"],
        "jobs": 2, "grid_shard": 4, "coordinator": "http://127.0.0.1:9",
        "engine": "interp", "fault_model": "transition",
        "cache_dir": str(tmp_path / "cache"), "cache_max_entries": 5,
        "search": "bitflip", "search_budget": 64,
    }
    assert set(overrides) == set(_RUN_OVERRIDES)
    argv = ["run", str(config_path), "--json", str(out_path)]
    for name, value in overrides.items():
        values = value if isinstance(value, list) else [str(value)]
        argv += ["--" + name.replace("_", "-"), *values]
    assert main(argv) == 0
    capsys.readouterr()
    data = json.loads(out_path.read_text())
    assert {name: data["config"][name] for name in overrides} == overrides
