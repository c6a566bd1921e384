"""Tests for repro.obs: metrics registry, trace spans, live surfaces.

The load-bearing properties:

* Telemetry never changes results: a c432+b01 campaign with metrics
  and tracing enabled is bit-identical to one with them disabled, on
  the serial and the process grid schedulers, and ``telemetry`` stays
  out of the config fingerprint.
* ``Metrics.merge`` is associative and order-insensitive for counters
  and histograms, so at-least-once envelope delivery cannot skew
  totals.
* The disabled path is a true no-op: ``active()`` defaults to
  :data:`NULL_METRICS` / :data:`NULL_TRACER` and records nothing.
* ``Tracer`` output is schema-valid Chrome trace-event JSON (``ph``,
  ``ts``, ``pid``, ``tid``, ``name``; ``ts`` monotone within a tid).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.campaign import (
    Campaign,
    CampaignConfig,
    CampaignEvents,
    GuardedEvents,
    TeeEvents,
    TracingEvents,
)
from repro.net import CoordinatorClient
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_METRICS,
    Metrics,
    estimate_quantiles,
)
from repro.obs.trace import NULL_TRACER, Tracer, summarize, validate_trace
from tests.test_grid import REDUCED, fresh_labs, payload
from tests.test_net import quiet_server


@pytest.fixture(autouse=True)
def _clean_registries():
    """No test leaks an active registry/tracer into the next."""
    obs_metrics.disable()
    obs_trace.disable()
    yield
    obs_metrics.disable()
    obs_trace.disable()


def assert_valid_trace(trace: dict) -> list[dict]:
    """Schema check through the shared validator; returns the events."""
    assert validate_trace(trace) > 0
    return trace["traceEvents"]


# -- metrics registry --------------------------------------------------------


def test_counters_gauges_and_snapshot_roundtrip():
    m = Metrics()
    m.counter("a")
    m.counter("a", 4)
    m.gauge("g", 2)
    m.gauge("g", 7.5)
    snap = m.snapshot()
    assert snap["counters"] == {"a": 5}
    assert snap["gauges"] == {"g": 7.5}
    assert snap["histograms"] == {}
    # The snapshot is JSON-native and survives a round trip intact.
    assert json.loads(json.dumps(snap)) == snap
    assert not m.is_empty()
    assert Metrics().is_empty()


def test_histogram_bucket_edges():
    m = Metrics()
    # A value exactly on an upper edge lands in that edge's bucket;
    # anything beyond the last edge lands in the overflow.
    m.observe("h", 0.001)
    m.observe("h", 0.02)
    m.observe("h", 0.021)
    m.observe("h", 2.0)
    m.observe("h", 1000.0)
    hist = m.snapshot()["histograms"]["h"]
    assert hist["count"] == 5
    assert hist["sum"] == pytest.approx(1002.042)
    assert hist["buckets"] == {
        "0.001": 1, "0.02": 1, "0.1": 1, "2": 1, "inf": 1,
    }
    assert DEFAULT_BUCKETS == tuple(sorted(DEFAULT_BUCKETS))


def test_time_contextmanager_observes():
    m = Metrics()
    with m.time("block.seconds"):
        pass
    hist = m.snapshot()["histograms"]["block.seconds"]
    assert hist["count"] == 1
    assert hist["sum"] >= 0.0


def test_merge_sums_counters_and_buckets():
    m = Metrics()
    part = {"counters": {"a": 3},
            "histograms": {"h": {"count": 2, "sum": 0.5,
                                 "buckets": {"0.5": 2}}}}
    m.merge(part)
    m.merge(part)
    snap = m.snapshot()
    assert snap["counters"] == {"a": 6}
    hist = snap["histograms"]["h"]
    assert hist["count"] == 4
    assert hist["sum"] == pytest.approx(1.0)
    assert hist["buckets"] == {"0.5": 4}
    # Partial/garbage snapshots are tolerated, not fatal.
    m.merge({})
    m.merge({"counters": {}})
    m.merge(None)
    assert m.snapshot()["counters"] == {"a": 6}


def test_merge_skips_corrupt_entries_and_counts_them():
    m = Metrics()
    m.merge({
        "counters": {"good": 2, "bad": "nope"},
        "gauges": {"g": "not-a-number"},
        "histograms": {
            "broken": {"count": "x", "sum": 0.1, "buckets": {"0.5": 1}},
            "ok": {"count": 1, "sum": 0.5, "buckets": {"0.5": 1}},
            "junk": 7,
        },
    })
    snap = m.snapshot()
    assert snap["counters"]["good"] == 2
    assert "bad" not in snap["counters"]
    assert snap["gauges"] == {}
    assert "broken" not in snap["histograms"]
    assert snap["histograms"]["ok"]["count"] == 1
    # bad counter + bad gauge + broken histogram + non-dict histogram.
    assert snap["counters"]["metrics.merge_skipped"] == 4
    # Non-dict sections are ignored wholesale, without erroring.
    m.merge({"counters": [1, 2], "histograms": "garbage"})
    assert m.snapshot()["counters"]["good"] == 2


def test_histogram_snapshot_includes_quantiles():
    m = Metrics()
    for value in (0.15, 0.2, 0.3, 0.45):
        m.observe("h", value)      # all land in the "0.5" bucket
    hist = m.snapshot()["histograms"]["h"]
    q = hist["quantiles"]
    # Linear interpolation between the previous edge (0.0) and 0.5 ...
    assert q["p50"] == pytest.approx(0.25)
    # ... clamped to the largest observation.
    assert (hist["min"], hist["max"]) == (0.15, 0.45)
    assert q["p95"] == pytest.approx(0.45)
    assert q["p99"] == pytest.approx(0.45)


def test_histogram_quantiles_never_exceed_observations():
    # Two samples summing to 8 s share the (2, 10] bucket; unclamped
    # interpolation reported p99 = 9.92 s, above the 5 s maximum.
    m = Metrics()
    m.observe("h", 3.0)
    m.observe("h", 5.0)
    q = m.snapshot()["histograms"]["h"]["quantiles"]
    assert estimate_quantiles({"10": 2})["p99"] > 5.0
    assert 3.0 <= q["p50"] <= 5.0
    assert q["p99"] == pytest.approx(5.0)


def test_histogram_min_max_merge_associative_and_legacy():
    def part(*values):
        m = Metrics()
        for value in values:
            m.observe("h", value)
        return m.snapshot()

    a, b, c = part(0.3, 0.4), part(7.0), part(0.01, 0.02)
    orders = []
    for parts in ((a, b, c), (c, a, b), (b, c, a)):
        m = Metrics()
        for snap in parts:
            m.merge(snap)
        orders.append(m.snapshot()["histograms"]["h"])
    assert all(hist == orders[0] for hist in orders)
    assert (orders[0]["min"], orders[0]["max"]) == (0.01, 7.0)
    # A snapshot from before min/max existed still merges; the bounds
    # become unknown and quantiles fall back to the bucket estimate.
    legacy = {"histograms": {"h": {"count": 2, "sum": 1.0,
                                   "buckets": {"0.5": 2}}}}
    m = Metrics()
    m.merge(a)
    m.merge(legacy)
    hist = m.snapshot()["histograms"]["h"]
    assert hist["count"] == 4 and "min" not in hist
    assert hist["quantiles"] == estimate_quantiles(hist["buckets"])


def test_estimate_quantiles_interpolation_and_overflow():
    q = estimate_quantiles({"1": 1, "2": 1, "inf": 2})
    assert q["p50"] == pytest.approx(2.0)
    # Ranks in the overflow bucket report the largest finite edge —
    # a lower bound, since the overflow has no upper edge.
    assert q["p95"] == pytest.approx(2.0)
    assert q["p99"] == pytest.approx(2.0)
    assert estimate_quantiles({"10": 10})["p50"] == pytest.approx(5.0)
    assert estimate_quantiles({}) == {}
    assert estimate_quantiles({"1": 0}) == {}
    assert estimate_quantiles({"junk": 1}) == {}


def test_merge_ignores_quantiles_and_recomputes():
    m = Metrics()
    m.merge({"histograms": {"h": {
        "count": 2, "sum": 1.0, "buckets": {"0.5": 2},
        "quantiles": {"p50": 999.0},
    }}})
    hist = m.snapshot()["histograms"]["h"]
    assert hist["quantiles"]["p50"] == pytest.approx(0.25)


def test_merge_is_order_insensitive():
    a = {"counters": {"x": 1, "y": 2},
         "gauges": {},
         "histograms": {"h": {"count": 1, "sum": 0.1,
                              "buckets": {"0.1": 1}}}}
    b = {"counters": {"y": 5, "z": 1},
         "gauges": {},
         "histograms": {"h": {"count": 3, "sum": 9.0,
                              "buckets": {"inf": 3}}}}
    ab, ba = Metrics(), Metrics()
    ab.merge(a)
    ab.merge(b)
    ba.merge(b)
    ba.merge(a)
    assert ab.snapshot() == ba.snapshot()
    # Associativity: (a+b)+b == a+(b+b), checked through a third bag.
    twice_b = Metrics()
    twice_b.merge(b)
    twice_b.merge(b)
    left = Metrics()
    left.merge(ab.snapshot())
    left.merge(b)
    right = Metrics()
    right.merge(a)
    right.merge(twice_b.snapshot())
    assert left.snapshot() == right.snapshot()


def test_null_metrics_records_nothing():
    assert obs_metrics.active() is NULL_METRICS
    assert not obs_metrics.enabled()
    NULL_METRICS.counter("a")
    NULL_METRICS.gauge("g", 1.0)
    NULL_METRICS.observe("h", 0.5)
    with NULL_METRICS.time("t"):
        pass
    NULL_METRICS.merge({"counters": {"a": 9}})
    assert NULL_METRICS.is_empty()
    assert NULL_METRICS.enabled is False


def test_collecting_scopes_and_restores():
    assert obs_metrics.active() is NULL_METRICS
    with obs_metrics.collecting() as registry:
        assert obs_metrics.active() is registry
        assert registry.enabled
        obs_metrics.active().counter("scoped")
        # Nested scopes restore to the outer registry, not the null.
        with obs_metrics.collecting() as inner:
            assert obs_metrics.active() is inner
        assert obs_metrics.active() is registry
    assert obs_metrics.active() is NULL_METRICS
    assert registry.snapshot()["counters"] == {"scoped": 1}


def test_enable_disable_roundtrip():
    registry = obs_metrics.enable()
    assert obs_metrics.active() is registry
    assert obs_metrics.disable() is registry
    assert obs_metrics.active() is NULL_METRICS


# -- guarded events ----------------------------------------------------------


def test_guarded_events_count_errors_and_suppressions():
    class Boom(CampaignEvents):
        def on_circuit_start(self, circuit):
            raise RuntimeError("boom")

    guarded = GuardedEvents(Boom(), stream=io.StringIO())
    with obs_metrics.collecting() as registry:
        guarded.on_circuit_start("c17")  # breaks the hook
        guarded.on_circuit_start("c17")  # suppressed firing
        guarded.on_circuit_start("c17")  # suppressed firing
    counters = registry.snapshot()["counters"]
    assert counters["events.hook_errors"] == 1
    assert counters["events.hook_errors.on_circuit_start"] == 1
    assert counters["events.suppressed_firings"] == 2


# -- tracer ------------------------------------------------------------------


def test_tracer_schema_and_nesting():
    tracer = Tracer()
    with tracer.span("outer", tid="t"):
        with tracer.span("inner", tid="t"):
            pass
    tracer.async_begin("unit:x", "u1")
    tracer.async_end("unit:x", "u1")
    tracer.instant("mark", tid="t")
    events = assert_valid_trace(tracer.export())
    assert [e["ph"] for e in events] == ["B", "B", "E", "E", "b", "e", "i"]
    assert len(tracer) == 7
    container = tracer.export()
    assert container["displayTimeUnit"] == "ms"


def test_tracer_write_is_loadable(tmp_path):
    tracer = Tracer()
    with tracer.span("s", tid="t"):
        pass
    path = tmp_path / "trace.json"
    tracer.write(str(path))
    assert_valid_trace(json.loads(path.read_text(encoding="utf-8")))
    assert not path.with_suffix(".json.tmp").exists()


def test_null_tracer_records_nothing():
    assert obs_trace.active() is NULL_TRACER
    NULL_TRACER.begin("a", tid="t")
    with NULL_TRACER.span("b", tid="t"):
        pass
    NULL_TRACER.instant("c", tid="t")
    assert len(NULL_TRACER) == 0
    assert NULL_TRACER.export()["traceEvents"] == []


def test_summarize_self_time_arithmetic():
    # Hand-stamped trace: parent 0..100us with a 10..30us child, plus
    # one async unit span and one instant.
    trace = {"traceEvents": [
        {"ph": "B", "ts": 0, "pid": "p", "tid": "t", "name": "parent"},
        {"ph": "B", "ts": 10, "pid": "p", "tid": "t", "name": "child"},
        {"ph": "E", "ts": 30, "pid": "p", "tid": "t", "name": "child"},
        {"ph": "E", "ts": 100, "pid": "p", "tid": "t", "name": "parent"},
        {"ph": "b", "ts": 5, "pid": "p", "tid": "unit", "cat": "unit",
         "id": "u1", "name": "unit:fault"},
        {"ph": "e", "ts": 45, "pid": "p", "tid": "unit", "cat": "unit",
         "id": "u1", "name": "unit:fault"},
        {"ph": "i", "ts": 50, "pid": "p", "tid": "t", "name": "mark",
         "s": "t"},
    ]}
    rows = {row["name"]: row for row in summarize(trace)}
    assert rows["parent"]["total_us"] == 100
    assert rows["parent"]["self_us"] == 80
    assert rows["child"]["total_us"] == rows["child"]["self_us"] == 20
    assert rows["unit:fault"]["self_us"] == 40
    assert rows["mark"]["count"] == 1
    # top-k really truncates, ranked by self time.
    assert [r["name"] for r in summarize(trace, top=1)] == ["parent"]


def test_summarize_subtracts_enclosed_lanes_once():
    # A campaign lane enclosing two concurrent circuit lanes (10..70 and
    # 20..90): it loses their union once, not their sum, and an
    # enclosed span of another pid (a worker) is not its child.
    def span(name, tid, start, end, pid="p"):
        return [{"ph": "B", "ts": start, "pid": pid, "tid": tid,
                 "name": name},
                {"ph": "E", "ts": end, "pid": pid, "tid": tid,
                 "name": name}]

    c1, c2 = span("c1", "c1", 10, 70), span("c2", "c2", 20, 90)
    stage = span("stage", "c1", 15, 60)
    events = [*span("campaign", "campaign", 0, 100),
              *span("unit", "unit", 30, 40, pid="worker-1"),
              *span("twin", "twin", 15, 60)]
    events[1:1] = [c1[0], stage[0], c2[0], stage[1], c1[1], c2[1]]
    rows = {row["name"]: row for row in summarize({"traceEvents": events})}
    assert rows["campaign"]["self_us"] == 100 - 80
    assert rows["c1"]["self_us"] == 60 - 45
    assert rows["c2"]["self_us"] == rows["c2"]["total_us"] == 70
    assert rows["unit"]["self_us"] == 10
    # Spans of equal extent on two lanes are not each other's parent.
    assert rows["stage"]["self_us"] == rows["twin"]["self_us"] == 45


def test_summarize_campaign_self_time_excludes_circuit_lanes():
    fresh_labs()
    tracer = Tracer()
    Campaign(CampaignConfig(**REDUCED), TracingEvents(tracer)).run(
        ("c17", "b01")
    )
    rows = summarize(tracer.export(), top=100)
    campaign = next(row for row in rows if row["name"] == "campaign")
    total = campaign["total_us"]
    assert campaign["self_us"] < 0.05 * total
    assert abs(sum(row["self_us"] for row in rows) - total) < 0.05 * total


def test_trace_buffer_absorb_rebases_and_keeps_worker_lane():
    parent = Tracer()
    worker = Tracer(pid="worker-123")
    with worker.span("unit:fault-chunk", tid="unit"):
        pass
    buffer = worker.export_buffer()
    assert buffer["version"] == 1
    assert buffer["pid"] == "worker-123"
    # Round-trip through JSON, as a real completion envelope would.
    absorbed = parent.absorb(json.loads(json.dumps(buffer)))
    assert absorbed == 2
    with parent.span("parent", tid="t"):
        pass
    events = assert_valid_trace(parent.export())
    assert {e["pid"] for e in events} == {"worker-123", "repro"}


def test_trace_absorb_epoch_rebase_math():
    parent = Tracer()
    mark = {"ph": "i", "ts": 5.0, "pid": "w", "tid": "t",
            "name": "m", "s": "t"}
    late = {"version": 1, "pid": "w", "epoch": parent._epoch + 1.0,
            "events": [dict(mark)]}
    assert parent.absorb(late) == 1
    assert parent.export()["traceEvents"][-1]["ts"] == (
        pytest.approx(1e6 + 5.0)
    )
    # An epoch before the parent's clamps at zero, never negative —
    # and the ts-sorted export puts that clamped event first.
    early = {"version": 1, "pid": "w2", "epoch": parent._epoch - 1.0,
             "events": [dict(mark)]}
    assert parent.absorb(early) == 1
    assert parent.export()["traceEvents"][0]["ts"] == 0.0


def test_trace_absorb_rejects_bad_buffers():
    parent = Tracer()
    event = {"ph": "i", "ts": 1.0, "pid": "w", "tid": "t",
             "name": "m", "s": "t"}
    assert parent.absorb({}) == 0
    assert parent.absorb(None) == 0
    assert parent.absorb(
        {"version": 99, "epoch": 0.0, "events": [event]}
    ) == 0
    assert parent.absorb({"version": 1, "epoch": 0.0, "events": []}) == 0
    assert parent.absorb({"version": 1, "events": [event]}) == 0  # no epoch
    assert len(parent) == 0
    # The null tracer neither exports nor absorbs.
    assert NULL_TRACER.export_buffer() == {}
    assert NULL_TRACER.absorb(
        {"version": 1, "epoch": 0.0, "events": [event]}
    ) == 0


def test_validate_trace_rejects_schema_violations():
    def event(**overrides) -> dict:
        base = {"ph": "i", "ts": 0, "pid": "p", "tid": "t",
                "name": "x", "s": "t"}
        base.update(overrides)
        return base

    assert validate_trace({"traceEvents": [event()]}) == 1
    cases = [
        ({}, "traceEvents"),
        ({"traceEvents": []}, "empty"),
        ({"traceEvents": [["not", "an", "object"]]}, "not an object"),
        ({"traceEvents": [{"ph": "B"}]}, "missing"),
        ({"traceEvents": [event(ph="Q")]}, "phase"),
        ({"traceEvents": [event(ts="soon")]}, "non-numeric"),
        ({"traceEvents": [event(ts=-1.0)]}, "negative"),
        ({"traceEvents": [event(ts=5.0), event(ts=1.0)]},
         "back in time"),
        ({"traceEvents": [event(ph="b")]}, "id/cat"),
        ({"traceEvents": [event(s="bogus")]}, "scope"),
    ]
    for trace, needle in cases:
        with pytest.raises(ValueError, match=needle):
            validate_trace(trace)


def test_tracing_events_produce_valid_trace():
    fresh_labs()
    tracer = Tracer()
    config = CampaignConfig(**REDUCED)
    Campaign(config, TracingEvents(tracer)).run(("c17",))
    events = assert_valid_trace(tracer.export())
    names = {e["name"] for e in events}
    assert "campaign" in names
    assert "circuit:c17" in names
    assert any(name.startswith("stage:") for name in names)
    # Duration spans are balanced: every B has its E.
    for ph in "BE":
        assert sum(e["ph"] == ph for e in events) > 0
    assert sum(e["ph"] == "B" for e in events) == (
        sum(e["ph"] == "E" for e in events)
    )


# -- determinism: telemetry never changes results ----------------------------


def test_campaign_bit_identical_with_telemetry():
    fresh_labs()
    baseline = Campaign(CampaignConfig(**REDUCED)).run(("c432", "b01"))

    # telemetry stays out of the fingerprint, so caches and job stores
    # are shared across enabled/disabled runs.
    plain = CampaignConfig(**REDUCED)
    enabled = plain.replace(telemetry=True)
    assert enabled.fingerprint() == plain.fingerprint()

    for grid in (None, "process"):
        fresh_labs()
        config = dict(REDUCED, telemetry=True)
        if grid is not None:
            config.update(grid=grid, grid_workers=2)
        tracer = Tracer()
        campaign = Campaign(
            CampaignConfig(**config),
            TeeEvents(TracingEvents(tracer)),
        )
        result = campaign.run(("c432", "b01"))
        assert payload(result) == payload(baseline), grid
        assert_valid_trace(tracer.export())
        # The run collected real telemetry without touching results.
        registry = campaign.last_metrics
        assert registry is not None and not registry.is_empty()
        counters = registry.snapshot()["counters"]
        assert counters["campaign.circuits_run"] == 2
        # Engine metrics flow: recorded in-process for the serial run,
        # merged back from worker envelopes for the process grid.
        assert any(name.startswith("engine.") for name in counters), grid
    assert obs_metrics.active() is NULL_METRICS


def test_process_grid_trace_stitches_worker_lanes():
    """A --grid process run with --trace yields ONE Chrome trace whose
    events span every worker process (own pid lanes), and tracing
    changes neither the payload nor the config fingerprint."""
    plain = CampaignConfig(**REDUCED)
    assert plain.replace(trace=True).fingerprint() == plain.fingerprint()

    fresh_labs()
    baseline = Campaign(plain).run(("c17",))
    fresh_labs()
    config = CampaignConfig(**dict(
        REDUCED, trace=True, grid="process", grid_workers=2,
    ))
    tracer = Tracer()
    with obs_trace.tracing(tracer):
        result = Campaign(config, TracingEvents(tracer)).run(("c17",))
    assert payload(result) == payload(baseline)
    events = assert_valid_trace(tracer.export())
    pids = {str(e["pid"]) for e in events}
    worker_lanes = {p for p in pids if p.startswith("worker-")}
    assert worker_lanes, pids            # spans came home from workers
    assert "repro" in pids               # next to the parent's own
    worker_names = {
        e["name"] for e in events if str(e["pid"]).startswith("worker-")
    }
    assert any(name.startswith("unit:") for name in worker_names)


def test_jobs_records_the_same_campaign_metrics_as_serial():
    """Circuit farming (jobs > 1) records every campaign.* and
    circuit.* metric the serial loop records."""
    names = {}
    for jobs in (1, 2):
        fresh_labs()
        campaign = Campaign(
            CampaignConfig(**REDUCED, telemetry=True, jobs=jobs)
        )
        campaign.run(("c17", "b01"))
        snapshot = campaign.last_metrics.snapshot()
        assert snapshot["counters"]["campaign.circuits_run"] == 2, jobs
        names[jobs] = {
            name
            for section in ("counters", "gauges", "histograms")
            for name in snapshot[section]
            if name.startswith(("campaign.", "circuit."))
        }
    assert {"campaign.circuits_run", "circuit.seconds"} <= names[1]
    assert names[2] == names[1]
    assert obs_metrics.active() is NULL_METRICS


def test_jobs_trace_stitches_circuit_units_from_worker_lanes():
    """--jobs 2 --trace ships each worker's spans home: one valid trace
    holding a unit:circuit span on a worker lane."""
    fresh_labs()
    baseline = Campaign(CampaignConfig(**REDUCED)).run(("c17", "b01"))
    fresh_labs()
    tracer = Tracer()
    with obs_trace.tracing(tracer):
        result = Campaign(
            CampaignConfig(**REDUCED, trace=True, jobs=2),
            TracingEvents(tracer),
        ).run(("c17", "b01"))
    assert payload(result) == payload(baseline)
    events = assert_valid_trace(tracer.export())
    worker_names = {
        e["name"] for e in events if str(e["pid"]).startswith("worker-")
    }
    assert "unit:circuit" in worker_names, worker_names


def test_jobs_trace_counts_each_farmed_circuit_once():
    """Under jobs=2 a circuit's work is its worker's unit:circuit span;
    the parent's circuit:<name> span encloses it, so summarize leaves
    circuit:* only the dispatch around it as self time.  The circuits
    run long enough (about 0.3 and 1 s) that dispatch, a few ms each,
    is well under the bound."""
    fresh_labs()
    tracer = Tracer()
    config = dict(REDUCED, random_budget_seq=384)
    with obs_trace.tracing(tracer):
        Campaign(
            CampaignConfig(**config, trace=True, jobs=2),
            TracingEvents(tracer),
        ).run(("b01", "b03"))
    rows = summarize(tracer.export(), top=100)
    circuits = [row for row in rows if row["name"].startswith("circuit:")]
    assert len(circuits) == 2
    total = sum(row["total_us"] for row in circuits)
    assert sum(row["self_us"] for row in circuits) < 0.05 * total
    units = next(row for row in rows if row["name"] == "unit:circuit")
    assert units["count"] == 2


def test_summarize_links_worker_spans_by_shared_args():
    # Two concurrent circuit lanes on the parent pid and one worker span
    # per circuit: each worker span nests under the span of its own
    # circuit, and the circuit lanes do not nest under each other.
    def span(name, tid, start, end, pid="p", **args):
        begin = {"ph": "B", "ts": start, "pid": pid, "tid": tid,
                 "name": name}
        if args:
            begin["args"] = args
        return [begin, {"ph": "E", "ts": end, "pid": pid, "tid": tid,
                        "name": name}]

    events = [
        *span("campaign", "campaign", 0, 100, circuits=["a", "b"]),
        *span("circuit:a", "circuit:a", 10, 90, circuit="a"),
        *span("circuit:b", "circuit:b", 20, 60, circuit="b"),
        *span("unit", "unit", 15, 85, pid="w1", circuit="a"),
        *span("unit", "unit", 25, 55, pid="w2", circuit="b"),
    ]
    events.sort(key=lambda e: e["ts"])
    rows = {row["name"]: row for row in summarize({"traceEvents": events})}
    assert rows["circuit:a"]["self_us"] == 80 - 70
    assert rows["circuit:b"]["self_us"] == 40 - 30
    assert rows["unit"]["self_us"] == 70 + 30
    assert rows["campaign"]["self_us"] == 100 - 80


def test_campaign_without_telemetry_collects_nothing():
    fresh_labs()
    campaign = Campaign(CampaignConfig(**REDUCED))
    campaign.run(("c17",))
    assert campaign.last_metrics is None
    assert obs_metrics.active() is NULL_METRICS


# -- live surfaces -----------------------------------------------------------


def test_coordinator_metrics_endpoint():
    server = quiet_server(service=False)
    try:
        client = CoordinatorClient(server.url)
        wid = client.register_worker("obs-test")["worker"]
        assert client.lease(wid).get("idle")
        snap = client.metrics()
        for key in ("protocol", "queue_depth", "leased_units", "waves",
                    "workers", "campaigns", "metrics"):
            assert key in snap, key
        assert snap["queue_depth"] == 0
        assert snap["leased_units"] == 0
        workers = {w["name"]: w for w in snap["workers"]}
        assert workers["obs-test"]["completed_total"] == 0
        counters = snap["metrics"]["counters"]
        assert counters["coordinator.leases.idle"] == 1
        # The coordinator's registry is private to the core: nothing
        # leaked into this process's active registry.
        assert obs_metrics.active() is NULL_METRICS
    finally:
        server.close()


def test_top_renders_rates_from_deltas():
    from repro.cli import _render_top

    snapshot = {
        "queue_depth": 3, "leased_units": 2, "waves": 1,
        "workers": [{"worker": "w1", "name": "alpha", "leased": 2,
                     "completed_total": 30}],
        "campaigns": [{"campaign": "c1", "status": "running",
                       "events": 7}],
        "metrics": {"counters": {"coordinator.completions.ok": 30}},
    }
    previous = {"w1": (0.0, 10)}
    frame = _render_top(snapshot, previous, now=10.0)
    assert "3 pending, 2 leased" in frame
    assert "alpha" in frame and "2.00" in frame  # (30-10)/10 units/s
    assert "campaign c1: running (7 event(s))" in frame
    assert "coordinator.completions.ok" in frame
    assert previous["w1"] == (10.0, 30)


def test_cli_trace_summarizes(tmp_path, capsys):
    from repro.cli import main

    tracer = Tracer()
    with tracer.span("outer", tid="t"):
        with tracer.span("inner", tid="t"):
            pass
    path = tmp_path / "trace.json"
    tracer.write(str(path))
    assert main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "outer" in out and "inner" in out and "self" in out
    empty = tmp_path / "empty.json"
    empty.write_text('{"traceEvents": []}', encoding="utf-8")
    assert main(["trace", str(empty)]) == 1
    assert main(["trace", str(tmp_path / "missing.json")]) == 2


def test_cli_trace_validate(tmp_path, capsys):
    from repro.cli import main

    tracer = Tracer()
    with tracer.span("s", tid="t"):
        pass
    good = tmp_path / "good.json"
    tracer.write(str(good))
    assert main(["trace", str(good), "--validate"]) == 0
    assert "trace OK: 2 event(s)" in capsys.readouterr().out
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps({"traceEvents": [{"ph": "Z"}]}), encoding="utf-8"
    )
    assert main(["trace", str(bad), "--validate"]) == 1
    assert "invalid" in capsys.readouterr().err


def test_cli_top_once_prints_one_frame(capsys):
    from repro.cli import main

    server = quiet_server(service=False)
    try:
        assert main(["top", server.url, "--once"]) == 0
    finally:
        server.close()
    out = capsys.readouterr().out
    assert "queue: 0 pending" in out
    assert "\x1b[2J" not in out          # --once never clears the screen
