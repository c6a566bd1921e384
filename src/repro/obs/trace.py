"""Hierarchical trace spans exported as Chrome trace-event JSON.

A :class:`Tracer` collects timing events in the Chrome trace-event
format (the ``chrome://tracing`` / Perfetto JSON flavour): each event
carries ``ph`` (phase), ``ts`` (microseconds since the tracer was
created), ``pid``, ``tid``, and ``name``.  Three event shapes cover
the campaign hierarchy:

* **duration spans** (``ph: "B"``/``"E"``) — strictly nested per
  ``tid``; used for campaign, circuit, and stage scopes, and for
  engine calls (one ``tid`` per thread).
* **async spans** (``ph: "b"``/``"e"`` with an ``id``) — may overlap
  freely; used for work units, whose start/done events interleave
  arbitrarily under parallel schedulers.
* **instants** (``ph: "i"``) — zero-duration marks; used for events
  without a matching begin, e.g. cache-served circuits and units.

Timestamps are stamped when the event is *recorded* from a single
``time.monotonic()`` origin, so ``ts`` is monotone within any tid by
construction.  ``export()`` returns the ``{"traceEvents": [...]}``
container that Perfetto loads directly, and :func:`summarize` folds
an exported trace back into per-name self-time totals for the
``repro trace`` command.

Like the metrics registry, the module keeps an *active* tracer that
defaults to :data:`NULL_TRACER` (all methods no-ops), so the
disabled path costs one attribute read.

Traces stitch across processes and machines: every tracer records a
wall-clock *epoch* alongside its monotonic origin, workers ship their
events home as an :meth:`Tracer.export_buffer` dict riding the same
completion envelopes worker metrics snapshots use, and the parent
stitches each buffer in with :meth:`Tracer.absorb` — rebasing
timestamps onto its own origin via the epoch delta and keeping the
worker's ``pid`` so each worker gets its own lane in the merged
Chrome trace.
"""

from __future__ import annotations

import json
import os
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager

_PID = "repro"

#: Schema version stamped on worker span buffers; the parent skips
#: buffers from a future schema instead of mis-stitching them.
BUFFER_VERSION = 1


class Tracer:
    """Collects Chrome trace events; thread-safe."""

    enabled = True

    def __init__(self, pid: str = _PID) -> None:
        self._pid = pid
        self._t0 = time.monotonic()
        # Wall-clock anchor of the monotonic origin: buffers from other
        # processes/machines rebase onto this tracer's timeline by epoch
        # delta, the only clock shared across process boundaries.
        self._epoch = time.time()  # lint: allow(bare-random)
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._next_id = 0

    def _now_us(self) -> float:
        return (time.monotonic() - self._t0) * 1e6

    def _emit(self, event: dict) -> None:
        event["ts"] = self._now_us()
        event["pid"] = self._pid
        with self._lock:
            self._events.append(event)

    # -- duration spans (strictly nested per tid) ----------------------------

    def begin(self, name: str, tid: str, args: dict | None = None) -> None:
        event = {"ph": "B", "name": name, "tid": tid}
        if args:
            event["args"] = args
        self._emit(event)

    def end(self, name: str, tid: str, args: dict | None = None) -> None:
        event = {"ph": "E", "name": name, "tid": tid}
        if args:
            event["args"] = args
        self._emit(event)

    @contextmanager
    def span(self, name: str, tid: str, args: dict | None = None):
        self.begin(name, tid, args)
        try:
            yield
        finally:
            self.end(name, tid)

    # -- async spans (may overlap) -------------------------------------------

    def async_begin(self, name: str, span_id: str,
                    cat: str = "unit", args: dict | None = None) -> None:
        event = {"ph": "b", "name": name, "tid": cat,
                 "cat": cat, "id": span_id}
        if args:
            event["args"] = args
        self._emit(event)

    def async_end(self, name: str, span_id: str,
                  cat: str = "unit", args: dict | None = None) -> None:
        event = {"ph": "e", "name": name, "tid": cat,
                 "cat": cat, "id": span_id}
        if args:
            event["args"] = args
        self._emit(event)

    # -- instants -------------------------------------------------------------

    def instant(self, name: str, tid: str, args: dict | None = None) -> None:
        event = {"ph": "i", "name": name, "tid": tid, "s": "t"}
        if args:
            event["args"] = args
        self._emit(event)

    # -- export ---------------------------------------------------------------

    def export(self) -> dict:
        """The Perfetto-loadable ``{"traceEvents": [...]}`` container.

        Events are sorted by timestamp (stable, so same-``ts`` events
        keep emission order): absorbed buffers land in completion
        order, and epoch-rebased timestamps from a reused worker can
        overlap the previous unit's by the wall-vs-monotonic clock
        skew, so append order alone is not time order.
        """
        with self._lock:
            events = sorted(self._events, key=lambda e: e["ts"])
            return {
                "traceEvents": [dict(e) for e in events],
                "displayTimeUnit": "ms",
            }

    def export_buffer(self) -> dict:
        """This tracer's events as a serializable cross-process buffer.

        The worker-side half of trace stitching: the returned dict
        rides a completion envelope (next to the worker's metrics
        snapshot) and is folded into the parent's timeline with
        :meth:`absorb`.
        """
        with self._lock:
            return {
                "version": BUFFER_VERSION,
                "pid": self._pid,
                "epoch": self._epoch,
                "events": [dict(e) for e in self._events],
            }

    def absorb(self, buffer: dict) -> int:
        """Stitch a worker's :meth:`export_buffer` into this tracer.

        Timestamps are rebased onto this tracer's origin using the
        wall-clock epoch delta (then clamped at zero, so a buffer
        whose epoch predates this tracer cannot go negative); every
        event keeps the worker's ``pid``
        so each worker renders as its own process lane.  Buffers from
        an unknown schema version or with no events are skipped.
        Returns the number of events absorbed.
        """
        if not isinstance(buffer, dict):
            return 0
        if buffer.get("version") != BUFFER_VERSION:
            return 0
        events = buffer.get("events")
        if not isinstance(events, list) or not events:
            return 0
        try:
            offset_us = (float(buffer["epoch"]) - self._epoch) * 1e6
        except (KeyError, TypeError, ValueError):
            return 0
        pid = buffer.get("pid") or _PID
        absorbed = []
        for event in events:
            if not isinstance(event, dict):
                continue
            stitched = dict(event)
            try:
                stitched["ts"] = max(
                    0.0, float(event.get("ts") or 0.0) + offset_us
                )
            except (TypeError, ValueError):
                continue
            stitched["pid"] = pid
            absorbed.append(stitched)
        with self._lock:
            self._events.extend(absorbed)
        return len(absorbed)

    def write(self, path: str) -> None:
        """Atomically write :meth:`export` as JSON to ``path``."""
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.export(), fh)
        os.replace(tmp, path)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)


class NullTracer(Tracer):
    """The disabled tracer: every method is a no-op."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_span = _NullSpan()

    def _emit(self, event: dict) -> None:
        pass

    def span(self, name, tid, args=None):
        return self._null_span

    def export_buffer(self) -> dict:
        return {}

    def absorb(self, buffer: dict) -> int:
        return 0


class _NullSpan:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


NULL_TRACER = NullTracer()

_active: Tracer = NULL_TRACER
_active_lock = threading.Lock()


def active() -> Tracer:
    """The tracer instrumentation points write to (never ``None``)."""
    return _active


def enable(tracer: Tracer | None = None) -> Tracer:
    """Install ``tracer`` (default: a fresh one) as the active one."""
    global _active
    with _active_lock:
        _active = tracer if tracer is not None else Tracer()
        return _active


def disable() -> Tracer:
    """Restore the null tracer; returns the one that was active."""
    global _active
    with _active_lock:
        previous = _active
        _active = NULL_TRACER
        return previous


@contextmanager
def tracing(tracer: Tracer | None = None):
    """Scope a tracer as active; restores the previous one on exit."""
    global _active
    with _active_lock:
        previous = _active
        _active = tracer if tracer is not None else Tracer()
        current = _active
    try:
        yield current
    finally:
        with _active_lock:
            _active = previous


#: Chrome trace-event phases this module emits.
_PHASES = frozenset({"B", "E", "b", "e", "i"})


def validate_trace(trace: dict) -> int:
    """Check an exported trace against the schema this module emits.

    The one validator shared by the test suite and the CI trace
    smokes (``repro trace --validate``).  Raises :class:`ValueError`
    naming the first offending event; returns the event count.
    Checks: the ``traceEvents`` container, required keys per event,
    known phases, numeric non-negative timestamps monotone within
    each ``(pid, tid)`` lane, ``cat``/``id`` on async events, and the
    instant scope field.
    """
    if not isinstance(trace, dict):
        raise ValueError("trace is not a JSON object")
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace has no traceEvents list")
    if not events:
        raise ValueError("trace is empty")
    last: dict[tuple, float] = {}
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise ValueError(f"event {index} is not an object")
        for key in ("ph", "ts", "pid", "tid", "name"):
            if key not in event:
                raise ValueError(f"event {index} is missing {key!r}")
        ph = event["ph"]
        if ph not in _PHASES:
            raise ValueError(f"event {index} has unknown phase {ph!r}")
        try:
            ts = float(event["ts"])
        except (TypeError, ValueError):
            raise ValueError(f"event {index} has a non-numeric ts")
        if ts < 0.0:
            raise ValueError(f"event {index} has a negative ts")
        lane = (event["pid"], event["tid"])
        if ts < last.get(lane, 0.0):
            raise ValueError(
                f"event {index} goes back in time within lane {lane}"
            )
        last[lane] = ts
        if ph in ("b", "e"):
            if "id" not in event or "cat" not in event:
                raise ValueError(
                    f"async event {index} is missing id/cat"
                )
        if ph == "i" and event.get("s") not in ("t", "p", "g"):
            raise ValueError(f"instant {index} has a bad scope")
    return len(events)


def summarize(trace: dict, top: int = 15) -> list[dict]:
    """Per-name self-time totals from an exported trace, descending.

    Duration spans (``B``/``E``) are matched with a per-``(pid, tid)``
    stack.  A span's children are the spans nested under it on its own
    lane; a span at the top of its lane is the child of the innermost
    span of another lane of the same ``pid`` that encloses it (the
    campaign span on its lane encloses the circuit spans on theirs).
    Failing that, it is the child of the innermost overlapping span of
    another ``pid`` that names the same work: the two spans' ``args``
    agree on at least one key (a farmed circuit's worker span and the
    parent's span of that circuit both carry ``circuit``).  Overlap,
    not enclosure, because two processes' clocks and queues do not
    order a worker's first event after the parent's.  Spans whose
    ``args`` disagree on a shared key are never parent and child, so
    concurrent circuit lanes stay siblings.  Each span has at most one
    parent, and its self time is its duration minus the time covered
    by the union of its children within it, so concurrent lanes are
    not subtracted twice and self time is never negative.
    Async spans (``b``/``e``) are matched by ``(cat, id, name)`` and
    treated as leaves (their whole duration is self time), since
    work-unit execution happens in another process.  Returns up to
    ``top`` rows of ``{"name", "count", "total_us", "self_us"}``.
    """
    events = trace.get("traceEvents") or []
    totals: dict[str, dict] = {}

    def row(name: str) -> dict:
        entry = totals.get(name)
        if entry is None:
            entry = {"name": name, "count": 0,
                     "total_us": 0.0, "self_us": 0.0}
            totals[name] = entry
        return entry

    stacks: dict[tuple, list] = {}
    spans: list[dict] = []
    open_async: dict[tuple, float] = {}
    for event in events:
        ph = event.get("ph")
        ts = float(event.get("ts") or 0.0)
        name = event.get("name", "?")
        if ph == "B":
            key = (event.get("pid"), event.get("tid"))
            stacks.setdefault(key, []).append(
                {"name": name, "lane": key, "ts": ts, "children": [],
                 "args": event.get("args") or {}})
        elif ph == "E":
            stack = stacks.get((event.get("pid"), event.get("tid")))
            if not stack:
                continue
            frame = stack.pop()
            frame["end"] = max(ts, frame["ts"])
            frame["top"] = not stack
            if stack:
                stack[-1]["children"].append(frame)
            spans.append(frame)
        elif ph == "b":
            open_async[(event.get("cat"), event.get("id"), name)] = ts
        elif ph == "e":
            start = open_async.pop(
                (event.get("cat"), event.get("id"), name), None)
            if start is None:
                continue
            duration = max(0.0, ts - start)
            entry = row(name)
            entry["count"] += 1
            entry["total_us"] += duration
            entry["self_us"] += duration
        elif ph == "i":
            entry = row(name)
            entry["count"] += 1
    # A sweep in start order: the spans that can overlap a span are the
    # ones still open where it starts plus the ones starting inside it.
    spans.sort(key=lambda s: (s["ts"], -s["end"]))
    starts = [span["ts"] for span in spans]
    open_spans: list[dict] = []
    for k, span in enumerate(spans):
        open_spans = [o for o in open_spans if o["end"] > span["ts"]]
        open_spans.append(span)
        if not span["top"]:
            continue
        pid = span["lane"][0]
        later = spans[k + 1:bisect_left(starts, span["end"], k + 1)]
        overlapping = [o for o in open_spans + later if o is not span]
        parents = [
            other for other in overlapping
            if other["lane"][0] == pid and other["lane"] != span["lane"]
            and other["ts"] <= span["ts"] and span["end"] <= other["end"]
            and (other["ts"], other["end"]) != (span["ts"], span["end"])
            and _related(span["args"], other["args"]) is not False
        ] or [
            other for other in overlapping
            if other["lane"][0] != pid
            and _related(span["args"], other["args"])
        ]
        if parents:
            parent = min(parents,
                         key=lambda p: (p["end"] - p["ts"], -p["ts"]))
            parent["children"].append(span)
    for span in spans:
        duration = span["end"] - span["ts"]
        entry = row(span["name"])
        entry["count"] += 1
        entry["total_us"] += duration
        entry["self_us"] += max(0.0, duration - _covered(span))
    rows = sorted(totals.values(),
                  key=lambda r: (-r["self_us"], -r["total_us"], r["name"]))
    return rows[: max(0, int(top))]


def _related(args: dict, other: dict) -> bool | None:
    """Whether two spans' args name the same work.

    ``False`` when they disagree on a shared key, ``True`` when they
    agree on at least one, ``None`` when they share no key.
    """
    shared = [key for key in args if key in other]
    if any(args[key] != other[key] for key in shared):
        return False
    return True if shared else None


def _covered(parent: dict) -> float:
    """Microseconds of ``parent`` covered by the union of its children."""
    covered = 0.0
    reach = parent["ts"]
    for span in sorted(parent["children"], key=lambda s: s["ts"]):
        start = max(span["ts"], reach)
        end = min(span["end"], parent["end"])
        if end > start:
            covered += end - start
        reach = max(reach, end)
    return covered
