"""Event hooks for campaign progress reporting.

The pipeline never prints; it reports through a :class:`CampaignEvents`
instance instead, so front ends decide how (and whether) to render
progress.  Subclass and override the hooks you care about — the base
class is all no-ops, so implementations stay forward-compatible when
hooks are added.

Hook timing:

* ``on_campaign_start`` / ``on_campaign_end`` wrap the whole run;
* ``on_circuit_start`` / ``on_circuit_done`` wrap one circuit
  (``on_circuit_done`` also fires for cache hits, with ``cached=True``);
* ``on_stage_start`` / ``on_stage_end`` wrap one pipeline stage;
* ``on_unit_start`` / ``on_unit_done`` wrap one grid work unit
  (``on_unit_done`` fires with ``cached=True`` for units resumed from
  the job store);
* ``on_unit_result`` hands over each unit's raw result dict just
  before its ``on_unit_done`` — the hook live progress aggregation
  (:mod:`repro.obs.progress`) listens on.

Visibility under parallelism: every worker process sits behind the
one process boundary, the grid's ``process`` scheduler.  With
per-circuit farming (``jobs > 1`` and no grid) each circuit is one
``circuit`` work unit whose start and finish surface as
``on_circuit_start`` (at submission) and ``on_circuit_done`` (as the
result lands); its stages run in the worker, so only the circuit-level
hooks are observable from the parent.  With a grid scheduler
(``config.grid``) the circuits — and their stage hooks — run in the
parent, and unit-level results are streamed back from the workers as
they complete, so ``on_unit_done`` fires in the parent for every unit
regardless of which process computed it (pooled backends fire
``on_unit_start`` at submission time).  Either way a circuit is in the
result cache before its ``on_circuit_done`` fires.

Hooks must not break the science: the runner wraps the events object
in :func:`guard_events`, which catches an :class:`Exception` escaping
a hook, reports it once per hook on stderr, and suppresses that hook
for the rest of the run.  ``KeyboardInterrupt`` (and other
``BaseException``) still propagates — aborting from a hook stays
possible on purpose.
"""

from __future__ import annotations

import sys

from ..obs import metrics as _metrics


class CampaignEvents:
    """No-op base class for campaign progress hooks."""

    def on_campaign_start(self, circuits: tuple[str, ...], config) -> None:
        """The campaign is about to run ``circuits``."""

    def on_campaign_end(self, result, seconds: float) -> None:
        """The campaign finished; ``result`` is the CampaignResult."""

    def on_circuit_start(self, circuit: str) -> None:
        """Work on ``circuit`` is starting."""

    def on_circuit_done(
        self, circuit: str, result, seconds: float, cached: bool = False
    ) -> None:
        """``circuit`` finished; ``result`` is its CircuitResult."""

    def on_stage_start(self, circuit: str, stage: str) -> None:
        """Stage ``stage`` is starting for ``circuit``."""

    def on_stage_end(self, circuit: str, stage: str, seconds: float) -> None:
        """Stage ``stage`` finished for ``circuit``."""

    def on_unit_start(self, unit) -> None:
        """Grid work ``unit`` (a :class:`repro.grid.WorkUnit`) was
        scheduled (pooled backends report submission, not pickup)."""

    def on_unit_done(self, unit, seconds: float, cached: bool = False) -> None:
        """Grid work ``unit`` finished (``cached=True``: resumed from
        the job store without recomputation)."""

    def on_unit_result(self, unit, result: dict) -> None:
        """Grid work ``unit``'s raw result dict, right before
        ``on_unit_done`` (cached units included).  Consumers must
        treat ``result`` as read-only — it is the same object the
        pipeline folds back in."""


#: Hook names :class:`GuardedEvents` protects (everything above).
_HOOKS = (
    "on_campaign_start",
    "on_campaign_end",
    "on_circuit_start",
    "on_circuit_done",
    "on_stage_start",
    "on_stage_end",
    "on_unit_start",
    "on_unit_done",
    "on_unit_result",
)


class GuardedEvents(CampaignEvents):
    """Exception barrier around another events instance.

    A raising hook used to abort the whole campaign mid-run; wrapped,
    the first :class:`Exception` a hook raises is reported on stderr
    and that hook is suppressed from then on (one warning per hook,
    not one per event).  ``BaseException`` — ``KeyboardInterrupt`` in
    particular — passes through untouched.
    """

    def __init__(self, inner: CampaignEvents, stream=None):
        self._inner = inner
        self._stream = stream if stream is not None else sys.stderr
        self._broken: set[str] = set()

    @property
    def inner(self) -> CampaignEvents:
        return self._inner

    def _call(self, hook: str, *args, **kwargs) -> None:
        if hook in self._broken:
            m = _metrics.active()
            if m.enabled:
                m.counter("events.suppressed_firings")
            return
        try:
            getattr(self._inner, hook)(*args, **kwargs)
        except Exception as exc:
            self._broken.add(hook)
            m = _metrics.active()
            if m.enabled:
                m.counter("events.hook_errors")
                m.counter(f"events.hook_errors.{hook}")
            print(
                f"campaign: events hook {hook} raised "
                f"{type(exc).__name__}: {exc} — suppressing this hook "
                f"for the rest of the run",
                file=self._stream,
                flush=True,
            )


def _guarded_hook(hook: str):
    def method(self, *args, **kwargs):
        self._call(hook, *args, **kwargs)

    method.__name__ = hook
    method.__doc__ = f"Guarded delegation of ``{hook}``."
    return method


for _hook in _HOOKS:
    setattr(GuardedEvents, _hook, _guarded_hook(_hook))
del _hook


def guard_events(events: CampaignEvents | None) -> GuardedEvents:
    """Wrap ``events`` in a :class:`GuardedEvents` (idempotent)."""
    if isinstance(events, GuardedEvents):
        return events
    return GuardedEvents(events if events is not None else CampaignEvents())


#: Bump when the envelope shapes below change incompatibly.
ENVELOPE_VERSION = 1


def unit_envelope(unit) -> dict:
    """The JSON-able identity of a grid work unit (no spec payload)."""
    return {
        "uid": unit.uid,
        "circuit": unit.circuit,
        "stage": unit.stage,
        "key": unit.key,
        "index": unit.index,
        "total": unit.total,
    }


class RecordingEvents(CampaignEvents):
    """Serializes every hook call into a JSON-able envelope.

    Each hook becomes one plain-dict envelope — ``{"event": <kind>,
    ...}`` with only JSON-native values — handed to the ``emit``
    callable.  This is the wire format of the campaign service's
    event stream (:mod:`repro.net`): the coordinator appends a
    monotonic ``seq`` to each envelope as it lands in the per-campaign
    buffer, and polling clients resume from any sequence number.

    Envelopes deliberately carry identities and timings, not results:
    the final :class:`CampaignResult` travels once, at the end,
    through its own channel.
    """

    def __init__(self, emit):
        self._emit = emit

    def on_campaign_start(self, circuits, config) -> None:
        self._emit({
            "event": "campaign-start",
            "circuits": list(circuits),
            "fingerprint": config.fingerprint(),
        })

    def on_campaign_end(self, result, seconds) -> None:
        self._emit({
            "event": "campaign-end",
            "circuits": len(result.circuits),
            "cache_hits": list(result.cache_hits),
            "seconds": seconds,
        })

    def on_circuit_start(self, circuit) -> None:
        self._emit({"event": "circuit-start", "circuit": circuit})

    def on_circuit_done(self, circuit, result, seconds, cached=False) -> None:
        self._emit({
            "event": "circuit-done",
            "circuit": circuit,
            "seconds": seconds,
            "cached": bool(cached),
        })

    def on_stage_start(self, circuit, stage) -> None:
        self._emit({
            "event": "stage-start", "circuit": circuit, "stage": stage,
        })

    def on_stage_end(self, circuit, stage, seconds) -> None:
        self._emit({
            "event": "stage-end",
            "circuit": circuit,
            "stage": stage,
            "seconds": seconds,
        })

    def on_unit_start(self, unit) -> None:
        self._emit({"event": "unit-start", "unit": unit_envelope(unit)})

    def on_unit_done(self, unit, seconds, cached=False) -> None:
        self._emit({
            "event": "unit-done",
            "unit": unit_envelope(unit),
            "seconds": seconds,
            "cached": bool(cached),
        })

    def on_unit_result(self, unit, result) -> None:
        # Counts only — summarize_result never copies payload data
        # into the stream, keeping the envelope contract above.
        from ..obs.progress import summarize_result

        self._emit({
            "event": "unit-result",
            "unit": unit_envelope(unit),
            "summary": summarize_result(unit.kind, result),
        })


class TracingEvents(CampaignEvents):
    """Projects the hook stream onto a :class:`repro.obs.Tracer`.

    Span layout: the campaign is one duration span on tid
    ``"campaign"``; each circuit gets its own tid
    (``"circuit:<name>"``) carrying the circuit span and its nested
    stage spans, so interleaved circuit completion under ``jobs > 1``
    cannot break B/E nesting.  Work units become *async* spans keyed
    by ``unit.uid`` because pooled schedulers overlap them freely.
    Done-events that never had a start (cache hits, store-resumed
    units) are recorded as instants instead of unbalanced ends.
    """

    def __init__(self, tracer=None):
        from ..obs import trace as _trace

        self._tracer = tracer if tracer is not None else _trace.active()
        self._open_circuits: set[str] = set()
        self._open_stages: set[tuple[str, str]] = set()
        self._open_units: set[str] = set()

    @staticmethod
    def _circuit_tid(circuit: str) -> str:
        return f"circuit:{circuit}"

    def on_campaign_start(self, circuits, config) -> None:
        self._tracer.begin(
            "campaign", "campaign",
            {"circuits": list(circuits),
             "fingerprint": config.fingerprint()},
        )

    def on_campaign_end(self, result, seconds) -> None:
        self._tracer.end("campaign", "campaign")

    def on_circuit_start(self, circuit) -> None:
        self._open_circuits.add(circuit)
        self._tracer.begin(f"circuit:{circuit}", self._circuit_tid(circuit),
                           {"circuit": circuit})

    def on_circuit_done(self, circuit, result, seconds, cached=False) -> None:
        if circuit in self._open_circuits:
            self._open_circuits.discard(circuit)
            self._tracer.end(f"circuit:{circuit}", self._circuit_tid(circuit))
        else:
            self._tracer.instant(
                f"circuit:{circuit} (cached)" if cached
                else f"circuit:{circuit}",
                self._circuit_tid(circuit),
            )

    def on_stage_start(self, circuit, stage) -> None:
        self._open_stages.add((circuit, stage))
        self._tracer.begin(f"stage:{stage}", self._circuit_tid(circuit),
                           {"circuit": circuit})

    def on_stage_end(self, circuit, stage, seconds) -> None:
        if (circuit, stage) in self._open_stages:
            self._open_stages.discard((circuit, stage))
            self._tracer.end(f"stage:{stage}", self._circuit_tid(circuit))

    def on_unit_start(self, unit) -> None:
        self._open_units.add(unit.uid)
        self._tracer.async_begin(
            f"unit:{unit.stage}", unit.uid, args=unit_envelope(unit))

    def on_unit_done(self, unit, seconds, cached=False) -> None:
        if unit.uid in self._open_units:
            self._open_units.discard(unit.uid)
            self._tracer.async_end(f"unit:{unit.stage}", unit.uid)
        else:
            self._tracer.instant(
                f"unit:{unit.stage} (cached)" if cached
                else f"unit:{unit.stage}",
                "unit",
                args=unit_envelope(unit),
            )


class TeeEvents(CampaignEvents):
    """Fans every hook out to several events objects, in order."""

    def __init__(self, *sinks: CampaignEvents):
        self._sinks = tuple(sinks)

    @property
    def sinks(self) -> tuple[CampaignEvents, ...]:
        return self._sinks

    def _fanout(self, hook: str, *args, **kwargs) -> None:
        for sink in self._sinks:
            getattr(sink, hook)(*args, **kwargs)


def _tee_hook(hook: str):
    def method(self, *args, **kwargs):
        self._fanout(hook, *args, **kwargs)

    method.__name__ = hook
    method.__doc__ = f"Fan-out delegation of ``{hook}``."
    return method


for _hook in _HOOKS:
    setattr(TeeEvents, _hook, _tee_hook(_hook))
del _hook


class ProgressEvents(CampaignEvents):
    """Line-per-event progress on a stream (default: stderr)."""

    def __init__(self, stream=None):
        self._stream = stream if stream is not None else sys.stderr

    def _emit(self, message: str) -> None:
        print(message, file=self._stream, flush=True)

    def on_campaign_start(self, circuits, config) -> None:
        grid = (
            f", grid={config.grid}x{config.grid_workers}"
            if config.grid else ""
        )
        self._emit(
            f"campaign: {len(circuits)} circuit(s) "
            f"[{', '.join(circuits)}], jobs={config.jobs}{grid}"
        )

    def on_campaign_end(self, result, seconds) -> None:
        self._emit(f"campaign: done in {seconds:.1f}s")

    def on_circuit_start(self, circuit) -> None:
        self._emit(f"[{circuit}] start")

    def on_circuit_done(self, circuit, result, seconds, cached=False) -> None:
        suffix = " (cached)" if cached else f" in {seconds:.1f}s"
        self._emit(f"[{circuit}] done{suffix}")

    def on_stage_end(self, circuit, stage, seconds) -> None:
        self._emit(f"[{circuit}] {stage}: {seconds:.2f}s")

    def on_unit_done(self, unit, seconds, cached=False) -> None:
        suffix = " (cached)" if cached else f" in {seconds:.2f}s"
        self._emit(
            f"[{unit.circuit}] {unit.stage} {unit.key} "
            f"unit {unit.index + 1}/{unit.total}{suffix}"
        )
