"""Scheduler backends: how planned work units get executed.

Three backends ship with the library, registered by name (mirroring
:mod:`repro.engine` and :mod:`repro.sampling.registry`):

* ``serial`` — the reference: units run inline, in plan order.  Still
  worthwhile on one worker because every finished unit lands in the
  job store, making a killed campaign resumable at unit granularity.
* ``process`` — a persistent :class:`~concurrent.futures.ProcessPoolExecutor`
  fed from one shared queue, so idle workers steal the next pending
  unit and stragglers never serialize the tail.  Workers rebuild
  per-circuit state through the memoized lab lookup (synthesis is paid
  once per circuit per worker) and stream ``(seconds, result)``
  payloads back as futures complete.  This is the library's one local
  process boundary: ``jobs > 1`` circuit farming runs ``circuit``
  units on it too.
* ``remote`` — units go to a :mod:`repro.net` coordinator over HTTP
  and execute on whatever worker daemons are attached, on any machine.
  Needs ``config.coordinator`` (``--coordinator http://host:port``).

All backends call ``on_done`` as each unit finishes — *before*
returning — so the executor can persist results incrementally.  On
any abort (:class:`KeyboardInterrupt`, a unit raising in its worker,
a broken pool) the process pool drains gracefully: pending units are
cancelled, already-finished futures are still harvested through
``on_done`` (and therefore reach the job store), and the exception is
re-raised for the caller.

Determinism: schedulers affect only *where/when* units run.  Results
are reassembled in plan order by the caller, and every unit is a pure
function of its spec, so all backends are bit-identical by contract.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)

from repro.errors import GridError
from repro.grid.worker import execute_unit, process_entry
from repro.obs import metrics as _metrics
from repro.obs import trace as _trace
from repro.util.registry import Registry

DEFAULT_SCHEDULER = "serial"


class Scheduler:
    """A named policy for executing planned work units.

    ``run`` executes ``units`` and returns their result dicts in the
    same order; ``on_start(unit)`` / ``on_done(unit, seconds, result)``
    fire per unit (``on_start`` at submission time for pooled
    backends).  Pools persist across ``run`` calls — one campaign
    dispatches many small waves — until :meth:`close`.
    """

    name: str = ""

    def __init__(self, workers: int = 1):
        if workers < 1:
            raise GridError(f"grid workers must be >= 1, got {workers}")
        self.workers = workers

    def run(self, units, config, on_start=None, on_done=None) -> list[dict]:
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources (idempotent)."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} workers={self.workers}>"


#: name -> scheduler class.
SCHEDULERS: dict[str, type[Scheduler]] = {}


_REGISTRY = Registry("grid scheduler", GridError, entries=SCHEDULERS)


def register_scheduler(cls: type[Scheduler] | None = None, *,
                       replace: bool = False):
    """Class decorator adding ``cls`` to the registry under ``cls.name``."""
    return _REGISTRY.register(cls, replace=replace)


def get_scheduler(name: str) -> type[Scheduler]:
    """Look up a registered scheduler class by name."""
    return _REGISTRY.get(name)


def scheduler_names() -> tuple[str, ...]:
    return _REGISTRY.names()


def build_scheduler(name: str, workers: int = 1) -> Scheduler:
    """Instantiate the registered scheduler called ``name``."""
    return get_scheduler(name)(workers)


def _harvest(envelope: dict) -> tuple[float, dict]:
    """``(seconds, result)`` from a worker envelope.

    Envelopes (:func:`~repro.grid.worker.process_entry`) may carry a
    ``metrics`` snapshot (telemetry collected in the worker) and a
    ``spans`` trace buffer; both are folded into the parent's active
    registry/tracer here, at harvest time.
    """
    snapshot = envelope.get("metrics")
    if snapshot:
        _metrics.active().merge(snapshot)
    spans = envelope.get("spans")
    if spans:
        _trace.active().absorb(spans)
    return float(envelope.get("seconds") or 0.0), envelope["result"]


@register_scheduler
class SerialScheduler(Scheduler):
    """Units run inline, in plan order (the pinned reference)."""

    name = "serial"

    def run(self, units, config, on_start=None, on_done=None) -> list[dict]:
        results: list[dict] = []
        for unit in units:
            if on_start is not None:
                on_start(unit)
            started = time.monotonic()
            result = execute_unit(unit, config)
            if on_done is not None:
                on_done(unit, time.monotonic() - started, result)
            results.append(result)
        return results


@register_scheduler
class RemoteScheduler(Scheduler):
    """Units execute on workers attached to a repro.net coordinator.

    The wave protocol: submit every unit of the wave (with the config)
    to the coordinator in one POST, then poll the wave's completion
    log with a ``since`` cursor, firing ``on_done`` for each newly
    landed unit — the same incremental-persistence contract as the
    local pools.  Parallelism is however many workers are attached to
    the coordinator; the ``workers`` count is ignored.  Results come
    back in plan order, and since every unit is a pure function of its
    spec, the output is bit-identical to ``serial`` no matter which
    machine computed what, or how often (lease reassignment can make
    delivery at-least-once).

    A unit that *raises* on a worker fails the wave with a
    :class:`~repro.errors.GridError`, after harvesting every other
    finished unit in the log — matching the local drain semantics.  An
    abort (``KeyboardInterrupt``) cancels the wave so the coordinator
    drops its pending units.
    """

    name = "remote"

    def __init__(self, workers: int = 1):
        super().__init__(workers)
        self._client = None

    def _coordinator(self, config):
        from repro.net.client import CoordinatorClient

        url = getattr(config, "coordinator", None)
        if not url:
            raise GridError(
                "the remote scheduler needs a coordinator URL: pass "
                "--coordinator http://host:port (or set the "
                "'coordinator' config option)"
            )
        if self._client is None or self._client.url != url.rstrip("/"):
            self._client = CoordinatorClient(url)
        return self._client

    def run(self, units, config, on_start=None, on_done=None) -> list[dict]:
        from repro.net.protocol import DEFAULT_POLL_INTERVAL

        units = list(units)
        if not units:
            return []
        client = self._coordinator(config)
        for unit in units:
            if on_start is not None:
                on_start(unit)
        wave = client.submit_wave(
            [unit.to_dict() for unit in units], config.to_dict()
        )
        wid = wave["wave"]
        results: list[dict | None] = [None] * len(units)
        done = 0
        since = 0
        try:
            while done < len(units):
                status = client.wave_status(wid, since)
                since = status["next"]
                failure = None
                for record in status["log"]:
                    index = record["index"]
                    if "error" in record:
                        failure = failure or GridError(
                            f"unit {record['uid']} failed on worker "
                            f"{record['worker']}: {record['error']}"
                        )
                        continue
                    seconds, result = _harvest(record)
                    results[index] = result
                    done += 1
                    if on_done is not None:
                        on_done(units[index], seconds, result)
                if failure is not None:
                    raise failure
                if done < len(units):
                    time.sleep(DEFAULT_POLL_INTERVAL)
        except BaseException:
            # The wave is over either way: drop its pending units so
            # attached workers go idle instead of computing for no one.
            try:
                client.cancel_wave(wid)
            except Exception:
                pass
            raise
        return results  # type: ignore[return-value]


@register_scheduler
class ProcessScheduler(Scheduler):
    """A persistent work-stealing process pool.

    All units go onto one shared queue; idle workers pull (steal) the
    next pending unit, so shards of uneven cost balance themselves.
    """

    name = "process"

    def __init__(self, workers: int = 1):
        super().__init__(workers)
        self._executor: ProcessPoolExecutor | None = None

    def run(self, units, config, on_start=None, on_done=None) -> list[dict]:
        units = list(units)
        if not units:
            return []
        if self._executor is None:
            self._executor = ProcessPoolExecutor(max_workers=self.workers)
        config_data = config.to_dict()
        futures: dict[Future, int] = {}
        for index, unit in enumerate(units):
            future = self._executor.submit(
                process_entry, unit.to_dict(), config_data
            )
            futures[future] = index
            # After the submit, which starts the pool's workers on first
            # use: a unit's span is its own work, not the pool start-up.
            if on_start is not None:
                on_start(unit)
        results: list[dict | None] = [None] * len(units)
        try:
            pending = set(futures)
            while pending:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                for future in done:
                    index = futures[future]
                    seconds, result = _harvest(future.result())
                    results[index] = result
                    if on_done is not None:
                        on_done(units[index], seconds, result)
        except BaseException:
            # KeyboardInterrupt, a unit raising in its worker, a
            # broken pool: either way the wave is over — drain so
            # every *finished* unit still reaches on_done (and hence
            # the job store) before the exception propagates.
            self._drain(units, futures, results, on_done)
            raise
        return results  # type: ignore[return-value]

    def _drain(self, units, futures, results, on_done) -> None:
        """Graceful abort: cancel the queue, harvest finished units."""
        for future in futures:
            future.cancel()
        for future, index in futures.items():
            if results[index] is not None or not future.done() or (
                future.cancelled()
            ):
                continue
            try:
                seconds, result = _harvest(future.result())
            except BaseException:
                continue  # the worker itself was interrupted mid-unit
            results[index] = result
            if on_done is not None:
                try:
                    on_done(units[index], seconds, result)
                except Exception:
                    # Drain persistence is best-effort: a store that
                    # fails mid-abort must neither stop the harvest of
                    # the remaining finished units nor supplant the
                    # original exception (the unit just recomputes on
                    # resume).
                    continue
        self.close()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
