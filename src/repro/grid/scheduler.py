"""Scheduler backends: how planned work units get executed.

Three backends ship with the library, registered by name (mirroring
:mod:`repro.engine` and :mod:`repro.sampling.registry`):

* ``serial`` — the reference: units run inline, in plan order.  Still
  worthwhile on one worker because every finished unit lands in the
  job store, making a killed campaign resumable at unit granularity.
* ``process`` — workers forked from the parent for each wave's
  circuits, so they inherit the lab, the compiled RTL schema and the
  netlist program the parent has built (the executor warms the lab
  before dispatch; a wave of another circuit forks a fresh pool).  Each
  worker reads units from its own duplex pipe; one single-threaded
  :func:`multiprocessing.connection.wait` loop in the parent sends the
  next pending unit to whichever worker has just answered, with no
  shared queue and no executor threads, and harvests each
  ``(seconds, result)`` envelope as it lands.  This is the library's
  one local process boundary: ``jobs > 1`` circuit farming runs
  ``circuit`` units on it too, one fork per farm wave.
* ``remote`` — units go to a :mod:`repro.net` coordinator over HTTP
  and execute on whatever worker daemons are attached, on any machine.
  Needs ``config.coordinator`` (``--coordinator http://host:port``).

All backends call ``on_done`` as each unit finishes — *before*
returning — so the executor can persist results incrementally.  On
any abort (:class:`KeyboardInterrupt`, a unit raising in its worker,
a worker dying mid-unit) the process pool drains gracefully: pending
units are never sent, every answer already readable is still harvested
through ``on_done`` (and therefore reaches the job store), the workers
are stopped, and the exception is re-raised for the caller.

Determinism: schedulers affect only *where/when* units run.  Results
are reassembled in plan order by the caller, and every unit is a pure
function of its spec, so all backends are bit-identical by contract.
"""

from __future__ import annotations

import multiprocessing
import signal
import time
import traceback
from multiprocessing.connection import wait
from typing import NoReturn

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
    fire per unit (``on_start`` when the unit is sent, for pooled
    backends).  Pools persist across ``run`` calls — one campaign
    dispatches many small waves — until :meth:`close`.
    """

    name: str = ""
    #: Whether workers fork from this process and inherit what it has
    #: built; the executor then warms each lab before dispatch.
    forks: bool = False

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
    """Forked workers, each fed over its own duplex pipe.

    The workers fork from the parent for the circuits and config of a
    wave, so they inherit every lab, schema and netlist program the
    parent has built (the executor warms the lab first), and fork
    again when a wave names other circuits or another config.  One
    single-threaded :func:`multiprocessing.connection.wait` loop sends
    the next pending unit to whichever worker has just answered, with
    at most ``_IN_FLIGHT`` units in flight per worker, so shards of
    uneven cost balance themselves.
    """

    name = "process"
    forks = True

    def __init__(self, workers: int = 1):
        super().__init__(workers)
        #: parent end of each worker's pipe -> the worker process.
        self._pool: dict = {}
        self._forked_for: tuple | None = None

    def run(self, units, config, on_start=None, on_done=None) -> list[dict]:
        units = list(units)
        if not units:
            return []
        config_data = config.to_dict()
        key = (tuple(dict.fromkeys(unit.circuit for unit in units)),
               config_data)
        if key != self._forked_for:
            self.close()
            context = multiprocessing.get_context()
            for _ in range(self.workers):
                conn, child = context.Pipe()
                process = context.Process(
                    target=_serve, args=(child, config_data), daemon=True
                )
                process.start()
                child.close()
                self._pool[conn] = process
            self._forked_for = key
        pending = iter(range(len(units)))
        flight: dict = {conn: [] for conn in self._pool}
        sentinels = {p.sentinel: conn for conn, p in self._pool.items()}
        results: list[dict | None] = [None] * len(units)

        def send(conn) -> None:
            index = next(pending, None)
            if index is None:
                return
            if on_start is not None:
                on_start(units[index])
            flight[conn].append(index)
            try:
                conn.send((index, units[index].to_dict()))
            except OSError:
                self._lost(conn, units, flight[conn])

        try:
            for _ in range(_IN_FLIGHT):
                for conn in flight:
                    send(conn)
            while any(flight.values()):
                for ready in wait([*flight, *sentinels]):
                    conn = sentinels.get(ready, ready)
                    for index, envelope, error in self._answers(
                        conn, units, flight[conn]
                    ):
                        if error is not None:
                            exc, remote = error
                            raise exc from _WorkerTraceback(remote)
                        seconds, result = _harvest(envelope)
                        results[index] = result
                        if on_done is not None:
                            on_done(units[index], seconds, result)
                        send(conn)
                    if ready in sentinels:
                        self._lost(conn, units, flight[conn])
        except BaseException:
            # KeyboardInterrupt, a unit raising in its worker, a dead
            # worker: either way the wave is over — drain so every
            # *finished* unit still reaches on_done (and hence the job
            # store) before the exception propagates.
            self._drain(units, flight, on_done)
            raise
        return results  # type: ignore[return-value]

    def _answers(self, conn, units, indices):
        """Yield every answer already readable on ``conn``."""
        while indices and conn.poll():
            try:
                answer = conn.recv()
            except (EOFError, OSError):
                self._lost(conn, units, indices)
            indices.remove(answer[0])
            yield answer

    def _lost(self, conn, units, indices) -> NoReturn:
        process = self._pool[conn]
        process.join(1.0)
        running = f"unit {units[indices[0]].uid}" if indices else "no unit"
        raise GridError(
            f"grid worker {process.pid} died (exit code "
            f"{process.exitcode}) running {running}"
        )

    def _drain(self, units, flight, on_done) -> None:
        """Graceful abort: harvest every answer already readable, then
        stop the workers."""
        try:
            for conn, indices in flight.items():
                try:
                    for index, envelope, error in self._answers(
                        conn, units, indices
                    ):
                        if error is not None or on_done is None:
                            continue
                        try:
                            on_done(units[index], *_harvest(envelope))
                        except Exception:
                            # Drain persistence is best-effort: a store
                            # that fails mid-abort must neither stop the
                            # harvest of the remaining finished units
                            # nor supplant the original exception (the
                            # unit just recomputes on resume).
                            continue
                except GridError:
                    continue  # the worker died mid-unit
        finally:
            self._stop(terminate=True)

    def _stop(self, terminate: bool) -> None:
        pool, self._pool, self._forked_for = self._pool, {}, None
        for conn, process in pool.items():
            if terminate:
                process.terminate()
            else:
                try:
                    conn.send(None)
                except OSError:
                    pass  # already gone
        for conn, process in pool.items():
            process.join()
            process.close()
            conn.close()

    def close(self) -> None:
        self._stop(terminate=False)


#: Units in flight per worker: one running and one waiting in its pipe,
#: so a worker never idles while the parent handles its last answer.
_IN_FLIGHT = 2


class _WorkerTraceback(Exception):
    """The formatted traceback of a unit that raised in a worker."""


def _serve(conn, config_data: dict) -> None:
    """A pool worker: answer each ``(index, unit data)`` read from
    ``conn`` with ``(index, envelope, None)``, or ``(index, None,
    (exception, traceback))`` when the unit raised, until ``None``."""
    # Aborts are the parent's to decide: it drains, then stops us.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    while True:
        try:
            message = conn.recv()
        except EOFError:
            return  # the parent is gone
        if message is None:
            return
        index, unit_data = message
        try:
            answer = (index, process_entry(unit_data, config_data), None)
        except Exception as exc:
            answer = (index, None, (exc, traceback.format_exc()))
        try:
            conn.send(answer)
        except Exception as exc:  # an exception that does not pickle
            conn.send((index, None, (GridError(repr(exc)),
                                     traceback.format_exc())))
