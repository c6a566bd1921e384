"""The worker daemon behind ``repro worker <coordinator-url>``.

A worker is a pull loop: register, then lease one unit at a time,
execute it through the same :func:`repro.grid.worker.process_entry`
envelope the ``process`` scheduler's pool runs, and push the result
back.  A background thread heartbeats while a unit is executing, so
slow units (the whole point of distributing) never look like a dead
worker.

Failure duties are split with the coordinator: if the *worker* dies
mid-unit, the coordinator reaps its lease and reassigns the unit; if
the *coordinator* restarts, the worker's id comes back ``410 gone``
and it simply re-registers and keeps pulling.  A unit that raises is
reported as a failed completion (the wave's client turns that into a
:class:`~repro.errors.GridError`), not retried — a deterministic unit
that raised once will raise again.
"""

from __future__ import annotations

import os
import socket
import sys
import threading
import time

from repro.errors import NetError
from repro.grid.units import WorkUnit
from repro.grid.worker import process_entry
from repro.net.client import CoordinatorClient, WorkerGone
from repro.net.protocol import require


def default_worker_name() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class WorkerDaemon:
    """One pull-execute-push loop against a coordinator.

    ``max_units`` / ``max_idle`` bound the run (tests, CI smoke);
    both default to unbounded, the daemon shape.  ``run()`` returns
    the number of units completed.
    """

    #: Consecutive unreachable-coordinator leases tolerated before the
    #: worker gives up (the coordinator may be restarting; one glitch
    #: must not kill a fleet).
    MAX_NET_FAILURES = 30

    def __init__(
        self,
        url: str,
        name: str = "",
        max_units: int | None = None,
        max_idle: float | None = None,
        stream=None,
        client: CoordinatorClient | None = None,
    ):
        self._client = client if client is not None else (
            CoordinatorClient(url)
        )
        self.name = name or default_worker_name()
        self.max_units = max_units
        self.max_idle = max_idle
        self._stream = stream if stream is not None else sys.stderr
        self._stop = threading.Event()
        self._lock = threading.Lock()
        self._wid: str | None = None
        self._lease_timeout = 60.0
        self._poll = 0.2
        self.completed = 0

    def _log(self, message: str) -> None:
        print(f"worker {self.name}: {message}", file=self._stream, flush=True)

    def stop(self) -> None:  # lint: allow(lock-discipline)
        """Ask the loop to exit after the unit in flight (thread-safe
        via the Event itself — no lock needed)."""
        self._stop.set()

    # -- registration / heartbeat --------------------------------------------

    def _register(self) -> None:
        payload = self._client.register_worker(self.name)
        with self._lock:
            self._wid = require(payload, "worker", str)
            self._lease_timeout = float(
                payload.get("lease_timeout") or self._lease_timeout
            )
            self._poll = float(payload.get("poll_interval") or self._poll)
        self._log(f"registered as {self._wid}")

    def _heartbeat_loop(self, done: threading.Event) -> None:
        """Beats while a unit executes; a unit outliving the lease
        timeout must not get its worker reaped mid-computation."""
        interval = max(self._lease_timeout / 4.0, 0.05)
        while not done.wait(interval):
            if self._stop.is_set():
                return
            with self._lock:
                wid = self._wid
            try:
                if wid is not None:
                    self._client.heartbeat(wid)
            except (WorkerGone, NetError):
                # The lease loop discovers and handles both cases
                # (re-register / retry); the beat just goes quiet.
                return

    # -- the loop ------------------------------------------------------------

    # The loop is the lone writer of everything but _wid (whose writes
    # happen in _register, under the lock); its lock-free reads of the
    # Event and the client are deliberate.
    def run(self) -> int:  # lint: allow(lock-discipline)
        self._register()
        idle_since: float | None = None
        net_failures = 0
        while not self._stop.is_set():
            if self.max_units is not None and (
                self.completed >= self.max_units
            ):
                self._log(f"done: {self.completed} unit(s), exiting")
                break
            try:
                lease = self._client.lease(self._wid)
                net_failures = 0
            except WorkerGone:
                self._log("coordinator dropped our lease; re-registering")
                self._register()
                continue
            except NetError as exc:
                net_failures += 1
                if net_failures >= self.MAX_NET_FAILURES:
                    raise NetError(
                        f"coordinator unreachable after {net_failures} "
                        f"attempts: {exc}"
                    ) from exc
                self._stop.wait(self._poll)
                continue
            if lease.get("idle"):
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif self.max_idle is not None and (
                    now - idle_since >= self.max_idle
                ):
                    self._log(
                        f"idle for {self.max_idle:.1f}s, exiting"
                    )
                    break
                self._stop.wait(float(lease.get("poll") or self._poll))
                continue
            idle_since = None
            self._run_unit(lease)
        return self.completed

    def _run_unit(self, lease: dict) -> None:
        jid = require(lease, "job", int)
        unit_data = require(lease, "unit", dict)
        config_data = require(lease, "config", dict)
        unit = WorkUnit.from_dict(unit_data)
        self._log(f"unit {unit.uid} leased (job {jid})")
        done = threading.Event()
        beat = threading.Thread(
            target=self._heartbeat_loop,
            args=(done,),
            name="repro-worker-heartbeat",
            daemon=True,
        )
        beat.start()
        started = time.monotonic()
        try:
            # The envelope's metrics snapshot and spans (when the
            # config asks) ride the completion: the coordinator folds
            # them into its own registry/tracer and relays them to the
            # submitting parent.
            completion = {"job": jid, **process_entry(
                unit_data, config_data, pid=f"worker-{self.name}"
            )}
        except Exception as exc:
            # Deterministic units fail deterministically: report, do
            # not retry.  The submitting client raises GridError.
            completion = {
                "job": jid,
                "seconds": time.monotonic() - started,
                "error": f"{type(exc).__name__}: {exc}",
            }
            self._log(f"unit {unit.uid} failed: {completion['error']}")
        finally:
            done.set()
        self._push(jid, unit, completion)
        beat.join(timeout=2.0)

    def _push(self, jid: int, unit: WorkUnit, completion: dict) -> None:
        """Deliver one completion (re-registering if we were reaped)."""
        for attempt in range(self.MAX_NET_FAILURES):
            with self._lock:
                wid = self._wid
            try:
                ack = self._client.complete(wid, completion)
            except WorkerGone:
                self._register()
                continue
            except NetError:
                if self._stop.wait(self._poll):
                    return
                continue
            if "error" not in completion:
                self.completed += 1
            note = " (duplicate)" if ack.get("duplicate") else ""
            self._log(
                f"unit {unit.uid} pushed (job {jid}){note}"
            )
            return
        raise NetError(
            f"could not deliver unit {unit.uid} after "
            f"{self.MAX_NET_FAILURES} attempts"
        )
