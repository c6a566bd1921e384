"""One workload pass in a fresh process; prints one JSON record.

Run by ``run.py`` as ``python3 perfbench/probe.py --workload W
--mode setup|pass|traced --spawned T``, where ``T`` is the parent's
``time.monotonic()`` at spawn (the clock is shared by every process on
the host), so ``setup_s`` covers interpreter start, import and lab
construction: what every ``repro run`` invocation pays.

Every mode times a fixed reference loop right after set-up, and the
pass modes time it again after the pass (``run.py`` scales timings by
it).

* ``setup``: build the labs and stop.
* ``pass``: build the labs, then time one pass with nothing installed.
* ``traced``: install the layer wrappers first, then do the same.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import resource
import sys
import time
import traceback


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _reference_round(iterations: int = 20000) -> float:
    """Seconds one round of a fixed pure-Python loop takes."""
    table = list(range(256))
    index = lambda x: (x * 31 + 7) & 255  # noqa: E731
    step = lambda x: table[index(x)] ^ x  # noqa: E731
    started = time.perf_counter()
    seen: dict[int, int] = {}
    for i in range(iterations):
        value = step(i & 1023)
        seen[value] = seen.get(value, 0) + i
    return time.perf_counter() - started


def reference_s(seconds: float = 0.3) -> float:
    """Mean time of a reference round, repeated for about ``seconds``:
    how fast the host runs interpreted code just now."""
    total = 0.0
    rounds = 0
    while total < seconds:
        total += _reference_round()
        rounds += 1
    return total / rounds


def _reap_children(timeout: float = 60.0) -> None:
    """Wait for pool workers, so their CPU and memory are accounted."""
    for child in multiprocessing.active_children():
        child.join(timeout)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"),
                        required=True)
    parser.add_argument("--spawned", type=float, required=True)
    args = parser.parse_args(argv)

    import workloads
    from repro.engine import DEFAULT_ENGINE

    workload = workloads.WORKLOADS[args.workload]
    traced = args.mode == "traced"
    if traced:
        import layers

        instrumentation = layers.Instrumentation()
        setup_tracer = layers.Tracer()
        instrumentation.tracer = setup_tracer
    workloads.setup(workload)
    setup_s = time.monotonic() - args.spawned
    reference_before = reference_s()
    record: dict = {
        "setup_s": setup_s,
        # Host speed right after set-up, for run.py's correction.
        "setup_reference_s": reference_before,
        "engine": DEFAULT_ENGINE,
    }
    if args.mode == "setup":
        print(json.dumps(record))
        return 0

    events = run_tracer = None
    if traced:
        events = layers.LayerEvents()
        run_tracer = layers.Tracer()
        instrumentation.tracer = run_tracer
    cpu_before = _cpu_s()
    started = time.perf_counter()
    try:
        result = workloads.run(workload, events)
    except Exception:
        result = None
        record["error"] = traceback.format_exc()
    wall_s = time.perf_counter() - started
    if traced:
        instrumentation.tracer = None
    _reap_children()
    record["wall_s"] = wall_s
    record["cpu_s"] = _cpu_s() - cpu_before
    # Host speed around the pass, for run.py's host-speed correction.
    record["reference_s"] = (reference_before + reference_s()) / 2
    # Parent peak plus the largest worker's peak (kB on Linux).
    record["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    ) / 1024.0
    if result is not None:
        record["digests"] = {
            circuit: workloads.digest(payload)
            for circuit, payload in workloads.payloads(
                workload, result
            ).items()
        }
        record["quality"] = workloads.quality(workload, result)
    if traced:
        record["layers"] = layers.layer_metrics(
            setup_tracer, run_tracer, events, wall_s,
            workloads.grid_workers(),
        )
        record["self_sum_s"] = run_tracer.self_sum()
        record["top_layer"] = layers.top_layer(run_tracer)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
