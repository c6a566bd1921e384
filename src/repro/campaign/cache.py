"""On-disk per-circuit result cache.

A cache entry is keyed by ``(circuit, config fingerprint, format
version)`` — the fingerprint covers every result-affecting config field
(see :meth:`repro.campaign.CampaignConfig.fingerprint`), so a budget or
seed change misses cleanly while re-running the same science on more
jobs, or with a different circuit list, hits.  Entries are plain JSON
(:meth:`CircuitResult.to_dict`); anything unreadable or structurally
stale is treated as a miss, never an error.  An optional
``max_entries`` bound turns the directory into an LRU cache
(mtime-ordered sweep on every store).
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.campaign.result import CircuitResult
from repro.errors import ConfigError
from repro.obs import metrics as _metrics
from repro.util.files import sweep_dead_tmp, write_atomic

#: Bump when the cached payload's shape or semantics change.
#: v2: strategy rows carry survivor ``triage`` and kill ``witnesses``.
CACHE_VERSION = 2


class ResultCache:
    """Load/store :class:`CircuitResult` objects under a directory.

    ``max_entries`` bounds the number of on-disk entries with an LRU
    sweep: every store (and init) drops the least-recently-used entry
    files — mtime-ordered, across fingerprints, hits refresh mtime —
    beyond the bound.  ``None`` (the default) keeps the historical
    unbounded behavior.
    """

    def __init__(self, directory, config, max_entries: int | None = None):
        if max_entries is not None and max_entries < 1:
            raise ConfigError(
                f"cache max_entries must be >= 1, got {max_entries}"
            )
        self._dir = Path(directory)
        self._fingerprint = config.fingerprint()
        self._max_entries = max_entries
        # Fail fast on an unusable cache location, before any compute.
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"unusable cache directory: {exc}") from exc
        # store() cleans up after exceptions, but not after SIGKILL.
        sweep_dead_tmp(self._dir)
        self._sweep()

    def path(self, circuit: str) -> Path:
        return self._dir / (
            f"{circuit}-{self._fingerprint}-v{CACHE_VERSION}.json"
        )

    def load(self, circuit: str) -> CircuitResult | None:
        """The cached result, or ``None`` on any kind of miss."""
        path = self.path(circuit)
        m = _metrics.active()
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            if m.enabled:
                m.counter("cache.result.miss")
            return None
        try:
            result = CircuitResult.from_dict(json.loads(text))
        except (ValueError, TypeError, KeyError, ConfigError):
            if m.enabled:
                m.counter("cache.result.miss")
                m.counter("cache.result.corrupt")
            return None  # corrupt or stale entry: recompute
        if m.enabled:
            m.counter("cache.result.hit")
        # A hit counts as use: refresh mtime so the LRU sweep keeps the
        # entries campaigns actually read.
        try:
            os.utime(path)
        except OSError:
            pass
        return result

    def store(self, result: CircuitResult) -> None:
        write_atomic(
            self.path(result.circuit),
            json.dumps(result.to_dict(), sort_keys=True),
        )
        m = _metrics.active()
        if m.enabled:
            m.counter("cache.result.store")
        self._sweep()

    def _sweep(self) -> None:
        """Unlink least-recently-used entries beyond ``max_entries``.

        Only files shaped like current-version cache entries
        (``<circuit>-<fingerprint>-v<CACHE_VERSION>.json``) are
        candidates — the grid job store lives in ``grid-*``
        subdirectories, and foreign files a user keeps in the cache
        directory (archives, notes) are never touched.  Races (another
        process removing a file mid-sweep) are benign.
        """
        if self._max_entries is None:
            return
        entries = []
        for path in self._dir.glob(f"*-*-v{CACHE_VERSION}.json"):
            try:
                entries.append((path.stat().st_mtime, path.name, path))
            except OSError:
                continue  # vanished mid-scan
        entries.sort(reverse=True)  # newest first; name breaks mtime ties
        m = _metrics.active()
        for _, _, path in entries[self._max_entries:]:
            try:
                path.unlink()
            except OSError:
                continue
            if m.enabled:
                m.counter("cache.result.evict")
