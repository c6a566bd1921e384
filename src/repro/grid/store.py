"""Persistent per-unit job store: the campaign's resume ledger.

One JSON file per finished :class:`~repro.grid.units.WorkUnit`, under a
``grid-<config fingerprint>-v<version>`` directory inside the campaign
cache directory — the same fingerprint scheme
:class:`repro.campaign.cache.ResultCache` uses for whole circuits, one
level finer.  The file name embeds the unit's spec digest, so a stored
result can never be replayed against a unit whose inputs changed, and a
fingerprint change (different seeds, budgets, engine, shard size)
misses cleanly into a sibling directory.

Writes are write-then-rename (crash-safe, like the result cache) and
happen as each unit completes, so a campaign killed mid-flight — even
mid-wave — resumes from every unit that finished.  Anything unreadable
is treated as a miss, never an error: a corrupt or truncated unit file
(a machine that died mid-write before the rename, a torn copy) is
skipped with one stderr warning and simply recomputed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.errors import ConfigError
from repro.grid.units import WorkUnit
from repro.obs import metrics as _metrics
from repro.util.files import sweep_dead_tmp, write_atomic

#: Bump when the stored payload's shape or semantics change.
#: v2: mutant-part results carry per-kill ``witnesses`` records.
STORE_VERSION = 2


class JobStore:
    """Load/store per-unit results under a campaign cache directory."""

    def __init__(self, directory, config):
        self._dir = (
            Path(directory)
            / f"grid-{config.fingerprint()}-v{STORE_VERSION}"
        )
        try:
            self._dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"unusable job-store directory: {exc}") from exc
        # store() cleans up after exceptions, but not after SIGKILL.
        sweep_dead_tmp(self._dir)
        self._warned: set[str] = set()

    @property
    def directory(self) -> Path:
        return self._dir

    def path(self, unit: WorkUnit) -> Path:
        return self._dir / f"{unit.uid}.json"

    def load(self, unit: WorkUnit) -> dict | None:
        """The stored result for ``unit``, or ``None`` on any miss.

        A file that exists but does not parse (truncated mid-write on
        a crashed machine, torn copy) is a miss too — reported once on
        stderr per file, then silently recomputed; a resume must never
        crash on a damaged ledger.
        """
        path = self.path(unit)
        m = _metrics.active()
        try:
            text = path.read_text(encoding="utf-8")
        except OSError:
            if m.enabled:
                m.counter("store.unit.miss")
            return None
        try:
            payload = json.loads(text)
            result = payload["result"]
        except (ValueError, TypeError, KeyError) as exc:
            self._warn_corrupt(path, exc)
            if m.enabled:
                m.counter("store.unit.miss")
                m.counter("store.unit.corrupt")
            return None  # corrupt entry: recompute
        if not isinstance(result, dict):
            self._warn_corrupt(path, "result is not an object")
            if m.enabled:
                m.counter("store.unit.miss")
                m.counter("store.unit.corrupt")
            return None
        if m.enabled:
            m.counter("store.unit.hit")
        return result

    def _warn_corrupt(self, path: Path, reason) -> None:
        """One stderr warning per corrupt unit file, then recompute."""
        if path.name in self._warned:
            return
        self._warned.add(path.name)
        print(
            f"job store: skipping corrupt unit file {path} ({reason}); "
            f"the unit will be recomputed",
            file=sys.stderr,
            flush=True,
        )

    def store(self, unit: WorkUnit, result: dict, seconds: float) -> None:
        """Persist one finished unit (atomic write-then-rename)."""
        descriptor = unit.to_dict()
        # The spec (vectors, mutant ids) is covered by the digest in the
        # file name; storing it again would bloat the ledger without
        # adding identity.
        descriptor.pop("spec", None)
        payload = json.dumps(
            {
                "unit": descriptor,
                "digest": unit.digest,
                "seconds": seconds,
                "result": result,
            },
            sort_keys=True,
        )
        write_atomic(self.path(unit), payload)
        m = _metrics.active()
        if m.enabled:
            m.counter("store.unit.store")

    def entries(self) -> list[dict]:
        """Descriptors of every stored unit (for ``repro grid`` listing)."""
        return self.read_directory(self._dir)

    @staticmethod
    def read_directory(directory) -> list[dict]:
        """Stored-unit descriptors in any store directory.

        The single parser behind :meth:`entries` and the CLI's
        ``repro grid --store`` listing (which also scans directories
        without knowing the fingerprint); unreadable files are
        skipped, never an error.
        """
        rows: list[dict] = []
        for path in sorted(Path(directory).glob("*.json")):
            try:
                payload = json.loads(path.read_text(encoding="utf-8"))
                unit = payload["unit"]
            except (OSError, ValueError, TypeError, KeyError):
                continue
            if isinstance(unit, dict):
                unit = dict(unit)
                unit["seconds"] = payload.get("seconds")
                rows.append(unit)
        return rows
