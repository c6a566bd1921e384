"""Work units: the deterministic shards a grid campaign executes.

A :class:`WorkUnit` is one self-contained slice of a campaign
operation — a fault chunk of a stuck-at validation, a mutant partition
of a whole-population kill analysis, a mutant partition of the
budgeted equivalence sweep, or a whole circuit (the ``jobs`` axis).  Units are *order-independent*: each one is
a pure function of ``(circuit, config, spec)``, and the per-operation
merge is a pure union (mutant kinds) or an index-ordered concatenation
(fault chunks), so any execution order on any scheduler reproduces the
serial result bit for bit.

A unit's identity (:attr:`WorkUnit.uid`) hashes the spec alongside the
coordinates, so the :class:`repro.grid.store.JobStore` can never hand a
stale result to a unit whose inputs (vectors, mutant ids, fault range)
changed.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import GridError

#: Unit kinds (the shard axis).
FAULT_CHUNK = "fault-chunk"     #: a contiguous slice of the collapsed fault list
MUTANT_PART = "mutant-part"     #: a subset of mutant ids for a kill sweep
EQUIV_PART = "equiv-part"       #: a subset of mutant ids for the equivalence sweep
CIRCUIT = "circuit"             #: one whole circuit's stage pipeline

UNIT_KINDS = (FAULT_CHUNK, MUTANT_PART, EQUIV_PART, CIRCUIT)

_SLUG = re.compile(r"[^A-Za-z0-9_.-]+")


@dataclass(frozen=True)
class WorkUnit:
    """One deterministic shard of a campaign operation.

    ``stage`` names the operation ("fault-validation", "kill-analysis",
    "equivalence"), ``key`` the target within the circuit (a target
    label such as ``operator:LOR``, or ``baseline``), and ``spec`` the
    shard inputs (fault index range / mutant ids, plus the stimulus
    vectors where the operation needs them).
    """

    circuit: str
    stage: str
    key: str
    kind: str
    index: int
    total: int
    spec: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in UNIT_KINDS:
            raise GridError(
                f"unknown work-unit kind {self.kind!r} "
                f"(known: {', '.join(UNIT_KINDS)})"
            )
        if not 0 <= self.index < self.total:
            raise GridError(
                f"unit index {self.index} outside 0..{self.total - 1}"
            )

    @cached_property
    def digest(self) -> str:
        """Stable hash over coordinates and spec (the unit's identity).

        Cached: the spec embeds the full stimulus list, and the id is
        read on every store/load/bookkeeping touch of the dispatch
        path.  (``cached_property`` writes straight into ``__dict__``,
        which frozen dataclasses permit; equality stays field-based.)
        """
        payload = json.dumps(
            {
                "circuit": self.circuit,
                "stage": self.stage,
                "key": self.key,
                "kind": self.kind,
                "index": self.index,
                "total": self.total,
                "spec": self.spec,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    @cached_property
    def uid(self) -> str:
        """Human-greppable unique id (job-store file stem)."""
        slug = _SLUG.sub("-", f"{self.circuit}-{self.stage}-{self.key}")
        return f"{slug}-{self.index:03d}of{self.total:03d}-{self.digest}"

    def describe(self) -> str:
        return (
            f"{self.circuit} {self.stage} {self.key} "
            f"[{self.index + 1}/{self.total}]"
        )

    def to_dict(self) -> dict:
        return {
            "circuit": self.circuit,
            "stage": self.stage,
            "key": self.key,
            "kind": self.kind,
            "index": self.index,
            "total": self.total,
            "spec": self.spec,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WorkUnit":
        try:
            return cls(
                circuit=data["circuit"],
                stage=data["stage"],
                key=data["key"],
                kind=data["kind"],
                index=int(data["index"]),
                total=int(data["total"]),
                spec=dict(data.get("spec", {})),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GridError(f"malformed work-unit payload: {exc}") from exc


# -- merges ------------------------------------------------------------------
#
# Each merge is the pure union/concatenation that makes sharding
# bit-identical to serial execution: per-fault detections and per-mutant
# verdicts never depend on which shard computed them.

def merge_detections(results: list[dict]) -> list:
    """Concatenate per-chunk ``detection`` lists in unit-index order."""
    detection: list = []
    for result in results:
        detection.extend(result["detection"])
    return detection


def merge_killed(results: list[dict]) -> set[int]:
    """Union the per-partition killed mutant ids."""
    killed: set[int] = set()
    for result in results:
        killed.update(result["killed"])
    return killed


def merge_witnesses(
    results: list[dict],
) -> dict[int, tuple[int | None, str]]:
    """Union the per-partition kill witnesses.

    JSON object keys arrive as strings and the stored ``[cycle,
    reason]`` pairs as lists; the merge restores the in-memory shape
    (``mid -> (cycle, reason)``).  Payloads predating the witness
    field (store version 1) merge to an empty dict.
    """
    witnesses: dict[int, tuple[int | None, str]] = {}
    for result in results:
        for mid, record in result.get("witnesses", {}).items():
            witnesses[int(mid)] = (record[0], record[1])
    return witnesses


def merge_equivalence(results: list[dict]) -> tuple[set[int], dict]:
    """Union per-partition survivors and kill-cycle records."""
    survivors: set[int] = set()
    kill_cycle: dict[int, int | None] = {}
    for result in results:
        survivors.update(result["survivors"])
        for mid, cycle in result["kill_cycle"].items():
            kill_cycle[int(mid)] = cycle
    return survivors, kill_cycle
