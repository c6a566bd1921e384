"""Fault-simulation results and coverage curves."""

from __future__ import annotations

from dataclasses import dataclass

from repro.fault.model import StuckAtFault


@dataclass
class FaultSimResult:
    """First-detection record per collapsed fault.

    ``detection[i]`` is the 0-based index of the first pattern (or
    cycle, for sequential circuits) at which fault *i* was observed at a
    primary output, or ``None`` if the test set never detects it.
    """

    faults: list[StuckAtFault]
    detection: list[int | None]
    num_patterns: int

    def __post_init__(self) -> None:
        if len(self.faults) != len(self.detection):
            raise ValueError("faults/detection length mismatch")

    @property
    def num_faults(self) -> int:
        return len(self.faults)

    @property
    def detected(self) -> int:
        return sum(1 for d in self.detection if d is not None)

    def coverage(self, length: int | None = None) -> float:
        """Fault coverage after the first ``length`` patterns (default all)."""
        if self.num_faults == 0:
            return 1.0
        if length is None:
            length = self.num_patterns
        hit = sum(
            1 for d in self.detection if d is not None and d < length
        )
        return hit / self.num_faults

    def coverage_curve(self) -> list[float]:
        """Cumulative coverage; entry *l* is the coverage of length l+1."""
        counts = [0] * (self.num_patterns + 1)
        for d in self.detection:
            if d is not None:
                counts[d + 1] += 1
        curve: list[float] = []
        running = 0
        for length in range(1, self.num_patterns + 1):
            running += counts[length]
            curve.append(
                running / self.num_faults if self.num_faults else 1.0
            )
        return curve

    def length_to_reach(self, target: float) -> int | None:
        """Shortest prefix length whose coverage >= ``target``, if any."""
        if self.num_faults == 0:
            return 0
        needed = target * self.num_faults - 1e-12
        counts = [0] * (self.num_patterns + 1)
        for d in self.detection:
            if d is not None:
                counts[d + 1] += 1
        running = 0
        for length in range(1, self.num_patterns + 1):
            running += counts[length]
            if running >= needed:
                return length
        return None

    def undetected_faults(self) -> list[StuckAtFault]:
        return [
            fault
            for fault, d in zip(self.faults, self.detection)
            if d is None
        ]


def first_lane(word: int) -> int | None:
    """Index of the lowest set bit, or ``None`` for an all-zero word.

    Shared detection-word helper: lane *i* is pattern (or fault
    machine) *i* everywhere in the fault layer.
    """
    if word == 0:
        return None
    return (word & -word).bit_length() - 1
