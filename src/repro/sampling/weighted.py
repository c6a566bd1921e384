"""Test-oriented (operator-weighted) mutant sampling — the paper's §4.

The sampling rate of each operator stratum is proportional to the
operator's stuck-at-efficiency weight; quotas are water-filled so the
total sample size equals the classical strategy's exactly, then filled
uniformly inside each stratum.

Weights come from either:

* :func:`weights_from_nlfce` — a Table-1-style calibration (per-operator
  NLFCE measurements on the circuit under test), or
* :data:`PAPER_RANK_WEIGHTS` — the ordering the paper reports
  (LOR < VR < CVR < CR) as rank weights, with unlisted operators at the
  middle rank.
"""

from __future__ import annotations

from repro.errors import SamplingError
from repro.mutation.generator import mutants_by_operator
from repro.mutation.mutant import Mutant
from repro.sampling.allocation import waterfill_rates
from repro.sampling.registry import register_strategy
from repro.util.rng import rng_stream

#: Rank weights encoding the paper's reported operator ordering.
PAPER_RANK_WEIGHTS: dict[str, float] = {
    "LOR": 1.0,
    "VR": 2.0,
    "CVR": 3.0,
    "CR": 4.0,
    # Operators the paper does not rank: middle weight.
    "AOR": 2.0,
    "ROR": 2.0,
    "UOI": 2.0,
    "VCR": 2.0,
    "SDL": 2.0,
    "CCR": 2.0,
}

#: Floor applied to calibrated weights so no operator is starved.
_WEIGHT_FLOOR = 0.05


def weights_from_nlfce(nlfce_by_operator: dict[str, float]) -> dict[str, float]:
    """Normalize per-operator NLFCE measurements into sampling weights.

    Negative or missing efficiencies are floored: the paper still keeps
    a non-zero share of every operator (it selects "different
    percentages of mutants" per operator, not zero for the weak ones).
    """
    if not nlfce_by_operator:
        raise SamplingError("no operator efficiencies given")
    best = max(nlfce_by_operator.values())
    scale = best if best > 0 else 1.0
    return {
        op: max(value / scale, _WEIGHT_FLOOR)
        for op, value in nlfce_by_operator.items()
    }


@register_strategy
class TestOrientedSampling:
    """The paper's sampling strategy."""

    __test__ = False  # not a pytest test class, despite the name
    name = "test-oriented"

    def __init__(
        self,
        weights: dict[str, float] | None = None,
        fraction: float = 0.10,
    ):
        if not 0.0 < fraction <= 1.0:
            raise SamplingError(f"fraction must be in (0, 1], got {fraction}")
        self.fraction = fraction
        self.weights = dict(weights or PAPER_RANK_WEIGHTS)

    def sample_size(self, population: int) -> int:
        return max(1, round(self.fraction * population)) if population else 0

    def quotas(self, mutants: list[Mutant]) -> dict[str, int]:
        groups = mutants_by_operator(mutants)
        sizes = {op: len(group) for op, group in groups.items()}
        weights = {
            op: self.weights.get(op, _WEIGHT_FLOOR) for op in sizes
        }
        return waterfill_rates(weights, sizes, self.sample_size(len(mutants)))

    def sample(
        self, mutants: list[Mutant], seed: int, *labels: str
    ) -> list[Mutant]:
        groups = mutants_by_operator(mutants)
        quotas = self.quotas(mutants)
        chosen: list[Mutant] = []
        for op in sorted(groups):
            quota = quotas.get(op, 0)
            if quota <= 0:
                continue
            rng = rng_stream(seed, self.name, op, *labels)
            chosen.extend(rng.sample(groups[op], quota))
        return sorted(chosen, key=lambda m: m.mid)
