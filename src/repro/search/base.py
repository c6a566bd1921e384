"""Search strategy protocol, budget, and named registry.

A *search strategy* proposes candidate stimulus vectors for the
mutation-adequate generator and learns from the evaluation feedback
(how many live mutants each candidate killed).  The blind pseudo-random
draw of the paper's section 2 is the ``random`` strategy — the pinned
baseline — while the coverage-guided strategies (``bitflip``,
``genetic``, ``anneal``) evolve new candidates from corpus vectors that
already killed mutants.

The contract mirrors the other registries (:mod:`repro.sampling.registry`,
:mod:`repro.engine`): a strategy class needs

* a non-empty class attribute ``name`` (the registry key),
* ``propose(count) -> list[int]`` returning ``count`` packed stimulus
  integers in ``[0, 2**width)``,
* ``feedback(vectors, scores)`` accepting the per-vector kill counts of
  the last proposals (may be a no-op),

and must be **deterministic**: every random draw comes from labelled
streams derived via :func:`repro.util.rng.spawn` from the constructor's
``(seed, labels)``, so repeated runs — serial or process-parallel — are
bit-identical.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass

from repro.errors import SearchError
from repro.search.corpus import Corpus
from repro.util.registry import Registry
from repro.util.rng import LabelledRandom, rng_stream, spawn


@dataclass(frozen=True)
class SearchBudget:
    """Caps on one search run.

    ``max_candidates`` bounds the total number of proposed vectors;
    ``max_stale_rounds`` bounds consecutive rounds without progress
    (tightening the generator's own ``stall_rounds`` when smaller).
    ``None`` leaves the corresponding dimension uncapped.
    """

    max_candidates: int | None = None
    max_stale_rounds: int | None = None

    def __post_init__(self) -> None:
        if self.max_candidates is not None and self.max_candidates < 1:
            raise SearchError(
                f"max_candidates must be >= 1, got {self.max_candidates}"
            )
        if self.max_stale_rounds is not None and self.max_stale_rounds < 1:
            raise SearchError(
                f"max_stale_rounds must be >= 1, got {self.max_stale_rounds}"
            )

    def exhausted(self, candidates_tried: int, stale_rounds: int) -> bool:
        if (
            self.max_candidates is not None
            and candidates_tried >= self.max_candidates
        ):
            return True
        return (
            self.max_stale_rounds is not None
            and stale_rounds >= self.max_stale_rounds
        )

    def clamp(self, count: int, candidates_tried: int) -> int:
        """``count`` trimmed so the candidate cap is never overshot."""
        if self.max_candidates is None:
            return count
        return min(count, self.max_candidates - candidates_tried)


class SearchStrategy:
    """Base class: labelled root stream, shared corpus, the protocol.

    ``labels`` is the stream identity (the generator passes
    ``(design_name, "mutation-testgen")``); subclasses derive all
    randomness from ``self._rng`` or per-round/per-individual children
    via :func:`repro.util.rng.spawn`, never from global state.
    """

    name: str = ""

    def __init__(
        self,
        width: int,
        seed: int,
        labels: tuple[str, ...] = (),
        field_widths: tuple[int, ...] | None = None,
        corpus: Corpus | None = None,
        cycles: int = 1,
    ):
        """``width`` is the per-cycle stimulus width; ``cycles`` > 1
        makes each proposal a packed multi-cycle chunk (cycle 0 in the
        most significant bits), so sequential searches mutate whole
        input *sequences* instead of single cycles."""
        if width < 1:
            raise SearchError(f"vector width must be >= 1, got {width}")
        if cycles < 1:
            raise SearchError(f"cycles must be >= 1, got {cycles}")
        per_cycle = tuple(field_widths or (width,))
        if sum(per_cycle) != width:
            raise SearchError(
                f"field widths {per_cycle} do not sum to the "
                f"vector width {width}"
            )
        self._cycle_width = width
        self._cycles = cycles
        self._width = width * cycles
        self._mask = (1 << self._width) - 1
        self._field_widths = per_cycle * cycles
        self._rng: LabelledRandom = rng_stream(seed, *labels)
        self.corpus = corpus if corpus is not None else Corpus()
        self._round = 0

    @property
    def width(self) -> int:
        """Total proposal width (per-cycle width × cycles)."""
        return self._width

    @property
    def cycles(self) -> int:
        return self._cycles

    def propose(self, count: int) -> list[int]:
        """The next ``count`` candidate vectors."""
        raise NotImplementedError

    def feedback(self, vectors: list[int], scores: list[int]) -> None:
        """Record evaluation results: ``scores[i]`` live kills of
        ``vectors[i]``.  Default: feed the shared corpus."""
        for vector, score in zip(vectors, scores):
            self.corpus.add(vector, score)

    # -- helpers for subclasses ---------------------------------------------

    def _uniform(self, rng) -> int:
        return rng.getrandbits(self._width)

    def _individual_rng(self, index: int) -> LabelledRandom:
        """A fresh labelled stream for one individual of this round."""
        return spawn(self._rng, "round", str(self._round), "ind", str(index))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} width={self._width}>"


# -- registry ----------------------------------------------------------------

#: name -> strategy class.
SEARCH_STRATEGIES: dict[str, type[SearchStrategy]] = {}

#: The pinned baseline (the paper's blind pseudo-random draw).
DEFAULT_SEARCH = "random"


_REGISTRY = Registry("search strategy", SearchError,
                     entries=SEARCH_STRATEGIES)


def register_search_strategy(cls: type[SearchStrategy] | None = None, *,
                             replace: bool = False):
    """Class decorator adding ``cls`` to the registry under ``cls.name``."""
    return _REGISTRY.register(cls, replace=replace)


def get_search_strategy(name: str) -> type[SearchStrategy]:
    """Look up a registered search strategy class by name."""
    return _REGISTRY.get(name)


def search_strategy_names() -> tuple[str, ...]:
    return _REGISTRY.names()


def build_search_strategy(
    name: str,
    width: int,
    seed: int,
    labels: tuple[str, ...] = (),
    field_widths: tuple[int, ...] | None = None,
    cycles: int = 1,
    knobs: dict | None = None,
) -> SearchStrategy:
    """Instantiate a registered strategy with per-strategy ``knobs``.

    Knob names are validated against the constructor signature so a
    typo in a config file fails loudly instead of being ignored.
    """
    cls = get_search_strategy(name)
    parameters = inspect.signature(cls.__init__).parameters
    extra = dict(knobs or {})
    # Builder-owned parameters are not knobs: naming one must fail the
    # same loud way an unknown name does, not TypeError mid-campaign.
    reserved = {
        "self", "width", "seed", "labels", "field_widths", "corpus",
        "cycles",
    }
    bad = sorted((set(extra) - set(parameters)) | (set(extra) & reserved))
    if bad:
        accepted = sorted(p for p in parameters if p not in reserved)
        raise SearchError(
            f"unknown knobs for search strategy {name!r}: "
            f"{', '.join(bad)} (accepted: {', '.join(accepted) or 'none'})"
        )
    return cls(
        width, seed, labels=tuple(labels), field_widths=field_widths,
        cycles=cycles, **extra,
    )
