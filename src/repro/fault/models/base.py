"""The ``FaultModel`` protocol and the named fault-model registry.

A *fault model* decides what can break in a netlist: it enumerates the
fault universe, collapses structurally equivalent faults, and simulates
a fault list over packed stimuli by lowering each fault to the word
operations (``fault_diff`` cone diffs, ``eval_full`` sweeps, clock-cycle
kernels with or without a static ``InjectionPlan``) the
:mod:`repro.engine` backends already execute.  Models are pluggable by
name — mirroring :func:`repro.engine.register_engine` — so the
campaign pipeline, the
grid workers and the CLI select one from configuration without
importing concrete classes.

A model implements four operations:

* ``generate(netlist)`` — the uncollapsed fault universe, in a
  deterministic order.
* ``collapse(netlist, faults=None)`` — representatives of structural
  equivalence classes (identity for models without collapsing rules).
* ``describe(fault, netlist)`` — a one-line human description of a
  fault.
* ``simulate(netlist, stimuli, faults=None, engine=None)``
  — first-detection records as a
  :class:`~repro.fault.coverage.FaultSimResult`.

Determinism contract: the fault universe and collapsed list must be
pure functions of the netlist and the model's knobs — never of the
stimuli — so grid planners can shard a fault list before any vectors
exist; and ``simulate`` must return bit-identical detection records on
every registered engine and any fault-list sharding.
"""

from __future__ import annotations

from repro.errors import FaultError
from repro.util.registry import Registry

#: The model used when none is selected explicitly.
DEFAULT_FAULT_MODEL = "stuck-at"


class FaultModel:
    """Base class for registered fault models.

    Subclasses set a non-empty ``name``, implement the four protocol
    methods, and validate their knobs (constructor keyword arguments)
    in ``__init__`` by raising :class:`FaultError`.
    """

    name: str = ""

    def generate(self, netlist) -> list:
        """The uncollapsed fault universe of ``netlist``."""
        raise NotImplementedError

    def collapse(self, netlist, faults: list | None = None) -> list:
        """Collapse ``faults`` (default: the universe) to representatives."""
        raise NotImplementedError

    def describe(self, fault, netlist) -> str:
        """One-line human description of ``fault``."""
        return str(fault)

    def simulate(self, netlist, stimuli: list[int],
                 faults: list | None = None, engine=None):
        """First-detection records for ``faults`` over packed stimuli."""
        raise NotImplementedError


# -- registry ----------------------------------------------------------------

#: name -> fault-model class.
FAULT_MODELS: dict[str, type] = {}


_REGISTRY = Registry("fault model", FaultError, entries=FAULT_MODELS)


def register_fault_model(cls: type | None = None, *,
                         replace: bool = False):
    """Class decorator adding ``cls`` to the registry under ``cls.name``.

    Mirrors :func:`repro.engine.register_engine`: registering a
    *different* class under a taken name raises :class:`FaultError`
    (a silent overwrite would let a plug-in hijack a built-in model by
    accident); ``replace=True`` overwrites explicitly; re-registering
    the same class is a no-op so module re-imports stay idempotent.
    """
    return _REGISTRY.register(cls, replace=replace)


def get_fault_model(name: str) -> type:
    """Look up a registered fault-model class by name."""
    return _REGISTRY.get(name)


def fault_model_names() -> tuple[str, ...]:
    return _REGISTRY.names()


def build_fault_model(model=None, knobs: dict | None = None):
    """Resolve a fault-model selection into a model instance.

    ``None`` means :data:`DEFAULT_FAULT_MODEL`.  A string resolves the
    registered class and instantiates it with ``knobs`` as keyword
    arguments (the model validates them).  Anything else is assumed to
    already be a model instance and passed through — in which case
    ``knobs`` must be ``None``: an instance carries its own.
    """
    if model is None:
        model = DEFAULT_FAULT_MODEL
    if isinstance(model, str):
        cls = get_fault_model(model)
        try:
            return cls(**dict(knobs or {}))
        except TypeError as exc:
            raise FaultError(
                f"invalid knobs for fault model {model!r}: {exc}"
            ) from None
    if knobs:
        raise FaultError(
            "fault-model knobs only apply when selecting a model by "
            "name; the given instance already carries its own"
        )
    return model
