"""The ``Engine`` protocol and the named backend registry.

A netlist-simulation *engine* is the unit every fault-simulation and
logic-simulation front end (:class:`repro.netlist.CombSimulator`,
:class:`repro.fault.CombFaultSimulator`, ...) delegates its hot loops
to.  Engines are pluggable by name — mirroring
:mod:`repro.sampling.registry` — so the campaign pipeline and the CLI
can select a backend from configuration without importing concrete
classes.

An engine implements three operations, all over bit-lane words (lane
*i* of every net word belongs to pattern / fault-machine *i*):

* ``eval_full(netlist, words, mask)`` — evaluate every gate of the good
  machine over input (and DFF state) words; returns the complete
  net-id -> word map, pass-through entries included.
* ``fault_diff(netlist, fault, good, mask)`` — evaluate one faulty
  machine over the fault's output cone against the good words; returns
  the primary-output difference word (bit *i* set iff pattern *i*
  detects the fault).
* ``eval_injected(netlist, plan, words, mask)`` — full evaluation with
  an :class:`InjectionPlan`'s stem/branch overrides applied
  (fault-parallel sequential simulation; one faulty machine per lane).

Determinism contract: for identical inputs every registered engine must
produce **bit-identical** words to the ``interp`` reference backend —
the result cache and the paper's tables may never depend on which
backend computed them.  A differential property test pins each backend
to the reference.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from repro.errors import EngineError, FaultSimError
from repro.obs import metrics as _metrics
from repro.util.registry import Registry

# NOTE: this module must not import repro.netlist at module level — the
# simulators in repro.netlist.simulate import the engine registry, and
# the package __init__ chain would become circular.  Engine *backends*
# (interp, compiled) may: by the time the package __init__ imports
# them, the registry symbols they need are already bound.

#: The backend used when none is selected explicitly.
DEFAULT_ENGINE = "compiled"


@dataclass
class InjectionPlan:
    """Pre-compiled stuck-at injection masks for one chunk of faults.

    Each mask pair ``(clear, set)`` rewrites a word as
    ``(word & ~clear) | set`` — lanes in ``clear`` are forced to their
    lane's stuck value.
    """

    faults: list
    #: net id -> (clear_mask, set_mask) applied after the net is computed
    stem: dict[int, tuple[int, int]] = field(default_factory=dict)
    #: (gate gid, pin) -> (clear_mask, set_mask) on that input view
    branch: dict[tuple[int, int], tuple[int, int]] = field(
        default_factory=dict
    )
    #: dff fid -> (clear_mask, set_mask) on its D input view
    dff_branch: dict[int, tuple[int, int]] = field(default_factory=dict)

    def injection_key(self) -> tuple:
        """Hashable identity of the word-rewriting overrides.

        ``dff_branch`` is excluded: it acts at the clock edge, outside
        combinational evaluation, so engines may share work across plans
        that differ only there.
        """
        return (
            tuple(sorted(self.stem.items())),
            tuple(sorted(self.branch.items())),
        )


class EngineBase:
    """Shared per-netlist program cache and fault dispatch.

    Subclasses provide ``_build(netlist)`` returning a program object
    (whatever per-netlist precomputation the backend needs; it must
    expose ``netlist`` and ``output_set`` attributes) and either
    ``_cone_diff(program, origin, word, good, mask)``, the hook of the
    default :meth:`fault_diff`, evaluating the faulty machine
    downstream of ``origin`` seeded with ``word``, or their own
    ``fault_diff``/``fault_diff_batch``.
    """

    name: str = ""

    def __init__(self) -> None:
        # Keyed by id(); programs hold their netlist only weakly and a
        # finalizer evicts the entry when the netlist dies, so a shared
        # engine instance never pins netlists (or their compiled
        # programs) beyond their own lifetime.
        self._programs: dict[int, object] = {}

    def _program(self, netlist: Netlist):
        key = id(netlist)
        program = self._programs.get(key)
        if program is None or program.netlist is not netlist:
            # Builds are the rare event worth counting on this hot
            # lookup path (per-call counters live in the fault sims).
            m = _metrics.active()
            if m.enabled:
                with m.time(f"engine.{self.name}.program_build.seconds"):
                    program = self._build(netlist)
                m.counter(f"engine.{self.name}.program_builds")
            else:
                program = self._build(netlist)
            self._programs[key] = program
            weakref.finalize(netlist, self._programs.pop, key, None)
        return program

    def _build(self, netlist: Netlist):
        raise NotImplementedError

    def _cone_diff(self, program, origin: int, word: int,
                   good: dict[int, int], mask: int) -> int:
        raise NotImplementedError

    def eval_full(
        self, netlist: Netlist, words: dict[int, int], mask: int
    ) -> dict[int, int]:
        raise NotImplementedError

    def eval_injected(
        self, netlist: Netlist, plan: InjectionPlan,
        words: dict[int, int], mask: int,
    ) -> dict[int, int]:
        raise NotImplementedError

    def fault_diff(
        self, netlist: Netlist, fault, good: dict[int, int], mask: int
    ) -> int:
        """Forward-propagate one fault; returns the PO difference word."""
        from repro.netlist.cells import eval_gate

        program = self._program(netlist)
        stuck_word = mask if fault.stuck else 0
        if fault.is_stem:
            if good.get(fault.net) == stuck_word:
                return 0  # fault never activated anywhere
            origin, word = fault.net, stuck_word
        else:
            # Branch fault: only one gate sees the stuck value.
            gates = netlist.gates
            if fault.gate is None or not 0 <= fault.gate < len(gates):
                raise FaultSimError(
                    f"fault references unknown gate {fault.gate}"
                )
            target = gates[fault.gate]
            inputs = []
            for pin, nid in enumerate(target.inputs):
                view = good[nid]
                if pin == fault.pin:
                    view = stuck_word
                inputs.append(view)
            word = eval_gate(target.gate_type, inputs, mask)
            if word == good[target.output]:
                return 0
            origin = target.output
        detect = self._cone_diff(program, origin, word, good, mask)
        # A stem fault directly on an output net detects wherever the
        # good value differs from the stuck value.
        if fault.is_stem and fault.net in program.output_set:
            detect |= good[fault.net] ^ stuck_word
        return detect & mask

    def fault_diff_batch(
        self, netlist: Netlist, faults: list, good: dict[int, int],
        mask: int,
    ) -> list[int]:
        """PO difference words for ``faults``, one per fault.

        The default simply loops :meth:`fault_diff`; a backend that
        propagates many faults per pass overrides it (``compiled``
        flips every reached fanout-free-region stem in packed passes).
        The per-fault words must be identical to the looped reference
        either way.
        """
        return [
            self.fault_diff(netlist, fault, good, mask) for fault in faults
        ]


# -- registry ----------------------------------------------------------------

#: name -> engine class.
ENGINES: dict[str, type] = {}


#: Shared instance per registered name (see :func:`build_engine`).
_SHARED: dict[str, object] = {}


_REGISTRY = Registry(
    "simulation engine", EngineError, entries=ENGINES,
    # A replaced backend's shared instance (and its program caches)
    # must not outlive its registration.
    on_replace=lambda name: _SHARED.pop(name, None),
)


def register_engine(cls: type | None = None, *, replace: bool = False):
    """Class decorator adding ``cls`` to the registry under ``cls.name``.

    Registering a *different* class under an already-taken name raises
    :class:`EngineError` — a silent overwrite would let a plug-in
    hijack a built-in backend by accident.  Pass ``replace=True``
    (``register_engine(cls, replace=True)``) to overwrite explicitly;
    re-registering the same class is always a no-op, so module
    re-imports stay idempotent (and the shared instance survives).
    """
    return _REGISTRY.register(cls, replace=replace)


def get_engine(name: str) -> type:
    """Look up a registered engine class by name."""
    return _REGISTRY.get(name)


def engine_names() -> tuple[str, ...]:
    return _REGISTRY.names()


def build_engine(engine=None):
    """Resolve an engine selection into an engine instance.

    ``None`` means :data:`DEFAULT_ENGINE`.  A string resolves to one
    *shared* instance per name, so every simulator in the process reuses
    the same per-netlist program cache — the compiled backend compiles a
    netlist once no matter how many simulators run it.  (Cache entries
    reference their netlist weakly and are evicted when it is
    collected, so the shared instance never extends netlist lifetimes.)
    Anything else is assumed to already be an engine instance and
    passed through, giving callers a private cache when they want one.
    """
    if engine is None:
        engine = DEFAULT_ENGINE
    if isinstance(engine, str):
        instance = _SHARED.get(engine)
        if instance is None:
            instance = get_engine(engine)()
            _SHARED[engine] = instance
        return instance
    return engine
