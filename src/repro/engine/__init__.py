"""Pluggable netlist-simulation engines (see :mod:`repro.engine.base`).

Two backends ship with the library:

* ``interp`` — the reference implementation: per-gate
  :func:`repro.netlist.cells.eval_gate` enum dispatch.
* ``compiled`` — per-netlist Python code generation; the default.

Both are bit-identical by contract; select one by name through
``CampaignConfig(engine=...)``, the ``--engine`` CLI flag, or the
``engine=`` keyword every simulator accepts.  ``repro engines`` lists
the registry.
"""

from repro.engine.base import (
    DEFAULT_ENGINE,
    ENGINES,
    EngineBase,
    InjectionPlan,
    build_engine,
    engine_names,
    get_engine,
    register_engine,
)
from repro.engine.compiled import CompiledEngine
from repro.engine.interp import InterpEngine

__all__ = [
    "DEFAULT_ENGINE",
    "ENGINES",
    "CompiledEngine",
    "EngineBase",
    "InjectionPlan",
    "InterpEngine",
    "build_engine",
    "engine_names",
    "get_engine",
    "register_engine",
]
