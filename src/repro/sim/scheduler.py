"""Delta-cycle, event-driven simulation of an elaborated design.

The simulator follows VHDL's two-phase model: triggered processes read
the *current* signal values and schedule updates; updates are committed
together; signals whose value changed form the event set that wakes the
next round of processes.  Delta rounds repeat until quiescence (or
:class:`repro.errors.OscillationError` after ``max_delta`` rounds, which
can legitimately happen for mutants that create combinational cycles).
The round that finds no event counts, so even a quiet design needs
``max_delta >= 3`` to settle a clock edge: the edge, the commit's
events, the empty round.
"""

from __future__ import annotations

from repro.errors import OscillationError, SimulationError
from repro.hdl.design import Design, Process
from repro.sim.interp import Evaluator


class Simulator:
    """Executes a design, one process activation at a time.

    ``executor`` runs process bodies: a callable ``(process, values,
    variables, scheduled, events)``.  Mutation engines pass one view of
    their shared :class:`repro.sim.compiler.MutantSchema` (a mutant, or
    the original, compiled).  Without one the simulator runs the
    original design on the reference interpreter.
    """

    def __init__(self, design: Design, max_delta: int = 256, executor=None):
        self._design = design
        self._executor = executor or Evaluator().exec_process
        self._max_delta = max_delta
        self._outputs = [port.name for port in design.output_ports]
        # Signal store.
        self._values: dict[str, object] = {}
        for symbol in design.signal_like_symbols:
            self._values[symbol.name] = symbol.init
        # Per-process persistent variable stores.
        self._variables: dict[str, dict[str, object]] = {}
        for process in design.processes:
            self._variables[process.label] = {
                var.name: var.init for var in process.variables
            }
        # Sensitivity map: signal name -> processes to wake.
        self._watchers: dict[str, list[Process]] = {}
        for process in design.processes:
            for name in dict.fromkeys(process.sensitivity):
                self._watchers.setdefault(name, []).append(process)
        self._scheduled: dict[str, object] = {}
        self._initialized = False

    @property
    def design(self) -> Design:
        return self._design

    # -- execution ---------------------------------------------------------------

    def initialize(self) -> None:
        """Run every process once (VHDL time-zero activation), settle."""
        if self._initialized:
            return
        self._initialized = True
        self._run_processes(self._design.processes, events=set())
        events = self._commit()
        self._settle(events)

    def set_inputs(self, values: dict[str, object]) -> None:
        """Drive input ports and settle all resulting activity."""
        self.initialize()
        events = set()
        for name, value in values.items():
            if self._values[name] != value:
                self._values[name] = value
                events.add(name)
        self._settle(events)

    def _settle(self, events: set[str]) -> None:
        for _ in range(self._max_delta):
            if not events:
                return
            triggered: list[Process] = []
            seen: set[str] = set()
            for name in events:
                for process in self._watchers.get(name, ()):
                    if process.label not in seen:
                        seen.add(process.label)
                        triggered.append(process)
            self._run_processes(triggered, events)
            events = self._commit()
        raise OscillationError(
            f"design {self._design.name!r} did not settle after "
            f"{self._max_delta} delta cycles"
        )

    def _run_processes(self, processes: list[Process], events: set[str]) -> None:
        # Processes schedule into ``_scheduled``; a partial (bit/slice)
        # update builds on the pending value of the same delta, so a
        # second ``v(i) <=`` in one round keeps the first one.
        for process in processes:
            self._executor(
                process, self._values, self._variables[process.label],
                self._scheduled, events,
            )

    def _commit(self) -> set[str]:
        events: set[str] = set()
        for name, value in self._scheduled.items():
            if self._values[name] != value:
                self._values[name] = value
                events.add(name)
        self._scheduled.clear()
        return events

    # -- state checkpointing ------------------------------------------------------

    def save_state(self) -> tuple:
        """Checkpoint signal values and process variables.

        Values are immutable (ints, bools, BV), so shallow dict copies
        capture the full machine state.
        """
        return (
            dict(self._values),
            {label: dict(vars_) for label, vars_ in self._variables.items()},
            self._initialized,
        )

    def restore_state(self, state: tuple) -> None:
        values, variables, initialized = state
        self._values = dict(values)
        self._variables = {
            label: dict(vars_) for label, vars_ in variables.items()
        }
        self._initialized = initialized
        self._scheduled.clear()

    # -- convenience -------------------------------------------------------------

    def snapshot_outputs(self) -> tuple:
        """Current values of the output ports, in declaration order."""
        return tuple(self._values[name] for name in self._outputs)

    def require_port(self, name: str) -> None:
        if name not in self._values:
            raise SimulationError(f"unknown signal {name!r}")
