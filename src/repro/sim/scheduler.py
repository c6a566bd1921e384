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

:meth:`Simulator.clock_cycle` is the fast path for one testbench cycle
(data inputs, rising edge, sample, falling edge).  On an initialized
simulator with no update pending, the clock low, ``max_delta >= 3``
and no stimulus name watched, it runs the clock's watchers once per
edge and commits, and hands a commit's events to the delta loop only
when some process watches them; otherwise it drives the cycle through
:meth:`Simulator.set_inputs`.  Both paths give the same values,
variables and exceptions.
"""

from __future__ import annotations

from repro.errors import OscillationError, SimulationError
from repro.hdl import ast
from repro.hdl.design import Design, Process
from repro.sim.compiler import make_executor


class Simulator:
    """Executes a design, optionally through a mutant patch table.

    ``executor`` runs process bodies; mutation engines pass one view of
    their shared :class:`repro.sim.compiler.MutantSchema`.  Without one,
    ``backend`` builds a private executor for ``patch``: ``"interp"``
    walks the AST (reference semantics), ``"compiled"`` generates and
    compiles Python for the design (several times faster, but paying
    the compile on every construction).
    """

    def __init__(
        self,
        design: Design,
        patch: dict[int, ast.Node] | None = None,
        max_delta: int = 256,
        backend: str = "interp",
        executor=None,
    ):
        self._design = design
        self._executor = executor or make_executor(design, patch, backend)
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
        self._watched = frozenset(self._watchers)
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

    def clock_cycle(self, stimulus: dict[str, object], clock: str) -> tuple:
        """One clock cycle: drive ``stimulus`` with ``clock`` low, raise
        the clock, sample the outputs, lower the clock.

        Returns the outputs sampled after the rising edge.  The result
        and the machine state are those of three :meth:`set_inputs`
        calls (the data inputs with the clock at 0, then the clock at 1
        and at 0), which this falls back to whenever the shortcut could
        differ from them: before initialization, below three delta
        rounds, with the clock high, with updates left pending by a
        process that raised, or when a stimulus name is watched.
        """
        values = self._values
        if (
            not self._initialized or self._max_delta < 3
            or self._scheduled or values[clock] != 0
            or not self._watched.isdisjoint(stimulus)
        ):
            self.set_inputs({**stimulus, clock: 0})
            self.set_inputs({clock: 1})
            outputs = self.snapshot_outputs()
            self.set_inputs({clock: 0})
            return outputs
        # No process watches a data input, so driving them wakes nothing.
        for name, value in stimulus.items():
            if values[name] != value:
                values[name] = value
        values[clock] = 1
        self._edge(clock)
        outputs = tuple(values[name] for name in self._outputs)
        values[clock] = 0
        self._edge(clock)
        return outputs

    def _edge(self, clock: str) -> None:
        """First delta round of a clock event, then the rest of the loop
        only if the commit woke some process."""
        self._run_processes(self._watchers.get(clock, ()), {clock})
        events = self._commit()
        if not self._watched.isdisjoint(events):
            self._settle(events, self._max_delta - 1)

    def _settle(self, events: set[str], rounds: int | None = None) -> None:
        for _ in range(self._max_delta if rounds is None else rounds):
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
