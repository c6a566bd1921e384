"""Testbench protocol: reset, clocking and sequence application.

The observation convention (shared with the gate-level simulator so that
behaviour and synthesized gates can be compared cycle by cycle):

* sequential designs — per cycle: drive data inputs with the clock low,
  settle, raise the clock (state updates), settle, sample outputs, lower
  the clock;
* combinational designs — drive inputs, settle, sample.

``run_sequence`` applies an initial reset pulse for sequential designs so
every run starts from the architectural reset state.
"""

from __future__ import annotations

from repro.errors import ElaborationError, SimulationError
from repro.hdl import types as ty
from repro.hdl.design import Design, Symbol
from repro.hdl.values import BV
from repro.sim.scheduler import Simulator


class Testbench:
    """Drives one design instance cycle by cycle.

    ``executor`` runs process bodies (see :class:`Simulator`): a mutant
    or the original on a :class:`repro.sim.compiler.MutantSchema`, or
    by default the original on the reference interpreter.
    """

    __test__ = False  # not a pytest test class, despite the name

    def __init__(self, design: Design, max_delta: int = 256, executor=None):
        self._design = design
        self._sim = Simulator(design, max_delta, executor)
        clocks = design.clocks
        resets = design.resets
        if len(clocks) > 1 or len(resets) > 1:
            raise ElaborationError(
                f"design {design.name!r} uses multiple clock or reset "
                "signals; the testbench supports at most one of each"
            )
        self._clock = clocks[0] if clocks else None
        self._reset = resets[0] if resets else None
        self._reset_level = 1
        for process in design.processes:
            if process.reset:
                self._reset_level = process.reset_level

    @property
    def design(self) -> Design:
        return self._design

    @property
    def is_sequential(self) -> bool:
        return self._clock is not None

    def reset(self) -> None:
        """Apply the asynchronous reset pulse (sequential designs only)."""
        self._sim.initialize()
        if not self.is_sequential:
            return
        if self._reset is not None:
            self._sim.set_inputs({self._clock: 0})
            self._sim.set_inputs({self._reset: self._reset_level})
            # One clock pulse under reset mirrors common ITC'99 benches.
            self._sim.set_inputs({self._clock: 1})
            self._sim.set_inputs({self._clock: 0})
            self._sim.set_inputs({self._reset: 1 - self._reset_level})
        else:
            self._sim.set_inputs({self._clock: 0})

    def step(self, stimulus: dict[str, object]) -> tuple:
        """Apply one stimulus and return the sampled output tuple: on a
        sequential design, drive it with the clock low, raise the clock,
        sample, lower the clock, each settled by the delta loop."""
        sim = self._sim
        for name in stimulus:
            sim.require_port(name)
        if not self.is_sequential:
            sim.set_inputs(dict(stimulus))
            return sim.snapshot_outputs()
        clock = self._clock
        sim.set_inputs({**stimulus, clock: 0})
        sim.set_inputs({clock: 1})
        outputs = sim.snapshot_outputs()
        sim.set_inputs({clock: 0})
        return outputs

    def run_sequence(self, stimuli: list[dict[str, object]]) -> list[tuple]:
        """Reset, then apply every stimulus, returning per-cycle outputs."""
        self.reset()
        return [self.step(stimulus) for stimulus in stimuli]

    def save_state(self) -> tuple:
        """Checkpoint the simulation state (see Simulator.save_state)."""
        return self._sim.save_state()

    def restore_state(self, state: tuple) -> None:
        self._sim.restore_state(state)


class StimulusEncoder:
    """Packs integers into stimulus dictionaries and back.

    Test generators treat a stimulus as one unsigned integer of
    ``width`` bits.  Ports are packed in declaration order, the first
    data input port occupying the most significant bits.  Integer and
    enum ports map their bit-field onto their value range with a modulo,
    so every integer in ``[0, 2**width)`` decodes to a legal stimulus.
    """

    def __init__(self, design: Design):
        self._design = design
        self._fields: list[tuple[Symbol, int]] = []
        width = 0
        for port in design.data_input_ports:
            port_width = _port_width(port)
            self._fields.append((port, port_width))
            width += port_width
        self._width = width

    @property
    def width(self) -> int:
        return self._width

    @property
    def design(self) -> Design:
        return self._design

    @property
    def field_widths(self) -> tuple[int, ...]:
        """Per-port field widths, MSB-first (packing order).

        Structure-aware consumers (the ``repro.search`` mutators) use
        these to mutate one input field at a time instead of treating
        the packed stimulus as an opaque bit string.
        """
        return tuple(width for _, width in self._fields)

    def decode(self, packed: int) -> dict[str, object]:
        """Expand ``packed`` into a port-value dictionary."""
        if packed < 0:
            raise SimulationError("stimulus integers must be non-negative")
        stimulus: dict[str, object] = {}
        shift = self._width
        for port, port_width in self._fields:
            shift -= port_width
            field = (packed >> shift) & ((1 << port_width) - 1)
            stimulus[port.name] = _field_to_value(field, port.ty)
        return stimulus

    def encode(self, stimulus: dict[str, object]) -> int:
        """Pack a port-value dictionary back into an integer."""
        packed = 0
        for port, port_width in self._fields:
            value = stimulus[port.name]
            packed = (packed << port_width) | _value_to_field(value, port.ty)
        return packed


def encode_outputs(design: Design, outputs: tuple) -> int:
    """Pack a Testbench output tuple into one integer.

    Bit order matches the synthesized netlist's ``output_bits`` (ports in
    declaration order, MSB first within a port), so behavioural and
    gate-level responses can be compared as integers.
    """
    packed = 0
    for port, value in zip(design.output_ports, outputs):
        width = _port_width(port)
        packed = (packed << width) | _value_to_field(value, port.ty)
    return packed


def _port_width(port: Symbol) -> int:
    if isinstance(port.ty, ty.BitType):
        return 1
    if isinstance(port.ty, ty.BitVectorType):
        return port.ty.width
    if isinstance(port.ty, ty.IntegerType):
        return port.ty.bit_width
    if isinstance(port.ty, ty.EnumType):
        return port.ty.bit_width
    raise SimulationError(f"unsupported input port type {port.ty}")


def _field_to_value(field: int, port_type: ty.HdlType):
    if isinstance(port_type, ty.BitType):
        return field & 1
    if isinstance(port_type, ty.BitVectorType):
        return BV(field, port_type.width)
    if isinstance(port_type, ty.IntegerType):
        span = port_type.high - port_type.low + 1
        return port_type.low + (field % span)
    if isinstance(port_type, ty.EnumType):
        return field % len(port_type.literals)
    raise SimulationError(f"unsupported input port type {port_type}")


def _value_to_field(value, port_type: ty.HdlType) -> int:
    if isinstance(port_type, ty.BitType):
        return int(value) & 1
    if isinstance(port_type, ty.BitVectorType):
        return value.value if isinstance(value, BV) else int(value)
    if isinstance(port_type, ty.IntegerType):
        return int(value) - port_type.low
    if isinstance(port_type, ty.EnumType):
        return int(value)
    raise SimulationError(f"unsupported input port type {port_type}")
