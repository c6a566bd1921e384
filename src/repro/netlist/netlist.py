"""Netlist data structure and the hash-consing builder.

A :class:`Netlist` is a flat sea of 2-input (or n-ary, when read from
``.bench``) gates plus D flip-flops.  Ports map names to lists of net
ids, MSB first, so vector ports survive synthesis.

:class:`NetlistBuilder` is the construction API used by synthesis: it
folds constants, normalizes commutative operand order, and hash-conses
structurally identical gates so the emitted netlist has no duplicate
logic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import NetlistError
from repro.netlist.cells import GateType


@dataclass
class Net:
    nid: int
    name: str


@dataclass
class Gate:
    gid: int
    gate_type: GateType
    inputs: list[int]          # net ids
    output: int                # net id


@dataclass
class DFF:
    fid: int
    d: int                     # data input net id
    q: int                     # output net id
    reset_value: int = 0       # architectural reset state (0/1)
    name: str = ""


@dataclass
class Netlist:
    """A flat gate-level design."""

    name: str
    nets: list[Net] = field(default_factory=list)
    gates: list[Gate] = field(default_factory=list)
    dffs: list[DFF] = field(default_factory=list)
    #: ordered (port name, [net ids MSB..LSB]) pairs
    input_ports: list[tuple[str, list[int]]] = field(default_factory=list)
    output_ports: list[tuple[str, list[int]]] = field(default_factory=list)
    #: behavioural signal name -> [net ids MSB..LSB]; populated by
    #: synthesis so analyses can report netlist facts in source terms.
    #: Empty for netlists read directly from ``.bench`` files.
    signal_map: dict[str, list[int]] = field(default_factory=dict)

    @property
    def input_bits(self) -> list[int]:
        """All input net ids, port order, MSB first within a port."""
        return [nid for _, bits in self.input_ports for nid in bits]

    @property
    def output_bits(self) -> list[int]:
        return [nid for _, bits in self.output_ports for nid in bits]

    @property
    def num_nets(self) -> int:
        return len(self.nets)

    def net_name(self, nid: int) -> str:
        return self.nets[nid].name

    def driver_map(self) -> dict[int, Gate | DFF | str]:
        """Map net id -> its driver (gate, dff, or the string 'input')."""
        drivers: dict[int, Gate | DFF | str] = {}

        def set_driver(nid: int, driver) -> None:
            if nid in drivers:
                raise NetlistError(
                    f"net {self.net_name(nid)!r} has multiple drivers"
                )
            drivers[nid] = driver

        for nid in self.input_bits:
            set_driver(nid, "input")
        for gate in self.gates:
            set_driver(gate.output, gate)
        for dff in self.dffs:
            set_driver(dff.q, dff)
        return drivers

    def fanout_map(self) -> dict[int, list[tuple[Gate, int]]]:
        """Map net id -> [(gate, input pin index)] loads."""
        fanout: dict[int, list[tuple[Gate, int]]] = {}
        for gate in self.gates:
            for pin, nid in enumerate(gate.inputs):
                fanout.setdefault(nid, []).append((gate, pin))
        return fanout

    def validate(self) -> None:
        """Check single-driver discipline and dangling references."""
        drivers = self.driver_map()
        valid = set(range(len(self.nets)))
        for gate in self.gates:
            for nid in gate.inputs + [gate.output]:
                if nid not in valid:
                    raise NetlistError(f"gate {gate.gid} references net {nid}")
        for gate in self.gates:
            for nid in gate.inputs:
                if nid not in drivers:
                    raise NetlistError(
                        f"gate {gate.gid} input net "
                        f"{self.net_name(nid)!r} is undriven"
                    )
        for dff in self.dffs:
            if dff.d not in drivers:
                raise NetlistError(
                    f"dff {dff.name!r} data net {self.net_name(dff.d)!r} "
                    "is undriven"
                )
        for _, bits in self.output_ports:
            for nid in bits:
                if nid not in drivers:
                    raise NetlistError(
                        f"output net {self.net_name(nid)!r} is undriven"
                    )

    def stats(self) -> dict[str, int]:
        from repro.netlist.levelize import levelize

        by_type: dict[str, int] = {}
        for gate in self.gates:
            by_type[gate.gate_type.value] = (
                by_type.get(gate.gate_type.value, 0) + 1
            )
        levels = levelize(self)
        depth = max(
            (levels[g.output] for g in self.gates), default=0
        )
        return {
            "gates": len(self.gates),
            "dffs": len(self.dffs),
            "nets": len(self.nets),
            "inputs": len(self.input_bits),
            "outputs": len(self.output_bits),
            "depth": depth,
            **{f"gate_{k.lower()}": v for k, v in sorted(by_type.items())},
        }


_COMMUTATIVE = frozenset(
    {GateType.AND, GateType.OR, GateType.NAND, GateType.NOR, GateType.XOR,
     GateType.XNOR}
)

#: Constant nets use sentinel ids, resolved to real nets only if they
#: survive folding into the final netlist.
CONST0 = -1
CONST1 = -2


class NetlistBuilder:
    """Builds optimized netlists: folding + structural hashing.

    Net handles during construction are either real net ids (>= 0) or
    the constant sentinels :data:`CONST0` / :data:`CONST1`.  ``finish``
    materializes sentinel constants that leaked into ports or flip-flop
    inputs as CONST gates.
    """

    def __init__(self, name: str):
        self._netlist = Netlist(name)
        self._dedup: dict[tuple, int] = {}
        self._not_cache: dict[int, int] = {}
        self._const_nets: dict[int, int] = {}

    # -- nets -------------------------------------------------------------

    def new_net(self, name: str) -> int:
        nid = len(self._netlist.nets)
        self._netlist.nets.append(Net(nid, name))
        return nid

    def add_input_port(self, name: str, width: int) -> list[int]:
        bits = [
            self.new_net(f"{name}[{i}]" if width > 1 else name)
            for i in reversed(range(width))
        ]
        self._netlist.input_ports.append((name, bits))
        return bits

    def set_output_port(self, name: str, bits: list[int]) -> None:
        real = [self._materialize(nid) for nid in bits]
        self._netlist.output_ports.append((name, real))

    # -- gates ------------------------------------------------------------

    def gate(self, gate_type: GateType, *inputs: int) -> int:
        """Create (or reuse) a gate; returns its output net handle."""
        ins = list(inputs)
        if gate_type in (GateType.BUF,):
            return ins[0]
        if gate_type is GateType.NOT:
            return self.g_not(ins[0])
        folded = self._fold(gate_type, ins)
        if folded is not None:
            return folded
        if gate_type in _COMMUTATIVE:
            ins = sorted(ins)
        key = (gate_type, tuple(ins))
        cached = self._dedup.get(key)
        if cached is not None:
            return cached
        out = self.new_net(f"n{len(self._netlist.nets)}")
        real_ins = [self._materialize(nid) for nid in ins]
        self._netlist.gates.append(
            Gate(len(self._netlist.gates), gate_type, real_ins, out)
        )
        self._dedup[key] = out
        return out

    def g_not(self, a: int) -> int:
        if a == CONST0:
            return CONST1
        if a == CONST1:
            return CONST0
        cached = self._not_cache.get(a)
        if cached is not None:
            return cached
        out = self.new_net(f"n{len(self._netlist.nets)}")
        self._netlist.gates.append(
            Gate(len(self._netlist.gates), GateType.NOT, [a], out)
        )
        self._not_cache[a] = out
        self._not_cache[out] = a
        return out

    def g_and(self, a: int, b: int) -> int:
        return self.gate(GateType.AND, a, b)

    def g_or(self, a: int, b: int) -> int:
        return self.gate(GateType.OR, a, b)

    def g_xor(self, a: int, b: int) -> int:
        return self.gate(GateType.XOR, a, b)

    def g_xnor(self, a: int, b: int) -> int:
        return self.gate(GateType.XNOR, a, b)

    def g_nand(self, a: int, b: int) -> int:
        return self.gate(GateType.NAND, a, b)

    def g_nor(self, a: int, b: int) -> int:
        return self.gate(GateType.NOR, a, b)

    def mux(self, sel: int, when_true: int, when_false: int) -> int:
        """2:1 mux out = sel ? when_true : when_false."""
        if sel == CONST1:
            return when_true
        if sel == CONST0:
            return when_false
        if when_true == when_false:
            return when_true
        if when_true == CONST1 and when_false == CONST0:
            return sel
        if when_true == CONST0 and when_false == CONST1:
            return self.g_not(sel)
        return self.g_or(
            self.g_and(sel, when_true),
            self.g_and(self.g_not(sel), when_false),
        )

    def reduce_tree_and(self, bits: list[int]) -> int:
        return self.reduce_tree(GateType.AND, bits)

    def reduce_tree_or(self, bits: list[int]) -> int:
        return self.reduce_tree(GateType.OR, bits)

    def reduce_tree(self, gate_type: GateType, bits: list[int]) -> int:
        """Balanced reduction (AND/OR/XOR) over ``bits``."""
        if not bits:
            raise NetlistError("cannot reduce an empty bit list")
        layer = list(bits)
        while len(layer) > 1:
            nxt = []
            for i in range(0, len(layer) - 1, 2):
                nxt.append(self.gate(gate_type, layer[i], layer[i + 1]))
            if len(layer) % 2:
                nxt.append(layer[-1])
            layer = nxt
        return layer[0]

    def _fold(self, gate_type: GateType, ins: list[int]) -> int | None:
        """Constant folding for 2-input gates; None if nothing folds."""
        if len(ins) != 2:
            return None
        a, b = ins
        consts = {CONST0, CONST1}
        if gate_type is GateType.AND:
            if CONST0 in ins:
                return CONST0
            if a == CONST1:
                return b
            if b == CONST1:
                return a
            if a == b:
                return a
            if self._not_cache.get(a) == b:
                return CONST0
        elif gate_type is GateType.OR:
            if CONST1 in ins:
                return CONST1
            if a == CONST0:
                return b
            if b == CONST0:
                return a
            if a == b:
                return a
            if self._not_cache.get(a) == b:
                return CONST1
        elif gate_type is GateType.XOR:
            if a == CONST0:
                return b
            if b == CONST0:
                return a
            if a == CONST1:
                return self.g_not(b)
            if b == CONST1:
                return self.g_not(a)
            if a == b:
                return CONST0
            if self._not_cache.get(a) == b:
                return CONST1
        elif gate_type is GateType.XNOR:
            if a == CONST1:
                return b
            if b == CONST1:
                return a
            if a == CONST0:
                return self.g_not(b)
            if b == CONST0:
                return self.g_not(a)
            if a == b:
                return CONST1
            if self._not_cache.get(a) == b:
                return CONST0
        elif gate_type is GateType.NAND:
            if a in consts or b in consts or a == b or (
                self._not_cache.get(a) == b
            ):
                return self.g_not(self.gate(GateType.AND, a, b))
        elif gate_type is GateType.NOR:
            if a in consts or b in consts or a == b or (
                self._not_cache.get(a) == b
            ):
                return self.g_not(self.gate(GateType.OR, a, b))
        return None

    # -- flip-flops -------------------------------------------------------

    def add_dff(self, name: str, reset_value: int) -> int:
        """Create a DFF shell; connect its D later with ``connect_dff``."""
        q = self.new_net(name)
        self._netlist.dffs.append(
            DFF(len(self._netlist.dffs), d=-999, q=q,
                reset_value=reset_value, name=name)
        )
        return q

    def connect_dff(self, q: int, d: int) -> None:
        for dff in self._netlist.dffs:
            if dff.q == q:
                dff.d = self._materialize(d)
                return
        raise NetlistError(f"no DFF with q net {q}")

    # -- finishing ----------------------------------------------------------

    def _materialize(self, nid: int) -> int:
        """Resolve constant sentinels into driven nets."""
        if nid >= 0:
            return nid
        if nid in self._const_nets:
            return self._const_nets[nid]
        gate_type = GateType.CONST0 if nid == CONST0 else GateType.CONST1
        out = self.new_net("const0" if nid == CONST0 else "const1")
        self._netlist.gates.append(
            Gate(len(self._netlist.gates), gate_type, [], out)
        )
        self._const_nets[nid] = out
        return out

    def finish(self) -> Netlist:
        for dff in self._netlist.dffs:
            if dff.d == -999:
                raise NetlistError(f"DFF {dff.name!r} was never connected")
        self._netlist.validate()
        return self._netlist
