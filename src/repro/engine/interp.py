"""The ``interp`` backend: per-gate :func:`eval_gate` dispatch.

This is the seed implementation extracted verbatim from the simulators
and kept as the reference every other backend is pinned against: a topo
walk with enum dispatch for good-machine evaluation, an event-driven
level-ordered cone walk (with early exit when the frontier dies out)
for single-fault propagation, and a clock-cycle kernel whose two
functions are full evaluations with per-gate override lookups.
"""

from __future__ import annotations

import heapq
import weakref

from repro.engine.base import EngineBase, InjectionPlan, register_engine
from repro.netlist.cells import eval_gate
from repro.netlist.levelize import levelize, topo_gates
from repro.netlist.netlist import Gate, Netlist


class _InterpProgram:
    """Per-netlist orderings, computed once and shared by every call.

    The netlist is referenced weakly (the engine's program cache must
    not extend its lifetime); the lazy properties dereference it, which
    is always safe because every caller holds the netlist itself.
    """

    def __init__(self, netlist: Netlist):
        self._netlist_ref = weakref.ref(netlist)
        self.order = topo_gates(netlist)
        self.outputs = netlist.output_bits
        self.output_set = frozenset(self.outputs)
        self._levels: dict[int, int] | None = None
        self._fanout: dict[int, list[tuple[Gate, int]]] | None = None

    @property
    def netlist(self) -> Netlist | None:
        return self._netlist_ref()

    @property
    def levels(self) -> dict[int, int]:
        if self._levels is None:
            self._levels = levelize(self.netlist)
        return self._levels

    @property
    def fanout(self) -> dict[int, list[tuple[Gate, int]]]:
        if self._fanout is None:
            self._fanout = self.netlist.fanout_map()
        return self._fanout


@register_engine
class InterpEngine(EngineBase):
    """Reference backend: per-gate enum dispatch (the seed code path)."""

    name = "interp"

    def _build(self, netlist: Netlist) -> _InterpProgram:
        return _InterpProgram(netlist)

    def eval_full(
        self, netlist: Netlist, words: dict[int, int], mask: int
    ) -> dict[int, int]:
        program = self._program(netlist)
        words = dict(words)
        for gate in program.order:
            words[gate.output] = eval_gate(
                gate.gate_type, [words[n] for n in gate.inputs], mask
            )
        return words

    def _cone_diff(
        self, program: _InterpProgram, origin: int, word: int,
        good: dict[int, int], mask: int,
    ) -> int:
        levels, fanout = program.levels, program.fanout
        faulty: dict[int, int] = {origin: word}
        heap: list[tuple[int, int, Gate]] = []
        queued: set[int] = set()

        def enqueue(gate: Gate) -> None:
            if gate.gid not in queued:
                queued.add(gate.gid)
                heapq.heappush(heap, (levels[gate.output], gate.gid, gate))

        for gate, _pin in fanout.get(origin, ()):
            enqueue(gate)

        while heap:
            _level, _gid, gate = heapq.heappop(heap)
            queued.discard(gate.gid)
            inputs = [faulty.get(n, good[n]) for n in gate.inputs]
            out_word = eval_gate(gate.gate_type, inputs, mask)
            previous = faulty.get(gate.output, good[gate.output])
            if out_word == previous:
                continue
            faulty[gate.output] = out_word
            for load, _pin in fanout.get(gate.output, ()):
                enqueue(load)

        detect = 0
        for nid in program.outputs:
            if nid in faulty:
                detect |= faulty[nid] ^ good[nid]
        return detect

    def cycle(
        self, netlist: Netlist, plan: InjectionPlan | None = None,
        observe: tuple[int, ...] | None = None,
    ):
        """Both kernel functions as full evaluations (the reference)."""
        order = self._program(netlist).order
        if plan is None:
            plan = InjectionPlan(faults=[])
        stem, branch = plan.stem, plan.branch
        input_bits = list(netlist.input_bits)
        dffs = [(dff.fid, dff.d, dff.q) for dff in netlist.dffs]
        observe = tuple(netlist.output_bits if observe is None else observe)

        def evaluate(inputs: tuple, state: tuple, mask: int) -> dict:
            words = dict(zip(input_bits, inputs))
            words.update((q, word) for (_fid, _d, q), word
                         in zip(dffs, state))
            for nid, (clear, setm) in stem.items():
                if nid in words:
                    words[nid] = (words[nid] & ~clear) | setm
            for gate in order:
                operands = []
                for pin, nid in enumerate(gate.inputs):
                    word = words[nid]
                    override = branch.get((gate.gid, pin))
                    if override is not None:
                        clear, setm = override
                        word = (word & ~clear) | setm
                    operands.append(word)
                out = eval_gate(gate.gate_type, operands, mask)
                override = stem.get(gate.output)
                if override is not None:
                    clear, setm = override
                    out = (out & ~clear) | setm
                words[gate.output] = out
            return words

        def next_state(inputs: tuple, state: tuple, mask: int) -> tuple:
            words = evaluate(inputs, state, mask)
            captured = []
            for fid, d, _q in dffs:
                word = words[d]
                override = plan.dff_branch.get(fid)
                if override is not None:
                    clear, setm = override
                    word = (word & ~clear) | setm
                captured.append(word)
            return tuple(captured)

        def observed(inputs: tuple, state: tuple, mask: int) -> tuple:
            words = evaluate(inputs, state, mask)
            return tuple(words[nid] for nid in observe)

        return next_state, observed
