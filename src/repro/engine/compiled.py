"""The ``compiled`` backend: per-netlist Python code generation.

For each netlist the backend emits topologically ordered straight-line
source — one bitwise expression per gate on local variables — compiles
it once with :func:`compile` and memoizes the resulting function, so
the hot loops pay no dict lookups, no :class:`GateType` dispatch and no
per-gate function calls:

* the *full evaluator* computes every gate of the good machine;
* the *flip evaluator* is the full evaluator with every fanout-free
  region (FFR) stem's word XORed with a per-stem flip word, returning
  the primary-output words;
* an *injected evaluator* per fault chunk bakes the chunk's stem and
  branch ``(clear, set)`` masks into the source as integer literals.
  :meth:`CompiledEngine.injected` returns it, looked up by
  :meth:`InjectionPlan.injection_key` once per chunk, so re-simulating
  the same chunk never recompiles and the cycle loop never rebuilds the
  key.

Single-fault propagation compiles nothing per fault.  A net that is not
a primary output and whose loads all sit on one gate passes a
difference on to that gate alone; every other driven net (a fanout
net, a primary output, a net without loads) is an FFR *stem*.  Each
fault's difference word is walked along that single-load chain with
:func:`eval_gate` against good side inputs until it dies (the fault is
undetected) or reaches its stem.  Beyond the stem the faulty machine
differs from the good one only at the stem, in the lanes the walked
difference has set, so ``detect = diff_at_stem & obs[stem]``, where
``obs[stem]`` is the primary-output difference with the stem inverted
in every lane — exact because gate functions are lane-local.  The
observabilities of all stems a fault list reaches come from packed
passes of the flip evaluator: stem *j* of a pass owns lanes
``[j*P, (j+1)*P)`` of every word (``P`` pattern lanes), the source
words are replicated into each segment and the flip words select each
stem's segment.

Every emitted expression mirrors :func:`repro.netlist.cells.eval_gate`
exactly (same operator order, same masking), which is what makes the
backend bit-identical to ``interp`` — the differential property test
holds it to that.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Callable

from repro.engine.base import EngineBase, InjectionPlan, register_engine
from repro.errors import EngineError, FaultSimError
from repro.netlist.cells import GateType, eval_gate
from repro.netlist.levelize import topo_gates
from repro.netlist.netlist import Gate, Netlist

#: gate type -> (prefix, operand joiner); expression = prefix(join) & mask.
_OPS = {
    GateType.AND: ("", " & "),
    GateType.OR: ("", " | "),
    GateType.XOR: ("", " ^ "),
    GateType.NAND: ("~", " & "),
    GateType.NOR: ("~", " | "),
    GateType.XNOR: ("~", " ^ "),
}

#: Bits per packed flip-evaluator pass (stems x pattern lanes); bounds
#: the width of the big-int words when many stems share one pass.
_PACK_BITS = 1 << 16


def _gate_expr(gate_type: GateType, operands: list[str]) -> str:
    """The masked bitwise expression mirroring ``eval_gate``."""
    if gate_type is GateType.CONST0:
        return "0"
    if gate_type is GateType.CONST1:
        return "mask"
    if gate_type is GateType.NOT:
        return f"~{operands[0]} & mask"
    if gate_type is GateType.BUF:
        return f"{operands[0]} & mask"
    try:
        prefix, joiner = _OPS[gate_type]
    except KeyError:
        raise EngineError(
            f"cannot compile gate type {gate_type!r}"
        ) from None
    return f"{prefix}({joiner.join(operands)}) & mask"


def _override_expr(source: str, override: tuple[int, int]) -> str:
    clear, setm = override
    return f"(({source}) & {~clear}) | {setm}"


def _compile_fn(source: str, filename: str) -> Callable:
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace["_run"]


class _CompiledProgram:
    """All compiled artifacts of one netlist (built lazily, cached).

    The netlist is referenced weakly — the engine's program cache must
    not extend its lifetime — and dereferenced only while a caller
    holds the netlist; everything codegen needs repeatedly (topo order,
    port bits, name) is captured eagerly.
    """

    def __init__(self, netlist: Netlist):
        self._netlist_ref = weakref.ref(netlist)
        self.name = netlist.name
        self.order = topo_gates(netlist)
        self.sources = list(netlist.input_bits)
        self.sources.extend(dff.q for dff in netlist.dffs)
        self.outputs = netlist.output_bits
        self.output_set = frozenset(self.outputs)
        #: non-PO net -> the one gate all its loads sit on (FFR chains)
        self.single_load: dict[int, Gate] = {}
        for nid, loads in netlist.fanout_map().items():
            gate = loads[0][0]
            if nid not in self.output_set and all(
                load is gate for load, _pin in loads
            ):
                self.single_load[nid] = gate
        driven = self.sources + [gate.output for gate in self.order]
        #: FFR stem net -> its index into the flip evaluator's ``F``
        self.stems = {
            nid: k for k, nid in enumerate(
                n for n in driven if n not in self.single_load
            )
        }
        self._full_fn: Callable | None = None
        self._flip_fn: Callable | None = None
        self._injected_fns: OrderedDict[tuple, Callable] = OrderedDict()
        self._injected_built = 0

    @property
    def netlist(self) -> Netlist | None:
        return self._netlist_ref()

    # -- full evaluator ------------------------------------------------------

    def full_fn(self) -> Callable:
        if self._full_fn is None:
            self._full_fn = _compile_fn(
                self._emit_eval(stem={}, branch={}),
                f"<engine.compiled {self.name} full>",
            )
        return self._full_fn

    def _emit_eval(self, stem: dict, branch: dict, flip: bool = False) -> str:
        """Source of a full evaluator, optionally with baked injections.

        With ``flip`` it is the flip evaluator ``_run(W, F, mask)``:
        each FFR stem's word is XORed with ``F[k]`` (``k`` its index in
        :attr:`stems`) and the primary-output words are returned as a
        tuple.
        """
        lines = ["def _run(W, F, mask):" if flip else "def _run(W, mask):"]

        def assign(nid: int, expr: str) -> None:
            override = stem.get(nid)
            if override is not None:
                expr = _override_expr(expr, override)
            if flip and nid in self.stems:
                expr = f"({expr}) ^ F[{self.stems[nid]}]"
            lines.append(f"    v{nid} = {expr}")

        for nid in self.sources:
            assign(nid, f"W[{nid}]")
        for gate in self.order:
            operands = []
            for pin, nid in enumerate(gate.inputs):
                operand = f"v{nid}"
                override = branch.get((gate.gid, pin))
                if override is not None:
                    operand = f"({_override_expr(operand, override)})"
                operands.append(operand)
            assign(gate.output, _gate_expr(gate.gate_type, operands))
        if flip:
            items = "".join(f"v{nid}, " for nid in self.outputs)
            lines.append(f"    return ({items})")
        else:
            computed = self.sources + [gate.output for gate in self.order]
            items = ", ".join(f"{nid}: v{nid}" for nid in computed)
            lines.append("    return {**W, %s}" % items)
        return "\n".join(lines) + "\n"

    # -- fanout-free-region fault propagation --------------------------------

    def flip_fn(self) -> Callable:
        if self._flip_fn is None:
            self._flip_fn = _compile_fn(
                self._emit_eval(stem={}, branch={}, flip=True),
                f"<engine.compiled {self.name} flip>",
            )
        return self._flip_fn

    def reach(
        self, fault, good: dict[int, int], mask: int
    ) -> tuple[int, int] | None:
        """Walk ``fault`` to its FFR stem: ``(stem, diff_at_stem)``.

        ``None`` when the fault is not activated or its difference dies
        inside the region.  Activation and validation mirror
        :meth:`EngineBase.fault_diff`.
        """
        stuck_word = mask if fault.stuck else 0
        if fault.is_stem:
            if good.get(fault.net) == stuck_word:
                return None  # fault never activated anywhere
            nid, diff = fault.net, (good[fault.net] ^ stuck_word) & mask
        else:
            # Branch fault: only one gate sees the stuck value.
            gates = self.netlist.gates
            if fault.gate is None or not 0 <= fault.gate < len(gates):
                raise FaultSimError(
                    f"fault references unknown gate {fault.gate}"
                )
            target = gates[fault.gate]
            inputs = [
                stuck_word if pin == fault.pin else good[n]
                for pin, n in enumerate(target.inputs)
            ]
            nid = target.output
            diff = eval_gate(target.gate_type, inputs, mask) ^ good[nid]
        single_load = self.single_load
        while diff and nid in single_load:
            gate = single_load[nid]
            faulty = good[nid] ^ diff
            inputs = [faulty if n == nid else good[n] for n in gate.inputs]
            nid = gate.output
            diff = eval_gate(gate.gate_type, inputs, mask) ^ good[nid]
        return (nid, diff) if diff else None

    def observabilities(
        self, stems: list[int], good: dict[int, int], mask: int
    ) -> dict[int, int]:
        """stem -> PO difference word with the stem inverted in every lane.

        Stems are packed side by side, ``_PACK_BITS`` bits per pass of
        the flip evaluator.
        """
        obs: dict[int, int] = {}
        if not stems:
            return obs
        stride = mask.bit_length()
        step = max(1, _PACK_BITS // stride)
        run = self.flip_fn()
        for start in range(0, len(stems), step):
            chunk = stems[start : start + step]
            replicate = sum(1 << (j * stride) for j in range(len(chunk)))
            words = {
                nid: (good[nid] & mask) * replicate for nid in self.sources
            }
            flips = [0] * len(self.stems)
            for j, nid in enumerate(chunk):
                flips[self.stems[nid]] = mask << (j * stride)
            outputs = run(words, flips, (1 << (len(chunk) * stride)) - 1)
            diff = 0
            for nid, word in zip(self.outputs, outputs):
                diff |= word ^ ((good[nid] & mask) * replicate)
            for j, nid in enumerate(chunk):
                obs[nid] = (diff >> (j * stride)) & mask
        return obs

    # -- injected evaluators -------------------------------------------------

    #: Retained injected evaluators per netlist.  Fault simulators
    #: resolve one evaluator per chunk when a pass starts and hold it
    #: for the pass; the LRU lets later passes over the same chunks
    #: (one per validation set) reuse the compiled code without letting
    #: a caller that builds ever-new plans accumulate it without bound.
    INJECTED_CACHE_MAX = 64

    def injected_fn(self, plan: InjectionPlan) -> Callable:
        key = plan.injection_key()
        fn = self._injected_fns.get(key)
        if fn is None:
            fn = _compile_fn(
                self._emit_eval(stem=plan.stem, branch=plan.branch),
                f"<engine.compiled {self.name} "
                f"chunk:{self._injected_built}>",
            )
            self._injected_built += 1
            self._injected_fns[key] = fn
            while len(self._injected_fns) > self.INJECTED_CACHE_MAX:
                self._injected_fns.popitem(last=False)
        else:
            self._injected_fns.move_to_end(key)
        return fn


@register_engine
class CompiledEngine(EngineBase):
    """Code-generating backend: straight-line bitwise Python per netlist."""

    name = "compiled"

    def _build(self, netlist: Netlist) -> _CompiledProgram:
        return _CompiledProgram(netlist)

    def eval_full(
        self, netlist: Netlist, words: dict[int, int], mask: int
    ) -> dict[int, int]:
        return self._program(netlist).full_fn()(words, mask)

    def fault_diff(
        self, netlist: Netlist, fault, good: dict[int, int], mask: int
    ) -> int:
        return self.fault_diff_batch(netlist, [fault], good, mask)[0]

    def fault_diff_batch(
        self, netlist: Netlist, faults: list, good: dict[int, int],
        mask: int,
    ) -> list[int]:
        """Walk every fault to its FFR stem, then flip all stems packed."""
        program = self._program(netlist)
        reached = [program.reach(fault, good, mask) for fault in faults]
        obs = program.observabilities(
            list(dict.fromkeys(hit[0] for hit in reached if hit)),
            good, mask,
        )
        return [
            hit[1] & obs[hit[0]] if hit else 0 for hit in reached
        ]

    def injected(self, netlist: Netlist, plan: InjectionPlan) -> Callable:
        return self._program(netlist).injected_fn(plan)
