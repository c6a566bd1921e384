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
* a *cycle kernel* per machine chunk (:meth:`CompiledEngine.cycle`;
  sequential fault simulation makes a whole fault list one chunk by
  default):
  one generated source holding ``_next(I, S, mask)``, which evaluates
  only the fan-in cone of the DFF ``d`` nets and returns the captured
  state words, and ``_observe(I, S, mask)``, which evaluates only the
  fan-in cone of the observed nets.  The chunk's stem, branch and
  DFF-branch ``(clear, set)`` masks are baked into the source as
  integer literals.  Kernels sit in a per-netlist LRU keyed by
  :meth:`InjectionPlan.injection_key` and the observed nets, resolved
  once per chunk, so re-simulating the same chunk never recompiles and
  the cycle loop never rebuilds the key.  On b01 and b03 every
  primary output is a flip-flop output, so the post-edge ``_observe``
  evaluates no gate at all.

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

Every word a generated function computes with is within ``mask``: each
source word (the evaluators' ``W``, the cycle kernels' ``I`` and
``S``) is masked once on entry, bitwise AND, OR and XOR of words within
the mask stay within it, and an inversion is ``^ mask``.  So no gate
masks its result, and each one equals
:func:`repro.netlist.cells.eval_gate`'s (which masks every result) on
the same operands: the backend is bit-identical to ``interp`` for
words within the mask, which the differential property test holds it
to.
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

#: gate type -> (operand joiner, inverted); None: one operand.
_OPS = {
    GateType.AND: (" & ", False),
    GateType.OR: (" | ", False),
    GateType.XOR: (" ^ ", False),
    GateType.NAND: (" & ", True),
    GateType.NOR: (" | ", True),
    GateType.XNOR: (" ^ ", True),
    GateType.BUF: (None, False),
    GateType.NOT: (None, True),
}

#: Bits per packed flip-evaluator pass (stems x pattern lanes); bounds
#: the width of the big-int words when many stems share one pass.
_PACK_BITS = 1 << 16


def _gate_expr(gate_type: GateType, operands: list[str]) -> str:
    """The bitwise expression equal to ``eval_gate`` on operands within
    the mask."""
    if gate_type is GateType.CONST0:
        return "0"
    if gate_type is GateType.CONST1:
        return "mask"
    try:
        joiner, inverted = _OPS[gate_type]
    except KeyError:
        raise EngineError(
            f"cannot compile gate type {gate_type!r}"
        ) from None
    if joiner is None or len(operands) == 1:
        expr = operands[0]
    else:
        expr = f"({joiner.join(operands)})"
    return f"{expr} ^ mask" if inverted else expr


def _override_expr(source: str, override: tuple[int, int]) -> str:
    """``(source & ~clear) | set``, folded: a site setting no lane only
    clears, and one setting every lane it clears only sets."""
    clear, setm = override
    if setm == clear:
        return f"({source}) | {setm}"
    if not setm:
        return f"({source}) & {~clear}"
    return f"(({source}) & {~clear}) | {setm}"


def _compile(source: str, filename: str) -> dict:
    namespace: dict = {}
    exec(compile(source, filename, "exec"), namespace)
    return namespace


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
        self.input_bits = list(netlist.input_bits)
        #: per DFF, in netlist order: (fid, d net, q net)
        self.dffs = [(dff.fid, dff.d, dff.q) for dff in netlist.dffs]
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
        self._cycle_fns: OrderedDict[tuple, tuple] = OrderedDict()
        self._cycle_built = 0

    @property
    def netlist(self) -> Netlist | None:
        return self._netlist_ref()

    # -- full evaluator ------------------------------------------------------

    def full_fn(self) -> Callable:
        if self._full_fn is None:
            self._full_fn = _compile(
                self._emit_eval(),
                f"<engine.compiled {self.name} full>",
            )["_run"]
        return self._full_fn

    def _emit_eval(self, flip: bool = False) -> str:
        """Source of the full evaluator ``_run(W, mask)``.

        With ``flip`` it is the flip evaluator ``_run(W, F, mask)``:
        each FFR stem's word is XORed with ``F[k]`` (``k`` its index in
        :attr:`stems`) and the primary-output words are returned as a
        tuple.
        """
        lines = ["def _run(W, F, mask):" if flip else "def _run(W, mask):"]

        def assign(nid: int, expr: str) -> None:
            if flip and nid in self.stems:
                expr = f"({expr}) ^ F[{self.stems[nid]}]"
            lines.append(f"    v{nid} = {expr}")

        for nid in self.sources:
            assign(nid, f"W[{nid}] & mask")
        for gate in self.order:
            operands = [f"v{nid}" for nid in gate.inputs]
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
            self._flip_fn = _compile(
                self._emit_eval(flip=True),
                f"<engine.compiled {self.name} flip>",
            )["_run"]
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

    # -- cycle kernels -------------------------------------------------------

    #: Retained cycle kernels per netlist.  Sequential fault simulation
    #: resolves one kernel per chunk when a pass starts and holds it
    #: for the pass; at the default width a fault list is one chunk,
    #: so a pass resolves one kernel per injection plan (none for SEU)
    #: next to the plan-free ones it shares.  The LRU lets later
    #: passes over the same list (one per validation set) reuse the
    #: compiled code without letting a caller that builds ever-new
    #: plans accumulate it without bound.
    CYCLE_CACHE_MAX = 64

    def cycle_fns(
        self, plan: InjectionPlan | None, observe: tuple[int, ...]
    ) -> tuple[Callable, Callable]:
        key = (None if plan is None else plan.injection_key(), observe)
        fns = self._cycle_fns.get(key)
        if fns is None:
            namespace = _compile(
                self._emit_cycle(plan, observe),
                f"<engine.compiled {self.name} cycle:{self._cycle_built}>",
            )
            fns = namespace["_next"], namespace["_observe"]
            self._cycle_built += 1
            self._cycle_fns[key] = fns
            while len(self._cycle_fns) > self.CYCLE_CACHE_MAX:
                self._cycle_fns.popitem(last=False)
        else:
            self._cycle_fns.move_to_end(key)
        return fns

    def _emit_cycle(
        self, plan: InjectionPlan | None, observe: tuple[int, ...]
    ) -> str:
        """Source of ``_next`` and ``_observe`` with ``plan`` baked in."""
        if plan is None:
            plan = InjectionPlan(faults=[])
        captured = []
        for fid, d, _q in self.dffs:
            word = f"v{d}"
            override = plan.dff_branch.get(fid)
            if override is not None:
                word = _override_expr(word, override)
            captured.append(word)
        d_nets = [d for _fid, d, _q in self.dffs]
        driver = {gate.output: gate for gate in self.order}
        return (
            self._emit_cone("_next", d_nets, captured, plan, driver)
            + self._emit_cone(
                "_observe", list(observe), [f"v{n}" for n in observe],
                plan, driver,
            )
        )

    def _emit_cone(
        self, name: str, targets: list[int], results: list[str],
        plan: InjectionPlan, driver: dict[int, Gate],
    ) -> str:
        """``def name(I, S, mask)`` over the fan-in cone of ``targets``.

        Stem overrides apply where a source is read (and masked) and
        after a gate computes; branch overrides on the reading gate's
        operand.
        """
        cone: set[int] = set()
        stack = list(targets)
        while stack:
            nid = stack.pop()
            if nid not in cone:
                cone.add(nid)
                gate = driver.get(nid)
                if gate is not None:
                    stack.extend(gate.inputs)
        lines = [f"def {name}(I, S, mask):"]
        if self.input_bits:
            lines.append(
                "    " + "".join(f"v{n}, " for n in self.input_bits) + "= I"
            )
        if self.dffs:
            lines.append(
                "    " + "".join(f"v{q}, " for *_, q in self.dffs) + "= S"
            )
        stem, branch = plan.stem, plan.branch
        for nid in self.sources:
            if nid in cone:
                expr = f"v{nid} & mask"
                override = stem.get(nid)
                if override is not None:
                    expr = _override_expr(expr, override)
                lines.append(f"    v{nid} = {expr}")
        for gate in self.order:
            if gate.output not in cone:
                continue
            operands = []
            for pin, nid in enumerate(gate.inputs):
                operand = f"v{nid}"
                override = branch.get((gate.gid, pin))
                if override is not None:
                    operand = f"({_override_expr(operand, override)})"
                operands.append(operand)
            expr = _gate_expr(gate.gate_type, operands)
            override = stem.get(gate.output)
            if override is not None:
                expr = _override_expr(expr, override)
            lines.append(f"    v{gate.output} = {expr}")
        lines.append("    return (" + "".join(f"{r}, " for r in results) + ")")
        return "\n".join(lines) + "\n"


@register_engine
class CompiledEngine(EngineBase):
    """Code-generating backend: straight-line bitwise Python per netlist."""

    name = "compiled"

    def _build(self, netlist: Netlist) -> _CompiledProgram:
        return _CompiledProgram(netlist)

    def warm(self, netlist: Netlist) -> None:
        """Build the program with both evaluators compiled (the cycle
        kernels depend on each chunk's faults and stay lazy)."""
        program = self._program(netlist)
        program.full_fn()
        program.flip_fn()

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

    def cycle(
        self, netlist: Netlist, plan: InjectionPlan | None = None,
        observe: tuple[int, ...] | None = None,
    ) -> tuple[Callable, Callable]:
        program = self._program(netlist)
        if observe is None:
            observe = tuple(program.outputs)
        return program.cycle_fns(plan, tuple(observe))
