"""Bit-parallel logic simulation of netlists.

Patterns ride bit-lanes of arbitrary-precision integers: simulating
4096 patterns costs one pass over the gates with 4096-bit words.  The
sequential stepping convention matches
:class:`repro.sim.testbench.Testbench` exactly (drive inputs, evaluate,
clock the flip-flops, re-evaluate, sample), so behavioural and
synthesized models can be compared cycle by cycle.
"""

from __future__ import annotations

from itertools import repeat

from repro.engine import build_engine
from repro.errors import SimulationError
from repro.netlist.netlist import Netlist


class CombSimulator:
    """Evaluates the combinational core over pattern words.

    ``engine`` selects the evaluation backend by name (or instance, see
    :func:`repro.engine.build_engine`); the default is the registry's
    default backend.
    """

    def __init__(self, netlist: Netlist, engine=None):
        self._netlist = netlist
        self._engine = build_engine(engine)

    @property
    def netlist(self) -> Netlist:
        return self._netlist

    @property
    def engine(self):
        return self._engine

    def evaluate(
        self, input_words: dict[int, int], mask: int,
        state_words: dict[int, int] | None = None,
    ) -> dict[int, int]:
        """Words for every net given input (and DFF output) words."""
        words: dict[int, int] = dict(input_words)
        if state_words:
            words.update(state_words)
        for dff in self._netlist.dffs:
            if dff.q not in words:
                raise SimulationError(
                    f"missing state word for DFF {dff.name!r}"
                )
        for nid in self._netlist.input_bits:
            if nid not in words:
                raise SimulationError(
                    f"missing input word for net "
                    f"{self._netlist.net_name(nid)!r}"
                )
        return self._engine.eval_full(self._netlist, words, mask)

    def apply_patterns(self, patterns: list[int]) -> list[int]:
        """Convenience: apply packed input patterns, return packed outputs.

        Each pattern is an integer whose bits follow
        ``netlist.input_bits`` order (first listed net = MSB).  Output
        integers follow ``netlist.output_bits`` order likewise.
        """
        count = len(patterns)
        if count == 0:
            return []
        mask = (1 << count) - 1
        input_words = unpack_patterns(
            patterns, self._netlist.input_bits
        )
        state = {dff.q: 0 for dff in self._netlist.dffs}
        words = self.evaluate(input_words, mask, state)
        return pack_outputs(words, self._netlist.output_bits, count)


class SeqSimulator:
    """Cycle-by-cycle simulation with pattern-parallel lanes.

    All lanes share the same input sequence timing; they differ only in
    input values per lane.  The common single-lane use passes mask=1.
    """

    def __init__(self, netlist: Netlist, mask: int = 1, engine=None):
        self._netlist = netlist
        self._comb = CombSimulator(netlist, engine)
        self._mask = mask
        self._state: dict[int, int] = {}
        self.reset()

    @property
    def netlist(self) -> Netlist:
        return self._netlist

    def reset(self) -> None:
        """Load every DFF with its architectural reset value (all lanes)."""
        self._state = {
            dff.q: (self._mask if dff.reset_value else 0)
            for dff in self._netlist.dffs
        }

    def step(self, input_words: dict[int, int]) -> dict[int, int]:
        """One clock cycle; returns net words *after* the clock edge."""
        words = self._comb.evaluate(input_words, self._mask, self._state)
        self._state = {dff.q: words[dff.d] for dff in self._netlist.dffs}
        # Same inputs, complete state: nothing left to validate.
        return self._comb.engine.eval_full(
            self._netlist, {**input_words, **self._state}, self._mask
        )

    def run_packed(self, stimuli: list[int]) -> list[int]:
        """Apply packed single-lane stimuli; returns packed outputs."""
        outputs = []
        for packed in stimuli:
            input_words = unpack_patterns([packed], self._netlist.input_bits)
            words = self.step(input_words)
            outputs.extend(
                pack_outputs(words, self._netlist.output_bits, 1)
            )
        return outputs


def unpack_patterns(
    patterns: list[int], ordered_nets: list[int]
) -> dict[int, int]:
    """Transpose packed patterns into per-net lane words.

    Bit *j* (from MSB) of each pattern drives ``ordered_nets[j]``; lane
    *i* of each net word is pattern *i*.  Linear in the pattern bits:
    the patterns are formatted as fixed-width binary strings, last
    pattern first, and joined, so column *j* of that text (every
    ``width``-th character from *j*) reads net *j*'s word MSB-first.
    A single pattern (one sequential cycle) takes a plain bit loop.
    """
    width = len(ordered_nets)
    if not patterns:
        return dict.fromkeys(ordered_nets, 0)
    if min(patterns) < 0 or max(patterns) >> width:
        for pattern in patterns:
            if pattern < 0 or pattern >> width:
                raise SimulationError(
                    f"pattern {pattern:#x} does not fit {width} input bits"
                )
    if len(patterns) == 1:
        pattern = patterns[0]
        words = {}
        for nid in ordered_nets:
            width -= 1
            words[nid] = pattern >> width & 1
        return words
    text = "".join(map(format, reversed(patterns), repeat(f"0{width}b")))
    return {
        nid: int(text[j::width], 2) for j, nid in enumerate(ordered_nets)
    }


def pack_outputs(
    words: dict[int, int], ordered_nets: list[int], count: int
) -> list[int]:
    """Inverse transpose: per-net lane words into packed output integers."""
    outputs = []
    for lane in range(count):
        packed = 0
        for nid in ordered_nets:
            packed = (packed << 1) | ((words[nid] >> lane) & 1)
        outputs.append(packed)
    return outputs
