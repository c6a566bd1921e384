"""Netlist data structure, builder folding, .bench I/O, levelization."""

import random

import pytest

from repro.errors import BenchFormatError, NetlistError, SimulationError
from repro.netlist import GateType, Netlist, NetlistBuilder, parse_bench, write_bench
from repro.netlist.bench import C17_BENCH
from repro.netlist.levelize import levelize, topo_gates
from repro.netlist.netlist import CONST0, CONST1
from repro.netlist.simulate import unpack_patterns


def small_builder():
    builder = NetlistBuilder("t")
    a, b = builder.add_input_port("a", 1)[0], builder.add_input_port("b", 1)[0]
    return builder, a, b


def test_and_folding_rules():
    builder, a, b = small_builder()
    assert builder.g_and(a, CONST0) == CONST0
    assert builder.g_and(a, CONST1) == a
    assert builder.g_and(a, a) == a
    assert builder.g_and(a, builder.g_not(a)) == CONST0


def test_or_folding_rules():
    builder, a, b = small_builder()
    assert builder.g_or(a, CONST1) == CONST1
    assert builder.g_or(a, CONST0) == a
    assert builder.g_or(a, builder.g_not(a)) == CONST1


def test_xor_folding_rules():
    builder, a, b = small_builder()
    assert builder.g_xor(a, CONST0) == a
    assert builder.g_xor(a, a) == CONST0
    assert builder.g_xor(a, CONST1) == builder.g_not(a)


def test_not_not_cancels():
    builder, a, _ = small_builder()
    assert builder.g_not(builder.g_not(a)) == a


def test_structural_dedup():
    builder, a, b = small_builder()
    g1 = builder.g_and(a, b)
    g2 = builder.g_and(b, a)  # commutative normalization
    assert g1 == g2
    assert len([g for g in builder.finish().gates if True]) >= 0


def test_mux_folds():
    builder, a, b = small_builder()
    assert builder.mux(CONST1, a, b) == a
    assert builder.mux(CONST0, a, b) == b
    assert builder.mux(a, b, b) == b
    assert builder.mux(a, CONST1, CONST0) == a


def test_reduce_tree_single():
    builder, a, _ = small_builder()
    assert builder.reduce_tree_and([a]) == a


def test_reduce_tree_empty_rejected():
    builder, _, _ = small_builder()
    with pytest.raises(NetlistError):
        builder.reduce_tree_and([])


def test_const_materialized_on_output():
    builder, a, _ = small_builder()
    builder.set_output_port("y", [CONST1])
    netlist = builder.finish()
    assert any(g.gate_type is GateType.CONST1 for g in netlist.gates)


def test_unconnected_dff_rejected():
    builder, a, _ = small_builder()
    builder.add_dff("s", 0)
    with pytest.raises(NetlistError):
        builder.finish()


def test_dff_connects():
    builder, a, _ = small_builder()
    q = builder.add_dff("s", 1)
    builder.connect_dff(q, a)
    builder.set_output_port("y", [q])
    netlist = builder.finish()
    assert netlist.dffs[0].reset_value == 1
    assert netlist.dffs[0].d == a


# -- bench I/O ---------------------------------------------------------------


def test_parse_c17_bench():
    netlist = parse_bench(C17_BENCH, "c17")
    assert len(netlist.gates) == 6
    assert all(g.gate_type is GateType.NAND for g in netlist.gates)
    assert len(netlist.input_bits) == 5
    assert len(netlist.output_bits) == 2


def test_bench_roundtrip():
    original = parse_bench(C17_BENCH, "c17")
    again = parse_bench(write_bench(original), "c17rt")
    assert len(again.gates) == len(original.gates)
    assert len(again.dffs) == len(original.dffs)
    assert [n for n, _ in again.input_ports] == [
        n for n, _ in original.input_ports
    ]


def test_bench_dff_line():
    netlist = parse_bench(
        "INPUT(d)\nOUTPUT(q)\nq = DFF(nd)\nnd = BUF(d)\n"
    )
    assert len(netlist.dffs) == 1


def test_bench_bad_line_rejected():
    with pytest.raises(BenchFormatError):
        parse_bench("garbage line here")


def test_bench_undriven_output_rejected():
    with pytest.raises(BenchFormatError):
        parse_bench("INPUT(a)\nOUTPUT(y)\n")


def test_bench_wrong_arity_rejected():
    with pytest.raises(BenchFormatError):
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a, a)\n")


# -- levelize -----------------------------------------------------------------


def test_topo_order_respects_dependencies():
    netlist = parse_bench(C17_BENCH, "c17")
    position = {g.output: i for i, g in enumerate(topo_gates(netlist))}
    for gate in netlist.gates:
        for nid in gate.inputs:
            if nid in position:
                assert position[nid] < position[gate.output]


def test_levels_increase_along_paths():
    netlist = parse_bench(C17_BENCH, "c17")
    levels = levelize(netlist)
    for gate in netlist.gates:
        assert levels[gate.output] == 1 + max(
            levels[n] for n in gate.inputs
        )


def test_cycle_detection():
    netlist = Netlist("loop")
    from repro.netlist.netlist import Gate, Net

    netlist.nets = [Net(0, "a"), Net(1, "x"), Net(2, "y")]
    netlist.input_ports = [("a", [0])]
    netlist.gates = [
        Gate(0, GateType.AND, [0, 2], 1),
        Gate(1, GateType.AND, [1, 1], 2),
    ]
    netlist.output_ports = [("y", [2])]
    with pytest.raises(NetlistError):
        topo_gates(netlist)


def test_stats_fields(c17_netlist):
    stats = c17_netlist.stats()
    assert stats["gates"] == 6
    assert stats["dffs"] == 0
    assert stats["inputs"] == 5
    assert stats["outputs"] == 2
    assert stats["depth"] == 3


# -- pattern transpose ---------------------------------------------------------


def _unpack_oracle(patterns, ordered_nets):
    """The bit-at-a-time transpose ``unpack_patterns`` replaced."""
    width = len(ordered_nets)
    words = {nid: 0 for nid in ordered_nets}
    for lane, pattern in enumerate(patterns):
        if pattern < 0 or pattern >> width:
            raise SimulationError(
                f"pattern {pattern:#x} does not fit {width} input bits"
            )
        for j, nid in enumerate(ordered_nets):
            if (pattern >> (width - 1 - j)) & 1:
                words[nid] |= 1 << lane
    return words


@pytest.mark.parametrize("count", [0, 1, 2, 63, 64, 65, 512])
def test_unpack_patterns_matches_bitwise_oracle(count):
    rng = random.Random(count)
    for _ in range(8):
        width = rng.randint(1, 64)
        nets = rng.sample(range(10, 1000), width)
        patterns = [rng.getrandbits(width) for _ in range(count)]
        if count:
            # The all-ones and all-zeros patterns exercise both edges.
            patterns[rng.randrange(count)] = (1 << width) - 1
            patterns[rng.randrange(count)] = 0
        words = unpack_patterns(patterns, nets)
        assert words == _unpack_oracle(patterns, nets)
        assert list(words) == nets


@pytest.mark.parametrize("count", [1, 2, 65])
@pytest.mark.parametrize("bad", [-1, -5, 1 << 7, (1 << 9) + 3])
def test_unpack_patterns_rejects_like_oracle(count, bad):
    nets = list(range(7))
    patterns = [5] * count
    patterns[(count - 1) // 2] = bad
    if count > 1:
        patterns[-1] = -3  # a later offender: the first one is reported
    with pytest.raises(SimulationError) as oracle:
        _unpack_oracle(patterns, nets)
    with pytest.raises(SimulationError) as raised:
        unpack_patterns(patterns, nets)
    assert str(raised.value) == str(oracle.value)
    assert f"{bad:#x}" in str(raised.value)
