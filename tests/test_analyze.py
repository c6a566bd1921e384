"""Tests for repro.analyze: testability, pruning, prescreen, sampling.

Covers the SCOAP/constant/observability analyses on hand-built
netlists, the structural netlist linter, the soundness and
bit-identity contracts of untestable-fault pruning (including a full
campaign differential across engines and the process grid), the dead
process pre-screen, and the testability sampling strategy.
"""

import json

import pytest

from repro.analyze import (
    CHECKS,
    INF,
    analyze_testability,
    constant_nets,
    dead_processes,
    lint_netlist,
    live_signals,
    observable_nets,
    prescreen_mutants,
    split_untestable,
    untestable_reason,
)
from repro.analyze.prescreen import POSSIBLY_EQUIVALENT
from repro.analyze.prune import NEVER_ACTIVATED, PROPAGATION_BLOCKED
from repro.analyze.scoap import eval_ternary
from repro.campaign import Campaign, CampaignConfig
from repro.cli import main
from repro.errors import SamplingError
from repro.experiments.context import CircuitLab
from repro.fault.model import StuckAtFault
from repro.fault.models.seu import SeuFault
from repro.fault.models.transition import TransitionFault
from repro.hdl import load_design
from repro.mutation.generator import generate_mutants
from repro.mutation.mutant import Mutant
from repro.netlist.cells import GateType
from repro.netlist.netlist import DFF, Gate, Net, Netlist
from repro.sampling import get_strategy
from repro.sampling import TestabilitySampling as ScoapSampling

#: Tiny budgets: the full pipeline, fast (same shape as test_campaign).
FAST = dict(
    seed=77,
    random_budget_comb=96,
    random_budget_seq=96,
    equivalence_budget=32,
    max_vectors=24,
)


def raw_netlist(nets, gates=(), dffs=(), inputs=(), outputs=(), name="t"):
    """Hand-build a netlist without the folding builder.

    ``gates`` is [(GateType, [input nets], output net)], ``dffs`` is
    [(d, q, reset_value)].  No validation — the structural linter tests
    need broken netlists.
    """
    netlist = Netlist(name)
    netlist.nets = [Net(i, f"n{i}") for i in range(nets)]
    netlist.gates = [
        Gate(gid, t, list(ins), out)
        for gid, (t, ins, out) in enumerate(gates)
    ]
    netlist.dffs = [
        DFF(fid, d, q, rv, name=f"ff{fid}")
        for fid, (d, q, rv) in enumerate(dffs)
    ]
    netlist.input_ports = [(f"n{n}", [n]) for n in inputs]
    netlist.output_ports = [(f"o{n}", [n]) for n in outputs]
    return netlist


# -- ternary evaluation -------------------------------------------------------


def test_eval_ternary_controlling_values_beat_x():
    assert eval_ternary(GateType.AND, [0, None]) == 0
    assert eval_ternary(GateType.NAND, [0, None]) == 1
    assert eval_ternary(GateType.OR, [1, None]) == 1
    assert eval_ternary(GateType.NOR, [1, None]) == 0


def test_eval_ternary_x_propagates():
    assert eval_ternary(GateType.AND, [1, None]) is None
    assert eval_ternary(GateType.XOR, [1, None]) is None
    assert eval_ternary(GateType.NOT, [None]) is None


def test_eval_ternary_definite_values():
    assert eval_ternary(GateType.XOR, [1, 1]) == 0
    assert eval_ternary(GateType.XNOR, [1, 1]) == 1
    assert eval_ternary(GateType.NOT, [0]) == 1
    assert eval_ternary(GateType.CONST0, []) == 0
    assert eval_ternary(GateType.CONST1, []) == 1


# -- constant propagation -----------------------------------------------------


def test_constant_nets_combinational():
    # n1 = const0; n2 = AND(a, n1) == 0; n3 = const1; n4 = OR(a, n3) == 1
    netlist = raw_netlist(
        5,
        gates=[
            (GateType.CONST0, [], 1),
            (GateType.AND, [0, 1], 2),
            (GateType.CONST1, [], 3),
            (GateType.OR, [0, 3], 4),
        ],
        inputs=(0,),
        outputs=(2, 4),
    )
    assert constant_nets(netlist) == {1: 0, 2: 0, 3: 1, 4: 1}


def test_constant_nets_sequential_reset_stable():
    # q resets to 0 and d = AND(a, q): q can never leave 0.
    netlist = raw_netlist(
        3,
        gates=[(GateType.AND, [0, 1], 2)],
        dffs=[(2, 1, 0)],
        inputs=(0,),
        outputs=(1,),
    )
    assert constant_nets(netlist) == {1: 0, 2: 0}


def test_constant_nets_toggling_dff_is_demoted():
    # d = NOT q: the reset value does not persist, so nothing is constant.
    netlist = raw_netlist(
        2,
        gates=[(GateType.NOT, [0], 1)],
        dffs=[(1, 0, 0)],
        outputs=(0,),
    )
    assert constant_nets(netlist) == {}


# -- observability ------------------------------------------------------------


def test_observable_nets_reach_back_from_outputs():
    # n1 = NOT(a) -> output; n2 = NOT(a) cone that drives nothing.
    netlist = raw_netlist(
        3,
        gates=[(GateType.NOT, [0], 1), (GateType.AND, [0, 1], 2)],
        inputs=(0,),
        outputs=(1,),
    )
    observable = observable_nets(netlist)
    assert 0 in observable and 1 in observable
    assert 2 not in observable


def test_observable_nets_cross_dff_boundaries():
    netlist = raw_netlist(
        3,
        gates=[(GateType.NOT, [0], 1)],
        dffs=[(1, 2, 0)],
        inputs=(0,),
        outputs=(2,),
    )
    assert observable_nets(netlist) == frozenset({0, 1, 2})


# -- SCOAP --------------------------------------------------------------------


def test_scoap_and_gate_costs():
    netlist = raw_netlist(
        3,
        gates=[(GateType.AND, [0, 1], 2)],
        inputs=(0, 1),
        outputs=(2,),
    )
    analysis = analyze_testability(netlist)
    assert analysis.cc0[0] == analysis.cc1[0] == 1     # primary input
    assert analysis.cc0[2] == 2                        # one controlling 0
    assert analysis.cc1[2] == 3                        # both inputs at 1
    assert analysis.co[2] == 0                         # primary output
    assert analysis.co[0] == 2                         # hold n1=1, +1 depth
    assert analysis.difficulty(2) == 2


def test_scoap_constants_saturate():
    netlist = raw_netlist(
        1, gates=[(GateType.CONST0, [], 0)], outputs=(0,)
    )
    analysis = analyze_testability(netlist)
    assert analysis.cc0[0] == 0
    # Unreachable costs are left implicit (every lookup defaults INF).
    assert analysis.cc1.get(0, INF) == INF
    assert analysis.difficulty(0) == 0


def test_scoap_crosses_dff_boundaries():
    netlist = raw_netlist(
        2,
        dffs=[(0, 1, 0)],
        inputs=(0,),
        outputs=(1,),
    )
    analysis = analyze_testability(netlist)
    assert analysis.cc0[1] == analysis.cc1[1] == 2     # CC(d) + 1
    assert analysis.co[0] == 1                         # CO(q) + 1


def test_summary_is_json_ready(b01_netlist):
    summary = analyze_testability(b01_netlist).summary()
    assert summary["nets"] == len(b01_netlist.nets)
    assert set(summary) == {
        "nets", "constant_nets", "unobservable_nets",
        "max_difficulty", "mean_difficulty",
    }
    json.dumps(summary)


# -- structural netlist linter ------------------------------------------------


def test_lint_netlist_clean_circuit(c17_netlist):
    assert lint_netlist(c17_netlist) == []


def test_lint_netlist_multi_driven_and_undriven():
    # Two drivers on n2; n3 is read by the output port but never driven.
    netlist = raw_netlist(
        4,
        gates=[(GateType.NOT, [0], 2), (GateType.NOT, [1], 2)],
        inputs=(0, 1),
        outputs=(2, 3),
    )
    checks = [f.check for f in lint_netlist(netlist)]
    assert "multi-driven-net" in checks
    assert "undriven-net" in checks


def test_lint_netlist_combinational_cycle():
    netlist = raw_netlist(
        3,
        gates=[(GateType.AND, [0, 2], 1), (GateType.NOT, [1], 2)],
        inputs=(0,),
        outputs=(1,),
    )
    findings = [
        f for f in lint_netlist(netlist) if f.check == "combinational-cycle"
    ]
    assert {f.net for f in findings} == {"n1", "n2"}


def test_lint_netlist_dangling_and_dead_logic():
    netlist = raw_netlist(
        4,
        gates=[(GateType.NOT, [0], 1), (GateType.NOT, [0], 2),
               (GateType.NOT, [2], 3)],
        inputs=(0,),
        outputs=(1,),
    )
    findings = lint_netlist(netlist)
    dangling = [f.net for f in findings if f.check == "dangling-gate"]
    dead = [f.net for f in findings if f.check == "unobservable-logic"]
    assert dangling == ["n3"]
    assert dead == ["n2", "n3"]


def test_lint_netlist_unused_input():
    netlist = raw_netlist(
        3,
        gates=[(GateType.NOT, [0], 2)],
        inputs=(0, 1),
        outputs=(2,),
    )
    findings = lint_netlist(netlist)
    assert [f.net for f in findings if f.check == "unused-input"] == ["n1"]


def test_lint_netlist_report_order_is_severity_order():
    # One netlist with several defect classes: report follows CHECKS.
    netlist = raw_netlist(
        5,
        gates=[(GateType.NOT, [0], 2), (GateType.NOT, [1], 2),
               (GateType.NOT, [0], 3)],
        inputs=(0, 1, 4),
        outputs=(2,),
    )
    findings = lint_netlist(netlist)
    ranks = [CHECKS.index(f.check) for f in findings]
    assert ranks == sorted(ranks)
    assert len(findings) >= 3


# -- untestable-fault pruning -------------------------------------------------


def _prune_playground():
    """a -> AND with const0 (n2 == 0, observable); NOT(a) -> n3 (dead)."""
    netlist = raw_netlist(
        4,
        gates=[
            (GateType.CONST0, [], 1),
            (GateType.AND, [0, 1], 2),
            (GateType.NOT, [0], 3),
        ],
        inputs=(0,),
        outputs=(2,),
    )
    return netlist, analyze_testability(netlist)


def test_stuck_at_polarity_matters():
    netlist, analysis = _prune_playground()
    # n2 is constant 0: s-a-0 never activates, s-a-1 does (and n2 is
    # observable, being the output) so it must be kept.
    assert untestable_reason(
        StuckAtFault(net=2, stuck=0), netlist, analysis
    ) == NEVER_ACTIVATED
    assert untestable_reason(
        StuckAtFault(net=2, stuck=1), netlist, analysis
    ) is None


def test_stuck_at_unobservable_is_blocked():
    netlist, analysis = _prune_playground()
    for stuck in (0, 1):
        assert untestable_reason(
            StuckAtFault(net=3, stuck=stuck), netlist, analysis
        ) == PROPAGATION_BLOCKED


def test_branch_fault_entry_is_the_gate_output():
    netlist, analysis = _prune_playground()
    # The stem of input a reaches the output through the AND gate, but
    # the branch into the dead NOT (gate 2) enters the circuit at n3.
    assert untestable_reason(
        StuckAtFault(net=0, stuck=1), netlist, analysis
    ) is None
    assert untestable_reason(
        StuckAtFault(net=0, stuck=1, gate=2, pin=0), netlist, analysis
    ) == PROPAGATION_BLOCKED


def test_transition_fault_pruned_at_either_polarity():
    netlist, analysis = _prune_playground()
    # n2 constant (either polarity blocks a transition), n0 free.
    assert untestable_reason(
        TransitionFault(net=2, rise=True), netlist, analysis
    ) == NEVER_ACTIVATED
    assert untestable_reason(
        TransitionFault(net=2, rise=False), netlist, analysis
    ) == NEVER_ACTIVATED
    assert untestable_reason(
        TransitionFault(net=0, rise=True), netlist, analysis
    ) is None
    assert untestable_reason(
        TransitionFault(net=3, rise=True), netlist, analysis
    ) == PROPAGATION_BLOCKED


def test_seu_never_pruned_by_constancy():
    netlist, analysis = _prune_playground()
    # Flipping a constant net is still a state change: only
    # unobservability may prune an SEU.
    assert untestable_reason(
        SeuFault(net=2, cycle=0), netlist, analysis
    ) is None
    assert untestable_reason(
        SeuFault(net=3, cycle=0), netlist, analysis
    ) == PROPAGATION_BLOCKED


def test_unknown_fault_types_are_never_pruned():
    netlist, analysis = _prune_playground()
    assert untestable_reason(object(), netlist, analysis) is None


def test_split_untestable_preserves_order():
    netlist, _ = _prune_playground()
    faults = [
        StuckAtFault(net=2, stuck=0),   # pruned
        StuckAtFault(net=2, stuck=1),   # kept
        StuckAtFault(net=3, stuck=0),   # pruned
        StuckAtFault(net=0, stuck=0),   # kept
    ]
    testable, pruned = split_untestable(netlist, faults)
    assert testable == [faults[1], faults[3]]
    assert [f for f, _ in pruned] == [faults[0], faults[2]]
    assert [r for _, r in pruned] == [NEVER_ACTIVATED, PROPAGATION_BLOCKED]


def test_b01_pruned_faults_are_empirically_undetected():
    """The soundness check: simulate the pruned faults anyway."""
    lab = CircuitLab(
        "b01",
        CampaignConfig(seed=7, random_budget_seq=128, prune_untestable=True),
    )
    assert lab.pruned_faults, "b01 is expected to have untestable faults"
    victims = [fault for fault, _ in lab.pruned_faults]
    result = lab.fault_model.simulate(
        lab.netlist, lab.random_vectors, victims,
        lab.config.fault_lanes, engine=lab.config.engine,
    )
    assert all(d is None for d in result.detection)


def test_pruned_lab_results_are_bit_identical():
    config = dict(seed=7, random_budget_comb=96, random_budget_seq=96)
    off = CircuitLab("b01", CampaignConfig(**config))
    on = CircuitLab("b01", CampaignConfig(**config, prune_untestable=True))
    assert len(on.sim_faults) < len(on.faults)
    base_off, base_on = off.random_baseline, on.random_baseline
    assert base_on.detection == base_off.detection
    assert base_on.num_patterns == base_off.num_patterns
    assert len(base_on.faults) == len(base_off.faults)


@pytest.mark.parametrize("engine", ("interp", "compiled"))
def test_prune_campaign_payloads_bit_identical(engine):
    base = dict(FAST, engine=engine, strategies=("random",))
    off = Campaign(CampaignConfig(**base)).run(("b01",))
    on = Campaign(
        CampaignConfig(**base, prune_untestable=True)
    ).run(("b01",))
    assert [c.to_dict() for c in on.circuits] == [
        c.to_dict() for c in off.circuits
    ]


def test_prune_differential_c432_and_grid():
    """The ISSUE's differential: c432 + b01, serial off vs process-grid on."""
    base = dict(FAST, operators=("LOR",), strategies=())
    off = Campaign(CampaignConfig(**base)).run(("c432", "b01"))
    on = Campaign(
        CampaignConfig(
            **base, prune_untestable=True, grid="process", grid_workers=2,
        )
    ).run(("c432", "b01"))
    assert [c.to_dict() for c in on.circuits] == [
        c.to_dict() for c in off.circuits
    ]


# -- mutant pre-screen --------------------------------------------------------

DEAD_LOGIC_SOURCE = """
entity deadbox is
  port ( a, b : in bit; y : out bit );
end deadbox;
architecture rtl of deadbox is
  signal ghost : bit;
begin
  main : process (a, b)
  begin
    y <= a and b;
  end process main;
  spare : process (a, b)
  begin
    ghost <= a or b;
  end process spare;
end rtl;
"""


@pytest.fixture()
def deadbox_design():
    return load_design(DEAD_LOGIC_SOURCE, "deadbox")


def test_live_signals_exclude_dead_cone(deadbox_design):
    live = live_signals(deadbox_design)
    assert {"a", "b", "y"} <= live
    assert "ghost" not in live


def test_dead_processes_found(deadbox_design):
    assert dead_processes(deadbox_design) == frozenset({"spare"})


def test_prescreen_tags_only_dead_process_mutants(deadbox_design):
    mutants = generate_mutants(deadbox_design)
    tags = prescreen_mutants(deadbox_design, mutants)
    dead_mids = {m.mid for m in mutants if m.process_label == "spare"}
    live_mids = {m.mid for m in mutants if m.process_label != "spare"}
    assert dead_mids, "expected mutants inside the dead process"
    assert set(tags) == dead_mids
    assert all(tag == POSSIBLY_EQUIVALENT for tag in tags.values())
    assert not (set(tags) & live_mids)


def test_prescreen_empty_when_nothing_is_dead(mux_design):
    assert prescreen_mutants(mux_design, generate_mutants(mux_design)) == {}


def test_prescreen_campaign_marks_possibly_equivalent():
    off = Campaign(CampaignConfig(**FAST)).run(("b02",))
    on = Campaign(
        CampaignConfig(**FAST, static_prescreen=True)
    ).run(("b02",))
    # b02 has no dead processes, so the pre-screen must change nothing
    # except the fingerprint.
    assert [c.to_dict() for c in on.circuits] == [
        c.to_dict() for c in off.circuits
    ]


# -- testability sampling strategy --------------------------------------------


def _toy_mutants(count):
    return [
        Mutant(
            mid=i, operator="LOR", site_nid=0, replacement=None,
            description=f"m{i}", process_label="p0",
        )
        for i in range(count)
    ]


def test_testability_strategy_registered():
    assert get_strategy("testability") is ScoapSampling


def test_testability_fraction_validated():
    with pytest.raises(SamplingError):
        ScoapSampling(fraction=0.0)
    with pytest.raises(SamplingError):
        ScoapSampling(fraction=1.5)


def test_testability_uniform_fallback_is_deterministic():
    mutants = _toy_mutants(40)
    strategy = ScoapSampling(fraction=0.25)
    first = strategy.sample(mutants, 11)
    second = strategy.sample(mutants, 11)
    assert first == second
    assert len(first) == strategy.sample_size(40) == 10
    assert [m.mid for m in first] == sorted(m.mid for m in first)
    assert strategy.sample(mutants, 12) != first


def test_testability_unknown_circuit_falls_back_to_uniform():
    mutants = _toy_mutants(20)
    strategy = ScoapSampling(fraction=0.5)
    with_label = strategy.sample(mutants, 3, "no-such-circuit")
    assert len(with_label) == 10


def test_testability_weighted_draw_on_real_circuit():
    lab = CircuitLab("b01", CampaignConfig(seed=7, equivalence_budget=16))
    mutants = lab.all_mutants
    strategy = ScoapSampling(fraction=0.3)
    first = strategy.sample(mutants, 7, "b01")
    second = strategy.sample(mutants, 7, "b01")
    assert first == second
    assert len(first) == strategy.sample_size(len(mutants))
    assert set(m.mid for m in first) <= {m.mid for m in mutants}
    weights = strategy._weights(mutants, "b01")
    assert set(weights) == {m.mid for m in mutants}
    assert all(w > 0 for w in weights.values())


def test_testability_in_campaign():
    result = Campaign(
        CampaignConfig(**FAST, strategies=("testability",))
    ).run(("b01",))
    (circuit,) = result.circuits
    assert circuit.strategy("testability").strategy == "testability"


# -- CLI ----------------------------------------------------------------------


def test_cli_analyze_json_schema(capsys):
    assert main(["analyze", "c17", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["circuit"] == "c17"
    assert set(report) == {
        "circuit", "stats", "testability", "findings", "prune",
    }
    for model, entry in report["prune"].items():
        assert set(entry) == {"faults", "pruned", "reasons"}
        assert entry["pruned"] == sum(entry["reasons"].values())


def test_cli_analyze_reports_pruning_on_b01(capsys):
    assert main(["analyze", "b01", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["prune"]["stuck-at"]["pruned"] > 0
