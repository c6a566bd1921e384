"""The engine registry and backend equivalence.

The differential property test mirrors the ``sim/compiler.py`` vs
``sim/interp.py`` pinning pattern: randomized combinational and
sequential netlists (good machine and injected faults) run through
every registered backend, which must agree with the ``interp``
reference bit for bit — net words, detection words and first-detecting
patterns alike.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.engine import (
    DEFAULT_ENGINE,
    CompiledEngine,
    EngineBase,
    InterpEngine,
    build_engine,
    engine_names,
    get_engine,
    register_engine,
)
from repro.engine.base import ENGINES
from repro.errors import ConfigError, EngineError, FaultSimError
from repro.fault import (
    CombFaultSimulator,
    SeqFaultSimulator,
    StuckAtFault,
    collapse_faults,
    generate_faults,
    simulate_stuck_at,
)
from repro.netlist import CombSimulator, SeqSimulator
from repro.netlist.simulate import unpack_patterns
from repro.netlist.cells import GateType
from repro.netlist.netlist import DFF, Gate, Net, Netlist
from repro.util import rng_stream
from tests.conftest import netlist_of

ALTERNATES = [name for name in engine_names() if name != "interp"]


# -- registry ----------------------------------------------------------------


def test_registry_lists_shipped_backends():
    assert "interp" in engine_names()
    assert "compiled" in engine_names()
    assert DEFAULT_ENGINE in engine_names()
    assert get_engine("interp") is InterpEngine
    assert get_engine("compiled") is CompiledEngine


def test_cold_import_skips_numpy_and_lists_two_engines():
    """No engine needs numpy, so a fresh ``import repro.campaign`` must
    not pay for it; the registry holds one reference and one fast path."""
    import repro

    src = str(Path(repro.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}

    def run(*args: str) -> str:
        return subprocess.run(
            [sys.executable, *args], env=env, check=True,
            capture_output=True, text=True,
        ).stdout

    probe = "import sys, repro.campaign; print('numpy' in sys.modules)"
    assert run("-c", probe).strip() == "False"
    listing = run("-m", "repro", "engines").splitlines()
    names = [line.lstrip("* ").split()[0] for line in listing
             if not line.startswith("(")]
    assert sorted(names) == ["compiled", "interp"]


def test_unknown_engine_raises():
    with pytest.raises(EngineError, match="unknown simulation engine"):
        get_engine("laser")


def test_register_requires_name():
    with pytest.raises(EngineError):
        register_engine(type("Anon", (), {}))


def test_register_rejects_duplicate_names():
    """Regression: a plug-in used to silently hijack a built-in name."""

    class Impostor(EngineBase):
        name = "interp"

    with pytest.raises(EngineError, match="already registered"):
        register_engine(Impostor)
    assert get_engine("interp") is InterpEngine


def test_register_replace_escape_hatch():
    class Override(EngineBase):
        name = "interp"

    try:
        assert register_engine(Override, replace=True) is Override
        assert get_engine("interp") is Override
    finally:
        register_engine(InterpEngine, replace=True)
    assert get_engine("interp") is InterpEngine
    # Re-registering the same class stays idempotent (module re-import):
    # the shared instance and its program caches survive.
    shared = build_engine("interp")
    assert register_engine(InterpEngine) is InterpEngine
    assert build_engine("interp") is shared
    # The decorator form accepts the flag too.
    decorated = register_engine(replace=True)(InterpEngine)
    assert decorated is InterpEngine


def test_build_engine_shares_instances_by_name():
    assert build_engine("interp") is build_engine("interp")
    assert build_engine() is build_engine(DEFAULT_ENGINE)


def test_build_engine_passes_instances_through():
    private = CompiledEngine()
    assert build_engine(private) is private
    assert build_engine("compiled") is not private


def test_third_party_registration(monkeypatch):
    monkeypatch.setitem(ENGINES, "custom", InterpEngine)
    assert "custom" in engine_names()
    assert get_engine("custom") is InterpEngine


# -- random netlist generator ------------------------------------------------

_TYPES = [
    GateType.AND, GateType.OR, GateType.NAND, GateType.NOR,
    GateType.XOR, GateType.XNOR, GateType.NOT, GateType.BUF,
]


def random_netlist(rng, num_inputs=4, num_gates=24, num_dffs=0) -> Netlist:
    """A random DAG netlist (topological by construction).

    Gate inputs draw from already-created nets, so fanout (and thereby
    stem/branch fault sites) arises naturally; outputs sample any
    driven net — including, sometimes, a primary input directly.
    """
    netlist = Netlist("rand")

    def new_net(name: str) -> int:
        nid = len(netlist.nets)
        netlist.nets.append(Net(nid, name))
        return nid

    inputs = [new_net(f"i{k}") for k in range(num_inputs)]
    netlist.input_ports = [(f"i{k}", [nid]) for k, nid in enumerate(inputs)]
    available = list(inputs)
    for f in range(num_dffs):
        q = new_net(f"q{f}")
        netlist.dffs.append(
            DFF(f, d=-1, q=q, reset_value=rng.randint(0, 1), name=f"ff{f}")
        )
        available.append(q)
    for g in range(num_gates):
        gate_type = rng.choice(_TYPES)
        arity = 1 if gate_type.arity == 1 else rng.choice((2, 2, 2, 3))
        ins = [rng.choice(available) for _ in range(arity)]
        out = new_net(f"n{g}")
        netlist.gates.append(Gate(g, gate_type, ins, out))
        available.append(out)
    for dff in netlist.dffs:
        dff.d = rng.choice(available)
    outs = rng.sample(available, k=min(len(available), 3))
    netlist.output_ports = [(f"o{j}", [nid]) for j, nid in enumerate(outs)]
    netlist.validate()
    return netlist


#: Pattern counts straddling 64-bit word boundaries.
WORD_BOUNDARY_COUNTS = (1, 63, 64, 65, 127, 130)


@pytest.mark.parametrize("engine", ALTERNATES)
def test_differential_combinational(engine):
    """Random comb netlists: net words and detections match interp.

    Twenty cases draw 1-33 patterns; the rest run one word-boundary
    pattern count each.
    """
    for case in range(20 + len(WORD_BOUNDARY_COUNTS)):
        rng = rng_stream(99, "engine-diff-comb", str(case))
        netlist = random_netlist(
            rng, num_inputs=rng.randint(2, 6), num_gates=rng.randint(1, 30)
        )
        faults = collapse_faults(netlist)
        width = len(netlist.input_bits)
        count = (
            rng.randint(1, 33) if case < 20
            else WORD_BOUNDARY_COUNTS[case - 20]
        )
        patterns = [rng.getrandbits(width) for _ in range(count)]
        reference = CombFaultSimulator(
            netlist, faults, engine="interp"
        ).simulate(patterns)
        candidate = CombFaultSimulator(
            netlist, faults, engine=engine
        ).simulate(patterns)
        # Identical first-detecting pattern per fault (None included).
        assert candidate.detection == reference.detection, f"case {case}"
        # Identical net words from the good-machine evaluators.
        mask = (1 << len(patterns)) - 1
        words = unpack_patterns(patterns, netlist.input_bits)
        ref_words = CombSimulator(netlist, "interp").evaluate(words, mask)
        cand_words = CombSimulator(netlist, engine).evaluate(words, mask)
        assert cand_words == ref_words, f"case {case}"


@pytest.mark.parametrize("engine", ALTERNATES)
def test_differential_sequential(engine):
    """Random seq netlists: injected fault machines match interp."""
    for case in range(10):
        rng = rng_stream(99, "engine-diff-seq", str(case))
        netlist = random_netlist(
            rng,
            num_inputs=rng.randint(2, 5),
            num_gates=rng.randint(4, 24),
            num_dffs=rng.randint(1, 4),
        )
        faults = collapse_faults(netlist)
        width = len(netlist.input_bits)
        stimuli = [
            rng.getrandbits(width) for _ in range(rng.randint(1, 24))
        ]
        # Odd lane widths force multi-chunk injection plans.
        lanes = rng.choice((3, 7, 64, 256))
        reference = SeqFaultSimulator(
            netlist, faults, lanes=lanes, engine="interp"
        ).simulate(stimuli)
        candidate = SeqFaultSimulator(
            netlist, faults, lanes=lanes, engine=engine
        ).simulate(stimuli)
        assert candidate.detection == reference.detection, f"case {case}"
        ref_out = SeqSimulator(netlist, engine="interp").run_packed(stimuli)
        cand_out = SeqSimulator(netlist, engine=engine).run_packed(stimuli)
        assert cand_out == ref_out, f"case {case}"


def random_seq_netlist(rng) -> Netlist:
    """A random sequential netlist with the cycle kernel's edge cases.

    Outputs: a primary input, the last gate's output (a combinational
    cone) and a flip-flop output.  The first DFF's ``d`` is wired
    straight to a primary input, the second's (if any) to a Q.
    """
    netlist = random_netlist(
        rng,
        num_inputs=rng.randint(1, 5),
        num_gates=rng.randint(1, 24),
        num_dffs=rng.randint(1, 4),
    )
    inputs = netlist.input_bits
    qs = [dff.q for dff in netlist.dffs]
    netlist.dffs[0].d = rng.choice(inputs)
    if len(qs) > 1:
        netlist.dffs[1].d = rng.choice(qs)
    outs = [rng.choice(inputs), netlist.gates[-1].output, rng.choice(qs)]
    netlist.output_ports = [
        (f"o{j}", [nid]) for j, nid in enumerate(dict.fromkeys(outs))
    ]
    netlist.validate()
    return netlist


class _KernelLog:
    """A shared engine whose cycle kernels log every word tuple returned."""

    def __init__(self, name: str):
        self.name = name
        self._engine = build_engine(name)
        self.words: list[tuple] = []

    def cycle(self, netlist, plan=None, observe=None):
        def logged(fn):
            def run(inputs, state, mask):
                words = fn(inputs, state, mask)
                self.words.append(tuple(words))
                return words
            return run

        return tuple(
            logged(fn) for fn in self._engine.cycle(netlist, plan, observe)
        )


def check_seq_kernel_random(seed: int) -> dict:
    """``interp`` vs ``compiled`` on one random sequential netlist.

    Every sequential fault model runs its whole uncollapsed universe
    (Q-stem and DFF-branch stuck-at faults included) at an odd lane
    width on both backends, and the detection cycles must match; then
    both backends' cycle kernels, with and without a stuck-at plan,
    must return the same words for one random cycle, observed on every
    net.  Last, every model runs again at the default width (the whole
    universe in one word) on both backends: every kernel call must
    return the same words on both, and the detections must equal the
    odd-width ones.
    """
    from repro.fault.models import build_fault_model

    rng = rng_stream(seed, "seq-kernel-diff")
    netlist = random_seq_netlist(rng)
    width = len(netlist.input_bits)
    stimuli = [rng.getrandbits(width) for _ in range(rng.randint(1, 24))]
    lanes = rng.choice((1, 3, 7, 64))
    faults_checked = 0
    models = ("stuck-at", "transition", "seu")
    detections = {}
    for model_name in models:
        model = build_fault_model(model_name)
        faults = model.generate(netlist)
        reference = model.simulate(
            netlist, stimuli, faults, lanes=lanes, engine="interp"
        ).detection
        candidate = model.simulate(
            netlist, stimuli, faults, lanes=lanes, engine="compiled"
        ).detection
        assert candidate == reference, (
            f"seed {seed}: {model_name} detections differ at lanes={lanes}"
        )
        detections[model_name] = reference
        faults_checked += len(faults)
    faults = generate_faults(netlist)[:61]
    plan = SeqFaultSimulator(netlist, faults)._compile(faults)
    observe = list(netlist.input_bits) + [dff.q for dff in netlist.dffs]
    observe += [gate.output for gate in netlist.gates]
    rng.shuffle(observe)
    mask = (1 << len(faults)) - 1
    inputs = tuple(rng.getrandbits(61) & mask for _ in netlist.input_bits)
    state = tuple(rng.getrandbits(61) & mask for _ in netlist.dffs)
    for chunk_plan in (None, plan):
        reference = build_engine("interp").cycle(
            netlist, chunk_plan, tuple(observe))
        candidate = build_engine("compiled").cycle(
            netlist, chunk_plan, tuple(observe))
        for ref_fn, cand_fn in zip(reference, candidate):
            assert cand_fn(inputs, state, mask) == ref_fn(
                inputs, state, mask), f"seed {seed}: kernel words differ"
    for model_name in models:
        model = build_fault_model(model_name)
        faults = model.generate(netlist)
        logs = (_KernelLog("interp"), _KernelLog("compiled"))
        reference, candidate = (
            model.simulate(netlist, stimuli, faults, engine=log).detection
            for log in logs
        )
        assert logs[0].words and logs[1].words == logs[0].words, (
            f"seed {seed}: {model_name} kernel words differ at the "
            f"default width"
        )
        assert candidate == reference == detections[model_name], (
            f"seed {seed}: {model_name} detections differ at the default "
            f"width"
        )
    return {"faults": faults_checked}


def test_differential_sequential_models_on_random_netlists():
    """Stuck-at, transition and SEU: compiled kernels match interp."""
    faults = 0
    for seed in range(24):
        faults += check_seq_kernel_random(seed)["faults"]
    assert faults > 0


@pytest.mark.parametrize("engine", ALTERNATES)
@pytest.mark.parametrize("name", ["c17", "c432", "b01"])
def test_differential_real_circuits(engine, name):
    netlist = netlist_of(name)
    rng = rng_stream(7, "engine-diff", name)
    width = len(netlist.input_bits)
    vectors = [rng.getrandbits(width) for _ in range(32)]
    reference = simulate_stuck_at(netlist, vectors, engine="interp")
    candidate = simulate_stuck_at(netlist, vectors, engine=engine)
    assert candidate.detection == reference.detection
    assert candidate.num_patterns == reference.num_patterns


def _interp_diff_words(netlist, faults, patterns):
    """Good words, mask and ``interp``'s per-fault difference words."""
    mask = (1 << len(patterns)) - 1
    reference = build_engine("interp")
    good = reference.eval_full(
        netlist, unpack_patterns(patterns, netlist.input_bits), mask
    )
    words = [
        reference.fault_diff(netlist, fault, good, mask) for fault in faults
    ]
    return good, mask, words


@functools.lru_cache(maxsize=None)
def _real_circuit_reference(name: str, count: int):
    """interp's words for ``count`` random patterns, shared per engine."""
    netlist = netlist_of(name)
    rng = rng_stream(4242, "engine-batch", name, str(count))
    width = len(netlist.input_bits)
    patterns = [rng.getrandbits(width) for _ in range(count)]
    return _interp_diff_words(netlist, collapse_faults(netlist), patterns)


@pytest.mark.parametrize("engine", ALTERNATES)
@pytest.mark.parametrize("count", [1, 96, 700])
@pytest.mark.parametrize("name", ["c432", "c499"])
def test_batched_fault_diff_matches_interp_words(name, count, engine):
    """Batched and per-fault difference words equal interp's, word by word.

    Whole words, not first-detect indices: a later-lane difference
    would hide behind an identical first detection.  At 700 patterns
    the compiled backend packs its fanout-free-region stems into
    several flip passes.
    """
    netlist = netlist_of(name)
    faults = collapse_faults(netlist)
    good, mask, reference = _real_circuit_reference(name, count)
    candidate = build_engine(engine)
    assert candidate.fault_diff_batch(netlist, faults, good, mask) == reference
    looped = [
        candidate.fault_diff(netlist, fault, good, mask) for fault in faults
    ]
    assert looped == reference


def _ffr_edge_netlist() -> Netlist:
    """A hand-built netlist exercising every fanout-free-region edge.

    ``a`` drives both pins of one gate; ``c`` does too, through an
    XNOR, so a fault on ``c`` is masked inside its region; ``b`` is a
    primary output that also fans out; ``i2`` is a primary input that
    is also a primary output and a gate input; ``i4`` is wired
    straight to an output; ``e`` is dangling; ``i0`` is a stem whose
    loads carry branch faults.
    """
    netlist = Netlist("ffr-edges")
    names = ["i0", "i1", "i2", "i3", "i4", "a", "b", "c", "m", "d", "e"]
    netlist.nets = [Net(nid, name) for nid, name in enumerate(names)]
    net = {name: nid for nid, name in enumerate(names)}
    netlist.input_ports = [(f"i{k}", [net[f"i{k}"]]) for k in range(5)]
    for gid, (gate_type, ins, out) in enumerate([
        (GateType.NAND, ["i0", "i1"], "a"),
        (GateType.OR, ["a", "a"], "b"),
        (GateType.XOR, ["i2", "i3"], "c"),
        (GateType.XNOR, ["c", "c"], "m"),
        (GateType.AND, ["b", "m"], "d"),
        (GateType.NOT, ["i0"], "e"),
    ]):
        netlist.gates.append(
            Gate(gid, gate_type, [net[n] for n in ins], net[out])
        )
    netlist.output_ports = [
        (name, [net[name]]) for name in ("b", "d", "i2", "i4")
    ]
    netlist.validate()
    return netlist


def test_compiled_ffr_structure_of_edge_netlist():
    netlist = _ffr_edge_netlist()
    program = CompiledEngine()._program(netlist)
    name = netlist.net_name
    assert sorted(name(n) for n in program.single_load) == [
        "a", "c", "i1", "i3", "m",
    ]
    assert sorted(name(n) for n in program.stems) == [
        "b", "d", "e", "i0", "i2", "i4",
    ]


@pytest.mark.parametrize("engine", ALTERNATES)
def test_fault_diff_ffr_edge_cases_match_interp(engine):
    netlist = _ffr_edge_netlist()
    # Branch faults on the one gate load of the fanning-out output b.
    b = next(n.nid for n in netlist.nets if n.name == "b")
    faults = generate_faults(netlist) + [
        StuckAtFault(net=b, stuck=stuck, gate=4, pin=0) for stuck in (0, 1)
    ]
    # Exhaustive over the five inputs.
    good, mask, reference = _interp_diff_words(
        netlist, faults, list(range(32))
    )
    candidate = build_engine(engine)
    assert candidate.fault_diff_batch(netlist, faults, good, mask) == reference
    for fault, word in zip(faults, reference):
        assert candidate.fault_diff(netlist, fault, good, mask) == word
    # The XNOR(c, c) region masks every fault on c although it activates.
    c = next(n.nid for n in netlist.nets if n.name == "c")
    masked = [f for f in faults if f.is_stem and f.net == c]
    assert len(masked) == 2
    for fault in masked:
        assert good[c] != (mask if fault.stuck else 0)
        assert reference[faults.index(fault)] == 0
    # Branch faults on the loads of stems i0 and b are present and seen;
    # a and c carry one per pin of their single load gate.
    branch_nets = {
        netlist.net_name(f.net) for f in faults if f.gate is not None
    }
    assert branch_nets == {"a", "b", "c", "i0"}
    assert any(
        word for fault, word in zip(faults, reference)
        if fault.gate is not None and netlist.net_name(fault.net) == "i0"
    )


@pytest.mark.parametrize("engine", engine_names())
def test_fault_diff_batch_rejects_unknown_gate(engine):
    netlist = _ffr_edge_netlist()
    good, mask, _ = _interp_diff_words(netlist, [], list(range(32)))
    bogus = StuckAtFault(net=0, stuck=0, gate=99, pin=0)
    candidate = build_engine(engine)
    with pytest.raises(FaultSimError, match="unknown gate"):
        candidate.fault_diff_batch(
            netlist, generate_faults(netlist) + [bogus], good, mask
        )


def test_compiled_cache_reuse_is_consistent():
    """Repeated runs through the shared compiled engine stay identical."""
    netlist = netlist_of("c17")
    rng = rng_stream(3, "engine-cache")
    width = len(netlist.input_bits)
    vectors = [rng.getrandbits(width) for _ in range(16)]
    first = simulate_stuck_at(netlist, vectors, engine="compiled")
    second = simulate_stuck_at(netlist, vectors, engine="compiled")
    assert first.detection == second.detection


def test_campaign_results_identical_across_engines():
    """Table 1 / Table 2 numbers never depend on the backend.

    The archived JSON embeds the config (which records the engine by
    design); the computed ``circuits`` payload must match bit for bit.
    """
    import json

    from repro.campaign.config import CampaignConfig
    from repro.campaign.runner import Campaign

    payloads = {}
    for engine in ("interp", "compiled"):
        config = CampaignConfig(
            engine=engine, random_budget_comb=128, random_budget_seq=64,
            equivalence_budget=16, max_vectors=16,
        )
        result = Campaign(config).run(("c17",))
        payloads[engine] = json.loads(result.to_json())["circuits"]
    assert payloads["interp"] == payloads["compiled"]


def test_campaign_payload_identical_on_c432_and_b01():
    """The whole pipeline (synth -> mutants -> search -> fault
    validation -> metrics) on one comb and one seq paper circuit must
    produce byte-identical science on the compiled backend."""
    import json

    from repro.campaign.config import CampaignConfig
    from repro.campaign.runner import Campaign

    payloads = {}
    for engine in ("interp", "compiled"):
        config = CampaignConfig(
            engine=engine,
            random_budget_comb=128,
            random_budget_seq=64,
            equivalence_budget=16,
            max_vectors=16,
            operators=("LOR", "CR"),
        )
        result = Campaign(config).run(("c432", "b01"))
        payloads[engine] = json.loads(result.to_json())["circuits"]
    assert payloads["compiled"] == payloads["interp"]


# -- configuration surface ---------------------------------------------------


def test_campaign_config_carries_engine():
    from repro.campaign.config import CampaignConfig

    config = CampaignConfig(engine="interp", fault_lanes=17)
    assert config.lab_config().engine == "interp"
    assert config.lab_config().fault_lanes == 17
    roundtrip = CampaignConfig.from_json(config.to_json())
    assert roundtrip.engine == "interp"
    assert roundtrip.fault_lanes == 17


def test_campaign_config_rejects_unknown_engine():
    from repro.campaign.config import CampaignConfig

    with pytest.raises(ConfigError, match="engine"):
        CampaignConfig(engine="laser")
    with pytest.raises(ConfigError, match="fault_lanes"):
        CampaignConfig(fault_lanes=0)


def test_engine_and_lanes_in_fingerprint():
    from repro.campaign.config import CampaignConfig

    base = CampaignConfig()
    assert base.fingerprint() != CampaignConfig(engine="interp").fingerprint()
    assert base.fingerprint() != CampaignConfig(fault_lanes=8).fingerprint()


#: ``CampaignConfig().fingerprint()`` while ``fault_lanes`` defaulted to
#: 256: every default-config cache and job-store entry carries it.
DEFAULT_FINGERPRINT = "277af5b819ed5c35"


def test_unset_fault_lanes_keeps_the_default_fingerprint():
    from repro.campaign.config import CampaignConfig

    assert CampaignConfig().fault_lanes is None
    assert CampaignConfig().fingerprint() == DEFAULT_FINGERPRINT
    assert CampaignConfig(fault_lanes=256).fingerprint() == (
        DEFAULT_FINGERPRINT
    )


def test_unset_fault_lanes_round_trips():
    from repro.campaign.config import CampaignConfig

    config = CampaignConfig(engine="interp")
    assert config.to_dict()["fault_lanes"] is None
    assert CampaignConfig.from_dict(config.to_dict()) == config
    text = config.to_json()
    assert json.loads(text)["fault_lanes"] is None
    assert CampaignConfig.from_json(text) == config
    assert config.lab_config().fault_lanes is None
