"""The repro.search subsystem: registry, corpus, budget, strategies,
generator integration and the campaign search block."""

import pytest

from repro.campaign import Campaign, CampaignConfig
from repro.circuits import load_circuit
from repro.errors import ConfigError, SearchError
from repro.experiments.search_compare import run_search_compare
from repro.mutation import MutationEngine, generate_mutants
from repro.search import (
    Corpus,
    SearchBudget,
    build_search_strategy,
    get_search_strategy,
    search_strategy_names,
)
from repro.testgen import MutationTestGenerator, RandomVectorGenerator
from tests.test_testgen import verify_kills

ALL_STRATEGIES = ("anneal", "bitflip", "genetic", "random")


# -- registry ----------------------------------------------------------------


def test_registry_has_builtins():
    assert set(search_strategy_names()) >= set(ALL_STRATEGIES)
    assert get_search_strategy("bitflip").name == "bitflip"
    with pytest.raises(SearchError):
        get_search_strategy("not-a-strategy")


def test_build_rejects_unknown_knobs():
    with pytest.raises(SearchError, match="temperature"):
        build_search_strategy(
            "bitflip", width=8, seed=1, knobs={"temperature": 2.0}
        )


def test_build_rejects_reserved_knobs():
    # Builder-owned parameters must fail like unknown names, not leak
    # through to a TypeError at construction.
    with pytest.raises(SearchError, match="width"):
        build_search_strategy(
            "bitflip", width=8, seed=1, knobs={"width": 4}
        )


def test_instance_strategy_geometry_is_checked():
    # A pre-built instance must match the design's chunk geometry.
    design = load_circuit("b01")
    wrong = build_search_strategy("bitflip", width=4, seed=1)  # cycles=1
    generator = MutationTestGenerator(design, seed=5, strategy=wrong)
    with pytest.raises(SearchError, match="cycles"):
        generator.generate(generate_mutants(design, ["LOR"]))


def test_build_forwards_knobs():
    strategy = build_search_strategy(
        "genetic", width=8, seed=1, knobs={"population_size": 4}
    )
    assert strategy.corpus.capacity == 4


def test_strategy_rejects_bad_geometry():
    with pytest.raises(SearchError):
        build_search_strategy("random", width=0, seed=1)
    with pytest.raises(SearchError):
        build_search_strategy(
            "random", width=8, seed=1, field_widths=(3, 3)
        )
    with pytest.raises(SearchError):
        build_search_strategy("random", width=8, seed=1, cycles=0)


# -- budget ------------------------------------------------------------------


def test_budget_validation():
    with pytest.raises(SearchError):
        SearchBudget(max_candidates=0)


def test_budget_exhaustion_and_clamp():
    budget = SearchBudget(max_candidates=100)
    assert not budget.exhausted(99)
    assert budget.exhausted(100)
    assert budget.clamp(64, 80) == 20
    assert SearchBudget().clamp(64, 10**9) == 64
    assert not SearchBudget().exhausted(10**9)


# -- corpus ------------------------------------------------------------------


def test_corpus_add_and_dedupe():
    corpus = Corpus(capacity=4)
    assert not corpus.add(1, 0)          # unscored vectors are rejected
    assert corpus.add(1, 3)
    assert corpus.add(1, 5)              # re-add keeps the higher score
    assert len(corpus) == 1
    assert corpus.best().score == 5


def test_corpus_eviction_keeps_strong_entries():
    corpus = Corpus(capacity=2)
    corpus.add(1, 5)
    corpus.add(2, 1)
    assert corpus.add(3, 4)              # evicts the score-1 entry
    vectors = {entry.vector for entry in corpus.entries}
    assert vectors == {1, 3}
    assert not corpus.add(4, 1)          # weaker than everything kept


def test_corpus_empty_raises_domain_errors():
    """Regression: best() on an empty corpus leaked max()'s bare
    ValueError; both accessors now raise the same domain error."""
    corpus = Corpus()
    with pytest.raises(IndexError, match="empty corpus"):
        corpus.best()
    with pytest.raises(IndexError, match="empty corpus"):
        corpus.pick(object())


def test_corpus_pick_deterministic():
    from repro.util.rng import rng_stream

    def picks():
        corpus = Corpus()
        for vector, score in [(10, 3), (20, 1), (30, 7)]:
            corpus.add(vector, score)
        rng = rng_stream(5, "corpus-test")
        return [corpus.pick(rng) for _ in range(20)]

    first, second = picks(), picks()
    assert first == second
    assert set(first) <= {10, 20, 30}
    assert len(set(first)) > 1           # the schedule rotates seeds


# -- strategies --------------------------------------------------------------


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_propose_in_range_and_deterministic(name):
    def run():
        strategy = build_search_strategy(
            name, width=12, seed=9, labels=("t", "search"),
            field_widths=(4, 8),
        )
        out = []
        for _ in range(4):
            batch = strategy.propose(16)
            assert len(batch) == 16
            assert all(0 <= v < 2**12 for v in batch)
            # Score a deterministic subset to drive the guided paths.
            strategy.feedback(batch, [i % 3 for i in range(len(batch))])
            out.extend(batch)
        return out

    assert run() == run()


def test_random_strategy_matches_pinned_generator():
    strategy = build_search_strategy(
        "random", width=16, seed=42, labels=("c17", "mutation-testgen"),
    )
    reference = RandomVectorGenerator(16, 42, "c17", "mutation-testgen")
    assert strategy.propose(32) == reference.vectors(32)


def test_random_strategy_chunked_matches_pinned_generator():
    # cycles=3 packs three per-cycle draws per proposal, in draw order.
    strategy = build_search_strategy(
        "random", width=4, seed=42, labels=("b01", "mutation-testgen"),
        cycles=3,
    )
    reference = RandomVectorGenerator(4, 42, "b01", "mutation-testgen")
    for packed in strategy.propose(5):
        expected = reference.vectors(3)
        assert [
            (packed >> (4 * (2 - i))) & 0xF for i in range(3)
        ] == expected


@pytest.mark.parametrize("name", ("anneal", "bitflip", "genetic"))
def test_guided_strategies_learn_from_corpus(name):
    strategy = build_search_strategy(
        name, width=16, seed=3, labels=("t",), knobs={"explore": 0.0}
    )
    seeds = strategy.propose(8)
    strategy.feedback(seeds, [5] * len(seeds))
    assert strategy.corpus
    follow_up = strategy.propose(8)
    assert all(0 <= v < 2**16 for v in follow_up)


# -- generator integration ---------------------------------------------------


@pytest.mark.parametrize("name", ("bitflip", "genetic"))
def test_comb_generation_kills_what_it_claims(name):
    design = load_circuit("c17")
    mutants = generate_mutants(design)
    generator = MutationTestGenerator(
        design, seed=5, max_vectors=64, strategy=name
    )
    result = generator.generate(mutants)
    assert result.vectors
    assert result.kill_fraction > 0.8
    verify_kills(design, mutants, result)


def test_seq_generation_kills_what_it_claims():
    design = load_circuit("b01")
    mutants = generate_mutants(design, ["LOR", "CR"])
    generator = MutationTestGenerator(
        design, seed=5, max_vectors=96, strategy="bitflip"
    )
    result = generator.generate(mutants)
    assert result.vectors
    assert result.kill_fraction > 0.5
    verify_kills(design, mutants, result)


@pytest.mark.parametrize("name", ALL_STRATEGIES)
def test_generation_respects_candidate_budget(name):
    design = load_circuit("c17")
    mutants = generate_mutants(design)
    generator = MutationTestGenerator(
        design, seed=5, max_vectors=64, strategy=name,
        search_budget=SearchBudget(max_candidates=100),
    )
    result = generator.generate(mutants)
    assert 0 < result.candidates_tried <= 100


def test_sequential_feedback_receives_the_proposals():
    # Regression: the generator must feed back the packed chunk it was
    # handed, not a per-cycle fragment of it.
    from repro.search import SearchStrategy, build_search_strategy

    class Spy(SearchStrategy):
        name = "spy"

        def __init__(self, inner):
            self._inner = inner
            self.proposed = []
            self.fed_back = []

        def propose(self, count):
            batch = self._inner.propose(count)
            self.proposed.extend(batch)
            return batch

        def feedback(self, vectors, scores):
            self.fed_back.extend(vectors)

    design = load_circuit("b01")
    width = MutationEngine(design).encoder.width
    spy = Spy(build_search_strategy(
        "random", width=width, seed=5,
        labels=(design.name, "mutation-testgen"), cycles=4,
    ))
    MutationTestGenerator(
        design, seed=5, strategy=spy,
        search_budget=SearchBudget(max_candidates=96),
    ).generate(generate_mutants(design, ["LOR"]))
    assert spy.fed_back
    assert set(spy.fed_back) <= set(spy.proposed)


def test_genetic_honors_shared_corpus():
    shared = Corpus(capacity=8)
    strategy = build_search_strategy(
        "genetic", width=8, seed=1, knobs={"population_size": 4}
    )
    assert strategy.corpus.capacity == 4
    from repro.search import GeneticSearch

    adopted = GeneticSearch(8, 1, corpus=shared)
    assert adopted.corpus is shared


def test_generation_deterministic_with_search():
    design = load_circuit("b01")
    mutants = generate_mutants(design, ["LOR"])
    runs = [
        MutationTestGenerator(
            design, seed=9, strategy="genetic",
            search_budget=SearchBudget(max_candidates=200),
        ).generate(mutants)
        for _ in range(2)
    ]
    assert runs[0].vectors == runs[1].vectors
    assert runs[0].killed_mids == runs[1].killed_mids


# -- the acceptance comparison ----------------------------------------------


@pytest.fixture(scope="module")
def equal_budget_rows():
    """c432 + b01 at an equal 512-candidate budget, shipped seed."""
    return run_search_compare(
        circuits=("c432", "b01"),
        strategies=("random", "bitflip", "genetic"),
        budget=512,
    )


def test_guided_strategies_match_or_beat_random(equal_budget_rows):
    killed = {
        (row.circuit, row.strategy): row.killed for row in equal_budget_rows
    }
    for circuit in ("c432", "b01"):
        for name in ("bitflip", "genetic"):
            assert killed[(circuit, name)] >= killed[(circuit, "random")], (
                f"{name} on {circuit}: {killed[(circuit, name)]} < "
                f"random's {killed[(circuit, 'random')]}"
            )


def test_search_compare_reproducible(equal_budget_rows):
    again = run_search_compare(
        circuits=("c432", "b01"),
        strategies=("random", "bitflip", "genetic"),
        budget=512,
    )
    assert [
        (r.circuit, r.strategy, r.candidates, r.vectors, r.killed)
        for r in again
    ] == [
        (r.circuit, r.strategy, r.candidates, r.vectors, r.killed)
        for r in equal_budget_rows
    ]


# -- campaign integration ----------------------------------------------------

FAST = dict(
    seed=77,
    random_budget_comb=96,
    random_budget_seq=96,
    equivalence_budget=32,
    max_vectors=24,
)


def test_config_search_block_roundtrip_and_fingerprint():
    config = CampaignConfig(
        **FAST, search="bitflip", search_budget=256,
        search_knobs={"explore": 0.5},
    )
    assert CampaignConfig.from_json(config.to_json()) == config
    base = CampaignConfig(**FAST)
    assert config.fingerprint() != base.fingerprint()
    assert base.fingerprint() != CampaignConfig(
        **FAST, search_budget=512
    ).fingerprint()


def test_config_rejects_bad_search_block():
    with pytest.raises(ConfigError):
        CampaignConfig(search="not-a-strategy")
    with pytest.raises(ConfigError):
        CampaignConfig(search_budget=0)
    with pytest.raises(ConfigError):
        CampaignConfig.from_dict({"search_stale_rounds": 0})


def test_config_folds_stale_rounds_into_stall_rounds():
    """An archived stale-round cap loads as the ``stall_rounds`` it
    tightened; an unset one changes nothing."""
    assert CampaignConfig.from_dict({"search_stale_rounds": None}) == (
        CampaignConfig()
    )
    assert CampaignConfig.from_dict({"search_stale_rounds": 2}) == (
        CampaignConfig(stall_rounds=2)
    )
    assert CampaignConfig.from_dict(
        {"search_stale_rounds": 9, "stall_rounds": 3}
    ) == CampaignConfig(stall_rounds=3)


def test_config_rejects_zero_random_budgets():
    # Fail at config time, not minutes later inside the lab's baseline
    # generation (whose vectors() now rejects non-positive counts).
    with pytest.raises(ConfigError):
        CampaignConfig(random_budget_comb=0)
    with pytest.raises(ConfigError):
        CampaignConfig(random_budget_seq=0)


def test_default_pipeline_uses_search_stage():
    assert "search" in CampaignConfig().stages
    assert "testgen" not in CampaignConfig().stages


def test_testgen_stage_is_search_alias():
    config = CampaignConfig(**FAST)
    legacy = config.replace(
        stages=tuple(
            "testgen" if stage == "search" else stage
            for stage in config.stages
        )
    )
    new = Campaign(config).run(("c17",))
    old = Campaign(legacy).run(("c17",))
    assert [c.to_dict() for c in new.circuits] == [
        c.to_dict() for c in old.circuits
    ]


def test_campaign_search_parallel_matches_serial():
    config = dict(
        **FAST, search="bitflip", search_budget=192,
        strategies=("random",), operators=("LOR",),
    )
    serial = Campaign(CampaignConfig(**config, jobs=1)).run(("c17", "b01"))
    parallel = Campaign(CampaignConfig(**config, jobs=4)).run(("c17", "b01"))
    assert [c.to_dict() for c in parallel.circuits] == [
        c.to_dict() for c in serial.circuits
    ]


def test_cli_search_flags(capsys):
    from repro.cli import main

    assert main(["strategies"]) == 0
    out = capsys.readouterr().out
    for name in ALL_STRATEGIES:
        assert name in out

    assert main([
        "testgen", "c17", "--seed", "5", "--max-vectors", "16",
        "--search", "bitflip", "--search-budget", "128",
    ]) == 0
    assert "vectors kill" in capsys.readouterr().out


def test_cli_search_compare(tmp_path, capsys):
    import json

    from repro.cli import main

    out_path = tmp_path / "rows.json"
    assert main([
        "search-compare", "--circuits", "c17",
        "--strategies", "random", "bitflip", "--budget", "96",
        "--max-vectors", "16", "--random-budget", "96",
        "--equivalence-budget", "32", "--json", str(out_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "equal candidate budget" in out
    rows = json.loads(out_path.read_text())
    assert {row["strategy"] for row in rows} == {"random", "bitflip"}
