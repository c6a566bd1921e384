"""Exact work counts of benchmark campaigns, pinned in tier-1.

Wall-time benches cannot resolve small changes on a shared host, but
how much work a campaign does is exact and host-independent: a count
that moves says that some work is now repeated or skipped.  A change
that moves a count on purpose re-pins it and says why.

The configs copy the perfbench workloads' budgets; nothing is imported
from ``perfbench/``.
"""

from __future__ import annotations

from repro.campaign import Campaign, CampaignConfig
from tests.test_grid import fresh_labs

#: The perfbench lab budgets, test-oriented strategy only.
BUDGETS = dict(
    equivalence_budget=64,
    random_budget_comb=512,
    random_budget_seq=256,
    strategies=("test-oriented",),
)


def _counters(config: CampaignConfig, circuits) -> dict:
    fresh_labs()
    campaign = Campaign(config.replace(telemetry=True))
    campaign.run(circuits)
    return campaign.last_metrics.snapshot()["counters"]


def test_grid_c432_work_counts():
    """The grid-c432 workload (comb-c432 on two process workers): the
    parent compiles the c432 netlist program once before the workers
    fork, so no worker compiles it again."""
    counters = _counters(
        CampaignConfig(**BUDGETS, grid="process", grid_workers=2),
        ("c432",),
    )
    assert counters["engine.compiled.program_builds"] == 1
    assert counters["grid.unit.done"] == 128
    assert counters["mutation.probe.passes"] == 58


#: The work counters pinned for the serial workloads.
SERIAL_COUNTERS = (
    "search.rounds",
    "search.candidates",
    "mutation.screen.pairs",
    "mutation.screen.runs",
    "mutation.screen.resumed",
    "mutation.probe.passes",
    "mutation.probe.activations",
    "engine.compiled.program_builds",
)


def _serial_counts(circuits) -> tuple[int, ...]:
    counters = _counters(CampaignConfig(**BUDGETS), circuits)
    return tuple(counters.get(name, 0) for name in SERIAL_COUNTERS)


def test_comb_c432_work_counts():
    """The comb-c432 workload, serial."""
    assert _serial_counts(("c432",)) == (
        26, 1664, 51860, 15730, 5023, 28, 1736, 1)


def test_seq_b01_b03_work_counts():
    """The seq-b01-b03 workload, serial."""
    assert _serial_counts(("b01", "b03")) == (
        67, 1608, 34301, 5587, 0, 415, 1764, 2)
