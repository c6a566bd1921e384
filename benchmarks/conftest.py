"""Benchmark harness configuration.

Table-regeneration benches drive the *same code paths* as the
``python -m repro table1/table2`` CLI, with budgets reduced so the suite
completes in minutes.  Set ``REPRO_BENCH_FULL=1`` to run the paper-scale
configuration (c499's 3.3k-mutant population included); rendered tables
are written to ``benchmarks/out/``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.campaign import CampaignConfig

OUT_DIR = Path(__file__).parent / "out"


def full_scale() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "") == "1"


def bench_config() -> CampaignConfig:
    if full_scale():
        return CampaignConfig(
            random_budget_comb=2048, random_budget_seq=1024,
            equivalence_budget=192,
        )
    return CampaignConfig(
        random_budget_comb=512, random_budget_seq=256,
        equivalence_budget=64,
    )


def bench_circuits() -> tuple[str, ...]:
    if full_scale():
        return ("b01", "b03", "c432", "c499")
    return ("b01", "b03", "c432")


def cpus() -> int:
    """Cores this process may run on (recorded on every BENCH row)."""
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def write_out(name: str, text: str) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / name).write_text(text + "\n")


@pytest.fixture(scope="session")
def config():
    return bench_config()


@pytest.fixture(scope="session")
def circuits():
    return bench_circuits()
