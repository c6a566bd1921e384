"""Pinned digests of the default-config campaign on the sequential circuits.

``Campaign(CampaignConfig())`` on the paper's sequential circuits runs
every RTL fast path (the mutant schema, the infection screen, the
clock-edge scheduler) and the sequential fault simulator under the
default knobs.  Each ``CircuitResult.to_dict()`` is hashed the way
``scripts/check_c499.py`` and the benchmark hash their payloads
(sha256 of sorted-key compact JSON); a change to any of those paths
that moves a result fails here.  Re-pin only for a change meant to
move results, and say why.
"""

import hashlib
import json

import pytest

from repro import Campaign, CampaignConfig

#: sha256 of each circuit's default-config ``CircuitResult``.
GOLDEN = {
    "b01": "c1627e873c13b827862032d5da75eb9c0302ccd0c9ed141b6c20509c8cdea9da",
    "b02": "e84f40bfc155d48db3e4a0de4225fcad9d9c0c33c5137123fd822745db3df98d",
    "b03": "e14492e12b881a270fd3874972241c7aca99539e455d2173bc6eeb5e5c581642",
    "b06": "a93251eac7f26056de1865162d47c8f85ee2507467b04831c8986ec46bcb2e03",
}


@pytest.fixture(scope="module")
def default_results():
    result = Campaign(CampaignConfig()).run(sorted(GOLDEN))
    return {circuit.circuit: circuit for circuit in result.circuits}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_default_campaign_digest_is_pinned(default_results, name):
    canonical = json.dumps(
        default_results[name].to_dict(), sort_keys=True,
        separators=(",", ":"),
    )
    digest = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
    assert digest == GOLDEN[name]
