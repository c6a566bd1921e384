#!/usr/bin/env python
"""Check the default-config c499 campaign result against its pinned digest.

    python scripts/check_c499.py            # exit 1 on a mismatch
    python scripts/check_c499.py --print    # print the current digest

c499 is most of the default campaign's run time, and the benchmark's
golden digests do not cover it.  This runs ``Campaign(CampaignConfig())``
on c499 alone and hashes its ``CircuitResult.to_dict()`` the way the
benchmark hashes its payloads (sha256 of sorted-key compact JSON).  A
pass takes tens of seconds.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import Campaign, CampaignConfig  # noqa: E402

#: sha256 of the default-config c499 ``CircuitResult``.
GOLDEN = "2cfc83b9d302cae5fdaa8901af0c296b804bb65a31404411b7bcb1b3ee407a81"


def c499_digest() -> str:
    result = Campaign(CampaignConfig()).run(["c499"])
    (circuit,) = result.circuits
    canonical = json.dumps(
        circuit.to_dict(), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    digest = c499_digest()
    if argv == ["--print"]:
        print(digest)
        return 0
    if digest != GOLDEN:
        print(f"c499 digest {digest} != pinned {GOLDEN}", file=sys.stderr)
        return 1
    print(f"c499 digest matches: {digest}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
