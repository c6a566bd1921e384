#!/usr/bin/env python3
"""The paper's full flow: validation data as a free structural pre-test.

1. high-level mutation testing produces validation data;
2. the data are fault-simulated on the synthesized netlist (the "free"
   structural coverage of the paper's introduction);
3. PODEM targets only the faults the validation data leave undetected;
4. the deterministic effort is compared with an ATPG-only run.

Run:  python examples/validation_reuse_flow.py [comb-circuit]
"""

import sys

from repro import CampaignConfig, generate_mutants, load_circuit
from repro.experiments.context import get_lab
from repro.testgen import MutationTestGenerator, Podem, reverse_order_compaction


def main() -> None:
    circuit = sys.argv[1] if len(sys.argv) > 1 else "c432"
    design = load_circuit(circuit)
    if design.is_sequential:
        raise SystemExit("pick a combinational circuit (c17/c432/c499)")
    lab = get_lab(circuit, CampaignConfig(random_budget_comb=512))

    print(f"== {circuit}: {lab.netlist.stats()['gates']} gates, "
          f"{len(lab.faults)} collapsed faults ==")

    # Step 1: validation data from the whole mutant population.
    mutants = generate_mutants(design)
    data = MutationTestGenerator(
        design, seed=7, engine=lab.engine, max_vectors=160
    ).generate(mutants)
    print(f"validation data: {len(data.vectors)} vectors "
          f"(kill {100 * data.kill_fraction:.1f}% of {len(mutants)} mutants)")

    # Step 2: free structural coverage.
    preload = lab.fault_sim(data.vectors)
    print(f"free stuck-at coverage: {100 * preload.coverage():.2f}%")

    # Step 3: deterministic top-up on the remainder (a tight backtrack
    # limit bounds the per-fault effort; aborted faults are reported).
    podem = Podem(lab.netlist, backtrack_limit=24)
    remaining = preload.undetected_faults()
    topup = podem.run(remaining)
    print(
        f"ATPG top-up: {len(remaining)} target faults, "
        f"{topup.total_decisions} decisions, "
        f"{topup.total_backtracks} backtracks, "
        f"{len(topup.vectors)} extra vectors "
        f"({topup.redundant} redundant, {topup.aborted} aborted)"
    )

    # Baseline: ATPG from scratch.
    scratch = podem.run(lab.faults)
    print(
        f"ATPG-only baseline: {scratch.total_decisions} decisions, "
        f"{scratch.total_backtracks} backtracks, "
        f"{len(scratch.vectors)} vectors"
    )
    saved = scratch.total_decisions - topup.total_decisions
    print(f"=> validation reuse saves {saved} PODEM decisions "
          f"({100 * saved / max(scratch.total_decisions, 1):.0f}%)")

    # Bonus: compaction of the combined set.
    combined = data.vectors + topup.vectors
    compacted = reverse_order_compaction(lab.netlist, combined, lab.faults)
    final = lab.fault_sim(compacted)
    print(
        f"final test set: {len(combined)} -> {len(compacted)} vectors "
        f"after compaction at {100 * final.coverage():.2f}% coverage"
    )


if __name__ == "__main__":
    main()
