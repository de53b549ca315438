#!/usr/bin/env python
"""Fault-matrix smoke: zero-fault identity on every registered plane,
and the pinned bytes of the fault schedules.

The keystone contract of ``repro.congest.runtime.faults``: running with a
zero-rate :class:`~repro.congest.FaultPlan` goes through the fault seams
(crash check, fate pass, delay buffer, counters folded) yet must be
**byte-identical** — outputs, output ordering, and every
``NetworkMetrics`` field — to running with no plan at all.  A zero-rate
knob draws no uniforms and builds no fate mask, so the identity holds by
construction; this script checks it anyway.  It re-verifies that matrix
standalone, one row per plane registered in ``repro.congest.runtime``,
with four columns:

* **zero-fault identity** — zero-rate plan ≡ no plan;
* **faulty determinism** — the same seeded plan (all five fault knobs:
  crash, drop, dup, delay, corrupt) twice must reproduce the same
  outputs and fault tallies;
* **adversary determinism** — ditto for each targeted-adversary plan
  (``degree:frac``, ``cut``, ``budget`` selectors plus Byzantine
  corruption), and the sweep must actually corrupt something;
* **wrapper identity** — with the ack/retransmit recovery wrapper
  (:mod:`repro.congest.runtime.recovery`) installed, a zero-rate plan
  must still be byte-identical to no plan at all.

Determinism alone would not notice a change that shifts every schedule
consistently, so the script then recomputes the golden digests of
``tests/fault_golden.py`` (each knob alone and combined, the targeted
adversaries, the recovery wrapper, heterogeneous grid batches) and fails
on any mismatch.

The deep cross-plane differentials live in ``tests/test_runtime.py``
(coverage-enforced per registered plane); this is the quick CI face of
the same contract, runnable anywhere::

    PYTHONPATH=src python scripts/check_fault_identity.py

Exit status is non-zero if any plane breaks identity or determinism, or
any fault schedule moves off its golden digest.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from repro.congest import (
    ColumnarReliable,
    FaultPlan,
    Network,
    ReliableNodeAlgorithm,
    Trial,
    plane_names,
    run_many,
)
from repro.congest.classic import ColumnarLubyMIS, LubyMISAlgorithm
from repro.congest.runtime.planes import get_plane
from repro.graphs import triangulated_grid

from fault_golden import CASES, GOLDEN, case_digest

FAULT_SAMPLE_WORKLOADS = {
    "object": lambda horizon: LubyMISAlgorithm(horizon),
    "columnar": lambda horizon: ColumnarLubyMIS(horizon),
}

# The recovery wrapper must be just as transparent to the zero-fault
# identity contract as the bare algorithm (retries=1 keeps the window,
# and hence the run, short).
WRAPPED_WORKLOADS = {
    "object": lambda horizon: ReliableNodeAlgorithm(
        LubyMISAlgorithm(horizon), retries=1
    ),
    "columnar": lambda horizon: ColumnarReliable(
        ColumnarLubyMIS(horizon), retries=1
    ),
}
WRAPPER_WINDOW = 4  # physical rounds per logical round at retries=1

FAULTY_PLAN = FaultPlan(
    seed=7, crash=0.03, drop=0.2, dup=0.1, delay=2, corrupt=0.15
)

# Targeted adversaries: every selector from faults.py, plus Byzantine
# corruption stacked on loss.  Each must replay byte-identically and
# the sweep as a whole must actually corrupt at least one message.
ADVERSARY_PLANS = (
    FaultPlan(seed=11, corrupt=0.3, drop=0.1),
    FaultPlan(seed=13, drop=0.4, corrupt=0.2, target="degree:0.3"),
    FaultPlan(seed=17, drop=0.5, corrupt=0.25, target="cut"),
    FaultPlan(seed=19, drop=0.3, corrupt=0.2, target="budget"),
)


def seeded_inputs(graph, seed):
    rng = random.Random(seed)
    return {v: rng.randrange(1 << 30) for v in graph.nodes}


def run_plane(name, factory, graph, horizon, faults, max_rounds=None):
    """(outputs-as-list-of-pairs, metrics) for one plane run."""
    plane = get_plane(name)
    if max_rounds is None:
        max_rounds = horizon + 2
    if plane.batch_only:
        trials = [
            Trial(graph, inputs=seeded_inputs(graph, 21),
                  max_rounds=max_rounds, faults=faults)
        ]
        [(outputs, metrics)] = run_many(
            factory(horizon), trials, processes=1, plane=name
        )
        return list(outputs.items()), metrics
    net = Network(graph)
    outputs = net.run(
        factory(horizon), max_rounds=max_rounds,
        inputs=seeded_inputs(graph, 21), plane=name, faults=faults,
    )
    return list(outputs.items()), net.metrics


def main():
    graph = triangulated_grid(5, 5)
    horizon = 20 * max(4, graph.number_of_nodes().bit_length() ** 2)
    failures = 0
    print(f"{'plane':<20} {'zero-fault identity':<20} "
          f"{'faulty determinism':<20} {'adversary determinism':<22} "
          f"{'wrapper identity':<20}")
    print("-" * 104)
    for name in plane_names():
        plane = get_plane(name)
        factory = FAULT_SAMPLE_WORKLOADS.get(plane.kind)
        if factory is None:
            print(f"{name:<20} NO SAMPLE WORKLOAD for kind "
                  f"{plane.kind!r} — add one to FAULT_SAMPLE_WORKLOADS")
            failures += 1
            continue

        bare = run_plane(name, factory, graph, horizon, None)
        zeroed = run_plane(name, factory, graph, horizon, FaultPlan())
        identity = "ok" if zeroed == bare else "MISMATCH"

        first = run_plane(name, factory, graph, horizon, FAULTY_PLAN)
        second = run_plane(name, factory, graph, horizon, FAULTY_PLAN)
        bit = (first[1].dropped + first[1].delayed + first[1].crashed
               + first[1].corrupted > 0)
        determinism = ("ok" if first == second and bit
                       else "MISMATCH" if first != second
                       else "PLAN DID NOTHING")

        corrupted = 0
        adversary = "ok"
        for plan in ADVERSARY_PLANS:
            one = run_plane(name, factory, graph, horizon, plan)
            two = run_plane(name, factory, graph, horizon, plan)
            if one != two:
                adversary = "MISMATCH"
                break
            corrupted += one[1].corrupted
        if adversary == "ok" and not corrupted:
            adversary = "PLANS DID NOTHING"

        wrapped = WRAPPED_WORKLOADS[plane.kind]
        wrapped_rounds = WRAPPER_WINDOW * horizon + 2
        bare_w = run_plane(name, wrapped, graph, horizon, None,
                           max_rounds=wrapped_rounds)
        zeroed_w = run_plane(name, wrapped, graph, horizon, FaultPlan(),
                             max_rounds=wrapped_rounds)
        wrapper = "ok" if zeroed_w == bare_w else "MISMATCH"

        failures += ((identity != "ok") + (determinism != "ok")
                     + (adversary != "ok") + (wrapper != "ok"))
        print(f"{name:<20} {identity:<20} {determinism:<20} "
              f"{adversary:<22} {wrapper:<20}")
    print(f"\n{'golden schedule':<36} digest")
    print("-" * 48)
    for name in CASES:
        verdict = "ok" if case_digest(name) == GOLDEN.get(name) else "MISMATCH"
        failures += verdict != "ok"
        print(f"{name:<36} {verdict}")
    if failures:
        print(f"\nFAIL: {failures} fault-matrix check(s) broken")
        return 1
    print("\nall planes: zero-fault identity, faulty/adversary determinism,"
          " and wrapper identity hold; every fault schedule matches its"
          " golden digest")
    return 0


if __name__ == "__main__":
    sys.exit(main())
