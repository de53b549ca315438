"""Plane-comparison benchmark: every single-run execution plane, timed.

For each workload — Luby MIS, (Δ+1)-colouring, BFS and proposal
matching — every plane in ``supported_planes(algorithm, batch=False)`` of
the workload's object-family and columnar-family implementations runs
the same instance through ``Network.run``.  Before any number is
reported, each plane's outputs (values *and* vertex order) and every
``NetworkMetrics`` field are asserted equal to its family's reference
executor, and the two families' references to each other, so the table
only ever compares runs that computed the same thing.

Also measured: the ``run_many`` batch API — a Luby MIS seed sweep,
serial vs a 4-process pool.

Usage::

    PYTHONPATH=src python benchmarks/bench_planes.py [--quick] [--json PATH]

``--quick`` shrinks the instances so the whole run finishes well under
30 s (the perf-smoke budget in ``scripts/perf_smoke.sh``).  Results are
written to ``BENCH_planes.json`` at the repository root; each workload
record is one ``<workload>/<plane>`` pair.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from _common import (
    available_cpus,
    bench_payload,
    fmt,
    print_table,
    workload_record,
    write_bench_json,
)

import networkx as nx

from repro.congest import Network, Trial, run_many, supported_planes
from repro.congest.algorithms import BFSTreeAlgorithm, ColumnarBFSTree
from repro.congest.classic import (
    ColumnarLubyMIS,
    ColumnarTrialColoring,
    LubyMISAlgorithm,
    ProposalMatchingAlgorithm,
    TrialColoringAlgorithm,
)
from repro.congest.runtime import reference_plane_for
from repro.graphs import random_regular_expander, triangulated_grid


def seeded_inputs(graph, seed):
    rng = random.Random(seed)
    return {v: rng.randrange(1 << 30) for v in graph.nodes}


def _best_of(repeats, runner):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        outputs, metrics = runner()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, outputs, metrics)
    return best


def implementations(kind, graph):
    """``(factories, inputs, max_rounds)`` for one workload kind: one
    algorithm factory per implementation family."""
    n = graph.number_of_nodes()
    if kind == "mis":
        horizon = 20 * max(4, n.bit_length() ** 2)
        factories = (lambda: LubyMISAlgorithm(horizon),
                     lambda: ColumnarLubyMIS(horizon))
        return factories, seeded_inputs(graph, 1), horizon + 2
    if kind == "coloring":
        delta = max(d for _, d in graph.degree)
        horizon = 40 * max(4, n.bit_length() ** 2)
        factories = (lambda: TrialColoringAlgorithm(delta + 1, horizon),
                     lambda: ColumnarTrialColoring(delta + 1, horizon))
        return factories, seeded_inputs(graph, 3), horizon + 2
    if kind == "matching":
        horizon = 40 * max(4, n.bit_length() ** 2)
        factories = (lambda: ProposalMatchingAlgorithm(horizon),)
        return factories, seeded_inputs(graph, 2), horizon + 2
    # bfs: a tight horizon keeps the run delivery-bound.
    root = next(iter(graph.nodes))
    horizon = nx.eccentricity(graph, v=root) + 3
    factories = (lambda: BFSTreeAlgorithm(root, horizon),
                 lambda: ColumnarBFSTree(root, horizon))
    return factories, None, horizon + 2


def bench_workload(name, graph, kind, repeats):
    """Time every single-run plane of every implementation of ``kind``
    on ``graph``; one workload record per plane."""
    factories, inputs, max_rounds = implementations(kind, graph)

    def run(make, plane):
        net = Network(graph)
        outputs = net.run(make(), max_rounds=max_rounds, inputs=inputs,
                          plane=plane)
        return outputs, net.metrics

    # (plane, its family's reference plane, seconds, outputs, metrics)
    timed = []
    for make in factories:
        algorithm = make()
        reference = reference_plane_for(algorithm).name
        for plane in supported_planes(algorithm, batch=False):
            seconds, outputs, metrics = _best_of(
                repeats, lambda: run(make, plane)
            )
            timed.append((plane, reference, seconds, outputs, metrics))
    by_plane = {entry[0]: entry[2:] for entry in timed}

    def check(plane, spec):
        _, outputs, metrics = by_plane[plane]
        _, spec_outputs, spec_metrics = by_plane[spec]
        if outputs != spec_outputs or list(outputs) != list(spec_outputs):
            raise AssertionError(
                f"{name}: {plane} outputs diverged from {spec}"
            )
        if metrics != spec_metrics:
            raise AssertionError(
                f"{name}: {plane} metrics diverged from {spec}: "
                f"{metrics} != {spec_metrics}"
            )

    records = []
    for plane, reference, seconds, _outputs, metrics in timed:
        check(plane, reference)
        # The families' executable specs agree with each other too.
        check(reference, "reference")
        records.append(workload_record(
            f"{name}/{plane}",
            n=graph.number_of_nodes(),
            m=graph.number_of_edges(),
            trials=repeats,
            wall_clock_s=seconds,
            rounds=metrics.rounds,
            messages=metrics.messages,
            bits=metrics.total_bits,
            plane=plane,
            reference=reference,
            speedup_vs_reference=(
                by_plane[reference][0] / seconds if seconds else 0.0
            ),
            messages_per_sec=metrics.messages / seconds if seconds else 0.0,
        ))
    return records


def bench_run_many(graph, trials, processes):
    """Serial vs multiprocessing wall clock for a Luby MIS seed sweep."""
    n = graph.number_of_nodes()
    horizon = 20 * max(4, n.bit_length() ** 2)
    jobs = [
        Trial(graph, inputs=seeded_inputs(graph, seed),
              max_rounds=horizon + 2)
        for seed in range(trials)
    ]
    start = time.perf_counter()
    serial = run_many(LubyMISAlgorithm(horizon), jobs, processes=1)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    parallel = run_many(LubyMISAlgorithm(horizon), jobs, processes=processes)
    parallel_s = time.perf_counter() - start
    for (out_s, _), (out_p, _) in zip(serial, parallel):
        if out_s != out_p:
            raise AssertionError("run_many parallel output diverged")
    return {
        "trials": trials,
        "processes": processes,
        "available_cpus": available_cpus(),
        "n": n,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "speedup": serial_s / parallel_s if parallel_s > 0 else float("inf"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small instances; finishes in well under 30 s",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="where to write the results JSON "
             "(default: BENCH_planes.json at the repo root)",
    )
    args = parser.parse_args(argv)

    # Best-of-3 so the first-run warmup (delivery-plane compilation,
    # numpy dispatch caches) doesn't pollute millisecond timings.
    if args.quick:
        workloads = [
            ("luby_mis_expander",
             random_regular_expander(512, 16, seed=2), "mis"),
            ("coloring_grid", triangulated_grid(24, 24), "coloring"),
            ("bfs_expander", random_regular_expander(1024, 8, seed=3), "bfs"),
            ("matching_grid", triangulated_grid(16, 16), "matching"),
        ]
        sweep_graph, sweep_trials = random_regular_expander(256, 8, seed=3), 8
    else:
        workloads = [
            ("luby_mis_expander_2k",
             random_regular_expander(2000, 32, seed=2), "mis"),
            ("luby_mis_expander_10k",
             random_regular_expander(10000, 16, seed=4), "mis"),
            ("coloring_grid_2k", triangulated_grid(45, 45), "coloring"),
            ("coloring_expander_4k",
             random_regular_expander(4000, 16, seed=5), "coloring"),
            ("bfs_expander_10k",
             random_regular_expander(10000, 16, seed=6), "bfs"),
            ("matching_grid_1k", triangulated_grid(32, 32), "matching"),
        ]
        sweep_graph = random_regular_expander(2000, 16, seed=3)
        sweep_trials = 16

    results = []
    for name, graph, kind in workloads:
        results.extend(bench_workload(name, graph, kind, repeats=3))

    print_table(
        "Execution planes (outputs and every metrics field asserted equal "
        "to the family's reference executor)",
        ["workload", "n", "msgs", "s", "vs ref", "msgs/s"],
        [
            [r["workload"], r["n"], r["messages"], fmt(r["wall_clock_s"], 4),
             fmt(r["speedup_vs_reference"], 2), int(r["messages_per_sec"])]
            for r in results
        ],
    )

    sweep = bench_run_many(sweep_graph, sweep_trials, processes=4)
    print_table(
        "run_many batch sweep (Luby MIS, identical outputs asserted)",
        ["trials", "n", "cpus", "serial s", "4-proc s", "speedup"],
        [[sweep["trials"], sweep["n"], sweep["available_cpus"],
          fmt(sweep["serial_s"], 3), fmt(sweep["parallel_s"], 3),
          fmt(sweep["speedup"], 2)]],
    )
    if sweep["available_cpus"] < 2:
        print(
            "note: this host exposes a single CPU, so the 4-process run "
            "can only measure pool overhead; run on a multi-core host to "
            "see the parallel speedup."
        )

    payload = bench_payload("planes", results, quick=args.quick,
                            run_many=sweep)
    path = write_bench_json("planes", payload, args.json)
    print(f"wrote {path}")
    return payload


if __name__ == "__main__":
    main()
