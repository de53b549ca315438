"""Lemmas 2.2 / 2.5 / 2.6: the information-gathering primitives.

Series regenerated:

* delivery fraction and measured rounds of both routers at several miss
  targets f (the Lemma 2.2 and Lemma 2.5 guarantees);
* the Lemma 2.6 shared schedule: one seed serving many disjoint
  clusters, with the aggregate delivery bound;
* **the variable-width columnar router ablation** — the Lemma 2.5
  schedule execution (walk-token forwarding over fG⋄) run as real
  message passing on the object plane vs the columnar plane's
  ``VarColumn`` payload pools, plus the Lemma 2.5 schedule broadcast
  (description + k coefficients, a length-varying payload).  Outputs,
  output keying, and every ``NetworkMetrics`` counter are asserted
  byte-identical across the object plane, the columnar plane, and the
  per-message columnar reference — and equal to the centralized
  :func:`simulate_walks` — before any number is reported.

Usage::

    PYTHONPATH=src python benchmarks/bench_gathering.py [--quick] [--json PATH]

``--quick`` shrinks the instances so the whole run finishes in a few
seconds (the perf-smoke budget); ``BENCH_gathering.quick.json`` is the
committed regression baseline swept by
``scripts/check_bench_regression.py --all``.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import networkx as nx

from _common import bench_payload, fmt, print_table, write_bench_json

from repro.gathering import (
    broadcast_schedule,
    execute_walk_schedule,
    find_shared_walk_schedule,
    find_walk_schedule,
    gather_with_load_balancing,
    gather_with_random_walks,
    schedule_hash,
    simulate_walks,
)
from repro.gathering.random_walks import _find_walk_schedule_full
from repro.graphs import constant_degree_expander


def counters(metrics):
    return (metrics.rounds, metrics.messages, metrics.total_bits,
            metrics.max_edge_bits_in_round)


def _best_of(repeats, runner):
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        value = runner()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best[0]:
            best = (elapsed, value)
    return best


# ---------------------------------------------------------------------------
# Router-vs-f series (Lemmas 2.2 / 2.5)
# ---------------------------------------------------------------------------
def bench_backends_vs_f(n, targets, phi_hint):
    graph = constant_degree_expander(n)
    sink = max(graph.nodes, key=lambda v: graph.degree[v])
    total = 2 * graph.number_of_edges()

    rows = []
    records = []
    for f in targets:
        start = time.perf_counter()
        lb = gather_with_load_balancing(graph, sink, f=f)
        delivered, rw_rounds, schedule = gather_with_random_walks(
            graph, sink, f=f, phi_hint=phi_hint
        )
        elapsed = time.perf_counter() - start
        rw_fraction = len(delivered) / total
        assert lb.delivered_fraction >= 1 - f - 1e-9
        assert rw_fraction >= 1 - f - 1e-9
        rows.append([
            f, fmt(lb.delivered_fraction), lb.rounds,
            fmt(rw_fraction), rw_rounds, schedule.seed,
            schedule.schedule_bits,
        ])
        # Uniform schema: rounds are the measured router rounds (both
        # backends, sequentially); this series accounts delivered
        # tokens rather than per-edge messages/bits.
        records.append({
            "workload": f"gather_f_{f}",
            "n": graph.number_of_nodes(),
            "m": graph.number_of_edges(),
            "trials": 1,
            "wall_clock_s": elapsed,
            "rounds": lb.rounds + rw_rounds,
            "messages": None,
            "bits": None,
            "f": f,
            "lb_delivered": lb.delivered_fraction,
            "rw_delivered": rw_fraction,
            "schedule_bits": schedule.schedule_bits,
        })
    print_table(
        f"Lemmas 2.2/2.5 — gather ≥ (1−f) of 2|E| messages "
        f"({n}-vertex constant-degree expander)",
        ["f", "LB delivered", "LB rounds", "RW delivered", "RW rounds",
         "RW seed", "schedule bits"],
        rows,
    )
    return records


# ---------------------------------------------------------------------------
# Variable-width columnar router ablation (the PR-5 headline)
# ---------------------------------------------------------------------------
def bench_walk_router_planes(n, repeats, f, phi_hint, independence):
    """Execute one found schedule on three planes; assert byte-identity
    (and equality to the centralized simulation) before reporting."""
    graph = constant_degree_expander(n)
    sink = max(graph.nodes, key=lambda v: graph.degree[v])
    schedule, _, regular, origins = _find_walk_schedule_full(
        graph, sink, f=f, phi_hint=phi_hint, independence=independence
    )
    expected = simulate_walks(
        regular, origins, schedule_hash(schedule),
        schedule.walks_per_message, schedule.steps,
    )

    def run(plane):
        return execute_walk_schedule(
            regular, origins, schedule, plane=plane
        )

    object_s, object_out = _best_of(
        max(1, repeats - 2), lambda: run("broadcast")
    )
    columnar_s, columnar_out = _best_of(repeats, lambda: run("columnar"))
    reference_s, reference_out = _best_of(
        1, lambda: run("columnar-reference")
    )

    for name, outcome in (("broadcast", object_out),
                          ("columnar", columnar_out),
                          ("columnar-reference", reference_out)):
        if outcome["final"] != expected["final"] or (
            outcome["discarded"] != expected["discarded"]
            or outcome["max_load"] != expected["max_load"]
        ):
            raise AssertionError(
                f"walk router on the {name} plane diverged from "
                f"simulate_walks"
            )
    if not (counters(object_out["metrics"])
            == counters(columnar_out["metrics"])
            == counters(reference_out["metrics"])):
        raise AssertionError("walk router plane metrics diverged")

    metrics = columnar_out["metrics"]
    speedup = object_s / columnar_s if columnar_s > 0 else float("inf")
    return {
        "workload": f"walk_router_{n}",
        "n": regular.split.n_split,
        "m": regular.split.split.number_of_edges(),
        "trials": repeats,
        "wall_clock_s": columnar_s,
        "rounds": metrics.rounds,
        "messages": metrics.messages,
        "bits": metrics.total_bits,
        "object_plane_s": object_s,
        "columnar_reference_s": reference_s,
        "engine_s": columnar_s,
        "speedup_vs_object": speedup,
        "walks": len(origins) * schedule.walks_per_message,
        "steps": schedule.steps,
        "messages_per_sec_columnar":
            metrics.messages / columnar_s if columnar_s else 0.0,
    }


def bench_schedule_flood(n, repeats):
    """The Lemma 2.5 schedule broadcast (description + coefficients — a
    length-varying payload) across planes."""
    graph = constant_degree_expander(n)
    sink = max(graph.nodes, key=lambda v: graph.degree[v])
    schedule, _ = find_walk_schedule(graph, sink, f=0.4, phi_hint=0.4,
                                     independence=8)

    def run(plane):
        return broadcast_schedule(
            graph, sink, schedule, model="local", plane=plane,
            include_coefficients=True,
        )

    object_s, (object_out, object_metrics) = _best_of(
        repeats, lambda: run("broadcast")
    )
    columnar_s, (columnar_out, columnar_metrics) = _best_of(
        repeats, lambda: run("columnar")
    )
    if object_out != columnar_out or (
        counters(object_metrics) != counters(columnar_metrics)
    ):
        raise AssertionError("schedule flood planes diverged")
    return {
        "workload": f"schedule_flood_{n}",
        "n": graph.number_of_nodes(),
        "m": graph.number_of_edges(),
        "trials": repeats,
        "wall_clock_s": columnar_s,
        "rounds": columnar_metrics.rounds,
        "messages": columnar_metrics.messages,
        "bits": columnar_metrics.total_bits,
        "object_plane_s": object_s,
        "engine_s": columnar_s,
        "speedup_vs_object":
            object_s / columnar_s if columnar_s > 0 else float("inf"),
        "payload_length": 5 + schedule.k,
    }


# ---------------------------------------------------------------------------
# Lemma 2.6: one schedule shared by disjoint clusters
# ---------------------------------------------------------------------------
def bench_shared_schedule(cluster_count=4, size=8):
    clusters = []
    sinks = []
    for index in range(cluster_count):
        offset = index * 100
        cluster = nx.relabel_nodes(
            nx.complete_graph(size), {i: i + offset for i in range(size)}
        )
        clusters.append(cluster)
        sinks.append(offset)
    total = 2 * sum(g.number_of_edges() for g in clusters)
    f = 0.25
    start = time.perf_counter()
    schedule, delivered = find_shared_walk_schedule(
        clusters, sinks, f=f, phi_hint=0.4
    )
    elapsed = time.perf_counter() - start
    aggregate = sum(len(d) for d in delivered) / total
    assert aggregate >= 1 - f - 1e-9
    print_table(
        "Lemma 2.6 — one shared schedule for disjoint clusters",
        ["clusters", "shared seed", "aggregate delivery", "schedule bits",
         "execution rounds"],
        [[cluster_count, schedule.seed, fmt(aggregate),
          schedule.schedule_bits, schedule.execution_rounds()]],
    )
    return {
        "workload": f"shared_schedule_{cluster_count}x{size}",
        "n": cluster_count * size,
        "m": sum(g.number_of_edges() for g in clusters),
        "trials": 1,
        "wall_clock_s": elapsed,
        "rounds": schedule.execution_rounds(),
        "messages": None,
        "bits": None,
        "aggregate_delivery": aggregate,
        "schedule_bits": schedule.schedule_bits,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick", action="store_true",
        help="small instances; finishes in a few seconds",
    )
    parser.add_argument(
        "--json", type=Path, default=None,
        help="where to write the results JSON "
             "(default: BENCH_gathering.json at the repo root)",
    )
    args = parser.parse_args(argv)

    records = []
    if args.quick:
        records += bench_backends_vs_f(32, [0.25], phi_hint=0.4)
        router_records = [
            bench_walk_router_planes(24, repeats=3, f=0.4, phi_hint=0.5,
                                     independence=8),
        ]
        records += router_records
        records.append(bench_schedule_flood(24, repeats=3))
    else:
        records += bench_backends_vs_f(48, [0.4, 0.25, 0.1], phi_hint=0.15)
        router_records = [
            bench_walk_router_planes(24, repeats=3, f=0.4, phi_hint=0.5,
                                     independence=8),
            bench_walk_router_planes(48, repeats=3, f=0.4, phi_hint=0.4,
                                     independence=8),
        ]
        records += router_records
        records.append(bench_schedule_flood(48, repeats=3))
        records.append(bench_shared_schedule())

    plane_rows = [
        [r["workload"], r["n"], r["messages"],
         fmt(r["object_plane_s"], 4),
         fmt(r.get("columnar_reference_s"), 4),
         fmt(r["engine_s"], 4), fmt(r["speedup_vs_object"], 2)]
        for r in records if "speedup_vs_object" in r
    ]
    print_table(
        "Variable-width columnar routers vs the object plane "
        "(byte-identical outputs and metrics asserted, incl. the "
        "per-message columnar reference and simulate_walks)",
        ["workload", "n", "msgs", "object s", "ref s", "columnar s",
         "vs object"],
        plane_rows,
    )

    geo_mean = statistics.geometric_mean(
        [r["speedup_vs_object"] for r in router_records]
    )
    payload = bench_payload(
        "gathering",
        records,
        quick=args.quick,
        geomean_router_speedup_vs_object=geo_mean,
    )
    path = write_bench_json("gathering", payload, args.json)
    print(f"geomean walk-router speedup vs object plane: {geo_mean:.2f}x")
    print(f"wrote {path}")
    return payload


if __name__ == "__main__":
    main()
