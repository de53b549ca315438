"""The benchmark's four closed-loop workloads.

Each workload derives every graph, input, rng and fault-plan seed from
the benchmark seed, and splits its work into

* ``differential()`` — a small run of its algorithms on the
  ``columnar-reference`` plane against the plane it measures;
* ``setup()`` — everything a user pays once per graph before round 1:
  generation or streaming, the CSR compile and the delivery arrays
  (timed as ``setup_s``);
* ``prepare()`` — untimed per-trial inputs and horizons;
* ``run()`` — one iteration: every run and trial of the workload, from
  the first round to outputs in their public form (timed as ``run_s``);
* ``validate()`` — per-trial output checks, made on the first iteration.

Every library call goes through its module attribute (``network.Network``,
``batch.run_many``, ...) so the tracer's wrappers see it.
"""

from __future__ import annotations

import os
import random
import re
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

import networkx as nx
import numpy as np

from repro.congest import algorithms, classic, network, validators
from repro.congest.runtime import batch, recovery
from repro.congest.runtime import compile as compile_mod
from repro.congest.runtime.faults import FaultPlan
from repro.congest.runtime.fabric import coordinator
from repro.congest.runtime.rng import RngPlan
from repro.graphs import generators, streaming

from perfbench import checks


@dataclass
class Outcome:
    """One trial's public result and the spec its messages used."""

    outputs: dict
    metrics: object
    spec: object


def subseed(seed: int, tag: str) -> int:
    """A 31-bit seed for one named input, derived from the run seed."""
    state = np.random.SeedSequence([seed, zlib.crc32(tag.encode())])
    return int(state.generate_state(1)[0] >> 1)


def vertex_inputs(graph, seed: int) -> dict:
    """Per-vertex input seeds (the exact-rng streams are keyed by them)."""
    rng = random.Random(seed)
    return {v: rng.randrange(1 << 30) for v in graph.nodes}


def counters(metrics) -> tuple:
    return (metrics.rounds, metrics.messages, metrics.total_bits,
            metrics.max_edge_bits_in_round, metrics.dropped,
            metrics.duplicated, metrics.delayed, metrics.crashed,
            metrics.corrupted, metrics.crashed_vertices)


def differential(cases, grid: bool) -> list[str | None]:
    """Run each ``(label, graph, make_algorithm, run_kwargs)`` case on the
    ``columnar-reference`` plane and on the ``columnar`` plane, and with
    ``grid`` also as a two-trial ``run_many(plane="grid")``.  Outputs
    (and their order) and every metrics counter must agree.  Returns one
    problem (or ``None``) per case."""
    problems = []
    for label, graph, make_algorithm, kwargs in cases:
        seen = {}
        for plane in ("columnar-reference", "columnar"):
            net = network.Network(graph)
            outputs = net.run(make_algorithm(), plane=plane, **kwargs)
            seen[plane] = [(list(outputs.items()), counters(net.metrics))]
        if grid:
            trial = batch.Trial(graph, **kwargs)
            seen["grid"] = [
                (list(outputs.items()), counters(metrics))
                for outputs, metrics in batch.run_many(
                    make_algorithm(), [trial, trial], processes=1,
                    plane="grid")
            ]
        expected = seen.pop("columnar-reference")[0]
        wrong = [plane for plane, results in seen.items()
                 if any(result != expected for result in results)]
        problems.append(f"{label}: {', '.join(wrong)} differs from "
                        f"columnar-reference" if wrong else None)
    return problems


def mis_horizon(n: int) -> int:
    return 20 * max(4, n.bit_length() ** 2)


class Workload:
    name = ""
    #: Whether the measured runs go through the grid plane.
    grid = False
    #: Seconds spent starting helper processes (fabric workers).
    spawn_s = 0.0

    def __init__(self, seed: int, root: Path) -> None:
        self.seed = seed

    def differential(self) -> list[str | None]:
        return differential(self.differential_cases(), self.grid)

    def differential_cases(self) -> list:
        raise NotImplementedError

    def setup(self):
        raise NotImplementedError

    def prepare(self, state) -> None:
        pass

    def reference(self, state) -> list[Outcome] | None:
        """Outcomes every measured iteration must equal byte for byte, or
        ``None`` to take the first measured iteration as the reference."""
        return None

    def run(self, state) -> list[Outcome]:
        raise NotImplementedError

    def validate(self, state, outcomes) -> list[str | None]:
        raise NotImplementedError

    def run_counters(self) -> dict:
        """Extra per-iteration counters for the traced run."""
        return {}

    def helper_cpu_s(self) -> float:
        """CPU seconds used so far by helper processes (fabric workers)."""
        return 0.0

    def close(self) -> None:
        pass


class StreamMIS(Workload):
    """Streamed power-law graph, vectorized-rng Luby MIS then BFS."""

    name = "stream-mis"
    N = 1 << 18
    M = 4 * N
    BFS_HORIZON = 16

    def differential_cases(self):
        n = 2048
        topology = compile_mod.compile_edge_stream(
            streaming.stream_powerlaw_edges(
                n, 4 * n, seed=subseed(self.seed, "diff-graph")), n)
        plan = RngPlan("vectorized", seed=subseed(self.seed, "diff-rng"))
        return [
            ("stream-mis/mis", topology,
             lambda: classic.ColumnarLubyMIS(mis_horizon(n)),
             {"max_rounds": mis_horizon(n) + 2, "rng": plan}),
            ("stream-mis/bfs", topology,
             lambda: algorithms.ColumnarBFSTree(0, self.BFS_HORIZON),
             {"max_rounds": self.BFS_HORIZON + 2}),
        ]

    def setup(self):
        topology = compile_mod.compile_edge_stream(
            streaming.stream_powerlaw_edges(
                self.N, self.M, seed=subseed(self.seed, "graph")),
            self.N)
        compile_mod.delivery_plane(topology)
        return topology

    def run(self, topology):
        horizon = mis_horizon(self.N)
        mis = classic.ColumnarLubyMIS(horizon)
        net = network.Network(topology)
        mis_out = net.run(
            mis, max_rounds=horizon + 2, plane="columnar",
            rng=RngPlan("vectorized", seed=subseed(self.seed, "rng")),
        )
        outcomes = [Outcome(mis_out, net.metrics, mis.spec)]
        bfs = algorithms.ColumnarBFSTree(0, self.BFS_HORIZON)
        net = network.Network(topology)
        bfs_out = net.run(bfs, max_rounds=self.BFS_HORIZON + 2,
                          plane="columnar")
        outcomes.append(Outcome(bfs_out, net.metrics, bfs.spec))
        return outcomes

    def validate(self, topology, outcomes):
        mis, bfs = outcomes
        return [
            checks.mis_problem(mis.outputs, topology),
            checks.bfs_problem(bfs.outputs, topology, 0, self.BFS_HORIZON),
        ]


class GridSweep(Workload):
    """Many exact-rng trials on distinct expanders through the grid plane."""

    name = "grid-sweep"
    grid = True
    N = 2048
    DEGREE = 8
    TRIALS = 16

    def differential_cases(self):
        graph = generators.random_regular_expander(
            128, self.DEGREE, seed=subseed(self.seed, "diff-graph"))
        inputs = vertex_inputs(graph, subseed(self.seed, "diff-inputs"))
        horizon = mis_horizon(128)
        return [
            ("grid-sweep/mis", graph,
             lambda: classic.ColumnarLubyMIS(horizon),
             {"max_rounds": horizon + 2, "inputs": inputs}),
            ("grid-sweep/coloring", graph,
             lambda: classic.ColumnarTrialColoring(self.DEGREE + 1,
                                                   2 * horizon),
             {"max_rounds": 2 * horizon + 2, "inputs": inputs}),
            ("grid-sweep/bfs", graph,
             lambda: algorithms.ColumnarBFSTree(0, 12),
             {"max_rounds": 14}),
        ]

    def setup(self):
        graphs = []
        for t in range(self.TRIALS):
            graph = generators.random_regular_expander(
                self.N, self.DEGREE, seed=subseed(self.seed, f"graph-{t}"))
            compile_mod.delivery_plane(compile_mod.compile_topology(graph))
            graphs.append(graph)
        return {"graphs": graphs}

    def prepare(self, state):
        graphs = state["graphs"]
        state["inputs"] = [
            vertex_inputs(g, subseed(self.seed, f"inputs-{t}"))
            for t, g in enumerate(graphs)
        ]
        state["bfs_horizon"] = max(
            nx.eccentricity(g, v=0) for g in graphs) + 3

    def algorithms(self, state):
        horizon = mis_horizon(self.N)
        return [
            (classic.ColumnarLubyMIS(horizon), True, horizon),
            (classic.ColumnarTrialColoring(self.DEGREE + 1, 2 * horizon),
             True, 2 * horizon),
            (algorithms.ColumnarBFSTree(0, state["bfs_horizon"]), False,
             state["bfs_horizon"]),
        ]

    def run(self, state):
        outcomes = []
        for algorithm, seeded, horizon in self.algorithms(state):
            trials = [
                batch.Trial(g, inputs=inputs if seeded else None,
                            max_rounds=horizon + 2)
                for g, inputs in zip(state["graphs"], state["inputs"])
            ]
            results = batch.run_many(algorithm, trials, processes=1,
                                     plane="grid")
            outcomes.extend(Outcome(out, metrics, algorithm.spec)
                            for out, metrics in results)
        return outcomes

    def validate(self, state, outcomes):
        graphs = state["graphs"]
        t = len(graphs)
        problems = []
        for i, outcome in enumerate(outcomes):
            graph = graphs[i % t]
            topology = compile_mod.compile_topology(graph)
            if i < t:
                problems.append(checks.mis_problem(outcome.outputs, topology))
            elif i < 2 * t:
                problems.append(checks.coloring_problem(
                    outcome.outputs, topology, self.DEGREE + 1))
            else:
                report = validators.check_bfs_tree(graph, outcome.outputs, 0)
                problems.append(None if report.holds else
                                f"BFS: {report.details[:1]}")
        return problems


class FaultyRecovery(Workload):
    """Ack/retransmit recovery under message faults, grid-batched."""

    name = "faulty-recovery"
    grid = True
    DROP = 0.1
    DELAY = 2
    RETRIES = 2
    TRIALS = 4

    @staticmethod
    def restarting_bfs(grid, root):
        """The wrapped BFS factory and its round cap."""
        horizon = 3 * (nx.eccentricity(grid, v=root) + 3) + 12
        return (
            lambda: recovery.ColumnarReliable(
                algorithms.ColumnarRestartingBFS(root, horizon),
                retries=FaultyRecovery.RETRIES),
            6 * horizon + 2,
        )

    @staticmethod
    def self_healing_mis(n):
        """The wrapped MIS factory and its round cap."""
        bits = n.bit_length()
        luby, repair = 6 * bits, 4 * bits + 8
        return (
            lambda: recovery.ColumnarReliable(
                classic.ColumnarSelfHealingMIS(luby, repair),
                retries=FaultyRecovery.RETRIES),
            6 * (luby + repair + 1) + 2,
        )

    def drop(self, tag):
        return FaultPlan(seed=subseed(self.seed, tag), drop=self.DROP)

    def delay(self, tag):
        return FaultPlan(seed=subseed(self.seed, tag), delay=self.DELAY)

    def differential_cases(self):
        grid = generators.triangulated_grid(6, 6)
        expander = generators.random_regular_expander(
            48, 6, seed=subseed(self.seed, "diff-graph"))
        make_bfs, bfs_cap = self.restarting_bfs(grid, next(iter(grid.nodes)))
        make_mis, mis_cap = self.self_healing_mis(48)
        return [
            ("faulty-recovery/bfs", grid, make_bfs,
             {"max_rounds": bfs_cap, "faults": self.drop("diff-drop")}),
            ("faulty-recovery/mis", expander, make_mis,
             {"max_rounds": mis_cap, "faults": self.delay("diff-delay"),
              "inputs": vertex_inputs(
                  expander, subseed(self.seed, "diff-inputs"))}),
        ]

    def setup(self):
        grid = generators.triangulated_grid(16, 16)
        expanders = [
            generators.random_regular_expander(
                256, 8, seed=subseed(self.seed, f"graph-{t}"))
            for t in range(self.TRIALS)
        ]
        for graph in (grid, *expanders):
            compile_mod.delivery_plane(compile_mod.compile_topology(graph))
        return {"grid": grid, "expanders": expanders}

    def prepare(self, state):
        grid, expanders = state["grid"], state["expanders"]
        state["root"] = root = next(iter(grid.nodes))
        make_bfs, bfs_cap = self.restarting_bfs(grid, root)
        make_mis, mis_cap = self.self_healing_mis(256)
        state["sweeps"] = [
            (make_bfs, [
                batch.Trial(grid, max_rounds=bfs_cap,
                            faults=self.drop(f"drop-{t}"))
                for t in range(self.TRIALS)
            ]),
            (make_mis, [
                batch.Trial(expander, max_rounds=mis_cap,
                            faults=self.delay(f"delay-{t}"),
                            inputs=vertex_inputs(
                                expander, subseed(self.seed, f"inputs-{t}")))
                for t, expander in enumerate(expanders)
            ]),
        ]

    def run(self, state):
        outcomes = []
        for make_algorithm, trials in state["sweeps"]:
            algorithm = make_algorithm()
            results = batch.run_many(algorithm, trials, processes=1,
                                     plane="grid")
            outcomes.extend(Outcome(out, metrics, algorithm.spec)
                            for out, metrics in results)
        return outcomes

    def validate(self, state, outcomes):
        t = self.TRIALS
        reports = [
            validators.check_bfs_tree(
                state["grid"], outcome.outputs, state["root"],
                crashed=outcome.metrics.crashed_vertices)
            for outcome in outcomes[:t]
        ] + [
            validators.check_mis(expander, outcome.outputs,
                                 crashed=outcome.metrics.crashed_vertices)
            for expander, outcome in zip(state["expanders"], outcomes[t:])
        ]
        return [None if r.holds else f"{r.guarantee}: {r.details[:1]}"
                for r in reports]


BANNER = re.compile(r"listening on ([\d.]+):(\d+)")


def available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


class WorkerPool:
    """Local ``python -m repro fabric-worker`` daemons, killed and reaped
    by :meth:`close` (also when spawning fails part-way)."""

    def __init__(self, root: Path, count: int) -> None:
        self.processes: list[subprocess.Popen] = []
        self.addresses: list[tuple[str, int]] = []
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        try:
            for _ in range(count):
                process = subprocess.Popen(
                    [sys.executable, "-m", "repro", "fabric-worker",
                     "--port", "0"],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True, cwd=root, env=env,
                )
                self.processes.append(process)
                match = BANNER.search(process.stdout.readline())
                if match is None:
                    raise RuntimeError("fabric-worker printed no banner")
                self.addresses.append((match.group(1), int(match.group(2))))
        except BaseException:
            self.close()
            raise

    def cpu_s(self) -> float:
        """CPU seconds the workers have used, from ``/proc/<pid>/stat``
        (user + system, every thread, in clock ticks)."""
        ticks = 0
        for process in self.processes:
            stat = Path(f"/proc/{process.pid}/stat").read_text()
            fields = stat[stat.rindex(")") + 2:].split()
            ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def close(self) -> None:
        for process in self.processes:
            if process.poll() is None:
                process.kill()
        for process in self.processes:
            process.wait(timeout=30)
            process.stdout.close()
        self.processes = []


class FabricSweep(Workload):
    """A few graphs x many seeds through local fabric workers."""

    name = "fabric-sweep"
    N = 1024
    DEGREE = 8
    GRAPHS = 3
    SEEDS = 16

    def __init__(self, seed: int, root: Path) -> None:
        super().__init__(seed, root)
        start = time.perf_counter()
        self.pool = WorkerPool(root, min(2, available_cpus()))
        self.spawn_s = time.perf_counter() - start
        self.stats = None

    def differential_cases(self):
        graph = generators.random_regular_expander(
            128, self.DEGREE, seed=subseed(self.seed, "diff-graph"))
        inputs = vertex_inputs(graph, subseed(self.seed, "diff-inputs"))
        horizon = mis_horizon(128)
        return [("fabric-sweep/mis", graph,
                 lambda: classic.ColumnarLubyMIS(horizon),
                 {"max_rounds": horizon + 2, "inputs": inputs})]

    def setup(self):
        graphs = []
        for g in range(self.GRAPHS):
            graph = generators.random_regular_expander(
                self.N, self.DEGREE, seed=subseed(self.seed, f"graph-{g}"))
            compile_mod.delivery_plane(compile_mod.compile_topology(graph))
            graphs.append(graph)
        return {"graphs": graphs}

    def prepare(self, state):
        state["trials"] = [
            batch.Trial(graph, inputs=vertex_inputs(
                graph, subseed(self.seed, f"inputs-{g}-{s}")))
            for g, graph in enumerate(state["graphs"])
            for s in range(self.SEEDS)
        ]

    def algorithm(self):
        return classic.ColumnarLubyMIS(mis_horizon(self.N))

    def reference(self, state):
        algorithm = self.algorithm()
        results = batch.run_many(algorithm, state["trials"], processes=1)
        return [Outcome(out, metrics, algorithm.spec)
                for out, metrics in results]

    def run(self, state):
        algorithm = self.algorithm()
        self.stats = coordinator.FabricStats()
        results = coordinator.run_many_fabric(
            algorithm, state["trials"], self.pool.addresses,
            stats=self.stats,
        )
        return [Outcome(out, metrics, algorithm.spec)
                for out, metrics in results]

    def validate(self, state, outcomes):
        return [
            checks.mis_problem(outcome.outputs,
                               compile_mod.compile_topology(trial.graph))
            for trial, outcome in zip(state["trials"], outcomes)
        ]

    def run_counters(self):
        stats = self.stats
        return {
            "fabric.dispatches": stats.dispatches,
            "fabric.retries": stats.retries,
            "fabric.speculative_wasted": stats.speculative_wasted,
            "fabric.graph_cache_hits": stats.graph_cache_hits,
        }

    def helper_cpu_s(self):
        return self.pool.cpu_s()

    def close(self):
        self.pool.close()


WORKLOADS = {cls.name: cls for cls in
             (StreamMIS, GridSweep, FaultyRecovery, FabricSweep)}
