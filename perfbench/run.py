"""The repository benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload stream-mis --seed 1 --seconds 10 --trace 0

``--trace 0`` measures with nothing wrapped and reports the end-to-end
metrics; ``--trace 1`` spends half the time untraced and half traced and
reports the per-layer metrics.  The last line of standard output is
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Provenance, any problems found, and (when traced) every span are written
under ``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import pickle
import platform
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

#: Iterations measured at the least, however long they take.
MIN_ITERATIONS = 3
#: Set-up is repeated at least three times and until this much time has
#: gone into it (at most 25 times), and its median reported.
SETUP_REPEATS = (3, 25)
SETUP_BUDGET_S = 2.0
#: The whole run is abandoned (non-zero exit) past this many seconds.
DEADLINE_S = 170


class Overdue(BaseException):
    """The run passed its deadline (not an ``Exception``, so no
    per-iteration handler can swallow it)."""


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` without running git
    (a checkout without ``.git`` reports ``unknown``)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.exists():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


def provenance(args, available_cpus: int) -> dict:
    import numpy as np

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "available_cpus": available_cpus,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": git_commit(),
    }


def digest(outcome) -> bytes:
    return hashlib.sha256(
        pickle.dumps((outcome.outputs, outcome.metrics),
                     protocol=pickle.HIGHEST_PROTOCOL)
    ).digest()


def host_seconds(workload) -> float:
    """CPU seconds used so far by this process (every thread) and the
    workload's helper processes.  Timings use CPU time, not wall time: on
    a shared host the wall clock also counts time the hypervisor gives to
    other guests, which no change to this repository can move."""
    return time.process_time() + workload.helper_cpu_s()


def row_bytes(spec) -> int:
    """Bytes one delivered message occupies in the columnar inbox: its
    fixed-width payload columns plus an int64 sender and receiver."""
    return sum(dtype.itemsize for dtype in spec.dtypes) + 16


def sim_totals(outcomes) -> dict:
    totals = dict.fromkeys(("rounds", "messages", "bits", "dropped",
                            "delayed", "duplicated", "bytes"), 0)
    for outcome in outcomes:
        metrics = outcome.metrics
        totals["rounds"] += metrics.rounds
        totals["messages"] += metrics.messages
        totals["bits"] += metrics.total_bits
        totals["dropped"] += metrics.dropped
        totals["delayed"] += metrics.delayed
        totals["duplicated"] += metrics.duplicated
        totals["bytes"] += metrics.messages * row_bytes(outcome.spec)
    return totals


class Ledger:
    """Trials attempted and failed, and why."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problem: str | None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


def measure(workload, seconds: float, traced_run: bool):
    """Differential check, set-up, then measured iterations.  Returns the
    metric values by name, the ledger, the raw timing samples and the
    tracer (``None`` untraced)."""
    from perfbench import layers
    from perfbench.tracer import Tracer

    ledger = Ledger()
    for problem in workload.differential():
        ledger.record(problem)

    tracer = Tracer() if traced_run else None
    if tracer is not None:
        layers.install(tracer)
    setup_times: list[float] = []
    state = None
    try:
        while True:
            state = None  # release the previous set-up's graphs first
            root = tracer.begin_root("setup") if tracer else None
            start = host_seconds(workload)
            state = workload.setup()
            setup_times.append(host_seconds(workload) - start)
            if root is not None:
                tracer.end_root(root)
            done = len(setup_times)
            if done >= SETUP_REPEATS[1] or (
                done >= SETUP_REPEATS[0]
                and sum(setup_times) > SETUP_BUDGET_S
            ):
                break
    finally:
        if tracer is not None:
            tracer.restore()
    workload.prepare(state)

    reference = workload.reference(state)
    expected: list[bytes] | None = None
    expected_totals: dict | None = None

    def check(outcomes) -> dict:
        nonlocal expected, expected_totals
        totals = sim_totals(outcomes)
        digests = [digest(outcome) for outcome in outcomes]
        if expected is None:
            for problem in workload.validate(state, outcomes):
                ledger.record(problem)
            expected, expected_totals = digests, totals
            return totals
        if len(digests) != len(expected):
            raise RuntimeError("iteration returned a different trial count")
        for index, (got, want) in enumerate(zip(digests, expected)):
            ledger.record(None if got == want else
                          f"trial {index} differs from the first run")
        if totals != expected_totals:
            ledger.record("simulated counters differ between runs")
        return totals

    if reference is not None:
        check(reference)
    samples = {"setup_s": setup_times}

    def iterate(phase_seconds: float, traced: bool) -> list[float]:
        times: list[float] = []
        walls: list[float] = []
        samples["wall_traced_s" if traced else "wall_run_s"] = walls
        deadline = time.perf_counter() + phase_seconds
        if traced:
            layers.install(tracer)
        try:
            while len(times) < MIN_ITERATIONS or (
                    time.perf_counter() < deadline):
                root = tracer.begin_root("iteration") if traced else None
                start = host_seconds(workload)
                wall = time.perf_counter()
                try:
                    outcomes = workload.run(state)
                except Exception as exc:  # a failed trial, not a crash
                    if root is not None:
                        tracer.end_root(root)
                    ledger.record(f"iteration raised {exc!r}")
                    break
                times.append(host_seconds(workload) - start)
                walls.append(time.perf_counter() - wall)
                if root is not None:
                    totals = sim_totals(outcomes)
                    for key in ("messages", "dropped", "delayed",
                                "duplicated"):
                        tracer.count(f"sim.{key}", totals[key])
                    tracer.count("delivery.bytes_computed", totals["bytes"])
                    for key, value in workload.run_counters().items():
                        tracer.count(key, value)
                    tracer.end_root(root)
                check(outcomes)
        finally:
            if traced:
                tracer.restore()
        if not times:
            raise RuntimeError("no iteration completed: "
                               + "; ".join(ledger.problems))
        return times

    if not traced_run:
        times = samples["run_s"] = iterate(seconds, traced=False)
        run_s = statistics.median(times)
        totals = expected_totals
        values = {
            "setup_s": statistics.median(setup_times),
            "run_s": run_s,
            "msgs_per_s": totals["messages"] / run_s,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "sim_rounds": totals["rounds"],
            "sim_messages": totals["messages"],
            "sim_bits": totals["bits"],
            "ok_frac": 1 - ledger.failed / ledger.attempted,
        }
    else:
        plain = samples["run_s"] = iterate(seconds / 2, traced=False)
        wrapped = samples["traced_s"] = iterate(seconds / 2, traced=True)
        overhead = statistics.median(wrapped) / statistics.median(plain) - 1
        values = layers.per_layer_metrics(
            tracer, spawn_s=workload.spawn_s, overhead_frac=overhead)
    return values, ledger, samples, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    def interrupted(signum, _frame):
        raise SystemExit(128 + signum)

    def overdue(_signum, _frame):
        raise Overdue(f"benchmark exceeded {DEADLINE_S} s")

    signal.signal(signal.SIGTERM, interrupted)
    signal.signal(signal.SIGALRM, overdue)
    signal.alarm(DEADLINE_S)

    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    # BENCHMARK.json names the reported metrics and their units.
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = manifest["per_layer" if args.trace else "end_to_end"]
    info = provenance(args, workloads.available_cpus())
    print(json.dumps({"provenance": info}), flush=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        values, ledger, samples, tracer = measure(
            workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    signal.alarm(0)

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {
        "provenance": info,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "problems": ledger.problems,
        "samples": samples,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]],
                             "unit": metric["unit"]}
            for metric in reported
        },
    }
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    if tracer is not None:
        tracer.write(OUT / f"{stem}.spans.jsonl", info)
    for problem in ledger.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
