"""Which public callables belong to which layer, and the per-layer
metrics the benchmark derives from their spans.

:func:`install` wraps every layer boundary the four workloads cross;
:func:`per_layer_metrics` turns the recorded spans and counters into the
``per_layer`` metrics that ``BENCHMARK.json`` names.  The metric → layer →
workload map is written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from perfbench.tracer import END, START, Tracer


def _rows(senders) -> int:
    senders = np.asarray(senders)
    if senders.dtype == np.bool_:
        return int(np.count_nonzero(senders))
    return int(senders.size)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary; undo with ``tracer.restore()``."""
    from repro.congest import algorithms, classic, columnar, network
    from repro.congest.runtime import batch, faults, recovery, rng
    from repro.congest.runtime import compile as compile_mod
    from repro.congest.runtime.fabric import coordinator, protocol
    from repro.graphs import generators, streaming

    local = tracer.local
    clock = time.perf_counter

    # graphs: generator calls, and each block a streamed generator yields.
    def stream_wrapper(original):
        def blocks(*args, **kwargs):
            record = tracer.push("graphs")
            try:
                iterator = original(*args, **kwargs)
            finally:
                tracer.pop(record)
            while True:
                record = tracer.push("graphs")
                try:
                    block = next(iterator, None)
                finally:
                    tracer.pop(record)
                if block is None:
                    return
                tracer.count("graphs.edges", len(block))
                yield block
        return blocks

    tracer.patch(streaming, "stream_powerlaw_edges", stream_wrapper)
    for name in ("random_regular_expander", "triangulated_grid"):
        tracer.span(generators, name, "graphs", counter=lambda a, k, g: [
            ("graphs.edges", g.number_of_edges())])

    # compile: the streaming CSR compile, per-graph compiles, the lazily
    # built delivery arrays, and grid assembly inside a sweep.
    def stream_stats(args, kwargs, topology):
        stats = topology.stats
        return [("compile.candidate_edges", stats.candidate_edges),
                ("compile.m", stats.m),
                ("compile.peak_bytes", stats.peak_bytes)]

    def graph_stats(args, kwargs, topology):
        if hasattr(args[0], "indptr"):
            return []
        return [("compile.candidate_edges", topology.m),
                ("compile.m", topology.m)]

    tracer.span(compile_mod, "compile_edge_stream", "compile",
                counter=stream_stats)
    tracer.span(compile_mod, "compile_topology", "compile",
                counter=graph_stats)
    for module in (batch, network):
        tracer.span(module, "compile_topology", "compile")
    tracer.span(compile_mod, "delivery_plane", "compile")
    tracer.span(batch, "GridTopology", "compile.grid")

    # scheduler: the shared round spine; each round is its own span, whose
    # self time is the delivery residual.
    def spine_wrapper(original):
        def run_rounds(**kwargs):
            advance = kwargs["advance"]

            def traced_advance(round_number):
                record = tracer.push("round")
                try:
                    advance(round_number)
                finally:
                    tracer.pop(record)

            kwargs["advance"] = traced_advance
            record = tracer.push("scheduler")
            try:
                return original(**kwargs)
            finally:
                tracer.pop(record)
                local.rounds_end = clock()
        return run_rounds

    for module in (columnar, batch):
        tracer.patch(module, "run_rounds", spine_wrapper)

    # outputs: from the end of the round loop to the public return.
    def network_run_wrapper(original):
        def run(*args, **kwargs):
            local.rounds_end = None
            result = original(*args, **kwargs)
            if local.rounds_end is not None:
                tracer.add_child("outputs", local.rounds_end, clock())
            return result
        return run

    tracer.patch(network.Network, "run", network_run_wrapper)

    # emit / recovery: the algorithms' round bodies.
    for cls in (classic.ColumnarLubyMIS, classic.ColumnarTrialColoring,
                classic.ColumnarSelfHealingMIS, algorithms.ColumnarBFSTree,
                algorithms.ColumnarRestartingBFS):
        tracer.span(cls, "on_round", "emit")
    tracer.span(recovery.ColumnarReliable, "on_round", "recovery")
    for name in ("emit_columns", "emit_var"):
        tracer.counting(columnar.ColumnarContext, name,
                        lambda a, k, r: [("emit.rows", _rows(a[1]))])
    tracer.span(columnar.ColumnarContext, "reduce_neighbors", "reduce")
    tracer.span(columnar.ColumnarInbox, "reduce", "reduce")

    # rng: draw-state construction and row draws.
    tracer.span(columnar, "rng_state_for", "rng.setup")
    tracer.span(batch, "grid_rng_state", "rng.setup")
    for cls in (rng.ExactRng, rng.VectorizedRng, rng.GridRng):
        for name in ("randrange_rows", "uniform_rows"):
            if name in cls.__dict__:
                tracer.span(cls, name, "rng.draw", counter=lambda a, k, r: [
                    ("rng.draws", np.size(a[2]))])

    # faults: crash draws and the per-round fate pass.
    tracer.span(faults.FaultState, "crash_step", "faults.crash")
    tracer.span(faults.FaultState, "columnar_step", "faults.step")

    # batch: sweep entry and grid chunks (outputs residual per chunk).
    tracer.span(batch, "run_many", "batch")

    def grid_wrapper(original):
        def execute_grid(algorithm, jobs):
            record = tracer.push("batch")
            local.rounds_end = None
            try:
                result = original(algorithm, jobs)
                if local.rounds_end is not None:
                    tracer.add_child("outputs", local.rounds_end, clock())
            finally:
                tracer.pop(record)
            tracer.count("batch.chunks", 1)
            tracer.count("batch.rows",
                         sum(job[0].number_of_nodes() for job in jobs))
            return result
        return execute_grid

    tracer.patch(batch, "execute_grid", grid_wrapper)

    # fabric: coordinator sweep, payload codec, block round trips.
    tracer.span(coordinator, "run_many_fabric", "fabric")
    tracer.span(protocol, "encode_payload", "fabric.encode",
                counter=lambda a, k, text: [("fabric.payload_bytes",
                                             len(text))])

    def decode_wrapper(original):
        def decode_payload(text):
            record = tracer.push("fabric.decode")
            try:
                return original(text)
            finally:
                tracer.pop(record)
                local.decode_s = (getattr(local, "decode_s", 0.0)
                                  + record[END] - record[START])
                tracer.count("fabric.result_bytes", len(text))
        return decode_payload

    tracer.patch(protocol, "decode_payload", decode_wrapper)

    def send_wrapper(original):
        def send_frame(sock, message):
            if message.get("type") == "run-block":
                local.block = (clock(), getattr(local, "decode_s", 0.0))
            return original(sock, message)
        return send_frame

    def recv_wrapper(original):
        def recv_frame(sock):
            frame = original(sock)
            if frame is not None and frame.get("type") == "block-done":
                start, decoded = local.block
                trip = clock() - start
                tracer.sample("fabric.block", trip)
                tracer.count("fabric.block_wait_s",
                             trip - (local.decode_s - decoded))
            return frame
        return recv_frame

    tracer.patch(protocol, "send_frame", send_wrapper)
    tracer.patch(protocol, "recv_frame", recv_wrapper)


def _median(values, default=0.0) -> float:
    return float(statistics.median(values)) if values else default


def _tail(durations) -> float:
    """The highest percentile with at least ten samples beyond it (the
    eleventh largest), or the maximum when there are fewer than eleven."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    return ordered[-11] if len(ordered) >= 11 else ordered[-1]


def per_layer_metrics(tracer: Tracer, *, spawn_s: float,
                      overhead_frac: float) -> dict[str, float]:
    """Median over set-up phases (graphs, compile) and over traced
    iterations (everything else) of each per-layer metric."""
    totals = tracer.layer_totals()
    setups = [totals[rid] for rid in tracer.root_ids("setup")]
    setup_counts = [tracer.counters[rid] for rid in tracer.root_ids("setup")]
    iteration_ids = tracer.root_ids("iteration")

    def over_setups(fn):
        return _median([fn(t, c) for t, c in zip(setups, setup_counts)])

    out = {
        "graphs.gen_s": over_setups(lambda t, c: t["self"]["graphs"]),
        "graphs.edges": over_setups(lambda t, c: c["graphs.edges"]),
        "compile.busy_s": over_setups(lambda t, c: t["self"]["compile"]),
        "compile.edges_per_s": over_setups(
            lambda t, c: c["compile.candidate_edges"] / t["self"]["compile"]
            if t["self"]["compile"] else 0.0),
        "compile.dedup_ratio": over_setups(
            lambda t, c: c["compile.m"] / c["compile.candidate_edges"]
            if c["compile.candidate_edges"] else 0.0),
        "compile.peak_bytes": over_setups(
            lambda t, c: c["compile.peak_bytes"]),
    }

    rows = []
    for rid in iteration_ids:
        t, c = totals[rid], tracer.counters[rid]
        s = tracer.samples[rid]
        self_time = t["self"]
        messages = c["sim.messages"]
        blocks = s["fabric.block"]
        logical = t["under"][("recovery", "emit")]
        dispatches = c["fabric.dispatches"]
        rows.append({
            "compile.grid_s": self_time["compile.grid"],
            "scheduler.rounds": t["calls"]["round"],
            "scheduler.round_p50_ms":
                _median(t["durations"]["round"]) * 1e3,
            "scheduler.round_pmax_ms": _tail(t["durations"]["round"]) * 1e3,
            "emit.busy_s": self_time["emit"],
            "emit.rows": c["emit.rows"],
            "reduce.busy_s": self_time["reduce"],
            "delivery.busy_s": self_time["round"],
            "delivery.ns_per_msg":
                self_time["round"] * 1e9 / messages if messages else 0.0,
            "delivery.bytes_computed": c["delivery.bytes_computed"],
            "rng.setup_s": self_time["rng.setup"],
            "rng.draw_s": self_time["rng.draw"],
            "rng.draws": c["rng.draws"],
            "faults.crash_s": self_time["faults.crash"],
            "faults.step_s": self_time["faults.step"],
            "faults.dropped": c["sim.dropped"],
            "faults.delayed": c["sim.delayed"],
            "faults.duplicated": c["sim.duplicated"],
            "faults.delivered_frac":
                (messages - c["sim.dropped"]) / messages if messages else 0.0,
            "recovery.self_s": self_time["recovery"],
            "recovery.round_factor":
                t["calls"]["recovery"] / logical if logical else 0.0,
            "batch.busy_s": self_time["batch"],
            "batch.chunks": c["batch.chunks"],
            "batch.rows": c["batch.rows"],
            "outputs.busy_s": self_time["outputs"],
            "fabric.encode_s": self_time["fabric.encode"],
            "fabric.decode_s": self_time["fabric.decode"],
            "fabric.payload_bytes": c["fabric.payload_bytes"],
            "fabric.result_bytes": c["fabric.result_bytes"],
            "fabric.block_wait_s": c["fabric.block_wait_s"],
            "fabric.block_p50_ms": _median(blocks) * 1e3,
            "fabric.block_max_ms": max(blocks, default=0.0) * 1e3,
            "fabric.dispatches": dispatches,
            "fabric.retries": c["fabric.retries"],
            "fabric.speculative_wasted": c["fabric.speculative_wasted"],
            "fabric.cache_hit_ratio":
                c["fabric.graph_cache_hits"] / dispatches
                if dispatches else 0.0,
            "trace.untraced_s": self_time["iteration"],
        })
    for key in rows[0] if rows else ():
        out[key] = _median([row[key] for row in rows])
    out["fabric.spawn_s"] = spawn_s
    out["trace.overhead_frac"] = overhead_frac
    return out
