"""Tests for the fault-tolerant sweep fabric.

Covers the wire protocol (framing, payloads, handshake), the
deterministic retry helper, the coordinator's partitioning / checkpoint /
fallback machinery, a live two-worker fabric (real ``python -m repro
fabric-worker`` subprocesses), the chaos case — a worker SIGKILLed
mid-sweep, with the merged results asserted byte-identical to the local
run — and the CLI's coordinator-timeout diagnostic.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import re
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.cli import main
from repro.congest import (
    FabricStats,
    FabricUnavailableError,
    FabricWorker,
    Trial,
    run_many,
    run_many_fabric,
)
from repro.congest.classic import ColumnarLubyMIS
from repro.congest.algorithms import ColumnarBFSTree
from repro.congest.runtime.batch import normalize_jobs
from repro.congest.runtime.fabric import protocol
from repro.congest.runtime.fabric.coordinator import (
    CheckpointJournal,
    _partition,
    parse_worker_address,
    sweep_digest,
)
from repro.congest.runtime.fabric.retry import (
    backoff_schedule,
    retry_with_backoff,
)
from repro.congest.runtime.faults import FaultPlan
from repro.graphs import triangulated_grid

REPO_ROOT = Path(__file__).resolve().parent.parent
BANNER = re.compile(r"listening on ([\d.]+):(\d+)")


def seeded_inputs(graph, seed):
    rng = random.Random(seed)
    return {v: rng.randrange(1 << 30) for v in graph.nodes}


def mis_trials(graph, count, horizon):
    return [
        Trial(graph, inputs=seeded_inputs(graph, index),
              max_rounds=horizon + 2)
        for index in range(count)
    ]


def spawn_worker(port=0):
    """A real fabric-worker daemon subprocess; returns (Popen, address)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "fabric-worker", "--port", str(port)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
    )
    match = BANNER.search(process.stdout.readline())
    assert match, "fabric-worker did not print its banner"
    return process, (match.group(1), int(match.group(2)))


def free_port():
    """A port with nothing listening (for connection-refused tests)."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_frame_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            protocol.send_frame(left, {"type": "ping", "n": 3})
            assert protocol.recv_frame(right) == {"type": "ping", "n": 3}
        finally:
            left.close()
            right.close()

    def test_clean_eof_returns_none(self):
        left, right = socket.socketpair()
        left.close()
        try:
            assert protocol.recv_frame(right) is None
        finally:
            right.close()

    def test_truncated_frame_raises(self):
        left, right = socket.socketpair()
        try:
            frame = protocol.encode_frame({"type": "ping"})
            left.sendall(frame[:-3])
            left.close()
            with pytest.raises(protocol.ProtocolError, match="mid-frame"):
                protocol.recv_frame(right)
        finally:
            right.close()

    def test_oversized_length_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall((protocol.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(protocol.ProtocolError, match="exceeds"):
                protocol.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_untyped_message_raises(self):
        left, right = socket.socketpair()
        try:
            body = json.dumps([1, 2, 3]).encode()
            left.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(protocol.ProtocolError, match="typed"):
                protocol.recv_frame(right)
        finally:
            left.close()
            right.close()

    def test_payload_roundtrip(self):
        cargo = {"graph": [(0, 1), (1, 2)], "metrics": (7, 8.5)}
        assert protocol.decode_payload(protocol.encode_payload(cargo)) == cargo

    def test_corrupt_payload_raises(self):
        with pytest.raises(protocol.ProtocolError, match="undecodable"):
            protocol.decode_payload("!!! not base64 pickle !!!")

    def test_expect_hello_version_mismatch(self):
        bad = {"type": "hello", "version": 999, "role": "worker", "pid": 1}
        with pytest.raises(protocol.ProtocolError, match="version mismatch"):
            protocol.expect_hello(bad, peer="worker")

    def test_expect_hello_on_eof(self):
        with pytest.raises(protocol.ProtocolError, match="before hello"):
            protocol.expect_hello(None, peer="worker")

    def test_expect_hello_accepts_good_handshake(self):
        good = protocol.hello("worker", 42)
        assert protocol.expect_hello(good, peer="worker") is good


# ---------------------------------------------------------------------------
# Deterministic retry
# ---------------------------------------------------------------------------
class TestRetry:
    def test_schedule_is_deterministic_and_exponential(self):
        schedule = backoff_schedule(5, base_delay=0.2, seed=11)
        assert schedule == backoff_schedule(5, base_delay=0.2, seed=11)
        assert len(schedule) == 5
        for i, delay in enumerate(schedule):
            assert 0.2 * 2**i <= delay < 0.3 * 2**i

    def test_different_seeds_decorrelate(self):
        assert backoff_schedule(4, base_delay=0.1, seed=0) != \
            backoff_schedule(4, base_delay=0.1, seed=1)

    def test_sleeps_follow_the_published_schedule(self):
        slept = []
        attempts = []

        def flaky():
            attempts.append(len(attempts))
            if len(attempts) < 4:
                raise OSError("boom")
            return "ok"

        result = retry_with_backoff(
            flaky, retries=5, base_delay=0.1, seed=3, sleep=slept.append,
        )
        assert result == "ok"
        assert attempts == [0, 1, 2, 3]
        assert slept == backoff_schedule(5, base_delay=0.1, seed=3)[:3]

    def test_exhaustion_reraises_last_error(self):
        slept = []
        failures = []
        with pytest.raises(OSError, match="always"):
            retry_with_backoff(
                lambda: (_ for _ in ()).throw(OSError("always")),
                retries=2, base_delay=0.0, seed=0, sleep=slept.append,
                on_failure=lambda attempt, exc: failures.append(attempt),
            )
        assert failures == [0, 1, 2]
        assert len(slept) == 2  # no sleep after the final failure

    def test_non_retryable_errors_pass_through(self):
        calls = []

        def fatal():
            calls.append(1)
            raise ValueError("not infrastructure")

        with pytest.raises(ValueError):
            retry_with_backoff(fatal, retries=5, base_delay=0.0, seed=0)
        assert calls == [1]

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            backoff_schedule(-1, base_delay=0.1, seed=0)
        with pytest.raises(ValueError):
            backoff_schedule(3, base_delay=-0.1, seed=0)


# ---------------------------------------------------------------------------
# Coordinator plumbing (no sockets)
# ---------------------------------------------------------------------------
class TestCoordinatorPlumbing:
    def test_parse_worker_address(self):
        assert parse_worker_address("localhost:9041") == ("localhost", 9041)
        for bad in ("localhost", ":9041", "host:", "host:abc"):
            with pytest.raises(ValueError, match="host:port"):
                parse_worker_address(bad)

    def test_default_partition_is_four_blocks_per_worker(self):
        assert _partition(64, 2, None) == 8  # 64/8 = 8 blocks for 2 workers
        assert _partition(5, 2, None) == 1
        assert _partition(64, 0, None) == 16
        assert _partition(64, 2, 5) == 5
        with pytest.raises(ValueError, match=">= 1"):
            _partition(64, 2, 0)

    def test_digest_changes_with_sweep(self):
        graph = triangulated_grid(4, 4)
        jobs = normalize_jobs(mis_trials(graph, 2, 100))
        a = sweep_digest(ColumnarLubyMIS(100), jobs, 1)
        assert a == sweep_digest(ColumnarLubyMIS(100), jobs, 1)
        assert a != sweep_digest(ColumnarLubyMIS(101), jobs, 1)
        assert a != sweep_digest(ColumnarLubyMIS(100), jobs, 2)
        assert a != sweep_digest(ColumnarLubyMIS(100), jobs[:1], 1)


# ---------------------------------------------------------------------------
# Coordinator end-to-end without workers: fallback + checkpointing
# ---------------------------------------------------------------------------
class TestLocalFallbackAndCheckpoint:
    def setup_method(self):
        self.graph = triangulated_grid(6, 6)
        self.horizon = 200
        self.trials = mis_trials(self.graph, 6, self.horizon)
        self.algorithm = ColumnarLubyMIS(self.horizon)
        self.local = run_many(
            ColumnarLubyMIS(self.horizon), self.trials, processes=1
        )

    def test_no_workers_degrades_to_local_and_is_identical(self):
        stats = FabricStats()
        results = run_many_fabric(
            self.algorithm, self.trials, [], block_size=2, stats=stats,
        )
        assert pickle.dumps(results) == pickle.dumps(self.local)
        assert stats.completed_local == stats.blocks == 3
        assert stats.completed_remote == 0

    def test_empty_sweep(self):
        assert run_many_fabric(self.algorithm, [], []) == []

    def test_no_workers_fallback_error_diagnoses(self):
        with pytest.raises(FabricUnavailableError, match="none configured"):
            run_many_fabric(
                self.algorithm, self.trials, [], fallback="error",
            )

    def test_checkpoint_resume_runs_only_missing_blocks(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_many_fabric(
            self.algorithm, self.trials, [], block_size=2, checkpoint=path,
        )
        # Drop the last journalled block, keeping header + 2 records.
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 4
        path.write_bytes(b"".join(lines[:3]))

        stats = FabricStats()
        results = run_many_fabric(
            self.algorithm, self.trials, [], block_size=2, checkpoint=path,
            resume=True, stats=stats,
        )
        assert pickle.dumps(results) == pickle.dumps(self.local)
        assert stats.completed_from_checkpoint == 2
        assert stats.completed_local == 1

    def test_checkpoint_torn_tail_is_truncated(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_many_fabric(
            self.algorithm, self.trials, [], block_size=2, checkpoint=path,
        )
        intact = path.read_bytes().splitlines(keepends=True)
        torn = intact[2][: len(intact[2]) // 2]  # a record cut mid-write
        path.write_bytes(b"".join(intact[:2]) + torn)

        stats = FabricStats()
        results = run_many_fabric(
            self.algorithm, self.trials, [], block_size=2, checkpoint=path,
            resume=True, stats=stats,
        )
        assert pickle.dumps(results) == pickle.dumps(self.local)
        assert stats.completed_from_checkpoint == 1
        assert stats.completed_local == 2

    def test_checkpoint_rejects_a_different_sweep(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        run_many_fabric(
            self.algorithm, self.trials, [], block_size=2, checkpoint=path,
        )
        with pytest.raises(ValueError, match="different sweep"):
            run_many_fabric(
                ColumnarLubyMIS(self.horizon + 1), self.trials, [],
                block_size=2, checkpoint=path, resume=True,
            )

    def test_checkpoint_rejects_non_checkpoint_file(self, tmp_path):
        path = tmp_path / "sweep.ckpt"
        path.write_text("not a checkpoint\n")
        with pytest.raises(ValueError, match="fabric checkpoint"):
            CheckpointJournal(path, digest="d", blocks=1, resume=True)

    def test_resume_without_existing_file_starts_fresh(self, tmp_path):
        path = tmp_path / "fresh.ckpt"
        stats = FabricStats()
        results = run_many_fabric(
            self.algorithm, self.trials, [], block_size=2, checkpoint=path,
            resume=True, stats=stats,
        )
        assert pickle.dumps(results) == pickle.dumps(self.local)
        assert stats.completed_from_checkpoint == 0
        assert path.exists()


# ---------------------------------------------------------------------------
# An in-process worker: frame sequences and the algorithm-error split
# ---------------------------------------------------------------------------
class TestWorkerProtocol:
    @pytest.fixture()
    def worker(self):
        worker = FabricWorker(port=0, heartbeat_interval=0.02)
        thread = threading.Thread(target=worker.serve_forever, daemon=True)
        thread.start()
        yield worker
        worker.stop()
        thread.join(timeout=5)

    def _connect(self, worker):
        sock = socket.create_connection(worker.address, timeout=5)
        protocol.send_frame(sock, protocol.hello("coordinator", 0))
        protocol.expect_hello(protocol.recv_frame(sock), peer="worker")
        return sock

    def test_ping_pong(self, worker):
        sock = self._connect(worker)
        try:
            protocol.send_frame(sock, {"type": "ping"})
            assert protocol.recv_frame(sock) == {"type": "pong"}
        finally:
            sock.close()

    def test_bad_handshake_is_rejected(self, worker):
        sock = socket.create_connection(worker.address, timeout=5)
        try:
            protocol.send_frame(
                sock, {"type": "hello", "version": 999, "role": "c", "pid": 0}
            )
            reply = protocol.recv_frame(sock)
            assert reply["type"] == "error"
            assert "version" in reply["message"]
        finally:
            sock.close()

    def test_run_block_streams_heartbeats_results_then_done(self, worker):
        graph = triangulated_grid(5, 5)
        jobs = normalize_jobs(mis_trials(graph, 3, 200))
        sock = self._connect(worker)
        try:
            protocol.send_frame(sock, {
                "type": "run-block", "block": 7, "plane": "auto",
                "trials": None,
                "payload": protocol.encode_payload(
                    (ColumnarLubyMIS(200), jobs)
                ),
            })
            kinds, results = [], []
            while True:
                frame = protocol.recv_frame(sock)
                kinds.append(frame["type"])
                if frame["type"] == "trial-result":
                    assert frame["block"] == 7
                    results.append(protocol.decode_payload(frame["payload"]))
                if frame["type"] == "block-done":
                    assert frame["trials"] == 3
                    break
            assert kinds[-1] == "block-done"
            assert kinds.count("trial-result") == 3
            local = run_many(
                ColumnarLubyMIS(200), mis_trials(graph, 3, 200), processes=1
            )
            assert pickle.dumps(results) == pickle.dumps(local)
        finally:
            sock.close()

    def test_algorithm_error_frame_not_a_disconnect(self, worker):
        graph = triangulated_grid(5, 5)
        # max_rounds=1 cannot finish BFS: a deterministic algorithm error.
        jobs = normalize_jobs([Trial(graph, max_rounds=1)])
        root = next(iter(graph.nodes))
        sock = self._connect(worker)
        try:
            protocol.send_frame(sock, {
                "type": "run-block", "block": 0, "plane": "auto",
                "trials": None,
                "payload": protocol.encode_payload(
                    (ColumnarBFSTree(root, 50), jobs)
                ),
            })
            while True:
                frame = protocol.recv_frame(sock)
                if frame["type"] != "heartbeat":
                    break
            assert frame["type"] == "error"
            assert frame["kind"] == "algorithm"
            assert frame["exception"] == "RuntimeError"
        finally:
            sock.close()

    def test_malformed_job_is_an_algorithm_error_not_a_disconnect(
        self, worker
    ):
        graph = triangulated_grid(5, 5)
        jobs = normalize_jobs(mis_trials(graph, 2, 200))
        jobs[1] = jobs[1][:6]  # a peer shipping a 6-tuple job
        sock = self._connect(worker)
        try:
            protocol.send_frame(sock, {
                "type": "run-block", "block": 3, "plane": "auto",
                "trials": None,
                "payload": protocol.encode_payload(
                    (ColumnarLubyMIS(200), jobs)
                ),
            })
            while True:
                frame = protocol.recv_frame(sock)
                if frame["type"] != "heartbeat":
                    break
            assert frame["type"] == "error"
            assert frame["kind"] == "algorithm"
            assert frame["exception"] == "ValueError"
            assert "job 1 has 6 fields" in frame["message"]
            # The connection keeps serving.
            protocol.send_frame(sock, {"type": "ping"})
            assert protocol.recv_frame(sock) == {"type": "pong"}
        finally:
            sock.close()


# ---------------------------------------------------------------------------
# Worker-side topology cache: GraphRef payloads, hit accounting, recovery
# ---------------------------------------------------------------------------
class TestGraphCache:
    @pytest.fixture()
    def worker(self):
        worker = FabricWorker(port=0, heartbeat_interval=0.02)
        thread = threading.Thread(target=worker.serve_forever, daemon=True)
        thread.start()
        yield worker
        worker.stop()
        thread.join(timeout=5)

    def _connect(self, worker):
        sock = socket.create_connection(worker.address, timeout=5)
        protocol.send_frame(sock, protocol.hello("coordinator", 0))
        protocol.expect_hello(protocol.recv_frame(sock), peer="worker")
        return sock

    def test_repeat_blocks_hit_cache_and_stay_identical(self, worker):
        graph = triangulated_grid(5, 5)
        trials = mis_trials(graph, 6, 200)
        stats = FabricStats()
        results = run_many_fabric(
            ColumnarLubyMIS(200), trials, [worker.address],
            block_size=2, stats=stats,
        )
        local = run_many(ColumnarLubyMIS(200), trials, processes=1)
        assert pickle.dumps(results) == pickle.dumps(local)
        # One connection, one graph: every trial after the very first
        # upload resolves from the worker's cache.
        assert stats.graph_cache_hits == len(trials) - 1

    def test_block_done_reports_hits_for_duplicate_full_graphs(self, worker):
        # Even without GraphRef substitution, same-digest full copies
        # within one block collapse to the first-seen instance.
        graph = triangulated_grid(4, 4)
        jobs = normalize_jobs(mis_trials(graph, 3, 200))
        sock = self._connect(worker)
        try:
            protocol.send_frame(sock, {
                "type": "run-block", "block": 1, "plane": "auto",
                "trials": None,
                "payload": protocol.encode_payload(
                    (ColumnarLubyMIS(200), jobs)
                ),
            })
            while True:
                frame = protocol.recv_frame(sock)
                if frame["type"] == "block-done":
                    break
            assert frame["graph_cache_hits"] == 2
        finally:
            sock.close()

    def test_unresolvable_ref_is_a_retryable_protocol_error(self, worker):
        graph = triangulated_grid(4, 4)
        jobs = normalize_jobs(mis_trials(graph, 1, 200))
        jobs = [(protocol.GraphRef("feedfacedeadbeef"), *job[1:])
                for job in jobs]
        sock = self._connect(worker)
        try:
            protocol.send_frame(sock, {
                "type": "run-block", "block": 0, "plane": "auto",
                "trials": None,
                "payload": protocol.encode_payload(
                    (ColumnarLubyMIS(200), jobs)
                ),
            })
            frame = protocol.recv_frame(sock)
            assert frame["type"] == "error"
            assert frame["kind"] == "protocol"
            assert "unshipped graphs" in frame["message"]
        finally:
            sock.close()

    def test_ref_payload_resolves_after_full_upload(self, worker):
        from repro.graphs.cache import graph_fingerprint

        graph = triangulated_grid(4, 4)
        jobs = normalize_jobs(mis_trials(graph, 2, 200))
        digest = graph_fingerprint(graph)
        sock = self._connect(worker)
        try:
            protocol.send_frame(sock, {
                "type": "run-block", "block": 0, "plane": "auto",
                "trials": None,
                "payload": protocol.encode_payload(
                    (ColumnarLubyMIS(200), jobs[:1])
                ),
            })
            while protocol.recv_frame(sock)["type"] != "block-done":
                pass
            refs = [(protocol.GraphRef(digest), *job[1:]) for job in jobs]
            protocol.send_frame(sock, {
                "type": "run-block", "block": 1, "plane": "auto",
                "trials": None,
                "payload": protocol.encode_payload(
                    (ColumnarLubyMIS(200), refs)
                ),
            })
            results = []
            while True:
                frame = protocol.recv_frame(sock)
                if frame["type"] == "trial-result":
                    results.append(protocol.decode_payload(frame["payload"]))
                if frame["type"] == "block-done":
                    break
            assert frame["graph_cache_hits"] == 2
            local = run_many(
                ColumnarLubyMIS(200), mis_trials(graph, 2, 200), processes=1
            )
            assert pickle.dumps(results) == pickle.dumps(local)
        finally:
            sock.close()


# ---------------------------------------------------------------------------
# Live fabric: subprocess workers, identity, chaos
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def worker_pair():
    workers = [spawn_worker(), spawn_worker()]
    yield workers
    for process, _address in workers:
        process.kill()


class TestLiveFabric:
    graph = triangulated_grid(6, 6)
    horizon = 200

    def _sweep(self, count=8, faults=None):
        trials = mis_trials(self.graph, count, self.horizon)
        local = run_many(
            ColumnarLubyMIS(self.horizon), trials, processes=1, faults=faults
        )
        return trials, local

    def test_two_workers_byte_identical(self, worker_pair):
        trials, local = self._sweep()
        stats = FabricStats()
        results = run_many_fabric(
            ColumnarLubyMIS(self.horizon), trials,
            [address for _, address in worker_pair],
            block_size=2, stats=stats,
        )
        assert pickle.dumps(results) == pickle.dumps(local)
        assert stats.completed_remote == stats.blocks == 4
        assert stats.completed_local == 0

    def test_faulty_sweep_byte_identical(self, worker_pair):
        plan = FaultPlan(crash=0.02, drop=0.05, seed=9)
        trials, local = self._sweep(count=6, faults=plan)
        results = run_many_fabric(
            ColumnarLubyMIS(self.horizon), trials,
            [address for _, address in worker_pair],
            block_size=2, faults=plan,
        )
        assert pickle.dumps(results) == pickle.dumps(local)

    def test_dead_worker_address_drains_to_survivor(self, worker_pair):
        trials, local = self._sweep(count=6)
        stats = FabricStats()
        addresses = [worker_pair[0][1], ("127.0.0.1", free_port())]
        results = run_many_fabric(
            ColumnarLubyMIS(self.horizon), trials, addresses,
            block_size=2, retries=1, base_delay=0.01, stats=stats,
        )
        assert pickle.dumps(results) == pickle.dumps(local)
        assert len(stats.dead_workers) == 1
        assert stats.dead_workers[0].startswith(f"{addresses[1][0]}:")
        assert stats.worker_failures >= 2  # initial try + retry, at least
        assert stats.completed_remote == stats.blocks

    def test_remote_algorithm_error_reraises(self, worker_pair):
        root = next(iter(self.graph.nodes))
        trials = [Trial(self.graph, max_rounds=1)]
        with pytest.raises(RuntimeError, match="did not halt"):
            run_many_fabric(
                ColumnarBFSTree(root, 50), trials,
                [address for _, address in worker_pair],
            )


class TestChaos:
    def test_sigkill_mid_sweep_is_byte_identical(self):
        """The keystone chaos case: one worker SIGKILLed mid-sweep (and
        restarted on the same port), results byte-identical anyway."""
        graph = triangulated_grid(8, 8)
        horizon = 300
        trials = mis_trials(graph, 12, horizon)
        local = run_many(ColumnarLubyMIS(horizon), trials, processes=1)

        workers = [spawn_worker(), spawn_worker()]
        respawned = []
        try:
            addresses = [address for _, address in workers]
            victim_port = addresses[1][1]

            # Time an undisturbed fabric sweep, then re-run it with the
            # second worker SIGKILLed partway through.
            start = time.perf_counter()
            baseline = run_many_fabric(
                ColumnarLubyMIS(horizon), trials, addresses, block_size=2,
                heartbeat_timeout=1.0,
            )
            duration = time.perf_counter() - start
            assert pickle.dumps(baseline) == pickle.dumps(local)

            def killer():
                time.sleep(max(0.02, 0.4 * duration))
                workers[1][0].kill()
                time.sleep(0.1)
                respawned.append(spawn_worker(victim_port))

            stats = FabricStats()
            thread = threading.Thread(target=killer)
            thread.start()
            results = run_many_fabric(
                ColumnarLubyMIS(horizon), trials, addresses, block_size=2,
                heartbeat_timeout=1.0, retries=4, base_delay=0.05,
                stats=stats,
            )
            thread.join()
            assert pickle.dumps(results) == pickle.dumps(local)
            # Every block still completed (remotely, or locally if the
            # kill landed while the survivor was also saturated).
            assert stats.completed_remote + stats.completed_local == \
                stats.blocks
        finally:
            for process, _address in workers + respawned:
                process.kill()


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestFabricCLI:
    def test_simulate_unreachable_workers_diagnostic(self, capsys):
        # No daemon on the port + local fallback disabled: exit code 2
        # and a one-line actionable diagnostic, not a traceback.
        code = main([
            "simulate", "mis", "grid:16", "--trials", "2",
            "--workers", f"127.0.0.1:{free_port()}",
            "--no-local-fallback",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "no worker to run them" in err
        assert "fabric-worker" in err

    def test_simulate_bad_worker_spec(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "simulate", "mis", "grid:16", "--trials", "2",
                "--workers", "not-an-address",
            ])

    def test_simulate_resume_requires_checkpoint(self, capsys):
        with pytest.raises(SystemExit):
            main([
                "simulate", "mis", "grid:16", "--trials", "2", "--resume",
            ])

    def test_simulate_with_live_worker(self, capsys, tmp_path, worker_pair):
        host, port = worker_pair[0][1]
        code = main([
            "simulate", "mis", "grid:16", "--trials", "3",
            "--workers", f"{host}:{port}",
            "--checkpoint", str(tmp_path / "cli.ckpt"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "fabric:" in out
        assert "remote = " in out
