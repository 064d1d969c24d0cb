"""Transport layer: framed TCP channels, WAN simulation, parity, recovery.

The tentpole bar this file enforces (see README "Transports"):

* frame codec integrity — CRC failures and stream desync are distinct,
  recoverable vs fatal conditions;
* the simulated WAN model is seed-deterministic;
* sync-path ``TrainingHistory`` is **bitwise-equal** between
  ``transport="pipe"`` and ``transport="tcp"`` on localhost — including the
  hierarchical fold and the lossy qtopk codec;
* injected network faults (``delay`` / ``drop_msg`` / ``reorder`` /
  ``partition``) cost time, never data: histories stay bitwise-equal to the
  failure-free run while the channel stats show the faults actually fired;
* a severed link that outlives the reconnect window surfaces as a dead
  worker and the PR 6 ``on_worker_failure`` supervision recovers bitwise;
* heartbeat liveness detects a silent (SIGSTOP'd) worker;
* externally launched workers (``python -m repro.cli worker``) serve the
  same command protocol over ``mode="external"``.

CI runs this file as the ``transport-smoke`` job under the per-test hang
guard (``REPRO_TEST_TIMEOUT``), because a transport bug's natural failure
mode is a wedged round.
"""

import json
import os
import pickle
import signal
import socket
import subprocess
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.federated import FederatedConfig
from repro.federated.engine import (
    FaultEvent,
    FaultPlan,
    PersistentWorkerPool,
    TcpTransport,
    WorkerCrash,
    WorkerError,
    make_transport,
)
from repro.federated.engine.backends import ProcessPoolBackend
from repro.federated.engine import transport as transport_module
from repro.federated.engine.transport import (
    F_DATA,
    F_HELLO,
    FrameCorruption,
    StreamDesync,
    WanLink,
    WanModel,
    pack_frame,
    read_frame,
)
from repro.fgl.fedgnn import FederatedGNN
from repro.simulation import community_split

#: knobs that keep failure detection fast without destabilising slow CI
FAST_KNOBS = dict(heartbeat_interval=0.1, heartbeat_timeout=1.5,
                  retransmit_timeout=0.1)


@pytest.fixture(scope="module")
def four_clients(homophilous_graph):
    return community_split(homophilous_graph, 4, seed=0)


def _run(clients, rounds=3, **kwargs):
    defaults = dict(rounds=rounds, local_epochs=2, lr=0.02, seed=0,
                    backend="process_pool", num_workers=2,
                    intra_worker="serial")
    defaults.update(kwargs)
    trainer = FederatedGNN(clients, "gcn", hidden=16,
                           config=FederatedConfig(**defaults))
    history = trainer.run()
    return trainer, history


def _assert_history_bitwise(a, b):
    assert a.rounds == b.rounds
    np.testing.assert_array_equal(a.loss, b.loss)
    np.testing.assert_array_equal(a.test_accuracy, b.test_accuracy)
    np.testing.assert_array_equal(a.train_accuracy, b.train_accuracy)


# ----------------------------------------------------------------------
# Frame codec
# ----------------------------------------------------------------------
class TestFrameCodec:
    def test_roundtrip_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            left.sendall(pack_frame(F_DATA, 7, 3, b"payload bytes"))
            ftype, seq, ack, payload = read_frame(right)
            assert (ftype, seq, ack, payload) == (F_DATA, 7, 3,
                                                  b"payload bytes")
            left.sendall(pack_frame(F_DATA, 8, 3))     # empty payload
            assert read_frame(right)[3] == b""
        finally:
            left.close()
            right.close()

    def test_payload_corruption_is_detected_and_recoverable(self):
        left, right = socket.socketpair()
        try:
            frame = bytearray(pack_frame(F_DATA, 1, 0, b"x" * 64))
            frame[-1] ^= 0xFF                          # damage the payload
            left.sendall(bytes(frame))
            with pytest.raises(FrameCorruption):
                read_frame(right)
            # The stream stays aligned: the next clean frame still parses.
            left.sendall(pack_frame(F_DATA, 2, 0, b"clean"))
            assert read_frame(right)[3] == b"clean"
        finally:
            left.close()
            right.close()

    def test_header_corruption_is_fatal_desync(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"garbage!" + pack_frame(F_DATA, 1, 0, b"x"))
            with pytest.raises(StreamDesync):
                read_frame(right)
        finally:
            left.close()
            right.close()


# ----------------------------------------------------------------------
# Simulated WAN model
# ----------------------------------------------------------------------
class TestWanModel:
    def test_delay_accounts_latency_jitter_and_bandwidth(self):
        model = WanModel.from_spec({"latency_ms": 10, "jitter_ms": 5,
                                    "bandwidth_mbps": 8, "seed": 3})
        state = model.state_for(0, "down")
        delay = state.delay_for(1_000_000)     # 1 MB at 8 Mbit/s = 1 s
        assert 1.010 <= delay <= 1.015

    def test_seeded_links_are_deterministic(self):
        spec = {"latency_ms": 5, "jitter_ms": 10, "loss": 0.3, "seed": 11,
                "per_worker": {1: {"latency_ms": 80}}}
        a, b = WanModel.from_spec(spec), WanModel.from_spec(spec)
        for worker in (0, 1):
            for direction in ("down", "up"):
                sa = a.state_for(worker, direction)
                sb = b.state_for(worker, direction)
                assert [sa.delay_for(100) for _ in range(20)] == \
                    [sb.delay_for(100) for _ in range(20)]
                assert [sa.drops() for _ in range(20)] == \
                    [sb.drops() for _ in range(20)]
        assert a.link_for(1).latency_ms == 80
        assert a.link_for(0).latency_ms == 5

    def test_directions_and_workers_draw_independent_streams(self):
        model = WanModel.from_spec({"jitter_ms": 50, "seed": 0})
        down = [model.state_for(0, "down").delay_for(0) for _ in range(8)]
        up = [model.state_for(0, "up").delay_for(0) for _ in range(8)]
        other = [model.state_for(1, "down").delay_for(0) for _ in range(8)]
        assert down != up and down != other


# ----------------------------------------------------------------------
# Handshake: authenticate before deserialising
# ----------------------------------------------------------------------
class TestHandshakeSafety:
    """The accept path sees bytes from an unauthenticated peer: it must
    compare the token before anything else and never unpickle them."""

    @pytest.fixture
    def listener(self, monkeypatch):
        unpickled = []
        monkeypatch.setattr(
            transport_module, "pickle",
            SimpleNamespace(loads=unpickled.append, dumps=pickle.dumps,
                            HIGHEST_PROTOCOL=pickle.HIGHEST_PROTOCOL))
        transport = TcpTransport(mode="external", token="s3cret")
        transport.spawn(0)
        try:
            yield transport, unpickled
        finally:
            transport.close()

    @staticmethod
    def _hello(transport, payload: bytes):
        """Send one HELLO frame; return the coordinator's first frame, or
        ``None`` when it hangs up instead."""
        with socket.create_connection(transport.address, timeout=5.0) as sock:
            sock.sendall(pack_frame(F_HELLO, 0, 0, payload))
            try:
                return read_frame(sock)
            except EOFError:
                return None

    def test_pickled_hello_is_refused_unread(self, listener):
        transport, unpickled = listener
        hello = {"worker": 0, "token": "s3cret", "session": None, "ack": 0}
        assert self._hello(transport, pickle.dumps(hello)) is None
        assert unpickled == []

    def test_wrong_token_is_refused(self, listener):
        transport, unpickled = listener
        hello = {"worker": 0, "token": "guess", "session": None, "ack": 0}
        assert self._hello(transport, json.dumps(hello).encode()) is None
        assert unpickled == []

    def test_right_token_is_answered_with_a_json_ack(self, listener):
        transport, unpickled = listener
        hello = {"worker": 0, "token": "s3cret", "session": None, "ack": 0}
        ftype, _seq, _ack, payload = self._hello(
            transport, json.dumps(hello).encode())
        assert ftype == F_HELLO
        assert json.loads(payload) == {"ack": 0}
        assert unpickled == []

    def test_close_wakes_the_blocked_acceptor(self):
        transport = TcpTransport(mode="external")
        time.sleep(0.3)  # let the acceptor reach its blocking accept()
        start = time.perf_counter()
        transport.close()
        assert time.perf_counter() - start < 0.5
        assert not transport._acceptor.is_alive()


# ----------------------------------------------------------------------
# Transport selection / validation
# ----------------------------------------------------------------------
class TestSelection:
    def test_pipe_takes_no_options(self):
        with pytest.raises(ValueError, match="no options"):
            make_transport("pipe", {"port": 1})
        with pytest.raises(ValueError, match="unknown transport"):
            make_transport("carrier-pigeon")

    def test_backend_rejects_unknown_transport(self):
        with pytest.raises(ValueError, match="transport"):
            ProcessPoolBackend(num_workers=2, transport="smoke-signal")

    def test_network_faults_require_tcp(self):
        plan = FaultPlan([FaultEvent(0, 2, "delay", duration=0.1)])
        with pytest.raises(ValueError, match="network"):
            ProcessPoolBackend(num_workers=2, fault_plan=plan)
        # The same plan is accepted when the transport has a wire.
        backend = ProcessPoolBackend(num_workers=2, fault_plan=plan,
                                     transport="tcp")
        assert backend.config.transport == "tcp"

    def test_pipe_channel_refuses_injection(self):
        pool = PersistentWorkerPool(1)
        try:
            with pytest.raises(WorkerError, match="network fault"):
                pool.inject_network_fault(0, "delay", 0.1)
        finally:
            pool.shutdown()

    def test_network_events_validate_durations(self):
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(0, 1, "partition")
        with pytest.raises(ValueError, match="duration"):
            FaultEvent(0, 1, "delay", duration=0.0)
        FaultEvent(0, 1, "drop_msg")     # loss events need no duration
        FaultEvent(0, 1, "reorder")


# ----------------------------------------------------------------------
# Bitwise parity: pipe vs tcp on localhost
# ----------------------------------------------------------------------
class TestTcpParity:
    def test_sync_history_bitwise_equal(self, four_clients):
        _, pipe = _run(four_clients)
        trainer, tcp = _run(four_clients, transport="tcp")
        _assert_history_bitwise(pipe, tcp)
        stats = trainer.backend.last_pipeline_stats["transport"]
        assert stats["transport"] == "tcp"
        assert stats["frames_sent"] > 0 and stats["crc_failures"] == 0

    def test_hierarchical_fold_bitwise_equal(self, four_clients):
        _, pipe = _run(four_clients, hierarchical=True)
        _, tcp = _run(four_clients, hierarchical=True, transport="tcp")
        _assert_history_bitwise(pipe, tcp)

    def test_qtopk_codec_bitwise_equal(self, four_clients):
        codec = dict(delta_codec="qtopk", delta_top_k=16, delta_bits=8)
        _, pipe = _run(four_clients, **codec)
        _, tcp = _run(four_clients, transport="tcp", **codec)
        _assert_history_bitwise(pipe, tcp)

    def test_wan_link_slows_but_never_changes_results(self, four_clients):
        _, pipe = _run(four_clients)
        trainer, tcp = _run(
            four_clients, transport="tcp",
            transport_options={"wan": {"latency_ms": 15, "jitter_ms": 5,
                                       "loss": 0.05, "seed": 4},
                               **FAST_KNOBS})
        _assert_history_bitwise(pipe, tcp)
        stats = trainer.backend.last_pipeline_stats["transport"]
        assert stats["transport"] == "tcp"
        assert stats["wan_dropped"] >= 1       # loss=0.05 fires, data survives


# ----------------------------------------------------------------------
# Network fault events: flaky links cost time, never data
# ----------------------------------------------------------------------
class TestNetworkFaults:
    def test_drop_reorder_delay_are_bitwise_transparent(self, four_clients):
        _, baseline = _run(four_clients, rounds=4)
        plan = FaultPlan([FaultEvent(0, 2, "drop_msg"),
                          FaultEvent(1, 2, "reorder"),
                          FaultEvent(0, 3, "delay", duration=0.3)])
        trainer, history = _run(four_clients, rounds=4, transport="tcp",
                                transport_options=dict(FAST_KNOBS),
                                fault_plan=plan)
        _assert_history_bitwise(baseline, history)
        assert trainer.backend.fault_stats["network_faults"] == 3
        assert trainer.backend.fault_stats["crashes"] == 0
        stats = trainer.backend.last_pipeline_stats["transport"]
        assert stats["injected_faults"] == 3
        assert stats["retransmits"] >= 1          # the dropped frame

    def test_retransmit_survives_heartbeat_pacing(self, four_clients):
        """Regression: heartbeats must not suppress the retransmit gate.
        With ``heartbeat_interval < retransmit_timeout`` the outgoing
        heartbeats used to keep refreshing the write clock the gate paced
        on, so a lossy link's dropped DATA frame was never resent and the
        round wedged forever."""
        _, baseline = _run(four_clients)
        trainer, history = _run(
            four_clients, transport="tcp",
            transport_options={"heartbeat_interval": 0.05,
                               "heartbeat_timeout": 5.0,
                               "retransmit_timeout": 0.3,
                               "wan": {"loss": 0.25, "seed": 0}})
        _assert_history_bitwise(baseline, history)
        stats = trainer.backend.last_pipeline_stats["transport"]
        assert stats["wan_dropped"] >= 1
        assert stats["retransmits"] >= 1

    def test_partition_reconnects_and_resumes_bitwise(self, four_clients):
        """A short partition severs the socket mid-round; the worker dials
        back in, the session resumes from the cumulative acks, and the
        history stays bitwise-equal to failure-free — no crash recovery."""
        _, baseline = _run(four_clients, rounds=4)
        plan = FaultPlan([FaultEvent(1, 2, "partition", duration=0.4)])
        trainer, history = _run(four_clients, rounds=4, transport="tcp",
                                transport_options=dict(FAST_KNOBS),
                                fault_plan=plan)
        _assert_history_bitwise(baseline, history)
        assert trainer.backend.fault_stats["crashes"] == 0
        stats = trainer.backend.last_pipeline_stats["transport"]
        assert stats["reconnects"] >= 1

    def test_dead_link_runs_crash_supervision_bitwise(self, four_clients):
        """A partition outliving the reconnect window is a dead worker: the
        PR 6 restart policy respawns it and recovery snapshots reproduce
        the failure-free history bitwise (the mid-round socket-kill bar)."""
        _, baseline = _run(four_clients, rounds=4)
        plan = FaultPlan([FaultEvent(0, 2, "partition", duration=30.0)])
        trainer, history = _run(
            four_clients, rounds=4, transport="tcp",
            transport_options={**FAST_KNOBS, "reconnect_window": 0.5},
            on_worker_failure="restart", fault_plan=plan)
        _assert_history_bitwise(baseline, history)
        assert trainer.backend.fault_stats["crashes"] == 1
        assert trainer.backend.fault_stats["restarts"] == 1

    def test_worker_crash_over_tcp_restarts_bitwise(self, four_clients):
        """The PR 6 crash chaos, rerun over sockets: a dead TCP link must
        look exactly like a dead pipe to the supervision layer."""
        _, baseline = _run(four_clients, rounds=4)
        plan = FaultPlan([FaultEvent(1, 2, "crash")])
        trainer, history = _run(
            four_clients, rounds=4, transport="tcp",
            transport_options={**FAST_KNOBS, "reconnect_window": 0.5},
            on_worker_failure="restart", fault_plan=plan)
        _assert_history_bitwise(baseline, history)
        assert trainer.backend.fault_stats["crashes"] == 1


# ----------------------------------------------------------------------
# One integrity pass per hop; nothing allocated or pickled per round
# ----------------------------------------------------------------------
class TestArrayFramePath:
    @pytest.mark.parametrize("intra_worker", ["serial", "auto"])
    @pytest.mark.parametrize("kind", ["corrupt", "drop"])
    def test_payload_fault_costs_one_resend_and_no_bits(
            self, four_clients, kind, intra_worker):
        """A damaged or lost upload on a channel that verifies its own
        frames: the coordinator asked for a stamp on that one dispatch, so
        the damage is caught, repaired by one ``resend`` and invisible in
        the history (per-client and whole-shard stacked deltas alike)."""
        _, baseline = _run(four_clients, rounds=4, intra_worker=intra_worker)
        plan = FaultPlan([FaultEvent(0, 2, kind), FaultEvent(1, 3, kind)])
        trainer, history = _run(four_clients, rounds=4, transport="tcp",
                                intra_worker=intra_worker, fault_plan=plan)
        _assert_history_bitwise(baseline, history)
        assert plan.remaining == 0
        assert trainer.backend.fault_stats["retries"] == 2
        assert trainer.backend.fault_stats["crashes"] == 0
        stats = trainer.backend.last_pipeline_stats["transport"]
        assert stats["crc_failures"] == 0 and stats["retransmits"] == 0

    @pytest.mark.parametrize("transport, sums_per_shard",
                             [("pipe", 2), ("tcp", 1)])
    def test_uploads_are_summed_once_per_hop(self, four_clients, monkeypatch,
                                             transport, sums_per_shard):
        """The coordinator stamps every broadcast; it re-sums an upload
        only where the channel did not already verify it."""
        from repro.federated.engine import backends

        sums = []
        real = backends.payload_checksum
        monkeypatch.setattr(backends, "payload_checksum",
                            lambda payload: sums.append(1) or real(payload))
        _run(four_clients, rounds=3, transport=transport)
        assert len(sums) == 3 * 2 * sums_per_shard   # rounds x workers

    def test_steady_state_allocates_and_pickles_nothing(self, four_clients):
        """After the warm-up round every upload is received into a buffer
        the channel already owns and no frame is pickled."""
        trainer = FederatedGNN(
            four_clients, "gcn", hidden=512,        # 164 KB per shard upload
            config=FederatedConfig(rounds=2, local_epochs=1, lr=0.02, seed=0,
                                   backend="process_pool", num_workers=2,
                                   transport="tcp"))
        with trainer:
            trainer.run(rounds=2)
            warm = trainer.backend._pool.network_stats()
            trainer.run(rounds=8)
            steady = trainer.backend._pool.network_stats()
        assert warm["buffers_allocated"] >= 2       # one per channel, pooled
        assert steady["buffers_allocated"] == warm["buffers_allocated"]
        assert warm["pickled_frames"] == 2          # the two ``adopt`` batches
        assert steady["pickled_frames"] == warm["pickled_frames"]
        # Uploads are what moves: counted, and far above the downlink.
        received = steady["bytes_received"] - warm["bytes_received"]
        sent = steady["bytes_sent"] - warm["bytes_sent"]
        assert received > 6 * 2 * 160_000 and received > 1.5 * sent
        assert trainer.backend.last_pipeline_stats["transport"][
            "bytes_received"] == steady["bytes_received"]

    def test_recovery_snapshots_travel_as_array_frames(self, four_clients):
        """Optimizer moments and 128-bit RNG state words are in the closed
        set too: a supervised run pickles nothing per round either."""
        trainer, _ = _run(four_clients, rounds=3, transport="tcp",
                          on_worker_failure="restart")
        stats = trainer.backend.last_pipeline_stats["transport"]
        assert stats["pickled_frames"] == 2


# ----------------------------------------------------------------------
# Liveness and external workers
# ----------------------------------------------------------------------
class TestLiveness:
    def test_heartbeat_detects_silent_worker(self):
        """A SIGSTOP'd worker answers nothing and closes nothing — only
        heartbeat timeouts can tell the coordinator the link is gone."""
        transport = TcpTransport(heartbeat_interval=0.1,
                                 heartbeat_timeout=0.5,
                                 reconnect_window=0.5)
        pool = PersistentWorkerPool(1, transport=transport)
        process = pool._procs[0]
        try:
            assert pool.call(0, "fetch_all", False) == {}
            os.kill(process.pid, signal.SIGSTOP)
            try:
                pool.send(0, "fetch_all", False)
                with pytest.raises(WorkerCrash):
                    deadline = time.monotonic() + 15.0
                    while time.monotonic() < deadline:
                        if pool.poll(0):
                            pool.recv(0)
                            break
                        time.sleep(0.05)
                    else:
                        pytest.fail("heartbeat never declared the link dead")
            finally:
                os.kill(process.pid, signal.SIGCONT)
        finally:
            pool.shutdown()

    def test_external_worker_dials_in_via_cli(self):
        """mode='external' + ``python -m repro.cli worker`` is the
        cross-host deployment shape (here: localhost loopback)."""
        transport = TcpTransport(mode="external", token="s3cret",
                                 connect_timeout=60.0)
        pool = None
        worker = None
        try:
            pool = PersistentWorkerPool(1, transport=transport)
            host, port = transport.address
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                [os.path.join(os.path.dirname(__file__), os.pardir, "src"),
                 env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
            worker = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker",
                 "--connect", f"{host}:{port}", "--worker-id", "0",
                 "--token", "s3cret"],
                env=env, stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL)
            assert pool.call(0, "fetch_all", False) == {}
            assert pool.is_alive(0)
        finally:
            if pool is not None:
                pool.shutdown()
            if worker is not None:
                try:
                    worker.wait(timeout=20)
                except subprocess.TimeoutExpired:
                    worker.kill()
                    worker.wait(timeout=10)
                    pytest.fail("external worker did not exit after stop")


# ----------------------------------------------------------------------
# Worker start-up: a fork of the preloaded forkserver, not an interpreter
# ----------------------------------------------------------------------
#: a script that builds a TCP pool at module level, with no ``__main__``
#: guard: every worker the forkserver starts runs it again and dies
_UNGUARDED = """
from repro.datasets import load_dataset
from repro.federated import FederatedConfig
from repro.fgl.fedgnn import FederatedGNN
from repro.simulation import community_split

clients = community_split(load_dataset("cora", seed=0, num_nodes=120), 2,
                          seed=0)
FederatedGNN(clients, "gcn", hidden=8, config=FederatedConfig(
    rounds=1, local_epochs=1, backend="process_pool", num_workers=2,
    transport="tcp", on_worker_failure="restart")).run()
"""


@pytest.mark.skipif("forkserver" not in
                    __import__("multiprocessing").get_all_start_methods(),
                    reason="workers start through the forkserver")
def test_unguarded_script_fails_fast_and_names_the_guard(tmp_path):
    """A worker that exits before it connects is not a crash a respawn
    mends: the coordinator raises at once, well inside ``connect_timeout``
    (30 s), naming the forkserver and the missing guard."""
    script = tmp_path / "unguarded.py"
    script.write_text(_UNGUARDED)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      os.pardir, "src"),
         env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    start = time.monotonic()
    done = subprocess.run([sys.executable, str(script)], cwd=tmp_path,
                          env=env, capture_output=True, text=True,
                          timeout=120)
    elapsed = time.monotonic() - start
    assert done.returncode != 0
    assert elapsed < 15.0, elapsed
    last = done.stderr.strip().splitlines()[-1]
    assert last.startswith("RuntimeError: TCP worker ") and \
        "exited with code 1 before it connected" in last, done.stderr
    assert "forkserver" in last and \
        'if __name__ == "__main__":' in last, last


#: a worker forked from the preloaded forkserver spends a few CPU-ms up to
#: its first reply; one that imports numpy, scipy and ``repro`` itself
#: spends ≈ 0.5–1 s
WARM_SPAWN_CPU_S = 0.15

#: run in a fresh interpreter that finds ``repro`` through ``sys.path``
#: alone (``argv[1]`` names ``src/``, the environment has no PYTHONPATH)
_SYS_PATH_ONLY = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from multiprocessing import forkserver
from repro.federated.engine import PersistentWorkerPool, TcpTransport

def cpu_seconds(pid):
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

def children():
    found = []
    for task in os.listdir("/proc/self/task"):
        with open(f"/proc/self/task/{task}/children") as handle:
            found += handle.read().split()
    return found

def first_replies():
    pool = PersistentWorkerPool(2, transport=TcpTransport())
    try:
        for worker in range(2):
            pool.call(worker, "fetch_all", False)
        return [cpu_seconds(process.pid) for process in pool._procs]
    finally:
        pool.shutdown()

external = TcpTransport(mode="external")
external.spawn(0)
external.close()
report = {"after_external": children(), "cold": first_replies()}
forkserver._forkserver._stop()      # as benchmarks/e2e/run.py ends a run
report["restarted"] = first_replies()
print(json.dumps(report))
"""


def _cpu_seconds(pid: int) -> float:
    """CPU time a process has used: ``utime + stime`` of /proc/<pid>/stat."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads per-process CPU time from /proc")
class TestWarmSpawn:
    """A process-mode TCP worker is forked from a forkserver that has
    already imported what a worker runs, so it reaches its first reply
    without importing numpy, scipy or ``repro``.  The forkserver skips a
    preload that does not import without a word, so these CPU budgets are
    what notices it."""

    def test_spawned_and_respawned_workers_import_nothing(self):
        pool = PersistentWorkerPool(2, transport=TcpTransport())
        try:
            for worker in range(2):
                pool.call(worker, "fetch_all", False)
            spent = [_cpu_seconds(process.pid) for process in pool._procs]
            assert max(spent) < WARM_SPAWN_CPU_S, spent
            pool.respawn(0)
            pool.call(0, "fetch_all", False)
            spent = _cpu_seconds(pool._procs[0].pid)
            assert spent < WARM_SPAWN_CPU_S, spent
        finally:
            pool.shutdown()

    def test_preload_reaches_a_coordinator_without_pythonpath(self,
                                                              tmp_path):
        """``benchmarks/e2e/run.py`` finds ``repro`` through ``sys.path``;
        the forkserver must import it all the same — started cold, and
        started again after it was stopped.  An ``external`` transport
        starts no helper process at all."""
        src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           os.pardir, "src")
        env = {key: value for key, value in os.environ.items()
               if key != "PYTHONPATH"}
        done = subprocess.run(
            [sys.executable, "-c", _SYS_PATH_ONLY, os.path.abspath(src)],
            cwd=tmp_path, env=env, capture_output=True, text=True,
            timeout=120)
        assert done.returncode == 0, done.stderr
        report = json.loads(done.stdout.strip().splitlines()[-1])
        assert report["after_external"] == []
        assert max(report["cold"]) < WARM_SPAWN_CPU_S, report
        assert max(report["restarted"]) < WARM_SPAWN_CPU_S, report
