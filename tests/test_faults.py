"""Fault-tolerance suite: deterministic chaos, recovery, timeouts, resume.

Exercises the fault-injection harness (:mod:`repro.federated.engine.faults`)
against the persistent-worker engine's recovery machinery:

* seeded :class:`FaultPlan` determinism and fire-at-most-once semantics;
* checksummed delta transport (corrupt/drop detection + single resend);
* worker crashes under every ``on_worker_failure`` policy — ``restart`` and
  ``redistribute`` must reproduce the failure-free history **bitwise**
  (recovery snapshots roll residents back exactly), ``fail`` must surface a
  :class:`WorkerCrash` carrying the worker id;
* ``round_timeout`` degradation in both sync and async round modes;
* checkpoint/resume parity on the serial and sync-pipelined paths, for
  FedAvg and for the strategies that carry state across rounds;
* :class:`StreamingAggregate` drop renormalisation;
* the enriched :class:`WorkerError` diagnostics and the pool's tolerance of
  already-dead workers at shutdown;
* one command in flight per worker: the pool's guard, and recovery and lazy
  bootstrap waiting for a busy worker's reply (regressions plus a seeded,
  derandomised chaos sweep).

CI runs this file as the ``chaos-smoke`` job under a tight per-test hang
guard (``REPRO_TEST_TIMEOUT``), because these tests kill real worker
processes and a supervision bug would otherwise hang forever.
"""

import os
import pickle
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from repro.federated import FederatedConfig
from repro.federated.engine import (
    FaultEvent,
    FaultPlan,
    PersistentWorkerPool,
    StreamingAggregate,
    WorkerCrash,
    WorkerError,
    payload_checksum,
)
from repro.federated.server import fedavg_aggregate
from repro.fgl.fedgnn import FederatedGNN
from repro.fgl.fedpub import FedPub
from repro.fgl.gcfl import GCFLPlus
from repro.simulation import community_split
from tests.conftest import small_csbm


@pytest.fixture(scope="module")
def four_clients(homophilous_graph):
    return community_split(homophilous_graph, 4, seed=0)


def _run(clients, rounds=4, hidden=16, method=FederatedGNN, **kwargs):
    defaults = dict(rounds=rounds, local_epochs=2, lr=0.02, seed=0,
                    backend="process_pool", num_workers=2,
                    intra_worker="serial")
    defaults.update(kwargs)
    trainer = method(clients, "gcn", hidden=hidden,
                     config=FederatedConfig(**defaults))
    history = trainer.run()
    return trainer, history


def _assert_history_bitwise(a, b):
    assert a.rounds == b.rounds
    np.testing.assert_array_equal(a.loss, b.loss)
    np.testing.assert_array_equal(a.test_accuracy, b.test_accuracy)
    np.testing.assert_array_equal(a.train_accuracy, b.train_accuracy)


class TestFaultPlan:
    def test_seeded_plans_are_deterministic(self):
        kwargs = dict(seed=7, num_workers=4, dispatches=10, crash_rate=0.1,
                      stall_rate=0.1, corrupt_rate=0.1, drop_rate=0.1)
        a, b = FaultPlan.seeded(**kwargs), FaultPlan.seeded(**kwargs)
        assert a.remaining == b.remaining > 0
        for worker in range(4):
            for dispatch in range(1, 11):
                assert a.take(worker, dispatch) == b.take(worker, dispatch)

    def test_events_fire_at_most_once(self):
        plan = FaultPlan([FaultEvent(0, 2, "crash")])
        assert plan.remaining == 1
        assert [e.kind for e in plan.take(0, 2)] == ["crash"]
        assert plan.take(0, 2) == []          # already fired
        assert plan.remaining == 0
        assert plan.fired_counts() == {"crash": 1}

    def test_take_filters_by_kind_family(self):
        plan = FaultPlan([FaultEvent(1, 3, "stall", duration=0.5),
                          FaultEvent(1, 3, "corrupt")])
        worker_side = plan.take(1, 3, kinds=("crash", "stall"))
        assert [e.kind for e in worker_side] == ["stall"]
        transport = plan.take(1, 3, kinds=("corrupt", "drop"))
        assert [e.kind for e in transport] == ["corrupt"]
        assert plan.remaining == 0

    def test_event_validation(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent(0, 1, "meteor")
        with pytest.raises(ValueError, match="1-based"):
            FaultEvent(0, 0, "crash")
        with pytest.raises(ValueError, match="positive duration"):
            FaultEvent(0, 1, "stall", duration=0.0)
        with pytest.raises(ValueError, match="sum to <= 1.0"):
            FaultPlan.seeded(0, 2, 4, crash_rate=0.6, drop_rate=0.6)


class TestPayloadChecksum:
    def test_equal_payloads_equal_checksums(self, rng):
        payload = {"w": rng.normal(size=(8, 4)),
                   "topk": (np.arange(5), rng.normal(size=5), (8, 4))}
        clone = {"w": payload["w"].copy(),
                 "topk": (payload["topk"][0].copy(),
                          payload["topk"][1].copy(), (8, 4))}
        assert payload_checksum(payload) == payload_checksum(clone)

    def test_single_bit_flip_changes_checksum(self, rng):
        payload = {"w": rng.normal(size=(8, 4))}
        before = payload_checksum(payload)
        flipped = {"w": payload["w"].copy()}
        bits = flipped["w"].view(np.uint64)
        bits[0, 0] ^= 1
        assert payload_checksum(flipped) != before

    def test_dtype_and_shape_are_covered(self):
        a = {"w": np.zeros(4, dtype=np.float64)}
        b = {"w": np.zeros(4, dtype=np.float32)}
        c = {"w": np.zeros((2, 2), dtype=np.float64)}
        assert payload_checksum(a) != payload_checksum(b)
        assert payload_checksum(a) != payload_checksum(c)


    @pytest.mark.parametrize("array", [
        np.arange(24.0).reshape(4, 6),              # contiguous
        np.arange(24.0).reshape(4, 6)[:, ::2],      # strided
        np.arange(24.0).reshape(4, 6).T,            # Fortran order
        np.array(2.5),                              # 0-d
        np.empty((0, 3)),                           # empty
        np.arange(7, dtype=np.uint64),
        np.array([True, False, True]),
    ], ids=["contiguous", "strided", "fortran", "0-d", "empty", "uint64",
            "bool"])
    def test_buffer_crc_equals_the_copied_bytes(self, array):
        """The walk sums the array's own buffer; the value is what summing
        the ``tobytes()`` copy gave."""
        import zlib

        contiguous = np.ascontiguousarray(array)
        expected = zlib.crc32(contiguous.dtype.str.encode(), 0)
        expected = zlib.crc32(repr(contiguous.shape).encode(), expected)
        expected = zlib.crc32(contiguous.tobytes(), expected)
        assert payload_checksum(array) == expected


class TestVerifyReply:
    """``ProcessPoolBackend._verify_reply`` against a scripted pool."""

    class _Pool:
        def __init__(self, resent):
            self.resent, self.sent = resent, []

        def send(self, worker, command):
            self.sent.append((worker, command))

        def recv(self, worker):
            return self.resent

    def _backend(self, monkeypatch, resent=None):
        from repro.federated.engine import backends

        sums = []
        real = backends.payload_checksum
        monkeypatch.setattr(
            backends, "payload_checksum",
            lambda payload: sums.append(1) or real(payload))
        backend = backends.ProcessPoolBackend.__new__(
            backends.ProcessPoolBackend)
        backend._in_flight = {0: [[], None, None, False]}
        backend.fault_stats = {"retries": 0}
        backend._pool = self._Pool(resent)
        return backend, sums

    @staticmethod
    def _reply(stamp=True):
        deltas = {0: {"w": np.arange(6.0)}}
        stats = {"checksum": payload_checksum(deltas)} if stamp else {}
        return ({0: 0.5}, deltas, stats)

    def test_clean_reply_is_summed_once(self, monkeypatch):
        backend, sums = self._backend(monkeypatch)
        reply = self._reply()
        assert backend._verify_reply(None, 0, reply) is reply
        assert len(sums) == 1
        assert backend.fault_stats["retries"] == 0

    def test_unstamped_reply_passes(self, monkeypatch):
        backend, sums = self._backend(monkeypatch)
        reply = self._reply(stamp=False)
        assert backend._verify_reply(None, 0, reply) is reply
        assert sums == [] and backend._pool.sent == []

    def test_mismatch_requests_the_one_resend(self, monkeypatch):
        clean = self._reply()
        backend, _sums = self._backend(monkeypatch, resent=clean)
        damaged = self._reply()
        damaged[1][0]["w"][0] += 1.0
        assert backend._verify_reply(None, 0, damaged) is clean
        assert backend._pool.sent == [(0, "resend")]
        assert backend.fault_stats["retries"] == 1

    def test_mismatch_twice_is_a_worker_error(self, monkeypatch):
        damaged = self._reply()
        damaged[1][0]["w"][0] += 1.0
        backend, _sums = self._backend(monkeypatch, resent=damaged)
        with pytest.raises(WorkerError, match="twice"):
            backend._verify_reply(None, 0, damaged)


class TestCrashRecovery:
    """A mid-run worker crash must be invisible in the training history."""

    @pytest.mark.parametrize("policy", ["restart", "redistribute"])
    def test_recovery_reproduces_failure_free_history(self, policy,
                                                      four_clients):
        _, baseline = _run(four_clients)
        plan = FaultPlan([FaultEvent(worker=0, dispatch=2, kind="crash")])
        trainer, history = _run(four_clients, on_worker_failure=policy,
                                fault_plan=plan)
        assert trainer.backend.fault_stats["crashes"] == 1
        if policy == "restart":
            assert trainer.backend.fault_stats["restarts"] == 1
        else:
            assert trainer.backend.fault_stats["redistributed_clients"] >= 1
        assert plan.remaining == 0
        _assert_history_bitwise(baseline, history)

    def test_fail_policy_surfaces_worker_crash(self, four_clients):
        plan = FaultPlan([FaultEvent(worker=0, dispatch=2, kind="crash")])
        trainer = FederatedGNN(four_clients, "gcn", hidden=16,
                               config=FederatedConfig(
                                   rounds=4, local_epochs=2, lr=0.02, seed=0,
                                   backend="process_pool", num_workers=2,
                                   intra_worker="serial", fault_plan=plan))
        with pytest.raises(WorkerCrash) as excinfo:
            trainer.run()
        assert excinfo.value.worker == 0
        assert trainer.backend._pool is None  # pool reclaimed on failure

    def test_corrupt_and_drop_are_repaired_by_resend(self, four_clients):
        _, baseline = _run(four_clients)
        plan = FaultPlan([FaultEvent(0, 2, "corrupt"),
                          FaultEvent(1, 3, "drop")])
        trainer, history = _run(four_clients, on_worker_failure="restart",
                                fault_plan=plan)
        assert trainer.backend.fault_stats["retries"] == 2
        assert trainer.backend.fault_stats["crashes"] == 0
        _assert_history_bitwise(baseline, history)

    def test_corrupted_broadcast_recovers_with_one_resend(
            self, four_clients):
        """A damaged *downlink* broadcast is rejected worker-side and
        repaired by one clean resend from the coordinator's cache."""
        _, baseline = _run(four_clients)
        plan = FaultPlan([FaultEvent(0, 2, "corrupt_down"),
                          FaultEvent(1, 3, "corrupt_down")])
        trainer, history = _run(four_clients, fault_plan=plan)
        assert trainer.backend.fault_stats["broadcast_retries"] == 2
        assert trainer.backend.fault_stats["crashes"] == 0
        assert trainer.backend.fault_stats["retries"] == 0
        _assert_history_bitwise(baseline, history)

    def test_corrupted_broadcast_both_directions_same_round(
            self, four_clients):
        """Downlink and uplink corruption on the same dispatch recover
        independently (reject->resend down, checksum->resend up)."""
        _, baseline = _run(four_clients)
        plan = FaultPlan([FaultEvent(0, 2, "corrupt_down"),
                          FaultEvent(0, 2, "corrupt")])
        trainer, history = _run(four_clients, fault_plan=plan)
        assert trainer.backend.fault_stats["broadcast_retries"] == 1
        assert trainer.backend.fault_stats["retries"] == 1
        _assert_history_bitwise(baseline, history)

    def test_unpicklable_client_falls_back_local_during_recovery(
            self, four_clients):
        """A mirror that cannot be re-adopted after a crash is evicted to
        the coordinator instead of killing the run."""
        plan = FaultPlan([FaultEvent(worker=0, dispatch=2, kind="crash")])
        trainer = FederatedGNN(four_clients, "gcn", hidden=16,
                               config=FederatedConfig(
                                   rounds=4, local_epochs=2, lr=0.02, seed=0,
                                   backend="process_pool", num_workers=2,
                                   intra_worker="serial",
                                   on_worker_failure="restart",
                                   fault_plan=plan))

        def poison_mirror(round_index, participants):
            if round_index == 2:
                # A non-picklable attribute the dispatch-time extra_loss
                # eviction does not see: recovery's re-adopt pickle fails.
                trainer.clients[0].bomb = lambda: None
        trainer.before_round = poison_mirror
        local_seen = []

        def record(round_index, participants):
            if 0 in trainer.backend._local:
                local_seen.append(round_index)
        trainer.after_round = record
        # Overriding the round hooks routes through the classic barrier
        # round, which exercises the same crash-recovery machinery.
        history = trainer.run()
        assert trainer.backend.fault_stats["crashes"] == 1
        # Client 0's crashed-round report was dropped, then it trained
        # in-process for every remaining round.
        assert trainer.backend.fault_stats["dropped_reports"] >= 1
        assert local_seen == [2, 3, 4]
        assert len(history.rounds) == 4
        assert np.isfinite(history.loss).all()


class TestRoundTimeout:
    def test_sync_timeout_drops_stalled_shard(self, four_clients):
        plan = FaultPlan([FaultEvent(0, 2, "stall", duration=2.0)])
        trainer, history = _run(four_clients, on_worker_failure="restart",
                                fault_plan=plan, round_timeout=0.6)
        assert trainer.backend.fault_stats["timeouts"] >= 1
        assert history.client_drops            # late reports were recorded
        assert len(history.rounds) == 4
        assert np.isfinite(history.test_accuracy[-1])

    def test_hook_overriding_trainer_keeps_the_deadline(self, four_clients,
                                                        monkeypatch):
        """Overriding a round hook changes the loop's depth, not its
        body: the late shard is still dropped at the deadline."""
        seen = []
        monkeypatch.setattr(
            FederatedGNN, "after_round",
            lambda self, round_index, participants: seen.append(round_index))
        plan = FaultPlan([FaultEvent(0, 2, "stall", duration=2.0)])
        trainer, history = _run(four_clients, fault_plan=plan,
                                round_timeout=0.6)
        assert trainer.backend.fault_stats["timeouts"] >= 1
        assert history.client_drops
        assert seen == [1, 2, 3, 4]
        assert all(history.client_round_sec)
        assert trainer.backend.last_pipeline_stats is None   # depth 0

    def test_dropped_shard_is_fedavg_over_the_reporters_at_both_depths(
            self, four_clients, monkeypatch):
        """A round that lost a shard at the deadline aggregates its
        reporters bit for bit alike at depth 1 (streaming) and depth 0
        (gathered): a streamed FedAvg renormalised by the kept weight was
        an ulp off from round 3 on."""
        def run():
            plan = FaultPlan([FaultEvent(1, 2, "stall", duration=2.0)])
            return _run(four_clients, on_worker_failure="restart",
                        fault_plan=plan, round_timeout=0.6)

        streamed_trainer, streamed = run()
        assert streamed_trainer.backend.last_pipeline_stats is not None
        monkeypatch.setattr(FederatedGNN, "after_round",
                            lambda self, round_index, participants: None)
        gathered_trainer, gathered = run()
        assert gathered_trainer.backend.last_pipeline_stats is None
        assert set(streamed.client_drops) == {1, 3}   # worker 1's shard
        assert streamed.client_drops == gathered.client_drops
        _assert_history_bitwise(streamed, gathered)

    @pytest.mark.parametrize("method", [FedPub, GCFLPlus],
                             ids=["fed-pub", "gcfl+"])
    def test_gathering_strategy_sees_only_the_reporters(self, method,
                                                        four_clients):
        """FED-PUB and GCFL+ cannot stream, so the pool gathers the states
        that arrived; a shard dropped at the deadline must leave the
        strategy's context as well as its state list."""
        plan = FaultPlan([FaultEvent(1, 2, "stall", duration=2.0)])
        trainer = method(four_clients, hidden=16, config=FederatedConfig(
            rounds=4, local_epochs=2, lr=0.02, seed=0,
            backend="process_pool", num_workers=2, intra_worker="serial",
            fault_plan=plan, round_timeout=0.6))
        strategy = trainer.strategy
        aggregate = strategy.aggregate
        seen = {}

        def recording(states, weights, context=None):
            ids = [client.client_id for client in context.participants]
            assert len(ids) == len(states)
            global_state = aggregate(states, weights, context)
            if method is FedPub:
                assert sorted(strategy._personalized) == ids
            seen[context.round_index] = set(ids)
            return global_state

        strategy.aggregate = recording
        history = trainer.run()
        assert len(history.rounds) == 4
        assert np.isfinite(history.test_accuracy[-1])
        assert {1, 3} <= set(history.client_drops)   # worker 1's shard
        missing = {round_index: set(history.participants[round_index])
                   - seen.get(round_index, set())
                   for round_index in history.participants}
        assert sum(map(len, missing.values())) \
            == sum(history.client_drops.values())
        assert set().union(*missing.values()) == set(history.client_drops)

    def test_async_timeout_discards_stale_job(self, four_clients):
        plan = FaultPlan([FaultEvent(0, 2, "stall", duration=2.0)])
        trainer, history = _run(four_clients, round_mode="async",
                                async_buffer=1, on_worker_failure="restart",
                                fault_plan=plan, round_timeout=0.6,
                                worker_speeds=[1.0, 0.8])
        assert trainer.backend.fault_stats["timeouts"] >= 1
        assert history.client_drops
        assert np.isfinite(history.test_accuracy[-1])


class TestAsyncRecovery:
    @pytest.mark.parametrize("policy", ["restart", "redistribute"])
    def test_async_crash_recovery_completes(self, policy, four_clients):
        plan = FaultPlan([FaultEvent(worker=1, dispatch=2, kind="crash")])
        trainer, history = _run(four_clients, round_mode="async",
                                async_buffer=2, on_worker_failure=policy,
                                fault_plan=plan, worker_speeds=[1.0, 0.8])
        stats = trainer.backend.fault_stats
        assert stats["crashes"] == 1
        if policy == "restart":
            assert stats["restarts"] == 1
        else:
            assert stats["redistributed_clients"] >= 1
        assert len(history.rounds) == 4
        assert np.isfinite(history.test_accuracy[-1])

    def test_async_refuses_checkpoint_knobs(self, four_clients):
        trainer = FederatedGNN(four_clients, "gcn", hidden=16,
                               config=FederatedConfig(
                                   rounds=2, local_epochs=1, seed=0,
                                   backend="process_pool", num_workers=2,
                                   round_mode="async", checkpoint_every=1))
        with pytest.raises(ValueError, match="checkpoint"):
            trainer.run()


class TestCheckpointResume:
    @pytest.mark.parametrize("backend, method", [
        ("serial", FederatedGNN), ("batched", FederatedGNN),
        ("process_pool", FederatedGNN),
        # strategies with cross-round state (GCFL+'s assignments of clients
        # a round did not sample), on the gathering path
        ("serial", FedPub), ("serial", GCFLPlus),
        ("process_pool", FedPub), ("process_pool", GCFLPlus),
    ], ids=["serial", "batched", "process_pool", "fed-pub", "gcfl+",
            "fed-pub-pool", "gcfl+-pool"])
    def test_resume_is_bitwise_identical(self, backend, method, four_clients,
                                         tmp_path):
        def run(rounds, **kwargs):
            return _run(four_clients, rounds=rounds, backend=backend,
                        num_workers=2 if backend == "process_pool" else 0,
                        participation=0.75, method=method, **kwargs)

        _, full = run(rounds=6)
        run(rounds=3, checkpoint_every=3, checkpoint_dir=str(tmp_path))
        ckpt = tmp_path / "round_0003.ckpt"
        assert ckpt.exists() and (tmp_path / "latest.ckpt").exists()
        _, resumed = run(rounds=6, resume_from=str(ckpt))
        _assert_history_bitwise(full, resumed)
        for a, b in zip(full.client_accuracy, resumed.client_accuracy):
            assert a == b

    @pytest.mark.parametrize("backend", ["serial", "process_pool"])
    def test_resume_over_never_stepped_clients_is_bitwise(
            self, backend, four_clients, tmp_path):
        """A checkpoint taken while some clients have never trained holds
        them without optimizer moments; resuming from it is bitwise."""
        def run(rounds, **kwargs):
            return _run(four_clients, rounds=rounds, backend=backend,
                        num_workers=2 if backend == "process_pool" else 0,
                        participation=0.5, **kwargs)

        _, full = run(rounds=4)
        run(rounds=1, checkpoint_every=1, checkpoint_dir=str(tmp_path))
        ckpt = tmp_path / "round_0001.ckpt"
        with open(ckpt, "rb") as handle:
            clients = pickle.load(handle)["clients"]
        idle = [cid for cid, snapshot in clients.items()
                if snapshot["optimizer"]["_step_count"] == 0]
        assert len(idle) == 2
        for cid in idle:
            optimizer = clients[cid]["optimizer"]
            assert all(m is None for m in optimizer["_m"] + optimizer["_v"])
        _, resumed = run(rounds=4, resume_from=str(ckpt))
        _assert_history_bitwise(full, resumed)
        for a, b in zip(full.client_accuracy, resumed.client_accuracy):
            assert a == b

    def test_hierarchical_resume_is_bitwise_identical(self, four_clients,
                                                      tmp_path):
        """PR 6's bitwise resume bar, extended to the hierarchical
        (fold_weights edge-aggregation) path."""
        def run(rounds, **kwargs):
            return _run(four_clients, rounds=rounds, num_workers=2,
                        hierarchical=True, participation=0.75, **kwargs)

        _, full = run(rounds=6)
        trainer, _ = run(rounds=3, checkpoint_every=3,
                         checkpoint_dir=str(tmp_path))
        assert trainer.backend.hierarchical
        ckpt = tmp_path / "round_0003.ckpt"
        assert ckpt.exists()
        _, resumed = run(rounds=6, resume_from=str(ckpt))
        _assert_history_bitwise(full, resumed)
        for a, b in zip(full.client_accuracy, resumed.client_accuracy):
            assert a == b
        # The fold path must also match flat FedAvg's resumed history
        # bitwise (the hierarchical invariant holds across a resume).
        _, flat = _run(four_clients, rounds=6, num_workers=2,
                       participation=0.75, resume_from=str(ckpt))
        _assert_history_bitwise(full, flat)

    def test_checkpoint_file_format(self, four_clients, tmp_path):
        trainer, _ = _run(four_clients, rounds=2, backend="serial",
                          num_workers=0, checkpoint_every=1,
                          checkpoint_dir=str(tmp_path))
        with open(tmp_path / "round_0002.ckpt", "rb") as handle:
            payload = pickle.load(handle)
        assert payload["format"] == 1
        assert payload["round"] == 2
        assert set(payload["clients"]) == \
            {c.client_id for c in trainer.clients}
        for section in ("server", "strategy", "trainer_rng", "history",
                        "tracker"):
            assert section in payload

    @pytest.mark.parametrize("with_participants", [True, False])
    def test_parent_commit_history_shape_still_loads(
            self, four_clients, tmp_path, with_participants):
        """Format 1 predates ``TrainingHistory.as_dict``: its ``history``
        section was copied field by field (and, earlier still, without
        ``participants``).  Such a file must keep loading."""
        trainer, _ = _run(four_clients, rounds=2, backend="serial",
                          num_workers=0, checkpoint_every=2,
                          checkpoint_dir=str(tmp_path))
        path = tmp_path / "round_0002.ckpt"
        with open(path, "rb") as handle:
            payload = pickle.load(handle)
        old_shape = {
            "rounds": [1, 2], "train_accuracy": [0.5, 0.75],
            "test_accuracy": [0.25, 0.5], "loss": [1.5, 1.25],
            "client_accuracy": [{0: 0.25}, {0: 0.5}],
            "client_lag": [{}, {}],
            "client_round_sec": [{}, {0: 0.125}],
            "client_drops": {3: 1},
            "participants": {1: [0, 1, 2, 3], 2: [0, 1, 2, 3]},
        }
        expected_participants = dict(old_shape["participants"])
        if not with_participants:
            del old_shape["participants"]
            expected_participants = {}
        payload["history"] = old_shape
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        history = trainer.history
        assert trainer.load_checkpoint(str(path)) == 2
        assert trainer.history is history  # restored in place
        assert history.rounds == [1, 2]
        assert history.loss == [1.5, 1.25]
        assert history.client_round_sec == [{}, {0: 0.125}]
        assert history.client_drops == {3: 1}
        assert history.participants == expected_participants

    def test_resume_rejects_mismatched_clients(self, four_clients,
                                               community_clients, tmp_path):
        _run(four_clients, rounds=1, backend="serial", num_workers=0,
             checkpoint_every=1, checkpoint_dir=str(tmp_path))
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=FederatedConfig(
                                   rounds=2, local_epochs=1, seed=0,
                                   backend="serial",
                                   resume_from=str(tmp_path /
                                                   "round_0001.ckpt")))
        with pytest.raises(ValueError, match="client"):
            trainer.run()


class TestStreamingDrop:
    def _states(self, rng, n):
        return [{"w": rng.normal(size=(4, 3)), "b": rng.normal(size=3)}
                for _ in range(n)]

    def test_drop_free_round_is_bitwise_fedavg(self, rng):
        states, weights = self._states(rng, 3), [1.0, 2.0, 3.0]
        fold = StreamingAggregate(weights)
        for index, state in enumerate(states):
            fold.add(index, state)
        sealed = fold.seal()
        expected = fedavg_aggregate(states, weights)
        for key in expected:
            np.testing.assert_array_equal(sealed[key], expected[key])

    def test_drop_renormalises_over_survivors(self, rng):
        states, weights = self._states(rng, 4), [1.0, 2.0, 3.0, 4.0]
        fold = StreamingAggregate(weights)
        fold.drop(1)
        for index in (0, 2, 3):
            fold.add(index, states[index])
        assert fold.dropped == 1
        sealed = fold.seal()
        survivors = fedavg_aggregate([states[0], states[2], states[3]],
                                     [1.0, 3.0, 4.0])
        for key in survivors:
            np.testing.assert_allclose(sealed[key], survivors[key],
                                       rtol=1e-12, atol=1e-15)

    def test_all_dropped_raises(self):
        fold = StreamingAggregate([1.0, 1.0])
        fold.drop(0)
        fold.drop(1)
        with pytest.raises(RuntimeError, match="dropped"):
            fold.seal()

    def test_drop_validation(self, rng):
        fold = StreamingAggregate([1.0, 1.0])
        fold.add(0, self._states(rng, 1)[0])
        with pytest.raises(ValueError, match="already folded"):
            fold.drop(0)
        with pytest.raises(IndexError):
            fold.drop(5)
        with pytest.raises(RuntimeError, match="pending"):
            fold.seal()


class TestWorkerDiagnostics:
    """Satellites: enriched WorkerError, shutdown tolerance of dead workers."""

    def test_worker_error_carries_context(self, four_clients):
        import copy
        clients = copy.deepcopy(four_clients)
        trainer = FederatedGNN(clients, "gcn", hidden=16,
                               config=FederatedConfig(
                                   rounds=2, local_epochs=1, seed=0,
                                   backend="process_pool", num_workers=2,
                                   intra_worker="serial"))
        # Out-of-range labels make the cross-entropy gather raise inside
        # the worker holding client 0.
        trainer.clients[0].graph.labels[:] = 999
        with pytest.raises(WorkerError) as excinfo:
            trainer.run()
        error = excinfo.value
        assert error.worker == 0
        assert error.command == "train"
        assert error.remote_traceback and "Traceback" in error.remote_traceback

    def test_shutdown_tolerates_dead_workers(self):
        pool = PersistentWorkerPool(2)
        pool._procs[0].terminate()
        pool._procs[0].join()
        pool.shutdown()                       # must not raise
        assert pool.closed
        pool.shutdown()                       # and stays idempotent

    def test_poll_reports_dead_worker_without_hanging(self):
        pool = PersistentWorkerPool(2)
        try:
            os.kill(pool._procs[0].pid, 9)
            pool._procs[0].join()
            with pytest.raises(WorkerCrash):
                pool.call(0, "fetch_all", None)
            # The surviving worker keeps answering.
            assert pool.call(1, "fetch_all", None) == {}
        finally:
            pool.shutdown()


class TestOneCommandInFlight:
    """A worker owes at most one reply; work for a busy worker waits."""

    def test_second_send_is_refused_with_a_sentence(self):
        pool = PersistentWorkerPool(1)
        try:
            pool.send(0, "fetch_all", False)
            assert pool.owed(0) == "fetch_all" and not pool.safe_for_sync
            with pytest.raises(RuntimeError,
                               match="worker 0 still owes the reply to "
                                     "'fetch_all'; refusing to send 'call'"):
                pool.send(0, "call", (len, ()))
            assert pool.recv(0) == {}
            assert pool.owed(0) is None and pool.safe_for_sync
        finally:
            pool.shutdown()

    def test_run_batches_behind_an_undrained_reply_is_refused(self):
        pool = PersistentWorkerPool(2)
        try:
            pool.send(0, "fetch_all", False)
            with pytest.raises(RuntimeError, match="worker 0 still owes"):
                pool.run_batches({0: [("fetch_all", False)]})
        finally:
            pool.shutdown()

    def test_evicting_a_lagging_owners_client_is_refused(self, four_clients):
        trainer = FederatedGNN(four_clients, "gcn", hidden=16,
                               config=FederatedConfig(
                                   rounds=1, local_epochs=1, seed=0,
                                   backend="process_pool", num_workers=2,
                                   intra_worker="serial"))
        backend = trainer.backend
        try:
            pending = backend.dispatch_round(trainer.clients)
            backend.abandon_job(pending, 0)
            assert backend._lagging == {0}
            trainer.clients[0].extra_loss = lambda client: 0.0
            with pytest.raises(RuntimeError, match="worker 0 still owes the "
                               "reply to 'train'; refusing to send 'fetch'"):
                backend.dispatch_round(trainer.clients)
        finally:
            backend.close()
        assert backend._pool is None

    def test_checkpoint_sync_stands_aside_while_commands_wait(
            self, four_clients, monkeypatch):
        with FederatedGNN(four_clients, "gcn", hidden=16,
                          config=FederatedConfig(
                              rounds=1, local_epochs=1, seed=0,
                              backend="process_pool", num_workers=2,
                              intra_worker="serial")) as trainer:
            trainer.run()
            backend = trainer.backend
            assert backend._pool.safe_for_sync
            fetched = []
            monkeypatch.setattr(backend, "_sync_worker_state",
                                lambda: fetched.append(True))
            backend._waiting[1] = [("adopt", [])]
            backend.sync_for_checkpoint()
            assert fetched == []
            backend._waiting.clear()
            backend.sync_for_checkpoint()
            assert fetched == [True]

    def test_recovery_adopt_waits_for_a_busy_survivor(self):
        """The survivor writes a shard reply while the coordinator would
        write it a re-adopt: both exceed a pipe's buffer, so writing the
        adopt behind the owed reply deadlocked."""
        clients = community_split(
            small_csbm(num_nodes=500, num_features=64, homophily=0.85,
                       seed=1), 4, seed=0)
        hidden = 96
        # Worker 0's residents (clients 0 and 2) are re-adopted; a
        # two-client shard reply carries two GCN deltas of 8-byte words.
        assert min(len(pickle.dumps(clients[cid])) for cid in (0, 2)) \
            > 64 * 1024
        assert 2 * 8 * (64 * hidden + hidden * 3) > 64 * 1024
        _, baseline = _run(clients, hidden=hidden)
        trainer, history = _run(
            clients, hidden=hidden, on_worker_failure="redistribute",
            fault_plan=FaultPlan([FaultEvent(0, 2, "crash")]))
        assert trainer.backend.fault_stats["crashes"] == 1
        _assert_history_bitwise(baseline, history)

    @pytest.mark.parametrize("intra_worker", ["serial", "auto"])
    @pytest.mark.parametrize("kind", ["corrupt", "drop"])
    def test_crash_and_uplink_fault_under_redistribute(
            self, four_clients, kind, intra_worker):
        """Worker 1 used to train the redistributed shard before reading
        ``resend`` and answered it with that shard's reply.  The stall only
        delays worker 1's reply so that worker 0's crash is handled first."""
        _, baseline = _run(four_clients, intra_worker=intra_worker)
        plan = FaultPlan([FaultEvent(0, 2, "crash"), FaultEvent(1, 2, kind),
                          FaultEvent(1, 2, "stall", duration=0.2)])
        trainer, history = _run(four_clients, intra_worker=intra_worker,
                                on_worker_failure="redistribute",
                                fault_plan=plan)
        assert trainer.backend.fault_stats["crashes"] == 1
        assert trainer.backend.fault_stats["retries"] == 1
        _assert_history_bitwise(baseline, history)

    def test_lazy_bootstrap_waits_for_a_lagging_worker(self, monkeypatch):
        """Client 3 is first selected while worker 1 lags: its adopt waits
        for the stale reply instead of having that reply read as its ack."""
        from repro.federated.engine.backends import ProcessPoolBackend

        lagging_at_close = []
        close = ProcessPoolBackend.close

        def recording_close(backend):
            lagging_at_close.append(set(backend._lagging))
            close(backend)
        monkeypatch.setattr(ProcessPoolBackend, "close", recording_close)
        clients = community_split(
            small_csbm(num_nodes=300, homophily=0.85, seed=1), 8, seed=0)
        start = time.perf_counter()
        trainer, history = _run(
            clients, rounds=25, participation=0.5, round_timeout=0.1,
            fault_plan=FaultPlan([FaultEvent(1, 1, "stall",
                                              duration=0.3)]))
        elapsed = time.perf_counter() - start
        assert history.participants[3] == [0, 3]   # 3 joins while 1 lags
        assert trainer.backend.fault_stats["timeouts"] >= 1
        assert lagging_at_close == [set()]
        # flush_lagging gives a stuck worker 10 s before giving up.
        assert elapsed < 5.0


#: fault-free histories of the chaos sweep, by (intra_worker, participation)
_SWEEP_BASELINES = {}


@settings(max_examples=12, derandomize=True, deadline=None)
@given(seed=st.integers(0, 2 ** 16 - 1),
       crash_rate=st.sampled_from([0.0, 0.1, 0.25]),
       corrupt_rate=st.sampled_from([0.0, 0.1, 0.25]),
       drop_rate=st.sampled_from([0.0, 0.1, 0.25]),
       policy=st.sampled_from(["restart", "redistribute"]),
       intra_worker=st.sampled_from(["serial", "auto"]),
       participation=st.sampled_from([1.0, 0.5]))
# Seed 244 fires crash (0, 2) and corrupt (1, 2); worker 0's later events
# never fire once it is retired — the plan of the redistribute regression.
@example(seed=244, crash_rate=0.1, corrupt_rate=0.25, drop_rate=0.0,
         policy="redistribute", intra_worker="serial", participation=1.0)
def test_seeded_chaos_equals_fault_free(four_clients, seed, crash_rate,
                                        corrupt_rate, drop_rate, policy,
                                        intra_worker, participation):
    """Recoverable faults leave no trace: bitwise history, nothing owed."""
    plan = FaultPlan.seeded(seed, 2, 8, crash_rate=crash_rate,
                            corrupt_rate=corrupt_rate, drop_rate=drop_rate)
    assume(plan.remaining)
    if policy == "redistribute":
        # Two retired workers leave nobody to redistribute to.
        assume(len({worker for (worker, _), events in plan._events.items()
                    if any(event.kind == "crash" for event in events)}) <= 1)
    key = (intra_worker, participation)
    if key not in _SWEEP_BASELINES:
        _SWEEP_BASELINES[key] = _run(four_clients, intra_worker=intra_worker,
                                     participation=participation)[1]
    with FederatedGNN(four_clients, "gcn", hidden=16,
                      config=FederatedConfig(
                          rounds=4, local_epochs=2, lr=0.02, seed=0,
                          backend="process_pool", num_workers=2,
                          intra_worker=intra_worker,
                          participation=participation,
                          on_worker_failure=policy,
                          fault_plan=plan)) as trainer:
        history = trainer.run()
        backend = trainer.backend
        pool = backend._pool
        assert [pool.owed(worker) for worker in pool.alive_workers] == \
            [None] * len(pool.alive_workers)
        assert not backend._waiting and not backend._lagging
    _assert_history_bitwise(_SWEEP_BASELINES[key], history)
