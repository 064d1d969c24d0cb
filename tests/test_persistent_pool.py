"""Tests for the persistent-worker execution engine.

Covers the delta-only communication codec, worker residency (bootstrap,
eviction of ``extra_loss`` clients, final optimizer/RNG sync), the
context-manager lifecycle of trainers, and exact serial-history
reconstruction in every fallback configuration.
"""

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.autograd import functional as F
from repro.federated import FederatedConfig, ProcessPoolBackend
from repro.federated.engine import (
    FaultEvent,
    FaultPlan,
    PersistentWorkerPool,
    WorkerError,
    apply_state_delta,
    backends,
    encode_state_delta,
)
from repro.federated.engine.persistent import (
    apply_stacked_delta,
    encode_stacked_delta,
)
from repro.fgl.fedgnn import FederatedGNN
from repro.simulation import structure_noniid_split
from tests.conftest import small_csbm


def _config(backend="process_pool", rounds=3, **kwargs):
    defaults = dict(rounds=rounds, local_epochs=2, lr=0.02, seed=0,
                    backend=backend,
                    num_workers=2 if backend == "process_pool" else 0)
    defaults.update(kwargs)
    return FederatedConfig(**defaults)


def _assert_history_equal(a, b, exact=True):
    """Histories must match serial: bitwise for serial intra-worker mode,
    at the batched engine's equivalence tolerance when shards are fused."""
    assert a.rounds == b.rounds
    if exact:
        np.testing.assert_array_equal(a.loss, b.loss)
        np.testing.assert_array_equal(a.test_accuracy, b.test_accuracy)
        np.testing.assert_array_equal(a.train_accuracy, b.train_accuracy)
    else:
        np.testing.assert_allclose(a.loss, b.loss, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(a.test_accuracy, b.test_accuracy,
                                   atol=1e-12)
        np.testing.assert_allclose(a.train_accuracy, b.train_accuracy,
                                   atol=1e-12)


class TestStackedDeltaBuffers:
    """``out=`` on the stacked codec: the worker encodes into resident
    buffers, the coordinator decodes in the buffer the delta arrived in."""

    @staticmethod
    def _shard(rng, clients=3):
        received = [{"w": rng.normal(size=(4, 2)), "b": rng.normal(size=2)}
                    for _ in range(clients)]
        stacks = {name: np.stack([state[name] for state in received])
                  + rng.normal(size=(clients,) + received[0][name].shape)
                  for name in ("w", "b")}
        return stacks, received

    @pytest.mark.parametrize("uniform", [True, False])
    def test_out_changes_where_not_what(self, rng, uniform):
        stacks, received = self._shard(rng)
        if uniform:
            received = [received[0]] * len(received)
        plain = encode_stacked_delta(stacks, received)
        out = {name: np.empty(stack.shape, dtype=np.uint64)
               for name, stack in stacks.items()}
        into = encode_stacked_delta(stacks, received, out=out)
        for name in stacks:
            assert into[name] is out[name]
            assert into[name].tobytes() == plain[name].tobytes()
        rebuilt = apply_stacked_delta(received, plain)
        in_place = apply_stacked_delta(received, into, out=into)
        for index, state in enumerate(in_place):
            for name in stacks:
                assert np.shares_memory(state[name], out[name])
                assert state[name].tobytes() \
                    == rebuilt[index][name].tobytes() \
                    == stacks[name][index].tobytes()

    def test_worker_encodes_into_the_same_buffers_every_round(
            self, community_clients):
        """Rounds two and later allocate no delta buffer — once the reply
        of the round before is let go, as the worker loop does."""
        import copy

        from repro.autograd import Workspace
        from repro.federated.engine.batched import BatchedBackend
        from repro.federated.engine.persistent import (
            STACK_MARKER,
            _train_shard,
        )

        trainer = FederatedGNN(copy.deepcopy(community_clients), "gcn",
                               hidden=16, config=_config("serial"))
        residents = {client.client_id: client for client in trainer.clients}
        ids = sorted(residents)
        state = trainer.clients[0].get_weights()
        backend, upload, reply, held = BatchedBackend(), Workspace(), None, []
        for round_index in range(4):
            reply = None
            reply = _train_shard(residents, backend, {}, upload, ids, [state],
                                 {cid: 0 for cid in ids}, "auto")
            assert STACK_MARKER in reply[1] and "checksum" in reply[2]
            if round_index == 0:
                fresh = upload.fresh
                assert fresh == len(state)
            elif round_index == 2:
                held.append(reply)       # an unacknowledged frame, say
        assert upload.fresh == 2 * fresh  # only the held reply cost buffers
        unstamped = _train_shard(residents, backend, {}, Workspace(), ids,
                                 [state], {cid: 0 for cid in ids}, "auto",
                                 stamp=False)
        assert "checksum" not in unstamped[2]


class TestDeltaCodec:
    def test_bit_pattern_roundtrip_is_lossless(self, rng):
        # Include magnitudes a float delta would mangle: the reconstruction
        # received + (trained - received) rounds, the bit delta must not.
        received = {"w": rng.normal(size=(16, 8)),
                    "b": np.array([1e300, 1e-300, -0.0, 0.0, 3.14])}
        trained = {"w": received["w"] + rng.normal(size=(16, 8)) * 1e-13,
                   "b": received["b"] * (1.0 + 1e-16) + 1e-320}
        delta = encode_state_delta(trained, received)
        rebuilt = apply_state_delta(received, delta)
        for key in trained:
            assert np.array_equal(
                trained[key].view(np.uint64), rebuilt[key].view(np.uint64))

    def test_float_delta_would_not_be_lossless(self):
        # Sanity check of the motivation: the naive float reconstruction
        # ``received + (trained - received)`` loses low bits exactly where
        # the bit codec does not (pair found by exhaustive search).
        received = np.array([0.1257302210933933])
        trained = np.array([-0.1321048632913019])
        naive = received + (trained - received)
        assert naive[0] != trained[0]
        delta = encode_state_delta({"w": trained}, {"w": received})
        assert apply_state_delta({"w": received}, delta)["w"][0] == trained[0]


class TestWorkerPool:
    def test_worker_error_carries_traceback(self):
        pool = PersistentWorkerPool(1)
        try:
            with pytest.raises(WorkerError, match="unknown worker command"):
                pool.call(0, "definitely-not-a-command", None)
            # The worker survives a failed command.
            assert pool.call(0, "fetch_all", None) == {}
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent(self):
        pool = PersistentWorkerPool(1)
        pool.shutdown()
        assert pool.closed
        pool.shutdown()

    def test_failed_command_poisons_pool(self):
        pool = PersistentWorkerPool(2)
        try:
            pool.send(1, "fetch_all", None)  # reply left queued on worker 1
            with pytest.raises(WorkerError):
                pool.call(0, "bogus-command", None)
            # Strict request→reply pairing can no longer be trusted.
            assert pool.poisoned
        finally:
            pool.shutdown()

    def test_run_batches_pumps_one_command_per_worker(self):
        pool = PersistentWorkerPool(2)
        try:
            batches = {0: [("fetch_all", None)] * 3,
                       1: [("fetch_all", None)]}
            results = pool.run_batches(batches)
            assert results == {0: [{}, {}, {}], 1: [{}]}
        finally:
            pool.shutdown()


class TestResidency:
    def test_clients_are_shipped_once(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=_config(rounds=3))
        with trainer:
            trainer.run()
            transport = trainer.backend.transport
            bootstrap = transport.downloaded["bootstrap_payload"]
            assert bootstrap > 0
            # Per-round traffic carries only weights down and deltas up.
            num_params = trainer.clients[0].model.num_parameters()
            assert transport.uploaded["parameter_delta"] == \
                3 * len(trainer.clients) * num_params
            # All participants hold the identical broadcast state, so the
            # dedup ships one state per worker per round, not one per client.
            workers_used = len({trainer.backend.owner_of(c.client_id)
                                for c in trainer.clients})
            assert transport.downloaded["broadcast_weights"] == \
                3 * workers_used * num_params

    def test_sharding_is_deterministic(self, community_clients):
        owners = []
        for _ in range(2):
            trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                                   config=_config(rounds=1))
            with trainer:
                trainer.run()
                owners.append({c.client_id:
                               trainer.backend.owner_of(c.client_id)
                               for c in trainer.clients})
        assert owners[0] == owners[1]

    @pytest.mark.parametrize("intra_worker", ["serial", "auto"])
    def test_intra_worker_modes_match_serial(self, intra_worker,
                                             community_clients):
        serial = FederatedGNN(community_clients, "gcn", hidden=16,
                              config=_config("serial"))
        serial_history = serial.run()
        pooled = FederatedGNN(community_clients, "gcn", hidden=16,
                              config=_config(intra_worker=intra_worker))
        pooled_history = pooled.run()
        _assert_history_equal(serial_history, pooled_history,
                              exact=intra_worker == "serial")

    def test_unfusable_shard_is_the_serial_loop(self, community_clients):
        """A resident shard the batched engine refuses runs the per-client
        loop itself — bitwise ``intra_worker="serial"`` — and says why."""
        import copy

        from repro.autograd import Workspace
        from repro.federated.engine.batched import BatchedBackend
        from repro.federated.engine.persistent import _train_shard

        replies = {}
        for intra_worker in ("auto", "serial"):
            trainer = FederatedGNN(copy.deepcopy(community_clients), "gcn",
                                   hidden=16, config=_config("serial"))
            trainer.clients[1].local_epochs += 1    # no shared plan
            residents = {c.client_id: c for c in trainer.clients}
            ids = sorted(residents)
            assert len(ids) >= 2
            state = trainer.clients[0].get_weights()
            backend = BatchedBackend()
            replies[intra_worker] = [
                _train_shard(residents, backend, {}, Workspace(), ids,
                             [state], {cid: 0 for cid in ids}, intra_worker)
                for _ in range(2)]
        for auto, serial in zip(replies["auto"], replies["serial"]):
            assert auto[2]["mode"] == \
                "serial (participants are not architecture-homogeneous)"
            assert serial[2]["mode"] == "serial"
            assert auto[0] == serial[0]
            assert auto[1].keys() == serial[1].keys()
            for cid, delta in auto[1].items():
                for name, bits in delta.items():
                    assert bits.tobytes() == serial[1][cid][name].tobytes()

    def test_batched_alias_is_refused(self, community_clients):
        """``batched`` was ``auto`` under a second name; it is not a value."""
        with pytest.raises(ValueError, match="intra_worker must be one of "
                                             "auto, serial, got 'batched'"):
            FederatedGNN(community_clients, "gcn", hidden=16,
                         config=_config(intra_worker="batched"))

    def test_optimizer_and_rng_synced_at_close(self, community_clients):
        """Run → close → run again must continue exactly like serial."""
        serial = FederatedGNN(community_clients, "gcn", hidden=16,
                              config=_config("serial", rounds=2,
                                             intra_worker="serial"))
        pooled = FederatedGNN(community_clients, "gcn", hidden=16,
                              config=_config(rounds=2,
                                             intra_worker="serial"))
        serial.run()
        pooled.run()  # closes the pool and pulls moments/RNG into mirrors
        for a, b in zip(serial.clients, pooled.clients):
            assert a.optimizer._step_count == b.optimizer._step_count
            for m1, m2 in zip(a.optimizer._m, b.optimizer._m):
                np.testing.assert_array_equal(m1, m2)
        # Second run: the pool respawns and re-bootstraps from the synced
        # mirrors; histories must stay bitwise identical to serial.
        _assert_history_equal(serial.run(), pooled.run())


@pytest.fixture(scope="module")
def sixteen_clients():
    graph = small_csbm(num_nodes=400, homophily=0.85, seed=1)
    return structure_noniid_split(graph, 16, seed=0)


def _pickle_sizes(trainer):
    return {client.client_id: len(pickle.dumps(
        client, protocol=pickle.HIGHEST_PROTOCOL))
        for client in trainer.clients}


class TestAdoptFrames:
    """Clients ship to their worker in ``adopt`` frames of at most
    ``ADOPT_FRAME_BYTES`` of pickles, made one frame at a time."""

    @staticmethod
    def _spy(monkeypatch):
        """Record every adopt frame as ``(worker, client ids, bytes)``."""
        frames = []
        send = PersistentWorkerPool.send

        def spying(pool, worker, command, payload=None):
            if command == "adopt":
                frames.append((worker, [cid for cid, _ in payload],
                               sum(len(blob) for _, blob in payload)))
            return send(pool, worker, command, payload)
        monkeypatch.setattr(PersistentWorkerPool, "send", spying)
        return frames

    @staticmethod
    def _assert_bounded(frames, budget):
        for _worker, ids, size in frames:
            assert size <= budget or len(ids) == 1

    def _pooled(self, clients, **kwargs):
        return FederatedGNN(clients, "gcn", hidden=64, config=_config(
            intra_worker="serial", **kwargs))

    def test_bootstrap_frames_stay_within_the_budget(self, sixteen_clients,
                                                     monkeypatch):
        serial = FederatedGNN(sixteen_clients, "gcn", hidden=64,
                              config=_config("serial")).run()
        trainer = self._pooled(sixteen_clients)
        sizes = _pickle_sizes(trainer)
        budget = int(2.5 * max(sizes.values()))
        monkeypatch.setattr(backends, "ADOPT_FRAME_BYTES", budget)
        frames = self._spy(monkeypatch)
        with trainer:
            history = trainer.run()
            owners = {cid: trainer.backend.owner_of(cid) for cid in sizes}
        self._assert_bounded(frames, budget)
        # Two clients per frame, each client shipped once, to its owner,
        # in exactly the bytes a pickle of the untrained client takes.
        assert all(len(ids) == 2 for _worker, ids, _size in frames)
        shipped = [(cid, worker) for worker, ids, _size in frames
                   for cid in ids]
        assert sorted(shipped) == sorted(owners.items())
        assert sum(size for *_rest, size in frames) == sum(sizes.values())
        assert trainer.backend.transport.downloaded["bootstrap_payload"] \
            == sum(sizes.values()) / 8.0
        _assert_history_equal(serial, history)

    def test_a_client_over_the_budget_ships_alone(self, sixteen_clients,
                                                  monkeypatch):
        serial = FederatedGNN(sixteen_clients, "gcn", hidden=64,
                              config=_config("serial")).run()
        monkeypatch.setattr(backends, "ADOPT_FRAME_BYTES", 1)
        frames = self._spy(monkeypatch)
        history = self._pooled(sixteen_clients).run()
        assert [len(ids) for _worker, ids, _size in frames] == [1] * 16
        _assert_history_equal(serial, history)

    @pytest.mark.parametrize("policy", ["restart", "redistribute"])
    def test_crash_readopt_stays_within_the_budget(self, policy,
                                                   sixteen_clients,
                                                   monkeypatch):
        """Recovery re-adopts the crashed worker's residents through the
        same bounded frames, and the run stays bitwise serial."""
        serial = FederatedGNN(sixteen_clients, "gcn", hidden=64,
                              config=_config("serial")).run()
        plan = FaultPlan([FaultEvent(worker=0, dispatch=2, kind="crash")])
        trainer = self._pooled(sixteen_clients, on_worker_failure=policy,
                               fault_plan=plan)
        sizes = _pickle_sizes(trainer)
        budget = int(1.5 * max(sizes.values()))
        monkeypatch.setattr(backends, "ADOPT_FRAME_BYTES", budget)
        frames = self._spy(monkeypatch)
        history = trainer.run()
        assert trainer.backend.fault_stats["crashes"] == 1
        bootstrap = [cid for _worker, ids, _size in frames[:16]
                     for cid in ids]
        assert sorted(bootstrap) == sorted(sizes)
        readopted = [cid for _worker, ids, _size in frames[16:]
                     for cid in ids]
        assert sorted(readopted) == list(range(0, 16, 2))   # worker 0's
        self._assert_bounded(frames, budget)
        _assert_history_equal(serial, history)

    def test_first_dispatch_holds_one_frame_at_a_time(self, sixteen_clients,
                                                      monkeypatch):
        """The first dispatch's transient memory is bounded by one frame,
        not by the cohort: the frame, the channel's serialisation of it,
        and the next client's pickle — each pickle made in a growing buffer
        of up to twice its size."""
        trainer = self._pooled(sixteen_clients)
        largest = max(_pickle_sizes(trainer).values())
        monkeypatch.setattr(backends, "ADOPT_FRAME_BYTES", largest)
        backend = trainer.backend
        backend.ensure_pool()
        try:
            tracemalloc.start()
            base = tracemalloc.get_traced_memory()[0]
            pooled = backend._bootstrap(trainer.clients)
            transient = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
            backend.close()
        assert len(pooled) == 16
        # The cohort's pickles alone are 16 × ``largest`` or so.
        assert transient <= 3 * (backends.ADOPT_FRAME_BYTES + largest)

    def test_a_never_stepped_client_pickles_without_moments(
            self, community_clients):
        client = FederatedGNN(community_clients, "gcn", hidden=64,
                              config=_config("serial")).clients[0]
        blob = pickle.dumps(client, protocol=pickle.HIGHEST_PROTOCOL)
        shipped = pickle.loads(blob)
        assert shipped.optimizer._m == [None] * len(
            shipped.optimizer.parameters)
        assert shipped.optimizer._v == shipped.optimizer._m
        optimizer = client.optimizer
        optimizer._m = [np.zeros_like(p.data) for p in optimizer.parameters]
        optimizer._v = [np.zeros_like(p.data) for p in optimizer.parameters]
        eager = pickle.dumps(client, protocol=pickle.HIGHEST_PROTOCOL)
        moment_bytes = 2 * 8 * client.model.num_parameters()
        assert len(eager) - len(blob) >= moment_bytes


class TestExtraLossFallback:
    """Clients with non-picklable hooks train in-process, exactly."""

    @staticmethod
    def _hook(scale):
        # A closure: not picklable, like FedGL's pseudo-label term.
        return lambda client, logits: F.softmax(logits, axis=-1).sum() \
            * 0.0 + scale * 0.0001

    def _build(self, clients, backend, hooked, **kwargs):
        # intra_worker="serial" keeps the worker path bitwise-serial, so the
        # comparison isolates the in-process fallback machinery itself.
        trainer = FederatedGNN(clients, "gcn", hidden=16,
                               config=_config(backend, intra_worker="serial",
                                              **kwargs))
        for cid in hooked:
            trainer.clients[cid].extra_loss = self._hook(cid + 1)
        return trainer

    def test_mixed_residency_matches_serial(self, community_clients):
        serial = self._build(community_clients, "serial", hooked=[1])
        serial_history = serial.run()
        pooled = self._build(community_clients, "process_pool", hooked=[1])
        pooled_history = pooled.run()
        _assert_history_equal(serial_history, pooled_history)
        for a, b in zip(serial.clients, pooled.clients):
            for key, value in a.get_weights().items():
                np.testing.assert_array_equal(value, b.get_weights()[key])

    def test_all_hooked_clients_match_serial(self, community_clients):
        serial = self._build(community_clients, "serial", hooked=[0, 1, 2])
        pooled = self._build(community_clients, "process_pool",
                             hooked=[0, 1, 2])
        _assert_history_equal(serial.run(), pooled.run())

    def test_midrun_hook_evicts_resident_client(self, community_clients):
        """A hook appearing mid-run pulls the client back in-process."""
        def attach_midrun(trainer):
            original = trainer.before_round

            def hooked(round_index, participants):
                original(round_index, participants)
                if round_index == 2:
                    trainer.clients[0].extra_loss = self._hook(7)
            trainer.before_round = hooked
            return trainer

        serial = attach_midrun(self._build(community_clients, "serial", []))
        serial_history = serial.run()
        pooled = attach_midrun(
            self._build(community_clients, "process_pool", []))
        backend = pooled.backend
        evicted_at = []

        def record(round_index, participants):
            if 0 in backend._local:
                evicted_at.append(round_index)
        pooled.after_round = record
        pooled_history = pooled.run()
        _assert_history_equal(serial_history, pooled_history)
        # The client was resident in round 1 and evicted from round 2 on.
        assert evicted_at == [2, 3]


class TestContextManager:
    def test_with_block_keeps_pool_across_runs(self, community_clients):
        with FederatedGNN(community_clients, "gcn", hidden=16,
                          config=_config(rounds=1)) as trainer:
            trainer.run()
            pool = trainer.backend._pool
            assert pool is not None and not pool.closed
            trainer.run()
            assert trainer.backend._pool is pool  # persisted across runs
        assert trainer.backend._pool is None  # released on exit

    def test_plain_run_releases_pool(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=_config(rounds=1))
        trainer.run()
        assert trainer.backend._pool is None

    def test_run_after_context_exit_releases_pool(self, community_clients):
        with FederatedGNN(community_clients, "gcn", hidden=16,
                          config=_config(rounds=1)) as trainer:
            trainer.run()
        # Standalone semantics are restored after the block: a later run()
        # must release the pool it respawns.
        trainer.run()
        assert trainer.backend._pool is None

    def test_no_poolable_clients_spawns_no_workers(self, community_clients):
        # FedGL-style: every client hooked → the pool must never spawn.
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=_config(rounds=2))
        for client in trainer.clients:
            client.extra_loss = lambda client, logits: None
        with trainer:
            trainer.run()
            assert trainer.backend._pool is None

    def test_worker_failure_raises_worker_error(self, community_clients):
        """A mid-round worker crash surfaces the worker traceback (not a
        protocol-desync AttributeError) and still reclaims the pool."""
        import copy
        clients = copy.deepcopy(community_clients)
        trainer = FederatedGNN(clients, "gcn", hidden=16,
                               config=_config(rounds=2,
                                              intra_worker="serial"))
        # Sabotage a worker-side client: out-of-range labels make the
        # cross-entropy gather raise inside the worker process.
        trainer.clients[0].graph.labels[:] = 999
        with pytest.raises(WorkerError, match="worker 0 failed"):
            trainer.run()
        assert trainer.backend._pool is None

    def test_coordinator_failure_preserves_original_error(
            self, community_clients):
        """An in-process client crashing between send and recv must surface
        its own exception — not a protocol-desync AttributeError from the
        close-time sync consuming the workers' still-queued train replies."""
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=_config(rounds=2,
                                              intra_worker="serial"))

        def bomb(client, logits):
            raise RuntimeError("local boom")
        trainer.clients[1].extra_loss = bomb  # coordinator-resident
        with pytest.raises(RuntimeError, match="local boom"):
            trainer.run()
        assert trainer.backend._pool is None

    def test_midround_failure_releases_pool(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=_config(rounds=3))

        def explode(round_index, participants):
            if round_index == 2:
                raise RuntimeError("boom")
        trainer.before_round = explode
        with pytest.raises(RuntimeError, match="boom"):
            trainer.run()
        assert trainer.backend._pool is None

    def test_make_backend_accepts_intra_worker(self):
        from repro.federated import make_backend
        backend = make_backend("process_pool", num_workers=2,
                               intra_worker="serial")
        assert isinstance(backend, ProcessPoolBackend)
        assert backend.config.intra_worker == "serial"
        with pytest.raises(ValueError):
            ProcessPoolBackend(2, intra_worker="quantum")

    def test_legacy_factory_signature_still_works(self):
        """Externally registered num_workers-only factories keep working:
        unknown knobs are filtered by signature, not force-fed."""
        from repro.federated import make_backend
        from repro.federated.engine import SerialBackend, register_backend
        from repro.federated.engine.backends import BACKEND_REGISTRY
        register_backend("legacy-test", lambda num_workers=None:
                         SerialBackend())
        try:
            backend = make_backend("legacy-test", num_workers=2,
                                   intra_worker="auto")
            assert isinstance(backend, SerialBackend)
        finally:
            BACKEND_REGISTRY.pop("legacy-test", None)
