"""Scaling layer: hierarchical edge aggregation, the memory-mapped client
store, per-round subsampling, and the entropy-coded qtopk index transport."""

from __future__ import annotations

import resource

import numpy as np
import pytest

from repro.federated.engine.clientstore import (
    ClientStore,
    ModelSpec,
    StoreFederatedTrainer,
)
from repro.federated.engine.persistent import (
    apply_topk_delta,
    encode_topk_delta,
    pack_indices,
    unpack_indices,
)
from repro.federated.trainer import (
    FederatedConfig,
    participation_rng,
    select_participant_ids,
)
from repro.fgl import FederatedGNN
from tests.conftest import small_csbm

from repro.simulation import community_split


@pytest.fixture(scope="module")
def subgraphs():
    graph = small_csbm(num_nodes=150, homophily=0.85, seed=1)
    return community_split(graph, 4, seed=0)


def _config(**kwargs):
    base = dict(rounds=3, local_epochs=2, seed=7, eval_every=1)
    base.update(kwargs)
    return FederatedConfig(**base)


def _run_flat(subgraphs, **kwargs):
    trainer = FederatedGNN(subgraphs, "gcn", hidden=16,
                           config=_config(**kwargs))
    history = trainer.run()
    return history, trainer.server.global_state


# ----------------------------------------------------------------------
# Participant subsampling
# ----------------------------------------------------------------------
class TestSubsampling:
    def test_partial_fraction_never_selects_everyone(self):
        rng = participation_rng(0)
        # The old ``max(1, round(f * n))`` rounded 0.67 * 3 up to 2 but
        # 0.9 * 3 up to 3 — a participation *below* 1.0 silently became
        # full participation at small N.
        for total in (2, 3, 4, 5, 10):
            for fraction in (0.34, 0.5, 0.67, 0.9, 0.99):
                picked = select_participant_ids(rng, total, fraction)
                assert 1 <= len(picked) < total
                assert picked == sorted(set(picked))

    def test_full_participation_consumes_no_randomness(self):
        rng = participation_rng(3)
        before = rng.bit_generator.state
        assert select_participant_ids(rng, 5, 1.0) == [0, 1, 2, 3, 4]
        assert rng.bit_generator.state == before

    def test_dedicated_stream_keeps_training_rng_parity(self, subgraphs):
        """Changing participation must not perturb model-init/dropout RNG:
        two full-participation runs bracket a subsampled one and still
        match bitwise."""
        h_a, w_a = _run_flat(subgraphs, backend="serial")
        _run_flat(subgraphs, backend="serial", participation=0.5)
        h_b, w_b = _run_flat(subgraphs, backend="serial")
        assert h_a.loss == h_b.loss
        assert all(np.array_equal(w_a[k], w_b[k]) for k in w_a)

    def test_selection_is_deterministic_across_backends(self, subgraphs):
        histories = []
        for backend, extra in (("serial", {}),
                               ("process_pool",
                                {"num_workers": 2,
                                 "intra_worker": "serial"}),
                               ("process_pool",
                                {"num_workers": 2,
                                 "intra_worker": "serial",
                                 "hierarchical": True})):
            history, _ = _run_flat(subgraphs, backend=backend,
                                   participation=0.5, **extra)
            histories.append(history)
        reference = histories[0]
        assert reference.participants
        for round_index, ids in reference.participants.items():
            assert 0 < len(ids) < len(subgraphs)
        for other in histories[1:]:
            assert other.participants == reference.participants
            assert other.loss == reference.loss


# ----------------------------------------------------------------------
# Entropy-coded qtopk index transport
# ----------------------------------------------------------------------
class TestVarintIndices:
    def test_roundtrip_is_exact(self):
        rng = np.random.default_rng(0)
        cases = [
            np.empty(0, dtype=np.int64),
            np.array([0], dtype=np.int64),
            np.array([12345], dtype=np.int64),
            np.arange(100, dtype=np.int64),
            np.array([5, 1_000_000, 2**40, 2**55], dtype=np.int64),
            np.sort(rng.choice(1 << 20, size=513,
                               replace=False)).astype(np.int64),
        ]
        for indices in cases:
            packed = pack_indices(indices)
            assert packed.dtype == np.uint8
            assert np.array_equal(unpack_indices(packed, indices.size),
                                  indices)

    def test_packed_stream_beats_raw_int64(self):
        rng = np.random.default_rng(1)
        indices = np.sort(rng.choice(1 << 16, size=1024,
                                     replace=False)).astype(np.int64)
        packed = pack_indices(indices)
        # Dense sorted top-k gaps fit in 1-2 varint bytes vs 8 raw bytes.
        assert packed.nbytes < indices.nbytes // 4

    def test_qtopk_payload_applies_identically_to_legacy(self):
        rng = np.random.default_rng(2)
        received = {"w": rng.normal(size=(32, 32))}
        trained = {"w": received["w"] + rng.normal(size=(32, 32))}
        payload, residual, transported = encode_topk_delta(
            trained, received, top_k=64, bits=8)
        indices, values, shape = payload["w"]
        assert indices.dtype == np.uint8
        legacy_payload = {
            "w": (unpack_indices(indices, len(values)), values, shape)}
        applied = apply_topk_delta(received, payload)
        legacy = apply_topk_delta(received, legacy_payload)
        assert np.array_equal(applied["w"], legacy["w"])
        assert set(residual) == {"w"}
        # Cheaper than shipping 64 raw int64 indices alongside the values.
        assert transported < 64 + (64 * 8) // 64 + 1


# ----------------------------------------------------------------------
# Hierarchical (edge-aggregated) rounds
# ----------------------------------------------------------------------
class TestHierarchical:
    def test_matches_flat_fedavg_bitwise(self, subgraphs):
        h_flat, w_flat = _run_flat(subgraphs, backend="process_pool",
                                   num_workers=2, intra_worker="serial")
        h_hier, w_hier = _run_flat(subgraphs, backend="process_pool",
                                   num_workers=2, intra_worker="serial",
                                   hierarchical=True)
        loss_gap = max(abs(a - b) for a, b in zip(h_flat.loss, h_hier.loss))
        assert loss_gap == 0.0
        assert h_flat.test_accuracy == h_hier.test_accuracy
        assert all(np.array_equal(w_flat[k], w_hier[k]) for k in w_flat)

    def test_uplink_is_per_worker_not_per_client(self, subgraphs):
        trainer = FederatedGNN(subgraphs, "gcn", hidden=16,
                               config=_config(backend="process_pool",
                                              num_workers=2,
                                              intra_worker="serial",
                                              hierarchical=True))
        trainer.run()
        uploads = trainer.tracker.uploaded
        # One edge-aggregate record per worker shard per round; no
        # per-client model_parameters uploads at all.
        assert uploads.get("model_parameters", 0.0) == 0.0
        assert uploads["edge_aggregate"] > 0

    def test_requires_process_pool(self, subgraphs):
        with pytest.raises(ValueError, match="process_pool"):
            FederatedGNN(subgraphs, "gcn", hidden=16,
                         config=_config(backend="serial",
                                        hierarchical=True))

    def test_requires_sync_rounds(self, subgraphs):
        trainer = FederatedGNN(
            subgraphs, "gcn", hidden=16,
            config=_config(backend="process_pool", num_workers=2,
                           hierarchical=True, round_mode="async"))
        with pytest.raises(ValueError, match="sync"):
            trainer.run()

    def test_requires_lossless_codec(self, subgraphs):
        with pytest.raises(ValueError, match="bitdelta"):
            FederatedGNN(subgraphs, "gcn", hidden=16,
                         config=_config(backend="process_pool",
                                        num_workers=2, hierarchical=True,
                                        delta_codec="qtopk"))


# ----------------------------------------------------------------------
# Memory-mapped client store
# ----------------------------------------------------------------------
class TestClientStore:
    @pytest.fixture()
    def store(self, subgraphs, tmp_path):
        spec = ModelSpec(model_name="gcn", hidden=16, dropout=0.5, seed=7)
        return ClientStore.create(str(tmp_path / "store"),
                                  (graph for graph in subgraphs), spec)

    def test_graph_roundtrip_is_bitwise(self, subgraphs, store):
        reopened = ClientStore.open(store.path)
        assert reopened.num_clients == len(subgraphs)
        for cid, original in enumerate(subgraphs):
            rebuilt = reopened.graph(cid)
            assert np.array_equal(rebuilt.features, original.features)
            assert np.array_equal(rebuilt.labels, original.labels)
            assert np.array_equal(rebuilt.train_mask, original.train_mask)
            assert np.array_equal(rebuilt.val_mask, original.val_mask)
            assert np.array_equal(rebuilt.test_mask, original.test_mask)
            assert (rebuilt.adjacency != original.adjacency).nnz == 0
            assert rebuilt.num_classes == original.num_classes

    def test_mutable_state_roundtrip_is_bitwise(self, store):
        client = store.materialize(0, local_epochs=2)
        client.local_train()
        store.save_mutable(client)
        store.flush()

        resumed = ClientStore.open(store.path).materialize(0, local_epochs=2)
        for key, value in client.get_weights().items():
            assert np.array_equal(resumed.get_weights()[key], value)
        assert resumed.optimizer._step_count == client.optimizer._step_count
        for mine, theirs in zip(client.optimizer._m, resumed.optimizer._m):
            assert np.array_equal(mine, theirs)
        for mine, theirs in zip(client.optimizer._v, resumed.optimizer._v):
            assert np.array_equal(mine, theirs)
        from repro.federated.engine.backends import _module_rngs

        for mine, theirs in zip(_module_rngs(client.model),
                                _module_rngs(resumed.model)):
            assert mine.bit_generator.state == theirs.bit_generator.state
        # Resumed streams continue identically.
        assert resumed.local_train() == client.local_train()

    def test_never_stepped_client_roundtrip_is_bitwise(self, store):
        """A slot saved before any step restores a client that holds no
        moments, and the two train on bit for bit alike."""
        client = store.materialize(2, local_epochs=2)
        store.save_mutable(client)
        store.flush()
        resumed = ClientStore.open(store.path).materialize(2, local_epochs=2)
        opt = resumed.optimizer
        assert opt._step_count == 0
        assert opt._m == opt._v == [None] * len(opt.parameters)
        for key, value in client.get_weights().items():
            assert np.array_equal(resumed.get_weights()[key], value)
        assert resumed.local_train() == client.local_train()
        for key, value in client.get_weights().items():
            assert np.array_equal(resumed.get_weights()[key], value)
        for mine, theirs in zip(client.optimizer._m + client.optimizer._v,
                                opt._m + opt._v):
            assert np.array_equal(mine, theirs)

    def test_materialization_is_zero_copy(self, store):
        client = store.materialize(1)
        # Immutable tensors are views into the memory-mapped arenas, not
        # copies — materializing a client pages in only what it touches.
        assert np.shares_memory(client.graph.features, store._features)
        assert np.shares_memory(client.graph.labels, store._labels)

    def test_untrained_store_is_sparse_and_open_is_lazy(self, subgraphs,
                                                        tmp_path):
        """A big untrained federation costs graph bytes only, and opening
        plus materializing one client must not page the whole arena in."""
        spec = ModelSpec(model_name="gcn", hidden=16, dropout=0.5, seed=7)

        def many(copies=400):
            for _ in range(copies):
                for graph in subgraphs:
                    yield graph

        store = ClientStore.create(str(tmp_path / "big"), many(), spec)
        assert store.num_clients == 400 * len(subgraphs)
        arena_bytes = store._features.nbytes + store._mutable.nbytes
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        reopened = ClientStore.open(store.path)
        client = reopened.materialize(0, local_epochs=1)
        client.local_train()
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
        # Touching one client must cost far less than the mapped arenas
        # (generous 50% margin: ru_maxrss is high-water and noisy).
        assert after - before < max(1, arena_bytes // 2)

    def test_store_trainer_matches_flat_serial(self, subgraphs, store):
        h_flat, w_flat = _run_flat(subgraphs, backend="serial")
        trainer = StoreFederatedTrainer(store, _config(num_workers=0))
        h_store = trainer.run()
        loss_gap = max(abs(a - b)
                       for a, b in zip(h_flat.loss, h_store.loss))
        assert loss_gap == 0.0
        assert h_flat.test_accuracy == h_store.test_accuracy
        assert h_flat.train_accuracy == h_store.train_accuracy
        assert all(np.array_equal(w_flat[k], trainer.global_state[k])
                   for k in w_flat)

    def test_store_trainer_pool_matches_in_process(self, subgraphs,
                                                   tmp_path):
        spec = ModelSpec(model_name="gcn", hidden=16, dropout=0.5, seed=7)

        def run(name, workers):
            store = ClientStore.create(str(tmp_path / name),
                                       (graph for graph in subgraphs), spec)
            trainer = StoreFederatedTrainer(store, _config(
                participation=0.5, num_workers=workers))
            return trainer.run()

        serial = run("serial", 0)
        pooled = run("pooled", 2)
        assert serial.participants == pooled.participants
        assert serial.loss == pooled.loss
        assert serial.test_accuracy == pooled.test_accuracy

    def test_store_round_over_tcp_equals_the_pipe_round(self, subgraphs,
                                                        tmp_path):
        """``transport`` is honoured, not ignored: the pool the store round
        trains on is built from the config's channel."""
        spec = ModelSpec(model_name="gcn", hidden=16, dropout=0.5, seed=7)
        runs = {}
        for transport in ("pipe", "tcp"):
            store = ClientStore.create(str(tmp_path / transport),
                                       (graph for graph in subgraphs), spec)
            trainer = StoreFederatedTrainer(store, _config(
                rounds=2, num_workers=2, transport=transport))
            assert trainer._ensure_pool().transport.name == transport
            runs[transport] = (trainer.run(), trainer.global_state)
        (pipe, w_pipe), (tcp, w_tcp) = runs["pipe"], runs["tcp"]
        assert pipe.loss == tcp.loss
        assert pipe.test_accuracy == tcp.test_accuracy
        assert all(np.array_equal(w_pipe[k], w_tcp[k]) for k in w_pipe)

    @pytest.mark.parametrize("unserved", [
        dict(round_mode="async"), dict(delta_codec="topk"),
        dict(participation=1.5),
        dict(participation=0.0)], ids=lambda knobs: "-".join(knobs))
    def test_unservable_config_is_refused_before_a_pool_exists(
            self, store, unserved, monkeypatch):
        from repro.federated.engine import persistent

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was spawned")

        monkeypatch.setattr(persistent, "PersistentWorkerPool", no_pool)
        (name, value), = unserved.items()
        with pytest.raises(ValueError, match=name):
            StoreFederatedTrainer(store, _config(num_workers=2, **unserved))

    def test_constructor_is_the_store_the_config_and_eval_sample(self):
        import inspect

        signature = inspect.signature(StoreFederatedTrainer.__init__)
        bare = signature.replace(parameters=[
            parameter.replace(annotation=parameter.empty)
            for parameter in signature.parameters.values()])
        assert str(bare) == "(self, store, config=None, *, eval_sample=None)"
