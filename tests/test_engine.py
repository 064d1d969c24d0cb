"""Tests for the federation engine: execution backends × aggregation."""

import collections
import dataclasses

import numpy as np
import pytest

from repro.core import AdaFGL, AdaFGLConfig
from repro.experiments import ExperimentSettings
from repro.federated import (
    FederatedConfig,
    list_backends,
    make_backend,
)
from repro.federated.engine import (
    BatchedBackend,
    ProcessPoolBackend,
    SerialBackend,
    resolve_round_loop,
    restore_client_state,
    snapshot_client_state,
)
from repro.fgl.fedgnn import FederatedGNN, make_model_factory
from repro.federated.trainer import FederatedTrainer


BACKENDS = ["serial", "process_pool", "batched"]


def _config(backend="serial", rounds=3, **kwargs):
    defaults = dict(rounds=rounds, local_epochs=2, lr=0.02, seed=0,
                    backend=backend,
                    num_workers=2 if backend == "process_pool" else 0)
    defaults.update(kwargs)
    return FederatedConfig(**defaults)


def _run(clients, backend, model="gcn", **kwargs):
    trainer = FederatedGNN(clients, model, hidden=16,
                           config=_config(backend, **kwargs))
    history = trainer.run()
    return trainer, history


class TestRegistries:
    def test_backend_names(self):
        assert {"serial", "process_pool", "batched"} <= set(list_backends())

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError):
            make_backend("quantum")

    def test_instances_pass_through(self):
        backend = SerialBackend()
        assert make_backend(backend) is backend

    def test_make_backend_by_name(self):
        assert isinstance(make_backend("batched"), BatchedBackend)
        assert isinstance(make_backend("process_pool", num_workers=2),
                          ProcessPoolBackend)


class TestBackendEquivalence:
    """Every backend must reproduce the serial TrainingHistory exactly."""

    @pytest.fixture(scope="class")
    def serial_history(self, community_clients):
        return _run(community_clients, "serial")[1]

    @pytest.mark.parametrize("backend", ["process_pool", "batched"])
    def test_history_matches_serial(self, backend, community_clients,
                                    serial_history):
        trainer, history = _run(community_clients, backend)
        assert history.rounds == serial_history.rounds
        np.testing.assert_allclose(history.loss, serial_history.loss,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(history.test_accuracy,
                                   serial_history.test_accuracy, atol=1e-12)
        np.testing.assert_allclose(history.train_accuracy,
                                   serial_history.train_accuracy, atol=1e-12)
        if backend == "batched":
            assert trainer.backend.last_fallback is None

    @pytest.mark.parametrize("backend", ["process_pool", "batched"])
    def test_final_weights_match_serial(self, backend, community_clients):
        serial_trainer, _ = _run(community_clients, "serial")
        other_trainer, _ = _run(community_clients, backend)
        for a, b in zip(serial_trainer.clients, other_trainer.clients):
            state_a, state_b = a.get_weights(), b.get_weights()
            for key in state_a:
                np.testing.assert_allclose(state_a[key], state_b[key],
                                           rtol=1e-9, atol=1e-12)

    def test_batched_optimizer_state_written_back(self, community_clients):
        trainer, _ = _run(community_clients, "batched")
        config = trainer.config
        expected_steps = config.rounds * config.local_epochs
        for client in trainer.clients:
            assert client.optimizer._step_count == expected_steps
            assert all(np.any(m != 0) for m in client.optimizer._m)

    def test_batched_falls_back_on_unplanned_model(self, community_clients):
        # GCNII has no batched plan family (GAMLP/GPR-GNN joined in PR 5).
        serial_trainer, serial_history = _run(community_clients, "serial",
                                              model="gcnii", rounds=2)
        batched_trainer, batched_history = _run(community_clients, "batched",
                                                model="gcnii", rounds=2)
        assert batched_trainer.backend.last_fallback is not None
        np.testing.assert_allclose(batched_history.loss, serial_history.loss)
        assert batched_history.test_accuracy == serial_history.test_accuracy


class TestBatchedSGC:
    """The SGC/propagation-family batched plan vs serial SGC."""

    def test_history_matches_serial_exactly(self, community_clients):
        serial_trainer, serial_history = _run(community_clients, "serial",
                                              model="sgc")
        batched_trainer, batched_history = _run(community_clients, "batched",
                                                model="sgc")
        assert batched_trainer.backend.last_fallback is None
        assert batched_history.rounds == serial_history.rounds
        np.testing.assert_array_equal(batched_history.loss,
                                      serial_history.loss)
        np.testing.assert_array_equal(batched_history.test_accuracy,
                                      serial_history.test_accuracy)
        assert batched_trainer.evaluate("test") == \
            serial_trainer.evaluate("test")

    def test_final_weights_match_serial(self, community_clients):
        serial_trainer, _ = _run(community_clients, "serial", model="sgc")
        batched_trainer, _ = _run(community_clients, "batched", model="sgc")
        for a, b in zip(serial_trainer.clients, batched_trainer.clients):
            state_a, state_b = a.get_weights(), b.get_weights()
            for key in state_a:
                np.testing.assert_allclose(state_a[key], state_b[key],
                                           rtol=1e-9, atol=1e-12)

    def test_khop_precompute_cached_in_plan(self, community_clients):
        trainer = FederatedGNN(community_clients, "sgc", hidden=16,
                               config=_config("batched"))
        with trainer:  # keep the backend (and its plan cache) alive
            trainer.run()
            plans = list(trainer.backend._plans.values())
            assert len(plans) == 1
            assert plans[0].family.model_type.__name__ == "SGC"
            # The constant k-hop block exists and every epoch reuses it.
            propagated, = plans[0].constants
            assert propagated.shape[0] == len(trainer.clients)

    def test_mixed_model_families_fall_back(self, community_clients):
        # A mixed GCN/SGC participant set is not architecture-homogeneous;
        # the backend must refuse to fuse it and train serially instead.
        gcn_trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                                   config=_config("serial", rounds=1))
        sgc_trainer = FederatedGNN(community_clients, "sgc", hidden=16,
                                   config=_config("serial", rounds=1))
        backend = BatchedBackend()
        mixed = [gcn_trainer.clients[0], sgc_trainer.clients[1]]
        losses = backend.run_local_training(mixed)
        assert backend.last_fallback is not None
        assert len(losses) == 2

    def test_plan_construction_failure_is_cached(self, community_clients,
                                                 monkeypatch):
        from repro.federated.engine import batched as batched_module

        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=_config("serial", rounds=1))
        attempts = []

        class ExplodingPlan:
            def __init__(self, participants):
                attempts.append(len(participants))
                raise ValueError("cannot fuse this group")

        monkeypatch.setattr(batched_module, "_BatchedPlan", ExplodingPlan)
        backend = BatchedBackend()
        key = tuple(c.client_id for c in trainer.clients)
        backend.run_local_training(trainer.clients)
        assert backend._plans[key] == "cannot fuse this group"
        # Second round: the cached reason short-circuits the rebuild.
        backend.run_local_training(trainer.clients)
        assert attempts == [len(trainer.clients)]
        assert backend.last_fallback == "cannot fuse this group"

    def test_heterogeneous_k_falls_back(self, community_clients):
        from repro.models import SGC

        def make(k):
            trainer = FederatedGNN(community_clients, "sgc", hidden=16,
                                   config=_config("serial", rounds=1))
            for client in trainer.clients:
                client.model.k = k
            return trainer
        backend = BatchedBackend()
        mixed = [make(1).clients[0], make(3).clients[1]]
        backend.run_local_training(mixed)
        assert backend.last_fallback is not None
        assert isinstance(mixed[0].model, SGC)


class TestClientSnapshots:
    def test_snapshot_restore_roundtrip(self, community_clients):
        factory = make_model_factory("gcn", hidden=16)
        reference = FederatedTrainer(community_clients, factory,
                                     _config("serial", rounds=1)).clients[0]
        probe = FederatedTrainer(community_clients, factory,
                                 _config("serial", rounds=1)).clients[0]
        reference.local_train()
        restore_client_state(probe, snapshot_client_state(reference))
        np.testing.assert_allclose(probe.predict(), reference.predict())
        assert probe.optimizer._step_count == reference.optimizer._step_count
        # The restored client continues training exactly like the original.
        assert probe.local_train() == pytest.approx(reference.local_train(),
                                                    abs=0.0)

    def test_snapshot_captures_rng(self, community_clients):
        factory = make_model_factory("gcn", hidden=16)
        trainer = FederatedTrainer(community_clients, factory,
                                   _config("serial", rounds=1))
        client = trainer.clients[0]
        snapshot = snapshot_client_state(client)
        first = client.local_train()
        restore_client_state(client, snapshot)
        second = client.local_train()
        # Same weights AND same dropout stream → identical epoch losses.
        assert first == pytest.approx(second, abs=0.0)


class TestPartialParticipation:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_selection_count_and_accounting(self, backend, community_clients):
        config = _config(backend, rounds=3, participation=0.67)
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=config)
        trainer.run()
        num_params = trainer.clients[0].model.num_parameters()
        uploaded = trainer.tracker.uploaded["model_parameters"]
        downloaded = trainer.tracker.downloaded["model_parameters"]
        # Uploads: only the selected participants; downloads: broadcast all.
        assert uploaded == 3 * 2 * num_params
        assert downloaded == 3 * len(trainer.clients) * num_params

    def test_selection_is_seed_deterministic(self, community_clients):
        picks = []
        for _ in range(2):
            trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                                   config=_config("serial", rounds=1,
                                                  participation=0.67))
            picks.append([[c.client_id for c in trainer._select_participants()]
                          for _ in range(5)])
        assert picks[0] == picks[1]
        counts = {len(round_picks) for round_picks in picks[0]}
        assert counts == {2}

    def test_partial_participation_histories_match_across_backends(
            self, community_clients):
        histories = {}
        for backend in BACKENDS:
            _, histories[backend] = _run(community_clients, backend,
                                         participation=0.67)
        for backend in ("process_pool", "batched"):
            np.testing.assert_allclose(histories[backend].loss,
                                       histories["serial"].loss,
                                       rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(histories[backend].test_accuracy,
                                       histories["serial"].test_accuracy,
                                       atol=1e-12)


class TestEvaluationCaching:
    def test_one_forward_per_eval_tick(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=_config("serial", rounds=2))
        counts = {}

        def wrap(client):
            inner = client.model.forward

            def counting(*args, **kwargs):
                counts[client.client_id] = counts.get(client.client_id, 0) + 1
                return inner(*args, **kwargs)

            client.model.forward = counting

        for client in trainer.clients:
            wrap(client)
        trainer.run()
        # Per round: local_epochs training forwards + ONE cached predict
        # shared by evaluate("train"), evaluate("test") and the per-client
        # breakdown (previously three predict passes per client per round).
        expected = 2 * (trainer.config.local_epochs + 1)
        assert all(count == expected for count in counts.values())

    def test_predict_cache_invalidated_by_updates(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=_config("serial", rounds=1))
        client = trainer.clients[0]
        first = client.predict()
        assert client.predict() is first  # cached
        client.local_train()
        second = client.predict()
        assert second is not first
        client.set_weights(trainer.clients[1].get_weights())
        assert client.predict() is not second


class TestSparseDefaultParity:
    def test_experiment_settings_default_sparse(self):
        settings = ExperimentSettings()
        assert settings.adafgl_config().sparse_propagation is True
        # The library-level config stays dense (explicit opt-in elsewhere).
        assert AdaFGLConfig().sparse_propagation is False

    def test_dense_vs_exact_sparse_parity(self, community_clients):
        """The parity gate for the sparse-by-default flip.

        ``sparse_propagation=True, top_k=None`` keeps every off-diagonal
        similarity entry and must reproduce the dense Step-2 history.
        """
        base = AdaFGLConfig(rounds=2, local_epochs=1, hidden=16,
                            personalized_epochs=6, k_prop=2,
                            message_layers=1, seed=0)
        dense = AdaFGL(community_clients, dataclasses.replace(
            base, sparse_propagation=False))
        dense.run()
        sparse = AdaFGL(community_clients, dataclasses.replace(
            base, sparse_propagation=True, propagation_top_k=None))
        sparse.run()
        np.testing.assert_allclose(sparse.history.loss, dense.history.loss,
                                   rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(sparse.history.test_accuracy,
                                   dense.history.test_accuracy, atol=1e-12)

    def test_default_topk_accuracy_within_tolerance(self, community_clients):
        """The default top-k approximation stays close to dense accuracy."""
        base = AdaFGLConfig(rounds=2, local_epochs=1, hidden=16,
                            personalized_epochs=8, k_prop=2,
                            message_layers=1, seed=0)
        dense = AdaFGL(community_clients, dataclasses.replace(
            base, sparse_propagation=False))
        dense.run()
        sparse = AdaFGL(community_clients, dataclasses.replace(
            base, sparse_propagation=True))
        sparse.run()
        assert abs(sparse.evaluate("test") - dense.evaluate("test")) < 0.1


# ----------------------------------------------------------------------
# The shared operator cache (models/base.propagation_operator)
# ----------------------------------------------------------------------
def _sha(losses, states) -> str:
    import hashlib

    digest = hashlib.sha256(np.asarray(losses, dtype=np.float64).tobytes())
    for state in states:
        for key in sorted(state):
            digest.update(key.encode())
            digest.update(np.ascontiguousarray(state[key]).tobytes())
    return digest.hexdigest()


class TestOperatorCacheParity:
    """Reading the normalised operator from the shared cache changes no bit
    of training: same expressions, evaluated once instead of per consumer."""

    def _hashes(self, clients, seed):
        hashes = {}
        for backend in BACKENDS:       # 5 rounds x 4 epochs = 20 epochs
            trainer, history = _run(clients, backend, rounds=5,
                                    local_epochs=4, seed=seed)
            hashes[backend] = _sha(
                history.loss, [c.get_weights() for c in trainer.clients])
        method = AdaFGL(clients, AdaFGLConfig(
            rounds=2, local_epochs=1, hidden=16, personalized_epochs=20,
            k_prop=2, message_layers=1, seed=seed))
        method.run()
        hashes["step2"] = _sha(
            method.history.loss,
            [pc.model.state_dict() for pc in method.personalized])
        return hashes

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hashes_equal_a_fresh_normalisation_per_call(
            self, seed, community_clients, monkeypatch):
        from repro.models import base

        cached = self._hashes(community_clients, seed)
        # The parent's arithmetic: every consumer normalises for itself.
        monkeypatch.setattr(
            base, "cached_structure",
            lambda owner, build, *args: build(owner, *args))
        assert self._hashes(community_clients, seed) == cached

    def test_padded_batch_equals_the_coo_construction(self):
        """Rows / cols read off the cached CSR arrays build the very block
        diagonal the per-block ``.tocoo()`` built (ragged 5-client batch)."""
        import scipy.sparse as sp
        from types import SimpleNamespace

        from repro.datasets import load_dataset
        from repro.federated.engine.batched import _padded_batch
        from repro.models.base import prepare_propagation
        from repro.simulation import structure_noniid_split

        graphs = structure_noniid_split(
            load_dataset("cora", seed=0, num_nodes=230), 5, seed=0)
        assert len({graph.num_nodes for graph in graphs}) > 1
        clients = [SimpleNamespace(graph=graph) for graph in graphs]
        sizes, n_max, _features, propagation = _padded_batch(clients)
        rows, cols, vals = [], [], []
        for index, graph in enumerate(graphs):
            prop = prepare_propagation(graph.adjacency).tocoo()
            rows.append(prop.row + index * n_max)
            cols.append(prop.col + index * n_max)
            vals.append(prop.data)
        expected = sp.csr_matrix(
            (np.concatenate(vals),
             (np.concatenate(rows), np.concatenate(cols))),
            shape=(5 * n_max, 5 * n_max))
        assert sizes == [graph.num_nodes for graph in graphs]
        for name in ("indptr", "indices", "data"):
            mine, theirs = getattr(propagation, name), getattr(expected, name)
            assert mine.dtype == theirs.dtype
            assert mine.tobytes() == theirs.tobytes()


# ----------------------------------------------------------------------
# The stacked epoch (engine/batched.py): workspace replay, in-place Adam,
# resident dropout masks, hoisted first hop
# ----------------------------------------------------------------------
#: case → (model, FederatedConfig overrides)
STACKED_CASES = {
    "gcn": ("gcn", {}),
    "sgc": ("sgc", {}),
    "gamlp": ("gamlp", {}),
    "gprgnn": ("gprgnn", {}),
    # two dropout sites of equal width: their masks must not share a buffer
    "gcn-3-layer": ("gcn3", {}),
    # the participant set, and with it the plan, changes between rounds
    "gcn-partial": ("gcn", {"participation": 0.67}),
    "gcn-decay": ("gcn", {"weight_decay": 0.01}),
    "gcn-no-decay": ("gcn", {"weight_decay": 0.0}),
    # a step size that makes the global-norm clip fire (4 of 12 epochs)
    "gcn-clipped": ("gcn", {"lr": 1.0}),
}

#: SHA-256 (first 128 bits) over seeds 0-2 of (round losses, every client's
#: final weights), recorded at the parent of the allocation-free epoch
#: (9b435a5; numpy 2.4.6, scipy 1.17.1, OpenBLAS).  Serial and batched
#: differ in the last bits (per-client vs stacked GEMM blocking); the pool's
#: resident plans equal the in-process one wherever both pad to the same
#: ``n_max``.
STACKED_DIGESTS = {
    "gcn": {
        "serial": "7fcf243473375fab4ecf57ab06d44b67",
        "process_pool": "4b84dcf7bdb6f3717830cd33659ee809",
        "batched": "4b84dcf7bdb6f3717830cd33659ee809",
    },
    "sgc": {
        "serial": "1bfe8b781962523013d2e821678e5055",
        "process_pool": "6e8ad3fc437f573bb340b4cb6fb7bf22",
        "batched": "6e8ad3fc437f573bb340b4cb6fb7bf22",
    },
    "gamlp": {
        "serial": "143048e8ff2d93daf427b50140292db1",
        "process_pool": "ecbb17a2149a6088f07e7834e31e5c1b",
        "batched": "ecbb17a2149a6088f07e7834e31e5c1b",
    },
    "gprgnn": {
        "serial": "76c707399e8e53c0f398f4051a97db87",
        "process_pool": "f80abf38625299dd33c599e132aa2aba",
        "batched": "f80abf38625299dd33c599e132aa2aba",
    },
    "gcn-3-layer": {
        "serial": "21cfbb09d30a4fca418b32e7bba64908",
        "process_pool": "e82c856aa13db29151fe65c8f1782155",
        "batched": "e82c856aa13db29151fe65c8f1782155",
    },
    "gcn-partial": {
        "serial": "e5334f15167f9d42a2a8be70346d18ca",
        "process_pool": "2c88f21358970219dfa2b4444e54c712",
        "batched": "1626a2910ef2b4e688175780c88fab49",
    },
    "gcn-decay": {
        "serial": "92f09efa204a191dad19d42b9f993277",
        "process_pool": "f7081bd72911f376fb3b7e0fd97b189a",
        "batched": "f7081bd72911f376fb3b7e0fd97b189a",
    },
    "gcn-no-decay": {
        "serial": "4c9ca2b4f70d136cf27237332a6cc98e",
        "process_pool": "ab2380aa368fc2355a4ce2cac3d4acb8",
        "batched": "ab2380aa368fc2355a4ce2cac3d4acb8",
    },
    "gcn-clipped": {
        "serial": "ede7ef6e88a28fd88fe2bb56748d0712",
        "process_pool": "cd5e617832718b772069cd2f925aa69b",
        "batched": "cd5e617832718b772069cd2f925aa69b",
    },
}


def _stacked_digest(clients, case, backend):
    import hashlib

    from repro.models import GCN

    model, overrides = STACKED_CASES[case]
    digest = hashlib.sha256()
    for seed in range(3):
        if model == "gcn3":
            def factory(graph, seed=seed):
                return GCN(graph.num_features, 16, graph.num_classes,
                           num_layers=3, seed=seed)
        else:
            factory = make_model_factory(model, hidden=16, seed=seed)
        config = dict(rounds=4, local_epochs=3, seed=seed)
        config.update(overrides)
        trainer = FederatedTrainer(clients, factory,
                                   _config(backend, **config))
        history = trainer.run()
        digest.update(_sha(
            history.loss,
            [c.get_weights() for c in trainer.clients]).encode())
    return digest.hexdigest()[:32]


class TestStackedEpochParity:
    """The allocation-free epoch computes what the allocating one did: the
    same operations in the same order, so not one bit of any history moves
    — in process, and on the pool workers' resident (``keep_hot``) plans,
    which train three clients each here."""

    @pytest.fixture(scope="class")
    def six_clients(self, homophilous_graph):
        from repro.simulation import structure_noniid_split

        return structure_noniid_split(homophilous_graph, 6, seed=0)

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("case", list(STACKED_CASES))
    def test_history_digest_equals_the_parents(self, case, backend,
                                               six_clients):
        assert _stacked_digest(six_clients, case, backend) \
            == STACKED_DIGESTS[case][backend]


#: SHA-256 (first 128 bits) over seeds 0-1 of every client's Adam moments
#: and step count after ``run()`` on the batched backend, recorded before
#: in-process rounds trained on resident stacks (869e260; numpy 2.4.6,
#: scipy 1.17.1, OpenBLAS).  "with" reads them inside a ``with trainer:``
#: block after two ``run()`` calls, where the backend is not closed.
MOMENT_CASES = {
    "full": {},
    "partial": {"participation": 0.67},
    "clipped": {"lr": 1.0},
}
MOMENT_DIGESTS = {
    ("full", "standalone"): "b512986b270e029d4a273527e92be776",
    ("full", "with"): "2dba03e5b51e393395065f461e17b069",
    ("partial", "standalone"): "314e631fd3f4d4a5d9d6ac9eb7e95b83",
    ("partial", "with"): "e1ccdbd11ac56eab796ffa6413ff215e",
    ("clipped", "standalone"): "1469c00ba0104bf52140b8ac62d9ed28",
    ("clipped", "with"): "09b2fe246444b0efb80da40fb0cb3085",
}


def _moment_digest(clients, case, scope):
    import hashlib

    digest = hashlib.sha256()
    for seed in range(2):
        config = dict(rounds=4, local_epochs=3, seed=seed)
        config.update(MOMENT_CASES[case])
        trainer = FederatedGNN(clients, "gcn", hidden=16,
                               config=_config("batched", **config))
        if scope == "standalone":
            trainer.run()
            digest.update(_moments(trainer).encode())
        else:
            with trainer:
                trainer.run(rounds=3)
                trainer.run(rounds=2)
                digest.update(_moments(trainer).encode())
    return digest.hexdigest()[:32]


def _moments(trainer) -> str:
    import hashlib

    digest = hashlib.sha256()
    for client in trainer.clients:
        optimizer = client.optimizer
        digest.update(np.int64(optimizer._step_count).tobytes())
        for index in range(len(optimizer.parameters)):
            for moment in optimizer.moments(index):
                digest.update(np.ascontiguousarray(moment).tobytes())
    return digest.hexdigest()


class TestInProcessResidentRounds:
    """A hookless batched run hands each round the last broadcast: the
    plan's stacks, Adam moments included, stay hot across rounds and the
    evaluation is one fused sweep.  Nothing it computes moves, and the
    clients end every ``run()`` with the optimizer state serial training
    leaves them (the mirrors keep the broadcast, never the trained
    weights)."""

    @pytest.fixture(scope="class")
    def six_clients(self, homophilous_graph):
        from repro.simulation import structure_noniid_split

        return structure_noniid_split(homophilous_graph, 6, seed=0)

    @pytest.mark.parametrize("scope", ["standalone", "with"])
    @pytest.mark.parametrize("case", list(MOMENT_CASES))
    def test_moments_after_run_equal_the_parents(self, case, scope,
                                                 six_clients):
        assert _moment_digest(six_clients, case, scope) \
            == MOMENT_DIGESTS[case, scope]

    def test_steady_round_stacks_nothing_and_forwards_no_client(
            self, six_clients, monkeypatch):
        from repro.federated.client import Client
        from repro.federated.engine import batched

        calls = collections.Counter()

        def spy(owner, name, counted=None):
            original = getattr(owner, name)

            def wrapper(self, *args, **kwargs):
                if counted is None or counted(self):
                    calls[name] += 1
                return original(self, *args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)

        spy(batched._BatchedPlan, "ensure_hot",
            lambda plan: plan.hot is None)
        spy(batched._BatchedPlan, "flush", lambda plan: plan.hot is not None)
        spy(batched._FusedEvalPlan, "refresh")
        spy(Client, "local_train")
        spy(Client, "forward")
        trainer = FederatedGNN(six_clients, "gcn", hidden=16,
                               config=_config("batched"))
        loop = resolve_round_loop(trainer)
        assert loop.hands_over and not loop.overlaps
        with trainer:
            for _ in range(2):
                calls.clear()
                trainer.run(rounds=6)
                # Round 1 has no broadcast to hand over: it stacks, trains
                # and flushes classically, and round 2 stacks again.  The
                # run's end flushes the optimizer state back.  Rounds 3-6
                # neither stack nor flush, and never forward one client.
                assert calls == {"ensure_hot": 2, "flush": 2, "refresh": 6}
                assert trainer.backend.last_fallback is None

    def test_hooked_trainer_keeps_the_classic_round(self, six_clients):
        trainer = FederatedGNN(six_clients, "gcn", hidden=16,
                               config=_config("batched"))
        trainer.after_round = lambda round_index, participants: None
        assert not resolve_round_loop(trainer).hands_over
        serial = FederatedGNN(six_clients, "gcn", hidden=16,
                              config=_config("serial"))
        assert not resolve_round_loop(serial).hands_over
