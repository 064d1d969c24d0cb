"""Tests for the decoupled-hop batched plans and the fused eval family.

Covers bitwise parity of batched GAMLP / GPR-GNN against serial training
(plain batched backend, persistent-pool intra-worker fusion, and the fused
coordinator-eval paths), group-wise personalized broadcasts (FED-PUB /
GCFL+ riding the fused eval instead of per-client forwards), the quantised
``qtopk`` delta transport, and the sync pipeline's per-shard round
wall-time histories.
"""

import gc
import sys
import weakref

import numpy as np
import pytest

from repro.datasets import CSBMConfig, generate_csbm, make_split_masks
from repro.federated import FederatedConfig, ProcessPoolBackend
from repro.federated.engine import (
    build_eval_plan,
    encode_topk_delta,
    group_states_by_identity,
    quantise_uniform,
)
from repro.federated.engine import batched
from repro.federated.engine.batched import _BatchedPlan
from repro.federated.engine.persistent import apply_topk_delta
from repro.fgl import build_baseline
from repro.fgl.fedgnn import FederatedGNN
from repro.federated.trainer import FederatedTrainer
from repro.models import GCN

DECOUPLED = ["gamlp", "gprgnn"]
EVAL_FAMILIES = ["gcn", "sgc", "gamlp", "gprgnn"]


@pytest.fixture(scope="module")
def equal_clients():
    """Four equal-size client graphs: no padding, strict bitwise regime."""
    graphs = []
    for index in range(4):
        config = CSBMConfig(
            num_nodes=50, num_classes=3, num_features=16, avg_degree=6.0,
            edge_homophily=0.7, feature_signal=1.2, blocks_per_class=1,
            seed=10 + index, name=f"equal-{index}")
        graph = generate_csbm(config)
        make_split_masks(graph, 0.5, 0.25, 0.25, seed=index)
        graph.metadata["num_classes"] = 3
        graphs.append(graph)
    return graphs


def _config(backend="serial", rounds=3, **kwargs):
    defaults = dict(rounds=rounds, local_epochs=2, lr=0.02, seed=0,
                    backend=backend,
                    num_workers=2 if backend == "process_pool" else 0)
    defaults.update(kwargs)
    return FederatedConfig(**defaults)


def _run(clients, backend, model, **kwargs):
    trainer = FederatedGNN(clients, model, hidden=16,
                           config=_config(backend, **kwargs))
    history = trainer.run()
    return trainer, history


def _assert_bitwise(a, b):
    assert a.rounds == b.rounds
    np.testing.assert_array_equal(a.loss, b.loss)
    np.testing.assert_array_equal(a.test_accuracy, b.test_accuracy)
    np.testing.assert_array_equal(a.train_accuracy, b.train_accuracy)


class TestBatchedDecoupledParity:
    """Batched GAMLP / GPR-GNN reproduce serial training."""

    @pytest.mark.parametrize("model", DECOUPLED)
    def test_history_bitwise_vs_serial(self, model, equal_clients):
        _, serial_history = _run(equal_clients, "serial", model)
        trainer, batched_history = _run(equal_clients, "batched", model)
        assert trainer.backend.last_fallback is None
        _assert_bitwise(serial_history, batched_history)

    @pytest.mark.parametrize("model", DECOUPLED)
    def test_uneven_clients_within_tolerance(self, model, community_clients):
        # Padded shards accumulate at most BLAS-blocking ulps; histories
        # must stay inside the batched engine's equivalence tolerance.
        _, serial_history = _run(community_clients, "serial", model)
        trainer, batched_history = _run(community_clients, "batched", model)
        assert trainer.backend.last_fallback is None
        np.testing.assert_allclose(batched_history.loss, serial_history.loss,
                                   rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(batched_history.test_accuracy,
                                   serial_history.test_accuracy, atol=1e-12)

    @pytest.mark.parametrize("model", DECOUPLED)
    def test_final_weights_match_serial(self, model, equal_clients):
        serial_trainer, _ = _run(equal_clients, "serial", model)
        batched_trainer, _ = _run(equal_clients, "batched", model)
        for a, b in zip(serial_trainer.clients, batched_trainer.clients):
            state_a, state_b = a.get_weights(), b.get_weights()
            for key in state_a:
                np.testing.assert_allclose(state_a[key], state_b[key],
                                           rtol=1e-9, atol=1e-12)

    def test_gamlp_hop_stack_precomputed_once(self, equal_clients):
        trainer = FederatedGNN(equal_clients, "gamlp", hidden=16,
                               config=_config("batched"))
        with trainer:
            trainer.run()
            plans = [plan for plan in trainer.backend._plans.values()
                     if plan.family.model_type.__name__ == "GAMLP"]
            assert len(plans) == 1
            # [x, P̃x, …, P̃ᵏx]: k+1 constant stacked blocks live on the plan.
            k = trainer.clients[0].model.k
            assert len(plans[0].constants) == k + 1
            assert not any(hop.requires_grad for hop in plans[0].constants)

    def test_serial_gamlp_caches_hop_stack(self, equal_clients):
        trainer = FederatedGNN(equal_clients, "gamlp", hidden=16,
                               config=_config("serial", rounds=1))
        trainer.run()
        model = trainer.clients[0].model
        assert len(model._hop_cache) == 1
        (_, cache), = model._hop_cache.values()
        assert cache.num_cached_hops == model.k

    @pytest.mark.parametrize("model", DECOUPLED)
    def test_heterogeneous_k_is_not_fusable(self, model, equal_clients):
        from repro.federated.engine.batched import _unfusable

        trainers = [FederatedGNN(equal_clients, model, hidden=16,
                                 config=_config("serial", rounds=1))
                    for _ in range(2)]
        mixed = [trainers[0].clients[0], trainers[1].clients[1]]
        assert _unfusable(mixed, training=True) is None
        mixed[1].model.k += 1  # family signature mismatch → no fusion
        assert _unfusable(mixed, training=True) \
            == "participants are not architecture-homogeneous"


class TestPersistentPoolDecoupled:
    """Worker-resident shard fusion covers the decoupled-hop families."""

    @pytest.mark.parametrize("model", DECOUPLED)
    def test_intra_worker_fusion_matches_serial(self, model, equal_clients):
        _, serial_history = _run(equal_clients, "serial", model)
        trainer, pooled_history = _run(equal_clients, "process_pool", model,
                                       intra_worker="auto")
        _assert_bitwise(serial_history, pooled_history)
        # The pipelined loop (and its fused eval) must actually have run.
        stats = trainer.backend.last_pipeline_stats
        assert stats is not None and stats["round_mode"] == "sync"


class TestFusedEvalFamilies:
    """The fused coordinator eval covers the whole propagation family."""

    EXPECTED_PLAN = {"gcn": "GCN", "sgc": "SGC",
                     "gamlp": "GAMLP", "gprgnn": "GPRGNN"}

    @pytest.mark.parametrize("model", EVAL_FAMILIES)
    def test_pipelined_eval_bitwise_vs_serial(self, model, community_clients):
        _, serial_history = _run(community_clients, "serial", model)
        trainer, pipelined_history = _run(community_clients, "process_pool",
                                          model, intra_worker="serial")
        stats = trainer.backend.last_pipeline_stats
        assert stats["fused_eval"] == self.EXPECTED_PLAN[model]
        _assert_bitwise(serial_history, pipelined_history)

    @pytest.mark.parametrize("model", EVAL_FAMILIES)
    def test_eval_plan_matches_per_client_predict(self, model,
                                                  community_clients):
        trainer = FederatedGNN(community_clients, model, hidden=16,
                               config=_config("serial", rounds=1))
        trainer.run()
        plan = build_eval_plan(trainer.clients)
        assert plan is not None
        states = [client.get_weights() for client in trainer.clients]
        plan.refresh(states)
        cached = [client._prob_cache[1] for client in trainer.clients]
        for client, fused in zip(trainer.clients, cached):
            client.invalidate_cache()
            np.testing.assert_array_equal(fused, client.predict())

    @pytest.mark.parametrize("personalized", [False, True])
    @pytest.mark.parametrize("model", EVAL_FAMILIES)
    def test_steady_sweep_replays_its_workspace(self, model, personalized,
                                                community_clients):
        """A plan swept once (a serving flush) keeps no buffer; from the
        second sweep on each sweep writes into the one before's arrays, and
        its probabilities are still each client's own forward, bit for
        bit."""
        trainer = FederatedGNN(community_clients, model, hidden=16,
                               config=_config("serial", rounds=1))
        trainer.run()
        states = [client.get_weights() for client in trainer.clients]
        if personalized:
            states = [{name: value * (1.0 + 0.25 * index)
                       for name, value in state.items()}
                      for index, state in enumerate(states)]
        plan = build_eval_plan(trainer.clients)
        plan.refresh(states)
        assert plan._workspace.fresh == 0
        plan.refresh(states)
        fresh = plan._workspace.fresh
        assert fresh > 0
        plan.refresh(states)
        assert plan._workspace.fresh == fresh
        cached = [client._prob_cache[1] for client in trainer.clients]
        for client, state, fused in zip(trainer.clients, states, cached):
            client.set_weights(state)
            np.testing.assert_array_equal(fused, client.predict())

    def test_eval_plan_none_for_unplanned_model(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcnii", hidden=16,
                               config=_config("serial", rounds=1))
        assert build_eval_plan(trainer.clients) is None

    def test_eval_plan_none_for_mismatched_k(self, community_clients):
        trainers = [FederatedGNN(community_clients, "sgc", hidden=16,
                                 config=_config("serial", rounds=1))
                    for _ in range(2)]
        trainers[1].clients[1].model.k += 1
        assert build_eval_plan([trainers[0].clients[0],
                                trainers[1].clients[1]]) is None


class ToyGCN(GCN):
    """A model type no plan has heard of: GCN's layers under a new name."""


class _ToyFamily(batched._GCNFamily):
    model_type = ToyGCN


@pytest.fixture
def toy_family():
    batched.FAMILIES.append(_ToyFamily)
    yield
    batched.FAMILIES.remove(_ToyFamily)


def _toy_trainer(clients, backend, rounds=3):
    return FederatedTrainer(
        clients, lambda graph: ToyGCN(graph.num_features, 16,
                                      graph.num_classes, seed=0),
        _config(backend, rounds=rounds))


class TestOneDefinitionThreeConsumers:
    """A family is declared once — one class, one ``FAMILIES`` entry — and
    batched training, the fused eval sweep and the serving flush all run it.
    """

    def test_unregistered_type_is_not_fused(self, equal_clients):
        trainer = _toy_trainer(equal_clients, "serial", rounds=1)
        assert build_eval_plan(trainer.clients) is None
        assert "ToyGCN has no batched plan family" in batched._unfusable(
            trainer.clients, training=True)

    def test_batched_training_bitwise_vs_serial(self, toy_family,
                                                equal_clients):
        serial_history = _toy_trainer(equal_clients, "serial").run()
        trainer = _toy_trainer(equal_clients, "batched")
        with trainer:
            batched_history = trainer.run()
            assert trainer.backend.last_fallback is None
        _assert_bitwise(serial_history, batched_history)

    def test_fused_eval_equals_per_client_predict(self, toy_family,
                                                  community_clients):
        trainer = _toy_trainer(community_clients, "serial", rounds=1)
        trainer.run()
        plan = build_eval_plan(trainer.clients)
        assert plan.family.model_type is ToyGCN
        plan.refresh([client.get_weights() for client in trainer.clients])
        for client in trainer.clients:
            fused = client._prob_cache[1]
            client.invalidate_cache()
            np.testing.assert_array_equal(fused, client.predict())

    def test_serving_flush_is_fused_and_equals_serial(self, toy_family,
                                                      community_clients):
        from repro.serving import InductiveQuery, QueryEngine, ServingSnapshot
        from repro.serving.engine import FUSE_FROM

        trainer = _toy_trainer(community_clients, "serial", rounds=1)
        trainer.run()
        snapshot = ServingSnapshot.from_trainer(trainer)
        graph = snapshot.entries[0].graph
        queries = [InductiveQuery(0, graph.features[node] + 0.1,
                                  anchors=[node, node + 1])
                   for node in range(FUSE_FROM)]
        with QueryEngine(snapshot, max_batch=FUSE_FROM,
                         max_delay_ms=500.0) as engine:
            futures = [engine.submit(query) for query in queries]
            fused = [future.result(timeout=30) for future in futures]
            assert [result.path for result in fused] == ["fused"] * FUSE_FROM
            for result, query in zip(fused, queries):
                np.testing.assert_array_equal(
                    result.probs, engine._serial_inductive(query))


class TestOperandsAreNotRetained:
    """A forward's operands reach the operations for that forward only."""

    def test_cold_round_drops_its_parameter_stacks(self, equal_clients,
                                                   monkeypatch):
        trainer = FederatedGNN(equal_clients, "gcn", hidden=16,
                               config=_config("serial", rounds=1))
        stacks = []
        flush = _BatchedPlan.flush

        def watched_flush(plan):
            stacks.extend(weakref.ref(param.data) for param in plan.hot[0])
            flush(plan)

        monkeypatch.setattr(_BatchedPlan, "flush", watched_flush)
        backend = batched.BatchedBackend()
        backend.run_local_training(trainer.clients)
        assert backend.last_fallback is None and stacks
        gc.collect()
        assert [ref() for ref in stacks] == [None] * len(stacks)
        plan, = backend._plans.values()
        assert plan.hot is None and plan._operands is None

    def test_probabilities_do_not_keep_the_state_list(self, equal_clients):
        trainer = FederatedGNN(equal_clients, "gprgnn", hidden=16,
                               config=_config("serial", rounds=1))
        plan = build_eval_plan(trainer.clients)
        states = [client.get_weights() for client in trainer.clients]
        before = sys.getrefcount(states)
        probs = plan.probabilities(states)
        assert sys.getrefcount(states) == before
        assert probs.shape[:2] == (len(states), plan.n_max)


class TestEvalPlanErrorScope:
    """``build_eval_plan`` turns the one anticipated failure into ``None``
    — and nothing else, or a broken family would silently run serial."""

    def test_ragged_feature_widths_return_none(self, equal_clients):
        trainer = FederatedGNN(equal_clients, "sgc", hidden=16,
                               config=_config("serial", rounds=1))
        ragged = trainer.clients[1].graph.copy()
        ragged.features = ragged.features[:, :-1]
        trainer.clients[1].graph = ragged
        assert build_eval_plan(trainer.clients) is None

    def test_a_family_bug_propagates(self, equal_clients, monkeypatch):
        trainer = FederatedGNN(equal_clients, "sgc", hidden=16,
                               config=_config("serial", rounds=1))

        def broken(self, ops):
            raise TypeError("typo in a family")

        monkeypatch.setattr(batched._SGCFamily, "constants", broken)
        with pytest.raises(TypeError, match="typo in a family"):
            build_eval_plan(trainer.clients)


class TestGroupwisePersonalizedBroadcast:
    """Personalized broadcasts batch group-wise instead of per-client."""

    def test_group_states_by_identity(self):
        a, b = {"w": np.zeros(1)}, {"w": np.ones(1)}
        groups = group_states_by_identity([a, b, a, a])
        assert [(id(state), members) for state, members in groups] == \
            [(id(a), [0, 2, 3]), (id(b), [1])]

    @pytest.mark.parametrize("baseline", ["fed-pub", "gcfl+"])
    def test_personalized_pipelined_matches_serial(self, baseline,
                                                   community_clients):
        serial = build_baseline(baseline, community_clients,
                                config=_config("serial"))
        serial_history = serial.run()
        pooled = build_baseline(baseline, community_clients,
                                config=_config("process_pool",
                                               intra_worker="serial"))
        pooled_history = pooled.run()
        # Personalized (non-uniform) broadcasts now ride the fused eval.
        stats = pooled.backend.last_pipeline_stats
        assert stats["fused_eval"] == "GCN"
        _assert_bitwise(serial_history, pooled_history)

    def test_resident_group_write_matches_per_client(self, equal_clients):
        """load_state(where): an index, a list and slice(None) ≡ per-client
        writes, one assign per parameter."""
        trainer = FederatedGNN(equal_clients, "gamlp", hidden=16,
                               config=_config("serial", rounds=1))
        rng = np.random.default_rng(0)
        state = {name: rng.normal(size=param.shape)
                 for name, param in
                 trainer.clients[0].model.named_parameters()}
        originals = [dict(client.model.named_parameters())
                     for client in trainer.clients]
        for where, written in [(2, [2]), ([1, 3], [1, 3]),
                               (slice(None), [0, 1, 2, 3])]:
            plan = _BatchedPlan(trainer.clients)
            plan.ensure_hot()
            reference = _BatchedPlan(trainer.clients)
            reference.ensure_hot()
            plan.load_state(where, state)
            for index in written:
                reference.load_state(index, state)
            for index in range(4):
                loaded = plan.read_state(index)
                assert list(loaded) == list(state)
                for key, value in reference.read_state(index).items():
                    np.testing.assert_array_equal(loaded[key], value)
                    np.testing.assert_array_equal(
                        value, state[key] if index in written
                        else originals[index][key].data)
            for key, stack in plan.read_state().items():
                np.testing.assert_array_equal(stack[written[0]], state[key])


class TestQuantisedDeltaCodec:
    def test_quantiser_snaps_to_uniform_grid(self):
        values = np.array([-1.0, -0.4, 0.1, 0.8])
        quantised = quantise_uniform(values, bits=3)  # 3 signed levels
        levels = np.round(values / 1.0 * 3.0) / 3.0
        np.testing.assert_allclose(quantised, levels)
        # Extremes are representable exactly; everything lies on the grid.
        assert quantised[0] == -1.0
        grid = np.round(quantised * 3.0) / 3.0
        np.testing.assert_allclose(grid, quantised)

    def test_quantiser_edge_cases(self):
        assert quantise_uniform(np.zeros(4), bits=8).tolist() == [0.0] * 4
        assert quantise_uniform(np.array([]), bits=8).size == 0
        with pytest.raises(ValueError, match="delta_bits"):
            quantise_uniform(np.ones(2), bits=1)

    def test_error_feedback_carries_quantisation_error(self):
        received = {"w": np.zeros(4)}
        trained = {"w": np.array([1.0, -3.0, 0.5, 2.0])}
        payload, residual, _ = encode_topk_delta(trained, received, top_k=2,
                                                 bits=4)
        rebuilt = apply_topk_delta(received, payload)
        # Applied + residual reconstructs the full delta exactly: both the
        # truncated mass AND the per-entry quantisation error feed back.
        np.testing.assert_allclose(rebuilt["w"] + residual["w"], trained["w"])

    def test_quantised_transport_counts_fewer_words(self):
        rng = np.random.default_rng(0)
        received = {"w": rng.normal(size=(16, 8))}
        trained = {"w": received["w"] + rng.normal(size=(16, 8))}
        _, _, float_words = encode_topk_delta(trained, received, top_k=16)
        payload, _, quant_words = encode_topk_delta(trained, received,
                                                    top_k=16, bits=4)
        assert float_words == 2 * 16
        # qtopk ships varint-packed indices + packed values + scale word.
        packed = payload["w"][0]
        assert packed.dtype == np.uint8
        assert quant_words == -(-packed.nbytes // 8) + 1 + 1
        assert quant_words < 16 + 1 + 1  # beats raw int64 index words

    def test_backend_validation(self):
        with pytest.raises(ValueError, match="delta_codec"):
            ProcessPoolBackend(2, delta_codec="zip")
        with pytest.raises(ValueError, match="delta_bits"):
            ProcessPoolBackend(2, delta_codec="qtopk", delta_bits=1)
        backend = ProcessPoolBackend(2, delta_codec="qtopk", delta_top_k=8,
                                     delta_bits=4)
        assert backend.config.delta_bits == 4

    def test_qtopk_run_ships_fewer_values_than_topk(self, community_clients):
        base = dict(rounds=3, intra_worker="serial", delta_top_k=8)
        uploads = {}
        for codec in ("topk", "qtopk"):
            trainer, history = _run(community_clients, "process_pool", "gcn",
                                    delta_codec=codec, delta_bits=4, **base)
            uploads[codec] = \
                trainer.backend.transport.uploaded["parameter_delta"]
            assert np.all(np.isfinite(history.loss))
        assert uploads["qtopk"] < uploads["topk"]


class TestRoundTimeHistory:
    def test_sync_pipeline_records_per_client_round_times(
            self, community_clients):
        trainer, history = _run(community_clients, "process_pool", "gcn",
                                intra_worker="serial")
        assert len(history.client_round_sec) == len(history.rounds)
        for per_client in history.client_round_sec:
            assert set(per_client) == \
                {c.client_id for c in trainer.clients}
            assert all(sec >= 0.0 for sec in per_client.values())

    def test_serial_loop_leaves_round_times_empty(self, community_clients):
        _, history = _run(community_clients, "serial", "gcn")
        assert all(not per_client for per_client in history.client_round_sec)
