"""Tests for the FGL baselines: FedGNN wrappers, FedGL, GCFL+, FedSage+, FED-PUB."""

import pickle
from types import SimpleNamespace

import numpy as np
import pytest

from repro.federated import AggregationContext, FederatedConfig
from repro.federated.communication import CommunicationTracker
from repro.fgl import (
    BASELINE_REGISTRY,
    FedGL,
    FedPub,
    FedSagePlus,
    FederatedGNN,
    GCFLPlus,
    build_baseline,
    list_baselines,
)
from repro.fgl.fedsage import NeighGen, augment_with_generated_neighbours
from repro.fgl.gcfl import GCFLAggregation


FAST = FederatedConfig(rounds=3, local_epochs=2, lr=0.02, seed=0)


class TestRegistry:
    def test_lists_all_expected_baselines(self):
        names = list_baselines()
        for expected in ("fedgcn", "fedgcnii", "fedgamlp", "fedgprgnn",
                         "fedggcn", "fedglognn", "fedgl", "gcfl+", "fedsage+",
                         "fed-pub"):
            assert expected in names

    def test_unknown_baseline_raises(self, community_clients):
        with pytest.raises(KeyError):
            build_baseline("fedunknown", community_clients)

    def test_build_returns_trainer(self, community_clients):
        trainer = build_baseline("fedgcn", community_clients, config=FAST,
                                 hidden=16)
        assert isinstance(trainer, FederatedGNN)
        assert trainer.name == "FedGCN"

    @pytest.mark.parametrize("name", ["fedgcn", "fedgcnii", "fedgamlp",
                                      "fedgprgnn", "fedglognn"])
    def test_fed_gnn_variants_train(self, name, community_clients):
        trainer = build_baseline(name, community_clients, config=FAST, hidden=16)
        history = trainer.run()
        assert len(history.rounds) == FAST.rounds
        assert 0.0 <= trainer.evaluate("test") <= 1.0


class TestFedGL:
    def test_pseudo_labels_generated(self, community_clients):
        trainer = FedGL(community_clients, hidden=16, config=FAST)
        trainer.run()
        assert len(trainer._pseudo) == len(trainer.clients)

    def test_extra_loss_wired(self, community_clients):
        trainer = FedGL(community_clients, hidden=16, config=FAST)
        assert all(c.extra_loss is not None for c in trainer.clients)

    def test_communication_includes_predictions(self, community_clients):
        trainer = FedGL(community_clients, hidden=16, config=FAST)
        trainer.run()
        assert trainer.tracker.uploaded["node_predictions"] > 0

    def test_confidence_threshold_respected(self, community_clients):
        trainer = FedGL(community_clients, hidden=16, confidence=1.1,
                        config=FAST)
        trainer.run()
        # Impossible confidence: no pseudo-labels should pass the filter.
        assert all(mask.sum() == 0 for _, mask in trainer._pseudo.values())


class TestGCFLPlus:
    def test_runs_and_records_clusters(self, noniid_clients):
        trainer = GCFLPlus(noniid_clients, hidden=16, num_clusters=2,
                           config=FAST)
        trainer.run()
        clusters = set(trainer.strategy._cluster_of.values())
        assert len(clusters) <= 2
        assert len(trainer.strategy._cluster_states) >= 1

    def test_personalize_returns_cluster_state(self, noniid_clients):
        trainer = GCFLPlus(noniid_clients, hidden=16, num_clusters=2,
                           config=FAST)
        trainer.run()
        client = trainer.clients[0]
        state = trainer.personalize(client, trainer.server.broadcast())
        cluster = trainer.strategy._cluster_of[client.client_id]
        expected = trainer.strategy._cluster_states[cluster]
        assert all(np.allclose(state[k], expected[k]) for k in state)

    def test_state_dict_resumes_the_clustering(self):
        """Update directions are taken against the last global state: a
        strategy restored from ``state_dict`` must cluster round 2 like the
        one that kept running.  Against the initial state instead, the three
        updates are near-parallel and client 1 lands in a cluster of its
        own."""
        clients = [SimpleNamespace(client_id=index) for index in range(3)]
        context = AggregationContext(
            round_index=1, participants=clients,
            trainer=SimpleNamespace(tracker=CommunicationTracker()))
        initial = {"w": np.zeros(2)}
        running = GCFLAggregation(num_clusters=2, initial_state=initial)
        running.aggregate([{"w": np.array([10.0, 0.0])}] * 3, [1, 1, 1],
                          context)
        resumed = GCFLAggregation(num_clusters=2, initial_state=initial)
        resumed.load_state_dict(pickle.loads(pickle.dumps(
            running.state_dict())))
        second = [{"w": np.array(value)}
                  for value in ([11.0, 1.0], [11.0, -1.0], [9.0, 0.0])]
        for strategy in (running, resumed):
            strategy.aggregate(second, [1, 1, 1], context)
        for client in clients:
            np.testing.assert_array_equal(
                resumed.personalize(client, None)["w"],
                running.personalize(client, None)["w"])

    def test_gradient_communication_tracked(self, noniid_clients):
        trainer = GCFLPlus(noniid_clients, hidden=16, config=FAST)
        trainer.run()
        assert trainer.tracker.uploaded["model_gradients"] > 0


class TestFedSagePlus:
    def test_neighgen_fit_and_generate(self, homophilous_graph):
        generator = NeighGen(seed=0).fit(homophilous_graph)
        samples = generator.generate(homophilous_graph.features[0], 3)
        assert samples.shape == (3, homophilous_graph.num_features)

    def test_neighgen_generate_before_fit_raises(self, homophilous_graph):
        with pytest.raises(RuntimeError):
            NeighGen().generate(homophilous_graph.features[0], 1)

    def test_augmentation_adds_nodes_not_supervision(self, homophilous_graph):
        generator = NeighGen(seed=0).fit(homophilous_graph)
        augmented = augment_with_generated_neighbours(homophilous_graph,
                                                      generator, seed=0)
        assert augmented.num_nodes > homophilous_graph.num_nodes
        assert augmented.train_mask.sum() == homophilous_graph.train_mask.sum()
        assert augmented.test_mask.sum() == homophilous_graph.test_mask.sum()

    def test_trainer_runs_on_augmented_graphs(self, community_clients):
        trainer = FedSagePlus(community_clients, hidden=16, config=FAST)
        trainer.run()
        assert 0.0 <= trainer.evaluate("test") <= 1.0
        assert all(c.graph.metadata.get("generated_nodes", 0) >= 0
                   for c in trainer.clients)

    def test_neighgen_communication_tracked(self, community_clients):
        trainer = FedSagePlus(community_clients, hidden=16, config=FAST)
        assert trainer.tracker.uploaded["neighgen_parameters"] > 0


class TestFedPub:
    def test_personalized_states_differ_per_client(self, noniid_clients):
        trainer = FedPub(noniid_clients, hidden=16, config=FAST, local_mix=0.5)
        trainer.run()
        ids = [c.client_id for c in trainer.clients]
        personalized = trainer.strategy._personalized
        states = [personalized[i] for i in ids if i in personalized]
        assert len(states) >= 2
        key = next(iter(states[0]))
        assert not all(np.allclose(states[0][key], s[key]) for s in states[1:])

    def test_personalize_mixes_local_weights(self, noniid_clients):
        trainer = FedPub(noniid_clients, hidden=16, config=FAST, local_mix=1.0)
        trainer.run()
        client = trainer.clients[0]
        mixed = trainer.personalize(client, trainer.server.broadcast())
        local = trainer.strategy._local_states[client.client_id]
        assert all(np.allclose(mixed[k], local[k]) for k in mixed)

    def test_runs_and_evaluates(self, noniid_clients):
        trainer = FedPub(noniid_clients, hidden=16, config=FAST)
        history = trainer.run()
        assert history.final_test_accuracy >= 0.0
