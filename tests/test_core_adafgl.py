"""Tests for the AdaFGL core: knowledge extractor, HCS, modules, trainer."""

import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import (
    AdaFGL,
    AdaFGLClientModel,
    AdaFGLConfig,
    FederatedKnowledgeExtractor,
    ablation_variants,
    homophily_confidence_score,
    label_propagation,
    optimized_propagation_matrix,
)
from repro.core.adafgl import PersonalizedClient
from repro.core.modules import LearnableMessagePassing, MessageUpdater
from repro.autograd import Tensor
from repro.federated import FederatedConfig


FAST_CONFIG = AdaFGLConfig(rounds=3, local_epochs=2, hidden=16,
                           personalized_epochs=10, k_prop=2,
                           message_layers=1, seed=0)


class TestOptimizedPropagation:
    def test_shape_and_row_normalisation(self, tiny_graph):
        probs = np.full((tiny_graph.num_nodes, tiny_graph.num_classes),
                        1.0 / tiny_graph.num_classes)
        matrix = optimized_propagation_matrix(tiny_graph.adjacency, probs,
                                              alpha=0.5)
        assert matrix.shape == (tiny_graph.num_nodes, tiny_graph.num_nodes)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert np.all(matrix >= 0)

    def test_alpha_one_keeps_topology_only(self, tiny_graph):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(tiny_graph.num_classes),
                              size=tiny_graph.num_nodes)
        topo_only = optimized_propagation_matrix(tiny_graph.adjacency, probs,
                                                 alpha=1.0)
        dense_adj = tiny_graph.adjacency.toarray()
        # Entries where there is no edge (and no self-loop) must stay ~0.
        off = (dense_adj == 0) & ~np.eye(tiny_graph.num_nodes, dtype=bool)
        assert np.abs(topo_only[off]).max() < 1e-6

    def test_alpha_zero_uses_prediction_similarity(self, tiny_graph):
        onehot = np.zeros((tiny_graph.num_nodes, tiny_graph.num_classes))
        onehot[np.arange(tiny_graph.num_nodes), tiny_graph.labels] = 1.0
        matrix = optimized_propagation_matrix(tiny_graph.adjacency, onehot,
                                              alpha=0.0)
        # With perfect one-hot predictions, same-label pairs get positive
        # weight and different-label pairs get none.
        i, j = 0, int(np.nonzero(tiny_graph.labels
                                 != tiny_graph.labels[0])[0][0])
        assert matrix[i, j] < 1e-6

    def test_invalid_alpha(self, tiny_graph):
        probs = np.ones((tiny_graph.num_nodes, tiny_graph.num_classes))
        with pytest.raises(ValueError):
            optimized_propagation_matrix(tiny_graph.adjacency, probs, alpha=2.0)

    def test_shape_mismatch_rejected(self, tiny_graph):
        with pytest.raises(ValueError):
            optimized_propagation_matrix(tiny_graph.adjacency,
                                         np.ones((3, 2)), alpha=0.5)


class TestLabelPropagationAndHCS:
    def test_lp_output_is_distribution(self, homophilous_graph):
        beliefs = label_propagation(homophilous_graph.adjacency,
                                    homophilous_graph.labels,
                                    homophilous_graph.train_mask,
                                    homophilous_graph.num_classes, k=4)
        assert beliefs.shape == (homophilous_graph.num_nodes,
                                 homophilous_graph.num_classes)
        assert np.all(beliefs >= -1e-9)

    def test_lp_respects_labeled_nodes(self, homophilous_graph):
        beliefs = label_propagation(homophilous_graph.adjacency,
                                    homophilous_graph.labels,
                                    homophilous_graph.train_mask,
                                    homophilous_graph.num_classes, k=3)
        idx = homophilous_graph.train_indices()
        assert np.all(beliefs[idx].argmax(axis=1)
                      == homophilous_graph.labels[idx])

    def test_lp_invalid_parameters(self, tiny_graph):
        with pytest.raises(ValueError):
            label_propagation(tiny_graph.adjacency, tiny_graph.labels,
                              tiny_graph.train_mask, tiny_graph.num_classes,
                              k=0)
        with pytest.raises(ValueError):
            label_propagation(tiny_graph.adjacency, tiny_graph.labels,
                              tiny_graph.train_mask, tiny_graph.num_classes,
                              kappa=2.0)

    def test_hcs_higher_on_homophilous_graph(self, homophilous_graph,
                                             heterophilous_graph):
        high = homophily_confidence_score(homophilous_graph, seed=0)
        low = homophily_confidence_score(heterophilous_graph, seed=0)
        assert high > low

    def test_hcs_in_unit_interval(self, homophilous_graph):
        score = homophily_confidence_score(homophilous_graph, seed=1)
        assert 0.0 <= score <= 1.0

    def test_hcs_invalid_mask_probability(self, homophilous_graph):
        with pytest.raises(ValueError):
            homophily_confidence_score(homophilous_graph, mask_probability=0.0)

    def test_hcs_return_beliefs(self, homophilous_graph):
        score, beliefs = homophily_confidence_score(homophilous_graph,
                                                    return_beliefs=True)
        assert beliefs.shape[0] == homophilous_graph.num_nodes
        assert 0.0 <= score <= 1.0


class TestModules:
    def test_message_updater_shapes(self, tiny_graph):
        updater = MessageUpdater(tiny_graph.num_features, 8,
                                 tiny_graph.num_classes, k=2)
        blocks = [Tensor(tiny_graph.features), Tensor(tiny_graph.features)]
        out = updater(blocks)
        assert out.shape == (tiny_graph.num_nodes, tiny_graph.num_classes)

    def test_message_updater_wrong_block_count(self, tiny_graph):
        updater = MessageUpdater(tiny_graph.num_features, 8,
                                 tiny_graph.num_classes, k=2)
        with pytest.raises(ValueError):
            updater([Tensor(tiny_graph.features)])

    def test_learnable_message_passing_shapes(self, tiny_graph):
        n, c = tiny_graph.num_nodes, tiny_graph.num_classes
        module = LearnableMessagePassing(c, num_layers=2)
        knowledge = Tensor(np.random.default_rng(0).normal(size=(n, c)))
        prop = np.eye(n)
        out = module(knowledge, prop)
        assert out.shape == (n, c)
        assert np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("beta", [-0.1, 1.5])
    def test_invalid_beta(self, beta):
        with pytest.raises(ValueError, match=r"beta must be in \[0, 1\]"):
            LearnableMessagePassing(3, beta=beta)

    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_beta_bounds_are_accepted(self, beta):
        assert LearnableMessagePassing(3, beta=beta).beta == beta

    def test_client_model_outputs(self, tiny_graph):
        model = AdaFGLClientModel(tiny_graph.num_features, 8,
                                  tiny_graph.num_classes, k_prop=2,
                                  message_layers=1)
        probs = np.full((tiny_graph.num_nodes, tiny_graph.num_classes),
                        1.0 / tiny_graph.num_classes)
        prop = np.eye(tiny_graph.num_nodes)
        outputs = model(tiny_graph.features, prop, probs, hcs=0.6)
        for key in ("knowledge", "homophilous", "heterophilous", "combined"):
            assert outputs[key].shape == (tiny_graph.num_nodes,
                                          tiny_graph.num_classes)
        combined = outputs["combined"].data
        assert np.allclose(combined.sum(axis=1), 1.0, atol=1e-6)

    def test_client_model_ablation_flags(self, tiny_graph):
        model = AdaFGLClientModel(tiny_graph.num_features, 8,
                                  tiny_graph.num_classes, k_prop=2,
                                  use_topology_independent=False,
                                  use_learnable_message=False)
        names = [name for name, _ in model.named_parameters()]
        assert not any("feature_mlp" in n for n in names)
        assert not any("message_passing" in n for n in names)


class TestKnowledgeExtractor:
    def test_runs_and_produces_probabilities(self, community_clients):
        extractor = FederatedKnowledgeExtractor(
            community_clients, hidden=16,
            config=FederatedConfig(rounds=3, local_epochs=2, seed=0))
        extractor.run()
        probs = extractor.client_probabilities()
        assert len(probs) == len(community_clients)
        for p, graph in zip(probs, extractor.client_graphs()):
            assert p.shape == (graph.num_nodes, graph.num_classes)

    def test_optimized_matrices_shapes(self, community_clients):
        extractor = FederatedKnowledgeExtractor(
            community_clients, hidden=16,
            config=FederatedConfig(rounds=2, local_epochs=1, seed=0))
        extractor.run()
        matrices = extractor.optimized_matrices(alpha=0.6)
        for matrix, graph in zip(matrices, extractor.client_graphs()):
            assert matrix.shape == (graph.num_nodes, graph.num_nodes)


class TestAdaFGLTrainer:
    def test_requires_clients(self):
        with pytest.raises(ValueError):
            AdaFGL([], FAST_CONFIG)

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_out_of_range_mixing_is_refused_before_step1(
            self, name, community_clients):
        config = dataclasses.replace(FAST_CONFIG, **{name: 1.2})
        with pytest.raises(ValueError, match=rf"{name} must be in \[0, 1\]"):
            AdaFGL(community_clients, config)

    def test_step2_before_step1_raises(self, community_clients):
        method = AdaFGL(community_clients, FAST_CONFIG)
        with pytest.raises(RuntimeError):
            method.run_step2()

    def test_full_run_improves_over_untrained(self, community_clients):
        method = AdaFGL(community_clients, FAST_CONFIG)
        initial = method.evaluate("test")
        method.run()
        assert method.evaluate("test") > initial

    def test_history_and_hcs_available(self, noniid_clients):
        method = AdaFGL(noniid_clients, FAST_CONFIG)
        method.run()
        assert len(method.history.rounds) > 0
        hcs = method.client_hcs()
        assert len(hcs) == len(noniid_clients)
        assert all(0.0 <= v <= 1.0 for v in hcs.values())

    def test_client_reports(self, noniid_clients):
        method = AdaFGL(noniid_clients, FAST_CONFIG)
        method.run()
        reports = method.client_reports()
        assert len(reports) == len(noniid_clients)
        assert all(0.0 <= r.accuracy <= 1.0 for r in reports)

    def test_client_hcs_before_step2_raises(self, community_clients):
        method = AdaFGL(community_clients, FAST_CONFIG)
        with pytest.raises(RuntimeError):
            method.client_hcs()

    def test_hcs_tracks_local_topology(self, homophilous_graph,
                                       heterophilous_graph):
        """Personalized clients on homophilous subgraphs get higher HCS."""
        config = dataclasses.replace(FAST_CONFIG)
        probs_h = np.full((homophilous_graph.num_nodes,
                           homophilous_graph.num_classes),
                          1.0 / homophilous_graph.num_classes)
        probs_he = np.full((heterophilous_graph.num_nodes,
                            heterophilous_graph.num_classes),
                           1.0 / heterophilous_graph.num_classes)
        client_h = PersonalizedClient(0, homophilous_graph, probs_h, config)
        client_he = PersonalizedClient(1, heterophilous_graph, probs_he, config)
        assert client_h.hcs > client_he.hcs

    def test_no_hcs_flag_uses_fixed_mixture(self, homophilous_graph):
        config = dataclasses.replace(FAST_CONFIG, use_hcs=False)
        probs = np.full((homophilous_graph.num_nodes,
                         homophilous_graph.num_classes),
                        1.0 / homophilous_graph.num_classes)
        client = PersonalizedClient(0, homophilous_graph, probs, config)
        assert client.hcs == 0.5

    def test_sparse_engine_full_run(self, community_clients):
        config = dataclasses.replace(FAST_CONFIG, sparse_propagation=True,
                                     propagation_top_k=16)
        method = AdaFGL(community_clients, config)
        initial = method.evaluate("test")
        method.run()
        assert method.evaluate("test") > initial
        for client in method.personalized:
            assert sp.issparse(client.propagation)

    def test_parallel_step2_matches_serial(self, community_clients):
        """num_workers > 1 reproduces the serial history exactly."""
        serial = AdaFGL(community_clients, FAST_CONFIG)
        serial.run()
        parallel_config = dataclasses.replace(FAST_CONFIG, num_workers=2)
        parallel = AdaFGL(community_clients, parallel_config)
        parallel.run()
        assert parallel.history.rounds == serial.history.rounds
        np.testing.assert_array_equal(parallel.history.test_accuracy,
                                      serial.history.test_accuracy)
        np.testing.assert_array_equal(parallel.history.train_accuracy,
                                      serial.history.train_accuracy)
        # Step 1 trains batched on the pool workers, whose final weights
        # may differ from serial Step 1 in the last bit (the serial and
        # process_pool digests of TestStackedEpochParity differ), so P̂ and
        # the Step-2 loss may move by an ulp.  The bitwise Step-2 contract,
        # with Step 1 held equal, is the test below.
        np.testing.assert_allclose(parallel.history.loss,
                                   serial.history.loss, rtol=1e-14, atol=0)
        assert len(parallel.personalized) == len(community_clients)
        assert parallel.evaluate("test") == serial.evaluate("test")

    @pytest.mark.parametrize("pool", [
        {"backend": "serial"},        # Step 2 on its own pool
        {"intra_worker": "serial"},   # on the Step-1 pool, resident graphs
    ], ids=["owned-pool", "step1-pool"])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_pooled_step2_clients_are_bitwise_in_process(
            self, community_clients, sparse, pool):
        """Every personalized model, P̃ and HCS equal the in-process run's."""
        config = dataclasses.replace(FAST_CONFIG, sparse_propagation=sparse)
        serial = AdaFGL(community_clients, config)
        serial.run()
        pooled = AdaFGL(community_clients,
                        dataclasses.replace(config, num_workers=2, **pool))
        pooled.run()
        np.testing.assert_array_equal(pooled.history.loss,
                                      serial.history.loss)
        assert len(pooled.personalized) == len(serial.personalized)
        for ours, theirs in zip(serial.personalized, pooled.personalized):
            assert ours.client_id == theirs.client_id
            assert ours.hcs == theirs.hcs
            ours_p, theirs_p = ours.propagation, theirs.propagation
            assert sp.issparse(ours_p) == sp.issparse(theirs_p) == sparse
            if sparse:
                ours_p, theirs_p = ours_p.toarray(), theirs_p.toarray()
            np.testing.assert_array_equal(ours_p, theirs_p)
            ours_state = ours.model.state_dict()
            theirs_state = theirs.model.state_dict()
            assert ours_state.keys() == theirs_state.keys()
            for name in ours_state:
                np.testing.assert_array_equal(ours_state[name],
                                              theirs_state[name])

    def test_second_step2_replaces_the_history(self, community_clients):
        """Each pass trains fresh clients, so it replaces the history."""
        with AdaFGL(community_clients, FAST_CONFIG) as method:
            step1 = method.run_step1()
            first = method.run_step2()
            rounds, loss = list(first.rounds), list(first.loss)
            second = method.run_step2()
        assert second is first  # replaced in place: run() hands it out
        assert second.rounds == rounds
        assert rounds[0] == step1.rounds[-1] + 1
        assert len(set(second.rounds)) == len(second.rounds)
        np.testing.assert_array_equal(second.loss, loss)

    def test_parallel_step2_reports_identical(self, community_clients):
        """Persistent-pool Step 2 is *bitwise* the serial Step 2.

        Step 1 is pinned serial on both sides so the comparison isolates the
        Step-2 execution path: per-client reports, HCS and the recorded
        history must be identical, not merely close.
        """
        serial = AdaFGL(community_clients, FAST_CONFIG)
        serial.run()
        pooled = AdaFGL(community_clients, dataclasses.replace(
            FAST_CONFIG, num_workers=2, backend="serial"))
        pooled.run()
        for ours, theirs in zip(serial.client_reports(),
                                pooled.client_reports()):
            assert ours.client_id == theirs.client_id
            assert ours.accuracy == theirs.accuracy
            assert ours.num_test_nodes == theirs.num_test_nodes
            assert ours.homophily == theirs.homophily
        assert serial.client_hcs() == pooled.client_hcs()
        np.testing.assert_array_equal(serial.history.loss,
                                      pooled.history.loss)
        np.testing.assert_array_equal(serial.history.test_accuracy,
                                      pooled.history.test_accuracy)

    def test_step2_reuses_step1_worker_residents(self, community_clients):
        """Shared-pool Step 2 (worker-resident graphs) matches serial too."""
        serial = AdaFGL(community_clients, FAST_CONFIG)
        serial.run()
        shared = AdaFGL(community_clients, dataclasses.replace(
            FAST_CONFIG, num_workers=2, intra_worker="serial"))
        backend = shared.extractor.trainer.backend
        shared.run()
        from repro.federated import ProcessPoolBackend
        assert isinstance(backend, ProcessPoolBackend)
        for ours, theirs in zip(serial.client_reports(),
                                shared.client_reports()):
            assert ours.accuracy == theirs.accuracy
        np.testing.assert_array_equal(serial.history.loss,
                                      shared.history.loss)
        # Pipeline end released the shared pool (no leaked workers).
        assert backend._pool is None

    def test_context_manager_keeps_pool_until_exit(self, community_clients):
        config = dataclasses.replace(FAST_CONFIG, num_workers=2,
                                     intra_worker="serial")
        with AdaFGL(community_clients, config) as method:
            method.run_step1()
            backend = method.extractor.trainer.backend
            assert backend._pool is not None and not backend._pool.closed
            method.run_step2()
            # Still alive inside the context (e.g. for another step-2 pass).
            assert backend._pool is not None and not backend._pool.closed
        assert backend._pool is None

    def test_no_local_topology_uses_normalised_adjacency(self, tiny_graph):
        config = dataclasses.replace(FAST_CONFIG, use_local_topology=False)
        probs = np.full((tiny_graph.num_nodes, tiny_graph.num_classes),
                        1.0 / tiny_graph.num_classes)
        client = PersonalizedClient(0, tiny_graph, probs, config)
        dense = tiny_graph.adjacency.toarray()
        off = (dense == 0) & ~np.eye(tiny_graph.num_nodes, dtype=bool)
        assert np.abs(client.propagation[off]).max() < 1e-9


class TestTopKResolution:
    """Precedence of the Eq. 5 sparsity knob: explicit > registry > 32."""

    def test_explicit_config_beats_registry_default(self):
        from repro.core import resolve_propagation_top_k
        from repro.datasets import load_dataset
        graph = load_dataset("cora", seed=0, num_nodes=150)
        assert graph.metadata["propagation_top_k"] == 8
        explicit = dataclasses.replace(FAST_CONFIG, propagation_top_k=5)
        assert resolve_propagation_top_k(explicit, graph) == 5
        exact = dataclasses.replace(FAST_CONFIG, propagation_top_k=None)
        assert resolve_propagation_top_k(exact, graph) is None

    def test_auto_reads_registry_then_falls_back(self, tiny_graph):
        from repro.core import (DEFAULT_PROPAGATION_TOP_K,
                                resolve_propagation_top_k)
        from repro.datasets import load_dataset
        auto = dataclasses.replace(FAST_CONFIG, propagation_top_k="auto")
        graph = load_dataset("chameleon", seed=0, num_nodes=150)
        assert resolve_propagation_top_k(auto, graph) == 32
        # cSBM fixtures carry no registry default → global fallback.
        assert resolve_propagation_top_k(auto, tiny_graph) == \
            DEFAULT_PROPAGATION_TOP_K
        assert resolve_propagation_top_k(auto, None) == \
            DEFAULT_PROPAGATION_TOP_K

    @pytest.mark.parametrize("sparse, top_k", [
        (False, 8),          # an int the dense path would ignore
        (False, "dense"),    # invalid sentinels, refused up front on
        (True, "dense"),     # both paths
    ])
    def test_refused_top_k_raises_before_step1(self, community_clients,
                                               sparse, top_k):
        config = dataclasses.replace(FAST_CONFIG, sparse_propagation=sparse,
                                     propagation_top_k=top_k)
        with pytest.raises(ValueError, match=rf"propagation_top_k={top_k!r}"
                                             rf" with sparse_propagation="
                                             rf"{sparse}"):
            AdaFGL(community_clients, config)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("top_k", ["auto", None])
    def test_auto_and_none_are_accepted_on_both_paths(
            self, community_clients, sparse, top_k):
        config = dataclasses.replace(FAST_CONFIG, sparse_propagation=sparse,
                                     propagation_top_k=top_k)
        assert AdaFGL(community_clients, config).config is config

    def test_invalid_sentinel_raises(self, tiny_graph):
        from repro.core import resolve_propagation_top_k
        bad = dataclasses.replace(FAST_CONFIG, propagation_top_k="dense")
        with pytest.raises(ValueError):
            resolve_propagation_top_k(bad, tiny_graph)

    def test_registry_default_shapes_the_built_matrix(self, homophilous_graph):
        """The resolved k actually controls P̃'s sparsity on the client."""
        import copy
        graph = copy.deepcopy(homophilous_graph)
        graph.metadata["propagation_top_k"] = 4
        probs = np.full((graph.num_nodes, graph.num_classes),
                        1.0 / graph.num_classes)
        config = dataclasses.replace(FAST_CONFIG, sparse_propagation=True,
                                     propagation_top_k="auto")
        auto_client = PersonalizedClient(0, graph, probs, config)
        explicit = dataclasses.replace(config, propagation_top_k=64)
        wide_client = PersonalizedClient(0, graph, probs, explicit)
        assert auto_client.propagation.nnz < wide_client.propagation.nnz


class TestAblationVariants:
    def test_variants_cover_all_components(self):
        variants = ablation_variants(FAST_CONFIG)
        assert set(variants) == {"w/o K.P.", "w/o T.F.", "w/o L.M.",
                                 "w/o L.T.", "w/o HCS", "AdaFGL"}

    def test_each_variant_disables_one_flag(self):
        variants = ablation_variants(FAST_CONFIG)
        assert not variants["w/o K.P."].use_knowledge_preserving
        assert not variants["w/o T.F."].use_topology_independent
        assert not variants["w/o L.M."].use_learnable_message
        assert not variants["w/o L.T."].use_local_topology
        assert not variants["w/o HCS"].use_hcs

    def test_full_variant_unchanged(self):
        variants = ablation_variants(FAST_CONFIG)
        full = variants["AdaFGL"]
        assert full.use_knowledge_preserving and full.use_hcs

    def test_base_config_not_mutated(self):
        base = dataclasses.replace(FAST_CONFIG)
        ablation_variants(base)
        assert base.use_knowledge_preserving
