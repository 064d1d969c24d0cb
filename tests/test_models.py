"""Tests for every centralised GNN model in the zoo."""

import gc

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, functional as F
from repro.autograd.backend import structure_cache_size
from repro.models import (
    GAMLP,
    GCN,
    GCNII,
    GGCN,
    MLP,
    MODEL_REGISTRY,
    GPRGNN,
    GloGNN,
    SGC,
    prepare_propagation,
)
from repro.models.base import propagation_operator
from repro.optim import Adam


def _build(model_name, graph, hidden=16, seed=0):
    in_features = graph.num_features
    out_features = graph.num_classes
    if model_name == "mlp":
        return MLP(in_features, [hidden], out_features, seed=seed)
    if model_name == "sgc":
        return SGC(in_features, out_features, k=2, seed=seed)
    cls = MODEL_REGISTRY[model_name]
    return cls(in_features, hidden, out_features, seed=seed)


GRAPH_MODELS = ["gcn", "sgc", "gcnii", "gamlp", "gprgnn", "ggcn", "glognn"]


class TestForwardShapes:
    @pytest.mark.parametrize("name", GRAPH_MODELS)
    def test_output_shape(self, name, tiny_graph):
        model = _build(name, tiny_graph)
        out = model(Tensor(tiny_graph.features), tiny_graph.adjacency)
        assert out.shape == (tiny_graph.num_nodes, tiny_graph.num_classes)

    @pytest.mark.parametrize("name", GRAPH_MODELS)
    def test_gradients_reach_all_parameters(self, name, tiny_graph):
        model = _build(name, tiny_graph)
        model.eval()  # disable dropout so every path is active
        out = model(Tensor(tiny_graph.features), tiny_graph.adjacency)
        F.cross_entropy(out, tiny_graph.labels,
                        mask=tiny_graph.train_mask).backward()
        with_grad = sum(1 for p in model.parameters() if p.grad is not None)
        total = sum(1 for _ in model.parameters())
        assert with_grad >= total - 1  # GPRGNN gamma[k] always participates

    @pytest.mark.parametrize("name", GRAPH_MODELS)
    def test_predict_probabilities(self, name, tiny_graph):
        model = _build(name, tiny_graph)
        probs = model.predict_probabilities(tiny_graph.features,
                                            tiny_graph.adjacency)
        assert probs.shape == (tiny_graph.num_nodes, tiny_graph.num_classes)
        assert np.allclose(probs.sum(axis=1), 1.0)
        assert np.all(probs >= 0)


class TestTrainingBehaviour:
    @pytest.mark.parametrize("name", ["gcn", "sgc", "gamlp", "gprgnn"])
    def test_model_learns_on_homophilous_graph(self, name, homophilous_graph):
        graph = homophilous_graph
        model = _build(name, graph, hidden=16)
        optimizer = Adam(model.parameters(), lr=0.05)
        features = Tensor(graph.features)

        def train_accuracy():
            probs = model.predict_probabilities(graph.features, graph.adjacency)
            mask = graph.train_mask
            return np.mean(probs[mask].argmax(axis=1) == graph.labels[mask])

        initial = train_accuracy()
        for _ in range(60):
            optimizer.zero_grad()
            out = model(features, graph.adjacency)
            loss = F.cross_entropy(out, graph.labels, mask=graph.train_mask)
            loss.backward()
            optimizer.step()
        assert train_accuracy() > max(initial + 0.2, 0.6)

    def test_gcn_beats_mlp_on_homophilous_structure(self):
        """When features are pure noise, GCN can still exploit structure."""
        from tests.conftest import small_csbm

        graph = small_csbm(num_nodes=150, homophily=0.9, signal=0.0, seed=5)
        results = {}
        for name in ("mlp", "gcn"):
            model = _build(name, graph, hidden=16)
            optimizer = Adam(model.parameters(), lr=0.05)
            for _ in range(80):
                optimizer.zero_grad()
                if name == "mlp":
                    out = model(Tensor(graph.features))
                else:
                    out = model(Tensor(graph.features), graph.adjacency)
                F.cross_entropy(out, graph.labels,
                                mask=graph.train_mask).backward()
                optimizer.step()
            if name == "mlp":
                model.eval()
                probs = F.softmax(model(Tensor(graph.features))).numpy()
            else:
                probs = model.predict_probabilities(graph.features,
                                                    graph.adjacency)
            mask = graph.test_mask
            results[name] = np.mean(probs[mask].argmax(axis=1)
                                    == graph.labels[mask])
        assert results["gcn"] > results["mlp"]

    def test_prepare_propagation_row_sums(self, tiny_graph):
        prop = prepare_propagation(tiny_graph.adjacency)
        assert prop.shape == (tiny_graph.num_nodes, tiny_graph.num_nodes)
        assert prop.diagonal().min() > 0  # self-loops added

    def test_propagation_matrix_cached(self, tiny_graph):
        model = GCN(tiny_graph.num_features, 8, tiny_graph.num_classes)
        first = model.propagation_matrix(tiny_graph.adjacency)
        second = model.propagation_matrix(tiny_graph.adjacency)
        assert first is second


class TestModelSpecifics:
    def test_gcn_invalid_layers(self):
        with pytest.raises(ValueError):
            GCN(4, 8, 2, num_layers=0)

    def test_sgc_invalid_k(self):
        with pytest.raises(ValueError):
            SGC(4, 2, k=0)

    def test_gamlp_hop_gates_sum_to_one(self, tiny_graph):
        model = GAMLP(tiny_graph.num_features, 8, tiny_graph.num_classes, k=3)
        gates = F.softmax(model.hop_logits.reshape(1, -1), axis=-1)
        assert gates.data.sum() == pytest.approx(1.0)

    def test_gprgnn_gamma_initialised_with_decay(self):
        model = GPRGNN(4, 8, 2, k=4, alpha=0.2)
        gamma = model.gamma.data
        assert gamma[0] == pytest.approx(0.2)
        assert gamma.shape == (5,)

    def test_gcnii_deeper_than_two_layers(self, tiny_graph):
        model = GCNII(tiny_graph.num_features, 8, tiny_graph.num_classes,
                      num_layers=6)
        out = model(Tensor(tiny_graph.features), tiny_graph.adjacency)
        assert np.all(np.isfinite(out.data))

    def test_ggcn_signed_weights_nonnegative(self, tiny_graph):
        from repro.models.ggcn import _signed_edge_weights

        embedding = np.random.default_rng(0).normal(
            size=(tiny_graph.num_nodes, 8))
        pos, neg = _signed_edge_weights(embedding, tiny_graph.adjacency)
        assert pos.min() >= 0
        assert neg.min() >= 0

    def test_glognn_handles_heterophily_better_than_gcn(self, heterophilous_graph):
        """GloGNN should at least match GCN on a strongly heterophilous graph."""
        graph = heterophilous_graph
        scores = {}
        for name in ("gcn", "glognn"):
            model = _build(name, graph, hidden=16)
            optimizer = Adam(model.parameters(), lr=0.05)
            for _ in range(60):
                optimizer.zero_grad()
                out = model(Tensor(graph.features), graph.adjacency)
                F.cross_entropy(out, graph.labels,
                                mask=graph.train_mask).backward()
                optimizer.step()
            probs = model.predict_probabilities(graph.features, graph.adjacency)
            mask = graph.test_mask
            scores[name] = np.mean(probs[mask].argmax(axis=1)
                                   == graph.labels[mask])
        assert scores["glognn"] >= scores["gcn"] - 0.05

    def test_registry_contains_all_models(self):
        for name in ("mlp", "gcn", "sgc", "gcnii", "gamlp", "gprgnn", "ggcn",
                     "glognn"):
            assert name in MODEL_REGISTRY


class TestOperatorCacheIdentity:
    """The operator caches key on ``id()``; a freed object's id can be handed
    to a different matrix, so a hit must also be the same object."""

    def test_stale_propagation_entry_is_recomputed(self, tiny_graph):
        """An operator lives exactly as long as its adjacency: a matrix that
        inherits a dead adjacency's id gets its own operator."""
        model = _build("gcn", tiny_graph)
        live = tiny_graph.adjacency
        operator = model.propagation_matrix(live)
        assert model.propagation_matrix(live) is operator
        assert propagation_operator(live) is operator   # one cache, shared
        gc.collect()     # earlier tests' garbage must not move the count
        before = structure_cache_size()
        seen = set()
        for size in range(3, 203):
            scratch = sp.identity(size, format="csr")
            recycled = id(scratch) in seen
            seen.add(id(scratch))
            assert model.propagation_matrix(scratch).shape == (size, size)
            assert structure_cache_size() == before + 1
            del scratch
            gc.collect()
            assert structure_cache_size() == before
            if recycled:
                break
        else:
            pytest.skip("the allocator never reused an id")
        assert model.propagation_matrix(live) is operator

    def test_stale_gamlp_hop_entry_is_recomputed(self, tiny_graph):
        from repro.core.propagation import PropagationCache

        model = _build("gamlp", tiny_graph)
        model.eval()  # no dropout: forwards are repeatable
        x = Tensor(tiny_graph.features)
        expected = model(x, tiny_graph.adjacency).data
        prop = model.propagation_matrix(tiny_graph.adjacency)
        wrong = PropagationCache(prop * 0.0, x.data)
        model._hop_cache[id(prop)] = (x.data, wrong)
        np.testing.assert_array_equal(
            model(x, tiny_graph.adjacency).data, expected)
        assert model._hop_cache[id(prop)][1] is not wrong
