"""Tests for classification metrics, history tracking and distributions."""

import dataclasses

import numpy as np
import pytest

from repro.metrics import (
    ClientReport,
    TrainingHistory,
    accuracy,
    client_label_distribution,
    client_topology_distribution,
    macro_f1,
    masked_accuracy,
)
from repro.simulation import community_split


class TestClassificationMetrics:
    def test_accuracy_from_class_ids(self):
        assert accuracy(np.array([0, 1, 1]), np.array([0, 1, 0])) == pytest.approx(2 / 3)

    def test_accuracy_from_probabilities(self):
        probs = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert accuracy(probs, np.array([0, 1])) == 1.0

    def test_accuracy_empty(self):
        assert accuracy(np.array([]), np.array([])) == 0.0

    def test_accuracy_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy(np.array([1, 2]), np.array([1]))

    def test_masked_accuracy_boolean(self):
        preds = np.array([0, 1, 0, 1])
        labels = np.array([0, 0, 0, 0])
        mask = np.array([True, False, True, False])
        assert masked_accuracy(preds, labels, mask) == 1.0

    def test_masked_accuracy_index_array(self):
        preds = np.array([0, 1, 0])
        labels = np.array([1, 1, 1])
        assert masked_accuracy(preds, labels, np.array([1])) == 1.0

    def test_masked_accuracy_empty_mask(self):
        assert masked_accuracy(np.array([0]), np.array([0]),
                               np.zeros(1, dtype=bool)) == 0.0

    def test_macro_f1_perfect(self):
        labels = np.array([0, 1, 2, 0, 1, 2])
        assert macro_f1(labels, labels) == pytest.approx(1.0)

    def test_macro_f1_penalises_minority_errors(self):
        labels = np.array([0] * 9 + [1])
        majority = np.zeros(10, dtype=int)
        assert macro_f1(majority, labels) < accuracy(majority, labels)


class TestTrainingHistory:
    def test_record_and_final(self):
        history = TrainingHistory()
        history.record(1, 0.5, 0.4, 1.2)
        history.record(2, 0.7, 0.6, 0.8)
        assert history.final_test_accuracy == 0.6
        assert history.best_test_accuracy == 0.6
        assert history.rounds == [1, 2]

    def test_rounds_to_reach(self):
        history = TrainingHistory()
        for i, acc in enumerate([0.3, 0.5, 0.7], start=1):
            history.record(i, acc, acc, 1.0)
        assert history.rounds_to_reach(0.5) == 2
        assert history.rounds_to_reach(0.9) is None

    def test_empty_history(self):
        history = TrainingHistory()
        assert history.final_test_accuracy == 0.0
        assert history.best_test_accuracy == 0.0

    def test_as_dict(self):
        history = TrainingHistory()
        history.record(1, 0.1, 0.2, 0.3)
        data = history.as_dict()
        assert data["rounds"] == [1]
        assert data["test_accuracy"] == [0.2]

    def test_dict_round_trip_is_lossless(self):
        history = TrainingHistory()
        history.record_participants(1, [2, 0])
        history.record(1, 0.1, 0.2, 0.3, {0: 0.5, 2: 0.7},
                       per_client_lag={0: 1}, per_client_round_sec={2: 0.25})
        history.record_drop(2)
        data = history.as_dict()
        assert set(data) == {field.name for field in
                             dataclasses.fields(TrainingHistory)}
        restored = TrainingHistory.from_dict(data)
        assert restored == history
        # Copies, not views: the dict can outlive further recording.
        history.record(2, 0.2, 0.3, 0.1)
        history.record_drop(2)
        assert TrainingHistory.from_dict(data) == restored

    def test_client_report_fields(self):
        report = ClientReport(client_id=2, num_nodes=10, num_test_nodes=3,
                              accuracy=0.5, homophily=0.8)
        assert report.client_id == 2
        assert report.homophily == 0.8


class TestDistributions:
    def test_label_distribution_shape(self, homophilous_graph):
        clients = community_split(homophilous_graph, 3, seed=0)
        matrix = client_label_distribution(clients)
        assert matrix.shape[0] == len(clients)
        assert matrix.sum() == homophilous_graph.num_nodes

    def test_label_distribution_empty(self):
        assert client_label_distribution([]).size == 0

    def test_topology_distribution_bounds(self, homophilous_graph):
        clients = community_split(homophilous_graph, 3, seed=0)
        stats = client_topology_distribution(clients)
        assert stats.shape == (len(clients), 2)
        assert np.all(stats >= 0.0) and np.all(stats <= 1.0)

    def test_community_split_label_concentration(self, homophilous_graph):
        """Community split concentrates labels within clients (Fig. 2a)."""
        clients = community_split(homophilous_graph, 3, seed=0)
        matrix = client_label_distribution(
            clients, num_classes=homophilous_graph.num_classes)
        fractions = matrix / matrix.sum(axis=1, keepdims=True)
        # At least one client should be dominated by a subset of classes.
        assert fractions.max() > 1.5 / homophilous_graph.num_classes
