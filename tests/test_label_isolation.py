"""No test or validation label reaches training.

Shuffling the labels among each client's test and validation nodes (a
permutation, so every class keeps its count) must leave training bit for bit
unchanged: the same per-round losses and the same predictions on every node,
for every runnable method, on each execution backend and on both splits.
Only the labels of training nodes may move a model.
"""

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.experiments import ExperimentSettings
from repro.experiments.runner import available_methods, run_method
from repro.simulation import community_split, structure_noniid_split

SPLITS = {"community": community_split, "structure": structure_noniid_split}
#: backend → pool width (the pool runs on two pipe workers)
BACKENDS = {"serial": 0, "batched": 0, "process_pool": 2}


def _shuffle_held_out(graph, rng):
    """A copy of ``graph`` with its test and validation labels permuted."""
    held_out = np.flatnonzero(graph.test_mask | graph.val_mask)
    shuffled = graph.copy()
    shuffled.labels[held_out] = rng.permutation(graph.labels[held_out])
    return shuffled


@pytest.fixture(scope="module", params=sorted(SPLITS))
def split(request):
    graph = load_dataset("cora", seed=0, num_nodes=300)
    clients = SPLITS[request.param](graph, 3, seed=0)
    rng = np.random.default_rng(0)
    shuffled = [_shuffle_held_out(client, rng) for client in clients]
    for client, twin in zip(clients, shuffled):
        assert np.array_equal(np.bincount(client.labels),
                              np.bincount(twin.labels))
        np.testing.assert_array_equal(client.labels[client.train_mask],
                                      twin.labels[twin.train_mask])
    assert any(not np.array_equal(client.labels, twin.labels)
               for client, twin in zip(clients, shuffled))
    return clients, shuffled


def _train(method, clients, backend):
    settings = ExperimentSettings(
        num_clients=len(clients), rounds=3, local_epochs=2,
        personalized_epochs=5, hidden=16, backend=backend,
        num_workers=BACKENDS[backend], transport="pipe")
    result = run_method(method, clients, settings)
    trainer = result["trainer"]
    trained = getattr(trainer, "personalized", None) or trainer.clients
    return result["history"].loss, [client.predict() for client in trained]


@pytest.mark.parametrize("backend", sorted(BACKENDS))
@pytest.mark.parametrize("method", available_methods())
def test_held_out_labels_never_reach_training(method, backend, split):
    clients, shuffled = split
    loss, predictions = _train(method, clients, backend)
    shuffled_loss, shuffled_predictions = _train(method, shuffled, backend)
    assert loss
    np.testing.assert_array_equal(shuffled_loss, loss)
    assert len(shuffled_predictions) == len(predictions)
    for got, want in zip(shuffled_predictions, predictions):
        np.testing.assert_array_equal(got, want)
