"""GCFL+ (Xie et al., 2021): gradient-driven client clustering.

Clients are grouped by the similarity of their model updates (gradients); the
server performs FedAvg *within* each discovered cluster, so clients with very
different data distributions stop hurting each other.

The clustering and per-cluster averaging live in one
:class:`~repro.federated.engine.AggregationStrategy`
(:class:`GCFLAggregation`); the trainer subclass only declares it.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.federated import FederatedConfig, FederatedTrainer, fedavg_aggregate
from repro.federated.engine import AggregationStrategy
from repro.fgl.fedgnn import make_model_factory
from repro.graph import Graph


def _flatten(state: Dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([state[key].ravel() for key in sorted(state)])


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    denom = (np.linalg.norm(a) * np.linalg.norm(b)) + 1e-12
    return float(np.dot(a, b) / denom)


class GCFLAggregation(AggregationStrategy):
    """FedAvg within clusters of similar gradient directions."""

    name = "gcfl+"

    def __init__(self, num_clusters: int = 2,
                 initial_state: Optional[Dict[str, np.ndarray]] = None):
        self.num_clusters = max(1, num_clusters)
        self._cluster_of: Dict[int, int] = {}
        self._previous_broadcast: Optional[Dict[str, np.ndarray]] = \
            initial_state
        self._cluster_states: Dict[int, Dict[str, np.ndarray]] = {}

    # ------------------------------------------------------------------
    def _cluster_clients(self, updates: Dict[int, np.ndarray]) -> None:
        """Greedy 2-means style clustering of gradient directions."""
        ids = sorted(updates)
        if len(ids) <= self.num_clusters:
            for index, client_id in enumerate(ids):
                self._cluster_of[client_id] = index
            return
        # Seed centroids with the two most dissimilar updates.
        best_pair, best_score = (ids[0], ids[-1]), 2.0
        for i in ids:
            for j in ids:
                if j <= i:
                    continue
                score = _cosine(updates[i], updates[j])
                if score < best_score:
                    best_score = score
                    best_pair = (i, j)
        centroids = [updates[best_pair[0]], updates[best_pair[1]]]
        while len(centroids) < self.num_clusters:
            centroids.append(updates[ids[len(centroids) % len(ids)]])
        for client_id in ids:
            sims = [_cosine(updates[client_id], c) for c in centroids]
            self._cluster_of[client_id] = int(np.argmax(sims))

    def aggregate(self, states, weights, context=None):
        """Cluster participants by update direction, FedAvg per cluster."""
        participants = context.participants if context else []
        if self._previous_broadcast is None and participants:
            self._previous_broadcast = participants[0].get_weights()
        updates = {}
        previous = _flatten(self._previous_broadcast)
        for client, state in zip(participants, states):
            updates[client.client_id] = _flatten(state) - previous
            if context is not None:
                context.trainer.tracker.record_upload("model_gradients",
                                                      previous.size)
        self._cluster_clients(updates)

        self._cluster_states = {}
        for cluster_id in set(self._cluster_of[c.client_id]
                              for c in participants):
            members = [i for i, c in enumerate(participants)
                       if self._cluster_of[c.client_id] == cluster_id]
            self._cluster_states[cluster_id] = fedavg_aggregate(
                [states[i] for i in members], [weights[i] for i in members])

        # The "global" state (used for bookkeeping) averages everything.
        global_state = fedavg_aggregate(states, weights)
        self._previous_broadcast = global_state
        return global_state

    def personalize(self, client, global_state, context=None):
        cluster_id = self._cluster_of.get(client.client_id, 0)
        return self._cluster_states.get(cluster_id, global_state)

    def state_dict(self):
        # Assignments persist for clients a round did not sample, and the
        # next round's update directions are taken against the last global
        # state; the cluster states are rebuilt before they are read.
        return {"cluster_of": dict(self._cluster_of),
                "previous_broadcast": self._previous_broadcast}

    def load_state_dict(self, state):
        self._cluster_of = dict(state["cluster_of"])
        self._previous_broadcast = state["previous_broadcast"]


class GCFLPlus(FederatedTrainer):
    """GCFL+ = FedAvg trainer + :class:`GCFLAggregation` strategy."""

    name = "GCFL+"

    def __init__(self, subgraphs: Sequence[Graph], model_name: str = "gcn",
                 hidden: int = 64, num_clusters: int = 2,
                 config: Optional[FederatedConfig] = None):
        factory = make_model_factory(model_name, hidden=hidden,
                                     seed=(config.seed if config else 0))
        super().__init__(subgraphs, factory, config)
        self.num_clusters = max(1, min(num_clusters, len(self.clients)))
        self.strategy = GCFLAggregation(
            num_clusters=self.num_clusters,
            initial_state=self.clients[0].get_weights())
        self.strategy._cluster_of = {c.client_id: 0 for c in self.clients}

