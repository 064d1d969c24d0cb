"""Federated client: a private subgraph plus a local model and optimizer."""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.autograd import Tensor, functional as F, no_grad
from repro.graph import Graph
from repro.metrics import masked_accuracy
from repro.nn import Module
from repro.optim import Adam, clip_grad_norm


class Client:
    """One participant of federated training.

    Parameters
    ----------
    client_id:
        Integer identifier.
    graph:
        The locally-held private subgraph (never leaves the client).
    model:
        Local model instance; its architecture must match every other client
        so that FedAvg can average parameters.
    lr / weight_decay / local_epochs:
        Local optimisation hyperparameters.
    extra_loss:
        Optional callable ``(client, logits) -> Tensor`` adding a method
        specific regulariser (used by FedGL pseudo-labels, FedSage+ NeighGen
        losses, AdaFGL knowledge preservation, ...).
    """

    def __init__(self, client_id: int, graph: Graph, model: Module,
                 lr: float = 0.01, weight_decay: float = 5e-4,
                 local_epochs: int = 5,
                 extra_loss: Optional[Callable] = None):
        self.client_id = client_id
        self.graph = graph
        self.model = model
        self.lr = lr
        self.weight_decay = weight_decay
        self.local_epochs = local_epochs
        self.extra_loss = extra_loss
        self.optimizer = Adam(model.parameters(), lr=lr,
                              weight_decay=weight_decay)
        self._features = Tensor(graph.features)
        # Probability cache: predict() is deterministic given the weights, so
        # one eval tick (global train/test accuracy + per-client breakdown)
        # costs a single forward pass.  ``_weights_version`` is bumped by
        # anything that mutates the model through the client API.
        self._weights_version = 0
        self._prob_cache: Optional[tuple] = None

    def __getstate__(self):
        # Never ship the prediction cache across process boundaries (the
        # process-pool backend pickles whole clients).
        state = self.__dict__.copy()
        state["_prob_cache"] = None
        return state

    # ------------------------------------------------------------------
    # Weights exchange
    # ------------------------------------------------------------------
    @property
    def num_samples(self) -> int:
        """FedAvg weighting: number of labelled training nodes."""
        return max(1, int(self.graph.train_mask.sum()))

    def get_weights(self) -> Dict[str, np.ndarray]:
        return self.model.state_dict()

    def set_weights(self, state: Dict[str, np.ndarray]) -> None:
        self.model.load_state_dict(state)
        self._weights_version += 1

    def load_state(self, snapshot: Dict) -> None:
        """Restore a :func:`~repro.federated.engine.backends.
        snapshot_client_state` payload (weights, optimizer moments, RNG
        streams) through the client API.

        This is the supported way to rehydrate a client from a checkpoint
        or serving snapshot outside a trainer: unlike poking
        ``model.load_state_dict`` directly, it also drops the prediction
        cache, so a stale pre-restore :meth:`predict` result can never be
        served against the restored weights.
        """
        from repro.federated.engine.backends import restore_client_state

        restore_client_state(self, snapshot, include_weights=True)

    # ------------------------------------------------------------------
    # Local training / inference
    # ------------------------------------------------------------------
    def forward(self) -> Tensor:
        return self.model(self._features, self.graph.adjacency)

    def local_train(self, epochs: Optional[int] = None) -> float:
        """Run local supervised epochs; returns the mean training loss."""
        epochs = epochs if epochs is not None else self.local_epochs
        self.model.train()
        losses = []
        labels = self.graph.labels
        mask = self.graph.train_mask
        for _ in range(epochs):
            self.optimizer.zero_grad()
            logits = self.forward()
            loss = F.cross_entropy(logits, labels, mask=mask)
            if self.extra_loss is not None:
                extra = self.extra_loss(self, logits)
                if extra is not None:
                    loss = loss + extra
            loss.backward()
            clip_grad_norm(self.model.parameters(), 5.0)
            self.optimizer.step()
            losses.append(loss.item())
        if epochs:
            self._weights_version += 1
        return float(np.mean(losses)) if losses else 0.0

    def predict(self) -> np.ndarray:
        """Class-probability predictions for every local node.

        Deterministic given the current weights (eval mode, no dropout), so
        the result is cached until :meth:`set_weights` / :meth:`local_train`
        mutate the model; callers must treat the array as read-only.
        """
        if self._prob_cache is not None \
                and self._prob_cache[0] == self._weights_version:
            return self._prob_cache[1]
        self.model.eval()
        with no_grad():
            logits = self.forward()
            probs = F.softmax(logits, axis=-1).numpy()
        self.model.train()
        self._prob_cache = (self._weights_version, probs)
        return probs

    def predict_labels(self) -> np.ndarray:
        """Argmax class ids of :meth:`predict`, cached with the same key.

        One evaluation tick asks for accuracies on several splits; caching
        the argmax alongside the probabilities keeps that a single pass.
        """
        probs = self.predict()
        cached = self._prob_cache
        if len(cached) < 3:
            self._prob_cache = cached = (*cached, probs.argmax(axis=1))
        return cached[2]

    def evaluate(self, split: str = "test") -> float:
        """Accuracy on the requested split (``train``/``val``/``test``)."""
        mask = getattr(self.graph, f"{split}_mask")
        if mask.sum() == 0:
            return 0.0
        return masked_accuracy(self.predict_labels(), self.graph.labels,
                               mask)

    def invalidate_cache(self) -> None:
        """Drop cached predictions (after out-of-band weight mutation)."""
        self._prob_cache = None
        self._weights_version += 1

    def reset_optimizer(self) -> None:
        """Re-create optimizer state (after receiving fresh global weights)."""
        self.optimizer = Adam(self.model.parameters(), lr=self.lr,
                              weight_decay=self.weight_decay)
