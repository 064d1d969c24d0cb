"""The AdaFGL trainer: Step 1 + Step 2 orchestration (Alg. 1 and Alg. 2)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd import Tensor, functional as F, no_grad
from repro.core.hcs import homophily_confidence_score
from repro.core.knowledge import (
    FederatedKnowledgeExtractor,
    optimized_propagation_matrix,
)
from repro.core.modules import AdaFGLClientModel
from repro.core.propagation import PropagationCache
from repro.federated import FederatedConfig, ProcessPoolBackend
from repro.federated.engine.config import project
from repro.graph import Graph
from repro.graph.normalize import normalize_adjacency
from repro.metrics import (
    ClientReport,
    TrainingHistory,
    client_reports,
    count_weighted_mean,
    masked_accuracy,
)
from repro.optim import Adam, clip_grad_norm


@dataclass
class AdaFGLConfig(FederatedConfig):
    """The hyperparameters the two-step AdaFGL paradigm adds.

    Step 1 is federated collaborative training, so what it trains with and
    how its rounds (and the worker pool Step 2 shares with them) execute is
    the inherited :class:`~repro.federated.FederatedConfig`;
    ``weight_decay`` and ``seed`` also apply to Step 2.

    The ``use_*`` switches correspond to the ablation components of
    Tables VI and VII:

    * ``use_knowledge_preserving`` — K.P. (Eq. 8);
    * ``use_topology_independent`` — T.F. (Eq. 10);
    * ``use_learnable_message`` — L.M. (Eq. 11–12);
    * ``use_local_topology`` — L.T. (Eq. 5–6, replaced by the raw normalised
      adjacency when disabled);
    * ``use_hcs`` — the adaptive combination (Eq. 17, replaced by a fixed
      0.5/0.5 mixture when disabled).
    """

    # Step 1: the knowledge extractor.
    hidden: int = 64
    extractor_model: str = "gcn"

    # Step 2: personalized propagation.
    personalized_epochs: int = 30
    personalized_lr: float = 0.01
    alpha: float = 0.7
    beta: float = 0.7
    k_prop: int = 3
    message_layers: int = 2
    dropout: float = 0.3
    knowledge_weight: float = 0.1

    # Sparse-first propagation engine.  ``sparse_propagation`` keeps P̃ in CSR
    # form with only the ``propagation_top_k`` strongest similarity entries
    # per row (Eq. 5); ``"auto"`` (the default) reads the per-dataset value
    # the dataset registry stamped into ``graph.metadata`` (picked off the
    # BENCH_topk.json accuracy-vs-k curve) and falls back to 32 — an explicit
    # integer (or ``None`` for the exact keep-every-entry sparse path) always
    # wins over the registry default; an integer on the dense path would be
    # ignored, so ``AdaFGL`` refuses it.  ``use_propagation_cache`` precomputes
    # the constant k-hop feature blocks once per client.  The inherited
    # ``num_workers > 1`` trains the (embarrassingly parallel) Step-2
    # clients in the persistent worker pool — shared with Step-1 local
    # training, so the engine knobs shape both steps' execution.
    sparse_propagation: bool = False
    propagation_top_k: Union[int, None, str] = "auto"
    use_propagation_cache: bool = True

    # HCS / label propagation.
    lp_steps: int = 5
    lp_kappa: float = 0.5
    mask_probability: float = 0.5

    # Ablation switches.
    use_knowledge_preserving: bool = True
    use_topology_independent: bool = True
    use_learnable_message: bool = True
    use_local_topology: bool = True
    use_hcs: bool = True

    def federated_config(self) -> FederatedConfig:
        return project(FederatedConfig, self)


#: fallback sparsity when neither the config nor the dataset registry pins one
DEFAULT_PROPAGATION_TOP_K = 32


def resolve_propagation_top_k(config: AdaFGLConfig,
                              graph: Optional[Graph] = None
                              ) -> Optional[int]:
    """Effective ``top_k`` for a client graph (Eq. 5 sparsification).

    Precedence: an explicit config value (an ``int``, or ``None`` meaning
    keep every off-diagonal entry) beats the per-dataset registry default
    stamped into ``graph.metadata["propagation_top_k"]`` by
    :func:`repro.datasets.load_dataset`, which beats
    :data:`DEFAULT_PROPAGATION_TOP_K`.
    """
    top_k = config.propagation_top_k
    if isinstance(top_k, str):
        if top_k != "auto":
            raise ValueError(
                f"propagation_top_k must be an int, None or 'auto', "
                f"got {top_k!r}")
        registry_default = None
        if graph is not None:
            registry_default = graph.metadata.get("propagation_top_k")
        if registry_default is None:
            return DEFAULT_PROPAGATION_TOP_K
        return int(registry_default)
    return top_k


def _check_propagation_top_k(config: AdaFGLConfig) -> None:
    """Refuse a ``propagation_top_k`` that the configured P̃ path would drop.

    ``"auto"`` and ``None`` are valid on both paths; an integer is a
    sparse-path setting (the dense P̃ keeps every entry), so with
    ``sparse_propagation=False`` it is an error rather than a silent no-op,
    as is any other string.
    """
    top_k = config.propagation_top_k
    if top_k not in ("auto", None) and (isinstance(top_k, str)
                                        or not config.sparse_propagation):
        raise ValueError(
            f"propagation_top_k={top_k!r} with sparse_propagation="
            f"{config.sparse_propagation}: propagation_top_k must be 'auto', "
            f"None, or an int with sparse_propagation=True")


class PersonalizedClient:
    """Step-2 state of one client: local model, P̃, P̂ and HCS."""

    def __init__(self, client_id: int, graph: Graph,
                 extractor_probs: np.ndarray, config: AdaFGLConfig,
                 *, propagation=None, hcs: Optional[float] = None):
        self.client_id = client_id
        self.graph = graph
        self.config = config
        self.extractor_probs = np.asarray(extractor_probs)
        self.prop_cache = None

        # ``propagation`` / ``hcs`` may be supplied precomputed (e.g. shipped
        # back from a Step-2 worker process) to skip the expensive setup.
        if propagation is not None:
            self.propagation = propagation
        elif config.use_local_topology:
            self.propagation = optimized_propagation_matrix(
                graph.adjacency, self.extractor_probs, alpha=config.alpha,
                sparse=config.sparse_propagation,
                top_k=(resolve_propagation_top_k(config, graph)
                       if config.sparse_propagation else None))
        else:
            normalised = normalize_adjacency(graph.adjacency, r=0.5,
                                             self_loops=True)
            self.propagation = (normalised if config.sparse_propagation
                                else normalised.toarray())
        if config.use_propagation_cache:
            self.prop_cache = PropagationCache(self.propagation,
                                               graph.features)

        if hcs is not None:
            self.hcs = hcs
        elif config.use_hcs:
            self.hcs = homophily_confidence_score(
                graph, k=config.lp_steps, kappa=config.lp_kappa,
                mask_probability=config.mask_probability,
                seed=config.seed + client_id)
        else:
            self.hcs = 0.5

        self.model = AdaFGLClientModel(
            in_features=graph.num_features, hidden=config.hidden,
            num_classes=graph.num_classes, k_prop=config.k_prop,
            message_layers=config.message_layers, beta=config.beta,
            dropout=config.dropout, seed=config.seed + client_id,
            use_topology_independent=config.use_topology_independent,
            use_learnable_message=config.use_learnable_message)
        self.optimizer = Adam(self.model.parameters(),
                              lr=config.personalized_lr,
                              weight_decay=config.weight_decay)

    # ------------------------------------------------------------------
    @property
    def propagation(self):
        return self._propagation

    @propagation.setter
    def propagation(self, value) -> None:
        """Reassigning P̃ keeps the precompute cache in sync (invalidated)."""
        self._propagation = value
        if self.prop_cache is not None:
            self.prop_cache.propagation = value

    # ------------------------------------------------------------------
    def _combined_log_probs(self, outputs: Dict[str, Tensor]) -> Tensor:
        combined = outputs["combined"]
        return (combined + 1e-9).log()

    def train_epoch(self) -> float:
        """One epoch of personalized training (Eq. 14).

        The supervised term is applied to the HCS-combined output and, with
        the same HCS weighting, to each propagation module's own output
        (deep supervision).  The per-module terms markedly speed up local
        convergence on the small subgraphs used in this reproduction without
        changing which module dominates the final prediction.
        """
        self.model.train()
        self.optimizer.zero_grad()
        outputs = self.model(self.graph.features, self.propagation,
                             self.extractor_probs, self.hcs,
                             cache=self.prop_cache)
        log_probs = self._combined_log_probs(outputs)
        loss = F.nll_loss(log_probs, self.graph.labels,
                          mask=self.graph.train_mask)
        labels, mask = self.graph.labels, self.graph.train_mask
        loss = loss + F.nll_loss((outputs["homophilous"] + 1e-9).log(),
                                 labels, mask=mask) * self.hcs
        loss = loss + F.nll_loss((outputs["heterophilous"] + 1e-9).log(),
                                 labels, mask=mask) * (1.0 - self.hcs)
        if self.config.use_knowledge_preserving:
            knowledge_soft = F.softmax(outputs["knowledge"], axis=-1)
            knowledge_loss = F.frobenius_loss(knowledge_soft,
                                              self.extractor_probs)
            loss = loss + knowledge_loss * self.config.knowledge_weight
        loss.backward()
        clip_grad_norm(self.model.parameters(), 5.0)
        self.optimizer.step()
        return loss.item()

    def predict(self) -> np.ndarray:
        """Final combined probability predictions (Eq. 17)."""
        self.model.eval()
        with no_grad():
            outputs = self.model(self.graph.features, self.propagation,
                                 self.extractor_probs, self.hcs,
                                 cache=self.prop_cache)
            probs = outputs["combined"].numpy()
        self.model.train()
        return probs

    def evaluate(self, split: str = "test") -> float:
        mask = getattr(self.graph, f"{split}_mask")
        if mask.sum() == 0:
            return 0.0
        return masked_accuracy(self.predict(), self.graph.labels, mask)


def _personalize(residents: Dict, client_id: int, graph: Optional[Graph],
                 extractor_probs: np.ndarray, config: AdaFGLConfig,
                 epochs: int, checkpoints: Sequence[int]) -> Tuple:
    """Step 2 (Alg. 2) of one client, end to end: the whole schedule.

    Clients exchange nothing during personalized training, so one client's
    run is a self-contained job: build its :class:`PersonalizedClient`, run
    every epoch, and evaluate train / test at the ``checkpoints`` epochs.
    Returns ``(client_id, state, losses, metrics, counts, P̃, HCS)`` —
    everything :meth:`AdaFGL._run_step2` needs to rebuild the client and the
    history without paying P̃ / HCS twice.

    In-process runs call it with an empty ``residents`` registry; pooled
    runs send it as a ``call`` (see
    :mod:`repro.federated.engine.persistent`), where ``graph=None`` takes
    the subgraph of the worker-resident Step-1 client instead of shipping
    it again.
    """
    if graph is None:
        graph = residents[client_id].graph
    client = PersonalizedClient(client_id, graph, extractor_probs, config)
    losses, metrics = [], {}
    for epoch in range(1, epochs + 1):
        losses.append(client.train_epoch())
        if epoch in checkpoints:
            metrics[epoch] = {"train": client.evaluate("train"),
                              "test": client.evaluate("test")}
    counts = {split: int(getattr(graph, f"{split}_mask").sum())
              for split in ("train", "test")}
    return (client_id, client.model.state_dict(), losses, metrics, counts,
            client.propagation, client.hcs)


class AdaFGL:
    """The complete AdaFGL paradigm over a set of client subgraphs.

    Usage::

        clients = structure_noniid_split(graph, num_clients=10)
        method = AdaFGL(clients, AdaFGLConfig(rounds=20))
        history = method.run()
        print(method.evaluate("test"))
    """

    name = "AdaFGL"

    def __init__(self, subgraphs: Sequence[Graph],
                 config: Optional[AdaFGLConfig] = None):
        self.config = config or AdaFGLConfig()
        _check_propagation_top_k(self.config)
        # Step 2 refuses these too, but only after Step 1 has trained.
        for name in ("alpha", "beta"):
            if not 0.0 <= getattr(self.config, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        self.subgraphs = list(subgraphs)
        if not self.subgraphs:
            raise ValueError("AdaFGL requires at least one client subgraph")
        self.extractor = FederatedKnowledgeExtractor(
            self.subgraphs, model_name=self.config.extractor_model,
            hidden=self.config.hidden, config=self.config.federated_config())
        self.tracker = self.extractor.trainer.tracker
        self.history = TrainingHistory()
        self.personalized: List[PersonalizedClient] = []
        self.step1_history: Optional[TrainingHistory] = None
        self._in_context = False
        if self.config.num_workers > 1:
            # Step 2 rides the same persistent worker pool as Step 1 (worker-
            # resident subgraphs are reused), so the trainer must not tear it
            # down when run_step1 returns; the pipeline end (run_step2 /
            # __exit__ / close) releases it instead.
            self.extractor.trainer.close_backend_after_run = False

    # ------------------------------------------------------------------
    # Resource management
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the backend worker pool (idempotent).

        Needed explicitly only when Step 1 ran with ``num_workers > 1`` and
        Step 2 is never executed; ``run`` / ``run_step2`` and the context-
        manager protocol release the pool on their own.
        """
        self.extractor.trainer.close()

    def __enter__(self) -> "AdaFGL":
        self._in_context = True
        return self

    def __exit__(self, exc_type, exc_value, exc_traceback) -> None:
        self._in_context = False
        self.close()

    # ------------------------------------------------------------------
    # Orchestration
    # ------------------------------------------------------------------
    def run_step1(self, rounds: Optional[int] = None) -> TrainingHistory:
        """Federated collaborative training to obtain the knowledge extractor."""
        self.step1_history = self.extractor.run(rounds=rounds)
        return self.step1_history

    def run_step2(self, epochs: Optional[int] = None) -> TrainingHistory:
        """Personalized propagation on every client (Alg. 2).

        Each client is one :func:`_personalize` job — in this process, or,
        with ``config.num_workers > 1``, on the worker pool (the Step-1 pool
        and its resident subgraphs when there is one).  Either way the
        personalized clients and the history are assembled once, from the
        per-client results, so both schedules give the same bits.  Every
        call trains fresh clients and replaces the Step-2 history in place.
        """
        if self.step1_history is None:
            raise RuntimeError("run_step1 must be executed before run_step2")
        epochs = epochs if epochs is not None else self.config.personalized_epochs
        try:
            return self._run_step2(epochs)
        finally:
            # Step 2 is the pipeline end: outside a ``with`` block the worker
            # pool is released here (and on any mid-run failure), so plain
            # ``AdaFGL(...).run()`` never leaks worker processes.
            if not self._in_context:
                self.close()

    def _run_step2(self, epochs: int) -> TrainingHistory:
        p_hats = self.extractor.client_probabilities()  # P̂ per client
        graphs = self.extractor.client_graphs()
        offset = self.step1_history.rounds[-1] if self.step1_history.rounds else 0
        checkpoints = [epoch for epoch in range(1, epochs + 1)
                       if epoch % max(1, epochs // 10) == 0 or epoch == epochs]
        jobs = [(cid, graph, probs, self.config, epochs, checkpoints)
                for cid, (graph, probs) in enumerate(zip(graphs, p_hats))]
        if self.config.num_workers > 1 and len(jobs) > 1:
            results = self._personalize_on_pool(jobs)
        else:
            results = [_personalize({}, *job) for job in jobs]

        # P̃ and HCS come back with the weights, so their setup is not paid
        # twice; the rebuilt clients carry fresh optimizer moments.
        ids, states, losses, metrics, counts, props, scores = zip(*results)
        self.personalized = []
        for cid, state, prop, hcs in zip(ids, states, props, scores):
            client = PersonalizedClient(cid, graphs[cid], p_hats[cid],
                                        self.config, propagation=prop, hcs=hcs)
            client.model.load_state_dict(state)
            self.personalized.append(client)
        self.history.clear()
        for epoch in checkpoints:
            accuracy = {split: count_weighted_mean(
                            (metric[epoch][split], count[split])
                            for metric, count in zip(metrics, counts))
                        for split in ("train", "test")}
            self.history.record(
                offset + epoch, accuracy["train"], accuracy["test"],
                float(np.mean([loss[epoch - 1] for loss in losses])),
                {cid: metric[epoch]["test"]
                 for cid, metric in zip(ids, metrics)})
        return self.history

    def _personalize_on_pool(self, jobs: List[Tuple]) -> List[Tuple]:
        """Run the :func:`_personalize` jobs on the worker pool, in id order.

        Reuses the Step-1 :class:`~repro.federated.ProcessPoolBackend` when
        the extractor trained on one: a client resident in a worker goes to
        that worker with ``graph=None``, so only P̂ and the config cross the
        process boundary.  Everyone else is sharded by ``cid`` over the
        *alive* slots (a Step-1 crash under the redistribute policy may have
        retired some).  Without a Step-1 pool a dedicated one is spun up and
        released before returning.
        """
        backend = self.extractor.trainer.backend
        owned = not isinstance(backend, ProcessPoolBackend)
        if owned:
            backend = ProcessPoolBackend(
                min(self.config.num_workers, len(jobs)),
                intra_worker=self.config.intra_worker)
        try:
            pool = backend.ensure_pool()
            alive = pool.alive_workers
            per_worker: Dict[int, List[Tuple[str, object]]] = {}
            for cid, *rest in jobs:
                owner = backend.owner_of(cid)
                if owner is not None:
                    rest[0] = None  # the owner holds the subgraph resident
                target = alive[cid % len(alive)] if owner is None else owner
                per_worker.setdefault(target, []).append(
                    ("call", (_personalize, (cid, *rest))))
            # run_batches keeps one job in flight per worker: Step-2 payloads
            # and replies (graphs, P̃ matrices) are far larger than a pipe
            # buffer, so naive queue-everything dispatch can deadlock.
            batches = pool.run_batches(per_worker).values()
        finally:
            if owned:
                backend.close()
        return sorted((result for batch in batches for result in batch),
                      key=lambda result: result[0])

    def run(self, rounds: Optional[int] = None,
            epochs: Optional[int] = None) -> TrainingHistory:
        """Full pipeline: Step 1 followed by Step 2."""
        self.run_step1(rounds=rounds)
        self.run_step2(epochs=epochs)
        return self.history

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, split: str = "test") -> float:
        """Test-node-weighted accuracy across clients.

        Falls back to the Step-1 federated model if Step 2 has not run yet.
        """
        if not self.personalized:
            return self.extractor.trainer.evaluate(split)
        return count_weighted_mean(
            (client.evaluate(split), count) for client in self.personalized
            if (count := int(getattr(client.graph, f"{split}_mask").sum())))

    def client_reports(self, split: str = "test") -> List[ClientReport]:
        """Per-client accuracy and homophily breakdown."""
        return client_reports(
            self.personalized or self.extractor.trainer.clients, split)

    def client_hcs(self) -> Dict[int, float]:
        """Per-client Homophily Confidence Score (Fig. 7)."""
        if not self.personalized:
            raise RuntimeError("Step 2 has not been run yet")
        return {client.client_id: client.hcs for client in self.personalized}
