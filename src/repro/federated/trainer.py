"""Generic federated training loop with pluggable execution and aggregation.

The trainer owns a list of :class:`~repro.federated.client.Client` objects and
a :class:`~repro.federated.server.Server`, and composes two engine plug-ins
(:mod:`repro.federated.engine`):

* an :class:`~repro.federated.engine.ExecutionBackend` that runs the local
  epochs of every selected participant (``serial`` / ``process_pool`` /
  ``batched``, selected via :attr:`FederatedConfig.backend`);
* an :class:`~repro.federated.engine.AggregationStrategy` that combines the
  uploaded states and decides what each client receives back (FedAvg, Eq. 4,
  unless a subclass declares its own).

Subclasses customise behaviour by declaring a strategy (FED-PUB and GCFL+
are single strategy declarations now) or overriding the hooks:

* :meth:`aggregate` / :meth:`personalize` — thin delegations to the strategy;
* :meth:`before_round` / :meth:`after_round` — cross-client interactions
  (pseudo-label sharing, neighbour generation, ...).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.federated.client import Client
from repro.federated.communication import CommunicationTracker
from repro.federated.engine import (
    AggregationContext,
    AggregationStrategy,
    EngineConfig,
    ExecutionBackend,
    FedAvgAggregation,
    check_composition,
    engine_fields,
    make_backend,
    resolve_round_loop,
)
from repro.federated.engine.config import env_default
from repro.federated.server import Server
from repro.graph import Graph
from repro.metrics import (TrainingHistory, client_reports,
                           count_weighted_mean)
from repro.nn import Module

#: stream key that separates participant selection from every other use of
#: the run seed, so changing ``participation`` can never perturb training
#: RNG parity (model init, dropout, ...).
_PARTICIPATION_STREAM = 0x9E3779B9


def participation_rng(seed: int) -> np.random.Generator:
    """The dedicated seeded stream participant subsampling draws from."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), _PARTICIPATION_STREAM]))


def select_participant_ids(rng: np.random.Generator, total: int,
                           fraction: float) -> List[int]:
    """Pick this round's participant ids (sorted) out of ``range(total)``.

    ``fraction < 1.0`` floors the count and caps it at ``total - 1``, so a
    partial-participation request can never silently select 100% of the
    clients however small ``total`` is; the floor is clamped up to one
    participant.  ``fraction >= 1.0`` selects everyone without consuming
    randomness.
    """
    if total <= 0:
        raise ValueError("participant selection needs at least one client")
    if fraction >= 1.0:
        return list(range(total))
    count = max(1, min(int(fraction * total), total - 1)) if total > 1 else 1
    chosen = rng.choice(total, size=count, replace=False)
    return sorted(int(index) for index in chosen)


def resolve_checkpoint_path(spec: str,
                            checkpoint_dir: str = "checkpoints") -> str:
    """Resolve a checkpoint spec to a concrete file path.

    ``"latest"`` names the ``latest.ckpt`` pointer :meth:`FederatedTrainer.
    save_checkpoint` refreshes on every write, resolved inside
    ``checkpoint_dir``; anything else is returned verbatim.  Trainer resume
    (``resume_from="latest"``) and serving-snapshot export
    (:meth:`repro.serving.ServingSnapshot.from_checkpoint`) share this one
    helper so their notion of "the newest checkpoint" can never drift.
    """
    import os

    if spec == "latest":
        path = os.path.join(checkpoint_dir, "latest.ckpt")
        if not os.path.exists(path):
            raise FileNotFoundError(
                f"resume_from='latest' but '{checkpoint_dir}' has no "
                f"latest.ckpt — no checkpoint was ever written there")
        return path
    return spec


def read_artifact(path: str, kind: str, version: int,
                  required: Sequence[str]) -> Dict:
    """Unpickle the ``kind`` file (``"checkpoint"`` / ``"snapshot"``) at
    ``path``, or say what it is instead.

    Both kinds are pickled dicts stamped ``format``; savers also stamp
    ``kind`` (files written before they did carry none and are told apart
    by the ``required`` top-level keys).  Anything else — a truncated file,
    some other pickle, a pickle naming a class or attribute this code no
    longer has, the other kind — is a ``ValueError`` naming the file, what
    it was expected to be and what it looks like, raised here rather than
    as a ``KeyError`` three layers into the restore.
    """
    import pickle

    with open(path, "rb") as handle:
        try:
            payload = pickle.load(handle)
        except Exception as error:
            raise ValueError(
                f"{path} is not a {kind}: truncated or not a pickle this "
                f"code can rebuild ({type(error).__name__}: {error})"
            ) from None
    if not isinstance(payload, dict):
        raise ValueError(f"{path} is not a {kind}: it holds a "
                         f"{type(payload).__name__}, not a dict")
    found = payload.get("kind", kind)
    if found != kind:
        raise ValueError(f"{path} is not a {kind}: it is a {found}")
    # Keys before the format: they are what tells an unstamped file's kind.
    missing = [key for key in required if key not in payload]
    if missing:
        raise ValueError(f"{path} is not a {kind}: no {missing} among its "
                         f"keys {sorted(payload)}")
    if payload.get("format") != version:
        raise ValueError(f"unsupported {kind} format "
                         f"{payload.get('format')!r} in {path}")
    return payload


def read_checkpoint(spec: str, checkpoint_dir: str) -> tuple:
    """``(path, payload)`` of the checkpoint ``spec`` resolves to — what
    trainer resume and serving-snapshot export both start from."""
    path = resolve_checkpoint_path(spec, checkpoint_dir)
    return path, read_artifact(path, "checkpoint", 1,
                               ("clients", "server", "round"))


@dataclass
class FederatedConfig(EngineConfig):
    """Hyperparameters of federated collaborative training.

    What is trained lives here; how the rounds execute — backend, worker
    pool, round mode, codec, transport, fault tolerance — is the inherited
    :class:`~repro.federated.engine.EngineConfig`, which documents every
    knob once.
    """

    rounds: int = env_default(20, "REPRO_ROUNDS")
    local_epochs: int = env_default(3, "REPRO_EPOCHS")
    lr: float = 0.01
    weight_decay: float = 5e-4
    participation: float = 1.0
    seed: int = 0
    eval_every: int = 1


class FederatedTrainer:
    """Standard federated collaborative training over client subgraphs."""

    #: label used in communication accounting and Table VIII
    name = "FedAvg"

    def __init__(self, subgraphs: Sequence[Graph],
                 model_factory: Callable[[Graph], Module],
                 config: Optional[FederatedConfig] = None):
        self.config = config or FederatedConfig()
        self.server = Server()
        self.tracker = CommunicationTracker()
        self.history = TrainingHistory()
        self._rng = np.random.default_rng(self.config.seed)
        self._participation_rng = participation_rng(self.config.seed)
        self.clients: List[Client] = []
        for index, graph in enumerate(subgraphs):
            self.clients.append(Client(
                client_id=index, graph=graph, model=model_factory(graph),
                lr=self.config.lr, weight_decay=self.config.weight_decay,
                local_epochs=self.config.local_epochs))
        if not self.clients:
            raise ValueError("federated training requires at least one client")
        # All clients start from identical weights (the usual FL convention).
        initial = self.clients[0].get_weights()
        for client in self.clients[1:]:
            client.set_weights(initial)
        # Engine plug-ins.  Subclasses may replace ``strategy`` after
        # ``super().__init__`` to declare a method-specific aggregation.
        self.strategy: AggregationStrategy = FedAvgAggregation()
        self.backend: ExecutionBackend = make_backend(
            self.config.execution_backend(), **engine_fields(self.config))
        check_composition(self.config, self.backend)
        self.backend.bind(self)
        self._context: Optional[AggregationContext] = None
        #: rounds already in the history (non-zero after a checkpoint resume)
        self._completed_rounds = 0
        self._resume_applied = False
        #: when True (the default) :meth:`run` releases the backend's
        #: resources as soon as it returns — the legacy standalone behaviour.
        #: Entering the trainer as a context manager defers the release to
        #: ``__exit__`` so persistent worker pools survive across phases
        #: (e.g. AdaFGL Step 1 → Step 2) and repeated ``run`` calls.
        self.close_backend_after_run = True

    # ------------------------------------------------------------------
    # Resource management
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Shut down backend resources (worker pools, plans); idempotent."""
        self.backend.close()

    def __enter__(self) -> "FederatedTrainer":
        self.close_backend_after_run = False
        return self

    def __exit__(self, exc_type, exc_value, exc_traceback) -> None:
        # Restore standalone semantics: a run() issued after the block ends
        # must release whatever pool it respawns.
        self.close_backend_after_run = True
        self.close()

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def before_round(self, round_index: int,
                     participants: List[Client]) -> None:
        """Cross-client interaction hook executed before local training."""

    def after_round(self, round_index: int,
                    participants: List[Client]) -> None:
        """Hook executed after aggregation and broadcasting."""

    def aggregate(self, states: List[Dict[str, np.ndarray]],
                  weights: List[float],
                  participants: List[Client]) -> Dict[str, np.ndarray]:
        """Combine uploaded client states (delegates to the strategy).

        ``participants`` are the clients whose upload arrived — a shard
        dropped at the round deadline is not among them — so the strategy
        sees them, not the round's selection, as its context.
        """
        if self._context is not None:
            self._context = replace(self._context, participants=participants)
        global_state = self.strategy.aggregate(states, weights, self._context)
        self.server.commit(global_state)
        return global_state

    def personalize(self, client: Client,
                    global_state: Dict[str, np.ndarray]
                    ) -> Dict[str, np.ndarray]:
        """Return the state this client should load (strategy-decided)."""
        return self.strategy.personalize(client, global_state, self._context)

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------
    def _select_participant_ids(self) -> List[int]:
        """This round's participant ids, drawn from the dedicated stream.

        Id-based so callers scaling past resident ``Client`` objects (the
        lazy client store) share the exact selection sequence.
        """
        return select_participant_ids(self._participation_rng,
                                      len(self.clients),
                                      self.config.participation)

    def _select_participants(self) -> List[Client]:
        return [self.clients[i] for i in self._select_participant_ids()]

    def run(self, rounds: Optional[int] = None) -> TrainingHistory:
        """Execute federated collaborative training and return the history."""
        rounds = rounds if rounds is not None else self.config.rounds
        # Every unsupported knob combination is refused here, while no
        # worker process exists yet.
        check_composition(self.config, self.backend, self.strategy, self)
        if self.config.resume_from and not self._resume_applied:
            self.load_checkpoint(self.config.resume_from)
        else:
            # A fresh (non-resume) run always starts from round 1 — a
            # trainer re-run keeps its pre-checkpoint semantics of training
            # the full schedule again.
            self._completed_rounds = 0
        try:
            self._run_rounds(rounds)
        except BaseException:
            # Never leak worker pools when a run dies mid-round, even when
            # the trainer is used without a ``with`` block.
            self.close()
            raise
        if self.close_backend_after_run:
            self.close()
        return self.history

    def _run_rounds(self, rounds: int) -> None:
        # One synchronous loop for every backend (async when configured);
        # whether it overlaps coordinator work with worker training is an
        # execution detail: histories are bitwise-identical either way.
        resolve_round_loop(self).run(rounds)

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def checkpoint_path(self, round_index: int) -> str:
        """Default on-disk location of a given round's checkpoint."""
        import os

        return os.path.join(self.config.checkpoint_dir,
                            f"round_{round_index:04d}.ckpt")

    def save_checkpoint(self, round_index: Optional[int] = None,
                        path: Optional[str] = None) -> str:
        """Persist the full mid-run training state; returns the file path.

        The checkpoint carries everything a bitwise-identical resume needs:
        every client's weights, optimizer moments and RNG streams (pulled
        back from the worker pool first), the server's global state and
        round counter, the aggregation strategy's cross-round state (e.g.
        GCFL+ cluster assignments), the participant-selection RNG, the recorded
        history and the communication tracker.  Format: a pickled dict with
        a ``format`` version field, written atomically (temp file +
        ``os.replace``); ``latest.ckpt`` in ``checkpoint_dir`` always names
        the newest one.
        """
        import os
        import pickle

        from repro.federated.engine.backends import snapshot_client_state

        round_index = self._completed_rounds if round_index is None \
            else int(round_index)
        self.backend.sync_for_checkpoint()
        payload = {
            "kind": "checkpoint",
            "format": 1,
            "trainer": self.name,
            "round": round_index,
            "clients": {
                client.client_id: snapshot_client_state(
                    client, include_weights=True)
                for client in self.clients},
            "server": {"global_state": self.server.global_state,
                       "round": self.server.round},
            "strategy": self.strategy.state_dict(),
            "trainer_rng": self._rng.bit_generator.state,
            "participation_rng": self._participation_rng.bit_generator.state,
            "history": self.history.as_dict(),
            "tracker": {"uploaded": dict(self.tracker.uploaded),
                        "downloaded": dict(self.tracker.downloaded),
                        "rounds": self.tracker.rounds},
        }
        if path is None:
            os.makedirs(self.config.checkpoint_dir, exist_ok=True)
            path = self.checkpoint_path(round_index)
        temp = f"{path}.tmp"
        with open(temp, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp, path)
        latest = os.path.join(os.path.dirname(path) or ".", "latest.ckpt")
        with open(f"{latest}.tmp", "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(f"{latest}.tmp", latest)
        return path

    def load_checkpoint(self, path: str) -> int:
        """Restore a :meth:`save_checkpoint` file; returns its round index.

        ``path="latest"`` resolves to ``latest.ckpt`` in the configured
        ``checkpoint_dir`` (see :func:`resolve_checkpoint_path`).  The next
        :meth:`run` continues from the checkpointed round — in sync mode,
        on every backend, bitwise-identically to the run that was
        interrupted.
        """
        from repro.federated.engine.backends import restore_client_state

        path, payload = read_checkpoint(path, self.config.checkpoint_dir)
        snapshots = payload["clients"]
        known = {client.client_id for client in self.clients}
        if set(snapshots) != known:
            raise ValueError(
                f"checkpoint {path} covers clients "
                f"{sorted(snapshots)}, trainer has {sorted(known)}")
        # Drop any pool-resident state from a previous run segment: clients
        # are re-bootstrapped from the restored mirrors on the next round.
        self.backend.close()
        for client in self.clients:
            restore_client_state(client, snapshots[client.client_id],
                                 include_weights=True)
        self.server.global_state = payload["server"]["global_state"]
        self.server.round = payload["server"]["round"]
        self.strategy.load_state_dict(payload["strategy"])
        self._rng.bit_generator.state = payload["trainer_rng"]
        if "participation_rng" in payload:
            self._participation_rng.bit_generator.state = \
                payload["participation_rng"]
        # In place: callers (and AdaFGL) hold references to the history.
        vars(self.history).update(
            vars(TrainingHistory.from_dict(payload["history"])))
        self.tracker.uploaded.clear()
        self.tracker.uploaded.update(payload["tracker"]["uploaded"])
        self.tracker.downloaded.clear()
        self.tracker.downloaded.update(payload["tracker"]["downloaded"])
        self.tracker.rounds = payload["tracker"]["rounds"]
        self._completed_rounds = payload["round"]
        self._resume_applied = True
        return self._completed_rounds

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, split: str = "test") -> float:
        """Test-node-weighted average accuracy across all clients."""
        # a client with an empty mask is not evaluated: no forward for it
        return count_weighted_mean(
            (client.evaluate(split), count) for client in self.clients
            if (count := int(getattr(client.graph, f"{split}_mask").sum())))

    def client_reports(self, split: str = "test"):
        """Per-client accuracy breakdown (Fig. 2(d))."""
        return client_reports(self.clients, split)

    @property
    def global_state(self) -> Dict[str, np.ndarray]:
        """The latest aggregated global model (the federated knowledge)."""
        return self.server.broadcast()
