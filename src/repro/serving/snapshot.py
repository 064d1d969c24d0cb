"""Frozen serving snapshots: immutable model + prediction state for queries.

Training ends with state scattered across live objects (clients, server,
worker pools); serving wants the opposite — one immutable artifact that
answers queries without touching any of them.  :class:`ServingSnapshot`
freezes:

* the global model state and every client's personalized ``state_dict``;
* each client's graph and its CSR propagation blocks (a lazily-warmed
  :class:`~repro.core.propagation.PropagationCache` per client, the constant
  ``[P̃X, …, P̃ᵏX]`` stack any decoupled-model consumer needs);
* per-client **transductive probability tables**, precomputed once per
  snapshot via the fused eval sweep (:func:`~repro.federated.engine.batched.
  build_eval_plan`) so a steady-state transductive lookup is an O(1) array
  read;
* a deep-copied model per client for inductive (new-node) queries —
  ``None`` for families whose forward is not graph-model shaped (AdaFGL
  Step-2 entries are transductive-only).

Snapshots come from three places: a live :class:`~repro.federated.trainer.
FederatedTrainer` (:meth:`ServingSnapshot.from_trainer`), a finished
:class:`~repro.core.AdaFGL` run (:meth:`ServingSnapshot.from_adafgl`), or a
PR-6 checkpoint file on disk (:meth:`ServingSnapshot.from_checkpoint`, which
accepts ``"latest"`` through the same resolution helper trainer resume
uses).  ``save``/``load`` round-trip the whole artifact through an atomic
pickle, so an exported snapshot can be served by a process that never saw
training.
"""

from __future__ import annotations

import copy
import os
import pickle
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.propagation import PropagationCache
from repro.models.base import propagation_operator

#: layout of a saved snapshot: bumped when its keys or the layout of a
#: pickled class (a model, a tensor) change
SNAPSHOT_FORMAT = 2


def _reset_model_caches(model) -> None:
    """Drop the id-keyed hop cache on a copied or unpickled model.

    GAMLP's ``_hop_cache`` keys on object ids from the process that built
    it; on a deep copy or a fresh unpickle those ids are meaningless and
    could collide with unrelated objects, so the cache restarts empty
    (recomputation is deterministic — values are bitwise-unchanged).
    """
    if hasattr(model, "_hop_cache"):
        model._hop_cache = {}


@dataclass
class ClientEntry:
    """One client's frozen serving state.

    ``probs`` is the transductive answer table ``(num_nodes, num_classes)``;
    ``state`` the personalized weights actually broadcast to this client;
    ``model`` a deep-copied frozen model for inductive queries (``None``
    marks a transductive-only entry).  ``graph`` is shared by reference
    with the training-side object — graphs are immutable by repo
    convention.
    """

    client_id: int
    graph: object
    state: Dict[str, np.ndarray]
    probs: np.ndarray
    model: Optional[object] = None
    _prop: Optional[PropagationCache] = field(
        default=None, repr=False, compare=False)

    @property
    def propagation(self) -> PropagationCache:
        """Frozen CSR propagation blocks over this client's graph.

        Lazily builds a :class:`PropagationCache` on the symmetric-
        normalized operator (the shared one: the model forwards over this
        graph read the same object), so constant k-hop feature blocks are
        computed at most once per snapshot however many consumers ask.
        """
        if self._prop is None:
            self._prop = PropagationCache(
                propagation_operator(self.graph.adjacency),
                self.graph.features)
        return self._prop


class ServingSnapshot:
    """An immutable, queryable export of a federated training run."""

    def __init__(self, entries: Sequence[ClientEntry], *,
                 global_state: Optional[Dict[str, np.ndarray]] = None,
                 source: str = "trainer", round_index: int = 0,
                 model_family: Optional[str] = None):
        self.format = SNAPSHOT_FORMAT
        self.entries: Dict[int, ClientEntry] = {
            entry.client_id: entry for entry in entries}
        self.global_state = global_state
        self.source = source
        self.round_index = int(round_index)
        self.model_family = model_family

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def client_ids(self) -> List[int]:
        return sorted(self.entries)

    @property
    def num_clients(self) -> int:
        return len(self.entries)

    @property
    def inductive_capable(self) -> bool:
        """Whether every entry carries a model for new-node queries."""
        return bool(self.entries) and all(
            entry.model is not None for entry in self.entries.values())

    def entry(self, client_id: int) -> ClientEntry:
        try:
            return self.entries[client_id]
        except KeyError:
            raise KeyError(
                f"snapshot has no client {client_id} "
                f"(known: {self.client_ids})") from None

    # ------------------------------------------------------------------
    # Direct (engine-less) query helpers
    # ------------------------------------------------------------------
    def transductive(self, client_id: int, node_id: int) -> np.ndarray:
        """O(1) probability row for one seen node (treat as read-only)."""
        entry = self.entry(client_id)
        node = int(node_id)
        if not 0 <= node < entry.probs.shape[0]:
            raise IndexError(
                f"node {node} out of range for client {client_id} "
                f"({entry.probs.shape[0]} nodes)")
        return entry.probs[node]

    def hop_blocks(self, client_id: int, k: int) -> List[np.ndarray]:
        """Constant ``[P̃X, …, P̃ᵏX]`` blocks for one client (cached)."""
        return [block.numpy()
                for block in self.entry(client_id).propagation.blocks(k)]

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def from_clients(cls, clients: Sequence, *,
                     global_state: Optional[Dict[str, np.ndarray]] = None,
                     source: str = "trainer",
                     round_index: int = 0) -> "ServingSnapshot":
        """Freeze a set of live :class:`~repro.federated.client.Client`s.

        Transductive tables are filled by one fused eval sweep when the
        model family supports it (``build_eval_plan`` + ``refresh`` prime
        every client's prediction cache, so the per-client ``predict()``
        below is an array read); unsupported families fall back to one
        serial forward per client — bitwise the same numbers either way.
        """
        from repro.federated.engine.batched import build_eval_plan

        clients = list(clients)
        if not clients:
            raise ValueError("cannot snapshot an empty client set")
        states = [client.get_weights() for client in clients]
        plan = build_eval_plan(clients)
        if plan is not None:
            plan.refresh(states)
        entries = []
        for client, state in zip(clients, states):
            model = copy.deepcopy(client.model)
            _reset_model_caches(model)
            model.eval()
            entries.append(ClientEntry(
                client_id=client.client_id, graph=client.graph,
                state=state, probs=np.array(client.predict(), copy=True),
                model=model))
        return cls(entries,
                   global_state=copy.deepcopy(global_state),
                   source=source, round_index=round_index,
                   model_family=type(clients[0].model).__name__)

    @classmethod
    def from_trainer(cls, trainer) -> "ServingSnapshot":
        """Freeze a live (typically just-trained) federated trainer."""
        return cls.from_clients(
            trainer.clients,
            global_state=trainer.server.global_state,
            source="trainer",
            round_index=getattr(trainer.server, "round", 0))

    @classmethod
    def from_adafgl(cls, method) -> "ServingSnapshot":
        """Freeze a finished AdaFGL run.

        After Step 2 each :class:`~repro.core.adafgl.PersonalizedClient`
        holds the paper's final predictor (personalized propagation +
        Step-2 model combined in :meth:`predict`); those combined
        probabilities become the transductive tables.  The Step-2 forward
        is bound to the client's optimized propagation matrix, so AdaFGL
        entries are transductive-only (``model=None``).  Before Step 2 has
        run, the Step-1 knowledge extractor is snapshotted instead.
        """
        if getattr(method, "personalized", None):
            trainer = method.extractor.trainer
            entries = [
                ClientEntry(client_id=pc.client_id, graph=pc.graph,
                            state=pc.model.state_dict(),
                            probs=np.array(pc.predict(), copy=True))
                for pc in method.personalized]
            return cls(entries,
                       global_state=copy.deepcopy(
                           trainer.server.global_state),
                       source="adafgl",
                       round_index=getattr(trainer.server, "round", 0),
                       model_family="AdaFGL")
        return cls.from_trainer(method.extractor.trainer)

    @classmethod
    def from_checkpoint(cls, path: str, subgraphs: Sequence,
                        model_factory: Callable, *,
                        checkpoint_dir: str = "checkpoints",
                        lr: float = 0.01,
                        weight_decay: float = 5e-4) -> "ServingSnapshot":
        """Freeze a PR-6 checkpoint file without replaying training.

        ``path`` may be ``"latest"`` (resolved in ``checkpoint_dir``
        through the same helper trainer resume uses), ``subgraphs`` the
        client graphs in client-id order and ``model_factory`` a
        ``graph -> Module`` callable matching the checkpointed
        architecture (e.g. :func:`repro.fgl.make_model_factory`).
        """
        from repro.federated.client import Client
        from repro.federated.trainer import read_checkpoint

        resolved, payload = read_checkpoint(path, checkpoint_dir)
        clients = [Client(index, graph, model_factory(graph), lr=lr,
                          weight_decay=weight_decay)
                   for index, graph in enumerate(subgraphs)]
        snapshots = payload["clients"]
        known = {client.client_id for client in clients}
        if set(snapshots) != known:
            raise ValueError(
                f"checkpoint {resolved} covers clients "
                f"{sorted(snapshots)}, caller supplied {sorted(known)}")
        for client in clients:
            client.load_state(snapshots[client.client_id])
        return cls.from_clients(
            clients,
            global_state=payload["server"]["global_state"],
            source="checkpoint", round_index=payload["round"])

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> str:
        """Atomically pickle the snapshot; returns ``path``."""
        payload = {
            "kind": "snapshot",
            "format": self.format,
            "entries": [ClientEntry(client_id=entry.client_id,
                                    graph=entry.graph, state=entry.state,
                                    probs=entry.probs, model=entry.model)
                        for entry in self.entries.values()],
            "global_state": self.global_state,
            "source": self.source,
            "round": self.round_index,
            "model_family": self.model_family,
        }
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        temp = f"{path}.tmp"
        with open(temp, "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(temp, path)
        return path

    @classmethod
    def load(cls, path: str) -> "ServingSnapshot":
        from repro.federated.trainer import read_artifact

        payload = read_artifact(
            path, "snapshot", SNAPSHOT_FORMAT,
            ("entries", "global_state", "source", "round", "model_family"))
        for entry in payload["entries"]:
            if entry.model is not None:
                _reset_model_caches(entry.model)
        return cls(payload["entries"],
                   global_state=payload["global_state"],
                   source=payload["source"],
                   round_index=payload["round"],
                   model_family=payload["model_family"])
