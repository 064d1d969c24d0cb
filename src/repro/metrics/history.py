"""Training-history containers used for convergence-curve figures."""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.graph import edge_homophily


@dataclass
class ClientReport:
    """Per-client evaluation snapshot."""

    client_id: int
    num_nodes: int
    num_test_nodes: int
    accuracy: float
    homophily: Optional[float] = None


def client_reports(clients: Iterable, split: str = "test"
                   ) -> List[ClientReport]:
    """Per-client accuracy and homophily breakdown (Fig. 2(d)) of any
    clients with ``client_id``, ``graph`` and ``evaluate(split)``."""
    reports = []
    for client in clients:
        mask = getattr(client.graph, f"{split}_mask")
        reports.append(ClientReport(
            client_id=client.client_id,
            num_nodes=client.graph.num_nodes,
            num_test_nodes=int(mask.sum()),
            accuracy=client.evaluate(split),
            homophily=edge_homophily(client.graph.adjacency,
                                     client.graph.labels)))
    return reports


@dataclass
class TrainingHistory:
    """Accumulates per-round metrics during federated training."""

    rounds: List[int] = field(default_factory=list)
    train_accuracy: List[float] = field(default_factory=list)
    test_accuracy: List[float] = field(default_factory=list)
    loss: List[float] = field(default_factory=list)
    client_accuracy: List[Dict[int, float]] = field(default_factory=list)
    #: per-client round lag at each recorded round — empty dicts for
    #: synchronous training, populated by the bounded-staleness async loop
    #: (lag = server rounds between a client's broadcast and its merge)
    client_lag: List[Dict[int, int]] = field(default_factory=list)
    #: per-client round wall-time (seconds the client's shard spent on its
    #: local epochs that round) at each recorded round — populated by the
    #: sync loop on the process pool, giving straggler profiles the same
    #: per-client resolution :attr:`client_lag` gives async runs; empty
    #: dicts for the in-process backends and for async runs
    client_round_sec: List[Dict[int, float]] = field(default_factory=list)
    #: cumulative count of rounds each client was dropped from (shard
    #: timed out past ``round_timeout``, or lost with a crashed worker
    #: under a non-``fail`` recovery policy); absent ids were never dropped
    client_drops: Dict[int, int] = field(default_factory=dict)
    #: round index → sorted participant client ids selected that round
    #: (every round, not just evaluated ones; async rounds record the
    #: clients merged into each seal)
    participants: Dict[int, List[int]] = field(default_factory=dict)

    def clear(self) -> None:
        """Forget everything recorded, in place (holders keep the object)."""
        self.__init__()

    def record_drop(self, client_id: int) -> None:
        """Count one dropped-round event for a client (fault degradation)."""
        self.client_drops[client_id] = self.client_drops.get(client_id, 0) + 1

    def record_participants(self, round_index: int, ids) -> None:
        """Remember which clients were selected to train this round."""
        self.participants[int(round_index)] = sorted(int(i) for i in ids)

    def record(self, round_index: int, train_acc: float, test_acc: float,
               loss: float, per_client: Optional[Dict[int, float]] = None,
               per_client_lag: Optional[Dict[int, int]] = None,
               per_client_round_sec: Optional[Dict[int, float]] = None
               ) -> None:
        self.rounds.append(round_index)
        self.train_accuracy.append(train_acc)
        self.test_accuracy.append(test_acc)
        self.loss.append(loss)
        self.client_accuracy.append(dict(per_client or {}))
        self.client_lag.append(dict(per_client_lag or {}))
        self.client_round_sec.append(dict(per_client_round_sec or {}))

    @property
    def final_test_accuracy(self) -> float:
        return self.test_accuracy[-1] if self.test_accuracy else 0.0

    @property
    def best_test_accuracy(self) -> float:
        return max(self.test_accuracy) if self.test_accuracy else 0.0

    def rounds_to_reach(self, threshold: float) -> Optional[int]:
        """First round whose test accuracy reaches ``threshold`` (or None)."""
        for round_index, acc in zip(self.rounds, self.test_accuracy):
            if acc >= threshold:
                return round_index
        return None

    def as_dict(self) -> Dict[str, object]:
        """Every field, deep-copied into plain containers (lossless)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TrainingHistory":
        """Inverse of :meth:`as_dict`; trainer checkpoints store that dict.

        A field the dict lacks starts empty (checkpoints written before
        rounds recorded their ``participants`` carry no such key).
        """
        return cls(**copy.deepcopy(data))
