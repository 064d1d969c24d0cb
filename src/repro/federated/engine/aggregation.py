"""Aggregation strategies: how uploaded client states become a global model.

Aggregation is one of the two orthogonal axes of the federation engine (the
other being :mod:`~repro.federated.engine.backends`).  A strategy answers two
questions every round:

* :meth:`AggregationStrategy.aggregate` — how the uploaded state dicts are
  combined into the server-side global state;
* :meth:`AggregationStrategy.personalize` — what each client receives back
  (the global state for FedAvg; per-client mixtures for personalized methods
  such as FED-PUB or GCFL+, whose trainers now reduce to strategy
  declarations).

Every trainer aggregates with :class:`FedAvgAggregation` (Eq. 4); FED-PUB and
GCFL+ replace ``trainer.strategy`` with their own strategy object.

Streaming aggregation
---------------------
The sync round loop (:mod:`~repro.federated.engine.pipeline`), when it
overlaps coordinator work with worker training, does not
wait for every participant before aggregating: shard uploads are folded into
a running weighted merge the moment they arrive, so the merge cost overlaps
straggler compute.  A strategy opts in by returning a
:class:`StreamingAggregate` from :meth:`AggregationStrategy.begin_stream`;
strategies that need every state at once (FED-PUB's pairwise similarities,
GCFL+'s clustering of update directions) return ``None`` and the loop falls
back to gather-then-aggregate — still pipelined across rounds, just not
within the merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.federated.server import DeterministicSum, fedavg_aggregate

StateDict = Dict[str, np.ndarray]


@dataclass
class AggregationContext:
    """Round-level information handed to strategies.

    ``trainer`` gives access to the full client list, the communication
    tracker and the server; ``participants`` is the subset selected this
    round (in client-id order).
    """

    round_index: int
    participants: List
    trainer: object


class StreamingAggregate:
    """Incremental weighted merge, bitwise-equal to :func:`fedavg_aggregate`.

    Contributions fold the moment they arrive, in any order: the sum runs on
    :class:`~repro.federated.server.DeterministicSum` fixed-point limbs, so
    the result is bitwise identical to the barrier-style
    ``sum(ŵ_i · state_i)`` no matter which worker finishes first — and
    identical to a two-tier merge of per-worker partials
    (:meth:`add_partial`), which is what hierarchical edge aggregation ships.

    The full participant ``weights`` must be known at construction time,
    exactly as they are at dispatch time (``client.num_samples`` is static).
    """

    def __init__(self, weights: Sequence[float]):
        base = np.asarray(weights, dtype=np.float64)
        if base.size == 0:
            raise ValueError("streaming aggregation needs at least one weight")
        if base.sum() <= 0:
            raise ValueError("aggregation weights must sum to a positive value")
        self._weights = base / base.sum()
        self._expected = int(base.size)
        self._folded: set = set()
        self._dropped: set = set()
        self._dropped_weight = 0.0
        self._acc = DeterministicSum()
        self._keys: Optional[frozenset] = None

    @property
    def pending(self) -> int:
        """Participants whose contribution has not been folded yet."""
        return self._expected - len(self._folded) - len(self._dropped)

    @property
    def dropped(self) -> int:
        """Participants excluded from the merge via :meth:`drop`."""
        return len(self._dropped)

    @property
    def normalized_weights(self) -> np.ndarray:
        """The globally normalised participant weights ŵ (sum to 1).

        Hierarchical dispatch ships each edge aggregator its shard's slice of
        these, so worker-side folds use the exact coefficients a flat
        coordinator fold would.
        """
        return self._weights.copy()

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self._expected:
            raise IndexError(f"participant index {index} out of range")
        if index in self._folded:
            raise ValueError(f"participant {index} already folded")

    def _check_keys(self, state) -> None:
        # Same loud failure as the barrier fedavg_aggregate: a key-set
        # mismatch would otherwise skew the effective weights silently.
        if self._keys is None:
            self._keys = frozenset(state)
        elif frozenset(state) != self._keys:
            raise KeyError(
                "client state dicts have mismatching parameter names")

    def add(self, index: int, state: StateDict) -> None:
        """Fold participant ``index``'s upload into the running merge."""
        self._check_index(index)
        if index in self._dropped:
            raise ValueError(f"participant {index} was dropped")
        self._check_keys(state)
        self._acc.fold(state, float(self._weights[index]))
        self._folded.add(index)

    def add_partial(self, indices: Sequence[int], partial) -> None:
        """Merge a pre-aggregated shard: ``Σ ŵ_i·state_i`` over ``indices``.

        ``partial`` is a :meth:`DeterministicSum.partial` export built by an
        edge aggregator that folded every listed participant with its
        normalised weight.  Integer limb addition makes the merged result
        bitwise equal to folding those participants here one by one.
        """
        for index in indices:
            self._check_index(index)
            if index in self._dropped:
                raise ValueError(f"participant {index} was dropped")
        self._check_keys(partial)
        self._acc.merge(partial)
        self._folded.update(int(index) for index in indices)

    def drop(self, index: int) -> None:
        """Exclude participant ``index`` from the merge (fault degradation).

        Its weight mass is removed and :meth:`seal` renormalises over the
        actual reporters, so the sealed result is the weighted average of
        the surviving contributions — the statistically principled
        partial-participation FedAvg.  A round with no drops is bitwise
        untouched (no renormalisation runs).  The renormalised seal can be
        an ulp from :func:`fedavg_aggregate` over the reporters, so the sync
        loop drops only from hierarchical rounds, whose per-client states
        it never sees; a flat round with a drop gathers its reporters.
        """
        self._check_index(index)
        if index in self._dropped:
            return
        self._dropped.add(index)
        self._dropped_weight += float(self._weights[index])

    def seal(self) -> StateDict:
        """Finish the merge; every participant must be folded or dropped."""
        if self.pending:
            raise RuntimeError(
                f"cannot seal: {self.pending} contribution(s) still pending")
        if self._acc.empty:
            raise RuntimeError(
                "cannot seal: every contribution was dropped")
        merged = self._acc.value()
        if self._dropped:
            kept = 1.0 - self._dropped_weight
            if kept <= 0:
                raise RuntimeError(
                    "cannot seal: dropped participants held all the weight")
            merged = {key: value / kept for key, value in merged.items()}
        return merged


class AggregationStrategy:
    """Base strategy: subclass and override :meth:`aggregate`."""

    name = "base"

    def aggregate(self, states: Sequence[StateDict],
                  weights: Sequence[float],
                  context: Optional[AggregationContext] = None) -> StateDict:
        """Combine one round's uploads into the new global state.

        A strategy with the default :meth:`personalize` may be handed views
        of the batched plan's resident stacks, which the next round trains
        in place: copy whatever must outlive the call.
        """
        raise NotImplementedError

    def begin_stream(self, weights: Sequence[float],
                     context: Optional[AggregationContext] = None
                     ) -> Optional[StreamingAggregate]:
        """Start an incremental merge for one round (or ``None``).

        Returning a :class:`StreamingAggregate` promises that folding every
        participant's state into it and sealing produces the same result as
        :meth:`aggregate` over the gathered states.  The default ``None``
        makes the round loop gather every upload first.
        """
        del weights, context
        return None

    def personalize(self, client, global_state: StateDict,
                    context: Optional[AggregationContext] = None) -> StateDict:
        """State the given client should load (default: the global one)."""
        del client, context
        return global_state

    def state_dict(self) -> Dict:
        """Round-persistent strategy state for checkpointing (default none).

        Strategies carrying cross-round state (e.g. GCFL+'s cluster
        assignments) override this pair so :meth:`load_state_dict` restores the
        exact mid-run state and a resumed run continues bitwise.
        """
        return {}

    def load_state_dict(self, state: Dict) -> None:
        """Restore :meth:`state_dict` output (default: nothing to restore)."""
        del state


class FedAvgAggregation(AggregationStrategy):
    """Sample-count weighted averaging (FedAvg, Eq. 4)."""

    name = "fedavg"

    def aggregate(self, states, weights, context=None):
        del context
        return fedavg_aggregate(states, weights)

    def begin_stream(self, weights, context=None):
        del context
        return StreamingAggregate(weights)
