"""Execution backends: how local client epochs are driven each round.

The federated training loop is backend-agnostic: every round the trainer
hands the selected participants to an :class:`ExecutionBackend`, which runs
their local epochs and returns one mean training loss per participant.  All
backends leave each participant's observable training trajectory (losses,
weights, evaluation) exactly where serial execution would, so aggregation,
history and evaluation are backend-independent (equivalence-tested in
``tests/test_engine.py``).

Built-ins:

* :class:`SerialBackend` — the reference ``for client in participants`` loop;
* :class:`ProcessPoolBackend` — **persistent workers with resident clients**:
  each worker receives its sharded clients once (bootstrap), keeps their
  optimizer moments and RNG streams resident for the whole run, and per round
  exchanges only broadcast weights down / lossless parameter deltas up (see
  :mod:`~repro.federated.engine.persistent`).  Workers may fuse their
  resident shard through the batched engine (``intra_worker="auto"``);
* :class:`~repro.federated.engine.batched.BatchedBackend` — stacks
  homogeneous-architecture clients into one batched autograd graph
  (registered lazily to avoid import cycles).
"""

from __future__ import annotations

import copy
import inspect
import os
import pickle
import time
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from repro.federated.communication import CommunicationTracker
from repro.federated.engine.config import EngineConfig
from repro.federated.engine.faults import (
    DOWNLINK_KINDS,
    NETWORK_KINDS,
    TRANSPORT_KINDS,
    WORKER_KINDS,
    payload_checksum,
)
from repro.federated.engine.persistent import (
    FOLD_MARKER,
    STACK_MARKER,
    TOPK_MARKER,
    BroadcastCorrupted,
    PersistentWorkerPool,
    WorkerCrash,
    WorkerError,
    apply_stacked_delta,
    apply_state_delta,
    apply_topk_delta,
    encode_state_delta,
)
from repro.federated.engine.transport import make_transport

#: Upper bound, in pickled bytes, on the clients one ``adopt`` frame carries
#: (a client larger than this ships alone).  Bootstrap and crash re-adopt
#: ship a worker's clients frame by frame, pickling each frame's clients
#: only when the previous frame is acknowledged, so the coordinator builds,
#: and a worker receives, one frame at a time.
ADOPT_FRAME_BYTES = 1 << 20


# ----------------------------------------------------------------------
# Client state snapshots (used to move training state across processes)
# ----------------------------------------------------------------------
def _iter_submodules(module):
    yield module
    for child in module._modules.values():
        yield from _iter_submodules(child)


def _module_rngs(model) -> List[np.random.Generator]:
    """Every per-module RNG (dropout streams, ...) in deterministic order."""
    rngs = []
    for submodule in _iter_submodules(model):
        rng = getattr(submodule, "_rng", None)
        if isinstance(rng, np.random.Generator):
            rngs.append(rng)
    return rngs


def snapshot_client_state(client, include_weights: bool = True) -> Dict:
    """Everything local training mutates: weights, optimizer, RNG streams.

    ``include_weights=False`` snapshots only the optimizer moments and RNG
    streams — the payload the persistent pool's eviction / close-time sync
    actually consumes (the coordinator mirror already holds newer weights),
    keeping the dominant share of the state off the pipe.
    """
    optimizer_state = {
        key: copy.deepcopy(value)
        for key, value in client.optimizer.__dict__.items()
        if key != "parameters"
    }
    snapshot = {
        "optimizer": optimizer_state,
        "rng_states": [rng.bit_generator.state
                       for rng in _module_rngs(client.model)],
    }
    if include_weights:
        snapshot["weights"] = client.get_weights()
    return snapshot


def restore_client_state(client, snapshot: Dict,
                         include_weights: bool = True) -> None:
    """Apply a :func:`snapshot_client_state` payload to an in-process client.

    ``include_weights=False`` restores only the *worker-owned* mutable state
    (optimizer moments and RNG streams) — used when the coordinator's mirror
    already holds newer weights than the snapshot (e.g. a post-round
    broadcast landed after the snapshot was taken).
    """
    if include_weights:
        client.set_weights(snapshot["weights"])
    client.optimizer.__dict__.update(snapshot["optimizer"])
    for rng, state in zip(_module_rngs(client.model), snapshot["rng_states"]):
        rng.bit_generator.state = state
    # A restore is an out-of-band mutation as far as the prediction cache is
    # concerned: callers may have written parameters around ``set_weights``
    # (pool rehydration, checkpoint/snapshot loads), and even the
    # ``include_weights=False`` path can follow direct model pokes.  Always
    # drop the cache instead of trusting the version key.
    client.invalidate_cache()


def _states_equal(a: Dict[str, np.ndarray], b: Dict[str, np.ndarray]) -> bool:
    """Bitwise equality of two weight state dicts."""
    if a.keys() != b.keys():
        return False
    return all(np.array_equal(a[key], b[key]) for key in a)


def _corrupt_payload(payload) -> bool:
    """Flip the first array element found in a delta payload (fault inject).

    Simulates in-transit corruption: mutates one element of the first
    ndarray reachable in the nested payload so the checksum the worker
    stamped no longer matches.  Returns True when something was mutated.
    """
    if isinstance(payload, np.ndarray):
        if payload.size == 0 or not payload.flags.writeable:
            return False
        flat = payload.reshape(-1)
        if payload.dtype.kind in "iu":
            flat[:1] = flat[:1] ^ 1 if payload.dtype.kind == "u" \
                else flat[:1] + 1
        elif payload.dtype.kind == "f":
            flat[:1] = flat[:1] + 1.0
        else:
            return False
        return True
    if isinstance(payload, dict):
        return any(_corrupt_payload(value) for value in payload.values())
    if isinstance(payload, (tuple, list)):
        return any(_corrupt_payload(item) for item in payload)
    return False


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------
class ExecutionBackend:
    """Drives the local-training phase of each federated round.

    The round loop speaks one protocol to every backend: ``dispatch_round``
    → ``run_local_side`` → (collect while anything is outstanding) →
    ``finish_round``.  The defaults here are its depth-0 form — the whole
    cohort trains in-process through :meth:`run_local_training`, the one
    method an in-process backend implements.
    """

    name = "base"

    #: True when rounds leave shards outstanding on workers (see
    #: ProcessPoolBackend): the sync loop can then overlap coordinator work
    #: with their training, and the async loop can run at all.
    supports_pipelining = False

    #: True when a round trains from the broadcast states the sync loop
    #: hands :meth:`dispatch_round` and reports the trained states in
    #: ``pending.states`` (the pool, the batched plan's resident stacks),
    #: so the loop can also evaluate those states in one fused sweep.  The
    #: serial oracle reads and writes the mirrors, one client at a time.
    takes_broadcast = False

    #: True when workers fold their shard and ship one partial per shard
    hierarchical = False

    trainer = None

    def bind(self, trainer) -> None:
        """Attach to the owning trainer (called once, before any round)."""
        self.trainer = trainer

    def run_local_training(self, participants: Sequence) -> List[float]:
        """Train every participant locally; return per-participant losses."""
        raise NotImplementedError

    def dispatch_round(self, participants, states=None,
                       fold_weights=None) -> "PendingRound":
        """Open a round: nothing leaves the process, all of it is local.

        ``states`` (client id → broadcast state) is kept in
        ``pending.sent`` for a backend that :attr:`takes_broadcast`."""
        pending = PendingRound(list(participants))
        pending.local_side = pending.participants
        if states is not None:
            pending.sent = {client.client_id: states[client.client_id]
                            for client in pending.participants}
        return pending

    def run_local_side(self, pending: "PendingRound") -> None:
        """Train the coordinator-resident clients of the round."""
        losses = self.run_local_training(pending.local_side)
        for client, loss in zip(pending.local_side, losses):
            pending.losses[client.client_id] = loss

    def finish_round(self, pending: "PendingRound",
                     apply_states: bool = True) -> List[float]:
        """Close out the round; reporters' losses in participant order.

        Writes the trained states the round reported (``pending.states``)
        into their mirrors, unless ``apply_states=False``: for a caller
        that read them where they are and overwrites every mirror with the
        next broadcast before anything reads one.
        """
        if apply_states:
            for cid, state in pending.states.items():
                pending.mirrors[cid].set_weights(state)
        # Dropped clients (timeouts, lost crash shards) have no loss entry;
        # the round loop reweights the aggregate over the actual reporters.
        return [pending.losses[client.client_id]
                for client in pending.participants
                if client.client_id in pending.losses]

    def sync_for_checkpoint(self) -> None:
        """Bring coordinator-side client state up to date for a checkpoint.

        In-process backends are always current; the persistent pool pulls
        worker-resident optimizer/RNG state back into the mirrors.
        """

    def end_run(self) -> None:
        """Settle what a run's rounds left behind (called once per run)."""

    def close(self) -> None:
        """Release backend resources (worker pools, cached plans)."""


class SerialBackend(ExecutionBackend):
    """Reference implementation: clients train one after another."""

    name = "serial"

    def run_local_training(self, participants):
        return [client.local_train() for client in participants]


class PendingRound:
    """Handle for one dispatched-but-not-finished round.

    Created by :meth:`ExecutionBackend.dispatch_round`; the round loop then
    trains ``local_side`` through :meth:`~ExecutionBackend.run_local_side`,
    pumps :meth:`~ProcessPoolBackend.collect_next` /
    :meth:`~ProcessPoolBackend.collect_worker` until ``outstanding`` is empty
    and settles with :meth:`~ExecutionBackend.finish_round`.  An in-process
    backend's round is all ``local_side`` and never has anything outstanding.
    """

    def __init__(self, participants: List):
        #: the round's participants, in selection (client-id) order
        self.participants = participants
        #: client_id → coordinator mirror client
        self.mirrors = {c.client_id: c for c in participants}
        #: worker → the shard (client ids) whose reply it owes; a second
        #: shard for a busy worker waits in the backend's queue
        self.groups: Dict[int, List[int]] = {}
        #: client ids dropped from this round (timed-out shards, lost
        #: crash shards under a non-``fail`` policy)
        self.dropped: Set[int] = set()
        #: client_id → broadcast state the worker trained from (delta base)
        self.sent: Dict[int, Dict[str, np.ndarray]] = {}
        #: coordinator-resident clients (non-poolable)
        self.local_side: List = []
        #: client_id → mean local-training loss
        self.losses: Dict[int, float] = {}
        #: client_id → trained state reconstructed from the upload delta;
        #: applied to the mirrors by ``finish_round`` (deferring the apply
        #: lets the sync loop, at depth 1, evaluate the *previous* round —
        #: mirrors still at broadcast state — while stragglers finish)
        self.states: Dict[int, Dict[str, np.ndarray]] = {}
        #: client_id → wall seconds its shard (or its own in-process train
        #: call) spent on local epochs this round — the sync loop's
        #: per-client straggler profile (``TrainingHistory.client_round_sec``);
        #: in-process backends record none
        self.round_sec: Dict[int, float] = {}
        #: client_id → normalized aggregation weight shipped with the shard
        #: (hierarchical rounds only); kept on the pending handle so crash
        #: re-dispatch sends the exact same coefficients
        self.fold_weights: Optional[Dict[int, float]] = None
        #: hierarchical rounds: ``(client_ids, fixed-point partial)`` edge
        #: aggregates, one per worker shard, awaiting a coordinator merge
        self.partials: List = []

    @property
    def outstanding(self):
        """Workers whose shard report has not been absorbed yet."""
        return self.groups.keys()

    def take_partials(self) -> List:
        """Drain the edge-aggregated partial sums collected so far."""
        drained, self.partials = self.partials, []
        return drained


class ProcessPoolBackend(ExecutionBackend):
    """Persistent-worker local training: resident clients, delta-only IPC.

    Clients are sharded deterministically over the workers
    (``client_id % num_workers``) and each picklable client is shipped to its
    owning worker exactly once.  The worker keeps the authoritative optimizer
    moments and RNG streams for the whole run; every round the coordinator
    sends the participant's current weights down and receives ``(loss,
    lossless bit-pattern parameter delta, message stats)`` back, so the
    in-process mirror reconstructs the worker's weights bit for bit.

    ``intra_worker`` selects how a worker trains its resident shard:
    ``"serial"`` uses the per-client reference loop, making the training
    history **bitwise-identical** to serial execution;
    ``"auto"`` (the default) fuses the shard into one autograd graph via
    the batched engine when possible (falling back to the per-client
    loop), inheriting that engine's equivalence guarantee —
    histories match serial within the batched tolerance (identical in
    practice at benchmark scale, see ``BENCH_step1.json``; low-order float
    bits may differ on fused shards).

    Clients carrying a non-picklable ``extra_loss`` closure (e.g. FedGL's
    pseudo-label term) stay coordinator-resident and train in-process; a
    client whose hook appears *mid-run* is evicted from its worker first
    (optimizer + RNG state pulled back), so the serial history is still
    reconstructed exactly.

    Simulator IPC volume is tracked separately from the logical federated
    traffic in :attr:`transport` (kinds: ``bootstrap_payload``,
    ``broadcast_weights``, ``parameter_delta``; float-value units, bootstrap
    counted as pickled bytes / 8).
    """

    name = "process_pool"

    #: shards train on workers while the coordinator does something else
    supports_pipelining = True
    takes_broadcast = True

    def __init__(self, num_workers: Optional[int] = None, **knobs):
        # ``knobs`` are EngineConfig fields (a trainer passes them all; the
        # ones that shape the round loop rather than the pool are ignored
        # here).  Their value domains, and the combinations the pool cannot
        # run, are checked in one place.
        #: the validated knobs; read where they apply (``transport`` /
        #: ``transport_options`` when a pool is spawned, the codec, shard
        #: mode, fault plan and crash policy on every dispatch)
        self.config = EngineConfig(num_workers=num_workers or 0,
                                   **knobs).validate()
        self.num_workers = num_workers
        #: edge-aggregation mode: workers fold their shard's trained states
        #: locally and ship one (weighted-sum, weight) partial per shard
        self.hierarchical = bool(self.config.hierarchical)
        #: counters of every supervised failure/recovery event this backend
        #: has seen (crashes, restarts, redistributed clients, timed-out
        #: shards, corrupted-payload retries, dropped client reports)
        self.fault_stats: Dict[str, int] = {
            "crashes": 0, "restarts": 0, "redistributed_clients": 0,
            "timeouts": 0, "retries": 0, "dropped_reports": 0,
            "broadcast_retries": 0, "network_faults": 0}
        self.transport = CommunicationTracker()
        #: cumulative worker-reported busy seconds (training + simulated
        #: slowdown), indexed by worker — the utilization metric's numerator
        self.busy_sec: Dict[int, float] = {}
        #: summary dict written by the last round loop that overlapped
        #: (sync at depth 1) or ran asynchronously
        self.last_pipeline_stats: Optional[Dict] = None
        self._pool: Optional[PersistentWorkerPool] = None
        self._owner: Dict[int, int] = {}   # client_id → owning worker
        self._local: Set[int] = set()      # coordinator-resident client ids
        #: client_id → weight-free recovery snapshot (optimizer moments +
        #: RNG streams) of the worker-side state at the client's last
        #: completed round; used to re-bootstrap residents after a crash
        self._recovery: Dict[int, Dict] = {}
        #: worker → train dispatches sent so far (fault-plan addressing)
        self._dispatch_count: Dict[int, int] = {}
        #: worker → ``[transit events, checksum, clean train args,
        #: retried]`` of the train reply it owes: the transport faults to
        #: apply when the reply lands, and the downlink-recovery cache a
        #: checksum-rejecting worker is re-served from
        self._in_flight: Dict[int, List] = {}
        #: workers whose owed reply is a stale (timed-out) train reply; a
        #: lagging worker is excluded from dispatch until it is drained
        self._lagging: Set[int] = set()
        #: worker → commands waiting for its owed reply to be read, in
        #: order: ``("adopt", mirror clients)`` (pickled when sent) and
        #: ``("train", client ids)``
        self._waiting: Dict[int, List[Tuple[str, object]]] = {}

    # ------------------------------------------------------------------
    def worker_speed(self, worker: int) -> float:
        """Simulated relative speed of a worker (1.0 = full speed)."""
        speeds = self.config.worker_speeds
        return float(speeds[worker % len(speeds)]) if speeds else 1.0

    # ------------------------------------------------------------------
    def _worker_count(self) -> int:
        return max(1, self.num_workers or os.cpu_count() or 1)

    def ensure_pool(self) -> PersistentWorkerPool:
        """Spawn (or respawn after ``close``) the persistent worker team."""
        if self._pool is None or self._pool.closed:
            self._pool = PersistentWorkerPool(
                self._worker_count(),
                transport=make_transport(self.config.transport,
                                         self.config.transport_options))
            self._owner.clear()
            self._local.clear()
            self._recovery.clear()
            self._dispatch_count.clear()
            self._in_flight.clear()
            self._lagging.clear()
            self._waiting.clear()
        return self._pool

    def owner_of(self, client_id: int) -> Optional[int]:
        """Worker index holding this client resident (None if in-process)."""
        return self._owner.get(client_id)

    # ------------------------------------------------------------------
    def _assign_worker(self, cid: int) -> int:
        """Deterministic owner for a new resident client.

        Uniform worker speeds keep the classic ``cid % W`` round-robin.
        Simulated heterogeneous speeds apportion by capacity instead: each
        new client goes to the worker with the lowest projected load
        ``(assigned + 1) / speed`` (ties to the lower index), so a slow
        worker holds a proportionally smaller shard and shard completion
        times line up instead of the slow worker stretching every round.
        """
        workers = self._pool.alive_workers
        speeds = {worker: self.worker_speed(worker) for worker in workers}
        if len(set(speeds.values())) == 1:
            return workers[cid % len(workers)]
        counts = {worker: 0 for worker in workers}
        for owner in self._owner.values():
            if owner in counts:
                counts[owner] += 1
        return min(workers,
                   key=lambda w: ((counts[w] + 1) / speeds[w], w))

    def _bootstrap(self, clients: Sequence) -> List:
        """Make not-yet-resident clients resident; return the pooled.

        Assigns each new client its owner and queues it there as an
        ``adopt``; :meth:`_drain` pickles and ships it, at once to an idle
        worker, after its stale reply to a lagging one.  A client that
        cannot be pickled becomes coordinator-resident.  Returns the subset
        of ``clients`` that is worker-resident after the call.
        """
        batches: Dict[int, List] = {}
        for client in clients:
            cid = client.client_id
            if cid in self._owner:
                continue
            worker = self._assign_worker(cid)
            batches.setdefault(worker, []).append(client)
            self._owner[cid] = worker
            if self.config.on_worker_failure != "fail":
                # Baseline recovery snapshot: the worker-owned state (moments
                # + RNG streams) the client ships out with, so a crash before
                # its first train reply can still re-bootstrap it exactly.
                self._recovery[cid] = snapshot_client_state(
                    client, include_weights=False)
        for worker, batch in batches.items():
            self._waiting.setdefault(worker, []).append(("adopt", batch))
            self._drain(None, worker)
        return [client for client in clients
                if client.client_id in self._owner]

    def _adopt(self, pending: Optional["PendingRound"], worker: int,
               clients: Sequence) -> None:
        """Pickle ``clients`` and ship them to ``worker`` in bounded frames.

        Each ``adopt`` frame carries at most :data:`ADOPT_FRAME_BYTES` of
        pickles (a larger client ships alone), and a frame's pickles are
        made only once the previous frame is acknowledged, so the
        coordinator holds — and the worker receives — one frame at a time.
        A client that fails to pickle becomes coordinator-resident; a
        waiting shard that listed it drops it from ``pending``.
        """
        frame: List[Tuple[int, bytes]] = []
        size = 0
        for client in clients:
            cid = client.client_id
            try:
                blob = pickle.dumps(client, protocol=pickle.HIGHEST_PROTOCOL)
            except Exception:
                self._make_local(pending, worker, cid)
                continue
            if frame and size + len(blob) > ADOPT_FRAME_BYTES:
                self._pool.call(worker, "adopt", frame)
                frame, size = [], 0
            frame.append((cid, blob))
            size += len(blob)
            self.transport.record_download("bootstrap_payload",
                                           len(blob) / 8.0)
        if frame:
            self._pool.call(worker, "adopt", frame)

    def _make_local(self, pending: Optional["PendingRound"], worker: int,
                    cid: int) -> None:
        """Keep a client that cannot be shipped to ``worker`` in-process."""
        self._owner.pop(cid, None)
        self._recovery.pop(cid, None)
        self._local.add(cid)
        for command, ids in self._waiting.get(worker, []):
            if command == "train" and cid in ids:
                ids.remove(cid)
                if pending is not None:
                    pending.dropped.add(cid)
                self.fault_stats["dropped_reports"] += 1

    def _evict(self, client) -> None:
        """Move a worker-resident client back in-process (exactly).

        The mirror's weights are newer than the worker's (they include the
        last broadcast), so only the worker-owned optimizer moments and RNG
        streams are adopted.
        """
        worker = self._owner.pop(client.client_id)
        snapshot = self._pool.call(worker, "fetch",
                                   (client.client_id, True, False))
        restore_client_state(client, snapshot, include_weights=False)
        self._local.add(client.client_id)

    # ------------------------------------------------------------------
    # Round protocol: dispatch → (local side) → collect* → finish
    #
    # ``run_local_training`` composes these into the classic barrier round;
    # the round loops (repro.federated.engine.pipeline) drive them directly
    # so aggregation, evaluation and the next round's broadcast can overlap
    # worker compute.
    # ------------------------------------------------------------------
    def dispatch_round(self, participants,
                       states: Optional[Dict[int, Dict[str, np.ndarray]]]
                       = None,
                       fold_weights: Optional[Dict[int, float]] = None
                       ) -> "PendingRound":
        """Partition the participants and start their worker-side training.

        Ships the (deduplicated) per-client broadcast states — read from the
        coordinator mirrors, which hold the post-broadcast weights — to each
        owning worker and returns a :class:`PendingRound` handle; nothing is
        received yet.  Clients that cannot be pooled (non-picklable
        ``extra_loss`` hooks, or a sub-2-participant round with no pool
        alive) are left on ``pending.local_side`` for the coordinator.

        ``states`` optionally maps ``client_id`` to the exact state the
        caller just broadcast (the sync loop, at depth 1, hands back what
        ``personalize`` returned), skipping one full-parameter copy per
        client and letting the dedup recognise shared dicts by identity.

        ``fold_weights`` (hierarchical rounds) maps ``client_id`` to its
        normalized aggregation coefficient; each worker folds its shard's
        trained states with those exact coefficients and replies with one
        fixed-point partial sum instead of per-client deltas.
        """
        pending = PendingRound(list(participants))
        pending.fold_weights = dict(fold_weights) \
            if fold_weights is not None else None
        if self._pool is None and len(participants) < 2:
            pending.local_side = list(participants)
            return pending

        local_side, candidates = [], []
        for client in participants:
            cid = client.client_id
            if cid in self._local:
                local_side.append(client)
            elif client.extra_loss is not None:
                if cid in self._owner:
                    # _owner is only populated while a pool is alive.
                    self._evict(client)
                else:
                    self._local.add(cid)
                local_side.append(client)
            else:
                candidates.append(client)
        pending.local_side = local_side
        if not candidates:
            # Nothing poolable (e.g. FedGL hooks every client): train
            # in-process without ever spawning workers (zero-IPC round).
            return pending
        self.ensure_pool()
        # Rejoin lagging workers whose stale (timed-out) replies have landed
        # since the last round; clients owned by a still-lagging worker
        # cannot train this round and are dropped from it.
        self.poll_lagging()
        pooled = self._bootstrap(candidates)
        pooled_ids = {client.client_id for client in pooled}
        local_side.extend(c for c in candidates
                          if c.client_id not in pooled_ids)

        groups: Dict[int, List[int]] = {}
        unique: List[Dict[str, np.ndarray]] = []
        assign: Dict[int, int] = {}
        # id(state dict) → unique index.  Only safe with caller-supplied
        # ``states``: those dicts stay alive in the caller's map for the
        # whole loop, so ids cannot be recycled (a fresh ``get_weights``
        # dict that value-matched and was dropped could donate its id to
        # the next fresh dict).
        by_identity: Optional[Dict[int, int]] = \
            {} if states is not None else None
        for client in pooled:
            cid = client.client_id
            owner = self._owner[cid]
            if owner in self._lagging:
                # The owner still owes a stale reply from a timed-out round;
                # dispatching to it would interleave fresh and stale shards.
                pending.dropped.add(cid)
                self.fault_stats["dropped_reports"] += 1
                continue
            groups.setdefault(owner, []).append(cid)
            state = states[cid] if states is not None \
                else client.get_weights()
            # Broadcast dedup: after plain FedAvg every participant holds
            # the identical global state (one unique entry, one comparison
            # per client); clustered personalization (e.g. GCFL+) dedups to
            # one entry per cluster.  When the caller supplied the broadcast
            # states, clients sharing one personalize result hit the
            # identity map without touching array contents; array_equal
            # exits on the first differing element, so even the
            # all-distinct worst case stays cheap.
            if by_identity is not None:
                known = by_identity.get(id(state))
                if known is not None:
                    assign[cid] = known
                    pending.sent[cid] = unique[known]
                    continue
            for index, candidate in enumerate(unique):
                if _states_equal(candidate, state):
                    assign[cid] = index
                    pending.sent[cid] = candidate
                    break
            else:
                unique.append(state)
                assign[cid] = len(unique) - 1
                pending.sent[cid] = state
            if by_identity is not None:
                by_identity[id(state)] = assign[cid]
        for worker, ids in sorted(groups.items()):
            # A worker that took over a crashed worker's shard earlier in
            # this loop is busy: its own shard waits behind that one.
            self._waiting.setdefault(worker, []).append(("train", ids))
            self._drain(pending, worker)
        return pending

    def _drain(self, pending: Optional["PendingRound"], worker: int) -> None:
        """Send ``worker``'s waiting commands, in order, while it owes none.

        An adopt is pickled here and sent one ``call`` per frame (each
        frame's ack is read at once, see :meth:`_adopt`); a shard becomes
        the worker's owed ``train``, so draining stops behind it.  Only the
        round that owes ``worker`` a shard reply queues shards there, so
        ``pending`` is the round every waiting shard belongs to.  A worker
        found dead runs the crash policy, which takes over its queue.
        """
        waiting = self._waiting.get(worker, [])
        while waiting and self._pool.owed(worker) is None:
            command, payload = waiting.pop(0)
            try:
                if command == "adopt":
                    self._adopt(pending, worker, payload)
                else:
                    self._send_shard(pending, worker, payload)
            except WorkerCrash as error:
                self._handle_crash(
                    pending, worker, error,
                    extra_shard=payload if command == "train" else None)
                return
        if not waiting:
            self._waiting.pop(worker, None)

    def _send_shard(self, pending: "PendingRound", worker: int,
                    ids: Sequence[int]) -> None:
        """Ship one shard's ``train`` command (dedup by state identity).

        Records the shard as the worker's owed reply (``pending.groups``)
        and any fault-plan events addressed to this dispatch: worker-side
        kinds (crash/stall) ride along in the payload, transport kinds
        (corrupt/drop) are kept coordinator-side and applied when the reply
        arrives.  Called through :meth:`_drain`, for a worker that owes
        nothing.
        """
        unique: List[Dict[str, np.ndarray]] = []
        assign: Dict[int, int] = {}
        for cid in ids:
            state = pending.sent[cid]
            for index, candidate in enumerate(unique):
                if candidate is state:
                    assign[cid] = index
                    break
            else:
                unique.append(state)
                assign[cid] = len(unique) - 1
        dispatch_no = self._dispatch_count.get(worker, 0) + 1
        self._dispatch_count[worker] = dispatch_no
        fault = None
        transit: List = []
        corrupt_down = False
        config, plan = self.config, self.config.fault_plan
        if plan is not None:
            worker_events = plan.take(worker, dispatch_no, WORKER_KINDS)
            if worker_events:
                event = worker_events[0]
                fault = {"kind": event.kind, "duration": event.duration}
            transit = plan.take(worker, dispatch_no, TRANSPORT_KINDS)
            corrupt_down = bool(plan.take(worker, dispatch_no,
                                          DOWNLINK_KINDS))
            for event in plan.take(worker, dispatch_no, NETWORK_KINDS):
                self._pool.inject_network_fault(worker, event.kind,
                                                event.duration)
                self.fault_stats["network_faults"] += 1
        codec = (config.delta_codec, config.delta_top_k,
                 int(config.delta_bits))
        slowdown = max(1.0, 1.0 / self.worker_speed(worker))
        fold = None
        if pending.fold_weights is not None:
            fold = {cid: pending.fold_weights[cid] for cid in ids}
        # One integrity pass per hop: a channel that CRC-checks its frames
        # already verified the upload, so the worker stamps a checksum for
        # the coordinator to re-compute only where nothing else would (the
        # pipe) or where this reply is scheduled to be damaged after the
        # channel delivered it.
        stamp = bool(transit) or not self._pool.transport.verifies_frames
        args = (list(ids), unique, assign, config.intra_worker,
                codec, slowdown, fault,
                config.on_worker_failure != "fail", fold, stamp)
        crc = payload_checksum(args)
        shipped = args
        if corrupt_down:
            # Damage a *copy*: the unique states are the live coordinator
            # mirrors, and the retry must re-serve the clean broadcast.
            shipped = copy.deepcopy(args)
            _corrupt_payload(shipped)
        self._pool.send(worker, "train", (crc, shipped))
        self._in_flight[worker] = [transit, crc, args, False]
        pending.groups[worker] = list(ids)
        self.transport.record_download(
            "broadcast_weights",
            sum(v.size for state in unique for v in state.values()))

    def run_local_side(self, pending: "PendingRound") -> None:
        """Train the coordinator-resident clients (while workers run)."""
        for client in pending.local_side:
            start = time.perf_counter()
            pending.losses[client.client_id] = client.local_train()
            pending.round_sec[client.client_id] = \
                time.perf_counter() - start

    def collect_worker(self, pending: "PendingRound", worker: int,
                       redispatch: bool = True) -> List[int]:
        """Absorb one worker's shard report: reconstruct states, account IPC.

        Returns the client ids the report covered.  Trained weights are
        rebuilt from the upload delta (bit-exact under the ``bitdelta``
        codec) into ``pending.states``; the mirrors themselves are only
        written by :meth:`finish_round`, so a caller overlapping the
        previous round's evaluation with straggler collection still sees
        the mirrors at their broadcast state.

        Failure handling: a corrupted/dropped payload (checksum mismatch)
        is retried once via the worker's cached reply; a dead worker runs
        the ``on_worker_failure`` policy and — under ``redispatch=True``,
        the sync discipline — its lost shards are re-sent to recovered
        owners (the call then returns ``[]`` and the caller keeps pumping
        ``pending.outstanding``).  ``redispatch=False`` (the async
        discipline) marks the lost shard dropped instead.  Once the report
        is absorbed the worker's waiting commands are sent
        (:meth:`_drain`); a waiting shard keeps the worker outstanding.
        """
        if worker not in pending.outstanding:
            raise ValueError(f"worker {worker} has no outstanding shard")
        try:
            reply = self._verify_reply(pending, worker,
                                       self._pool.recv(worker))
        except BroadcastCorrupted:
            # The worker refused a damaged broadcast without training —
            # re-serve the cached clean payload once (the shard stays
            # outstanding, its in-flight entry in place).
            self._resend_broadcast(worker)
            return []
        except WorkerCrash as error:
            self._handle_crash(pending, worker, error, redispatch=redispatch)
            return []
        if reply is None:
            # The worker died while its cached reply was being re-requested;
            # _verify_reply already ran the recovery policy.
            return []
        worker_losses, deltas, stats = reply
        ids = pending.groups.pop(worker)
        if "snapshots" in stats:
            # Freshest worker-side optimizer/RNG state per shard client —
            # the baseline a future crash recovery restores from.
            self._recovery.update(stats["snapshots"])
        if FOLD_MARKER in deltas:
            # Hierarchical round: the worker already folded its shard with
            # the coordinator-supplied coefficients; absorb one fixed-point
            # partial (no per-client states to reconstruct).
            fold_ids, partial = deltas[FOLD_MARKER]
            pending.partials.append((list(fold_ids), partial))
            for cid in fold_ids:
                pending.losses[cid] = worker_losses[cid]
        elif STACK_MARKER in deltas:
            # Whole-shard stacked bit delta (resident worker plan): one
            # vectorised reconstruction in the buffer the delta arrived in,
            # per-client states are views.
            stack_ids, stacked = deltas[STACK_MARKER]
            rebuilt = apply_stacked_delta(
                [pending.sent[cid] for cid in stack_ids], stacked,
                out=stacked)
            for cid, state in zip(stack_ids, rebuilt):
                pending.states[cid] = state
                pending.losses[cid] = worker_losses[cid]
        else:
            for cid in ids:
                delta = deltas[cid]
                if TOPK_MARKER in delta:
                    state = apply_topk_delta(pending.sent[cid],
                                             delta[TOPK_MARKER])
                else:
                    state = apply_state_delta(pending.sent[cid], delta)
                pending.states[cid] = state
                pending.losses[cid] = worker_losses[cid]
        self.transport.record_upload("parameter_delta",
                                     stats["delta_values"])
        self.busy_sec[worker] = self.busy_sec.get(worker, 0.0) \
            + stats.get("busy_sec", 0.0)
        # Every shard member shares its shard's wall time — the resolution
        # the straggler profile actually has (shards train as one unit).
        for cid in ids:
            pending.round_sec[cid] = stats.get("busy_sec", 0.0)
        self._drain(pending, worker)
        return ids

    def _verify_reply(self, pending: "PendingRound", worker: int, reply):
        """Checksum-verify a shard reply; retry once from the worker cache.

        Applies this reply's scheduled transport faults first (payload
        corruption / payload drop), then compares the coordinator-side
        checksum of the delta payload against the one the worker stamped.
        On mismatch the worker's cached last reply is requested once
        (``resend``); a second mismatch is a hard :class:`WorkerError`.
        Returns the verified reply, or ``None`` when the worker died during
        the resend (recovery already ran).  Raises :class:`WorkerCrash`
        through to the caller only when it happens on the *first* receive
        (i.e. the caller's own ``recv``), never from here.
        """
        transit = self._in_flight.pop(worker)[0]
        kinds = {event.kind for event in transit}
        damaged = False
        if "drop" in kinds:
            damaged = True           # payload lost in transit entirely
        elif "corrupt" in kinds:
            _corrupt_payload(reply[1])
        # A reply the worker did not stamp has nothing to compare against.
        stamped = reply[2].get("checksum")
        if damaged or (stamped is not None
                       and payload_checksum(reply[1]) != stamped):
            self.fault_stats["retries"] += 1
            try:
                # Nothing is queued behind the reply just read, so the
                # worker's cached ``last_train`` is that reply.
                self._pool.send(worker, "resend")
                reply = self._pool.recv(worker)
            except WorkerCrash as error:
                self._handle_crash(pending, worker, error)
                return None
            if payload_checksum(reply[1]) != reply[2].get("checksum"):
                raise WorkerError(
                    f"worker {worker} delta payload failed checksum "
                    "verification twice (corruption persisted across the "
                    "retry)", worker=worker, command="resend")
        return reply

    def _resend_broadcast(self, worker: int) -> None:
        """Re-serve the cached clean train broadcast (once).

        The mirror image of the uplink resend path: the worker rejected a
        checksum-failed downlink payload without executing it, so the same
        dispatch is re-sent from the coordinator's clean cache — without
        re-counting the dispatch or re-queueing transit faults (the shard's
        in-flight entry is still in place).  A second rejection of the same
        shard is a hard :class:`WorkerError` (the corruption persisted
        across the retry).
        """
        entry = self._in_flight[worker]
        _events, crc, args, retried = entry
        if retried:
            raise WorkerError(
                f"worker {worker} rejected the train broadcast twice "
                "(downlink corruption persisted across the retry)",
                worker=worker, command="train")
        entry[3] = True
        self.fault_stats["broadcast_retries"] += 1
        self._pool.send(worker, "train", (crc, args))

    def collect_next(self, pending: "PendingRound",
                     timeout: Optional[float] = None) -> List[int]:
        """Absorb whichever outstanding shard finishes first (as-completed).

        ``timeout`` (seconds) bounds the wait; on expiry an empty list is
        returned with ``pending.outstanding`` untouched — the round loop
        decides whether to keep waiting or invoke
        :meth:`timeout_outstanding`.  May also return an empty list when a
        crash was recovered (the re-dispatched shard is still outstanding).
        """
        ready = self._pool.wait(sorted(pending.outstanding), timeout=timeout)
        collected: List[int] = []
        for worker in ready:
            if worker in pending.outstanding:   # recovery may change it
                collected.extend(self.collect_worker(pending, worker))
        return collected

    # ------------------------------------------------------------------
    # Crash recovery and round-timeout degradation
    # ------------------------------------------------------------------
    def _handle_crash(self, pending: Optional["PendingRound"], worker: int,
                      error: WorkerCrash, extra_shard: Optional[List[int]]
                      = None, redispatch: bool = True) -> None:
        """Run the ``on_worker_failure`` policy for a dead worker.

        ``"fail"`` re-raises.  ``"restart"`` respawns the worker process in
        its slot; ``"redistribute"`` retires the slot and spreads its
        residents over the survivors.  Either way every lost resident's
        worker-side state (optimizer moments + RNG streams) is rebuilt from
        its coordinator recovery snapshot — taken at its last completed
        round — so the re-adopted client trains exactly as the crashed
        worker would have.  Lost in-flight shards are re-dispatched to the
        recovered owners (sync discipline) or marked dropped
        (``redispatch=False``, the async discipline, where the round loop
        re-enqueues work itself).

        Adopts and re-dispatched shards join their new owner's waiting
        queue: a survivor that still owes a train reply receives them once
        that reply is read (:meth:`collect_worker` / :meth:`poll_lagging`).
        """
        self.fault_stats["crashes"] += 1
        if self.config.on_worker_failure == "fail":
            raise error
        pool = self._pool
        lost_shards: List[List[int]] = []
        if pending is not None and worker in pending.groups:
            lost_shards.append(pending.groups.pop(worker))
        if extra_shard is not None:
            lost_shards.append(list(extra_shard))
        # The dead worker's waiting adopts are remade below from the
        # recovery snapshots; its waiting shards are lost with it.
        lost_shards.extend(ids for command, ids
                           in self._waiting.pop(worker, [])
                           if command == "train")
        self._in_flight.pop(worker, None)
        self._lagging.discard(worker)
        lost_residents = sorted(cid for cid, owner in self._owner.items()
                                if owner == worker)
        mirrors = {}
        if self.trainer is not None:
            mirrors.update({c.client_id: c for c in self.trainer.clients})
        if pending is not None:
            mirrors.update(pending.mirrors)
        for cid in lost_residents:
            del self._owner[cid]
        if self.config.on_worker_failure == "restart":
            pool.respawn(worker)
            self.fault_stats["restarts"] += 1
        else:  # redistribute
            pool.mark_dead(worker)
            if not pool.alive_workers:
                raise WorkerError(
                    "every worker has died; cannot redistribute "
                    f"(last crash: worker {worker})", worker=worker,
                    command=error.command) from error
            self.fault_stats["redistributed_clients"] += len(lost_residents)
        # The crash poisoned the pool defensively; recovery restores a
        # consistent protocol state, so close-time sync is safe again.
        pool.poisoned = False
        adopt_batches: Dict[int, List] = {}
        for cid in lost_residents:
            client = mirrors.get(cid)
            snapshot = self._recovery.get(cid)
            if client is None:
                continue
            if snapshot is not None:
                # Roll the mirror's worker-owned state back to the client's
                # last completed round; its weights already hold the current
                # broadcast, which is exactly the state the crashed worker
                # trained from.
                restore_client_state(client, snapshot,
                                     include_weights=False)
            new_worker = self._assign_worker(cid)
            self._owner[cid] = new_worker
            adopt_batches.setdefault(new_worker, []).append(client)
            self._recovery[cid] = snapshot_client_state(
                client, include_weights=False)
        for new_worker, batch in adopt_batches.items():
            self._waiting.setdefault(new_worker, []).append(("adopt", batch))
        # Re-dispatch (or drop) the shards that died with the worker.
        regrouped: Dict[int, List[int]] = {}
        for shard in lost_shards:
            for cid in shard:
                owner = self._owner.get(cid)
                if owner is None or not redispatch or owner in self._lagging:
                    if pending is not None:
                        pending.dropped.add(cid)
                    self.fault_stats["dropped_reports"] += 1
                else:
                    regrouped.setdefault(owner, []).append(cid)
        for owner, ids in regrouped.items():
            self._waiting.setdefault(owner, []).append(("train", ids))
        for owner in sorted(set(adopt_batches) | set(regrouped)):
            self._drain(pending, owner)

    def timeout_outstanding(self, pending: "PendingRound") -> List[int]:
        """Drop every still-outstanding shard from the round (deadline hit).

        The late workers stay alive but are marked *lagging*: each still
        owes its stale reply, which is drained opportunistically
        (:meth:`poll_lagging`).  A shard still waiting in a late worker's
        queue is dropped unsent.  A lagging worker's residents sit out
        subsequent rounds until it catches up.  Returns the dropped client
        ids.
        """
        return [cid for worker in sorted(pending.outstanding)
                for cid in self.abandon_job(pending, worker)]

    def abandon_job(self, pending: "PendingRound", worker: int) -> List[int]:
        """:meth:`timeout_outstanding` for one worker (the async path's)."""
        dropped = pending.groups.pop(worker, [])
        if dropped:
            self._lagging.add(worker)
        waiting = self._waiting.pop(worker, [])
        dropped.extend(cid for command, ids in waiting if command == "train"
                       for cid in ids)
        adopts = [entry for entry in waiting if entry[0] == "adopt"]
        if adopts:
            self._waiting[worker] = adopts
        self.fault_stats["timeouts"] += 1
        pending.dropped.update(dropped)
        self.fault_stats["dropped_reports"] += len(dropped)
        return dropped

    def poll_lagging(self) -> List[int]:
        """Drain ready stale replies; return the workers that caught up.

        Non-blocking.  A stale reply's training was dropped from its round,
        so its losses and deltas are discarded, but the recovery snapshots
        it carries are still the freshest worker-side state and its busy
        seconds are real compute.  A caught-up worker is then sent its
        waiting adopts.  A worker found dead here runs the crash policy
        (its stale shard was already dropped, so there is nothing to
        re-dispatch).
        """
        caught_up: List[int] = []
        for worker in sorted(self._lagging):
            if not self._pool.poll(worker):
                continue
            try:
                stats = self._pool.recv(worker)[2]
            except BroadcastCorrupted:
                # The rejected broadcast was never trained, and retraining
                # a dropped shard would be wasted work: no resend.
                stats = {}
            except WorkerCrash as error:
                self._handle_crash(None, worker, error)
                continue
            self._lagging.discard(worker)
            del self._in_flight[worker]
            self._recovery.update(stats.get("snapshots", {}))
            self.busy_sec[worker] = self.busy_sec.get(worker, 0.0) \
                + stats.get("busy_sec", 0.0)
            self._drain(None, worker)
            caught_up.append(worker)
        return caught_up

    def worker_ready(self, worker: int,
                     timeout: Optional[float] = None) -> bool:
        """True when ``worker``'s next reply is ready within ``timeout``."""
        return bool(self._pool.wait([worker], timeout=timeout))

    def wait_lagging(self, timeout: Optional[float] = None) -> List[int]:
        """Block (up to ``timeout``) for any lagging worker's stale reply."""
        self._pool.wait(sorted(self._lagging), timeout=timeout)
        return self.poll_lagging()

    def flush_lagging(self, timeout: float = 10.0) -> None:
        """Best-effort drain of all lagging workers (bounded by deadline)."""
        deadline = time.monotonic() + timeout
        while self._lagging and time.monotonic() < deadline:
            self.wait_lagging(timeout=max(
                0.0, min(1.0, deadline - time.monotonic())))

    def end_run(self) -> None:
        # Stale replies of shards dropped at a deadline: drain them so the
        # pool ends the run reply-balanced.
        self.flush_lagging()

    def finish_round(self, pending: "PendingRound",
                     advance_round: bool = True,
                     apply_states: bool = True) -> List[float]:
        """Close out a fully-collected round; losses in participant order.

        Applies the collected worker-trained states to the coordinator
        mirrors — from here on the round looks exactly as if every client
        had trained in-process — unless ``apply_states=False`` (see the
        base method).  ``advance_round=False`` skips the per-round
        IPC tick — the async loop re-dispatches shards many times per server
        round and advances the tracker once per seal instead.
        """
        if pending.outstanding:
            raise RuntimeError(
                f"round not complete: workers {sorted(pending.outstanding)} "
                "still outstanding")
        if advance_round:
            self.transport.next_round()
        return super().finish_round(pending, apply_states)

    def run_local_training(self, participants):
        pending = self.dispatch_round(participants)
        self.run_local_side(pending)
        while pending.outstanding:
            self.collect_next(pending)
        return self.finish_round(pending)

    # ------------------------------------------------------------------
    def _sync_worker_state(self) -> None:
        """Pull optimizer/RNG state of every resident back into the mirrors.

        Called on close so the in-process clients end the run in exactly the
        state serial training would leave them in (weights are already exact
        round by round; moments and RNG streams lived worker-side).
        """
        trainer = self.trainer
        if trainer is None or self._pool is None \
                or not self._pool.safe_for_sync:
            # A failed command — or a coordinator-side abort with replies
            # still in flight — means a fetch_all now could consume a stale
            # train reply as its own result and mask the original error.
            # Skip the best-effort sync entirely.
            return
        mirrors = {c.client_id: c for c in trainer.clients}
        for worker in self._pool.alive_workers:
            try:
                snapshots = self._pool.call(worker, "fetch_all", False)
                for cid, snapshot in snapshots.items():
                    client = mirrors.get(cid)
                    if client is not None:
                        restore_client_state(client, snapshot,
                                             include_weights=False)
            except (WorkerError, OSError, EOFError):
                continue

    def sync_for_checkpoint(self) -> None:
        """Bring the coordinator mirrors to checkpointable state.

        When the pool's protocol is clean, the authoritative worker-side
        optimizer moments and RNG streams are pulled into the mirrors
        (exact).  Otherwise — e.g. a recovery just ran — the best available
        per-client recovery snapshots are applied instead, which is the same
        state a crash recovery would restore from.
        """
        if self.trainer is None or self._pool is None or self._pool.closed:
            return
        if self._pool.safe_for_sync and not self._waiting:
            self._sync_worker_state()
            return
        mirrors = {c.client_id: c for c in self.trainer.clients}
        for cid, snapshot in self._recovery.items():
            client = mirrors.get(cid)
            if client is not None and cid in self._owner:
                restore_client_state(client, snapshot,
                                     include_weights=False)

    def close(self):
        if self._pool is not None and not self._pool.closed:
            try:
                self._sync_worker_state()
            finally:
                self._pool.shutdown()
        self._pool = None
        self._owner.clear()
        self._local.clear()
        self._recovery.clear()
        self._dispatch_count.clear()
        self._in_flight.clear()
        self._lagging.clear()
        self._waiting.clear()


#: name → factory for every built-in backend; factories accept (and may
#: ignore) the shared keyword knobs ``num_workers`` / ``intra_worker``.
BACKEND_REGISTRY: Dict[str, Callable[..., ExecutionBackend]] = {
    SerialBackend.name: lambda num_workers=None, **_: SerialBackend(),
    ProcessPoolBackend.name: ProcessPoolBackend,
}


def register_backend(name: str,
                     factory: Callable[..., ExecutionBackend]) -> None:
    """Register a custom backend factory under ``name``."""
    BACKEND_REGISTRY[name.lower()] = factory


def list_backends() -> List[str]:
    """Names of every registered execution backend."""
    return sorted(BACKEND_REGISTRY)


def make_backend(spec: Union[str, ExecutionBackend, None],
                 num_workers: Optional[int] = None,
                 **options) -> ExecutionBackend:
    """Resolve a backend from a registry name or pass an instance through.

    Extra keyword ``options`` (e.g. ``intra_worker``) are forwarded to the
    factory; knobs a factory's signature does not accept are dropped, so
    externally registered factories with the historical ``num_workers``-only
    signature keep working.
    """
    if spec is None:
        return SerialBackend()
    if isinstance(spec, ExecutionBackend):
        return spec
    key = str(spec).lower()
    if key not in BACKEND_REGISTRY:
        raise KeyError(
            f"unknown execution backend '{spec}'; "
            f"available: {', '.join(list_backends())}")
    factory = BACKEND_REGISTRY[key]
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):  # builtins without introspection
        parameters = None
    if parameters is not None and not any(
            p.kind is inspect.Parameter.VAR_KEYWORD
            for p in parameters.values()):
        options = {name: value for name, value in options.items()
                   if name in parameters}
    return factory(num_workers=num_workers, **options)
