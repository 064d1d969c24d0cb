"""Round execution: the one synchronous round loop, and bounded-staleness async.

A synchronous federated round is select → local-train → upload → aggregate →
broadcast → evaluate.  :class:`SyncRoundLoop` (``round_mode="sync"``) is the
only place that sequence is written; it speaks the dispatch / collect /
finish round protocol of :mod:`~repro.federated.engine.backends` to every
backend and runs at one of two depths, decided once per run from what it can
observe (:attr:`SyncRoundLoop.overlaps`):

* **depth 1** — the backend leaves shards outstanding on workers (the
  process pool) and the trainer keeps the default round hooks.  Shard uploads
  are folded into the running aggregate the moment they arrive
  (:class:`~repro.federated.engine.aggregation.StreamingAggregate`, so merge
  cost overlaps straggler compute), the next dispatch is handed the states
  the last broadcast returned, and a round's evaluation runs — as one fused
  sweep — inside the *next* round's training window.  The fold is
  order-buffered, which keeps the training history **bitwise-identical to
  serial execution** — overlap changes when work happens, never what is
  computed.

* **depth 0** — everything else: the in-process backends, whose rounds never
  have anything outstanding to overlap with, and any trainer overriding
  ``before_round`` / ``after_round`` / ``aggregate``, whose hooks may read or
  write every mirror at the barrier they were written for (FedGL's
  ``after_round`` reads ``client.predict()``).  The round gathers the
  uploads, calls the ``trainer.aggregate`` hook and evaluates at once,
  after ``after_round``.  With no hook overridden, a backend that
  :attr:`~repro.federated.engine.backends.ExecutionBackend.takes_broadcast`
  (``batched``) is still handed the states the last broadcast returned: it
  trains them on resident stacks, the gather reads the trained states
  there, and the evaluation is one fused sweep.  Otherwise dispatch reads
  the mirrors and every client evaluates its own forward — always so on
  ``serial``, the oracle.  On the pool this is still the same body —
  deadline, drop accounting and per-client round times included.

* :class:`AsyncRoundLoop` (``round_mode="async"``) is a different algorithm —
  bounded-staleness asynchronous federated rounds: a worker is re-dispatched
  with the current global model the moment its shard report lands, the
  server seals an aggregate after any ``async_buffer`` shard reports, stale
  reports are merged with the staleness-discounted weight ``w_i / (1 +
  lag_i)`` (reports older than ``staleness_cap`` server rounds are dropped),
  and the global model moves by

  ``x_{s+1} = (1 - η_s) · x_s + η_s · Agg(window)``  with
  ``η_s = Σ_{i ∈ window} w_i/(1+lag_i) / Σ_{all clients} w_j``.

  Worker completion order is driven by a **virtual clock** (shard work units
  divided by the simulated :attr:`worker_speeds`), so an async run is exactly
  reproducible: fixed seed + fixed speeds ⇒ identical histories, per-client
  round lags included (recorded in :attr:`TrainingHistory.client_lag`).
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.federated.engine.aggregation import (
    AggregationContext,
    AggregationStrategy,
)
from repro.federated.engine.config import overrides_hooks
from repro.metrics import count_weighted_mean


def resolve_round_loop(trainer):
    """The round loop of a trainer: one per ``round_mode``, for any backend.

    ``round_mode="sync"`` is one loop at two depths (module docstring); the
    depth is an execution detail, not an algorithm change — histories are
    bitwise-identical either way.  Combinations no loop can serve (async
    without the process pool, hierarchical with overridden hooks, ...) are
    refused before this runs, by
    :func:`~repro.federated.engine.config.check_composition`.
    """
    if trainer.config.round_mode == "async":
        return AsyncRoundLoop(trainer)
    return SyncRoundLoop(trainer)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def _state_size(state: Dict[str, np.ndarray]) -> int:
    return sum(value.size for value in state.values())


def _broadcast(trainer, global_state) -> Dict[int, Dict[str, np.ndarray]]:
    """Personalize + download-account the new global state to every mirror.

    Returns the per-client personalized states so the next round's dispatch
    can reuse them (skipping a full-parameter read-back per client, and —
    when ``personalize`` hands every client the same dict, as plain FedAvg
    does — letting the broadcast dedup work by object identity).
    """
    states: Dict[int, Dict[str, np.ndarray]] = {}
    for client in trainer.clients:
        personalized = trainer.personalize(client, global_state)
        client.set_weights(personalized)
        states[client.client_id] = personalized
        trainer.tracker.record_download("model_parameters",
                                        _state_size(personalized))
    trainer.tracker.next_round()
    return states


def _record_eval(trainer, round_index: int, losses: Sequence[float],
                 per_client_lag: Optional[Dict[int, int]] = None,
                 fused_eval=None,
                 broadcast_states: Optional[Dict[int, Dict[str, np.ndarray]]]
                 = None,
                 per_client_round_sec: Optional[Dict[int, float]] = None
                 ) -> None:
    if fused_eval is not None and broadcast_states is not None:
        # One fused sweep fills every prediction cache; works for uniform
        # and personalized (per-cluster / per-client) broadcasts alike.
        fused_eval.refresh([broadcast_states[client.client_id]
                            for client in fused_eval.clients])
    train_acc = trainer.evaluate("train")
    # Each client's test accuracy once: the weighted mean is
    # ``trainer.evaluate("test")``'s reduction over the same values.
    per_client = {c.client_id: c.evaluate("test") for c in trainer.clients}
    test_acc = count_weighted_mean(
        (per_client[client.client_id], count) for client in trainer.clients
        if (count := int(client.graph.test_mask.sum())))
    # A fully-degraded round (every shard dropped) has no losses to average.
    loss = float(np.mean(losses)) if len(losses) else float("nan")
    trainer.history.record(round_index, train_acc, test_acc,
                           loss, per_client,
                           per_client_lag=per_client_lag,
                           per_client_round_sec=per_client_round_sec)


class _UtilizationMeter:
    """Worker-busy vs wall-clock accounting for one loop run on a pool.

    :meth:`summary` is the part of ``last_pipeline_stats`` the sync and the
    async loop share: utilization, the backend's fault counters and the
    transport's wire statistics.
    """

    def __init__(self, backend):
        self.backend = backend
        self.start = time.perf_counter()
        self._busy_at_start = dict(backend.busy_sec)

    def summary(self) -> Dict:
        backend = self.backend
        wall = time.perf_counter() - self.start
        busy = {worker: total - self._busy_at_start.get(worker, 0.0)
                for worker, total in backend.busy_sec.items()}
        workers = len(busy)
        utilization = (sum(busy.values()) / (workers * wall)
                       if workers and wall > 0 else 0.0)
        return {
            "wall_sec": wall,
            "busy_sec": busy,
            "num_workers": workers,
            "worker_utilization": utilization,
            "fault_stats": dict(backend.fault_stats),
            "transport": self._transport(),
        }

    def _transport(self) -> Dict:
        """Channel-level wire statistics of the pool's worker transport.

        TCP pools report frames/bytes/retransmits/CRC failures/reconnects;
        pipe pools (and closed ones) contribute the transport name alone.
        """
        pool = self.backend._pool
        if pool is not None and not pool.closed:
            try:
                return pool.network_stats()
            except (OSError, ValueError):
                pass
        return {"transport": self.backend.config.transport}


# ----------------------------------------------------------------------
# The synchronous round
# ----------------------------------------------------------------------
class SyncRoundLoop:
    """The synchronous round, for every backend (depths: module docstring).

    Per round: dispatch the (deduplicated) broadcast, train the
    coordinator-side clients, absorb shard uploads as they arrive, aggregate,
    broadcast, ``after_round``, evaluate.  At depth 1 the uploads fold into a
    streaming aggregate while stragglers train and the evaluation moves into
    the next round's training window, so the only barrier left is the data
    dependency itself: a round's broadcast cannot leave before its aggregate
    is sealed.
    """

    def __init__(self, trainer):
        self.trainer = trainer
        self.backend = trainer.backend
        #: True when the round hands the backend the last broadcast states
        #: and evaluates them in one fused sweep: the backend trains from
        #: them (``takes_broadcast``) and no overridden round hook expects
        #: the mirrors at their barrier state
        self.hands_over = self.backend.takes_broadcast \
            and not overrides_hooks(trainer)
        #: the depth: True when coordinator work may overlap worker training
        #: — shards are outstanding on workers
        self.overlaps = self.backend.supports_pipelining and self.hands_over
        #: built on first use; None until then, False when unsupported
        self._fused_eval = None
        #: True when the broadcast replaces every mirror's weights without
        #: reading them (the default ``personalize`` ignores the client)
        self._overwrites = not overrides_hooks(trainer, ("personalize",)) \
            and type(trainer.strategy).personalize \
            is AggregationStrategy.personalize

    def _eval(self, round_index: int, losses: Sequence[float],
              round_sec: Optional[Dict[int, float]],
              broadcast_states) -> None:
        """Record one round's evaluation, fusing the forwards if possible.

        The fused sweep needs one broadcast state per client (a round that
        does not hand the states over passes ``None``: a hook may have
        written the mirrors since the broadcast, or the backend is the
        serial oracle, which evaluates one client at a time);
        uniform FedAvg broadcasts and personalized per-cluster states
        (FED-PUB, GCFL+) both qualify — states are handled group-wise inside
        the plan, so personalized runs no longer fall back to per-client
        evaluation forwards.
        """
        states = broadcast_states
        if states is not None and any(
                client.client_id not in states
                for client in self.trainer.clients):
            states = None
        fused = None
        if states is not None:
            if self._fused_eval is None:
                # looked up at call time: tracers replace the attribute
                from repro.federated.engine.batched import build_eval_plan

                self._fused_eval = build_eval_plan(
                    self.trainer.clients) or False
            fused = self._fused_eval or None
        _record_eval(self.trainer, round_index, losses,
                     fused_eval=fused, broadcast_states=states,
                     per_client_round_sec=round_sec)

    def run(self, rounds: int) -> None:
        trainer = self.trainer
        backend = self.backend
        config = trainer.config
        overlaps = self.overlaps
        meter = _UtilizationMeter(backend) if overlaps else None
        straggler_wait = 0.0
        deferred_eval: Optional[Tuple[int, List[float],
                                      Dict[int, float]]] = None
        broadcast_states: Optional[Dict[int, Dict[str, np.ndarray]]] = None
        #: static per-client parameter counts for the logical accounting
        #: (reading them through ``get_weights`` would copy every array)
        sizes: Dict[int, int] = {}
        #: static per-client aggregation weights (``num_samples`` sums the
        #: client's training mask on every read)
        samples = {client.client_id: client.num_samples
                   for client in trainer.clients}

        hierarchical = backend.hierarchical
        for round_index in range(trainer._completed_rounds + 1, rounds + 1):
            participants = trainer._select_participants()
            trainer.history.record_participants(
                round_index, [client.client_id for client in participants])
            context = AggregationContext(
                round_index=round_index, participants=participants,
                trainer=trainer)
            trainer._context = context
            trainer.before_round(round_index, participants)

            # Depth 1 folds uploads as they arrive; ``None`` (depth 0, or a
            # strategy that cannot stream) gathers them for the
            # ``trainer.aggregate`` hook.  The stream opens before dispatch
            # so hierarchical dispatch can ship each edge aggregator its
            # shard's globally normalised fold weights; begin_stream is
            # effect-free, so flat rounds are untouched by the hoist.
            fold = None
            if overlaps:
                fold = trainer.strategy.begin_stream(
                    [samples[client.client_id] for client in participants],
                    context)
            index_of = {client.client_id: position
                        for position, client in enumerate(participants)}
            fold_weights = None
            if hierarchical:
                normalized = fold.normalized_weights
                fold_weights = {
                    client.client_id: float(normalized[position])
                    for position, client in enumerate(participants)}

            # A round that hands over passes the states the last broadcast
            # returned; otherwise dispatch reads the mirrors — a hook may
            # have written them since.
            pending = backend.dispatch_round(
                participants,
                states=broadcast_states if self.hands_over else None,
                fold_weights=fold_weights)
            deadline = None if config.round_timeout is None \
                else time.monotonic() + config.round_timeout

            # The previous round's evaluation runs inside this round's
            # training window: the shards are on their way, and the mirrors
            # it reads stay at broadcast state until this round's own
            # broadcast (collection rebuilds trained states beside them;
            # coordinator-resident clients train only after it).
            if deferred_eval is not None:
                self._eval(*deferred_eval, broadcast_states)
                deferred_eval = None

            backend.run_local_side(pending)

            if fold is not None:
                for client in pending.local_side:
                    fold.add(index_of[client.client_id], client.get_weights())
            first_wave = True
            while pending.outstanding:
                wait_start = time.perf_counter()
                timeout = None if deadline is None \
                    else max(0.0, deadline - time.monotonic())
                collected = backend.collect_next(pending, timeout=timeout)
                if not first_wave:
                    # Coordinator time spent blocked on stragglers after
                    # the streaming fold and the eval ran out of work.
                    straggler_wait += time.perf_counter() - wait_start
                if not collected and deadline is not None \
                        and time.monotonic() >= deadline \
                        and pending.outstanding:
                    # Deadline hit: the late shards are dropped from the
                    # round and their workers drain in the background.
                    backend.timeout_outstanding(pending)
                if fold is not None:
                    # Edge-aggregated shards land as fixed-point partials
                    # covering the whole shard at once; flat shards land as
                    # per-client states.
                    for ids, partial in pending.take_partials():
                        fold.add_partial([index_of[cid] for cid in ids],
                                         partial)
                        trainer.tracker.record_upload(
                            "edge_aggregate",
                            sum(hi.size + lo.size
                                for hi, lo in partial.values()))
                    for cid in collected:
                        if cid in pending.states:
                            fold.add(index_of[cid], pending.states[cid])
                if collected:
                    first_wave = False
            if pending.dropped and not hierarchical:
                # A drop re-weights the round over its reporters: gather
                # them as depth 0 does, which is bitwise FedAvg over the
                # reporters (a renormalised seal is an ulp off).
                fold = None
            for cid in sorted(pending.dropped):
                trainer.history.record_drop(cid)
                if fold is not None:
                    fold.drop(index_of[cid])
            # A streaming fold has read the trained states where they were
            # rebuilt, and the broadcast below overwrites every mirror:
            # writing them into the mirrors first would be dead work.  So
            # is it at depth 0 when the states were handed over: the gather
            # reads the trained states where the backend left them (the
            # batched plan's resident stacks).
            in_place = self._overwrites and self.hands_over and not overlaps
            losses = backend.finish_round(
                pending, apply_states=not self._overwrites
                or (fold is None and not in_place))
            reported = [client for client in participants
                        if client.client_id not in pending.dropped]

            # Logical upload accounting (dropped clients never delivered an
            # upload).  Hierarchical rounds already accounted one
            # pre-aggregated partial per edge aggregator — O(workers) uplink
            # instead of O(clients).
            if not hierarchical:
                for client in reported:
                    size = sizes.get(client.client_id)
                    if size is None:
                        size = sizes[client.client_id] = _state_size(
                            client.get_weights())
                    trainer.tracker.record_upload("model_parameters", size)

            if not reported:
                # Fully-degraded round: nothing to aggregate; the global
                # model — and the previous broadcast — stand unchanged.
                trainer.tracker.next_round()
            else:
                if fold is not None:
                    global_state = fold.seal()
                    trainer.server.commit(global_state)
                else:
                    # The gathered states are the call's own arguments: they
                    # are released before the next round trains, not held
                    # beside the next gather.
                    trained = pending.states if in_place else {}
                    global_state = trainer.aggregate(
                        [trained[client.client_id]
                         if client.client_id in trained
                         else client.get_weights() for client in reported],
                        [samples[client.client_id] for client in reported],
                        reported)
                broadcast_states = _broadcast(trainer, global_state)
            trainer.after_round(round_index, participants)

            if round_index % config.eval_every == 0 or round_index == rounds:
                evaluation = (round_index, losses, dict(pending.round_sec))
                if overlaps:
                    # Defer: the eval runs inside the *next* round's
                    # straggler window.
                    deferred_eval = evaluation
                else:
                    # Depth 0 evaluates at once, after the hook and before
                    # the checkpoint — per client when ``after_round`` may
                    # have rewritten what the mirrors predict.
                    self._eval(*evaluation, broadcast_states
                               if self.hands_over else None)
            trainer._completed_rounds = round_index
            if config.checkpoint_every \
                    and round_index % config.checkpoint_every == 0:
                # The checkpoint must hold the history the uninterrupted
                # run would have at this round, so the deferred evaluation
                # is flushed first (value-identical: the mirrors it reads
                # are at broadcast state either way).
                if deferred_eval is not None:
                    self._eval(*deferred_eval, broadcast_states)
                    deferred_eval = None
                trainer.save_checkpoint(round_index)

        if deferred_eval is not None:  # final round has nothing to overlap
            self._eval(*deferred_eval, broadcast_states)
        backend.end_run()

        if meter is not None:
            backend.last_pipeline_stats = {
                **meter.summary(),
                "round_mode": "sync",
                "hierarchical": hierarchical,
                "rounds": rounds,
                "straggler_wait_sec": straggler_wait,
                "fused_eval": self._fused_eval.family.model_type.__name__
                if self._fused_eval else None,
            }


# ----------------------------------------------------------------------
# Bounded-staleness asynchronous rounds
# ----------------------------------------------------------------------
class _AsyncJob:
    """One in-flight shard training job of the async loop."""

    __slots__ = ("pending", "version", "finish_vt")

    def __init__(self, pending, version: int, finish_vt: float):
        self.pending = pending
        self.version = version       # server round the broadcast came from
        self.finish_vt = finish_vt   # virtual completion time


class AsyncRoundLoop:
    """Bounded-staleness asynchronous federated training on the pool.

    A "round" is a server *seal*: the moment ``async_buffer`` shard reports
    have been merged since the last seal, the window is aggregated with the
    configured strategy under staleness-discounted weights and mixed into the
    global model (formula in the module docstring).  Workers never wait for
    each other — each is re-dispatched with the freshest global model as soon
    as its report lands — so fast workers contribute more, slightly stale
    updates count less, and reports older than ``staleness_cap`` seals are
    dropped entirely.  Completion order follows the simulated worker speeds'
    virtual clock, making runs exactly reproducible.
    """

    def __init__(self, trainer):
        self.trainer = trainer
        self.backend = trainer.backend
        self.buffer_size = int(trainer.config.async_buffer)
        self.staleness_cap = int(trainer.config.staleness_cap)

    # ------------------------------------------------------------------
    def run(self, rounds: int) -> None:
        trainer = self.trainer
        backend = self.backend
        config = trainer.config
        clients = trainer.clients

        meter = _UtilizationMeter(backend)
        backend.ensure_pool()
        pooled = backend._bootstrap(clients)
        if len(pooled) != len(clients):
            raise ValueError(
                "round_mode='async' requires every client to be picklable")
        shards: Dict[int, List] = {}

        def rebuild_shards() -> None:
            # Crash recovery can move residents to new owners (redistribute)
            # — regroup the per-worker shards from the live ownership map.
            shards.clear()
            for client in clients:
                owner = backend.owner_of(client.client_id)
                if owner is not None:
                    shards.setdefault(owner, []).append(client)

        rebuild_shards()

        global_state = {key: value.copy()
                        for key, value in clients[0].get_weights().items()}
        total_weight = float(sum(client.num_samples for client in clients))
        virtual_now: Dict[int, float] = {worker: 0.0 for worker in shards}
        jobs: Dict[int, _AsyncJob] = {}
        seals = 0
        window_reports = 0   # merged since the last seal (fills the buffer)
        total_merged = 0
        total_dropped = 0
        window_states: List[Dict[str, np.ndarray]] = []
        window_weights: List[float] = []
        window_clients: List = []
        window_losses: List[float] = []
        lag_by_client: Dict[int, int] = {}
        lag_sum = 0
        lag_max = 0

        def dispatch(worker: int) -> None:
            # Every dispatched client trains from the freshest sealed model;
            # handing dispatch the shared state dict keeps the broadcast
            # dedup an identity check.  ``participation < 1.0`` subsamples
            # the shard per dispatch from the trainer's dedicated selection
            # stream — dispatch order follows the virtual clock, so the
            # sampled sets are deterministic for a fixed seed and speeds.
            shard = shards[worker]
            if config.participation < 1.0:
                from repro.federated.trainer import select_participant_ids

                picked = select_participant_ids(
                    trainer._participation_rng, len(shard),
                    config.participation)
                shard = [shard[position] for position in picked]
            for client in shard:
                client.set_weights(global_state)
            pending = backend.dispatch_round(
                shard,
                states={client.client_id: global_state
                        for client in shard})
            duration = len(shard) / backend.worker_speed(worker)
            virtual_now.setdefault(worker, 0.0)
            jobs[worker] = _AsyncJob(pending, seals,
                                     virtual_now[worker] + duration)

        for worker in sorted(shards):
            dispatch(worker)

        while seals < rounds:
            # Fault degradation left workers idle?  Lagging workers rejoin
            # once their stale replies drain; recovered/respawned owners
            # just need a fresh job.
            backend.poll_lagging()
            for idle in sorted(shards):
                if idle not in jobs and idle not in backend._lagging:
                    dispatch(idle)
            if not jobs:
                # Every owner is lagging — block for a stale reply.
                backend.wait_lagging(timeout=1.0)
                continue
            # Virtual-time event queue: the next report to land is the one
            # with the earliest simulated completion (ties break on worker
            # index), independent of real OS scheduling — this is what makes
            # async runs reproducible.
            worker = min(jobs, key=lambda w: (jobs[w].finish_vt, w))
            job = jobs.pop(worker)
            if config.round_timeout is not None \
                    and not backend.worker_ready(worker,
                                                 config.round_timeout):
                # The shard blew the deadline: discard the job, let the
                # worker drain in the background (staleness-cap analogue
                # of the sync drop).
                for cid in backend.abandon_job(job.pending, worker):
                    trainer.history.record_drop(cid)
                continue
            collected = backend.collect_worker(job.pending, worker,
                                               redispatch=False)
            if not collected:
                # The worker died mid-shard: the report is lost (recovery
                # already re-bootstrapped its residents).  Re-shard over
                # the recovered ownership; the idle-owner sweep at the top
                # of the loop puts everyone back to work.
                for cid in sorted(job.pending.dropped):
                    trainer.history.record_drop(cid)
                rebuild_shards()
                continue
            backend.finish_round(job.pending, advance_round=False)
            virtual_now[worker] = job.finish_vt

            shard_clients = [client for client in job.pending.participants
                             if client.client_id in job.pending.losses]
            lag = seals - job.version
            lag_sum += lag
            lag_max = max(lag_max, lag)
            for client in shard_clients:
                lag_by_client[client.client_id] = lag
            if lag <= self.staleness_cap:
                discount = 1.0 / (1.0 + lag)
                for client in shard_clients:
                    window_states.append(
                        job.pending.states[client.client_id])
                    window_weights.append(client.num_samples * discount)
                    window_clients.append(client)
                    window_losses.append(
                        job.pending.losses[client.client_id])
                window_reports += 1
                total_merged += 1
            else:
                total_dropped += 1

            if worker in shards and worker not in backend._lagging:
                dispatch(worker)  # worker never idles waiting for a seal

            if window_reports >= self.buffer_size:
                seals += 1
                global_state = self._seal(
                    global_state, window_states, window_weights,
                    window_clients, total_weight, seals)
                trainer.history.record_participants(
                    seals, {client.client_id for client in window_clients})
                for state in window_states:
                    trainer.tracker.record_upload(
                        "model_parameters", _state_size(state))
                _broadcast(trainer, global_state)
                backend.transport.next_round()
                if seals % config.eval_every == 0 or seals == rounds:
                    _record_eval(trainer, seals, window_losses,
                                 per_client_lag=dict(lag_by_client))
                window_states, window_weights = [], []
                window_clients, window_losses = [], []
                window_reports = 0

        # Drain in-flight jobs so the pool ends the run reply-balanced (the
        # close-time optimizer/RNG sync needs strict request→reply pairing);
        # the drained reports arrived after the last seal and are discarded.
        for worker in sorted(jobs):
            job = jobs.pop(worker)
            backend.collect_worker(job.pending, worker, redispatch=False)
            backend.finish_round(job.pending, advance_round=False)
        backend.end_run()
        # Mirrors must end the run at the sealed model, not at whichever
        # half-stale shard states the drain reconstructed.
        for client in clients:
            client.set_weights(global_state)

        backend.last_pipeline_stats = {
            **meter.summary(),
            "round_mode": "async",
            "seals": seals,
            "async_buffer": self.buffer_size,
            "staleness_cap": self.staleness_cap,
            "reports_merged": total_merged,
            "reports_dropped": total_dropped,
            "mean_report_lag": lag_sum / max(1, total_merged + total_dropped),
            "max_report_lag": lag_max,
            "client_lag": dict(lag_by_client),
        }

    # ------------------------------------------------------------------
    def _seal(self, global_state, states, weights, participants,
              total_weight: float, seal_index: int):
        """Mix the staleness-discounted window into the global model."""
        trainer = self.trainer
        context = AggregationContext(round_index=seal_index,
                                     participants=list(participants),
                                     trainer=trainer)
        trainer._context = context
        aggregate = trainer.strategy.aggregate(states, weights, context)
        eta = min(1.0, float(sum(weights)) / total_weight)
        mixed = {key: (1.0 - eta) * value + eta * aggregate[key]
                 for key, value in global_state.items()}
        trainer.server.commit({key: value.copy()
                               for key, value in mixed.items()})
        return mixed
