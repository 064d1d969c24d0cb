"""Query engine over a frozen :class:`ServingSnapshot`.

Routing happens at admission:

* **transductive** queries read the snapshot's precomputed probability
  table — an O(1) array lookup — on the caller's thread, before
  :meth:`QueryEngine.submit` returns (``trigger="inline"``): a row read
  gains nothing from waiting for a batching deadline;
* **inductive** (new-node) queries enter the admission queue, which a single
  worker thread drains with **adaptive micro-batching**: a query that
  finds nothing else queued when the worker takes it is answered at once
  (``trigger="idle"`` — a lone query gains nothing from waiting for
  company); otherwise the batch flushes at ``max_batch`` queries or
  ``max_delay_ms`` after its first query was admitted, whichever comes
  first (plus a final flush on ``close``), and under backlog the worker
  drains what is already queued without waiting.  Each
  query extracts its anchor set's receptive-field block
  (:mod:`repro.serving.subgraph`), appends its feature row, and runs the
  frozen client model over the augmented subgraph: :data:`FUSE_FROM` or
  more per flush through one **fused batched plan**
  (:func:`~repro.federated.engine.batched.build_eval_plan` over per-query
  pseudo-clients), fewer through serial forwards.  Both evaluate the same
  tensor expressions, so fused and serial answers are bitwise equal.

Extracted blocks are structure-only and cached in a deterministic LRU keyed
by ``(client_id, anchors)``; a block's normalised operator is built once and
lives as long as the block (:func:`~repro.models.base.propagation_operator`).
"""

from __future__ import annotations

import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.autograd import Tensor, functional as F, no_grad
from repro.serving.snapshot import ClientEntry, ServingSnapshot
from repro.serving.subgraph import SubgraphBlock, extract_block, receptive_depth


@dataclass(frozen=True)
class TransductiveQuery:
    """Predict a node the snapshot has already seen."""

    client_id: int
    node_id: int


@dataclass(frozen=True)
class InductiveQuery:
    """Predict a new node attaching to ``anchors`` of a client's graph."""

    client_id: int
    features: np.ndarray
    anchors: Tuple[int, ...]

    def __init__(self, client_id: int, features: np.ndarray,
                 anchors: Sequence[int]):
        object.__setattr__(self, "client_id", int(client_id))
        object.__setattr__(self, "features",
                           np.asarray(features, dtype=np.float64))
        object.__setattr__(self, "anchors",
                           tuple(int(a) for a in anchors))


Query = Union[TransductiveQuery, InductiveQuery]


@dataclass
class QueryResult:
    """One served prediction plus how it was produced."""

    probs: np.ndarray
    label: int
    #: "table" (transductive O(1) read), "fused" (batched inductive plan)
    #: or "serial" (single inductive forward).
    path: str
    batch_size: int
    #: "idle" (nothing else was queued), "size", "deadline" or "close" of a
    #: flush; "inline" of a table read
    trigger: str
    arrival: float
    completed: float

    @property
    def latency(self) -> float:
        """Seconds from admission to completion (queueing + compute)."""
        return self.completed - self.arrival


class SubgraphLRU:
    """Deterministic LRU over extracted subgraph blocks.

    Eviction order is pure access order (an :class:`OrderedDict`), so a
    replayed query sequence always evicts the same keys — asserted by the
    serving tests.  Hit/miss/eviction counters are exposed for the bench
    harness.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = int(capacity)
        self._blocks: "OrderedDict[Tuple, SubgraphBlock]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: Tuple, build: Callable[[], SubgraphBlock]
            ) -> SubgraphBlock:
        block = self._blocks.get(key)
        if block is not None:
            self.hits += 1
            self._blocks.move_to_end(key)
            return block
        self.misses += 1
        block = build()
        self._blocks[key] = block
        if len(self._blocks) > self.capacity:
            self._blocks.popitem(last=False)
            self.evictions += 1
        return block

    def keys(self) -> List[Tuple]:
        """Current keys, least- to most-recently used."""
        return list(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)


@dataclass
class _Pending:
    query: Query
    future: Future = field(default_factory=Future)
    arrival: float = field(default_factory=time.perf_counter)


_CLOSE = object()

#: the ``batch_log`` record of every table read answered at admission: one
#: shared object, never mutated (a dict per answer would outweigh the answer)
_INLINE = {"size": 1, "trigger": "inline"}

#: inductive queries per flush from which the fused plan beats serial
#: forwards: the measured crossover (``BENCH_serving.json`` "crossover",
#: µs per query serial / fused — 2 per flush: 85 / 121, 4: 86 / 77,
#: 8: 93 / 72, 32: 88 / 62).  Re-measure with ``benchmarks/bench_serving.py``.
FUSE_FROM = 4


class AdmissionRejected(RuntimeError):
    """The engine's bounded admission queue is full (fast-fail shedding).

    Raised by :meth:`QueryEngine.submit` when ``max_queue`` queries are
    already waiting: under open-loop overload, rejecting at the door keeps
    the latency of admitted queries bounded instead of letting the queue —
    and every subsequent response time — grow without limit."""


class QueryEngine:
    """Inline table reads + a micro-batching worker over a frozen snapshot.

    The knobs govern what is queued, the inductive queries.  ``max_delay_ms``
    bounds how long a batch that already has company waits for more (a
    query that finds the queue empty is answered at once).  ``max_queue``
    bounds the admission queue: ``0`` (default) admits every query, a
    positive bound sheds overload by raising :class:`AdmissionRejected`
    from :meth:`submit` once that many queries are waiting (rejections are
    counted in :attr:`rejected`).
    """

    def __init__(self, snapshot: ServingSnapshot, *, max_batch: int = 32,
                 max_delay_ms: float = 2.0,
                 cache_size: int = 128, max_queue: int = 0):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0 (0 = unbounded)")
        self.snapshot = snapshot
        self.max_batch = int(max_batch)
        self.max_delay = float(max_delay_ms) / 1000.0
        self.max_queue = int(max_queue)
        self.cache = SubgraphLRU(cache_size)
        self.batch_log: List[Dict] = []
        self.served = 0
        #: queries fast-failed at the admission door (queue overflow)
        self.rejected = 0
        #: guards both counters: callers and the worker bump them
        self._counters = threading.Lock()
        self._queue: "queue.Queue" = queue.Queue(maxsize=self.max_queue)
        #: makes "not closed, so enqueue" one step against ``close``: no
        #: query can land behind the worker's stop sentinel
        self._admission = threading.Lock()
        self._closed = False
        self._worker = threading.Thread(target=self._loop,
                                        name="repro-serving-worker",
                                        daemon=True)
        self._worker.start()

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def submit(self, query: Query) -> Future:
        """Admit one query; resolves to a :class:`QueryResult`."""
        if self._closed:
            raise RuntimeError("QueryEngine is closed")
        pending = _Pending(query)
        if isinstance(query, TransductiveQuery):
            self.batch_log.append(_INLINE)
            self._finish_transductive(pending)
            return pending.future
        with self._admission:
            if self._closed:
                raise RuntimeError("QueryEngine is closed")
            try:
                self._queue.put_nowait(pending)
            except queue.Full:
                with self._counters:
                    self.rejected += 1
                raise AdmissionRejected(
                    f"admission queue full ({self.max_queue} queries "
                    "waiting); query rejected") from None
        return pending.future

    def query(self, query: Query, timeout: Optional[float] = 60.0
              ) -> QueryResult:
        """Synchronous convenience wrapper around :meth:`submit`."""
        return self.submit(query).result(timeout=timeout)

    def close(self) -> None:
        """Flush the queue and stop the worker (idempotent)."""
        with self._admission:
            if self._closed:
                return
            self._closed = True
        self._queue.put(_CLOSE)
        self._worker.join()

    def __enter__(self) -> "QueryEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Worker loop: adaptive micro-batching
    # ------------------------------------------------------------------
    def _loop(self) -> None:
        while True:
            first = self._queue.get()
            if first is _CLOSE:
                return
            batch = [first]
            if self.max_batch > 1 and self._queue.empty():
                # No company is waiting: holding the query buys nothing.
                self._execute(batch, "idle")
                continue
            trigger = "size"
            deadline = first.arrival + self.max_delay
            closing = False
            while len(batch) < self.max_batch:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        trigger = "deadline"
                        break
                    try:
                        item = self._queue.get(timeout=remaining)
                    except queue.Empty:
                        trigger = "deadline"
                        break
                if item is _CLOSE:
                    trigger = "close"
                    closing = True
                    break
                batch.append(item)
            self._execute(batch, trigger)
            if closing:
                return

    def _execute(self, batch: List[_Pending], trigger: str) -> None:
        self.batch_log.append({"size": len(batch), "trigger": trigger})
        try:
            self._answer(batch, trigger)
        except BaseException as error:   # defensive: never wedge callers
            for item in batch:
                if not item.future.done():
                    item.future.set_exception(error)

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def _answer(self, batch: List[_Pending], trigger: str) -> None:
        if len(batch) >= FUSE_FROM:
            fused = self._fused_inductive(batch)
            if fused is not None:
                for item, probs in zip(batch, fused):
                    self._finish(item, probs, "fused", len(batch), trigger)
                return
        for item in batch:
            try:
                probs = self._serial_inductive(item.query)
            except Exception as error:
                item.future.set_exception(error)
            else:
                self._finish(item, probs, "serial", len(batch), trigger)

    def _finish_transductive(self, item: _Pending) -> None:
        try:
            probs = self.snapshot.transductive(item.query.client_id,
                                               item.query.node_id)
        except Exception as error:
            item.future.set_exception(error)
        else:
            self._finish(item, probs, "table", 1, "inline")

    def _finish(self, item: _Pending, probs: np.ndarray, path: str,
                batch_size: int, trigger: str) -> None:
        with self._counters:
            self.served += 1
        item.future.set_result(QueryResult(
            probs=probs, label=int(np.argmax(probs)), path=path,
            batch_size=batch_size, trigger=trigger, arrival=item.arrival,
            completed=time.perf_counter()))

    # ------------------------------------------------------------------
    # Inductive paths
    # ------------------------------------------------------------------
    def _augmented(self, query: InductiveQuery
                   ) -> Tuple[ClientEntry, SubgraphBlock, np.ndarray]:
        """The query's entry, its (cached) block, and the block's features
        with the query's row appended."""
        entry = self.snapshot.entry(query.client_id)
        if entry.model is None:
            raise ValueError(
                f"snapshot entry {query.client_id} is transductive-only "
                f"(family {self.snapshot.model_family}): inductive "
                f"queries are unsupported")
        features = query.features.reshape(1, -1)
        if features.shape[1] != entry.graph.num_features:
            raise ValueError(
                f"inductive query carries {features.shape[1]} features, "
                f"client graph has {entry.graph.num_features}")
        block = self.cache.get(
            (query.client_id, tuple(sorted(set(query.anchors)))),
            lambda: extract_block(entry.graph, query.anchors,
                                  receptive_depth(entry.model)))
        return entry, block, np.concatenate([block.features, features])

    def _fused_inductive(self, items: List[_Pending]
                         ) -> Optional[List[np.ndarray]]:
        """All inductive answers of one flush via a single fused plan.

        Every query becomes a pseudo-client whose "graph" is its augmented
        receptive-field block; :func:`build_eval_plan` stacks them into one
        block-diagonal propagation, exactly like federated evaluation
        stacks real clients.  Block rows are independent, so the fused
        answers are bitwise-equal to the per-query serial forward.
        Returns ``None`` (caller falls back to serial) when the family has
        no eval plan or any query is malformed.
        """
        from repro.federated.engine.batched import build_eval_plan

        try:
            prepared = [self._augmented(item.query) for item in items]
        except Exception:
            return None   # per-query validation errors surface serially
        plan = build_eval_plan([
            SimpleNamespace(
                graph=SimpleNamespace(
                    num_nodes=block.new_index + 1,
                    num_features=augmented.shape[1],
                    features=augmented, adjacency=block.adjacency),
                model=entry.model)
            for entry, block, augmented in prepared])
        if plan is None:
            return None
        probs = plan.probabilities([entry.state for entry, *_ in prepared])
        return [np.array(probs[index, block.new_index], copy=True)
                for index, (_, block, _) in enumerate(prepared)]

    def _serial_inductive(self, query: InductiveQuery) -> np.ndarray:
        """Reference single-query forward over the augmented block."""
        entry, block, augmented = self._augmented(query)
        entry.model.eval()
        with no_grad():
            logits = entry.model(Tensor(augmented), block.adjacency)
            probs = F.softmax(logits, axis=-1).numpy()
        return np.array(probs[block.new_index], copy=True)
