"""Deterministic fault injection for the persistent-worker federation engine.

Production federations fail in a handful of canonical ways — a worker
process dies mid-round, a straggler blows through the round deadline, a
payload arrives corrupted or not at all — and every recovery path the
engine grows for them must be *testable*.  This module provides the
reproducible chaos source:

* :class:`FaultEvent` — one scheduled failure, addressed by ``(worker,
  dispatch)`` where ``dispatch`` is the 1-based count of ``train`` commands
  the coordinator has sent to that worker.  Counting dispatches (not wall
  time) makes the schedule exact under both the sync pipeline and the
  virtual-clock async loop.
* :class:`FaultPlan` — a one-shot schedule of events.  Build it explicitly
  for targeted tests or via :meth:`FaultPlan.seeded` for rate-based chaos
  sweeps; either way two plans built from the same inputs fire identically.
* :func:`payload_checksum` — a deterministic CRC over the delta payload
  structures the pool ships (bit-delta dicts, stacked shard deltas, top-k
  tuples), used by the coordinator to detect corrupted uploads and request
  a single resend.

Fault kinds
-----------
``"crash"``
    The worker process exits (``os._exit``) instead of answering — the
    coordinator sees a dead pipe and runs the ``on_worker_failure`` policy.
``"stall"``
    The worker sleeps ``duration`` seconds before replying — the straggler
    that a ``round_timeout`` drops from the round.
``"corrupt"``
    The reply's delta payload is mutated in transit (coordinator side) so
    the checksum verification fails and the retry path runs.
``"drop"``
    The reply's payload is discarded in transit; the coordinator requests
    the worker's cached reply once.
``"corrupt_down"``
    The *downlink* train broadcast is mutated before it leaves the
    coordinator; the worker's checksum verification fails and it asks for
    one clean resend (the mirror image of ``"corrupt"``).
``"delay"`` / ``"partition"`` / ``"reorder"`` / ``"drop_msg"``
    Network events applied at the transport channel (TCP only): hold the
    next frame for ``duration`` seconds, sever the link for ``duration``
    seconds (reconnect + session resume must recover), swap the next two
    frames, or lose the next frame's first transmission (retransmit
    recovers).  The ``pipe`` transport has no wire to disturb, so backends
    reject plans carrying network kinds unless ``transport="tcp"``.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: the failure modes a plan may schedule
FAULT_KINDS = ("crash", "stall", "corrupt", "drop", "corrupt_down",
               "delay", "partition", "reorder", "drop_msg")

#: fault kinds executed inside the worker process (shipped with the payload)
WORKER_KINDS = ("crash", "stall")

#: fault kinds applied at the coordinator's transport seam (reply path)
TRANSPORT_KINDS = ("corrupt", "drop")

#: fault kinds applied to the coordinator's outgoing train broadcast
DOWNLINK_KINDS = ("corrupt_down",)

#: fault kinds injected into the transport channel itself (TCP links only)
NETWORK_KINDS = ("delay", "partition", "reorder", "drop_msg")


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled failure: fires when ``worker`` receives its
    ``dispatch``-th ``train`` command (1-based)."""

    worker: int
    dispatch: int
    kind: str
    duration: float = 0.0

    def __post_init__(self):
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}")
        if self.worker < 0:
            raise ValueError("worker index must be >= 0")
        if self.dispatch < 1:
            raise ValueError("dispatch index is 1-based (must be >= 1)")
        if self.kind == "stall" and self.duration <= 0:
            raise ValueError("stall events need a positive duration")
        if self.kind in ("delay", "partition") and self.duration <= 0:
            raise ValueError(
                f"{self.kind} events need a positive duration")


class FaultPlan:
    """A one-shot, reproducible schedule of :class:`FaultEvent`.

    Events are keyed by ``(worker, dispatch)`` and **fire at most once**:
    :meth:`take` removes them from the schedule and appends them to
    :attr:`fired`, so a recovered worker's re-dispatch of the same shard is
    not re-killed by the same event (a seeded plan may of course schedule a
    *later* event for it — cascading failures are legitimate chaos).
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self._events: Dict[Tuple[int, int], List[FaultEvent]] = {}
        for event in events:
            self._events.setdefault((event.worker, event.dispatch),
                                    []).append(event)
        #: events that have fired, in firing order (for stats/debugging)
        self.fired: List[FaultEvent] = []

    # ------------------------------------------------------------------
    @classmethod
    def seeded(cls, seed: int, num_workers: int, dispatches: int,
               crash_rate: float = 0.0, stall_rate: float = 0.0,
               corrupt_rate: float = 0.0, drop_rate: float = 0.0,
               stall_duration: float = 1.0,
               first_dispatch: int = 2) -> "FaultPlan":
        """Rate-based chaos: at most one event per ``(worker, dispatch)``.

        For every worker × dispatch cell (``dispatch`` starting at
        ``first_dispatch`` so the bootstrap round establishes a baseline),
        one uniform draw decides which fault — if any — fires there, with
        the four rates partitioning the unit interval.  Identical inputs
        produce identical plans.
        """
        total = crash_rate + stall_rate + corrupt_rate + drop_rate
        if total > 1.0:
            raise ValueError("fault rates must sum to <= 1.0")
        rng = np.random.default_rng(seed)
        events = []
        for worker in range(num_workers):
            for dispatch in range(first_dispatch, dispatches + 1):
                draw = rng.random()
                if draw < crash_rate:
                    events.append(FaultEvent(worker, dispatch, "crash"))
                elif draw < crash_rate + stall_rate:
                    events.append(FaultEvent(worker, dispatch, "stall",
                                             duration=stall_duration))
                elif draw < crash_rate + stall_rate + corrupt_rate:
                    events.append(FaultEvent(worker, dispatch, "corrupt"))
                elif draw < total:
                    events.append(FaultEvent(worker, dispatch, "drop"))
        return cls(events)

    # ------------------------------------------------------------------
    @property
    def remaining(self) -> int:
        """Events that have not fired yet."""
        return sum(len(batch) for batch in self._events.values())

    def scheduled_kinds(self) -> set:
        """Kinds of the events that have not fired yet (capability checks:
        backends refuse network kinds on transports without a wire)."""
        return {event.kind for batch in self._events.values()
                for event in batch}

    def take(self, worker: int, dispatch: int,
             kinds: Optional[Sequence[str]] = None) -> List[FaultEvent]:
        """Fire (and remove) the events scheduled for this dispatch.

        ``kinds`` restricts which event families fire (the coordinator takes
        worker-side kinds at dispatch time and transport kinds for the reply
        path separately); unrestricted by default.
        """
        batch = self._events.get((worker, dispatch))
        if not batch:
            return []
        if kinds is None:
            taken, kept = list(batch), []
        else:
            taken = [event for event in batch if event.kind in kinds]
            kept = [event for event in batch if event.kind not in kinds]
        if kept:
            self._events[(worker, dispatch)] = kept
        else:
            del self._events[(worker, dispatch)]
        self.fired.extend(taken)
        return taken

    def fired_counts(self) -> Dict[str, int]:
        """Fired events per kind (benchmark/report bookkeeping)."""
        counts: Dict[str, int] = {}
        for event in self.fired:
            counts[event.kind] = counts.get(event.kind, 0) + 1
        return counts


# ----------------------------------------------------------------------
# Delta-payload checksums
# ----------------------------------------------------------------------
def _crc_update(crc: int, data) -> int:
    return zlib.crc32(data, crc)


def _checksum_walk(crc: int, obj) -> int:
    """Deterministic walk over the delta payload structures the pool ships.

    Dict keys are visited in sorted order; arrays contribute dtype, shape
    and raw bytes; tuples/lists recurse positionally.  Covers per-client
    bit-delta dicts, stacked shard deltas and top-k ``(indices, values,
    shape)`` payloads alike.
    """
    if isinstance(obj, dict):
        for key in sorted(obj, key=repr):
            crc = _crc_update(crc, repr(key).encode())
            crc = _checksum_walk(crc, obj[key])
        return crc
    if isinstance(obj, np.ndarray):
        array = np.ascontiguousarray(obj)
        crc = _crc_update(crc, array.dtype.str.encode())
        crc = _crc_update(crc, repr(array.shape).encode())
        # The contiguous array *is* the bytes ``tobytes()`` would copy out.
        return _crc_update(crc, array)
    if isinstance(obj, (tuple, list)):
        crc = _crc_update(crc, b"(")
        for item in obj:
            crc = _checksum_walk(crc, item)
        return _crc_update(crc, b")")
    return _crc_update(crc, repr(obj).encode())


def payload_checksum(payload) -> int:
    """CRC32 of a (nested) delta payload; equal structures ⇒ equal sums."""
    return _checksum_walk(0, payload)
