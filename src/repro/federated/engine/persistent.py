"""Persistent worker processes with resident clients and delta-only IPC.

The first-generation process pool shipped *whole clients* — graph, features,
CSR P̃, optimizer state — across the process boundary every round, which made
it slower than serial training.  Real FGL systems never do that: client state
stays where it lives and only model parameters move.  This module implements
that communication model for the simulator:

* :class:`PersistentWorkerPool` — a fixed set of worker processes, each
  driven through its own duplex pipe by a tiny command loop.  Workers are
  daemonic (they can never outlive the coordinator) and the pool registers a
  ``weakref.finalize`` hook so abandoned pools are reclaimed at GC time.
* **Worker-resident clients** — a client is pickled to its owning worker
  exactly once (the bootstrap round).  From then on the worker keeps the
  authoritative optimizer moments and RNG streams; the coordinator keeps a
  weight-only mirror for aggregation and evaluation.
* **Delta-only rounds** — each round the coordinator sends the participant's
  current (post-broadcast) weights down and receives ``(loss,
  parameter-delta, message-stats)`` back.  Deltas are taken on the raw
  IEEE-754 bit patterns (wrap-around ``uint64`` differences), so the
  coordinator-side reconstruction ``received ⊕ delta`` is *lossless*: the
  mirror ends the round bitwise-identical to the worker copy, and therefore
  to serial training.  A float delta (``trained - received``) would lose low
  bits to rounding and break the bitwise-parity contract.
* **Worker-side fusion** — a worker may train its resident shard through the
  :class:`~repro.federated.engine.batched.BatchedBackend` (one autograd graph
  per shard), so the pool speeds training up even on machines where true
  process parallelism is unavailable.

The pool is generic: besides the built-in Step-1 ``train`` command it can
``call`` any module-level function against the worker's resident-client
registry.  AdaFGL Step 2 is one such function — the per-client job
``repro.core.adafgl._personalize``, which the in-process schedule calls
with an empty registry — so pooled personalized training reuses the same
workers and, for a client resident there, its already-resident subgraph.
"""

from __future__ import annotations

import os
import pickle
import time
import traceback
import weakref
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.autograd import Workspace
from repro.federated.engine.faults import payload_checksum

StateDict = Dict[str, np.ndarray]

#: sentinel distinguishing lossy top-k payloads from bit-pattern deltas
TOPK_MARKER = "__topk__"

#: sentinel marking a whole-shard stacked bit-delta reply: one ``(B, ...)``
#: uint64 array per parameter instead of ``B`` per-client dicts (fewer
#: numpy calls and far fewer pickled objects per round)
STACK_MARKER = "__stacked__"

#: sentinel marking a hierarchical (edge-aggregated) reply: the worker folded
#: its whole shard with coordinator-supplied weights and ships one
#: ``(client_ids, fixed-point partial)`` instead of per-client deltas
FOLD_MARKER = "__fold__"


# ----------------------------------------------------------------------
# Lossless bit-pattern weight deltas
# ----------------------------------------------------------------------
def encode_state_delta(trained: StateDict, received: StateDict
                       ) -> Dict[str, np.ndarray]:
    """Per-parameter wrap-around difference of the IEEE-754 bit patterns.

    ``apply_state_delta(received, delta)`` reconstructs ``trained`` exactly
    (bit for bit); a plain float difference would not, because
    ``a + (b - a)`` rounds.  The payload is one 8-byte word per parameter —
    the same volume as shipping the weights, but in a form that the
    communication accounting can attribute to *updates* rather than state.
    """
    delta = {}
    for key, new in trained.items():
        old = np.ascontiguousarray(received[key], dtype=np.float64)
        new = np.ascontiguousarray(new, dtype=np.float64)
        delta[key] = new.view(np.uint64) - old.view(np.uint64)
    return delta


def apply_state_delta(received: StateDict, delta: Dict[str, np.ndarray]
                      ) -> StateDict:
    """Invert :func:`encode_state_delta`: lossless weight reconstruction."""
    state = {}
    for key, bits in delta.items():
        old = np.ascontiguousarray(received[key], dtype=np.float64)
        state[key] = (old.view(np.uint64) + bits).view(np.float64).copy()
    return state


def _broadcast_stack(received: Sequence[StateDict], name: str) -> np.ndarray:
    """``received[i][name]`` as one ``(B, ...)`` (or broadcastable) stack."""
    first = received[0]
    if all(state is first for state in received):   # uniform FedAvg case
        return np.ascontiguousarray(first[name], dtype=np.float64)[None]
    return np.stack([np.asarray(state[name], dtype=np.float64)
                     for state in received])


def encode_stacked_delta(stacks: Dict[str, np.ndarray],
                         received: Sequence[StateDict],
                         out: Optional[Dict[str, np.ndarray]] = None
                         ) -> Dict[str, np.ndarray]:
    """Whole-shard bit delta: one vectorised wrap-around diff per parameter.

    ``stacks[name]`` is the trained ``(B, ...)`` parameter stack (a
    resident batched plan's hot tensors); ``received`` lists each shard
    client's broadcast state in stack order.  Bit-for-bit equivalent to
    ``B`` :func:`encode_state_delta` calls, in ``len(stacks)`` numpy ops
    when the broadcast was uniform (the common FedAvg case).  ``out[name]``
    (``uint64``, the stack's shape) receives the delta when given.
    """
    return {name: np.subtract(
                stack.view(np.uint64),
                _broadcast_stack(received, name).view(np.uint64),
                out=None if out is None else out[name])
            for name, stack in stacks.items()}


def apply_stacked_delta(received: Sequence[StateDict],
                        delta: Dict[str, np.ndarray],
                        out: Optional[Dict[str, np.ndarray]] = None
                        ) -> List[StateDict]:
    """Invert :func:`encode_stacked_delta`; per-client states are views.

    ``out[name]`` (``uint64``) receives the rebuilt bit patterns when given;
    ``out=delta`` decodes in place, in the buffer the delta arrived in.
    """
    stacks = {name: np.add(
                  _broadcast_stack(received, name).view(np.uint64), bits,
                  out=None if out is None else out[name]).view(np.float64)
              for name, bits in delta.items()}
    return [{name: stack[index] for name, stack in stacks.items()}
            for index in range(len(received))]


# ----------------------------------------------------------------------
# Varint index coding (entropy-coded qtopk index vectors)
# ----------------------------------------------------------------------
def pack_indices(indices: np.ndarray) -> np.ndarray:
    """Delta + LEB128 encode a **sorted** index vector into a uint8 stream.

    Sorted top-k indices are dominated by small gaps, so storing the first
    index followed by successive gaps as LEB128 varints (7 payload bits per
    byte, high bit = continuation) compresses the classic 8-byte-per-index
    vector by ~4-8x at benchmark tensor sizes.  Exact round-trip via
    :func:`unpack_indices`.
    """
    idx = np.asarray(indices, dtype=np.int64)
    if idx.size == 0:
        return np.empty(0, dtype=np.uint8)
    gaps = np.empty(idx.size, dtype=np.uint64)
    gaps[0] = np.uint64(int(idx[0]))
    gaps[1:] = np.diff(idx).astype(np.uint64)
    out = bytearray()
    for gap in gaps.tolist():
        while gap > 0x7F:
            out.append((gap & 0x7F) | 0x80)
            gap >>= 7
        out.append(gap)
    return np.frombuffer(bytes(out), dtype=np.uint8)


def unpack_indices(packed: np.ndarray, count: int) -> np.ndarray:
    """Invert :func:`pack_indices`: recover ``count`` sorted int64 indices."""
    if count == 0:
        return np.empty(0, dtype=np.int64)
    data = packed.tobytes()
    gaps = np.empty(count, dtype=np.int64)
    pos = 0
    for i in range(count):
        shift = 0
        value = 0
        while True:
            byte = data[pos]
            pos += 1
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                break
            shift += 7
        gaps[i] = value
    return np.cumsum(gaps)


# ----------------------------------------------------------------------
# Lossy top-k float deltas (compressed transport, optionally quantised)
# ----------------------------------------------------------------------
def quantise_uniform(values: np.ndarray, bits: int) -> np.ndarray:
    """Symmetric uniform quantiser: snap to ``2^(bits-1) - 1`` signed levels.

    Per call the scale is the largest magnitude present, so the payload is
    ``bits`` per value plus one float scale — the classic QSGD-style uniform
    grid.  Dequantised values are returned (the float each side reconstructs
    from the wire integers), keeping sender and receiver in lockstep.
    """
    if bits < 2 or bits > 32:
        raise ValueError("delta_bits must be in [2, 32]")
    if values.size == 0:
        return values
    scale = float(np.abs(values).max())
    if scale == 0.0:
        return values
    levels = float(2 ** (bits - 1) - 1)
    return np.round(values / scale * levels) * (scale / levels)


def encode_topk_delta(trained: StateDict, received: StateDict, top_k: int,
                      residual: Optional[Dict[str, np.ndarray]] = None,
                      bits: Optional[int] = None
                      ) -> Tuple[Dict, Dict[str, np.ndarray], int]:
    """Keep only the ``top_k`` largest-magnitude entries of each float delta.

    The delta is taken as ``(trained - received) + residual`` — the residual
    carries the mass dropped by earlier rounds (error feedback, Stich et
    al.), so truncation error accumulates into later uploads instead of being
    lost forever.  With ``bits`` set the kept values are additionally pushed
    through :func:`quantise_uniform` (the ``qtopk`` codec) and the
    quantisation error joins the dropped mass in the residual, so *both*
    lossy stages feed back.  Returns ``(payload, new_residual,
    transported_values)``: the payload maps each parameter to ``(indices,
    values, shape)``, the new residual is what truncation/quantisation
    dropped this round, and ``transported_values`` counts 8-byte words on
    the wire.  Float transport ships raw int64 indices (one word per kept
    index plus one per kept value); quantised transport
    (``bits`` set) entropy-codes the sorted index vector with
    :func:`pack_indices` — delta + LEB128 varints, ``⌈packed bytes / 8⌉``
    words — plus ``⌈k · bits / 64⌉`` packed value words and one scale word.

    Unlike the bit codec this is **lossy**: the sender must overwrite its own
    weights with :func:`apply_topk_delta` of what it shipped so sender and
    receiver stay in the same (compressed) trajectory.
    """
    payload: Dict[str, Tuple] = {}
    new_residual: Dict[str, np.ndarray] = {}
    transported = 0
    for key, new in trained.items():
        old = np.asarray(received[key], dtype=np.float64)
        delta = np.asarray(new, dtype=np.float64) - old
        if residual is not None and key in residual:
            delta = delta + residual[key]
        flat = delta.ravel()
        k = min(int(top_k), flat.size)
        if k < flat.size:
            keep = np.argpartition(np.abs(flat), -k)[-k:]
            keep.sort()
        else:
            keep = np.arange(flat.size)
        values = flat[keep].copy()
        if bits is not None:
            values = quantise_uniform(values, bits)
        dropped = delta.copy()
        # Kept entries keep only their quantisation error (exactly 0.0 when
        # the transport is float), everything else keeps its full mass.
        dropped.ravel()[keep] = flat[keep] - values
        new_residual[key] = dropped
        if bits is None:
            payload[key] = (keep.astype(np.int64), values, delta.shape)
            transported += 2 * int(keep.size)
        else:
            packed = pack_indices(keep)
            payload[key] = (packed, values, delta.shape)
            transported += -(-packed.nbytes // 8) \
                + -(-int(keep.size) * int(bits) // 64) + 1
    return payload, new_residual, transported


def apply_topk_delta(received: StateDict, payload: Dict) -> StateDict:
    """Add a sparse top-k delta payload onto the received weights.

    Accepts both index transports: raw int64 vectors (``topk``) and
    varint-packed uint8 streams (``qtopk``), detected by dtype.
    """
    state = {}
    for key, (indices, values, shape) in payload.items():
        if indices.dtype == np.uint8:
            indices = unpack_indices(indices, len(values))
        dense = np.asarray(received[key], dtype=np.float64).copy()
        dense.ravel()[indices] += values
        state[key] = dense.reshape(shape)
    return state


# ----------------------------------------------------------------------
# Worker process
# ----------------------------------------------------------------------
def _train_shard(residents: Dict[int, object], intra_backend,
                 residuals: Dict[int, Dict[str, np.ndarray]],
                 upload: Workspace,
                 client_ids: Sequence[int], states: Sequence[StateDict],
                 assign: Dict[int, int], intra_worker: str,
                 codec: Tuple[str, int, int] = ("bitdelta", 0, 0),
                 slowdown: float = 1.0, fault: Optional[Dict] = None,
                 with_snapshots: bool = False,
                 fold_weights: Optional[Dict[int, float]] = None,
                 stamp: bool = True
                 ) -> Tuple[Dict[int, float], Dict[int, Dict], Dict]:
    """Worker-side round: load broadcast weights, train the shard, diff.

    ``states``/``assign`` carry the *deduplicated* broadcast: after plain
    FedAvg every participant receives the identical global state, so the
    coordinator ships each distinct state dict once and maps client ids onto
    it (personalized strategies simply ship more distinct states).

    ``intra_worker`` selects how the resident shard runs its local epochs:
    ``"serial"`` is the reference per-client loop; ``"auto"`` routes the
    shard through ``intra_backend``, the worker's long-lived
    :class:`~repro.federated.engine.batched.BatchedBackend` (whose plan
    cache persists across rounds); a shard it cannot fuse runs the same
    per-client loop and reports ``mode = "serial (<reason>)"``.

    ``codec`` is ``(name, top_k, bits)`` and selects the upload transport:
    ``"bitdelta"`` ships the lossless bit-pattern delta; ``"topk"`` ships
    only the ``top_k`` largest-magnitude float-delta entries per parameter;
    ``"qtopk"`` additionally snaps the kept values onto a ``bits``-per-value
    uniform grid.  Both lossy codecs keep the dropped/quantised mass in
    ``residuals`` (error feedback) and snap the worker's own weights onto
    the truncated trajectory so mirror and worker never diverge.
    ``slowdown > 1`` sleeps ``(slowdown - 1) ×`` the shard's
    measured **CPU** time — the simulated-heterogeneous-hardware knob used
    by the straggler benchmarks and the deterministic async tests.  The CPU
    clock (not wall) is the basis so slow hardware costs a fixed multiple of
    its own compute; wall time on an oversubscribed host includes scheduler
    contention, which would compound the penalty.

    ``fault`` is an injected worker-side failure directive from a
    :class:`~repro.federated.engine.faults.FaultPlan`: ``{"kind": "crash"}``
    kills the process before any training (the coordinator sees a dead
    pipe), ``{"kind": "stall", "duration": s}`` sleeps ``s`` seconds before
    replying (the straggler a ``round_timeout`` drops).  ``with_snapshots``
    piggybacks a weight-free :func:`~repro.federated.engine.backends
    .snapshot_client_state` per shard client onto the reply — the
    coordinator-side recovery snapshots that let a crashed worker's
    residents be re-bootstrapped exactly.

    ``fold_weights`` (hierarchical rounds) maps each shard client to its
    globally-normalized aggregation coefficient: instead of per-client
    deltas the worker acts as an **edge aggregator**, folding every trained
    state into one order-independent fixed-point partial
    (:class:`~repro.federated.server.DeterministicSum`) and shipping
    ``{FOLD_MARKER: (client_ids, partial)}`` — an O(parameters) upload for
    the whole shard, independent of shard size.

    ``upload`` holds the stacked delta's buffers across rounds (a slot is
    reused once nothing — the previous reply, the channel's unacknowledged
    frames — references it).  ``stamp`` asks for ``stats["checksum"]``, the
    CRC the coordinator re-computes on arrival; it asks only when the
    channel does not verify its frames itself or a transit fault is
    scheduled for this reply.
    """
    if fault is not None and fault.get("kind") == "crash":
        # Simulated hard crash: no reply, no cleanup, dead pipe.
        os._exit(1)
    start = time.perf_counter()
    cpu_start = time.process_time()
    shard = [residents[cid] for cid in client_ids]
    received = {client_id: states[assign[client_id]]
                for client_id in client_ids}

    resident_plan = None
    mode = "serial"
    if intra_worker != "serial" and len(shard) >= 2:
        # Resident fast path: the broadcast loads straight into the plan's
        # hot stacked tensors and the trained parameters read back as
        # views — the shard's client objects are not touched at all.
        resident = intra_backend.try_resident_round(shard, received)
        if resident is not None:
            loss_list, resident_plan = resident
            mode = "batched"
        else:
            mode = f"serial ({intra_backend.last_fallback})"

    if resident_plan is None:
        if intra_backend is not None:
            # The classic path reads/writes client objects: any resident
            # stacked state (e.g. a bigger shard trained hot last round)
            # must land back in them first.
            intra_backend.flush_hot()
        for client in shard:
            client.set_weights(received[client.client_id])
        loss_list = [client.local_train() for client in shard]

    lossy = codec[0] in ("topk", "qtopk")
    quant_bits = codec[2] if codec[0] == "qtopk" else None
    losses, deltas, delta_values = {}, {}, 0
    if fold_weights is not None:
        # Edge aggregation: fold the shard's trained states with the exact
        # coordinator-supplied coefficients into integer limbs — bitwise
        # equal to the coordinator folding each state itself, in any order.
        from repro.federated.server import DeterministicSum

        acc = DeterministicSum()
        for index, client in enumerate(shard):
            trained = resident_plan.read_state(index) if resident_plan \
                else client.get_weights()
            acc.fold(trained, fold_weights[client.client_id])
        partial = acc.partial()
        deltas = {FOLD_MARKER: (list(client_ids), partial)}
        delta_values = sum(hi.size + lo.size for hi, lo in partial.values())
    elif resident_plan is not None and not lossy:
        # One vectorised bit-diff per parameter for the whole shard.
        stacks = resident_plan.read_state()
        with upload:
            stacked = encode_stacked_delta(
                stacks, [received[cid] for cid in client_ids],
                out={name: upload.take(stack.shape, np.uint64)
                     for name, stack in stacks.items()})
        deltas = {STACK_MARKER: (list(client_ids), stacked)}
        delta_values = sum(v.size for v in stacked.values())
    else:
        for index, client in enumerate(shard):
            cid = client.client_id
            trained = resident_plan.read_state(index) if resident_plan \
                else client.get_weights()
            if lossy:
                payload, residuals[cid], transported = encode_topk_delta(
                    trained, received[cid], codec[1], residuals.get(cid),
                    bits=quant_bits)
                deltas[cid] = {TOPK_MARKER: payload}
                delta_values += transported
                # Snap onto the truncated trajectory the coordinator sees.
                truncated = apply_topk_delta(received[cid], payload)
                if resident_plan is not None:
                    resident_plan.load_state(index, truncated)
                else:
                    client.set_weights(truncated)
            else:
                deltas[cid] = encode_state_delta(trained, received[cid])
                delta_values += sum(v.size for v in deltas[cid].values())
    for client, loss in zip(shard, loss_list):
        losses[client.client_id] = loss

    elapsed = time.perf_counter() - start
    if slowdown > 1.0:
        penalty = (time.process_time() - cpu_start) * (slowdown - 1.0)
        time.sleep(penalty)
        elapsed += penalty
    if fault is not None and fault.get("kind") == "stall":
        pause = float(fault.get("duration", 0.0))
        time.sleep(pause)
        elapsed += pause
    stats = {"mode": mode, "delta_values": delta_values,
             "clients": len(shard), "busy_sec": elapsed}
    if stamp:
        stats["checksum"] = payload_checksum(deltas)
    if with_snapshots:
        from repro.federated.engine.backends import snapshot_client_state

        if resident_plan is not None:
            # The hot stacked tensors hold the trained weights/moments;
            # land them back in the client objects before snapshotting.
            intra_backend.flush_hot()
        stats["snapshots"] = {
            client.client_id: snapshot_client_state(client,
                                                    include_weights=False)
            for client in shard}
    return losses, deltas, stats


def _worker_loop(conn) -> None:
    """Command loop run inside every worker process.

    Residents (``client_id → Client``) live in a local dict for the whole
    process lifetime; commands mutate it in place.  Every command returns
    ``("ok", result)`` or ``("error", formatted traceback)`` so the
    coordinator can re-raise with worker context.
    """
    residents: Dict = {}
    residuals: Dict = {}  # per-client error feedback of the top-k codec
    intra_backend = None  # built lazily, plan cache lives for the process
    upload = Workspace()  # the stacked delta's buffers, reused when idle
    last_train = None     # cached last train reply for corruption resends
    while True:
        try:
            command, payload = conn.recv()
        except (EOFError, OSError):
            break
        try:
            if command == "stop":
                conn.send(("ok", None))
                break
            elif command == "adopt":
                for cid, blob in payload:
                    residents[cid] = pickle.loads(blob)
                result = None
            elif command == "train":
                # Downlink integrity: the coordinator stamps a checksum of
                # the clean broadcast; a mismatch here means the payload was
                # damaged on the way down — ask for one clean resend
                # instead of training on garbage (mirror of the uplink
                # corrupt/resend path).
                crc, args = payload
                if crc is not None and payload_checksum(args) != crc:
                    conn.send(("retry", None))
                    continue
                if intra_backend is None:
                    from repro.federated.engine.batched import BatchedBackend
                    intra_backend = BatchedBackend()
                # The previous reply references the delta buffers; let go of
                # it so that they are idle for this round's encode.
                result = last_train = None
                result = _train_shard(residents, intra_backend, residuals,
                                      upload, *args)
                last_train = result
            elif command == "resend":
                # The coordinator detected a corrupted/dropped reply; ship
                # the cached result again (a fresh pickle of clean data).
                if last_train is None:
                    raise RuntimeError("no train reply cached to resend")
                result = last_train
            elif command == "fetch":
                # Mutable state of one resident — eviction pulls only the
                # worker-owned optimizer moments and RNG streams.
                from repro.federated.engine.backends import (
                    snapshot_client_state)
                if intra_backend is not None:
                    intra_backend.flush_hot()
                cid, drop, with_weights = payload
                result = snapshot_client_state(residents[cid],
                                               include_weights=with_weights)
                if drop:
                    del residents[cid]
                    residuals.pop(cid, None)
            elif command == "fetch_all":
                from repro.federated.engine.backends import (
                    snapshot_client_state)
                if intra_backend is not None:
                    intra_backend.flush_hot()
                result = {cid: snapshot_client_state(
                              client, include_weights=payload)
                          for cid, client in residents.items()}
            elif command == "call":
                # Generic escape hatch: run a module-level function against
                # the resident registry (how AdaFGL Step 2 rides the pool).
                # Callees read resident client state, so resident stacked
                # plans must flush first.
                if intra_backend is not None:
                    intra_backend.flush_hot()
                func, args = payload
                result = func(residents, *args)
            else:
                raise ValueError(f"unknown worker command '{command}'")
            conn.send(("ok", result))
        except BaseException:
            try:
                conn.send(("error", traceback.format_exc()))
            except (OSError, ValueError, TypeError):
                break
    conn.close()


class WorkerError(RuntimeError):
    """A command failed inside a worker; carries the worker traceback.

    :attr:`worker` is the failing worker's index, :attr:`command` the
    command in flight when the failure surfaced, and
    :attr:`remote_traceback` the formatted traceback text from the worker
    process (``None`` for coordinator-side failures such as dead pipes) —
    enough to diagnose a mid-round failure from the coordinator log alone.
    """

    def __init__(self, message: str, worker: Optional[int] = None,
                 command: Optional[str] = None,
                 remote_traceback: Optional[str] = None):
        super().__init__(message)
        self.worker = worker
        self.command = command
        self.remote_traceback = remote_traceback


class BroadcastCorrupted(WorkerError):
    """A worker rejected a checksum-failed downlink broadcast.

    Raised coordinator-side when a worker answers a ``train`` command with
    ``("retry", None)``: the payload failed its downlink checksum on
    arrival, the worker did not execute it, and one clean resend of the
    cached broadcast recovers the shard.  Unlike a generic
    :class:`WorkerError` this does **not** poison the pool — the
    request→reply protocol stayed aligned."""


class WorkerCrash(WorkerError):
    """A worker process died (dead pipe) instead of answering a command.

    Unlike a :class:`WorkerError` reply — the worker is alive but the
    command failed — a crash is an infrastructure failure the supervision
    layer can recover from (``on_worker_failure="restart"|"redistribute"``).
    """


class PersistentWorkerPool:
    """A fixed team of command-loop workers, one duplex channel each.

    The channel is provided by a
    :class:`~repro.federated.engine.transport.WorkerTransport` —
    ``PipeTransport`` (the default: today's fork pipes, byte for byte) or
    ``TcpTransport`` (framed sockets; workers may be separate processes or
    remote hosts).  The pool only ever uses the
    ``send``/``recv``/``poll``/``close`` surface both channel kinds share,
    so the command protocol is transport-agnostic.

    **One command in flight per worker.**  A worker owes at most one reply:
    :meth:`send` to a worker whose last reply is unread raises a
    ``RuntimeError`` naming the owed and the refused command.  A command
    written behind an unread reply could deadlock two full pipes — the
    coordinator blocked writing a large payload while the worker is blocked
    writing a large reply nobody reads — and the next :meth:`recv` would
    have to guess which command a reply answers.  Callers that must queue
    work for a busy worker keep it themselves until the owed reply is read
    (:meth:`run_batches`, and the per-worker waiting queue of
    :class:`~repro.federated.engine.backends.ProcessPoolBackend`).

    Supervision: :meth:`respawn` replaces a dead worker's process and
    channel in place, :meth:`mark_dead` retires a slot so surviving workers
    absorb its load, and :meth:`wait` accepts a timeout so round loops can
    enforce deadlines.  Dead channels surface as :class:`WorkerCrash` (with
    the worker index and the command whose reply was expected) rather than
    raw ``OSError``/``EOFError`` — and a TCP link that exhausted its
    heartbeat/reconnect budget surfaces exactly like a dead pipe.
    """

    def __init__(self, num_workers: int, transport=None):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if transport is None:
            from repro.federated.engine.transport import PipeTransport

            transport = PipeTransport()
        self.transport = transport
        #: set when a command failed or a channel died — see :meth:`recv`
        self.poisoned = False
        #: per worker, the command whose reply it owes (None when idle)
        self._commands: List[Optional[str]] = [None] * num_workers
        #: worker slots retired by :meth:`mark_dead`
        self._dead: Set[int] = set()
        self._channels = []
        self._procs = []
        for index in range(num_workers):
            channel, process = transport.spawn(index)
            self._channels.append(channel)
            self._procs.append(process)
        # Reclaim abandoned pools at GC time (daemon workers additionally
        # guarantee nothing survives coordinator exit).  The reaper
        # captures the *live* lists — respawned workers replace their slot
        # in place, so they are reaped too.
        self._reaper = weakref.finalize(
            self, PersistentWorkerPool._reap, self._channels, self._procs,
            transport)

    # ------------------------------------------------------------------
    @property
    def num_workers(self) -> int:
        return len(self._procs)

    @property
    def closed(self) -> bool:
        return not self._reaper.alive

    @property
    def alive_workers(self) -> List[int]:
        """Worker slots not retired by :meth:`mark_dead`."""
        return [worker for worker in range(len(self._procs))
                if worker not in self._dead]

    def is_alive(self, worker: int) -> bool:
        """True when the slot is active and its process is running.

        Externally launched workers (TCP ``mode="external"``) have no local
        process handle; liveness is then the channel's.
        """
        if worker in self._dead:
            return False
        process = self._procs[worker]
        if process is None:
            return not getattr(self._channels[worker], "_dead", False)
        return process.is_alive()

    # ------------------------------------------------------------------
    def _crash(self, worker: int, command: Optional[str],
               cause: BaseException) -> "WorkerCrash":
        self.poisoned = True
        self._commands[worker] = None
        return WorkerCrash(
            f"worker {worker} died (channel closed) "
            f"while '{command}' was in flight: {cause!r}",
            worker=worker, command=command)

    def send(self, worker: int, command: str, payload=None) -> None:
        """Write one command to an idle worker.

        A worker that still owes a reply refuses a second command with a
        ``RuntimeError`` (see the class docstring).  A dead pipe raises
        :class:`WorkerCrash` so the supervision layer can recover instead
        of the raw ``BrokenPipeError`` aborting the run.
        """
        if worker in self._dead:
            raise WorkerCrash(f"worker {worker} has been retired",
                              worker=worker, command=command)
        owed = self._commands[worker]
        if owed is not None:
            raise RuntimeError(
                f"worker {worker} still owes the reply to '{owed}'; "
                f"refusing to send '{command}' behind it (a worker has "
                "at most one command in flight)")
        try:
            self._channels[worker].send((command, payload))
        except (OSError, ValueError, BlockingIOError) as error:
            raise self._crash(worker, command, error) from error
        self._commands[worker] = command

    def owed(self, worker: int) -> Optional[str]:
        """The command whose reply ``worker`` owes, or None when idle."""
        return self._commands[worker]

    def recv(self, worker: int):
        """Collect the reply a worker owes, re-raising worker errors.

        A failed command (or a dead pipe) poisons the pool, so best-effort
        operations (the close-time state sync) are skipped after it.  A
        dead pipe raises :class:`WorkerCrash`; a command that failed
        worker-side raises :class:`WorkerError`, both carrying the worker
        index, the command the reply answers and (for errors) the remote
        traceback.
        """
        command = self._commands[worker]
        try:
            status, result = self._channels[worker].recv()
        except (EOFError, OSError) as error:
            raise self._crash(worker, command, error) from error
        except BaseException:
            self.poisoned = True
            raise
        self._commands[worker] = None
        if status == "retry":
            # The worker refused a checksum-failed broadcast and is waiting
            # for a clean resend.  The request→reply pairing is intact (this
            # *was* the train reply), so the pool is not poisoned — the
            # caller re-sends the cached clean payload.
            raise BroadcastCorrupted(
                f"worker {worker} rejected a corrupted '{command}' "
                "broadcast (downlink checksum mismatch)",
                worker=worker, command=command)
        if status != "ok":
            self.poisoned = True
            raise WorkerError(
                f"worker {worker} failed:\n{result}",
                worker=worker, command=command, remote_traceback=result)
        return result

    def poll(self, worker: int) -> bool:
        """True when a reply from this worker can be read without blocking."""
        if worker in self._dead:
            return False
        try:
            return self._channels[worker].poll(0)
        except (OSError, ValueError):
            # A closed/broken channel is "readable": recv raises the crash.
            return True

    def inject_network_fault(self, worker: int, kind: str,
                             duration: float = 0.0) -> None:
        """Schedule a network fault on a worker's link (TCP channels only).

        ``delay``/``partition``/``reorder``/``drop_msg`` — see
        :meth:`~repro.federated.engine.transport._TcpChannel.inject`.  Pipe
        channels have no wire to perturb; injecting on one is an error the
        fault-plan validation surfaces before any round runs.
        """
        channel = self._channels[worker]
        inject = getattr(channel, "inject", None)
        if inject is None:
            raise WorkerError(
                f"transport {self.transport.name!r} does not support "
                f"network fault injection (kind={kind!r})",
                worker=worker)
        inject(kind, duration)

    def network_stats(self) -> Dict:
        """The transport's cumulative wire statistics (name, frames, ...)."""
        return self.transport.stats()

    # ------------------------------------------------------------------
    def respawn(self, worker: int) -> None:
        """Replace a dead worker's process and channel in the same slot.

        The replacement starts with an empty resident registry — the
        supervision layer re-adopts the lost clients from its recovery
        snapshots after this call.  Over TCP in ``external`` mode the fresh
        channel instead *waits* (within the connect budget) for an operator
        to launch a replacement ``repro.cli worker``.
        """
        try:
            self._channels[worker].close()
        except OSError:
            pass
        old = self._procs[worker]
        if old is not None:
            if old.is_alive():
                old.terminate()
            old.join(timeout=5.0)
        channel, process = self.transport.spawn(worker)
        self._channels[worker] = channel
        self._procs[worker] = process
        self._commands[worker] = None
        self._dead.discard(worker)

    def mark_dead(self, worker: int) -> None:
        """Retire a worker slot (redistribute policy): close, don't replace."""
        self._dead.add(worker)
        try:
            self._channels[worker].close()
        except OSError:
            pass
        process = self._procs[worker]
        if process is not None:
            if process.is_alive():
                process.terminate()
            process.join(timeout=5.0)
        self._commands[worker] = None

    @property
    def safe_for_sync(self) -> bool:
        """True when no worker owes a reply and no command failed.

        A coordinator-side abort between send and recv leaves a reply owed;
        the close-time state sync then stands aside rather than have its
        ``fetch_all`` refused and the original error masked.
        """
        return not self.poisoned and not any(self._commands)

    def call(self, worker: int, command: str, payload=None):
        self.send(worker, command, payload)
        return self.recv(worker)

    def wait(self, workers: Sequence[int],
             timeout: Optional[float] = None) -> List[int]:
        """Block until ≥1 of the given workers has a reply ready; return them.

        The ``as_completed`` primitive of the pipelined round loop: the
        coordinator folds whichever shard lands first instead of draining
        replies in dispatch order behind the slowest worker.  With a
        ``timeout`` (seconds) the wait returns an empty list once the
        deadline passes — the round-timeout primitive.  A worker whose
        channel died also reports ready (EOF is readable); its ``recv``
        then raises :class:`WorkerCrash`, which is how crashes are detected.
        """
        candidates = [worker for worker in workers
                      if worker not in self._dead]
        if not candidates:
            return []
        ready = self.transport.wait(
            [self._channels[worker] for worker in candidates],
            timeout=timeout)
        ready_ids = {id(channel) for channel in ready}
        return [worker for worker in candidates
                if id(self._channels[worker]) in ready_ids]

    def run_batches(self, batches: Dict[int, List[Tuple[str, object]]]
                    ) -> Dict[int, List]:
        """Pump many queued commands through the workers, deadlock-free.

        Each worker's next command is written once its previous reply has
        been read (the one-command invariant of the class docstring), and
        replies are consumed as soon as any connection becomes readable.
        A worker that already owes a reply refuses the first command.

        Returns per-worker result lists in the order the commands were
        queued; worker errors re-raise with the worker traceback.
        """
        pending = {worker: list(commands)
                   for worker, commands in batches.items() if commands}
        results: Dict[int, List] = {worker: [] for worker in batches}
        worker_of = {id(self._channels[worker]): worker
                     for worker in pending}
        for worker in pending:
            self.send(worker, *pending[worker].pop(0))
        outstanding = set(pending)
        while outstanding:
            ready = self.transport.wait(
                [self._channels[worker] for worker in outstanding])
            for channel in ready:
                worker = worker_of[id(channel)]
                results[worker].append(self.recv(worker))
                if pending[worker]:
                    self.send(worker, *pending[worker].pop(0))
                else:
                    outstanding.discard(worker)
        return results

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Stop every worker and release the pipes (idempotent)."""
        if self._reaper.alive:
            self._reaper()

    @staticmethod
    def _reap(channels, procs, transport) -> None:
        # A crashed worker's broken channel (or an already-closed slot
        # retired by mark_dead) must never abort the close: every failure
        # here is swallowed so the survivors are always stopped, joined and
        # reaped.
        for channel in channels:
            try:
                channel.send(("stop", None))
            except (OSError, ValueError, BlockingIOError, EOFError):
                pass
        # Close the coordinator channel ends *before* joining: a worker
        # still blocked writing a large unread reply (e.g. after a mid-round
        # abort) gets a broken channel and exits immediately instead of
        # burning the join timeout; idle workers see EOF at their next recv.
        # (TCP channels additionally drain briefly so the stop command is
        # actually transmitted before the link is torn down.)
        for channel in channels:
            try:
                channel.close()
            except (OSError, ValueError):
                pass
        for process in procs:
            if process is None:
                continue
            process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=1.0)
        try:
            transport.close()
        except (OSError, ValueError):
            pass
