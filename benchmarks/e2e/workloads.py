"""The four workloads: inputs, set-up, timed phase, teardown, oracle.

Each workload receives only generated inputs (graphs, query lists) made
from the run's seed, and is driven through the program's public API.  The
timed phase is a fixed job sized to last ``--seconds`` on the reference
host: a training workload runs ``pace x seconds`` operations in one
``run()`` call (one call keeps the pipelined loop free of a bubble at a
chunk boundary), the serving schedule is ``--seconds`` long by construction.
A slower program therefore shows in ``wall_s`` as well as per operation.

Per-operation latency of the training workloads is taken from one stamp
per round: both round loops call ``history.record_participants`` first
thing in every round, so wrapping that one bound method on the trainer's
own history object times rounds without touching the loop.

Every time is the host's own wall-clock.  Each workload names the per-layer
metrics it owns (:attr:`Workload.layers`); a span it owns that never fired
is an error, not a zero.
"""

from __future__ import annotations

import multiprocessing
import resource
import socket
import sys
import threading
import time
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional

import numpy as np

from benchmarks.e2e import loadgen
from benchmarks.e2e.stats import percentile, self_times
from benchmarks.e2e.trace import OP, Tracer

from repro.autograd import Tensor, functional as F, no_grad, resolve_backend
from repro.core import AdaFGL, AdaFGLConfig, PropagationCache
from repro.core import adafgl as adafgl_module
from repro.core.adafgl import PersonalizedClient
from repro.datasets import load_dataset
from repro.federated import Client, FederatedConfig, FederatedTrainer
from repro.federated.engine import aggregation, backends, batched, persistent
from repro.federated.engine import transport as transport_module
from repro.fgl import build_baseline
from repro.fgl.fedgnn import make_model_factory
from repro.models import GCN
from repro.optim import Adam
from repro.serving import (
    InductiveQuery,
    QueryEngine,
    ServingSnapshot,
    SubgraphLRU,
    TransductiveQuery,
    extract_block,
    receptive_depth,
)
from repro.serving import engine as serving_engine
from repro.simulation import structure_noniid_split

#: a served query slower than this counts as over the limit
LATENCY_LIMIT_MS = 50.0

KERNELS = ("sddmm", "sddmm_backward", "spmm_pattern",
           "spmm_pattern_backward_values", "spmm_pattern_backward_dense",
           "spmm", "spmm_backward", "spmm_batched", "dropout_mask")

#: per-layer metrics every workload owns (the runner adds the ``run.*``,
#: ``op_per_s``, ``failed_share`` and ``parity_gap`` entries itself)
HARNESS_LAYERS = frozenset({
    "op_per_s", "failed_share", "parity_gap", "test_accuracy",
    "comm_bytes_per_op",
    "run.gen_s", "run.warmup_s", "run.teardown_s", "oracle.serial_op_ms",
    "trace.overhead_share", "trace.coverage_share", "trace.unattributed_ms",
    "kernel.calls", "kernel.nnz"})

#: segments a traced timed phase is cut into, alternately untraced / traced
TRACE_PARTS = 4


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set: this process plus its live worker processes.

    Pool workers started through a forkserver are not our direct children,
    so ``RUSAGE_CHILDREN`` misses them; their high-water mark is read from
    ``/proc`` while they are still alive (call this before teardown).
    """
    unit = 1024.0 if sys.platform != "darwin" else 1024.0 * 1024.0
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / unit
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total += float(line.split()[1]) / 1024.0
        except OSError:
            pass
    return total


def _nnz(*args, **kwargs) -> int:
    """Non-zeros a kernel call touched (its first operand's, by contract)."""
    first = args[0] if args else None
    if hasattr(first, "nnz"):
        return int(first.nnz)
    if isinstance(first, np.ndarray):
        return int(first.size)
    return 0


def install_compute(tracer: Tracer) -> None:
    """Autograd, optimiser and kernel spans every workload shares."""
    tracer.wrap(Tensor, "backward", "autograd.backward")
    tracer.wrap(Adam, "step", "optim.step")
    backend = resolve_backend(None)
    for kernel in KERNELS:
        tracer.wrap_kernel(backend, kernel, f"kernel.{kernel}", count=_nnz)


def span_totals(tracer: Tracer, timed: bool) -> Dict[str, List[float]]:
    """name → [calls, inclusive seconds, self seconds].

    ``timed`` selects spans recorded inside an operation (``op >= 0``);
    otherwise the spans of set-up and teardown.
    """
    spans = [span if span[2] is not None else span[:2] + [span[1]] + span[3:]
             for span in tracer.spans]
    own = self_times(spans)
    totals: Dict[str, List[float]] = {}
    for span, self_s in zip(spans, own):
        if (span[4] >= 0) != timed:
            continue
        entry = totals.setdefault(span[0], [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += span[2] - span[1]
        entry[2] += self_s
    return totals


def fired(totals: Dict, name: str) -> List[float]:
    """The totals of a span the workload owns; it must have fired."""
    if name not in totals:
        raise KeyError(f"span '{name}' never fired: its wrapper is gone or "
                       f"the program no longer calls what it wrapped")
    return totals[name]


def per_op_ms(totals: Dict, name: str, ops: int) -> float:
    return fired(totals, name)[1] / ops * 1e3


def kernel_layers(tracer: Tracer, totals: Dict, ops: int,
                  kernels) -> Dict[str, float]:
    names = [f"kernel.{kernel}" for kernel in kernels]
    layers = {f"{name}_ms": per_op_ms(totals, name, ops) for name in names}
    layers["kernel.calls"] = sum(totals[name][0] for name in names) / ops
    layers["kernel.nnz"] = sum(tracer.counts[name] for name in names) / ops
    return layers


def coverage_layers(totals: Dict, ops: int) -> Dict[str, float]:
    """Share of operation wall-clock that lies inside a named layer span."""
    _calls, wall, unattributed = fired(totals, OP)
    return {"trace.coverage_share": 1.0 - unattributed / wall,
            "trace.unattributed_ms": unattributed / ops * 1e3}


def overhead_share(untraced_ms: List[float], traced_ms: List[float]) -> float:
    return percentile(traced_ms, 50) / percentile(untraced_ms, 50) - 1.0


def alternate(ops: int, tracer: Optional[Tracer],
              plain: Callable[[int], tuple], traced: Callable[[int], tuple]):
    """Run ``ops`` operations; returns ``(untraced, traced)``.

    ``plain(n)`` and ``traced(n)`` run ``n`` operations and return
    ``(samples, seconds)``; each side of the result is the same pair summed
    over its segments.  Untraced, every operation goes through ``plain``.
    Traced, the operations are cut into :data:`TRACE_PARTS` segments that
    alternate between the two, so slow drift of the host falls on both
    sides of the tracing-overhead ratio alike.
    """
    if tracer is None:
        return plain(ops), ([], 0.0)
    sides = ([[], 0.0], [[], 0.0])
    for index in range(TRACE_PARTS):
        size = ops // TRACE_PARTS + (index < ops % TRACE_PARTS)
        samples, seconds = (traced if index % 2 else plain)(size)
        sides[index % 2][0].extend(samples)
        sides[index % 2][1] += seconds
    return tuple(sides[0]), tuple(sides[1])


class RoundClock:
    """Times every federated round of one trainer.

    Both round loops call ``history.record_participants`` first thing in
    every round; wrapped on the trainer's own history object it marks where
    one round ends and the next begins.
    """

    def __init__(self, history):
        self._record = history.record_participants
        history.record_participants = self
        self.tracer: Optional[Tracer] = None
        self.stamps: List[float] = []

    def __call__(self, round_index, ids):
        if self.tracer is not None:
            self.tracer.begin_op()      # closes the round before, if any
        self.stamps.append(time.perf_counter())
        return self._record(round_index, ids)

    def time(self, run: Callable[[], object]) -> tuple:
        """Run rounds; ``(ms per round, seconds of the whole call)``."""
        self.stamps = []
        start = time.perf_counter()
        run()
        end = time.perf_counter()
        if self.tracer is not None:
            self.tracer.end_op()
        return (np.diff(self.stamps + [end]) * 1e3).tolist(), end - start


class Workload:
    """One named workload; subclasses fill in the five phases."""

    name = ""
    why = ""
    #: what one operation is
    op = ""
    #: set-ups timed per run (the median is reported); the TCP pool pays
    #: ~7 s per spawn/close cycle, so it affords fewer
    setups = 5
    warmup = 0
    #: operations per second on the reference host; sizes the timed phase
    pace = 0.0
    #: ``correct`` is false above these; the training workloads are held to
    #: the repo's bitwise bar and to zero failed operations
    parity_ceiling = 0.0
    failed_ceiling = 0.0
    #: kernels of :data:`KERNELS` this workload's operations reach
    kernels: tuple = ()
    #: span name → the per-operation ``*_ms`` metric it becomes
    spans: Dict[str, str] = {}
    #: the other per-layer metrics this workload owns
    own: frozenset = frozenset()

    @property
    def layers(self) -> frozenset:
        """Every per-layer metric a traced run of this workload produces."""
        return (HARNESS_LAYERS | self.own | frozenset(self.spans.values())
                | {f"kernel.{kernel}_ms" for kernel in self.kernels})

    @staticmethod
    def min_ops(smoke: bool) -> int:
        """Fewest timed operations: 100 leave 10 samples beyond the p90."""
        return 12 if smoke else 100

    def plan_ops(self, seconds: float, smoke: bool) -> int:
        """Operations of the timed phase: ``seconds`` at the reference pace."""
        return max(self.min_ops(smoke), int(round(seconds * self.pace)))


def timed_result(samples: List[float], seconds: float, attempted: int,
                 layers: Dict[str, float]) -> SimpleNamespace:
    """What a training workload's timed phase hands back to the runner.

    ``samples`` and ``seconds`` are the untraced operations' (all of them
    in an untraced run); an operation that raised would have ended the run.
    """
    return SimpleNamespace(
        latency_ms=samples, ops=len(samples), op_per_s=len(samples) / seconds,
        attempted=attempted, failed=0, layers=layers)


# ----------------------------------------------------------------------
# Step 1: federated rounds
# ----------------------------------------------------------------------
_ROUND_SPANS = {
    "client.get_weights": "client.get_weights_ms",
    "client.set_weights": "client.set_weights_ms",
    "client.evaluate": "client.evaluate_ms",
}
_ROUND_LAYERS = frozenset({
    "client.evaluate_calls", "aggregation.states", "batched.fallback_count",
    "pipeline.eval_ms", "pipeline.broadcast_ms", "pipeline.unattributed_ms"})
_POOL_LAYERS = frozenset({
    "batched.build_eval_plan_s", "pool.spawn_bootstrap_s",
    "pool.worker_busy_share", "pool.shard_sec_max_over_mean",
    "pipeline.straggler_wait_ms", "transport.wire_bytes_sent",
    "transport.frames", "transport.retransmits", "transport.crc_failures",
    "transport.reconnects", "transport.close_s",
    "transport.frame_pack_ms_per_mb", "transport.frame_read_ms_per_mb",
    "codec.bitdelta.encode_ms", "codec.bitdelta.apply_ms",
    "codec.bitdelta.bytes", "codec.topk.encode_ms", "codec.topk.bytes",
    "codec.qtopk.encode_ms", "codec.qtopk.bytes"})


class Step1Workload(Workload):
    op = "round"
    warmup = 5

    def __init__(self, name: str, why: str, *, dataset: str, nodes: int,
                 clients: int, hidden: int, setups: int, smoke_hidden: int,
                 pace: float, kernels: tuple, spans: Dict[str, str], eval_spans: tuple,
                 own: frozenset = frozenset(), **config):
        self.name, self.why, self.setups, self.pace = name, why, setups, pace
        self.dataset, self.nodes, self.clients = dataset, nodes, clients
        self.hidden, self.smoke_hidden = hidden, smoke_hidden
        self.kernels, self.spans = kernels, {**_ROUND_SPANS, **spans}
        #: the spans that make up the round's evaluation tick
        self.eval_spans = eval_spans
        self.own = _ROUND_LAYERS | own
        self.config = config

    @property
    def pooled(self) -> bool:
        return "transport" in self.config

    def generate(self, seed: int, seconds: float, smoke: bool):
        nodes, clients = (360, 6) if smoke else (self.nodes, self.clients)
        graph = load_dataset(self.dataset, seed=seed, num_nodes=nodes)
        return SimpleNamespace(
            seed=seed, smoke=smoke,
            hidden=self.smoke_hidden if smoke else self.hidden,
            subgraphs=structure_noniid_split(graph, clients, seed=seed))

    def _trainer(self, inputs, **config) -> FederatedTrainer:
        return build_baseline(
            "fedgcn", inputs.subgraphs, hidden=inputs.hidden,
            config=FederatedConfig(seed=inputs.seed, eval_every=1, **config))

    def install(self, tracer: Tracer, trainer: FederatedTrainer) -> None:
        install_compute(tracer)
        tracer.wrap(Client, "get_weights", "client.get_weights")
        tracer.wrap(Client, "set_weights", "client.set_weights")
        tracer.wrap(Client, "evaluate", "client.evaluate")
        tracer.wrap(FederatedTrainer, "evaluate", "trainer.evaluate")
        tracer.wrap(batched.BatchedBackend, "run_local_training",
                    "batched.run_local_training")
        tracer.wrap(batched, "build_eval_plan", "batched.build_eval_plan")
        # The fused eval plan's class is private, its ``refresh`` is the
        # public method the round loops call.
        tracer.wrap(batched._FusedEvalPlan, "refresh", "batched.eval_refresh")
        tracer.wrap(type(trainer.strategy), "aggregate",
                    "aggregation.aggregate",
                    count=lambda self, states, *a, **k: len(states))
        tracer.wrap(aggregation.StreamingAggregate, "add",
                    "aggregation.stream_add", count=lambda *a, **k: 1)
        tracer.wrap(aggregation.StreamingAggregate, "seal",
                    "aggregation.seal")
        pool_backend = backends.ProcessPoolBackend
        tracer.wrap(pool_backend, "dispatch_round", "pool.dispatch")
        tracer.wrap(pool_backend, "collect_worker", "pool.collect")
        tracer.wrap(pool_backend, "finish_round", "pool.finish")
        tracer.wrap(persistent.PersistentWorkerPool, "wait", "pool.wait")
        tracer.wrap(backends, "payload_checksum", "pool.verify")
        tracer.wrap(backends, "apply_state_delta", "pool.decode")
        tracer.wrap(backends, "apply_stacked_delta", "pool.decode")

    def setup(self, inputs, tracer: Optional[Tracer]):
        trainer = self._trainer(inputs, **self.config)
        if tracer is not None:
            self.install(tracer, trainer)
        clock = RoundClock(trainer.history)
        trainer.__enter__()   # keep the pool / plans across run() calls
        warmup_ms, _seconds = clock.time(
            lambda: trainer.run(rounds=self.warmup))
        if tracer is not None:
            tracer.remove()
        return SimpleNamespace(
            trainer=trainer, clock=clock, warmup_ms=warmup_ms,
            warmup_loss=list(trainer.history.loss),
            wire_before=dict(self._pipeline_stats(trainer)
                             .get("transport", {})))

    @staticmethod
    def _pipeline_stats(trainer) -> Dict:
        return getattr(trainer.backend, "last_pipeline_stats", None) or {}

    def measure(self, state, seconds: float, smoke: bool,
                tracer: Optional[Tracer]):
        trainer, clock = state.trainer, state.clock
        uploaded = trainer.tracker.total
        ops = self.plan_ops(seconds, smoke)

        def plain(rounds):
            return clock.time(lambda: trainer.run(rounds=rounds))

        def traced(rounds):
            self.install(tracer, trainer)
            clock.tracer = tracer
            try:
                return plain(rounds)
            finally:
                clock.tracer = None
                tracer.remove()

        (samples, seconds), (traced_samples, _s) = alternate(
            ops, tracer, plain, traced)
        layers = {
            # at a fixed round, so that it repeats whatever ``ops`` was
            "test_accuracy": trainer.history.test_accuracy[
                self.warmup + self.min_ops(smoke) - 1],
            "comm_bytes_per_op":
                (trainer.tracker.total - uploaded) / ops * 4.0,
            "run.warmup_s": sum(state.warmup_ms) / 1e3,
            "batched.fallback_count": float(
                getattr(trainer.backend, "last_fallback", None) is not None),
        }
        if self.pooled:
            layers.update(self._pool_layers(state, samples + traced_samples))
        if tracer is not None:
            layers.update(self._traced_layers(
                tracer, len(traced_samples), samples, traced_samples))
        return timed_result(samples, seconds, ops, layers)

    def _pool_layers(self, state, latency_ms) -> Dict[str, float]:
        """What the coordinator already exposes about its workers."""
        trainer = state.trainer
        stats = self._pipeline_stats(trainer)
        rounds = stats["rounds"]
        wire, before = stats["transport"], state.wire_before
        total_ops = len(latency_ms)

        def delta(key):
            return (wire[key] - before[key]) / total_ops

        ratios = []
        owner_of = trainer.backend.owner_of
        for per_client in trainer.history.client_round_sec[-rounds:]:
            by_worker = {owner_of(cid): sec
                         for cid, sec in per_client.items()}
            shard_sec = [sec for sec in by_worker.values() if sec > 0]
            if shard_sec:
                ratios.append(max(shard_sec) / np.mean(shard_sec))
        return {
            # the first round pays spawn, connect and client bootstrap
            "pool.spawn_bootstrap_s": max(
                0.0, (state.warmup_ms[0] - percentile(latency_ms, 50)) / 1e3),
            "pool.worker_busy_share": stats["worker_utilization"],
            "pool.shard_sec_max_over_mean": float(np.mean(ratios)),
            "pipeline.straggler_wait_ms":
                stats["straggler_wait_sec"] / rounds * 1e3,
            "transport.wire_bytes_sent": delta("bytes_sent"),
            "transport.frames": delta("frames_sent")
            + delta("frames_received"),
            "transport.retransmits": wire["retransmits"],
            "transport.crc_failures": wire["crc_failures"],
            "transport.reconnects": wire["reconnects"],
        }

    def _traced_layers(self, tracer, ops, untraced_ms, traced_ms):
        totals = span_totals(tracer, timed=True)
        layers = kernel_layers(tracer, totals, ops, self.kernels)
        layers.update(coverage_layers(totals, ops))
        for name, metric in self.spans.items():
            layers[metric] = per_op_ms(totals, name, ops)
        layers["client.evaluate_calls"] = \
            fired(totals, "client.evaluate")[0] / ops
        layers["aggregation.states"] = sum(
            tracer.counts.get(name, 0) for name in (
                "aggregation.aggregate", "aggregation.stream_add")) / ops
        if self.pooled:
            layers["batched.build_eval_plan_s"] = fired(
                span_totals(tracer, timed=False), "batched.build_eval_plan")[1]
        # The evaluation tick and the broadcast are top-level pieces of a
        # round in both loops; their children are the spans above.
        layers["pipeline.eval_ms"] = (
            sum(per_op_ms(totals, name, ops) for name in self.eval_spans)
            + fired(totals, "client.evaluate")[2] / ops * 1e3)
        layers["pipeline.broadcast_ms"] = layers["client.set_weights_ms"]
        layers["pipeline.unattributed_ms"] = layers["trace.unattributed_ms"]
        layers["trace.overhead_share"] = overhead_share(untraced_ms,
                                                        traced_ms)
        return layers

    def teardown(self, state, tracer: Optional[Tracer]) -> Dict[str, float]:
        traced = tracer is not None and self.pooled
        if traced:
            tracer.wrap(transport_module.TcpTransport, "close",
                        "transport.close")
        state.trainer.__exit__(None, None, None)
        if not traced:
            return {}
        tracer.remove()
        return {"transport.close_s": fired(
            span_totals(tracer, timed=False), "transport.close")[1]}

    def oracle(self, inputs, state, measured, tracer):
        """A fresh serial trainer replays the warm-up rounds bit for bit."""
        trainer = self._trainer(
            inputs, backend="serial",
            local_epochs=self.config.get("local_epochs", 3))
        round_ms, _seconds = RoundClock(trainer.history).time(
            lambda: trainer.run(rounds=self.warmup))
        gap = float(np.max(np.abs(
            np.asarray(trainer.history.loss)
            - np.asarray(state.warmup_loss))))
        layers = {"oracle.serial_op_ms": percentile(round_ms, 50)}
        if tracer is not None and self.pooled:
            layers.update(codec_layers(trainer, state.trainer))
            layers.update(frame_layers())
        return gap, layers


def codec_layers(before: FederatedTrainer,
                 after: FederatedTrainer) -> Dict[str, float]:
    """Isolated codec calls on the workload's own trained states.

    ``before`` holds every client's weights after the warm-up rounds,
    ``after`` after the timed phase: the delta between them is a real
    multi-round update of the real model.  Times are per client state.
    """
    pairs = [(new.get_weights(), old.get_weights())
             for new, old in zip(after.clients, before.clients)]

    def timed(call):
        start = time.perf_counter()
        out = [call(new, old) for new, old in pairs]
        return (time.perf_counter() - start) / len(pairs) * 1e3, out

    def nbytes(payload) -> float:
        if isinstance(payload, np.ndarray):
            return float(payload.nbytes)
        if isinstance(payload, dict):
            return sum(nbytes(value) for value in payload.values())
        if isinstance(payload, (tuple, list)):
            return sum(nbytes(value) for value in payload)
        return 0.0

    bit_ms, bit = timed(persistent.encode_state_delta)
    start = time.perf_counter()
    for (_new, old), delta in zip(pairs, bit):
        persistent.apply_state_delta(old, delta)
    apply_ms = (time.perf_counter() - start) / len(pairs) * 1e3
    topk_ms, topk = timed(
        lambda new, old: persistent.encode_topk_delta(new, old, 32)[0])
    qtopk_ms, qtopk = timed(
        lambda new, old: persistent.encode_topk_delta(new, old, 32,
                                                      bits=8)[0])
    return {
        "codec.bitdelta.encode_ms": bit_ms,
        "codec.bitdelta.apply_ms": apply_ms,
        "codec.bitdelta.bytes": nbytes(bit) / len(pairs),
        "codec.topk.encode_ms": topk_ms,
        "codec.topk.bytes": nbytes(topk) / len(pairs),
        "codec.qtopk.encode_ms": qtopk_ms,
        "codec.qtopk.bytes": nbytes(qtopk) / len(pairs),
    }


#: 1 MiB frames packed and read per isolated frame measurement
FRAME_REPEATS = 16


def frame_layers() -> Dict[str, float]:
    """Isolated pack / read of a 1 MiB frame over a local socket pair."""
    payload = np.random.default_rng(0).integers(
        0, 256, size=1 << 20, dtype=np.uint8).tobytes()
    left, right = socket.socketpair()
    pack_s = read_s = 0.0
    try:
        for _ in range(FRAME_REPEATS):
            start = time.perf_counter()
            frame = transport_module.pack_frame(
                transport_module.F_DATA, 1, 0, payload)
            pack_s += time.perf_counter() - start
            # A frame this size fits no socket buffer: a thread feeds the
            # pair while this one reads (recv + CRC check) under the clock.
            sender = threading.Thread(target=left.sendall, args=(frame,))
            sender.start()
            start = time.perf_counter()
            transport_module.read_frame(right)
            read_s += time.perf_counter() - start
            sender.join()
    finally:
        left.close()
        right.close()
    return {"transport.frame_pack_ms_per_mb": pack_s / FRAME_REPEATS * 1e3,
            "transport.frame_read_ms_per_mb": read_s / FRAME_REPEATS * 1e3}


# ----------------------------------------------------------------------
# Step 2: personalised propagation epochs
# ----------------------------------------------------------------------
class Step2Workload(Workload):
    name = "step2_sparse_4c"
    why = ("Kernel-bound: the paper's own Step 2 (sparse top-k propagation) "
           "on a heterophilous structure-Non-iid split; no communication, no "
           "plan or transport code.")
    op = "epoch over all clients"
    warmup = 3
    pace = 15.0
    #: epochs the oracle replays through ``AdaFGL.run_step2``
    oracle_epochs = 10
    kernels = ("sddmm", "sddmm_backward", "spmm_pattern",
               "spmm_pattern_backward_values", "spmm_pattern_backward_dense",
               "dropout_mask")
    spans = {"autograd.backward": "autograd.backward_ms",
             "optim.step": "optim.step_ms"}
    #: set-up spans (per run, seconds)
    setup_spans = {
        "core.knowledge.propagation": "core.knowledge.propagation_s",
        "core.hcs.hcs": "core.hcs.hcs_s",
        "core.propagation.cache": "core.propagation.cache_s"}
    own = frozenset(setup_spans.values()) | {
        "autograd.forward_ms", "core.adafgl.step1_s",
        "core.propagation.matrix_mb"}

    def generate(self, seed: int, seconds: float, smoke: bool):
        graph = load_dataset("chameleon", seed=seed,
                             num_nodes=400 if smoke else 2000)
        return SimpleNamespace(
            seed=seed, smoke=smoke,
            subgraphs=structure_noniid_split(graph, 4, seed=seed))

    def install_setup(self, tracer: Tracer) -> None:
        tracer.wrap(adafgl_module, "optimized_propagation_matrix",
                    "core.knowledge.propagation")
        tracer.wrap(adafgl_module, "homophily_confidence_score",
                    "core.hcs.hcs")
        tracer.wrap(PropagationCache, "concatenated",
                    "core.propagation.cache")

    def install(self, tracer: Tracer) -> None:
        install_compute(tracer)
        tracer.wrap(PersonalizedClient, "train_epoch",
                    "core.adafgl.train_epoch")

    def _epoch(self, state) -> float:
        return float(np.mean([client.train_epoch()
                              for client in state.clients]))

    def setup(self, inputs, tracer: Optional[Tracer]):
        config = AdaFGLConfig(
            hidden=16 if inputs.smoke else 64, sparse_propagation=True,
            propagation_top_k="auto", seed=inputs.seed)
        if tracer is not None:
            self.install_setup(tracer)
        method = AdaFGL(inputs.subgraphs, config)
        start = time.perf_counter()
        method.run_step1(rounds=3 if inputs.smoke else 10)
        step1_s = time.perf_counter() - start
        clients = [
            PersonalizedClient(index, graph, probs, config)
            for index, (graph, probs) in enumerate(zip(
                method.extractor.client_graphs(),
                method.extractor.client_probabilities()))]
        state = SimpleNamespace(
            method=method, clients=clients, step1_s=step1_s, losses=[],
            warmup_ms=[], accuracy=None,
            accuracy_epoch=self.warmup + self.min_ops(inputs.smoke))
        for _ in range(self.warmup):
            start = time.perf_counter()
            state.losses.append(self._epoch(state))
            state.warmup_ms.append((time.perf_counter() - start) * 1e3)
        if tracer is not None:
            tracer.remove()
        return state

    def _timed(self, state, ops: int, tracer: Optional[Tracer]) -> tuple:
        """``ops`` epochs; ``(ms per epoch, seconds of the whole loop)``."""
        raw_ms, checking_s = [], 0.0
        begin = time.perf_counter()
        for _ in range(ops):
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter()
            state.losses.append(self._epoch(state))
            end = time.perf_counter()
            raw_ms.append((end - start) * 1e3)
            if tracer is not None:
                tracer.end_op()
            if len(state.losses) == state.accuracy_epoch:
                # at a fixed epoch, so that it repeats whatever ``ops`` is;
                # the benchmark's own check, left out of the loop's seconds
                state.accuracy = self._accuracy(state)
                checking_s += time.perf_counter() - end
        return raw_ms, time.perf_counter() - begin - checking_s

    @staticmethod
    def _accuracy(state) -> float:
        """Test accuracy over all clients, weighted by test nodes."""
        correct = total = 0
        for client in state.clients:
            tested = int(client.graph.test_mask.sum())
            correct += client.evaluate("test") * tested
            total += tested
        return correct / max(total, 1)

    def measure(self, state, seconds: float, smoke: bool,
                tracer: Optional[Tracer]):
        ops = self.plan_ops(seconds, smoke)

        def traced(epochs):
            self.install(tracer)
            try:
                return self._timed(state, epochs, tracer)
            finally:
                tracer.remove()

        (samples, seconds), (traced_samples, _s) = alternate(
            ops, tracer, lambda epochs: self._timed(state, epochs, None),
            traced)
        layers = {
            "test_accuracy": state.accuracy,
            "comm_bytes_per_op": 0.0,
            "run.warmup_s": sum(state.warmup_ms) / 1e3,
            "core.adafgl.step1_s": state.step1_s,
            "core.propagation.matrix_mb": sum(
                (matrix.data.nbytes + matrix.indices.nbytes
                 + matrix.indptr.nbytes) / 2 ** 20
                for matrix in (c.propagation for c in state.clients)),
        }
        if tracer is not None:
            ops_traced = len(traced_samples)
            totals = span_totals(tracer, timed=True)
            setup = span_totals(tracer, timed=False)
            layers.update(kernel_layers(tracer, totals, ops_traced,
                                        self.kernels))
            layers.update(coverage_layers(totals, ops_traced))
            for name, metric in self.spans.items():
                layers[metric] = per_op_ms(totals, name, ops_traced)
            for name, metric in self.setup_spans.items():
                layers[metric] = fired(setup, name)[1]
            layers["autograd.forward_ms"] = (
                per_op_ms(totals, "core.adafgl.train_epoch", ops_traced)
                - layers["autograd.backward_ms"] - layers["optim.step_ms"])
            layers["trace.overhead_share"] = overhead_share(samples,
                                                            traced_samples)
        return timed_result(samples, seconds, ops, layers)

    def teardown(self, state, tracer: Optional[Tracer]) -> Dict[str, float]:
        state.method.close()
        return {}

    def oracle(self, inputs, state, measured, tracer):
        """``AdaFGL.run_step2`` on the same instance replays the first
        epochs; the benchmark-driven losses must match it exactly."""
        epochs = min(self.oracle_epochs, len(state.losses))
        start = time.perf_counter()
        history = state.method.run_step2(epochs=epochs)
        epoch_ms = (time.perf_counter() - start) / epochs * 1e3
        gap = float(np.max(np.abs(
            np.asarray(history.loss[:epochs])
            - np.asarray(state.losses[:epochs]))))
        return gap, {"oracle.serial_op_ms": epoch_ms}


# ----------------------------------------------------------------------
# Serving: a mixed open-loop query stream
# ----------------------------------------------------------------------
class _StampedLog(list):
    """``QueryEngine.batch_log`` that also stamps when each flush began."""

    def __init__(self):
        super().__init__()
        self.stamps: List[float] = []

    def append(self, record) -> None:
        self.stamps.append(time.perf_counter())
        super().append(record)


class ServeWorkload(Workload):
    name = "serve_mix_8c"
    why = ("Independent users, so an open loop: 80% table lookups set p50 "
           "(batching delay), 20% Zipf-skewed inductive queries set p90 "
           "(extract + forward, LRU); the burst drain is where fusing pays.")
    op = "query"
    #: open-loop arrival rate, queries per second
    rate = 400.0
    #: share of ``--seconds`` the open-loop phase lasts; the bursts take
    #: about the rest
    open_loop_share = 0.5
    #: drains of the whole stream, back-to-back; the host's speed moves in
    #: episodes of seconds, so the median drain needs them spread over ~7 s
    bursts = 21
    warmup = 200
    probes = 256
    #: the query mix: share of inductive queries; their ``(client, anchors)``
    #: pairs are drawn Zipf-skewed from a pool larger than the engine's
    #: subgraph LRU, so the cache both hits and evicts
    inductive_share = 0.2
    anchor_pool = 400
    zipf_exponent = 1.1
    anchors_per_query = 2
    #: an inductive query's new node is a noisy copy of its first anchor
    feature_noise = 0.1
    lru_size = 128
    #: traced-only rate ladder (queries per second, one second each)
    ladder = (200.0, 800.0, 1600.0, 3200.0)
    #: isolated table lookups timed in the traced run
    lookups = 20000
    kernels = ("spmm",)
    own = frozenset({
        "loadgen.late_ms_p99", "serving.snapshot.freeze_s",
        "serving.snapshot.table_lookup_us", "serving.engine.table_ms_p50",
        "serving.engine.inductive_ms_p50", "serving.engine.inductive_ms_p90",
        "serving.engine.op_ms_p99", "serving.engine.over_limit_share",
        "serving.engine.batch_mean", "serving.engine.deadline_share",
        "serving.engine.fused_share", "serving.engine.lru_hit_share",
        "serving.engine.lru_evictions", "serving.engine.rejected",
        "serving.subgraph.extract_ms", "serving.forward_ms",
        "serving.ladder.r200.p90_ms", "serving.ladder.r800.p90_ms",
        "serving.ladder.max_rate_in_limit"})

    def generate(self, seed: int, seconds: float, smoke: bool):
        graph = load_dataset("cora", seed=seed,
                             num_nodes=480 if smoke else 4000)
        subgraphs = structure_noniid_split(graph, 8, seed=seed)
        rng = np.random.default_rng([seed, 0x5E12E])
        ops = max(400 if smoke else 1000,
                  int(round(self.rate * seconds * self.open_loop_share)))
        return SimpleNamespace(
            seed=seed, smoke=smoke, subgraphs=subgraphs,
            hidden=16 if smoke else 64,
            mix=self._query_mix(subgraphs, ops, rng,
                                self.anchor_pool // 10 if smoke
                                else self.anchor_pool))

    def _query_mix(self, subgraphs, count: int, rng: np.random.Generator,
                   anchor_pool: int) -> SimpleNamespace:
        """``count`` queries with ground truth and a Poisson send schedule.

        An inductive query carries its first anchor's label: its new node
        is a noisy copy of that anchor.
        """
        pool = []
        for _ in range(anchor_pool):
            client = int(rng.integers(len(subgraphs)))
            nodes = subgraphs[client].num_nodes
            anchors = rng.choice(nodes, replace=False,
                                 size=min(self.anchors_per_query, nodes))
            pool.append((client, tuple(int(node) for node in anchors)))
        weights = np.arange(1, anchor_pool + 1,
                            dtype=np.float64) ** -self.zipf_exponent
        weights /= weights.sum()

        queries, truth = [], []
        for _ in range(count):
            if rng.random() < self.inductive_share:
                client, anchors = pool[int(rng.choice(anchor_pool,
                                                      p=weights))]
                graph = subgraphs[client]
                base = np.asarray(graph.features)[anchors[0]]
                noise = self.feature_noise * rng.standard_normal(base.shape)
                queries.append(InductiveQuery(client, base + noise, anchors))
                truth.append(int(graph.labels[anchors[0]]))
            else:
                client = int(rng.integers(len(subgraphs)))
                node = int(rng.integers(subgraphs[client].num_nodes))
                queries.append(TransductiveQuery(client, node))
                truth.append(int(subgraphs[client].labels[node]))
        return SimpleNamespace(
            queries=queries, truth=np.asarray(truth),
            # scheduled send offsets (seconds) of the open-loop phase
            offsets=np.cumsum(rng.exponential(1.0 / self.rate, size=count)))

    def install(self, tracer: Tracer) -> None:
        install_compute(tracer)
        tracer.wrap(ServingSnapshot, "transductive",
                    "serving.snapshot.transductive")
        tracer.wrap(SubgraphLRU, "get", "serving.cache.get")
        tracer.wrap(serving_engine, "extract_block",
                    "serving.subgraph.extract")
        tracer.wrap(batched, "build_eval_plan", "serving.plan.build")
        tracer.wrap(GCN, "forward", "serving.forward")

    def setup(self, inputs, tracer: Optional[Tracer]):
        config = FederatedConfig(rounds=4 if inputs.smoke else 20,
                                 local_epochs=3, seed=inputs.seed)
        trainer = build_baseline("fedgcn", inputs.subgraphs, config=config,
                                 hidden=inputs.hidden)
        trainer.run()
        start = time.perf_counter()
        snapshot = ServingSnapshot.from_trainer(trainer)
        freeze_s = time.perf_counter() - start
        engine = QueryEngine(
            snapshot, max_batch=32, max_delay_ms=2.0,
            cache_size=self.lru_size // 16 if inputs.smoke else self.lru_size)
        start = time.perf_counter()
        for query in inputs.mix.queries[:self.warmup]:
            engine.submit(query).result(timeout=60)
        return SimpleNamespace(
            trainer=trainer, snapshot=snapshot, engine=engine,
            mix=inputs.mix, freeze_s=freeze_s,
            warmup_s=time.perf_counter() - start)

    # ------------------------------------------------------------------
    def measure(self, state, seconds: float, smoke: bool,
                tracer: Optional[Tracer]):
        mix, engine = state.mix, state.engine
        queries = mix.queries
        cache = engine.cache
        cache_before = (cache.hits, cache.misses, cache.evictions)
        # Stamps when every flush began (the traced decomposition needs
        # them); a list subclass, so the engine notices nothing.
        engine.batch_log = _StampedLog()
        phases = []     # of the open loop, in stream order

        def plain(size):
            """The next ``size`` queries, their schedule rebased to now."""
            start = sum(phase.attempted for phase in phases)
            base = mix.offsets[start - 1] if start else 0.0
            phases.append(loadgen.open_loop(
                engine, queries[start:start + size],
                mix.offsets[start:start + size] - base))
            return [phases[-1]], phases[-1].duration_s

        def traced(size):
            self.install(tracer)
            tracer.op = 0
            try:
                return plain(size)
            finally:
                tracer.op = -1
                tracer.remove()

        # Phase A: the open loop (traced, every other segment of the stream
        # carries the spans).  Phase B: the same queries back-to-back.
        (untraced, _s), (traced_phases, _s) = alternate(
            len(queries), tracer, plain, traced)
        hits, misses, evictions = (
            after - before for after, before in zip(
                (cache.hits, cache.misses, cache.evictions), cache_before))
        batches = list(engine.batch_log)
        drains = [loadgen.burst(engine, queries) for _ in range(self.bursts)]

        answered = [result for phase in phases for result in phase.results]
        labels = np.array([result.label if result is not None else -1
                           for result in answered])
        latency = np.array([ms for phase in phases
                            for ms in phase.latency_ms])
        plain_ms = [ms for phase in untraced for ms in phase.latency_ms]
        inductive = np.array([isinstance(query, InductiveQuery)
                              for query, result in zip(queries, answered)
                              if result is not None])
        paths = [result.path for result in answered if result is not None]
        late = [ms for phase in phases for ms in phase.late_ms]

        def share(count, total):
            return count / total if total else 0.0

        layers = {
            "test_accuracy": float(np.mean(labels == mix.truth)),
            "comm_bytes_per_op": 0.0,
            "run.warmup_s": state.warmup_s,
            "loadgen.late_ms_p99": percentile(late, 99),
            "serving.snapshot.freeze_s": state.freeze_s,
            "serving.engine.table_ms_p50":
                percentile(latency[~inductive], 50),
            "serving.engine.inductive_ms_p50":
                percentile(latency[inductive], 50),
            "serving.engine.inductive_ms_p90":
                percentile(latency[inductive], 90),
            "serving.engine.op_ms_p99": percentile(latency, 99),
            "serving.engine.over_limit_share":
                float(np.mean(latency > LATENCY_LIMIT_MS)),
            "serving.engine.batch_mean":
                float(np.mean([record["size"] for record in batches])),
            "serving.engine.deadline_share": share(
                sum(record["trigger"] == "deadline" for record in batches),
                len(batches)),
            "serving.engine.fused_share": share(
                paths.count("fused"), len(paths) - paths.count("table")),
            "serving.engine.lru_hit_share": share(hits, hits + misses),
            "serving.engine.lru_evictions": float(evictions),
            "serving.engine.rejected": float(engine.rejected),
        }
        if tracer is not None:
            layers.update(self._traced_layers(state, tracer, traced_phases,
                                              plain_ms))
        every = phases + drains
        return SimpleNamespace(
            answers=list(zip(queries, answered))
            + list(zip(queries, drains[-1].results)),
            latency_ms=plain_ms, ops=len(queries),
            # the saturated rate: the median burst's answered queries over
            # its drain time
            op_per_s=percentile([drain.succeeded / drain.duration_s
                                 for drain in drains], 50),
            attempted=sum(phase.attempted for phase in every),
            failed=sum(phase.failed + phase.refused for phase in every),
            layers=layers,
            errors=[error for phase in every for error in phase.errors][:5])

    def _traced_layers(self, state, tracer, traced, untraced_ms):
        """Per-query decomposition: late + queue wait + service.

        ``late`` is the generator's own delay, ``queue wait`` runs from
        admission to the start of the flush that served the query (stamped
        by the batch log), ``service`` from there to completion.  A
        flush's unattributed time is its wall-clock outside every named
        span; each query is charged its whole flush's unattributed time, so
        the coverage share is a lower bound.
        """
        totals = span_totals(tracer, timed=True)
        engine = state.engine
        starts = np.asarray(engine.batch_log.stamps)
        done = [result for phase in traced for result in phase.results
                if result is not None]
        traced_ms = [ms for phase in traced for ms in phase.latency_ms]
        completed = np.array([result.completed for result in done])
        flush = np.searchsorted(starts, completed, side="right") - 1
        flush_end = np.zeros(len(starts))
        np.maximum.at(flush_end, flush, completed)
        # Worker-thread spans that are direct children of no other span
        # are the named pieces of a flush.
        named = np.zeros(len(starts))
        for span in tracer.spans:
            if span[4] >= 0 and span[3] < 0 and span[2] is not None:
                index = np.searchsorted(starts, span[1], side="right") - 1
                if 0 <= index < len(named) \
                        and span[2] <= flush_end[index] + 1e-3:
                    named[index] += span[2] - span[1]
        unattributed = np.clip(flush_end - starts - named, 0.0, None)
        latency_s = np.asarray(traced_ms) / 1e3
        inductive = sum(result.path != "table" for result in done)
        extract = fired(totals, "serving.subgraph.extract")
        layers = kernel_layers(tracer, totals, len(done), self.kernels)
        layers.update({
            "trace.coverage_share":
                1.0 - float(unattributed[flush].sum() / latency_s.sum()),
            "trace.unattributed_ms":
                float(unattributed[flush].mean() * 1e3),
            "trace.overhead_share": overhead_share(untraced_ms, traced_ms),
            "serving.subgraph.extract_ms": extract[1] / extract[0] * 1e3,
            "serving.forward_ms":
                fired(totals, "serving.forward")[1] / inductive * 1e3,
        })
        layers.update(self._isolated(state))
        layers.update(self._ladder(state))
        return layers

    def _isolated(self, state) -> Dict[str, float]:
        entry = state.snapshot.entry(state.snapshot.client_ids[0])
        nodes = entry.probs.shape[0]
        start = time.perf_counter()
        for index in range(self.lookups):
            state.snapshot.transductive(entry.client_id, index % nodes)
        return {"serving.snapshot.table_lookup_us":
                (time.perf_counter() - start) / self.lookups * 1e6}

    def _ladder(self, state) -> Dict[str, float]:
        """p90 at a few fixed rates, and the highest rate inside the limit."""
        queries = state.mix.queries
        rng = np.random.default_rng(0)
        layers, best, in_limit = {}, 0.0, True
        for rate in self.ladder:
            count = min(int(rate), len(queries))
            offsets = np.cumsum(rng.exponential(1.0 / rate, size=count))
            phase = loadgen.open_loop(state.engine, queries[:count], offsets)
            p90 = percentile(phase.latency_ms, 90)
            if rate in (200.0, 800.0):
                layers[f"serving.ladder.r{int(rate)}.p90_ms"] = p90
            in_limit = in_limit and p90 <= LATENCY_LIMIT_MS \
                and not phase.failed and not phase.refused
            if in_limit:
                best = rate
        layers["serving.ladder.max_rate_in_limit"] = best
        return layers

    def teardown(self, state, tracer: Optional[Tracer]) -> Dict[str, float]:
        state.engine.close()
        return {}

    def oracle(self, inputs, state, measured, tracer):
        """Share of served answers not bitwise-equal to offline inference.

        Every transductive answer is compared with the trained client's
        own ``predict()`` row; ``probes`` sampled inductive answers with a
        forward on a fresh model instance (nothing shared with the engine,
        so its caches cannot vouch for themselves).
        """
        offline = {}
        for client in state.trainer.clients:
            client.invalidate_cache()
            offline[client.client_id] = np.array(client.predict(), copy=True)
        factory = make_model_factory("gcn", hidden=inputs.hidden,
                                     seed=inputs.seed)
        answers = [(query, result) for query, result in measured.answers
                   if result is not None]
        inductive = [index for index, (query, _r) in enumerate(answers)
                     if isinstance(query, InductiveQuery)]
        rng = np.random.default_rng([inputs.seed, 0x0AC1E])
        probed = set(rng.choice(inductive, replace=False,
                                size=min(self.probes, len(inductive)))
                     .tolist()) if inductive else set()
        checked = mismatched = 0
        start = time.perf_counter()
        for index, (query, result) in enumerate(answers):
            if isinstance(query, TransductiveQuery):
                expected = offline[query.client_id][query.node_id]
            elif index in probed:
                expected = self._fresh_forward(state.snapshot, factory, query)
            else:
                continue
            checked += 1
            mismatched += not np.array_equal(result.probs, expected)
        return mismatched / max(checked, 1), {
            "oracle.serial_op_ms":
                (time.perf_counter() - start) / max(checked, 1) * 1e3}

    @staticmethod
    def _fresh_forward(snapshot, factory, query) -> np.ndarray:
        entry = snapshot.entry(query.client_id)
        model = factory(entry.graph)
        model.load_state_dict(entry.state)
        model.eval()
        block = extract_block(entry.graph, query.anchors,
                              receptive_depth(model))
        features = np.concatenate(
            [block.features, query.features.reshape(1, -1)], axis=0)
        with no_grad():
            logits = model(Tensor(features), block.adjacency)
            return F.softmax(logits, axis=-1).numpy()[block.new_index]


# ----------------------------------------------------------------------
WORKLOADS: Dict[str, Workload] = {workload.name: workload for workload in (
    Step1Workload(
        "step1_batched_50c",
        "In-process round over many small clients: batched plan, per-client "
        "eval, barrier fold; no codec, no transport, so pool, codec and "
        "transport changes must show no change here.",
        dataset="cora", nodes=3000, clients=50, hidden=64, smoke_hidden=16,
        setups=5, pace=20.0,
        kernels=("spmm", "spmm_backward", "spmm_batched"),
        spans={"autograd.backward": "autograd.backward_ms",
               "batched.run_local_training": "batched.run_local_training_ms",
               "aggregation.aggregate": "aggregation.aggregate_ms"},
        eval_spans=("trainer.evaluate",),
        backend="batched", local_epochs=3),
    Step1Workload(
        "step1_pool_tcp_60c",
        "Coordinator-bound distributed round: 2 TCP workers, bitdelta "
        "uploads, pipelined loop with streaming fold and fused eval; uses "
        "the batched plan and aggregation differently from the in-process "
        "workload.",
        dataset="citeseer", nodes=3000, clients=60, hidden=256,
        smoke_hidden=32, setups=3, pace=10.0, kernels=("spmm",),
        spans={"batched.eval_refresh": "batched.eval_refresh_ms",
               "aggregation.stream_add": "aggregation.stream_add_ms",
               "aggregation.seal": "aggregation.seal_ms",
               "pool.dispatch": "pool.dispatch_ms",
               "pool.wait": "pool.wait_ms",
               "pool.collect": "pool.collect_ms",
               "pool.verify": "pool.verify_ms",
               "pool.decode": "pool.decode_ms"},
        eval_spans=("batched.eval_refresh", "trainer.evaluate"),
        own=_POOL_LAYERS, backend="process_pool", num_workers=2,
        transport="tcp", delta_codec="bitdelta", local_epochs=1),
    Step2Workload(),
    ServeWorkload(),
)}
