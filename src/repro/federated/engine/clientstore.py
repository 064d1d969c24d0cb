"""Memory-mapped lazy client store: federation state that never loads at once.

Simulating ~10^5 federated clients breaks the resident-``Client`` model long
before compute does: holding every subgraph (features, CSR propagation
blocks, labels, masks) plus every optimizer's moments in coordinator memory
is O(total nodes) RSS, and pickling whole clients to workers is O(total
nodes) IPC.  This module keeps the *entire* federation on disk instead:

* :meth:`ClientStore.create` streams an iterable of client subgraphs into
  flat binary arenas (features / CSR indptr-indices-data / labels / masks)
  plus a fixed-size **mutable slot** per client — weights, Adam moments,
  dropout RNG streams — written sparsely so an untrained federation costs
  no disk at all.  Creation is single-pass and streaming: the coordinator
  never holds more than one subgraph.
* :meth:`ClientStore.materialize` rebuilds one full
  :class:`~repro.federated.client.Client` from memory-mapped slices —
  features, labels and CSR arrays are zero-copy views into the mapping, so
  materializing a client touches only its own pages.  Clients that have
  trained before resume their exact weights, moments and RNG streams
  (bit-for-bit); fresh clients get the pristine seed-built model.
* :class:`StoreFederatedTrainer` runs hierarchical FedAvg over a store:
  per-round participants are drawn from the dedicated subsampling stream
  (:func:`~repro.federated.trainer.select_participant_ids`), workers
  materialize only their sampled residents, fold trained states into one
  :class:`~repro.federated.server.DeterministicSum` partial per shard (edge
  aggregation), persist the mutable slots back, and drop the clients —
  coordinator RSS stays flat in the client count.

The store directory layout::

    meta.json     — spec, arena sizes, slot layout (versioned)
    index.npy     — per-client (node_start, edge_start, nodes, nnz, samples)
    features.bin  — float64, (total_nodes, num_features)
    indptr.bin    — int64, one (n_i + 1)-run per client
    indices.bin   — int64, total_nnz
    data.bin      — float64, total_nnz
    labels.bin    — int64, total_nodes
    masks.bin     — uint8, (total_nodes, 3): train / val / test columns
    mutable.bin   — float64, one slot per client (sparse until trained):
                    [flag, adam_step, weights(P), m(P), v(P), rng(6R)]
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.federated.client import Client
from repro.federated.communication import CommunicationTracker
from repro.federated.engine.config import check_composition
from repro.federated.engine.transport import make_transport
from repro.federated.server import DeterministicSum
from repro.graph import Graph
from repro.metrics import TrainingHistory, count_weighted_mean

#: layout of ``meta.json``: bumped when it or :class:`ModelSpec` changes
_FORMAT_VERSION = 2
_MASK64 = (1 << 64) - 1
#: uint64 words per packed PCG64 generator state
_RNG_WORDS = 6


@dataclass
class ModelSpec:
    """Picklable recipe for rebuilding every client's model worker-side.

    Model factories are closures (unpicklable); the store persists this spec
    in ``meta.json`` instead and every process rebuilds the factory through
    :func:`repro.fgl.make_model_factory`.  All clients share one spec — the
    homogeneous-architecture contract FedAvg already requires.
    """

    model_name: str = "gcn"
    hidden: int = 64
    dropout: float = 0.5
    seed: int = 0
    k: Optional[int] = None

    def factory(self):
        from repro.fgl import make_model_factory

        return make_model_factory(self.model_name, hidden=self.hidden,
                                  dropout=self.dropout, seed=self.seed,
                                  k=self.k)


def _pack_rng_state(state: Dict) -> np.ndarray:
    """PCG64 generator state → 6 uint64 words (128-bit ints split lo/hi)."""
    inner = state["state"]
    words = np.empty(_RNG_WORDS, dtype=np.uint64)
    words[0] = inner["state"] & _MASK64
    words[1] = (inner["state"] >> 64) & _MASK64
    words[2] = inner["inc"] & _MASK64
    words[3] = (inner["inc"] >> 64) & _MASK64
    words[4] = int(state["has_uint32"]) & _MASK64
    words[5] = int(state["uinteger"]) & _MASK64
    return words


def _unpack_rng_state(words: np.ndarray) -> Dict:
    """Invert :func:`_pack_rng_state`."""
    return {
        "bit_generator": "PCG64",
        "state": {"state": int(words[0]) | (int(words[1]) << 64),
                  "inc": int(words[2]) | (int(words[3]) << 64)},
        "has_uint32": int(words[4]),
        "uinteger": int(words[5]),
    }


class ClientStore:
    """Memory-mapped on-disk arena holding an entire federation's clients."""

    def __init__(self, path: str, meta: Dict, index: np.ndarray,
                 writable: bool = True):
        self.path = path
        self.meta = meta
        self.index = index
        self.spec = ModelSpec(**meta["spec"])
        self.num_clients = int(meta["num_clients"])
        self.num_features = int(meta["num_features"])
        self.num_classes = int(meta["num_classes"])
        self.param_total = int(meta["param_total"])
        self.num_rngs = int(meta["num_rngs"])
        self.slot_size = int(meta["slot_size"])
        total_nodes = int(meta["total_nodes"])
        total_nnz = int(meta["total_nnz"])
        mode = "r"
        self._features = np.memmap(
            os.path.join(path, "features.bin"), dtype=np.float64, mode=mode,
            shape=(total_nodes, self.num_features))
        self._indptr = np.memmap(
            os.path.join(path, "indptr.bin"), dtype=np.int64, mode=mode,
            shape=(total_nodes + self.num_clients,))
        self._indices = np.memmap(
            os.path.join(path, "indices.bin"), dtype=np.int64, mode=mode,
            shape=(total_nnz,)) if total_nnz else np.empty(0, dtype=np.int64)
        self._data = np.memmap(
            os.path.join(path, "data.bin"), dtype=np.float64, mode=mode,
            shape=(total_nnz,)) if total_nnz \
            else np.empty(0, dtype=np.float64)
        self._labels = np.memmap(
            os.path.join(path, "labels.bin"), dtype=np.int64, mode=mode,
            shape=(total_nodes,))
        self._masks = np.memmap(
            os.path.join(path, "masks.bin"), dtype=np.uint8, mode=mode,
            shape=(total_nodes, 3))
        self._mutable = np.memmap(
            os.path.join(path, "mutable.bin"), dtype=np.float64,
            mode="r+" if writable else "r",
            shape=(self.num_clients, self.slot_size))

    # ------------------------------------------------------------------
    # Creation (single streaming pass)
    # ------------------------------------------------------------------
    @staticmethod
    def create(path: str, subgraphs: Iterable[Graph], spec: ModelSpec
               ) -> "ClientStore":
        """Stream client subgraphs into a new store directory.

        ``subgraphs`` may be a generator — exactly one subgraph is held in
        memory at a time, so a 10^5-client federation can be written with a
        flat RSS.  Every subgraph must share the feature width and global
        class count (the homogeneous-model contract).  The mutable arena is
        created as a sparse file: an untrained store costs index + graph
        bytes only.
        """
        os.makedirs(path, exist_ok=True)
        index_rows: List[Tuple[int, int, int, int, int]] = []
        node_start = edge_start = 0
        num_features = num_classes = None
        template_model = None
        with open(os.path.join(path, "features.bin"), "wb") as f_feat, \
                open(os.path.join(path, "indptr.bin"), "wb") as f_ptr, \
                open(os.path.join(path, "indices.bin"), "wb") as f_idx, \
                open(os.path.join(path, "data.bin"), "wb") as f_dat, \
                open(os.path.join(path, "labels.bin"), "wb") as f_lab, \
                open(os.path.join(path, "masks.bin"), "wb") as f_msk:
            for graph in subgraphs:
                if num_features is None:
                    num_features = graph.num_features
                    num_classes = graph.num_classes
                    template_model = spec.factory()(graph)
                elif graph.num_features != num_features:
                    raise ValueError(
                        "every stored subgraph must share the feature "
                        f"width (got {graph.num_features}, expected "
                        f"{num_features})")
                adj = sp.csr_matrix(graph.adjacency, dtype=np.float64)
                n, nnz = graph.num_nodes, int(adj.nnz)
                f_feat.write(np.ascontiguousarray(
                    graph.features, dtype=np.float64).tobytes())
                f_ptr.write(np.ascontiguousarray(
                    adj.indptr, dtype=np.int64).tobytes())
                f_idx.write(np.ascontiguousarray(
                    adj.indices, dtype=np.int64).tobytes())
                f_dat.write(np.ascontiguousarray(
                    adj.data, dtype=np.float64).tobytes())
                f_lab.write(np.ascontiguousarray(
                    graph.labels, dtype=np.int64).tobytes())
                masks = np.stack([graph.train_mask, graph.val_mask,
                                  graph.test_mask], axis=1)
                f_msk.write(np.ascontiguousarray(
                    masks, dtype=np.uint8).tobytes())
                samples = max(1, int(graph.train_mask.sum()))
                index_rows.append((node_start, edge_start, n, nnz, samples))
                node_start += n
                edge_start += nnz
        if not index_rows:
            raise ValueError("cannot create a ClientStore from zero clients")
        params = template_model.state_dict()
        param_total = sum(int(np.asarray(v).size) for v in params.values())
        from repro.federated.engine.backends import _module_rngs

        num_rngs = len(_module_rngs(template_model))
        slot_size = 2 + 3 * param_total + _RNG_WORDS * num_rngs
        index = np.asarray(index_rows, dtype=np.int64)
        np.save(os.path.join(path, "index.npy"), index)
        # Sparse mutable arena: seek-and-truncate allocates no data blocks.
        with open(os.path.join(path, "mutable.bin"), "wb") as f_mut:
            f_mut.truncate(len(index_rows) * slot_size * 8)
        meta = {
            "format": _FORMAT_VERSION,
            "spec": asdict(spec),
            "num_clients": len(index_rows),
            "num_features": int(num_features),
            "num_classes": int(num_classes),
            "total_nodes": int(node_start),
            "total_nnz": int(edge_start),
            "param_total": param_total,
            "param_shapes": {key: list(np.shape(value))
                             for key, value in params.items()},
            "num_rngs": num_rngs,
            "slot_size": slot_size,
        }
        with open(os.path.join(path, "meta.json"), "w") as f_meta:
            json.dump(meta, f_meta, indent=2)
        return ClientStore(path, meta, index)

    @staticmethod
    def open(path: str, writable: bool = True) -> "ClientStore":
        """Map an existing store; O(1) in the federation size."""
        with open(os.path.join(path, "meta.json")) as f_meta:
            meta = json.load(f_meta)
        if meta.get("format") != _FORMAT_VERSION:
            raise ValueError(
                f"unsupported ClientStore format {meta.get('format')!r}")
        index = np.load(os.path.join(path, "index.npy"))
        return ClientStore(path, meta, index, writable=writable)

    # ------------------------------------------------------------------
    # Per-client access
    # ------------------------------------------------------------------
    def num_samples(self, cid: int) -> int:
        """FedAvg weight of a client, read from the index (no page touch)."""
        return int(self.index[cid, 4])

    def graph(self, cid: int) -> Graph:
        """Rebuild one client subgraph from zero-copy memory-mapped views."""
        node_start, edge_start, n, nnz, _ = (int(v) for v in self.index[cid])
        indptr = self._indptr[node_start + cid:node_start + cid + n + 1]
        adjacency = sp.csr_matrix(
            (self._data[edge_start:edge_start + nnz],
             self._indices[edge_start:edge_start + nnz],
             np.asarray(indptr) - int(indptr[0])), shape=(n, n))
        return Graph(
            adjacency=adjacency,
            features=self._features[node_start:node_start + n],
            labels=self._labels[node_start:node_start + n],
            train_mask=self._masks[node_start:node_start + n, 0] != 0,
            val_mask=self._masks[node_start:node_start + n, 1] != 0,
            test_mask=self._masks[node_start:node_start + n, 2] != 0,
            name=f"store-{cid}",
            metadata={"num_classes": self.num_classes},
        )

    def materialize(self, cid: int, lr: float = 0.01,
                    weight_decay: float = 5e-4,
                    local_epochs: int = 3) -> Client:
        """Build the full client: graph views + model + restored state.

        A never-trained client gets the pristine spec-built model (identical
        across clients — shared seed, shared shapes); a trained one resumes
        its exact weights, Adam moments and dropout RNG streams.
        """
        graph = self.graph(cid)
        model = self.spec.factory()(graph)
        client = Client(cid, graph, model, lr=lr, weight_decay=weight_decay,
                        local_epochs=local_epochs)
        slot = self._mutable[cid]
        if slot[0] != 0.0:
            self._restore_mutable(client, slot)
        return client

    def _restore_mutable(self, client: Client, slot: np.ndarray) -> None:
        from repro.federated.engine.backends import _module_rngs

        p = self.param_total
        offset = 2
        state = {}
        for key, shape in self.meta["param_shapes"].items():
            size = int(np.prod(shape)) if shape else 1
            state[key] = slot[offset:offset + size].reshape(shape).copy()
            offset += size
        client.set_weights(state)
        opt = client.optimizer
        opt._step_count = int(slot[1])
        for moments in (opt._m, opt._v):
            for j, param in enumerate(opt.parameters):
                size = param.data.size
                if opt._step_count:
                    # A never-stepped optimizer keeps its moments uncreated.
                    moments[j] = slot[offset:offset + size].reshape(
                        param.data.shape).copy()
                offset += size
        words = np.asarray(
            slot[offset:offset + _RNG_WORDS * self.num_rngs]
        ).view(np.uint64)
        for position, rng in enumerate(_module_rngs(client.model)):
            rng.bit_generator.state = _unpack_rng_state(
                words[position * _RNG_WORDS:(position + 1) * _RNG_WORDS])
        assert offset + _RNG_WORDS * self.num_rngs == 2 + 3 * p \
            + _RNG_WORDS * self.num_rngs

    def save_mutable(self, client: Client) -> None:
        """Persist a trained client's mutable state back into its slot."""
        from repro.federated.engine.backends import _module_rngs

        slot = self._mutable[client.client_id]
        slot[0] = 1.0
        slot[1] = float(client.optimizer._step_count)
        offset = 2
        state = client.model.state_dict()
        for key in self.meta["param_shapes"]:
            value = np.asarray(state[key], dtype=np.float64)
            slot[offset:offset + value.size] = value.ravel()
            offset += value.size
        opt = client.optimizer
        for which in (0, 1):
            for j in range(len(opt.parameters)):
                array = opt.moments(j)[which]
                slot[offset:offset + array.size] = \
                    np.asarray(array, dtype=np.float64).ravel()
                offset += array.size
        words = np.concatenate(
            [_pack_rng_state(rng.bit_generator.state)
             for rng in _module_rngs(client.model)]) \
            if self.num_rngs else np.empty(0, dtype=np.uint64)
        slot[offset:offset + words.size] = words.view(np.float64)

    def flush(self) -> None:
        """Push mutable-slot writes to disk (mmap pages are shared anyway)."""
        self._mutable.flush()


# ----------------------------------------------------------------------
# Worker-side shard functions (run through PersistentWorkerPool.call)
# ----------------------------------------------------------------------
def _store_handle(residents: Dict, path: str) -> ClientStore:
    """Open-once cache of the store mapping in a worker's resident registry.

    The registry normally maps ``client_id → Client``; the tuple key cannot
    collide with integer ids, so the handle rides along untouched by the
    adopt/train machinery.
    """
    key = ("__clientstore__", path)
    handle = residents.get(key)
    if handle is None:
        handle = residents[key] = ClientStore.open(path)
    return handle


def train_store_shard(residents: Dict, path: str, cids: Sequence[int],
                      broadcast: Optional[Dict[str, np.ndarray]],
                      fold_weights: Dict[int, float], lr: float,
                      weight_decay: float, local_epochs: int
                      ) -> Tuple[Dict[int, float], Dict]:
    """Edge-aggregate one shard: materialize, train, fold, persist, drop.

    Exactly one client is resident at a time; its trained state folds into
    the shard's :class:`DeterministicSum` with the coordinator-supplied
    coefficient and its mutable slot is written back before the next client
    materializes.  Returns ``(losses, partial)`` — O(parameters) regardless
    of shard size.
    """
    store = _store_handle(residents, path)
    acc = DeterministicSum()
    losses: Dict[int, float] = {}
    for cid in cids:
        client = store.materialize(int(cid), lr=lr,
                                   weight_decay=weight_decay,
                                   local_epochs=local_epochs)
        if broadcast is not None:
            client.set_weights(broadcast)
        losses[int(cid)] = client.local_train()
        acc.fold(client.get_weights(), fold_weights[int(cid)])
        store.save_mutable(client)
        del client
    return losses, acc.partial()


def eval_store_shard(residents: Dict, path: str, cids: Sequence[int],
                     broadcast: Dict[str, np.ndarray]
                     ) -> Dict[int, Tuple[float, int, float, int]]:
    """Evaluate shard clients on the current broadcast (stateless).

    Returns ``cid → (train_acc, train_count, test_acc, test_count)``.
    Evaluation runs in eval mode (no dropout, no RNG consumption) and never
    writes the mutable slot, so it cannot perturb training trajectories.
    """
    store = _store_handle(residents, path)
    out: Dict[int, Tuple[float, int, float, int]] = {}
    for cid in cids:
        client = store.materialize(int(cid))
        client.set_weights(broadcast)
        train_count = int(client.graph.train_mask.sum())
        test_count = int(client.graph.test_mask.sum())
        out[int(cid)] = (client.evaluate("train"), train_count,
                         client.evaluate("test"), test_count)
        del client
    return out


# ----------------------------------------------------------------------
# Store-backed hierarchical trainer
# ----------------------------------------------------------------------
class StoreFederatedTrainer:
    """Hierarchical FedAvg over a :class:`ClientStore` — scales past 10^5.

    The classic :class:`~repro.federated.trainer.FederatedTrainer` keeps
    every ``Client`` resident; this trainer keeps only the store mapping.
    Each round it draws participants from the dedicated subsampling stream,
    ships shards of **ids** (not clients) to the persistent workers, and
    merges one fixed-point edge aggregate per shard.  ``config`` is a
    :class:`~repro.federated.FederatedConfig`: its training fields,
    ``num_workers`` and ``transport`` / ``transport_options`` are served, an
    engine knob a store round would have to ignore is refused.  With
    ``num_workers=0`` the same shard functions run in-process (the serial
    reference used by the parity tests).

    Histories are value-identical to flat FedAvg over resident clients with
    the same spec, seed and participation — the parity contract
    ``tests/test_scale.py`` pins at small N with ``loss_gap == 0.0``.
    """

    def __init__(self, store: ClientStore, config=None, *,
                 eval_sample: Optional[int] = None):
        from repro.federated.trainer import FederatedConfig, participation_rng

        self.config = config or FederatedConfig()
        # Before a pool exists: a store round serves the training fields,
        # ``num_workers`` and the transport; the rest is refused, not ignored.
        check_composition(self.config, store=store)
        self.store = store
        self.eval_sample = eval_sample
        self.history = TrainingHistory()
        self.tracker = CommunicationTracker()
        self.global_state: Optional[Dict[str, np.ndarray]] = None
        self._participation_rng = participation_rng(self.config.seed)
        self._eval_rng = np.random.default_rng(
            np.random.SeedSequence([self.config.seed, 0x45564C]))
        self._pool = None
        #: in-process (num_workers=0) stand-in for a worker's registry
        self._local_residents: Dict = {}

    # ------------------------------------------------------------------
    def _ensure_pool(self):
        from repro.federated.engine.persistent import PersistentWorkerPool

        if self.config.num_workers >= 1 and self._pool is None:
            self._pool = PersistentWorkerPool(
                self.config.num_workers, transport=make_transport(
                    self.config.transport, self.config.transport_options))
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def _shards(self, cids: Sequence[int]) -> Dict[int, List[int]]:
        workers = max(1, self.config.num_workers)
        shards: Dict[int, List[int]] = {}
        for cid in cids:
            shards.setdefault(int(cid) % workers, []).append(int(cid))
        return shards

    def _run_shards(self, func, per_shard_args: Dict[int, tuple]) -> List:
        """Run one shard function per worker (pooled or in-process)."""
        pool = self._ensure_pool()
        if pool is None:
            return [func(self._local_residents, *args)
                    for _, args in sorted(per_shard_args.items())]
        batches = {worker: [("call", (func, args))]
                   for worker, args in per_shard_args.items()}
        results = pool.run_batches(batches)
        return [results[worker][0] for worker in sorted(results)]

    # ------------------------------------------------------------------
    def run(self) -> TrainingHistory:
        try:
            for round_index in range(1, self.config.rounds + 1):
                self._run_round(round_index)
        finally:
            self.close()
            self.store.flush()
        return self.history

    def _run_round(self, round_index: int) -> None:
        from repro.federated.trainer import select_participant_ids

        config = self.config
        participants = select_participant_ids(
            self._participation_rng, self.store.num_clients,
            config.participation)
        self.history.record_participants(round_index, participants)
        # Exact same normalization StreamingAggregate applies for flat
        # FedAvg — the parity contract needs the identical coefficients.
        base = np.asarray([self.store.num_samples(cid)
                           for cid in participants], dtype=np.float64)
        normalized = base / base.sum()
        fold_weights = {int(cid): float(normalized[pos])
                        for pos, cid in enumerate(participants)}

        shards = self._shards(participants)
        args = {worker: (self.store.path, ids, self.global_state,
                         {cid: fold_weights[cid] for cid in ids}, config.lr,
                         config.weight_decay, config.local_epochs)
                for worker, ids in shards.items()}
        acc = DeterministicSum()
        losses: Dict[int, float] = {}
        param_total = self.store.param_total
        for shard_losses, partial in self._run_shards(
                train_store_shard, args):
            acc.merge(partial)
            losses.update(shard_losses)
            # One broadcast down + one pre-aggregated partial up per edge
            # aggregator: O(workers) coordinator traffic.
            if self.global_state is not None:
                self.tracker.record_download("broadcast_weights",
                                             param_total)
            self.tracker.record_upload(
                "edge_aggregate",
                sum(hi.size + lo.size for hi, lo in partial.values()))
        self.global_state = acc.value()
        self.tracker.next_round()

        if round_index % config.eval_every == 0 \
                or round_index == config.rounds:
            loss = float(np.mean([losses[cid] for cid in participants]))
            train_acc, test_acc, per_client = self._evaluate()
            self.history.record(round_index, train_acc, test_acc, loss,
                                per_client)

    def _evaluate(self) -> Tuple[float, float, Dict[int, float]]:
        """Broadcast-state accuracy over all clients (or a seeded sample).

        Accumulates ``accuracy × mask-count`` in ascending client order —
        the exact expression (and float evaluation order)
        ``FederatedTrainer.evaluate`` uses, so full-evaluation runs match
        the resident-client trainer bit for bit.
        """
        cids: Sequence[int] = range(self.store.num_clients)
        if self.eval_sample is not None \
                and self.eval_sample < self.store.num_clients:
            cids = np.sort(self._eval_rng.choice(
                self.store.num_clients, size=int(self.eval_sample),
                replace=False))
        reports: Dict[int, Tuple[float, int, float, int]] = {}
        args = {worker: (self.store.path, ids, self.global_state)
                for worker, ids in self._shards([int(c) for c in cids]).items()}
        for shard_report in self._run_shards(eval_store_shard, args):
            reports.update(shard_report)
        train, test, per_client = [], [], {}
        for cid in sorted(reports):
            train_acc, train_count, test_acc, test_count = reports[cid]
            train.append((train_acc, train_count))
            test.append((test_acc, test_count))
            per_client[cid] = test_acc
        return (count_weighted_mean(train), count_weighted_mean(test),
                per_client)
