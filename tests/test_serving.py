"""Serving subsystem: snapshots, micro-batched engine, parity and caches."""

from __future__ import annotations

import logging
import os

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F, no_grad
from repro.federated import FederatedConfig
from repro.federated.client import Client
from repro.federated.engine import batched
from repro.federated.engine.backends import (
    restore_client_state,
    snapshot_client_state,
)
from repro.federated.engine.batched import build_eval_plan
from repro.federated.trainer import resolve_checkpoint_path
from repro.fgl import build_baseline, make_model_factory
from repro.graph import Graph
from repro.models import GCN, GCNII
from repro.serving import (
    AdmissionRejected,
    InductiveQuery,
    QueryEngine,
    ServingSnapshot,
    SubgraphLRU,
    TransductiveQuery,
    build_query_mix,
    extract_block,
    khop_nodes,
    receptive_depth,
    run_open_loop,
)
from repro.models.base import prepare_propagation
from repro.serving.snapshot import SNAPSHOT_FORMAT


@pytest.fixture(scope="module")
def trained_trainer(request):
    graphs = request.getfixturevalue("community_clients")
    trainer = build_baseline(
        "fedgcn", graphs,
        config=FederatedConfig(rounds=2, local_epochs=1, seed=0), hidden=16)
    trainer.run()
    return trainer


@pytest.fixture(scope="module")
def snapshot(trained_trainer):
    return ServingSnapshot.from_trainer(trained_trainer)


@pytest.fixture(scope="module")
def offline_probs(trained_trainer):
    """Fresh serial per-client predictions — the parity reference."""
    reference = {}
    for client in trained_trainer.clients:
        client.invalidate_cache()
        reference[client.client_id] = np.array(client.predict(), copy=True)
    return reference


# ----------------------------------------------------------------------
# Snapshot export & round-trips
# ----------------------------------------------------------------------
def test_snapshot_matches_offline_predictions(snapshot, offline_probs):
    """Precomputed tables == offline Client.predict, bitwise (numpy)."""
    assert snapshot.client_ids == sorted(offline_probs)
    for client_id, probs in offline_probs.items():
        assert np.array_equal(snapshot.entries[client_id].probs, probs)


def test_snapshot_is_frozen_against_further_training(community_clients):
    trainer = build_baseline(
        "fedgcn", community_clients,
        config=FederatedConfig(rounds=1, local_epochs=1, seed=0), hidden=16)
    trainer.run()
    snap = ServingSnapshot.from_trainer(trainer)
    frozen_states = {cid: {key: value.copy()
                           for key, value in entry.state.items()}
                     for cid, entry in snap.entries.items()}
    frozen_probs = {cid: entry.probs.copy()
                    for cid, entry in snap.entries.items()}
    trainer.run(rounds=2)   # continue training past the snapshot
    for cid, entry in snap.entries.items():
        assert np.array_equal(entry.probs, frozen_probs[cid])
        for key, value in entry.state.items():
            assert np.array_equal(value, frozen_states[cid][key])
        # The deep-copied model did not follow the live client either.
        model_state = entry.model.state_dict()
        for key, value in frozen_states[cid].items():
            assert np.array_equal(model_state[key], value)


def test_snapshot_pickle_roundtrip(tmp_path, snapshot, offline_probs):
    path = os.path.join(tmp_path, "export", "snap.pkl")
    snapshot.save(path)
    restored = ServingSnapshot.load(path)
    assert restored.model_family == snapshot.model_family
    assert restored.source == snapshot.source
    assert restored.client_ids == snapshot.client_ids
    for client_id, probs in offline_probs.items():
        assert np.array_equal(restored.entries[client_id].probs, probs)


def test_snapshot_from_checkpoint_matches_live(tmp_path, community_clients):
    config = FederatedConfig(rounds=2, local_epochs=1, seed=0,
                             checkpoint_every=1,
                             checkpoint_dir=str(tmp_path))
    trainer = build_baseline("fedgcn", community_clients, config=config,
                             hidden=16)
    trainer.run()
    live = ServingSnapshot.from_trainer(trainer)
    from_ckpt = ServingSnapshot.from_checkpoint(
        "latest", community_clients, make_model_factory("gcn", hidden=16),
        checkpoint_dir=str(tmp_path))
    assert from_ckpt.source == "checkpoint"
    assert from_ckpt.round_index == 2
    for client_id in live.entries:
        assert np.array_equal(from_ckpt.entries[client_id].probs,
                              live.entries[client_id].probs)
        for key, value in live.entries[client_id].state.items():
            assert np.array_equal(from_ckpt.entries[client_id].state[key],
                                  value)


class TestArtefactOfTheWrongKind:
    """A file that is not what the reader expects is a ``ValueError`` naming
    the file, what was expected and what it is — at the read, not a
    ``KeyError`` three layers into the restore."""

    @staticmethod
    def _checkpoint(trained_trainer, tmp_path):
        return trained_trainer.save_checkpoint(
            path=os.path.join(tmp_path, "round.ckpt"))

    def test_snapshot_load_refuses_a_checkpoint(self, tmp_path,
                                                trained_trainer):
        path = self._checkpoint(trained_trainer, tmp_path)
        with pytest.raises(ValueError, match="round.ckpt is not a snapshot: "
                                             "it is a checkpoint"):
            ServingSnapshot.load(path)

    def test_checkpoint_readers_refuse_a_snapshot(self, tmp_path, snapshot,
                                                  trained_trainer,
                                                  community_clients):
        path = snapshot.save(os.path.join(tmp_path, "snap.pkl"))
        match = "snap.pkl is not a checkpoint: it is a snapshot"
        with pytest.raises(ValueError, match=match):
            trained_trainer.load_checkpoint(path)
        with pytest.raises(ValueError, match=match):
            ServingSnapshot.from_checkpoint(
                path, community_clients, make_model_factory("gcn", hidden=16))

    def test_truncated_and_unstamped_files(self, tmp_path,
                                           trained_trainer,
                                           community_clients):
        import pickle

        path = self._checkpoint(trained_trainer, tmp_path)
        with open(path, "rb") as handle:
            whole = handle.read()
        with open(path, "wb") as handle:
            handle.write(whole[:len(whole) // 2])
        with pytest.raises(ValueError, match="round.ckpt is not a checkpoint:"
                                             " truncated or not a pickle"):
            trained_trainer.load_checkpoint(path)
        with pytest.raises(ValueError, match="is not a snapshot: truncated"):
            ServingSnapshot.load(path)
        # Files from before savers stamped ``kind`` are told apart by keys —
        # and still load as what they are.
        payload = pickle.loads(whole)
        del payload["kind"]
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        with pytest.raises(ValueError, match=r"is not a snapshot: no "
                                             r"\['entries'.*'clients'"):
            ServingSnapshot.load(path)
        fresh = build_baseline(
            "fedgcn", community_clients,
            config=FederatedConfig(rounds=2, local_epochs=1, seed=0),
            hidden=16)
        assert fresh.load_checkpoint(path) == payload["round"] == 2
        with open(path, "wb") as handle:
            pickle.dump([1, 2, 3], handle)
        with pytest.raises(ValueError, match="it holds a list, not a dict"):
            trained_trainer.load_checkpoint(path)

    @pytest.mark.parametrize("lost", ["class", "module", "slot"])
    def test_a_pickle_naming_what_this_code_lost(self, tmp_path, monkeypatch,
                                                 trained_trainer, lost):
        """A file whose pickle names a class, module or slot this code no
        longer has — one written by another version — is refused by name,
        not with the unpickler's ``AttributeError`` / ``ImportError``."""
        import pickle
        import sys
        import types

        module = types.ModuleType("repro_test_lost_names")
        monkeypatch.setitem(sys.modules, module.__name__, module)

        def declare(*slots):
            cls = type("Old", (), {"__slots__": slots,
                                   "__module__": module.__name__})
            module.Old = cls
            return cls

        old = declare("kept", "gone")()
        old.kept = old.gone = 1.0
        paths = {}
        for kind, version in (("snapshot", SNAPSHOT_FORMAT),
                              ("checkpoint", 1)):
            paths[kind] = os.path.join(tmp_path, f"old.{kind}")
            with open(paths[kind], "wb") as handle:
                pickle.dump({"kind": kind, "format": version, "old": old},
                            handle)
        if lost == "class":
            del module.Old
        elif lost == "module":
            monkeypatch.delitem(sys.modules, module.__name__)
        else:
            declare("kept")
        cannot = r"this code can rebuild \((AttributeError|ModuleNotFound)"
        with pytest.raises(ValueError, match=r"old\.snapshot is not a "
                                             r"snapshot: .* " + cannot):
            ServingSnapshot.load(paths["snapshot"])
        with pytest.raises(ValueError, match=r"old\.checkpoint is not a "
                                             r"checkpoint: .* " + cannot):
            trained_trainer.load_checkpoint(paths["checkpoint"])


def test_snapshot_hop_blocks_are_exact(snapshot):
    entry = snapshot.entries[0]
    operator = prepare_propagation(entry.graph.adjacency)
    expected_one = operator @ entry.graph.features
    expected_two = operator @ expected_one
    blocks = snapshot.hop_blocks(0, 2)
    assert np.allclose(blocks[0], expected_one)
    assert np.allclose(blocks[1], expected_two)
    # second ask reuses the PropagationCache (no fresh compute object)
    assert snapshot.entries[0].propagation.num_cached_hops == 2


def test_snapshot_from_adafgl_is_transductive_only(tiny_graph):
    from repro.core import AdaFGL, AdaFGLConfig
    from repro.simulation import community_split

    graphs = community_split(tiny_graph, 2, seed=0)
    method = AdaFGL(graphs, AdaFGLConfig(rounds=1, local_epochs=1,
                                         personalized_epochs=2, seed=0))
    method.run()
    snap = ServingSnapshot.from_adafgl(method)
    assert snap.model_family == "AdaFGL"
    assert not snap.inductive_capable
    for pc in method.personalized:
        assert np.array_equal(snap.entries[pc.client_id].probs, pc.predict())
    with QueryEngine(snap, max_batch=1, max_delay_ms=0.0) as engine:
        future = engine.submit(InductiveQuery(
            0, np.zeros(tiny_graph.num_features), [0]))
        with pytest.raises(ValueError, match="transductive-only"):
            future.result(timeout=10)


# ----------------------------------------------------------------------
# Checkpoint-path resolution (resume_from="latest")
# ----------------------------------------------------------------------
def test_resolve_checkpoint_path(tmp_path):
    assert resolve_checkpoint_path("/some/file.ckpt") == "/some/file.ckpt"
    with pytest.raises(FileNotFoundError, match="latest"):
        resolve_checkpoint_path("latest", str(tmp_path))
    latest = tmp_path / "latest.ckpt"
    latest.write_bytes(b"x")
    assert resolve_checkpoint_path("latest", str(tmp_path)) == str(latest)


def test_trainer_resumes_from_latest(tmp_path, community_clients):
    config = FederatedConfig(rounds=2, local_epochs=1, seed=0,
                             checkpoint_every=1,
                             checkpoint_dir=str(tmp_path))
    first = build_baseline("fedgcn", community_clients, config=config,
                           hidden=16)
    first.run()
    resumed = build_baseline(
        "fedgcn", community_clients,
        config=FederatedConfig(rounds=2, local_epochs=1, seed=0,
                               checkpoint_dir=str(tmp_path),
                               resume_from="latest"), hidden=16)
    assert resumed.load_checkpoint("latest") == 2
    for mine, theirs in zip(resumed.clients, first.clients):
        for key, value in theirs.get_weights().items():
            assert np.array_equal(mine.get_weights()[key], value)


# ----------------------------------------------------------------------
# Prediction-cache staleness on out-of-band state loads
# ----------------------------------------------------------------------
def test_restore_invalidates_prediction_cache(tiny_graph):
    client = Client(0, tiny_graph,
                    GCN(tiny_graph.num_features, 8, tiny_graph.num_classes,
                        seed=0))
    stale = np.array(client.predict(), copy=True)   # primes the cache
    saved = snapshot_client_state(client, include_weights=False)
    # Out-of-band mutation: bypasses set_weights, so the version key alone
    # would keep serving the stale cache.
    client.model.load_state_dict(
        {key: value * 0.5 for key, value in client.get_weights().items()})
    restore_client_state(client, saved, include_weights=False)
    fresh = client.predict()
    assert not np.array_equal(stale, fresh)
    client.invalidate_cache()
    assert np.array_equal(fresh, client.predict())


def test_client_load_state_roundtrip(tiny_graph):
    source = Client(0, tiny_graph,
                    GCN(tiny_graph.num_features, 8, tiny_graph.num_classes,
                        seed=0))
    source.local_train(epochs=2)
    target = Client(0, tiny_graph,
                    GCN(tiny_graph.num_features, 8, tiny_graph.num_classes,
                        seed=1))
    target.predict()   # prime a cache the load must drop
    target.load_state(snapshot_client_state(source))
    assert np.array_equal(target.predict(), source.predict())


# ----------------------------------------------------------------------
# build_eval_plan fallback warning (one per family)
# ----------------------------------------------------------------------
def test_eval_plan_warns_once_for_unsupported_family(tiny_graph, caplog):
    batched._WARNED_EVAL_FAMILIES.discard("GCNII")
    clients = [Client(index, tiny_graph,
                      GCNII(tiny_graph.num_features, 8,
                            tiny_graph.num_classes, seed=index))
               for index in range(2)]
    with caplog.at_level(logging.WARNING,
                         logger="repro.federated.engine.batched"):
        assert build_eval_plan(clients) is None
        assert any("GCNII" in record.message and "serial" in record.message
                   for record in caplog.records)
        caplog.clear()
        assert build_eval_plan(clients) is None   # second call stays silent
        assert not caplog.records


# ----------------------------------------------------------------------
# Subgraph extraction
# ----------------------------------------------------------------------
def _path_graph(num_nodes: int) -> Graph:
    import scipy.sparse as sp

    adjacency = sp.diags([np.ones(num_nodes - 1)] * 2, [1, -1]).tocsr()
    features = np.arange(num_nodes, dtype=np.float64).reshape(-1, 1)
    labels = np.zeros(num_nodes, dtype=np.int64)
    return Graph(adjacency=adjacency, features=features, labels=labels,
                 metadata={"num_classes": 2})


def test_khop_nodes_on_a_path():
    graph = _path_graph(10)
    assert khop_nodes(graph.adjacency, [5], 0).tolist() == [5]
    assert khop_nodes(graph.adjacency, [5], 1).tolist() == [4, 5, 6]
    assert khop_nodes(graph.adjacency, [5], 2).tolist() == [3, 4, 5, 6, 7]
    assert khop_nodes(graph.adjacency, [0], 100).tolist() == list(range(10))


def test_extract_block_appends_new_node_last():
    graph = _path_graph(10)
    block = extract_block(graph, [4, 6], depth=2)
    # depth 2 → anchors + 1 hop
    assert block.nodes.tolist() == [3, 4, 5, 6, 7]
    assert block.new_index == 5
    dense = block.adjacency.toarray()
    assert dense.shape == (6, 6)
    assert dense[5, 1] == 1.0 and dense[1, 5] == 1.0   # new ↔ node 4
    assert dense[5, 3] == 1.0 and dense[3, 5] == 1.0   # new ↔ node 6
    assert np.array_equal(dense[:5, :5],
                          graph.adjacency[3:8, 3:8].toarray())
    with pytest.raises(ValueError, match="anchor"):
        extract_block(graph, [99], depth=2)
    with pytest.raises(ValueError, match="anchor"):
        extract_block(graph, [], depth=2)


def test_receptive_depth_by_family(tiny_graph):
    from repro.models import GAMLP, SGC, GloGNN

    features, classes = tiny_graph.num_features, tiny_graph.num_classes
    assert receptive_depth(GCN(features, 8, classes, num_layers=3)) == 3
    assert receptive_depth(SGC(features, classes, k=2)) == 2
    assert receptive_depth(GAMLP(features, 8, classes, k=4)) == 4
    assert receptive_depth(GloGNN(features, 8, classes)) is None


# ----------------------------------------------------------------------
# Query engine: parity
# ----------------------------------------------------------------------
def test_transductive_queries_bitwise_match_offline(snapshot, offline_probs):
    with QueryEngine(snapshot, max_batch=8, max_delay_ms=1.0) as engine:
        for client_id, probs in offline_probs.items():
            for node in (0, 3, probs.shape[0] - 1):
                result = engine.query(TransductiveQuery(client_id, node),
                                      timeout=30)
                assert result.path == "table"
                assert np.array_equal(result.probs, probs[node])
                assert result.label == int(np.argmax(probs[node]))


def test_inductive_fused_bitwise_matches_serial_and_reference(snapshot):
    entry = snapshot.entries[0]
    rng = np.random.default_rng(7)
    queries = [InductiveQuery(0, entry.graph.features[n] +
                              0.1 * rng.standard_normal(
                                  entry.graph.num_features),
                              anchors=[n, (n + 1) % entry.graph.num_nodes])
               for n in (1, 5, 9, 13)]

    # Hand-built reference: forward over the extracted augmented block.
    references = []
    for query in queries:
        block = extract_block(entry.graph, query.anchors,
                              receptive_depth(entry.model))
        augmented = np.concatenate(
            [block.features, np.asarray(query.features).reshape(1, -1)])
        entry.model.eval()
        with no_grad():
            logits = entry.model(Tensor(augmented), block.adjacency)
            probs = F.softmax(logits, axis=-1).numpy()
        references.append(probs[block.new_index])

    with QueryEngine(snapshot, max_batch=4, max_delay_ms=200.0) as engine:
        futures = [engine.submit(query) for query in queries]
        fused = [future.result(timeout=30) for future in futures]
    assert [result.path for result in fused] == ["fused"] * 4
    with QueryEngine(snapshot, max_batch=1, max_delay_ms=0.0) as engine:
        serial = [engine.query(query, timeout=30) for query in queries]
    assert [result.path for result in serial] == ["serial"] * 4
    for fused_r, serial_r, reference in zip(fused, serial, references):
        assert np.array_equal(fused_r.probs, serial_r.probs)
        assert np.array_equal(serial_r.probs, reference)


# ----------------------------------------------------------------------
# Query engine: micro-batch flush semantics (what is queued: inductive)
# ----------------------------------------------------------------------
def _inductive(snapshot, count, client_id=0):
    """``count`` inductive queries on distinct anchor pairs of one client."""
    graph = snapshot.entries[client_id].graph
    return [InductiveQuery(client_id, graph.features[node],
                           (node, (node + 1) % graph.num_nodes))
            for node in range(count)]


def test_flush_on_batch_size(snapshot):
    engine = QueryEngine(snapshot, max_batch=4, max_delay_ms=10_000.0)
    try:
        futures = [engine.submit(query) for query in _inductive(snapshot, 4)]
        results = [future.result(timeout=30) for future in futures]
    finally:
        engine.close()
    # The deadline was 10s away: only the size trigger can have flushed.
    assert engine.batch_log[0] == {"size": 4, "trigger": "size"}
    assert all(result.trigger == "size" and result.batch_size == 4
               for result in results)


def test_flush_on_deadline(snapshot):
    engine = QueryEngine(snapshot, max_batch=100, max_delay_ms=30.0)
    try:
        futures = [engine.submit(query) for query in _inductive(snapshot, 3)]
        results = [future.result(timeout=30) for future in futures]
    finally:
        engine.close()
    # Far below max_batch: every flush must have been deadline-triggered.
    assert all(result.trigger == "deadline" for result in results)
    assert sum(record["size"] for record in engine.batch_log) == 3
    assert all(record["trigger"] == "deadline"
               for record in engine.batch_log)


def test_close_flushes_pending_queries(snapshot):
    engine = QueryEngine(snapshot, max_batch=100, max_delay_ms=10_000.0)
    futures = [engine.submit(query) for query in _inductive(snapshot, 2)]
    engine.close()
    results = [future.result(timeout=30) for future in futures]
    assert all(result.trigger == "close" for result in results)
    for query in (TransductiveQuery(0, 0), _inductive(snapshot, 1)[0]):
        with pytest.raises(RuntimeError, match="closed"):
            engine.submit(query)
    engine.close()   # idempotent


def _parked(engine, queries):
    """Submit ``queries`` while the worker is held inside an earlier
    query's cache read, so the worker finds them all queued: the first
    opens a batch the others join, parked until its deadline or close."""
    import threading

    inside, release = threading.Event(), threading.Event()
    get = engine.cache.get

    def held(key, build):
        inside.set()
        release.wait(30)
        return get(key, build)

    engine.cache.get = held
    engine.submit(queries[0])
    assert inside.wait(30)
    parked = [engine.submit(query) for query in queries[1:]]
    del engine.cache.get
    release.set()
    return parked


def test_table_query_is_answered_at_admission(snapshot, offline_probs):
    """A table read never waits for the worker: its future is done when
    ``submit`` returns, even with the worker parked on a 10 s deadline."""
    engine = QueryEngine(snapshot, max_batch=100, max_delay_ms=10_000.0)
    try:
        parked = _parked(engine, _inductive(snapshot, 3))
        future = engine.submit(TransductiveQuery(0, 3))
        assert future.done()
        assert not any(query.done() for query in parked)
        result = future.result(timeout=0)
        assert (result.path, result.batch_size, result.trigger) \
            == ("table", 1, "inline")
        assert np.array_equal(result.probs, offline_probs[0][3])
        assert engine.batch_log[-1] == {"size": 1, "trigger": "inline"}
    finally:
        engine.close()
    assert [query.result(timeout=30).trigger for query in parked] \
        == ["close", "close"]


def test_lone_query_is_not_held_for_company(snapshot):
    """A query that finds the queue empty is answered at once, whatever
    the deadline: nothing is waiting that it could be batched with."""
    with QueryEngine(snapshot, max_batch=100,
                     max_delay_ms=10_000.0) as engine:
        result = engine.query(_inductive(snapshot, 1)[0], timeout=30)
        assert (result.trigger, result.batch_size, result.path) \
            == ("idle", 1, "serial")
        assert result.latency < 5.0
        assert engine.batch_log == [{"size": 1, "trigger": "idle"}]


def test_submit_racing_close_is_answered_not_stranded(snapshot, monkeypatch):
    """``close`` running between a submit's closed-check and its enqueue
    must not leave the query behind the stop sentinel: admission and
    close are one step against each other, so the query is answered."""
    import queue
    import threading

    closers = []

    class CloseFirst(queue.Queue):
        """Runs ``close`` on another thread inside the first enqueue."""
        engine = None

        def put_nowait(self, item):
            if self.engine is not None and not closers:
                closer = threading.Thread(target=self.engine.close)
                closers.append(closer)
                closer.start()
                closer.join(0.5)   # unguarded, close() finishes in here
            super().put_nowait(item)

    with monkeypatch.context() as patch:
        patch.setattr(queue, "Queue", CloseFirst)
        engine = QueryEngine(snapshot, max_batch=100, max_delay_ms=10_000.0)
    engine._queue.engine = engine
    racing = engine.submit(_inductive(snapshot, 1)[0])
    assert racing.result(timeout=10).path == "serial"
    closers[0].join(timeout=30)
    assert not closers[0].is_alive()
    with pytest.raises(RuntimeError, match="closed"):
        engine.submit(_inductive(snapshot, 1)[0])


def test_wrong_width_query_leaves_the_cache_alone(snapshot):
    """A malformed query is refused before the LRU is consulted: it counts
    no miss and evicts no live block."""
    graph = snapshot.entries[0].graph
    with QueryEngine(snapshot, max_batch=1, max_delay_ms=0.0,
                     cache_size=1) as engine:
        engine.query(InductiveQuery(0, graph.features[0], (0, 1)), timeout=30)
        counters = (engine.cache.hits, engine.cache.misses,
                    engine.cache.evictions)
        with pytest.raises(ValueError, match="features"):
            engine.query(InductiveQuery(0, np.ones(graph.num_features + 1),
                                        (2, 3)), timeout=30)
        assert (engine.cache.hits, engine.cache.misses,
                engine.cache.evictions) == counters
        assert engine.cache.keys() == [(0, (0, 1))]
        engine.query(InductiveQuery(0, graph.features[0], (1, 0)), timeout=30)
        assert engine.cache.hits == counters[0] + 1


def test_engine_surfaces_bad_queries_without_wedging(snapshot):
    with QueryEngine(snapshot, max_batch=2, max_delay_ms=5.0) as engine:
        bad = engine.submit(TransductiveQuery(0, 10**9))
        good = engine.submit(TransductiveQuery(0, 0))
        with pytest.raises(IndexError):
            bad.result(timeout=30)
        assert good.result(timeout=30).path == "table"
        with pytest.raises(KeyError):
            engine.query(TransductiveQuery(999, 0), timeout=30)
        # A failed table read is its own future's problem: nothing was
        # counted, nothing else disturbed.
        assert engine.served == 1
        assert engine.query(_inductive(snapshot, 1)[0],
                            timeout=30).path == "serial"


def test_counters_are_exact_under_concurrent_submitters(snapshot):
    """``served`` is bumped from caller threads: a lost update would leave
    it short of the number of resolved futures."""
    import sys
    import threading

    threads, per_thread = 8, 2000
    nodes = snapshot.entries[0].probs.shape[0]
    resolved = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with QueryEngine(snapshot) as engine:
            def submitter(offset):
                futures = [engine.submit(TransductiveQuery(
                    0, (offset + index) % nodes))
                    for index in range(per_thread)]
                resolved.append(sum(future.done() and
                                    future.exception() is None
                                    for future in futures))

            workers = [threading.Thread(target=submitter, args=(index,))
                       for index in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
            assert not any(worker.is_alive() for worker in workers)
    finally:
        sys.setswitchinterval(interval)
    assert sum(resolved) == threads * per_thread
    assert engine.served == threads * per_thread
    assert len(engine.batch_log) == threads * per_thread


# ----------------------------------------------------------------------
# Subgraph LRU determinism
# ----------------------------------------------------------------------
def test_lru_eviction_is_deterministic():
    cache = SubgraphLRU(capacity=2)
    built = []

    def factory(key):
        def build():
            built.append(key)
            return key
        return build

    assert cache.get("a", factory("a")) == "a"
    assert cache.get("b", factory("b")) == "b"
    assert cache.get("a", factory("a")) == "a"      # refreshes "a"
    assert cache.get("c", factory("c")) == "c"      # evicts "b" (LRU)
    assert cache.keys() == ["a", "c"]
    assert cache.get("b", factory("b")) == "b"      # rebuilt, evicts "a"
    assert cache.keys() == ["c", "b"]
    assert built == ["a", "b", "c", "b"]
    assert (cache.hits, cache.misses, cache.evictions) == (1, 4, 2)


def test_engine_lru_reuses_blocks_and_evicts_in_order(snapshot):
    entry = snapshot.entries[0]
    features = entry.graph.features[0]
    anchor_sets = [(0, 1), (2, 3), (4, 5)]
    with QueryEngine(snapshot, max_batch=1, max_delay_ms=0.0,
                     cache_size=2) as engine:
        for anchors in anchor_sets:                  # 3 misses, 1 eviction
            engine.query(InductiveQuery(0, features, anchors), timeout=30)
        engine.query(InductiveQuery(0, features, anchor_sets[1]),
                     timeout=30)                     # hit
        engine.query(InductiveQuery(0, features, anchor_sets[0]),
                     timeout=30)                     # miss again (evicted)
        assert engine.cache.hits == 1
        assert engine.cache.misses == 4
        assert engine.cache.evictions == 2
        assert engine.cache.keys() == [(0, (2, 3)), (0, (0, 1))]
        # Anchor order must not change the key.
        engine.query(InductiveQuery(0, features, (1, 0)), timeout=30)
        assert engine.cache.hits == 2


# ----------------------------------------------------------------------
# One normalised operator per live block
# ----------------------------------------------------------------------
def test_each_block_is_normalised_once(snapshot, monkeypatch):
    """N distinct blocks served twice serially and twice fused cost N
    normalisations: the serial forward and the fused plan read one cache."""
    from repro.models import base

    calls = []
    normalize = base.normalize_adjacency
    monkeypatch.setattr(
        base, "normalize_adjacency",
        lambda *args, **kwargs: calls.append(1) or normalize(*args, **kwargs))
    queries = _inductive(snapshot, 6)
    # A lone query finds the queue empty and runs serially at once; six at
    # once flush on size and fuse.
    with QueryEngine(snapshot, max_batch=6, max_delay_ms=20.0) as engine:
        for _ in range(2):
            assert [engine.query(query, timeout=30).path
                    for query in queries] == ["serial"] * 6
        for _ in range(2):
            futures = [engine.submit(query) for query in queries]
            assert [future.result(timeout=30).path
                    for future in futures] == ["fused"] * 6
        assert engine.cache.misses == 6
    assert len(calls) == 6


def test_evicted_block_takes_its_operator_along(snapshot):
    import gc

    from repro.autograd.backend import structure_cache_size

    queries = _inductive(snapshot, 3)
    gc.collect()
    before = structure_cache_size()
    with QueryEngine(snapshot, max_batch=1, max_delay_ms=0.0,
                     cache_size=2) as engine:
        for query in queries[:2]:
            engine.query(query, timeout=30)
        assert structure_cache_size() == before + 2
        engine.query(queries[2], timeout=30)     # evicts the first block
        gc.collect()
        assert engine.cache.evictions == 1
        assert structure_cache_size() == before + 2
    del engine
    gc.collect()
    assert structure_cache_size() == before


# ----------------------------------------------------------------------
# Load generation
# ----------------------------------------------------------------------
def test_open_loop_report_accounts_for_every_query(snapshot):
    queries = build_query_mix(snapshot, 40, inductive_fraction=0.25, seed=3)
    assert any(isinstance(query, InductiveQuery) for query in queries)
    with QueryEngine(snapshot, max_batch=8, max_delay_ms=2.0) as engine:
        report = run_open_loop(engine, queries, rate=2000.0, seed=3)
    assert report.queries == 40
    assert sum(report.paths.values()) == 40
    assert report.achieved_qps > 0
    assert report.p50_ms <= report.p99_ms <= report.max_ms
    assert sum(report.triggers.values()) == report.batches


def test_query_mix_is_seed_deterministic(snapshot):
    first = build_query_mix(snapshot, 25, inductive_fraction=0.5, seed=11)
    second = build_query_mix(snapshot, 25, inductive_fraction=0.5, seed=11)
    for a, b in zip(first, second):
        assert type(a) is type(b)
        if isinstance(a, TransductiveQuery):
            assert (a.client_id, a.node_id) == (b.client_id, b.node_id)
        else:
            assert a.client_id == b.client_id
            assert a.anchors == b.anchors
            assert np.array_equal(a.features, b.features)


# ----------------------------------------------------------------------
# Bounded admission queue (overload shedding)
# ----------------------------------------------------------------------
def test_bounded_queue_fast_fails_on_overflow(snapshot):
    # A stalled worker (huge deadline, huge batch) never drains the queue,
    # so the bound is hit by the submissions alone.
    engine = QueryEngine(snapshot, max_batch=100, max_delay_ms=10_000.0,
                         max_queue=3)
    try:
        queries = _inductive(snapshot, 10)
        futures = [engine.submit(query) for query in queries[:3]]
        # The worker thread consumed the first pending item into its batch,
        # freeing one slot; fill whatever capacity remains, then overflow.
        overflowed = 0
        for query in queries[3:]:
            try:
                futures.append(engine.submit(query))
            except AdmissionRejected:
                overflowed += 1
        assert overflowed > 0
        assert engine.rejected == overflowed
        # Table reads never queue, so a full queue does not refuse them.
        assert engine.submit(TransductiveQuery(0, 0)).done()
    finally:
        engine.close()
    # Every admitted query still completes (close flushes the queue).
    for future in futures:
        assert future.result(timeout=30) is not None


def test_unbounded_queue_never_rejects(snapshot):
    with QueryEngine(snapshot, max_batch=8, max_delay_ms=1.0) as engine:
        futures = [engine.submit(query)
                   for query in _inductive(snapshot, 5) * 40]
        for future in futures:
            future.result(timeout=30)
    assert engine.rejected == 0
    assert engine.max_queue == 0


def test_rejections_negative_bound_refused(snapshot):
    with pytest.raises(ValueError, match="max_queue"):
        QueryEngine(snapshot, max_queue=-1)


def test_open_loop_surfaces_rejections(snapshot):
    queries = build_query_mix(snapshot, 60, inductive_fraction=1.0, seed=5)
    engine = QueryEngine(snapshot, max_batch=100, max_delay_ms=50.0,
                         max_queue=4)
    with engine:
        report = run_open_loop(engine, queries, rate=50_000.0, seed=5)
    # At 50k qps offered against a 50 ms flush deadline the bound must shed.
    assert report.rejected > 0
    assert report.rejected == engine.rejected
    assert report.queries == 60 - report.rejected
    assert sum(report.paths.values()) == report.queries
    assert report.rejected in report.as_dict().values()
