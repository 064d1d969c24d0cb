"""Tests for pipelined round execution: streaming sync, async, delta codecs.

Covers the streaming aggregation fold (bitwise-equal to the barrier FedAvg),
the sync pipelined loop's serial-parity guarantee (the CI guard test),
pipelined failure paths (worker crashes must surface their own traceback and
reclaim the pool), bounded-staleness async rounds (determinism under fixed
simulated speeds, staleness discounting, lag histories) and the lossy top-k
delta transport with error feedback.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import AdaFGL, AdaFGLConfig
from repro.federated import FederatedConfig, ProcessPoolBackend
from repro.federated.engine import (
    StreamingAggregate,
    WorkerError,
    apply_topk_delta,
    encode_topk_delta,
    resolve_round_loop,
)
from repro.federated.engine.pipeline import AsyncRoundLoop, SyncRoundLoop
from repro.federated.server import (
    _SETTLE_EVERY as SETTLE_EVERY,
    DeterministicSum,
    fedavg_aggregate,
)
from repro.fgl.fedgnn import FederatedGNN
from repro.fgl.fedpub import FedPubAggregation
from repro.fgl.gcfl import GCFLAggregation


def _config(backend="process_pool", rounds=3, **kwargs):
    defaults = dict(rounds=rounds, local_epochs=2, lr=0.02, seed=0,
                    backend=backend,
                    num_workers=2 if backend == "process_pool" else 0)
    defaults.update(kwargs)
    return FederatedConfig(**defaults)


def _run(clients, **kwargs):
    trainer = FederatedGNN(clients, "gcn", hidden=16, config=_config(**kwargs))
    history = trainer.run()
    return trainer, history


def _assert_bitwise_equal(a, b):
    assert a.rounds == b.rounds
    np.testing.assert_array_equal(a.loss, b.loss)
    np.testing.assert_array_equal(a.test_accuracy, b.test_accuracy)
    np.testing.assert_array_equal(a.train_accuracy, b.train_accuracy)


# ----------------------------------------------------------------------
# Streaming fold
# ----------------------------------------------------------------------
class TestStreamingAggregate:
    def _states(self, rng, count=4):
        return [{"w": rng.normal(size=(5, 3)), "b": rng.normal(size=(3,))}
                for _ in range(count)]

    def test_out_of_order_fold_is_bitwise_fedavg(self, rng):
        states = self._states(rng)
        weights = [3.0, 1.0, 7.0, 2.0]
        reference = fedavg_aggregate(states, weights)
        fold = StreamingAggregate(weights)
        for index in (2, 0, 3, 1):  # worst-case arrival order
            fold.add(index, states[index])
        sealed = fold.seal()
        for key in reference:
            np.testing.assert_array_equal(sealed[key], reference[key])

    def test_in_order_fold_matches_too(self, rng):
        states = self._states(rng, count=3)
        weights = [1, 2, 3]  # ints, like client.num_samples
        fold = StreamingAggregate(weights)
        for index, state in enumerate(states):
            fold.add(index, state)
        reference = fedavg_aggregate(states, weights)
        for key in reference:
            np.testing.assert_array_equal(fold.seal()[key], reference[key])

    def test_seal_before_complete_raises(self, rng):
        fold = StreamingAggregate([1.0, 1.0])
        fold.add(1, self._states(rng, count=1)[0])  # folds immediately
        assert fold.pending == 1
        with pytest.raises(RuntimeError, match="pending"):
            fold.seal()

    def test_duplicate_and_out_of_range_adds_raise(self, rng):
        state = self._states(rng, count=1)[0]
        fold = StreamingAggregate([1.0, 1.0])
        fold.add(0, state)
        with pytest.raises(ValueError, match="already folded"):
            fold.add(0, state)
        with pytest.raises(IndexError):
            fold.add(2, state)

    def test_invalid_weights_raise(self):
        with pytest.raises(ValueError):
            StreamingAggregate([])
        with pytest.raises(ValueError):
            StreamingAggregate([0.0, 0.0])


class _EagerSum:
    """The fold as it was written before it ran in place: six temporaries
    per entry and a carry after every fold.  The reference the in-place,
    lazily-carried :class:`DeterministicSum` must equal bit for bit."""

    def __init__(self):
        self.hi, self.lo = {}, {}

    def _carry(self, key):
        carry = self.lo[key] >> 52
        self.lo[key] = self.lo[key] - (carry << 52)
        self.hi[key] = self.hi[key] + carry

    def fold(self, state, weight):
        for key, value in state.items():
            v = weight * np.asarray(value, dtype=np.float64)
            hi = np.rint(v * 2.0 ** 32)
            lo = np.rint((v - hi * 2.0 ** -32) * 2.0 ** 84)
            zero = np.zeros(np.shape(value), dtype=np.int64)
            self.hi[key] = self.hi.get(key, zero) + hi.astype(np.int64)
            self.lo[key] = self.lo.get(key, zero) + lo.astype(np.int64)
            self._carry(key)

    def merge(self, other):
        for key in other.hi:
            self.hi[key] = self.hi[key] + other.hi[key]
            self.lo[key] = self.lo[key] + other.lo[key]
            self._carry(key)

    def value(self):
        return {key: self.hi[key].astype(np.float64) * 2.0 ** -32
                + self.lo[key].astype(np.float64) * 2.0 ** -84
                for key in self.hi}


class TestDeterministicSum:
    """The in-place fold against :class:`_EagerSum`, by ``tobytes()``."""

    @staticmethod
    def _states(rng, count, scale=1.0):
        return [{"w": rng.normal(size=(7, 5)) * scale,
                 "b": rng.normal(size=(5,)) * scale,
                 "s": np.asarray(rng.normal() * scale)}   # a 0-d entry
                for _ in range(count)]

    @staticmethod
    def _assert_same_bits(ours, reference):
        value, expected = ours.value(), reference.value()
        assert value.keys() == expected.keys()
        for key in expected:
            assert value[key].tobytes() == expected[key].tobytes(), key

    @pytest.mark.parametrize("count, scale", [
        (5, 1.0), (40, -3.0), (7, 2.0 ** 20), (9, 1e-310),
        (SETTLE_EVERY + 90, 1.0), (2 * SETTLE_EVERY + 1, 2.0 ** 20)],
        ids=["few", "negative", "2^20", "subnormal", "one-carry-boundary",
             "two-carry-boundaries-2^20"])
    def test_fold_in_any_order_equals_the_eager_fold(self, rng, count,
                                                     scale):
        states = self._states(rng, count, scale)
        weights = rng.random(count)
        weights /= weights.sum()
        reference = _EagerSum()
        for state, weight in zip(states, weights):
            reference.fold(state, float(weight))
        for order in (range(count), reversed(range(count)),
                      rng.permutation(count)):
            ours = DeterministicSum()
            for index in order:
                ours.fold(states[index], float(weights[index]))
            self._assert_same_bits(ours, reference)

    def test_partial_and_merge_settle_the_limbs_first(self, rng):
        """Shards folded apart (one past a carry boundary, none settled by
        hand) and merged equal one eager fold of everything."""
        count = SETTLE_EVERY + 40
        states = self._states(rng, count, scale=50.0)
        weights = rng.random(count)
        reference, shards = _EagerSum(), []
        for state, weight in zip(states, weights):
            reference.fold(state, float(weight))
        for chunk in (slice(0, 30), slice(30, 31), slice(31, count)):
            shard = DeterministicSum()
            for state, weight in zip(states[chunk], weights[chunk]):
                shard.fold(state, float(weight))
            shards.append(shard)
        for hi, lo in shards[2].partial().values():     # exported settled
            assert lo.min() >= 0 and lo.max() < 2 ** 52
        merged = DeterministicSum()
        for shard in reversed(shards):
            merged.merge(shard.partial())
        self._assert_same_bits(merged, reference)
        # ...and merging into an accumulator that still owes carries
        merged = shards[0]
        merged.merge(shards[2].partial())
        merged.fold(states[30], float(weights[30]))
        self._assert_same_bits(merged, reference)

    def test_fold_does_not_keep_or_change_its_input(self, rng):
        state = self._states(rng, 1)[0]
        before = {key: value.copy() for key, value in state.items()}
        total = DeterministicSum()
        total.fold(state, 0.25)
        first = total.value()
        state["w"][:] = 0.0          # the caller's buffer is reused
        total.fold(before, 0.5)
        reference = _EagerSum()
        reference.fold(before, 0.25)
        reference.fold(before, 0.5)
        self._assert_same_bits(total, reference)
        np.testing.assert_array_equal(first["w"], before["w"] * 0.25)


# ----------------------------------------------------------------------
# Sync pipelined loop
# ----------------------------------------------------------------------
class TestSyncPipelined:
    def test_sync_round_mode_bitwise_equals_serial(self, community_clients):
        """CI guard: pipelined sync histories are bitwise-equal to serial.

        3-client toy run; ``intra_worker="serial"`` pins the bitwise path so
        any deviation is the pipeline's fault, not shard fusion's.
        """
        _, serial_history = _run(community_clients, backend="serial")
        trainer, pipelined_history = _run(community_clients,
                                          intra_worker="serial")
        # The pipelined loop (not lockstep) must actually have run.
        assert trainer.backend.last_pipeline_stats is not None
        assert trainer.backend.last_pipeline_stats["round_mode"] == "sync"
        _assert_bitwise_equal(serial_history, pipelined_history)

    def test_pipelined_loop_resolves_for_process_pool(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=_config())
        assert resolve_round_loop(trainer).overlaps
        for backend in ("serial", "batched"):
            in_process = FederatedGNN(community_clients, "gcn", hidden=16,
                                      config=_config(backend))
            loop = resolve_round_loop(in_process)
            assert isinstance(loop, SyncRoundLoop) and not loop.overlaps

    def test_hook_overrides_fall_back_to_lockstep(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=_config())
        trainer.before_round = lambda round_index, participants: None
        loop = resolve_round_loop(trainer)
        assert isinstance(loop, SyncRoundLoop) and not loop.overlaps

    def test_depth_zero_dispatch_reads_hook_written_mirrors(
            self, community_clients, monkeypatch):
        """A ``before_round`` hook may rewrite the mirrors after the
        broadcast; the workers must train from what it wrote, not from the
        states the last broadcast returned."""
        def overwrite(self, round_index, participants):
            if round_index == 2:
                for client in self.clients:
                    client.set_weights({
                        key: value * 0.5
                        for key, value in client.get_weights().items()})
        monkeypatch.setattr(FederatedGNN, "before_round", overwrite)
        _, serial_history = _run(community_clients, backend="serial",
                                 rounds=4)
        trainer, pooled_history = _run(community_clients, rounds=4,
                                       intra_worker="serial")
        assert not resolve_round_loop(trainer).overlaps
        assert trainer.backend.last_pipeline_stats is None
        _assert_bitwise_equal(serial_history, pooled_history)

    def test_invalid_round_mode_raises(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=_config(round_mode="chaotic"))
        with pytest.raises(ValueError, match="round_mode"):
            trainer.run()

    def test_partial_participation_matches_serial(self, community_clients):
        _, serial_history = _run(community_clients, backend="serial",
                                 participation=0.67)
        _, pipelined_history = _run(community_clients, participation=0.67,
                                    intra_worker="serial")
        _assert_bitwise_equal(serial_history, pipelined_history)

    def test_eval_every_matches_serial(self, community_clients):
        _, serial_history = _run(community_clients, backend="serial",
                                 rounds=4, eval_every=2)
        _, pipelined_history = _run(community_clients, rounds=4, eval_every=2,
                                    intra_worker="serial")
        assert pipelined_history.rounds == [2, 4]
        _assert_bitwise_equal(serial_history, pipelined_history)

    def test_straggler_skew_preserves_parity(self, community_clients):
        """Simulated slow workers change timing, never results."""
        _, serial_history = _run(community_clients, backend="serial")
        trainer, skewed_history = _run(community_clients,
                                       intra_worker="serial",
                                       worker_speeds=[1.0, 0.25])
        _assert_bitwise_equal(serial_history, skewed_history)
        stats = trainer.backend.last_pipeline_stats
        assert stats["worker_utilization"] > 0.0
        assert stats["straggler_wait_sec"] >= 0.0

    def test_non_streaming_strategy_matches_serial(self, community_clients):
        """FED-PUB and GCFL+ cannot stream: the loop gathers, still
        pipelined."""
        def run(strategy, **kwargs):
            trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                                   config=_config(**kwargs))
            trainer.strategy = strategy()
            return trainer, trainer.run()

        for strategy in (FedPubAggregation, GCFLAggregation):
            _, serial_history = run(strategy, backend="serial")
            trainer, pipelined_history = run(strategy, intra_worker="serial")
            assert trainer.backend.last_pipeline_stats is not None
            _assert_bitwise_equal(serial_history, pipelined_history)

    @pytest.mark.parametrize("case", [
        dict(eval_every=1, participation=0.67),
        dict(eval_every=3, rounds=5),
        dict(eval_every=3, rounds=5, local_client=True),
        dict(eval_every=1, strategy=GCFLAggregation, local_client=True),
    ], ids=["every-round-partial", "every-third", "local-side-client",
            "gathered-local-side"])
    def test_hoisted_eval_matches_lockstep(self, community_clients, case):
        """The deferred evaluation runs right after the next dispatch and
        the streaming fold leaves the mirrors at broadcast state; whatever
        the cadence and whoever trains coordinator-side, the history is the
        serial lockstep loop's, bit for bit."""
        case = dict(case)
        local_client = case.pop("local_client", False)
        strategy = case.pop("strategy", None)

        def run(**kwargs):
            import copy
            clients = copy.deepcopy(community_clients)
            trainer = FederatedGNN(clients, "gcn", hidden=16,
                                   config=_config(**case, **kwargs))
            if strategy is not None:   # stateful: one instance per run
                trainer.strategy = strategy()
            if local_client:   # a closure cannot be pickled to a worker
                trainer.clients[0].extra_loss = \
                    lambda client, logits: (logits * logits).mean() * 0.01
            with trainer:   # the backend forgets its residents on close
                history = trainer.run()
                local = set(getattr(trainer.backend, "_local", ()))
            return trainer, history, local

        _, lockstep, _ = run(backend="serial")
        trainer, pipelined, local = run(intra_worker="serial")
        assert trainer.backend.last_pipeline_stats["round_mode"] == "sync"
        assert local == ({0} if local_client else set())
        _assert_bitwise_equal(lockstep, pipelined)
        for a, b in zip(lockstep.client_accuracy, pipelined.client_accuracy):
            assert a == b

    def test_hoisted_eval_reads_broadcast_state_across_a_drop(
            self, community_clients, tmp_path):
        """A round that loses a shard to ``round_timeout`` still records
        the evaluation a flush at the end of every round records (a
        checkpoint per round forces that flush), and a run resumed from one
        of those checkpoints continues it bitwise."""
        from repro.federated.engine import FaultEvent, FaultPlan

        def run(**kwargs):
            plan = FaultPlan([FaultEvent(0, 2, "stall", duration=2.0)])
            return _run(community_clients, rounds=4, intra_worker="serial",
                        round_timeout=0.6, fault_plan=plan, **kwargs)

        trainer, hoisted = run()
        assert trainer.backend.fault_stats["timeouts"] >= 1
        assert hoisted.client_drops
        _, flushed = run(checkpoint_every=1, checkpoint_dir=str(tmp_path))
        _assert_bitwise_equal(hoisted, flushed)
        _, resumed = _run(community_clients, rounds=4, intra_worker="serial",
                          resume_from=str(tmp_path / "round_0003.ckpt"))
        assert resumed.rounds == hoisted.rounds
        np.testing.assert_array_equal(resumed.test_accuracy[:3],
                                      hoisted.test_accuracy[:3])

    def test_worker_speed_cycles_over_pool(self):
        backend = ProcessPoolBackend(2, worker_speeds=[1.0, 0.5])
        assert backend.worker_speed(0) == 1.0
        assert backend.worker_speed(1) == 0.5
        assert backend.worker_speed(2) == 1.0  # cycles
        with pytest.raises(ValueError):
            ProcessPoolBackend(2, worker_speeds=[0.0])


# ----------------------------------------------------------------------
# Pipelined failure paths
# ----------------------------------------------------------------------
class TestPipelinedFailures:
    def test_worker_crash_surfaces_traceback_and_reclaims_pool(
            self, community_clients):
        """A worker dying mid-pipelined-round must raise *its* traceback and
        the context manager must reclaim the pool with no queued broadcasts
        left behind."""
        import copy
        clients = copy.deepcopy(community_clients)
        trainer = FederatedGNN(clients, "gcn", hidden=16,
                               config=_config(rounds=3,
                                              intra_worker="serial"))
        # Out-of-range labels blow up the worker-side cross-entropy gather.
        trainer.clients[0].graph.labels[:] = 999
        with trainer:
            with pytest.raises(WorkerError, match="worker 0 failed"):
                trainer.run()
        assert trainer.backend._pool is None

    def test_run_after_worker_crash_starts_clean(self, community_clients):
        """No queued broadcasts/replies leak into the next run: after a
        crash, a repaired trainer reproduces the serial history exactly."""
        import copy
        clients = copy.deepcopy(community_clients)
        trainer = FederatedGNN(clients, "gcn", hidden=16,
                               config=_config(rounds=2,
                                              intra_worker="serial"))
        good_labels = trainer.clients[0].graph.labels.copy()
        initial = {cid: c.get_weights()
                   for cid, c in enumerate(trainer.clients)}
        trainer.clients[0].graph.labels[:] = 999
        with pytest.raises(WorkerError):
            trainer.run()
        assert trainer.backend._pool is None
        # Repair and restart from the initial weights: a clean pool must
        # reproduce the serial history bit for bit.
        trainer.clients[0].graph.labels[:] = good_labels
        for cid, client in enumerate(trainer.clients):
            client.set_weights(initial[cid])
            client.reset_optimizer()
        serial = FederatedGNN(community_clients, "gcn", hidden=16,
                              config=_config("serial", rounds=2))
        _assert_bitwise_equal(serial.run(), trainer.run())

    def test_async_worker_crash_reclaims_pool(self, community_clients):
        import copy
        clients = copy.deepcopy(community_clients)
        trainer = FederatedGNN(clients, "gcn", hidden=16,
                               config=_config(rounds=3, round_mode="async"))
        trainer.clients[0].graph.labels[:] = 999
        with pytest.raises(WorkerError, match="failed"):
            trainer.run()
        assert trainer.backend._pool is None


# ----------------------------------------------------------------------
# Bounded-staleness async rounds
# ----------------------------------------------------------------------
class TestAsyncRounds:
    SPEEDS = [1.0, 0.5]

    def _async_config(self, **kwargs):
        defaults = dict(rounds=4, round_mode="async", async_buffer=1,
                        staleness_cap=2, worker_speeds=self.SPEEDS,
                        intra_worker="serial")
        defaults.update(kwargs)
        return _config(**defaults)

    def test_fixed_seed_and_speeds_are_deterministic(self, community_clients):
        histories = []
        for _ in range(2):
            trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                                   config=self._async_config())
            histories.append(trainer.run())
        a, b = histories
        assert a.rounds == b.rounds
        np.testing.assert_array_equal(a.loss, b.loss)
        np.testing.assert_array_equal(a.test_accuracy, b.test_accuracy)
        assert a.client_lag == b.client_lag

    def test_history_records_per_client_lag(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=self._async_config())
        history = trainer.run()
        assert history.rounds == [1, 2, 3, 4]
        assert len(history.client_lag) == 4
        # Lags are observed for every client that reported, and a slow
        # worker must actually fall behind at some point.
        assert any(lag_map for lag_map in history.client_lag)
        all_lags = [lag for lag_map in history.client_lag
                    for lag in lag_map.values()]
        assert all(lag >= 0 for lag in all_lags)
        assert max(all_lags) > 0

    def test_pipeline_stats_summarise_the_run(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=self._async_config())
        with trainer:
            trainer.run()
            stats = trainer.backend.last_pipeline_stats
        assert stats["round_mode"] == "async"
        assert stats["seals"] == 4
        assert stats["reports_merged"] >= 4  # ≥ one report per seal (B=1)
        assert 0.0 <= stats["worker_utilization"] <= 1.0
        assert stats["max_report_lag"] >= stats["mean_report_lag"] >= 0.0

    def test_zero_staleness_cap_drops_stale_reports(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=self._async_config(staleness_cap=0,
                                                         rounds=5))
        with trainer:
            trainer.run()
            stats = trainer.backend.last_pipeline_stats
        # With one shard sealing per report, the other worker's reports
        # arrive ≥1 seal stale and must be dropped under cap 0.
        assert stats["reports_dropped"] > 0

    def test_async_requires_process_pool(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=_config("serial", round_mode="async"))
        with pytest.raises(ValueError, match="process_pool"):
            trainer.run()

    def test_async_partial_participation_is_deterministic(
            self, community_clients):
        """Async rounds subsample each dispatched shard from the dedicated
        participation stream; the virtual clock makes the dispatch order —
        and therefore the sampled sets — reproducible run to run."""
        def run():
            trainer = FederatedGNN(
                community_clients, "gcn", hidden=16,
                config=self._async_config(participation=0.5))
            return trainer.run()

        a, b = run(), run()
        assert a.participants and a.participants == b.participants
        total = len(community_clients)
        for ids in a.participants.values():
            assert 0 < len(ids) <= total
        np.testing.assert_array_equal(a.test_accuracy, b.test_accuracy)

    def test_async_rejects_out_of_range_participation(
            self, community_clients):
        for fraction in (1.5, 0.0, -0.2):
            with pytest.raises(ValueError,
                               match=r"participation must be in \(0, 1\]"):
                FederatedGNN(community_clients, "gcn", hidden=16,
                             config=self._async_config(
                                 participation=fraction))

    def test_async_rejects_personalized_aggregation(self, community_clients):
        """Personalized strategies assume per-client broadcasts; the async
        loop ships the raw sealed global model, so it must refuse instead
        of silently degenerating FED-PUB/GCFL+ to plain async FedAvg."""
        from repro.fgl import build_baseline

        trainer = build_baseline("fed-pub", community_clients,
                                 config=self._async_config())
        with pytest.raises(ValueError, match="personalized"):
            trainer.run()

    def test_async_rejects_hook_overrides(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=self._async_config())
        trainer.after_round = lambda round_index, participants: None
        with pytest.raises(ValueError, match="hooks"):
            trainer.run()

    def test_async_rejects_hooked_clients(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=self._async_config())
        trainer.clients[0].extra_loss = lambda client, logits: None
        with pytest.raises(ValueError, match="picklable"):
            trainer.run()
        assert trainer.backend._pool is None

    def test_invalid_async_knobs_raise(self, community_clients):
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=self._async_config(async_buffer=0))
        with pytest.raises(ValueError, match="async_buffer"):
            trainer.run()
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=self._async_config(staleness_cap=-1))
        with pytest.raises(ValueError, match="staleness_cap"):
            trainer.run()

    def test_final_weights_settle_on_sealed_model(self, community_clients):
        """After the drain, every mirror holds the last sealed global."""
        trainer = FederatedGNN(community_clients, "gcn", hidden=16,
                               config=self._async_config())
        trainer.run()
        reference = trainer.clients[0].get_weights()
        for client in trainer.clients[1:]:
            for key, value in client.get_weights().items():
                np.testing.assert_array_equal(value, reference[key])
        for key, value in trainer.server.global_state.items():
            np.testing.assert_array_equal(reference[key], value)

    def test_adafgl_step2_rides_async_pool(self, community_clients):
        """AdaFGL Step 1 can run async; Step 2 reuses the same worker pool
        (resident subgraphs) and still produces a sane personalized model."""
        config = AdaFGLConfig(rounds=3, local_epochs=1, hidden=16,
                              personalized_epochs=4, k_prop=2,
                              message_layers=1, seed=0, num_workers=2,
                              sparse_propagation=True,
                              round_mode="async", async_buffer=1,
                              staleness_cap=2,
                              worker_speeds=self.SPEEDS)
        method = AdaFGL(community_clients, config)
        method.run()
        assert method.extractor.trainer.backend._pool is None  # reclaimed
        # Step-1 seals recorded per-client lags in the extractor history.
        assert any(lag_map for lag_map in method.step1_history.client_lag)
        assert len(method.personalized) == len(community_clients)
        assert 0.0 <= method.evaluate("test") <= 1.0


# ----------------------------------------------------------------------
# Lossy top-k delta transport
# ----------------------------------------------------------------------
class TestTopkDeltaCodec:
    def test_roundtrip_reconstructs_truncated_trajectory(self, rng):
        received = {"w": rng.normal(size=(6, 4))}
        trained = {"w": received["w"] + rng.normal(size=(6, 4))}
        payload, residual, transported = encode_topk_delta(
            trained, received, top_k=5)
        rebuilt = apply_topk_delta(received, payload)
        # Kept entries move exactly to the trained value, the rest stay put
        # and their miss is carried in the residual.
        delta = trained["w"] - received["w"]
        kept = payload["w"][0]
        np.testing.assert_allclose(rebuilt["w"].ravel()[kept],
                                   trained["w"].ravel()[kept])
        np.testing.assert_allclose(rebuilt["w"] + residual["w"], trained["w"])
        assert transported == 2 * 5
        # Top-k by magnitude: every kept entry dominates every dropped one.
        dropped_mask = np.ones(delta.size, dtype=bool)
        dropped_mask[kept] = False
        assert np.abs(delta.ravel()[kept]).min() >= \
            np.abs(delta.ravel()[dropped_mask]).max()

    def test_error_feedback_carries_dropped_mass(self, rng):
        received = {"w": np.zeros(4)}
        trained = {"w": np.array([1.0, -3.0, 0.5, 2.0])}
        payload, residual, _ = encode_topk_delta(trained, received, top_k=1)
        assert payload["w"][1].tolist() == [-3.0]
        np.testing.assert_allclose(residual["w"], [1.0, 0.0, 0.5, 2.0])
        # Next round: zero fresh movement, but the residual alone must now
        # surface the next-largest dropped entry.
        payload2, residual2, _ = encode_topk_delta(
            received, received, top_k=1, residual=residual)
        assert payload2["w"][1].tolist() == [2.0]
        np.testing.assert_allclose(residual2["w"], [1.0, 0.0, 0.5, 0.0])

    def test_topk_keeps_everything_when_k_exceeds_size(self, rng):
        received = {"w": rng.normal(size=(2, 2))}
        trained = {"w": received["w"] + 1.0}
        payload, residual, _ = encode_topk_delta(trained, received, top_k=99)
        rebuilt = apply_topk_delta(received, payload)
        np.testing.assert_allclose(rebuilt["w"], trained["w"])
        np.testing.assert_array_equal(residual["w"], 0.0)

    def test_pipelined_run_ships_fewer_values(self, community_clients):
        base = dict(rounds=3, intra_worker="serial")
        lossless, _ = _run(community_clients, **base)
        lossy, lossy_history = _run(community_clients, **base,
                                    delta_codec="topk", delta_top_k=8)
        assert lossy.backend.transport.uploaded["parameter_delta"] < \
            lossless.backend.transport.uploaded["parameter_delta"]
        assert np.all(np.isfinite(lossy_history.loss))
        # Mirror and worker never diverge: a second run continues cleanly.
        assert 0.0 <= lossy_history.test_accuracy[-1] <= 1.0

    def test_codec_validation(self):
        with pytest.raises(ValueError, match="delta_codec"):
            ProcessPoolBackend(2, delta_codec="zip")
        with pytest.raises(ValueError, match="delta_top_k"):
            ProcessPoolBackend(2, delta_codec="topk", delta_top_k=0)
