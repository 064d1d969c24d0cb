"""Unit tests for the Tensor type and reverse-mode differentiation."""

import threading

import numpy as np
import pytest

from repro.autograd import (
    Tensor,
    Workspace,
    buffer_idle,
    is_grad_enabled,
    no_grad,
)


def numerical_gradient(fn, x, eps=1e-6):
    """Central-difference gradient of a scalar function of a numpy array."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.ravel()
    grad_flat = grad.ravel()
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


class TestTensorBasics:
    def test_construction_from_list(self):
        t = Tensor([1.0, 2.0, 3.0])
        assert t.shape == (3,)
        assert t.data.dtype == np.float64

    def test_construction_casts_dtype(self):
        t = Tensor(np.array([1, 2], dtype=np.int32))
        assert t.data.dtype == np.float64

    def test_requires_grad_flag(self):
        t = Tensor(np.ones(3), requires_grad=True)
        assert t.requires_grad

    def test_detach_breaks_graph(self):
        t = Tensor(np.ones(3), requires_grad=True)
        d = t.detach()
        assert not d.requires_grad
        assert np.array_equal(d.data, t.data)

    def test_item_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_properties(self):
        t = Tensor(np.ones((2, 3)))
        assert t.ndim == 2
        assert t.size == 6
        assert t.T.shape == (3, 2)

    def test_zeros_ones_eye(self):
        assert np.array_equal(Tensor.zeros((2, 2)).data, np.zeros((2, 2)))
        assert np.array_equal(Tensor.ones((2,)).data, np.ones(2))
        assert np.array_equal(Tensor.eye(3).data, np.eye(3))

    def test_backward_requires_scalar(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2).backward()

    def test_zero_grad(self):
        t = Tensor(np.ones(3), requires_grad=True)
        (t.sum()).backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None


class TestArithmeticGradients:
    def test_add_gradient(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (a + b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [1.0, 1.0])

    def test_add_scalar(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        (a + 5.0).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])

    def test_sub_gradient(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, 4.0]), requires_grad=True)
        (a - b).sum().backward()
        assert np.allclose(a.grad, [1.0, 1.0])
        assert np.allclose(b.grad, [-1.0, -1.0])

    def test_rsub(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        out = 10.0 - a
        assert np.allclose(out.data, [9.0, 8.0])
        out.sum().backward()
        assert np.allclose(a.grad, [-1.0, -1.0])

    def test_mul_gradient(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        b = Tensor(np.array([4.0, 5.0]), requires_grad=True)
        (a * b).sum().backward()
        assert np.allclose(a.grad, [4.0, 5.0])
        assert np.allclose(b.grad, [2.0, 3.0])

    def test_div_gradient(self):
        a = Tensor(np.array([6.0]), requires_grad=True)
        b = Tensor(np.array([3.0]), requires_grad=True)
        (a / b).sum().backward()
        assert np.allclose(a.grad, [1.0 / 3.0])
        assert np.allclose(b.grad, [-6.0 / 9.0])

    def test_neg(self):
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        (-a).sum().backward()
        assert np.allclose(a.grad, [-1.0, -1.0])

    def test_pow_gradient(self):
        a = Tensor(np.array([2.0, 3.0]), requires_grad=True)
        (a ** 3).sum().backward()
        assert np.allclose(a.grad, [12.0, 27.0])

    def test_matmul_gradient_matches_numerical(self):
        rng = np.random.default_rng(0)
        a_data = rng.normal(size=(3, 4))
        b_data = rng.normal(size=(4, 2))

        a = Tensor(a_data.copy(), requires_grad=True)
        b = Tensor(b_data.copy(), requires_grad=True)
        (a @ b).sum().backward()

        num_a = numerical_gradient(lambda x: (x @ b_data).sum(), a_data.copy())
        num_b = numerical_gradient(lambda x: (a_data @ x).sum(), b_data.copy())
        assert np.allclose(a.grad, num_a, atol=1e-5)
        assert np.allclose(b.grad, num_b, atol=1e-5)

    def test_broadcast_add_bias(self):
        x = Tensor(np.ones((4, 3)), requires_grad=True)
        bias = Tensor(np.zeros(3), requires_grad=True)
        (x + bias).sum().backward()
        assert bias.grad.shape == (3,)
        assert np.allclose(bias.grad, [4.0, 4.0, 4.0])

    def test_broadcast_mul_scalar_tensor(self):
        x = Tensor(np.ones((2, 3)), requires_grad=True)
        s = Tensor(2.0, requires_grad=True)
        (x * s).sum().backward()
        assert np.allclose(x.grad, 2.0 * np.ones((2, 3)))
        assert np.allclose(s.grad, 6.0)

    def test_gradient_accumulates_on_reuse(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        out = a * 2 + a * 3
        out.sum().backward()
        assert np.allclose(a.grad, [5.0])

    def test_chain_of_operations_numerical(self):
        rng = np.random.default_rng(1)
        x_data = rng.normal(size=(5, 3))

        def fn(x):
            return float(np.sum((x @ np.ones((3, 2))) ** 2) / x.size)

        x = Tensor(x_data.copy(), requires_grad=True)
        y = ((x @ Tensor(np.ones((3, 2)))) ** 2).sum() * (1.0 / x_data.size)
        y.backward()
        numerical = numerical_gradient(fn, x_data.copy())
        assert np.allclose(x.grad, numerical, atol=1e-5)


class TestShapingOps:
    def test_sum_axis_keepdims(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = x.sum(axis=0, keepdims=True)
        assert out.shape == (1, 3)
        out.sum().backward()
        assert np.allclose(x.grad, np.ones((2, 3)))

    def test_sum_axis_no_keepdims(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        out = x.sum(axis=1)
        assert out.shape == (2,)
        out.sum().backward()
        assert np.allclose(x.grad, np.ones((2, 3)))

    def test_mean(self):
        x = Tensor(np.array([2.0, 4.0]), requires_grad=True)
        x.mean().backward()
        assert np.allclose(x.grad, [0.5, 0.5])

    def test_reshape_roundtrip_gradient(self):
        x = Tensor(np.arange(6.0), requires_grad=True)
        x.reshape(2, 3).sum().backward()
        assert x.grad.shape == (6,)
        assert np.allclose(x.grad, np.ones(6))

    def test_transpose_gradient(self):
        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        (x.T * Tensor(np.ones((3, 2)))).sum().backward()
        assert x.grad.shape == (2, 3)

    def test_getitem_rows(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = x[np.array([0, 2])]
        assert out.shape == (2, 3)
        out.sum().backward()
        expected = np.zeros((4, 3))
        expected[[0, 2]] = 1.0
        assert np.allclose(x.grad, expected)

    def test_getitem_fancy_pairs(self):
        x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
        out = x[np.array([0, 1]), np.array([2, 0])]
        out.sum().backward()
        expected = np.zeros((4, 3))
        expected[0, 2] = 1.0
        expected[1, 0] = 1.0
        assert np.allclose(x.grad, expected)

    def test_getitem_repeated_index_accumulates(self):
        x = Tensor(np.zeros(3), requires_grad=True)
        out = x[np.array([1, 1])]
        out.sum().backward()
        assert np.allclose(x.grad, [0.0, 2.0, 0.0])


class TestElementwiseFunctions:
    def test_relu_forward_and_grad(self):
        x = Tensor(np.array([-1.0, 0.0, 2.0]), requires_grad=True)
        out = x.relu()
        assert np.allclose(out.data, [0.0, 0.0, 2.0])
        out.sum().backward()
        assert np.allclose(x.grad, [0.0, 0.0, 1.0])

    def test_exp_log_inverse(self):
        x = Tensor(np.array([0.5, 1.5]), requires_grad=True)
        out = x.exp().log()
        assert np.allclose(out.data, x.data)

    def test_log_gradient(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        x.log().sum().backward()
        assert np.allclose(x.grad, [0.5])

    def test_sigmoid_range(self):
        x = Tensor(np.linspace(-10, 10, 7))
        out = x.sigmoid()
        assert np.all(out.data > 0) and np.all(out.data < 1)

    def test_sigmoid_gradient_at_zero(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        x.sigmoid().sum().backward()
        assert np.allclose(x.grad, [0.25])

    def test_tanh_gradient(self):
        x = Tensor(np.array([0.0]), requires_grad=True)
        x.tanh().sum().backward()
        assert np.allclose(x.grad, [1.0])

    def test_clip_gradient_mask(self):
        x = Tensor(np.array([-2.0, 0.5, 3.0]), requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        assert np.allclose(x.grad, [0.0, 1.0, 0.0])


class TestGradMode:
    def test_no_grad_disables_graph(self):
        a = Tensor(np.ones(2), requires_grad=True)
        with no_grad():
            out = a * 2
        assert not out.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_nested_exception_safe(self):
        try:
            with no_grad():
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert is_grad_enabled()

    def test_constants_do_not_track(self):
        a = Tensor(np.ones(2), requires_grad=False)
        out = a * 3 + 1
        assert not out.requires_grad


class TestBatchedMatmul:
    """ndim > 2 matmul: batched operands and broadcast weights."""

    def test_batched_forward_matches_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=(3, 5, 2))
        out = Tensor(a).matmul(Tensor(b))
        expected = np.stack([a[i] @ b[i] for i in range(3)])
        assert np.allclose(out.data, expected)

    def test_batched_both_grads(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(2, 3, 4))
        b = rng.normal(size=(2, 4, 2))
        ta = Tensor(a.copy(), requires_grad=True)
        tb = Tensor(b.copy(), requires_grad=True)
        (ta.matmul(tb) * ta.matmul(tb)).sum().backward()
        expected_a = numerical_gradient(
            lambda x: float(((x @ b) ** 2).sum()), a.copy())
        expected_b = numerical_gradient(
            lambda x: float(((a @ x) ** 2).sum()), b.copy())
        assert np.allclose(ta.grad, expected_a, atol=1e-5)
        assert np.allclose(tb.grad, expected_b, atol=1e-5)

    def test_broadcast_weight_grad_reduces_batch_axis(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 3, 5))
        w = rng.normal(size=(5, 2))
        tw = Tensor(w.copy(), requires_grad=True)
        Tensor(x).matmul(tw).sum().backward()
        assert tw.grad.shape == (5, 2)
        expected = numerical_gradient(lambda v: float((x @ v).sum()), w.copy())
        assert np.allclose(tw.grad, expected, atol=1e-5)

    def test_2d_behaviour_unchanged(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        ta = Tensor(a, requires_grad=True)
        tb = Tensor(b, requires_grad=True)
        ta.matmul(tb).sum().backward()
        assert np.allclose(ta.grad, np.ones((3, 2)) @ b.T)
        assert np.allclose(tb.grad, a.T @ np.ones((3, 2)))


def _two_layer(x, w, mask):
    """The op mix a batched plan replays: ``@``, ``+``, relu, ``*``, ``@``."""
    hidden = ((x @ w[0]) + w[1]).relu() * mask
    return hidden @ w[2]


class TestBufferIdle:
    """``buffer_idle`` rests on ``sys.getrefcount``, a CPython detail: this
    is the contract every resident buffer (workspace slots, a TCP channel's
    receive buffers) is reused under.  CI runs it on the newest CPython it
    offers (job ``refcount-contract``)."""

    def test_only_the_list_holding_it_leaves_a_buffer_idle(self):
        buffers = [np.empty(8), np.empty((2, 3), dtype=np.uint8)]
        assert buffer_idle(buffers, 0) and buffer_idle(buffers, 1)
        name = buffers[0]
        assert not buffer_idle(buffers, 0) and buffer_idle(buffers, 1)
        del name
        assert buffer_idle(buffers, 0)

    def test_every_kind_of_view_keeps_its_base_busy(self):
        buffers = [np.empty(64, dtype=np.uint8)]
        for make in (lambda a: a[8:16], lambda a: a.view(np.float64),
                     lambda a: a[8:40].view(np.float64).reshape(2, 2),
                     lambda a: a.reshape(8, 8).T, lambda a: memoryview(a),
                     lambda a: np.frombuffer(a, dtype=np.uint32)):
            view = make(buffers[0])
            assert not buffer_idle(buffers, 0), make
            del view
            assert buffer_idle(buffers, 0), make

    def test_containers_and_closures_count(self):
        buffers = [np.empty(4)]
        holder = {"state": buffers[0][1:]}
        assert not buffer_idle(buffers, 0)
        holder.clear()
        assert buffer_idle(buffers, 0)
        closure = (lambda array: lambda: array)(buffers[0])
        assert not buffer_idle(buffers, 0)
        del closure
        assert buffer_idle(buffers, 0)

    def test_the_answer_is_the_same_on_any_thread_and_call_depth(self):
        buffers = [np.empty(4)]
        answers = []

        def nested(depth):
            if depth:
                return nested(depth - 1)
            answers.append(buffer_idle(buffers, 0))

        nested(0)
        nested(5)
        worker = threading.Thread(target=nested, args=(3,))
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive() and answers == [True, True, True]
        kept = buffers[0]                       # busy, seen from a thread
        worker = threading.Thread(target=nested, args=(3,))
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive() and answers[-1] is False
        assert kept is buffers[0]


class TestWorkspace:
    """The replayed result buffers under the batched plans' epochs."""

    @pytest.fixture
    def operands(self):
        rng = np.random.default_rng(0)
        x = Tensor(rng.standard_normal((3, 5, 4)))
        w = [Tensor(rng.standard_normal(shape), requires_grad=True)
             for shape in ((3, 4, 6), (3, 1, 6), (3, 6, 2))]
        mask = Tensor((rng.random((3, 5, 6)) >= 0.5) / 0.5)
        return x, w, mask

    def _epoch(self, operands):
        x, w, mask = operands
        for param in w:
            param.grad = None
        out = _two_layer(x, w, mask)
        out.sum().backward()
        return out.data.copy(), [param.grad.copy() for param in w]

    def test_replay_reuses_every_buffer_and_changes_no_bit(self, operands):
        plain = self._epoch(operands)
        workspace = Workspace()
        with workspace:
            first = self._epoch(operands)
        taken = workspace.fresh
        assert taken > 0
        for _ in range(3):
            with workspace:
                again = self._epoch(operands)
            assert workspace.fresh == taken          # nothing allocated
            for got in (first, again):
                assert got[0].tobytes() == plain[0].tobytes()
                for grad, expected in zip(got[1], plain[1]):
                    assert grad.tobytes() == expected.tobytes()

    def test_referenced_array_is_not_handed_out_again(self):
        a, b = Tensor(np.ones((2, 3))), Tensor(np.full((2, 3), 2.0))
        workspace = Workspace()
        with workspace:
            kept = (a + b).data
        with workspace:
            replaced = (a * b).data       # same slot, still referenced
        assert replaced is not kept
        assert not np.shares_memory(replaced, kept)
        assert np.array_equal(kept, np.full((2, 3), 3.0))
        view = replaced[0]                # a view holds its base
        del replaced
        with workspace:
            third = (a + b).data
        assert not np.shares_memory(third, view)
        assert np.array_equal(view, np.full(3, 2.0))

    def test_dropped_array_is_reused_only_for_its_shape(self):
        a = Tensor(np.ones((2, 3)))
        workspace = Workspace()
        with workspace:
            address = (a + a).data.ctypes.data
        with workspace:
            same = (a * a).data
            assert same.ctypes.data == address and workspace.fresh == 1
            del same
        with workspace:
            other = (Tensor(np.ones((4, 3))) + 1.0).data
        assert other.shape == (4, 3) and workspace.fresh == 2

    def test_inactive_ops_allocate_as_before(self, operands):
        from repro.autograd.tensor import scratch

        x, w, mask = operands
        workspace = Workspace()
        with workspace:
            inside = _two_layer(x, w, mask).data
        taken = workspace.fresh
        assert scratch((2, 2)) is None
        outside = _two_layer(x, w, mask).data
        again = _two_layer(x, w, mask).data
        assert workspace.fresh == taken              # scope closed: untouched
        assert not np.shares_memory(outside, again)  # every result is new
        assert outside.flags.owndata and outside.base is None
        assert outside.tobytes() == inside.tobytes() == again.tobytes()

    def test_scopes_nest_and_unwind_on_error(self):
        from repro.autograd.tensor import scratch

        outer, inner = Workspace(), Workspace()
        with outer:
            with pytest.raises(RuntimeError):
                with inner:
                    assert scratch((2,)) is not None and inner.fresh == 1
                    raise RuntimeError("epoch failed")
            assert scratch((2,)) is not None and outer.fresh == 1
        assert scratch((2,)) is None

    def test_query_engine_flush_sees_no_workspace(self, community_clients):
        """Scopes are per thread: the serving worker's forward, run while a
        training epoch's workspace is open here, takes nothing from it."""
        from repro.federated import FederatedConfig
        from repro.fgl import build_baseline
        from repro.serving import InductiveQuery, QueryEngine, ServingSnapshot

        trainer = build_baseline(
            "fedgcn", community_clients, hidden=16,
            config=FederatedConfig(rounds=1, local_epochs=1, seed=0))
        trainer.run()
        graph = trainer.clients[0].graph
        query = InductiveQuery(0, graph.features[0], anchors=[0, 1])
        workspace = Workspace()
        with QueryEngine(ServingSnapshot.from_trainer(trainer),
                         max_batch=1, max_delay_ms=0.0) as engine:
            expected = engine.query(query, timeout=30)
            with workspace:
                served = engine.query(query, timeout=30)
                assert workspace.fresh == 0
                (Tensor(np.ones(2)) + 1.0)           # this thread's ops do
                assert workspace.fresh == 1
        assert served.path == expected.path == "serial"
        assert served.probs.tobytes() == expected.probs.tobytes()

    @pytest.mark.parametrize("model", ["gcn", "sgc", "gamlp", "gprgnn"])
    def test_plan_epochs_allocate_nothing_after_the_first_round(
            self, model, community_clients):
        """A count, not a timing: every later epoch of a batched plan finds
        all of its buffers (forward, backward, clipping, Adam) in place."""
        from repro.federated import FederatedConfig
        from repro.fgl.fedgnn import FederatedGNN

        trainer = FederatedGNN(
            community_clients, model, hidden=16,
            config=FederatedConfig(rounds=1, local_epochs=3, seed=0,
                                   backend="batched"))
        with trainer:
            trainer.run()
            workspace = trainer.backend._workspace
            assert trainer.backend.last_fallback is None
            taken = workspace.fresh
            assert taken > 0
            trainer.run(rounds=3)
            assert trainer.backend._workspace is workspace
            assert workspace.fresh == taken
