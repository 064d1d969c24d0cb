"""Tests for functional ops: softmax, spmm, the pattern products, dropout,
concat and losses."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.autograd import Tensor, functional as F


class TestActivations:
    def test_softmax_rows_sum_to_one(self):
        x = Tensor(np.random.default_rng(0).normal(size=(5, 4)))
        out = F.softmax(x, axis=-1)
        assert np.allclose(out.data.sum(axis=1), 1.0)

    def test_softmax_invariant_to_shift(self):
        x = np.random.default_rng(0).normal(size=(3, 4))
        a = F.softmax(Tensor(x)).data
        b = F.softmax(Tensor(x + 100.0)).data
        assert np.allclose(a, b)

    def test_softmax_gradient_sums_to_zero(self):
        x = Tensor(np.random.default_rng(1).normal(size=(2, 3)),
                   requires_grad=True)
        out = F.softmax(x, axis=-1)
        out[np.array([0]), np.array([0])].sum().backward()
        # Gradient of a softmax output w.r.t. its logits sums to zero per row.
        assert np.allclose(x.grad.sum(axis=1), [0.0, 0.0], atol=1e-10)

    def test_log_softmax_matches_log_of_softmax(self):
        x = np.random.default_rng(2).normal(size=(4, 5))
        a = F.log_softmax(Tensor(x)).data
        b = np.log(F.softmax(Tensor(x)).data)
        assert np.allclose(a, b)

    def test_leaky_relu(self):
        x = Tensor(np.array([-2.0, 3.0]), requires_grad=True)
        out = F.leaky_relu(x, negative_slope=0.1)
        assert np.allclose(out.data, [-0.2, 3.0])
        out.sum().backward()
        assert np.allclose(x.grad, [0.1, 1.0])

    def test_elu_continuity(self):
        x = Tensor(np.array([-1e-9, 1e-9]))
        out = F.elu(x)
        assert np.allclose(out.data, [0.0, 0.0], atol=1e-8)

    def test_relu_alias(self):
        x = Tensor(np.array([-1.0, 1.0]))
        assert np.allclose(F.relu(x).data, [0.0, 1.0])

    def test_sigmoid_tanh_aliases(self):
        x = Tensor(np.array([0.0]))
        assert F.sigmoid(x).data[0] == pytest.approx(0.5)
        assert F.tanh(x).data[0] == pytest.approx(0.0)


class TestSparsePropagation:
    def test_spmm_matches_dense(self):
        rng = np.random.default_rng(0)
        dense_adj = (rng.random((6, 6)) < 0.4).astype(float)
        x = rng.normal(size=(6, 3))
        sparse_adj = sp.csr_matrix(dense_adj)
        out = F.spmm(sparse_adj, Tensor(x))
        assert np.allclose(out.data, dense_adj @ x)

    def test_spmm_gradient_is_transpose_propagation(self):
        rng = np.random.default_rng(1)
        dense_adj = (rng.random((5, 5)) < 0.5).astype(float)
        sparse_adj = sp.csr_matrix(dense_adj)
        x = Tensor(rng.normal(size=(5, 2)), requires_grad=True)
        F.spmm(sparse_adj, x).sum().backward()
        expected = dense_adj.T @ np.ones((5, 2))
        assert np.allclose(x.grad, expected)

    def test_spmm_rejects_dense_first_operand(self):
        with pytest.raises(TypeError):
            F.spmm(np.eye(3), Tensor(np.ones((3, 2))))

    def test_spmm_numerical_gradient(self):
        """Finite-difference check of the spmm backward pass."""
        rng = np.random.default_rng(7)
        adjacency = sp.random(6, 6, density=0.5, format="csr", random_state=3)
        base = rng.normal(size=(6, 3))

        def loss_value(array):
            out = F.spmm(adjacency, Tensor(array))
            return float((out * out).sum().data)

        x = Tensor(base.copy(), requires_grad=True)
        out = F.spmm(adjacency, x)
        (out * out).sum().backward()

        eps = 1e-6
        numeric = np.zeros_like(base)
        for i in range(base.shape[0]):
            for j in range(base.shape[1]):
                plus = base.copy()
                plus[i, j] += eps
                minus = base.copy()
                minus[i, j] -= eps
                numeric[i, j] = (loss_value(plus) - loss_value(minus)) / (2 * eps)
        assert np.allclose(x.grad, numeric, atol=1e-5)

    def test_sddmm_matches_dense_product(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(5, 4))
        rows = np.array([0, 0, 2, 4])
        cols = np.array([1, 3, 2, 0])
        out = F.sddmm(rows, cols, Tensor(a), Tensor(b))
        assert np.allclose(out.data, (a @ b.T)[rows, cols])

    def test_sddmm_numerical_gradient(self):
        rng = np.random.default_rng(3)
        base = rng.normal(size=(4, 3))
        rows = np.array([0, 1, 1, 3])
        cols = np.array([2, 0, 3, 3])

        def loss_value(array):
            vals = F.sddmm(rows, cols, Tensor(array), Tensor(array))
            return float((vals * vals).sum().data)

        x = Tensor(base.copy(), requires_grad=True)
        vals = F.sddmm(rows, cols, x, x)
        (vals * vals).sum().backward()

        eps = 1e-6
        numeric = np.zeros_like(base)
        for i in range(base.shape[0]):
            for j in range(base.shape[1]):
                plus = base.copy()
                plus[i, j] += eps
                minus = base.copy()
                minus[i, j] -= eps
                numeric[i, j] = (loss_value(plus) - loss_value(minus)) / (2 * eps)
        assert np.allclose(x.grad, numeric, atol=1e-5)

    def test_spmm_pattern_matches_dense(self):
        rng = np.random.default_rng(4)
        pattern = sp.random(6, 6, density=0.4, format="csr", random_state=5)
        x = rng.normal(size=(6, 2))
        values = Tensor(rng.normal(size=pattern.nnz))
        out = F.spmm_pattern(pattern, values, Tensor(x))
        rebuilt = sp.csr_matrix((values.data, pattern.indices, pattern.indptr),
                                shape=pattern.shape)
        assert np.allclose(out.data, rebuilt @ x)

    def test_spmm_pattern_gradients(self):
        """d values = grad·dense sampled at the pattern; d dense = Sᵀ grad."""
        pattern = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 1.0]]))
        values = Tensor(np.array([2.0, 3.0, 4.0]), requires_grad=True)
        dense = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        F.spmm_pattern(pattern, values, dense).sum().backward()
        # rows of stored entries: (0,1), (1,0), (1,1); grad upstream all-ones.
        assert np.allclose(values.grad, [3.0 + 4.0, 1.0 + 2.0, 3.0 + 4.0])
        matrix = np.array([[0.0, 2.0], [3.0, 4.0]])
        assert np.allclose(dense.grad, matrix.T @ np.ones((2, 2)))

    @staticmethod
    def _signed_messages(fused, pattern, values, dense, upstream,
                         need_values=True, need_dense=True):
        """Forward, ``values.grad`` and ``dense.grad`` of ``S(relu(v)) @ H −
        S(relu(−v)) @ H``, fused or as the composition it replaces.  The
        loss reads both operands once more (``H`` through a residual, as in
        the message passing), and the backward reaches those reads first:
        each gradient already holds a term when the messages' two arrive,
        so the order they are added in shows in the bits."""
        values = Tensor(values, requires_grad=need_values)
        dense = Tensor(dense, requires_grad=need_dense)
        if fused:
            out = F.signed_spmm_pattern(pattern, values, dense)
        else:
            out = (F.spmm_pattern(pattern, F.relu(values), dense)
                   - F.spmm_pattern(pattern, F.relu(-values), dense))
        loss = (values * values).sum() \
            + ((dense + out) * Tensor(upstream)).sum()
        if need_values or need_dense:
            loss.backward()
        return out.data, values.grad, dense.grad

    @staticmethod
    def _signed_case(kind, seed=0):
        rng = np.random.default_rng(seed)
        pattern = sp.random(40, 40, density=0.3, format="csr",
                            random_state=seed + 1)
        values = rng.normal(size=pattern.nnz)
        if kind == "mixed":
            values[:4] = [0.0, -0.0, 0.0, -0.0]
        elif kind == "positive":
            values = np.abs(values) + 0.1
        elif kind == "negative":
            values = -np.abs(values) - 0.1
        else:
            values = np.where(np.arange(pattern.nnz) % 2, 0.0, -0.0)
        dense = rng.normal(size=(40, 3))
        dense[[2, 5]] = 0.0          # all-zero rows: zero row dots
        dense[7] = -0.0
        upstream = rng.normal(size=(40, 3))
        upstream[4] = 0.0
        return pattern, values, dense, upstream

    @staticmethod
    def _same_bits(left, right):
        if left is None or right is None:
            return left is right
        return (left.shape == right.shape and left.dtype == right.dtype
                and left.tobytes() == right.tobytes())

    @pytest.mark.parametrize("kind", ["mixed", "positive", "negative",
                                      "zeros"])
    @pytest.mark.parametrize("need_values,need_dense",
                             [(True, True), (True, False), (False, True)])
    def test_signed_spmm_pattern_is_the_composition_bit_for_bit(
            self, kind, need_values, need_dense):
        pattern, values, dense, upstream = self._signed_case(kind)
        fused = self._signed_messages(True, pattern, values, dense, upstream,
                                      need_values, need_dense)
        unfused = self._signed_messages(False, pattern, values, dense,
                                        upstream, need_values, need_dense)
        for got, want in zip(fused, unfused):
            assert self._same_bits(got, want)
        assert (fused[1] is None) != need_values
        assert (fused[2] is None) != need_dense

    def test_signed_spmm_pattern_without_grad(self):
        from repro.autograd.tensor import no_grad

        pattern, values, dense, _ = self._signed_case("mixed")
        values_t = Tensor(values, requires_grad=True)
        dense_t = Tensor(dense, requires_grad=True)
        with no_grad():
            out = F.signed_spmm_pattern(pattern, values_t, dense_t)
        reference = (F.spmm_pattern(pattern, F.relu(Tensor(values)),
                                    Tensor(dense))
                     - F.spmm_pattern(pattern, F.relu(-Tensor(values)),
                                      Tensor(dense)))
        assert not out.requires_grad and out._backward is None
        assert self._same_bits(out.data, reference.data)

    def test_signed_spmm_pattern_finite_difference(self):
        pattern, values, dense, upstream = self._signed_case("mixed", seed=3)
        # Keep every value off relu's kink so the central difference is
        # the derivative.
        values = np.where(np.abs(values) < 0.05, 0.3, values)
        _, grad_values, grad_dense = self._signed_messages(
            True, pattern, values, dense, upstream)

        def loss(v, h):
            out = F.signed_spmm_pattern(pattern, Tensor(v), Tensor(h))
            return float((v * v).sum() + ((h + out.data) * upstream).sum())

        eps = 1e-6
        for array, analytic in ((values, grad_values), (dense, grad_dense)):
            numeric = np.zeros_like(array)
            for index in np.ndindex(array.shape):
                plus, minus = array.copy(), array.copy()
                plus[index] += eps
                minus[index] -= eps
                args = ((plus, dense), (minus, dense)) if array is values \
                    else ((values, plus), (values, minus))
                numeric[index] = (loss(*args[0]) - loss(*args[1])) / (2 * eps)
            assert np.allclose(analytic, numeric, atol=1e-6)

    def test_spmm_pattern_rejects_wrong_value_count(self):
        pattern = sp.csr_matrix(np.eye(3))
        with pytest.raises(ValueError):
            F.spmm_pattern(pattern, Tensor(np.ones(5)), Tensor(np.ones((3, 2))))
        with pytest.raises(ValueError):
            F.signed_spmm_pattern(pattern, Tensor(np.ones(5)),
                                  Tensor(np.ones((3, 2))))

    def test_propagate_accepts_dense_or_sparse(self):
        x = Tensor(np.ones((4, 2)))
        adj = np.eye(4)
        dense_out = F.propagate(adj, x)
        sparse_out = F.propagate(sp.csr_matrix(adj), x)
        assert np.allclose(dense_out.data, sparse_out.data)


class TestDropout:
    def test_dropout_identity_when_not_training(self):
        x = Tensor(np.ones((10, 10)))
        out = F.dropout(x, 0.5, training=False)
        assert out is x

    def test_dropout_zero_probability_is_identity(self):
        x = Tensor(np.ones((5, 5)))
        assert F.dropout(x, 0.0, training=True) is x

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.5, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.05)

    def test_dropout_invalid_probability(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, training=True)

    def test_dropout_gradient_uses_same_mask(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((50, 50)), requires_grad=True)
        out = F.dropout(x, 0.5, training=True, rng=rng)
        out.sum().backward()
        # Gradient equals the inverted-dropout mask itself.
        assert np.allclose(x.grad, out.data)


class TestCombination:
    def test_concat_shapes(self):
        a = Tensor(np.ones((3, 2)))
        b = Tensor(np.zeros((3, 4)))
        out = F.concat([a, b], axis=1)
        assert out.shape == (3, 6)

    def test_concat_gradient_splits(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((2, 3)), requires_grad=True)
        out = F.concat([a, b], axis=1)
        (out * 2).sum().backward()
        assert np.allclose(a.grad, 2 * np.ones((2, 2)))
        assert np.allclose(b.grad, 2 * np.ones((2, 3)))

    def test_stack_mean(self):
        tensors = [Tensor(np.full((2, 2), v)) for v in (1.0, 2.0, 3.0)]
        out = F.stack_mean(tensors)
        assert np.allclose(out.data, 2.0)

    def test_as_tensor_passthrough(self):
        t = Tensor(np.ones(3))
        assert F.as_tensor(t) is t
        assert isinstance(F.as_tensor(np.ones(3)), Tensor)


class TestLosses:
    def test_cross_entropy_perfect_prediction_is_small(self):
        logits = Tensor(np.array([[10.0, -10.0], [-10.0, 10.0]]))
        labels = np.array([0, 1])
        loss = F.cross_entropy(logits, labels)
        assert loss.item() < 1e-4

    def test_cross_entropy_uniform_equals_log_num_classes(self):
        logits = Tensor(np.zeros((4, 3)))
        labels = np.array([0, 1, 2, 0])
        loss = F.cross_entropy(logits, labels)
        assert loss.item() == pytest.approx(np.log(3.0), abs=1e-8)

    def test_cross_entropy_mask_boolean(self):
        logits = Tensor(np.array([[5.0, -5.0], [-5.0, 5.0]]))
        labels = np.array([1, 1])  # first row is wrong, second right
        mask = np.array([False, True])
        loss = F.cross_entropy(logits, labels, mask=mask)
        assert loss.item() < 1e-3

    def test_cross_entropy_empty_mask_raises(self):
        logits = Tensor(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            F.cross_entropy(logits, np.array([0, 1]),
                            mask=np.zeros(2, dtype=bool))

    def test_cross_entropy_gradient_direction(self):
        logits = Tensor(np.zeros((1, 3)), requires_grad=True)
        loss = F.cross_entropy(logits, np.array([2]))
        loss.backward()
        # Gradient is softmax - onehot: positive for wrong classes, negative
        # for the true class.
        assert logits.grad[0, 2] < 0
        assert logits.grad[0, 0] > 0 and logits.grad[0, 1] > 0

    def test_nll_loss_matches_cross_entropy(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(6, 4))
        labels = rng.integers(0, 4, size=6)
        ce = F.cross_entropy(Tensor(raw), labels).item()
        nll = F.nll_loss(F.log_softmax(Tensor(raw)), labels).item()
        assert ce == pytest.approx(nll, abs=1e-10)

    def test_mse_loss_zero_for_identical(self):
        x = Tensor(np.ones((3, 3)))
        assert F.mse_loss(x, np.ones((3, 3))).item() == pytest.approx(0.0)

    def test_frobenius_loss_matches_norm(self):
        a = Tensor(np.array([[3.0, 0.0], [0.0, 4.0]]))
        b = np.zeros((2, 2))
        assert F.frobenius_loss(a, b).item() == pytest.approx(5.0, abs=1e-5)

    def test_l2_regularisation(self):
        params = [Tensor(np.array([3.0])), Tensor(np.array([4.0]))]
        assert F.l2_regularisation(params).item() == pytest.approx(25.0)

    def test_l2_regularisation_empty(self):
        assert F.l2_regularisation([]).item() == pytest.approx(0.0)

    def test_mse_target_detached(self):
        target = Tensor(np.ones((2, 2)), requires_grad=True)
        pred = Tensor(np.zeros((2, 2)), requires_grad=True)
        F.mse_loss(pred, target).backward()
        assert target.grad is None
        assert pred.grad is not None
