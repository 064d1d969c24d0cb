"""Tests for SGD / Adam optimizers and gradient clipping."""

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.nn import Linear, MLP
from repro.nn.module import Parameter
from repro.optim import SGD, Adam, clip_grad_norm
from repro.autograd import functional as F


def quadratic_loss(param):
    """Simple convex objective (param - 3)^2 summed."""
    diff = param - 3.0
    return (diff * diff).sum()


class TestSGD:
    def test_single_step_direction(self):
        p = Parameter(np.array([0.0]))
        opt = SGD([p], lr=0.1)
        loss = quadratic_loss(p)
        loss.backward()
        opt.step()
        assert p.data[0] > 0.0  # moved towards 3

    def test_converges_on_quadratic(self):
        p = Parameter(np.array([0.0, 10.0]))
        opt = SGD([p], lr=0.1)
        for _ in range(200):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert np.allclose(p.data, [3.0, 3.0], atol=1e-3)

    def test_momentum_accelerates(self):
        def run(momentum):
            p = Parameter(np.array([0.0]))
            opt = SGD([p], lr=0.01, momentum=momentum)
            for _ in range(30):
                opt.zero_grad()
                quadratic_loss(p).backward()
                opt.step()
            return abs(p.data[0] - 3.0)

        assert run(0.9) < run(0.0)

    def test_weight_decay_shrinks(self):
        p = Parameter(np.array([1.0]))
        opt = SGD([p], lr=0.1, weight_decay=1.0)
        opt.zero_grad()
        (p * 0.0).sum().backward()
        opt.step()
        assert p.data[0] < 1.0

    def test_empty_parameters_raises(self):
        with pytest.raises(ValueError):
            SGD([], lr=0.1)

    def test_invalid_lr_raises(self):
        with pytest.raises(ValueError):
            SGD([Parameter(np.ones(1))], lr=0.0)

    def test_skips_parameters_without_grad(self):
        p1 = Parameter(np.array([1.0]))
        p2 = Parameter(np.array([1.0]))
        opt = SGD([p1, p2], lr=0.1)
        (p1 * 2.0).sum().backward()
        opt.step()
        assert p2.data[0] == pytest.approx(1.0)


class TestAdam:
    def test_converges_on_quadratic(self):
        p = Parameter(np.array([-5.0]))
        opt = Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            quadratic_loss(p).backward()
            opt.step()
        assert p.data[0] == pytest.approx(3.0, abs=1e-2)

    def test_bias_correction_first_step(self):
        p = Parameter(np.array([0.0]))
        opt = Adam([p], lr=0.1)
        opt.zero_grad()
        quadratic_loss(p).backward()
        opt.step()
        # With bias correction, the first Adam step is ~lr in magnitude.
        assert abs(abs(p.data[0]) - 0.1) < 0.02

    def test_trains_mlp_to_fit_labels(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(40, 5))
        labels = (x[:, 0] > 0).astype(int)
        mlp = MLP(5, [16], 2, dropout=0.0, seed=0)
        opt = Adam(mlp.parameters(), lr=0.05)
        for _ in range(150):
            opt.zero_grad()
            loss = F.cross_entropy(mlp(Tensor(x)), labels)
            loss.backward()
            opt.step()
        predictions = mlp(Tensor(x)).data.argmax(axis=1)
        assert np.mean(predictions == labels) > 0.95

    def test_weight_decay_applies(self):
        p = Parameter(np.array([5.0]))
        opt = Adam([p], lr=0.01, weight_decay=10.0)
        for _ in range(50):
            opt.zero_grad()
            (p * 0.0).sum().backward()
            opt.step()
        assert abs(p.data[0]) < 5.0

    def test_never_stepped_adam_holds_no_moments(self):
        mlp = MLP(5, [16], 2, dropout=0.0, seed=0)
        opt = Adam(mlp.parameters(), lr=0.05)
        assert opt._m == opt._v == [None] * len(opt.parameters)
        for j, param in enumerate(opt.parameters):
            m, v = opt.moments(j)
            assert m.shape == v.shape == param.data.shape
            assert not m.any() and not v.any()
        assert opt._m[0] is None   # reading creates nothing

    def test_first_steps_are_bitwise_steps_from_explicit_zeros(self):
        """Lazy moments change when the zeros are made, not the arithmetic:
        ten steps equal an optimizer that held zero moments from the start,
        bit for bit, and a parameter no step reached keeps no moment."""
        rng = np.random.default_rng(3)
        x = rng.normal(size=(30, 5))
        labels = (x[:, 1] > 0).astype(int)
        lazy_mlp = MLP(5, [8], 2, dropout=0.0, seed=1)
        eager_mlp = MLP(5, [8], 2, dropout=0.0, seed=1)
        idle = Parameter(np.ones(4))
        lazy = Adam([*lazy_mlp.parameters(), idle], lr=0.05,
                    weight_decay=5e-4)
        eager = Adam(eager_mlp.parameters(), lr=0.05, weight_decay=5e-4)
        eager._m = [np.zeros_like(p.data) for p in eager.parameters]
        eager._v = [np.zeros_like(p.data) for p in eager.parameters]
        for _ in range(10):
            for mlp, opt in ((lazy_mlp, lazy), (eager_mlp, eager)):
                opt.zero_grad()
                F.cross_entropy(mlp(Tensor(x)), labels).backward()
                opt.step()
        for a, b in zip(lazy_mlp.parameters(), eager_mlp.parameters()):
            assert np.array_equal(a.data, b.data)
        for a, b in zip(lazy._m[:-1] + lazy._v[:-1], eager._m + eager._v):
            assert np.array_equal(a, b)
        assert lazy._m[-1] is None and lazy._v[-1] is None
        assert np.array_equal(idle.data, np.ones(4))


class TestClipGradNorm:
    def test_no_clipping_below_threshold(self):
        p = Parameter(np.array([1.0]))
        (p * 2.0).sum().backward()
        norm = clip_grad_norm([p], max_norm=10.0)
        assert norm == pytest.approx(2.0)
        assert p.grad[0] == pytest.approx(2.0)

    def test_clipping_above_threshold(self):
        p = Parameter(np.array([1.0, 1.0]))
        (p * 10.0).sum().backward()
        clip_grad_norm([p], max_norm=1.0)
        assert np.linalg.norm(p.grad) == pytest.approx(1.0, abs=1e-6)

    def test_empty_returns_zero(self):
        assert clip_grad_norm([], max_norm=1.0) == 0.0

    def test_ignores_parameters_without_grad(self):
        p = Parameter(np.ones(3))
        assert clip_grad_norm([p], max_norm=1.0) == 0.0
