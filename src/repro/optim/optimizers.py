"""First-order optimizers operating on :class:`repro.nn.Parameter` lists."""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.autograd import Tensor


def clip_grad_norm(parameters: Iterable[Tensor], max_norm: float) -> float:
    """Clip gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm.
    """
    params = [p for p in parameters if p.grad is not None]
    if not params:
        return 0.0
    total = float(np.sqrt(sum(float((p.grad ** 2).sum()) for p in params)))
    if total > max_norm > 0:
        scale = max_norm / (total + 1e-12)
        for param in params:
            param.grad = param.grad * scale
    return total


class Optimizer:
    """Base optimizer: owns a parameter list and a ``step``/``zero_grad`` API."""

    def __init__(self, parameters: Iterable[Tensor], lr: float,
                 weight_decay: float = 0.0):
        self.parameters: List[Tensor] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        self.lr = lr
        self.weight_decay = weight_decay

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    def _grad(self, param: Tensor) -> np.ndarray:
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        return grad


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum."""

    def __init__(self, parameters: Iterable[Tensor], lr: float = 0.01,
                 momentum: float = 0.0, weight_decay: float = 0.0):
        super().__init__(parameters, lr, weight_decay)
        self.momentum = momentum
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = self._grad(param)
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            param.data = param.data - self.lr * update


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015).

    A parameter's moments ``_m[j]`` / ``_v[j]`` are ``None`` until the first
    step that updates it, which starts them from zeros: an optimizer that
    never steps (a coordinator mirror, a pickled client in transit) holds
    and ships no moment memory.  Readers of the lists treat ``None`` as
    zeros (:meth:`moments`).
    """

    def __init__(self, parameters: Iterable[Tensor], lr: float = 0.01,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters, lr, weight_decay)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._step_count = 0
        self._m: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._v: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def moments(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Parameter ``j``'s ``(m, v)``, to read; before its first update
        both are one read-only array of zeros."""
        if self._m[j] is None:
            zeros = np.zeros_like(self.parameters[j].data)
            zeros.flags.writeable = False
            return zeros, zeros
        return self._m[j], self._v[j]

    def step(self) -> None:
        self._step_count += 1
        bias1 = 1.0 - self.beta1 ** self._step_count
        bias2 = 1.0 - self.beta2 ** self._step_count
        for j, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            m, v = self._m[j], self._v[j]
            if m is None:
                m = self._m[j] = np.zeros_like(param.data)
                v = self._v[j] = np.zeros_like(param.data)
            grad = self._grad(param)
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad * grad
            m_hat = m / bias1
            v_hat = v / bias2
            param.data = param.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
