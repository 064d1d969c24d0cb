"""Core :class:`Tensor` type and reverse-mode differentiation machinery."""

from __future__ import annotations

import contextlib
from sys import getrefcount
from threading import get_ident
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

_GRAD_ENABLED = True


def is_grad_enabled() -> bool:
    """Return whether gradient recording is globally enabled."""
    return _GRAD_ENABLED


@contextlib.contextmanager
def no_grad():
    """Context manager that disables graph construction (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


#: thread id → the workspace open on that thread.  Empty outside a batched
#: plan's epoch, so an op with no workspace anywhere pays one global read.
_ACTIVE: Dict[int, "Workspace"] = {}


class Workspace:
    """A replayed list of result buffers for a loop that repeats its ops.

    Every ``with workspace:`` scope (one training epoch) rewinds a cursor;
    inside it, on the opening thread only, the tensor ops and kernels that
    produce stack-sized results (``+``, ``*``, ``@``, ``relu``, their
    backward closures, ``spmm_batched``) write into the buffer at the cursor
    instead of allocating.  The second scope therefore runs the first one's
    ops into the first one's arrays, and a steady-state epoch allocates
    nothing: glibc hands every multi-megabyte temporary straight back to the
    OS on free, so without this each epoch page-faults all of them in again.

    A buffer is handed out again only when its shape and dtype match the
    request and nothing outside the workspace still references it (views
    count: they hold their base); otherwise the slot gets a fresh array and
    the old one is left to its holder.  Arrays produced inside a scope —
    ``Tensor.data``, ``param.grad`` — thus stay valid for as long as they
    are held, but are *reused* once dropped: keep a reference (or a copy)
    to anything that must outlive the next scope.  Buffers are host
    (numpy) arrays, like every kernel's ``out=``.
    """

    def __init__(self):
        self._buffers: List[np.ndarray] = []
        self._cursor = 0
        self._outer: Optional["Workspace"] = None
        #: buffers allocated so far; constant once the loop is in steady state
        self.fresh = 0

    def __enter__(self) -> "Workspace":
        ident = get_ident()
        self._outer = _ACTIVE.get(ident)
        _ACTIVE[ident] = self
        self._cursor = 0
        return self

    def __exit__(self, *exc_info) -> None:
        if self._outer is None:
            del _ACTIVE[get_ident()]
        else:
            _ACTIVE[get_ident()] = self._outer
            self._outer = None

    def take(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        """The next buffer of the replay, uninitialised."""
        index = self._cursor
        self._cursor = index + 1
        buffers = self._buffers
        if index < len(buffers):
            if buffer_idle(buffers, index):
                buffer = buffers[index]
                if buffer.shape == shape and buffer.dtype == dtype:
                    return buffer
        else:
            buffers.append(None)
        buffer = buffers[index] = np.empty(shape, dtype)
        self.fresh += 1
        return buffer


def buffer_idle(buffers: list, index: int) -> bool:
    """True when ``buffers`` is the only holder of ``buffers[index]``.

    The reuse rule of every resident buffer in the package (workspace
    slots, a TCP channel's receive buffers): a name bound to the array, a
    container holding it, or a live view of it (views hold their base) all
    make it busy.  Rests on ``sys.getrefcount`` equalling what it reports
    for an array only a list holds, which is measured at import, not
    assumed — refcounts are a CPython implementation detail
    (``tests/test_autograd_tensor.py::TestBufferIdle`` pins the contract).
    """
    return getrefcount(buffers[index]) == _IDLE_REFS


def _idle_refcount() -> int:
    """:func:`buffer_idle`'s own expression on an array only a list holds."""
    buffers = [np.empty(0)]
    return getrefcount(buffers[0])


_IDLE_REFS = _idle_refcount()


def scratch(shape: tuple, dtype=np.float64) -> Optional[np.ndarray]:
    """An ``out=`` buffer from this thread's open workspace, else ``None``
    (every ``out=None`` call allocates exactly as the plain operator does)."""
    workspace = _ACTIVE.get(get_ident())
    return None if workspace is None else workspace.take(shape, dtype)


def _into_scratch(ufunc, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``ufunc(a, b)`` — the operator's own loop — into a workspace
    buffer."""
    return ufunc(a, b, out=scratch(np.broadcast_shapes(a.shape, b.shape)))


def _matmul_into_scratch(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` into a workspace buffer (stacked or plain matrices)."""
    if a.ndim < 2 or b.ndim < 2:
        return a @ b
    batch = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    return np.matmul(a, b, out=scratch(batch + (a.shape[-2], b.shape[-1])))


def _float64(value: ArrayLike) -> np.ndarray:
    """``value`` as a float64 array (an array of that dtype as itself)."""
    if isinstance(value, np.ndarray):
        return value if value.dtype == np.float64 else value.astype(np.float64)
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with optional gradient tracking.

    Parameters
    ----------
    data:
        Array-like payload; always stored as ``float64``.
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents",
                 "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: Optional[str] = None):
        self.data = _float64(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: tuple = ()
        self.name = name

    # ------------------------------------------------------------------
    # Introspection helpers
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return np.asarray(self.data)

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}{flag})"

    # ------------------------------------------------------------------
    # Graph construction
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        parents = tuple(parents)
        requires = is_grad_enabled() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=False)
        out.requires_grad = requires
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            # Backward closures hand over freshly-allocated arrays and no
            # caller mutates gradients in place (optimizers rebind), so the
            # array can be adopted without a defensive copy.
            self.grad = _float64(grad)
        elif _ACTIVE:
            self.grad = _into_scratch(np.add, self.grad, grad)
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Upstream gradient.  Defaults to 1.0, which requires the tensor to
            be a scalar.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without a gradient argument requires a scalar "
                    f"tensor, got shape {self.data.shape}"
                )
            grad = np.ones_like(self.data)
        # Copy the seed: _accumulate adopts arrays without copying, and the
        # caller may reuse the one it passed in.
        grad = _float64(grad).copy()

        # Topologically order the graph reachable from ``self``.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is None or node.grad is None:
                continue
            node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic operators
    # ------------------------------------------------------------------
    def _coerce(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    def __add__(self, other):
        other = self._coerce(other)
        if _ACTIVE:
            out_data = _into_scratch(np.add, self.data, other.data)
        else:
            out_data = self.data + other.data

        # Guard every operand-gradient computation on requires_grad: hot
        # loops mix constants (propagation operators, hyperparameter
        # scalars) into the graph, and materialising their gradients would
        # allocate and reduce large arrays only to throw them away.
        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(grad):
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other):
        other = self._coerce(other)
        out_data = self.data - other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(-grad, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        other = self._coerce(other)
        if _ACTIVE:
            out_data = _into_scratch(np.multiply, self.data, other.data)
        else:
            out_data = self.data * other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(
                    _into_scratch(np.multiply, grad, other.data) if _ACTIVE
                    else grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(
                    _into_scratch(np.multiply, grad, self.data) if _ACTIVE
                    else grad * self.data, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        out_data = self.data / other.data

        def backward(grad):
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(grad / other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-grad * self.data / (other.data ** 2),
                                 other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    def __rtruediv__(self, other):
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float):
        exponent = float(exponent)
        out_data = self.data ** exponent

        def backward(grad):
            self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        return Tensor._make(out_data, (self,), backward)

    def __matmul__(self, other):
        return self.matmul(other)

    def matmul(self, other: "Tensor") -> "Tensor":
        """Matrix product; supports stacked (batched) operands of ndim > 2.

        Gradients transpose only the last two axes and are reduced over
        broadcast batch axes, so ``(B, n, f) @ (B, f, h)`` and the mixed
        ``(B, n, f) @ (f, h)`` both differentiate correctly.
        """
        other = self._coerce(other)
        if _ACTIVE:
            out_data = _matmul_into_scratch(self.data, other.data)
        else:
            out_data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                other_t = np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(
                    _matmul_into_scratch(grad, other_t) if _ACTIVE
                    else grad @ other_t, self.data.shape))
            if other.requires_grad:
                self_t = np.swapaxes(self.data, -1, -2)
                other._accumulate(_unbroadcast(
                    _matmul_into_scratch(self_t, grad) if _ACTIVE
                    else self_t @ grad, other.data.shape))

        return Tensor._make(out_data, (self, other), backward)

    def transpose(self) -> "Tensor":
        def backward(grad):
            self._accumulate(grad.T)

        return Tensor._make(self.data.T, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions / shaping
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = np.asarray(grad)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return Tensor._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        original = self.data.shape
        out_data = self.data.reshape(shape)

        def backward(grad):
            self._accumulate(grad.reshape(original))

        return Tensor._make(out_data, (self,), backward)

    def __getitem__(self, index) -> "Tensor":
        out_data = self.data[index]

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Elementwise functions (also exposed in functional.py)
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad):
            self._accumulate(grad * out_data)

        return Tensor._make(out_data, (self,), backward)

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward(grad):
            self._accumulate(grad / self.data)

        return Tensor._make(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        if _ACTIVE:
            mask = np.greater(self.data, 0, out=scratch(self.data.shape, bool))
            out_data = _into_scratch(np.multiply, self.data, mask)
        else:
            mask = self.data > 0
            out_data = self.data * mask

        def backward(grad):
            self._accumulate(_into_scratch(np.multiply, grad, mask) if _ACTIVE
                             else grad * mask)

        return Tensor._make(out_data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad):
            self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._make(out_data, (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad):
            self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._make(out_data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        mask = (self.data >= low) & (self.data <= high)
        out_data = np.clip(self.data, low, high)

        def backward(grad):
            self._accumulate(grad * mask)

        return Tensor._make(out_data, (self,), backward)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def eye(n: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.eye(n), requires_grad=requires_grad)
