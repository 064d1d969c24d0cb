"""Reverse-mode automatic differentiation on pluggable array backends.

The engine is intentionally small: a :class:`Tensor` wraps an array and
records the operations applied to it; calling :meth:`Tensor.backward` performs
a topological sweep and accumulates gradients into every tensor created with
``requires_grad=True``.  Sparse adjacency matrices enter the graph through
:func:`repro.autograd.functional.spmm`, which treats the sparse operand as a
constant (exactly how GNN propagation matrices are used in the paper).

Array math is routed through a backend dispatch layer
(:mod:`repro.autograd.backend`): dense elementwise ops go through the
backend's array-API namespace ``xp``, the sparse/fused hot paths through its
kernel registry.  ``numpy`` is the one backend that ships — the default and
the bitwise parity reference; others are registered by the caller
(:func:`register_backend`).  Select a backend per scope with
:func:`use_backend`, per process with ``REPRO_ARRAY_BACKEND``, or per tensor
via ``Tensor(..., backend=...)``.
"""

from repro.autograd.tensor import (
    Tensor,
    Workspace,
    buffer_idle,
    is_grad_enabled,
    no_grad,
)
from repro.autograd import functional
from repro.autograd.backend import (
    ArrayBackend,
    current_backend,
    default_backend,
    get_backend,
    list_array_backends,
    register_backend,
    resolve_backend,
    set_default_backend,
    use_backend,
)

__all__ = [
    "ArrayBackend",
    "Tensor",
    "Workspace",
    "buffer_idle",
    "current_backend",
    "default_backend",
    "functional",
    "get_backend",
    "is_grad_enabled",
    "list_array_backends",
    "no_grad",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
    "use_backend",
]
