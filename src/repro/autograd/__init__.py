"""Reverse-mode automatic differentiation on numpy arrays.

The engine is intentionally small: a :class:`Tensor` wraps an array and
records the operations applied to it; calling :meth:`Tensor.backward` performs
a topological sweep and accumulates gradients into every tensor created with
``requires_grad=True``.  Sparse adjacency matrices enter the graph through
:func:`repro.autograd.functional.spmm`, which treats the sparse operand as a
constant (exactly how GNN propagation matrices are used in the paper).

The sparse/fused hot paths dispatch through one kernel table
(:mod:`repro.autograd.backend`, returned by :func:`resolve_backend`), whose
kernels can be swapped at run time.
"""

from repro.autograd.tensor import (
    Tensor,
    Workspace,
    buffer_idle,
    is_grad_enabled,
    no_grad,
)
from repro.autograd import functional
from repro.autograd.backend import ArrayBackend, resolve_backend

__all__ = [
    "ArrayBackend",
    "Tensor",
    "Workspace",
    "buffer_idle",
    "functional",
    "is_grad_enabled",
    "no_grad",
    "resolve_backend",
]
