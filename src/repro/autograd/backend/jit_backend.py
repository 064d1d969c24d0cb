"""The ``jit`` backend: numba CSR kernels over the numpy reference.

When numba is importable the sparse hot paths compile to ``prange``-parallel
CSR loops; when it is absent every kernel *is* the reference kernel of
:mod:`repro.autograd.backend.numpy_backend` — this module holds only what is
compiled.  The structures the loops walk (row pointers of a support, the
transposed traversal of a pattern) come from the dispatch layer's shared
structure cache.

Parity contract (what the backend-parity suite asserts):

* **Compiled kernels** — ``spmm`` / ``spmm_batched`` / ``spmm_pattern``
  forward, the spmm/pattern dense backwards and the sddmm backward.  The
  numba loops nest exactly like scipy's CSR matmul (per output row: stored
  entries in order, multiply then accumulate) and parallelise only over
  independent output rows, and numba compiles without fast-math so LLVM
  cannot contract the multiply-add into an FMA: results are
  bitwise-identical to the numpy reference.

  For the sddmm backward that reference is the ``np.add.at`` scatter in
  element order, which on a CSR-ordered support the reference itself
  computes as ``S @ b`` and ``Sᵀ @ a`` (see the numpy backend's docstring
  for why the traversal order matches).  The loops here are those two
  products: ``_sddmm_grad_rows`` walks each row's elements in order, and
  ``_sddmm_grad_cols`` walks each column's elements in ascending element
  order (a stable counting sort of ``cols``), so every output row sees the
  same additions in the same order.  A support the shared
  ``support_indptr`` rejects goes to the reference, which keeps the scatter.

* **Reduction-order-sensitive kernels** — ``sddmm`` forward and the
  spmm_pattern values-backward are dot reductions that the numpy reference
  computes with ``np.einsum`` (SIMD partial sums).  A sequential numba dot
  reorders that reduction and differs by a few ulps, so they are not
  compiled: the jit backend registers the einsum reference for them and the
  sync training pipeline always runs a bitwise-safe kernel set.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autograd.backend import (
    ArrayBackend,
    cached_structure,
    cached_transpose,
    support_indptr,
)
from repro.autograd.backend import numpy_backend as ref

try:  # pragma: no cover - exercised only where numba is installed (CI matrix)
    from numba import njit, prange

    NUMBA_AVAILABLE = True
except ImportError:
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):  # type: ignore[misc]
        """Decorator stub so kernel definitions parse without numba."""
        def wrap(fn):
            return fn

        if args and callable(args[0]):
            return args[0]
        return wrap

    prange = range


def numba_available() -> bool:
    """Whether the jit backend is actually numba-compiled in this process."""
    return NUMBA_AVAILABLE


def _column_order(cols: np.ndarray, n_cols: int) -> tuple:
    """``(indptr_t, perm)``: transposed traversal of a support's ``cols``.

    ``perm`` lists the support elements column-by-column in ascending
    element order within each column (a stable counting sort), so a walk in
    this order accumulates each output row of the column gradient in the
    exact order ``np.add.at`` would.  Looked up through the structure cache,
    per ``cols`` array (a pattern's ``indices`` survive re-valuing).
    """
    indptr_t = np.zeros(n_cols + 1, dtype=np.int64)
    np.cumsum(np.bincount(cols, minlength=n_cols), out=indptr_t[1:])
    return indptr_t, np.argsort(cols, kind="stable").astype(np.int64)


def _pattern_transpose(pattern: sp.csr_matrix) -> tuple:
    """``(indptr_t, indices_t, perm)`` of a CSR pattern's transpose.

    ``pattern`` is the per-call valued matrix, so only the column order
    (keyed on the ``indices`` it shares with the fixed pattern) is cached.
    """
    indptr_t, perm = cached_structure(pattern.indices, _column_order,
                                      pattern.shape[1])
    rows = np.repeat(np.arange(pattern.shape[0], dtype=np.int64),
                     np.diff(pattern.indptr))
    return indptr_t, rows[perm], perm


# ----------------------------------------------------------------------
# numba kernels (compiled lazily on first call when numba is present)
# ----------------------------------------------------------------------
@njit(parallel=True, cache=True)
def _spmm_csr(indptr, indices, data, dense, out):  # pragma: no cover - numba
    # One independent output row per parallel iteration; within a row the
    # stored entries accumulate in order — scipy's exact loop nest.
    for i in prange(indptr.shape[0] - 1):
        for e in range(indptr[i], indptr[i + 1]):
            v = data[e]
            c = indices[e]
            for j in range(dense.shape[1]):
                out[i, j] += v * dense[c, j]


@njit(parallel=True, cache=True)
def _sddmm_grad_rows(indptr, cols, grad, b, out):  # pragma: no cover - numba
    for r in prange(indptr.shape[0] - 1):
        for e in range(indptr[r], indptr[r + 1]):
            g = grad[e]
            c = cols[e]
            for j in range(b.shape[1]):
                out[r, j] += g * b[c, j]


@njit(parallel=True, cache=True)
def _sddmm_grad_cols(indptr_t, perm, rows, grad, a, out):  # pragma: no cover
    for c in prange(indptr_t.shape[0] - 1):
        for k in range(indptr_t[c], indptr_t[c + 1]):
            e = perm[k]
            g = grad[e]
            r = rows[e]
            for j in range(a.shape[1]):
                out[c, j] += g * a[r, j]


# ----------------------------------------------------------------------
# Kernel implementations
# ----------------------------------------------------------------------
def spmm(adjacency: sp.csr_matrix, dense: np.ndarray, out=None) -> np.ndarray:
    if not NUMBA_AVAILABLE:
        return ref.spmm(adjacency, dense, out)
    if ref.usable_out(out, adjacency, dense):
        out.fill(0.0)
    else:
        out = np.zeros((adjacency.shape[0], dense.shape[1]), dtype=np.float64)
    _spmm_csr(adjacency.indptr, adjacency.indices, adjacency.data, dense, out)
    return out


def spmm_backward(adjacency, adjacency_t, grad, out=None):
    transpose = cached_transpose(adjacency) if adjacency_t is None \
        else adjacency_t
    return spmm(transpose, grad, out)


def spmm_batched(adjacency, dense, out=None):
    batch, nodes, channels = dense.shape
    flat = dense.reshape(batch * nodes, channels)
    if out is not None:
        out = out.reshape(batch * nodes, channels)
    return spmm(adjacency, flat, out).reshape(batch, nodes, channels)


def sddmm_backward(rows, cols, a, b, grad, need_a, need_b):
    indptr = support_indptr(rows, cols, (a.shape[0], b.shape[0])) \
        if NUMBA_AVAILABLE else None
    if indptr is None:
        return ref.sddmm_backward(rows, cols, a, b, grad, need_a, need_b)
    grad_a = grad_b = None
    if need_a:
        grad_a = np.zeros_like(a)
        _sddmm_grad_rows(indptr, cols.astype(np.int64, copy=False),
                         grad, b, grad_a)
    if need_b:
        indptr_t, perm = cached_structure(cols, _column_order, b.shape[0])
        grad_b = np.zeros_like(b)
        _sddmm_grad_cols(indptr_t, perm, rows.astype(np.int64, copy=False),
                         grad, a, grad_b)
    return grad_a, grad_b


def spmm_pattern(pattern, values, dense):
    matrix = sp.csr_matrix((values, pattern.indices, pattern.indptr),
                           shape=pattern.shape)
    if not NUMBA_AVAILABLE:
        return matrix @ dense, matrix
    out = np.zeros((pattern.shape[0], dense.shape[1]), dtype=np.float64)
    _spmm_csr(pattern.indptr, pattern.indices, values, dense, out)
    return out, matrix


def spmm_pattern_backward_dense(matrix, grad):
    if not NUMBA_AVAILABLE:
        return ref.spmm_pattern_backward_dense(matrix, grad)
    indptr_t, indices_t, perm = _pattern_transpose(matrix)
    out = np.zeros((matrix.shape[1], grad.shape[1]), dtype=np.float64)
    _spmm_csr(indptr_t, indices_t, matrix.data[perm], grad, out)
    return out


class JitBackend(ArrayBackend):
    """JIT backend: numba CSR kernels, the reference kernels without numba."""

    name = "jit"
    xp = np

    def __init__(self):
        super().__init__()
        self.register_kernel("spmm", spmm)
        self.register_kernel("spmm_backward", spmm_backward)
        self.register_kernel("spmm_batched", spmm_batched)
        self.register_kernel("sddmm", ref.sddmm)
        self.register_kernel("sddmm_backward", sddmm_backward)
        self.register_kernel("spmm_pattern", spmm_pattern)
        self.register_kernel("spmm_pattern_backward_values",
                             ref.spmm_pattern_backward_values)
        self.register_kernel("spmm_pattern_backward_dense",
                             spmm_pattern_backward_dense)
        # Mask generation/application are memory-bound elementwise numpy ops;
        # the fused numba variant measured within noise, so the reference
        # expressions stay (and keep RNG consumption identical by contract).
        self.register_kernel("dropout_mask", ref.dropout_mask)
        self.register_kernel("apply_mask", ref.apply_mask)
