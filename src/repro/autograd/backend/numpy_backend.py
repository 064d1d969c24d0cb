"""The numpy kernels of the table.

These kernels are the *bitwise parity reference* of the engine: plain
numpy / scipy expressions with a fixed floating-point accumulation order.
This module is the only place the hot-path primitives may touch ``np.``
directly (``tools/check_backend_dispatch.py`` keeps ``functional.py``'s hot
paths behind the table).

Accumulation-order contract (what "bitwise" rests on):

* ``spmm`` — scipy's CSR matmul accumulates each output row over the stored
  entries in order; the backward multiplies by the shared cached CSR
  transpose, which gathers contributions in ascending source-row order —
  the same order the historical per-call ``A.T @ grad`` CSC product used.
* ``sddmm`` backward — defined by the scatter ``np.add.at(grad_a, rows,
  grad[:, None] * b[cols])``: one multiply per element, then one add per
  element into a zero-initialised row, applied in element order.  On a
  CSR-ordered support (rows ascending — what the fixed-support message
  passing passes) it is computed without the scatter, as two sparse products
  of ``S = csr(grad, cols, indptr)``: ``S @ b`` walks each output row's
  stored elements in order, and ``S.T @ a`` is a CSC traversal that visits
  the elements in storage order and adds each into output row ``cols[e]`` —
  in both, every output row receives exactly the products ``np.add.at``
  would add, in the same order, so the result is bit-for-bit the scatter's
  (``tests/test_backend.py`` keeps the literal scatter as the oracle).  Any
  other support (rows not ascending, an index from the end or out of range:
  ``support_indptr`` decides) keeps the scatter itself.
* ``sddmm`` / ``spmm_pattern`` values-backward — ``np.einsum`` row dots over
  ``np.take`` gathers (the same ``(nnz, c)`` operands fancy indexing built).
* ``spmm_pattern`` / its dense backward / the ``sddmm`` backward products —
  ``S @ dense`` and ``S.T @ dense`` for a CSR matrix ``S`` given as arrays
  (a fixed structure and per-call values) are the routine scipy's own
  product runs, called on those arrays (:func:`structure_product`): no
  ``csr_matrix`` is built per call, and the bits are scipy's.
* ``dropout_mask`` — consumes ``rng.random(shape)`` exactly once, so a
  module's generator advances as the defining expression advances it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from repro.autograd.backend import (
    ArrayBackend,
    cached_transpose,
    pattern_rows,
    support_indptr,
)

try:  # the routines behind scipy's own ``csr @ dense`` / ``csr.T @ dense``;
    # private, so optional
    from scipy.sparse._sparsetools import csc_matvecs, csr_matvecs
except ImportError:  # pragma: no cover - a scipy without them ignores
    # ``out=`` and builds every matrix
    csc_matvecs = csr_matvecs = None


def usable_out(out: Optional[np.ndarray], adjacency: sp.csr_matrix,
               dense: np.ndarray) -> bool:
    """Whether ``out`` can hold ``adjacency @ dense`` exactly as computed:
    the product's shape and (un-upcast) dtype, one contiguous block."""
    return (out is not None and dense.ndim == 2
            and out.shape == (adjacency.shape[0], dense.shape[1])
            and out.dtype == adjacency.dtype == dense.dtype
            and out.flags.c_contiguous)


def spmm(adjacency: sp.csr_matrix, dense: np.ndarray,
         out: Optional[np.ndarray] = None) -> np.ndarray:
    """``adjacency @ dense`` — into ``out`` when it fits, else allocated
    (callers use the return value either way)."""
    if csr_matvecs is None or not usable_out(out, adjacency, dense):
        return adjacency @ dense
    # scipy's own product is this call on a fresh ``np.zeros`` result.
    out.fill(0.0)
    csr_matvecs(adjacency.shape[0], adjacency.shape[1], dense.shape[1],
                adjacency.indptr, adjacency.indices, adjacency.data,
                dense.ravel(), out.ravel())
    return out


def spmm_backward(adjacency: sp.csr_matrix, adjacency_t, grad: np.ndarray,
                  out: Optional[np.ndarray] = None) -> np.ndarray:
    transpose = cached_transpose(adjacency) if adjacency_t is None \
        else adjacency_t
    return spmm(transpose, grad, out)


def spmm_batched(adjacency: sp.csr_matrix, dense: np.ndarray,
                 out: Optional[np.ndarray] = None) -> np.ndarray:
    batch, nodes, channels = dense.shape
    flat = dense.reshape(batch * nodes, channels)
    if out is not None:
        out = out.reshape(batch * nodes, channels)
    return spmm(adjacency, flat, out).reshape(batch, nodes, channels)


def structure_product(shape: tuple, indptr: np.ndarray, indices: np.ndarray,
                      values: np.ndarray, dense: np.ndarray,
                      transpose: bool = False) -> np.ndarray:
    """``S @ dense`` — ``S.T @ dense`` with ``transpose`` — for the CSR
    matrix ``S = (values, indices, indptr)`` of ``shape``, never built.

    Runs what scipy's ``_matmul_multivector`` runs for that product:
    ``csr_matvecs`` (``csc_matvecs`` on the same arrays for the transpose)
    into a zeroed result.  Operands scipy routes elsewhere — one column, a
    dtype other than float64, mismatched rows — and a scipy without the
    routines go through the built matrix, so the result is scipy's product
    either way.
    """
    n_out, n_in = shape[::-1] if transpose else shape
    if (csr_matvecs is None or type(dense) is not np.ndarray
            or dense.ndim != 2 or dense.shape[0] != n_in
            or dense.shape[1] == 1
            or not values.dtype == dense.dtype == np.float64):
        matrix = sp.csr_matrix((values, indices, indptr), shape=shape)
        return (matrix.T if transpose else matrix) @ dense
    out = np.zeros((n_out, dense.shape[1]))
    (csc_matvecs if transpose else csr_matvecs)(
        n_out, n_in, dense.shape[1], indptr, indices, values, dense.ravel(),
        out.ravel())
    return out


def sddmm(rows: np.ndarray, cols: np.ndarray, a: np.ndarray, b: np.ndarray
          ) -> np.ndarray:
    return np.einsum("ij,ij->i", np.take(a, rows, axis=0),
                     np.take(b, cols, axis=0))


def sddmm_backward(rows, cols, a, b, grad, need_a, need_b):
    shape = (a.shape[0], b.shape[0])
    indptr = support_indptr(rows, cols, shape)
    grad_a = grad_b = None
    if indptr is None:
        # Not a CSR-ordered support: the defining scatter.
        column = grad[:, None]
        if need_a:
            grad_a = np.zeros_like(a)
            np.add.at(grad_a, rows, column * b[cols])
        if need_b:
            grad_b = np.zeros_like(b)
            np.add.at(grad_b, cols, column * a[rows])
        return grad_a, grad_b
    if need_a:
        grad_a = structure_product(shape, indptr, cols, grad, b)
    if need_b:
        grad_b = structure_product(shape, indptr, cols, grad, a,
                                   transpose=True)
    return grad_a, grad_b


class ValuedPattern(NamedTuple):
    """``S(values)``: a CSR pattern's structure with one value per stored
    element — the handle :func:`spmm_pattern` returns for
    :func:`spmm_pattern_backward_dense`."""

    pattern: sp.csr_matrix
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return self.pattern.nnz


def spmm_pattern(pattern: sp.csr_matrix, values: np.ndarray,
                 dense: np.ndarray):
    return (structure_product(pattern.shape, pattern.indptr, pattern.indices,
                              values, dense),
            ValuedPattern(pattern, values))


def spmm_pattern_backward_values(pattern: sp.csr_matrix, grad: np.ndarray,
                                 dense: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", np.take(grad, pattern_rows(pattern), axis=0),
                     np.take(dense, pattern.indices, axis=0))


def spmm_pattern_backward_dense(handle: ValuedPattern, grad: np.ndarray
                                ) -> np.ndarray:
    pattern = handle.pattern
    return structure_product(pattern.shape, pattern.indptr, pattern.indices,
                             handle.values, grad, transpose=True)


def dropout_mask(rng: np.random.Generator, shape, p: float) -> np.ndarray:
    return (rng.random(shape) >= p) / (1.0 - p)


def apply_mask(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return x * mask


class NumpyBackend(ArrayBackend):
    """The table filled with the reference kernels."""

    name = "numpy"

    def __init__(self):
        super().__init__()
        self.register_kernel("spmm", spmm)
        self.register_kernel("spmm_backward", spmm_backward)
        self.register_kernel("spmm_batched", spmm_batched)
        self.register_kernel("sddmm", sddmm)
        self.register_kernel("sddmm_backward", sddmm_backward)
        self.register_kernel("spmm_pattern", spmm_pattern)
        self.register_kernel("spmm_pattern_backward_values",
                             spmm_pattern_backward_values)
        self.register_kernel("spmm_pattern_backward_dense",
                             spmm_pattern_backward_dense)
        self.register_kernel("dropout_mask", dropout_mask)
        self.register_kernel("apply_mask", apply_mask)
