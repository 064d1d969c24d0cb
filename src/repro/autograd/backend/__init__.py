"""The kernel table of the autograd engine.

Every sparse/fused hot-path primitive in :mod:`repro.autograd.functional`
dispatches through one :class:`ArrayBackend` object, a table of named
kernels (:data:`KERNEL_NAMES`): scipy sparse products, einsum row dots and a
scatter-free sddmm backward that equals the defining ``np.add.at`` scatter
bit for bit (see :mod:`repro.autograd.backend.numpy_backend` for the
accumulation-order contract).  :func:`resolve_backend` returns that table.
Its entries are swappable at run time through
:meth:`ArrayBackend.register_kernel` — the end-to-end tracer wraps each
kernel in a timing span that way, and ``tests/test_backend.py`` swaps the
scatter oracle in — so a kernel is always looked up at call time, never
bound at import.

The kernels share one identity-keyed structure cache
(:func:`cached_structure`) for what they derive from a fixed operator: its
CSR transpose, the row of each stored element, the row pointers of an sddmm
support.
"""

from __future__ import annotations

import weakref
from typing import Callable, Dict, List, Optional

import numpy as np
import scipy.sparse as sp

#: every kernel the table holds.  The five hot-path
#: primitives of the engine (spmm, spmm_batched, spmm_pattern, sddmm and the
#: dropout-mask apply) plus their backward companions.
KERNEL_NAMES = (
    "spmm",
    "spmm_backward",
    "spmm_batched",
    "sddmm",
    "sddmm_backward",
    "spmm_pattern",
    "spmm_pattern_backward_values",
    "spmm_pattern_backward_dense",
    "dropout_mask",
    "apply_mask",
)


class ArrayBackend:
    """A table of kernels, one callable for every entry of
    :data:`KERNEL_NAMES`, looked up by name on every call."""

    name: str = "abstract"

    def __init__(self):
        self._kernels: Dict[str, Callable] = {}

    def register_kernel(self, name: str, fn: Callable) -> None:
        if name not in KERNEL_NAMES:
            raise KeyError(f"unknown kernel '{name}' "
                           f"(expected one of {KERNEL_NAMES})")
        self._kernels[name] = fn

    def kernel(self, name: str) -> Callable:
        try:
            return self._kernels[name]
        except KeyError:
            raise NotImplementedError(
                f"backend '{self.name}' has no kernel '{name}'") from None

    def missing_kernels(self) -> List[str]:
        return [name for name in KERNEL_NAMES if name not in self._kernels]

    # Attribute-style dispatch for the hot call sites.
    # ``out`` (the three ``spmm`` kernels only) offers a result buffer of
    # the product's shape and dtype: a kernel may fill and return it or
    # allocate as usual — callers use the return value.
    def spmm(self, adjacency, dense, out=None):
        return self._kernels["spmm"](adjacency, dense, out=out)

    def spmm_backward(self, adjacency, adjacency_t, grad, out=None):
        return self._kernels["spmm_backward"](adjacency, adjacency_t, grad,
                                              out=out)

    def spmm_batched(self, adjacency, dense, out=None):
        return self._kernels["spmm_batched"](adjacency, dense, out=out)

    def sddmm(self, rows, cols, a, b):
        return self._kernels["sddmm"](rows, cols, a, b)

    def sddmm_backward(self, rows, cols, a, b, grad, need_a, need_b):
        return self._kernels["sddmm_backward"](rows, cols, a, b, grad,
                                               need_a, need_b)

    def spmm_pattern(self, pattern, values, dense):
        return self._kernels["spmm_pattern"](pattern, values, dense)

    def spmm_pattern_backward_values(self, pattern, grad, dense):
        return self._kernels["spmm_pattern_backward_values"](pattern, grad,
                                                             dense)

    # ``handle`` is what ``spmm_pattern`` returned beside the product.
    def spmm_pattern_backward_dense(self, handle, grad):
        return self._kernels["spmm_pattern_backward_dense"](handle, grad)

    def dropout_mask(self, rng, shape, p):
        return self._kernels["dropout_mask"](rng, shape, p)

    def apply_mask(self, x, mask):
        return self._kernels["apply_mask"](x, mask)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayBackend({self.name!r})"


# ----------------------------------------------------------------------
# Shared structure cache
# ----------------------------------------------------------------------
# The operators and supports the sparse kernels see are long-lived graph
# constants (propagation matrices, block diagonals, top-k patterns), so what
# a kernel derives from their *structure* — the CSR transpose, the row index
# of every stored element, the row pointers of a CSR-ordered support — is
# computed once per object and shared by every kernel and caller.  Entries
# are keyed by the owner's identity and hold it only weakly: an entry lives
# exactly as long as its owner (the weakref callback drops it), so the cache
# is bounded by the live operators rather than by a clear-on-overflow cap,
# and an id can only be reused after its entry is gone.  A structure must
# not reference its owner (neither would ever be freed), and an owner must
# not be mutated in place after its first lookup (its structures go stale).
_STRUCTURES: Dict[tuple, tuple] = {}


def cached_structure(owner, build: Callable, *args):
    """``build(owner, *args)``, once per live ``owner``, ``build``, ``args``
    (``build`` a module-level function, ``args`` hashable)."""
    key = (id(owner), build, args)
    hit = _STRUCTURES.get(key)
    if hit is not None and hit[0]() is owner:
        return hit[1]
    value = build(owner, *args)
    _STRUCTURES[key] = (
        weakref.ref(owner, lambda _ref, key=key, drop=_STRUCTURES.pop:
                    drop(key, None)),
        value)
    return value


def structure_cache_size() -> int:
    """Number of cached structures (test hook)."""
    return len(_STRUCTURES)


def _csr_transpose(matrix: sp.spmatrix) -> sp.csr_matrix:
    return matrix.T.tocsr()


def cached_transpose(matrix: sp.spmatrix) -> sp.csr_matrix:
    """The CSR transpose of ``matrix``, cached by object identity.

    Accumulation order: a cached ``A.T.tocsr()`` product gathers each output
    row's contributions in ascending source-row order — exactly the order a
    per-call ``A.T @ grad`` (CSC matvec) accumulates in — so swapping it in
    is bitwise-neutral.
    """
    return cached_structure(matrix, _csr_transpose)


def _element_rows(pattern: sp.csr_matrix) -> np.ndarray:
    return np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))


def pattern_rows(pattern: sp.csr_matrix) -> np.ndarray:
    """The row index of every stored element of a CSR ``pattern``.

    Always the same array object for one pattern, so an ``sddmm`` on that
    support finds its :func:`support_indptr` cached as well.
    """
    return cached_structure(pattern, _element_rows)


def _row_pointers(rows: np.ndarray, n_rows: int) -> Optional[np.ndarray]:
    if rows.size and (rows[0] < 0 or rows[-1] >= n_rows
                      or not np.all(rows[:-1] <= rows[1:])):
        return None
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr


def _within(indices: np.ndarray, bound: int) -> bool:
    return not indices.size or bool(indices.min() >= 0
                                    and indices.max() < bound)


def support_indptr(rows: np.ndarray, cols: np.ndarray, shape: tuple
                   ) -> Optional[np.ndarray]:
    """CSR row pointers of the ``sddmm`` support ``(rows, cols)`` of ``shape``.

    ``None`` when it is not a CSR structure of that shape — ``rows`` not
    ascending, an index from the end or out of range — which sends the
    kernel to the defining scatter (and its ``IndexError``).
    """
    if not cached_structure(cols, _within, shape[1]):
        return None
    return cached_structure(rows, _row_pointers, shape[0])


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
from repro.autograd.backend.numpy_backend import NumpyBackend  # noqa: E402

_TABLE = NumpyBackend()


def resolve_backend(spec: None = None) -> ArrayBackend:
    """The kernel table every hot-path primitive dispatches through."""
    if spec is not None:
        raise TypeError(f"there is one kernel table; got {spec!r}")
    return _TABLE


__all__ = [
    "ArrayBackend",
    "KERNEL_NAMES",
    "NumpyBackend",
    "cached_structure",
    "cached_transpose",
    "pattern_rows",
    "resolve_backend",
    "structure_cache_size",
    "support_indptr",
]
