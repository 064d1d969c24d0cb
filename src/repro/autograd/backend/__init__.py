"""Pluggable array-backend dispatch for the autograd engine.

Every array operation in :mod:`repro.autograd.tensor` routes through a
namespace object ``xp`` (the Python array-API standard: numpy fulfils it
directly), and every sparse/fused hot-path primitive in
:mod:`repro.autograd.functional` routes through a per-backend *kernel
registry*.  One backend ships:

* ``numpy`` — the default and the bitwise parity reference: scipy sparse
  products, einsum row dots and a scatter-free sddmm backward that equals
  the defining ``np.add.at`` scatter bit for bit (see
  :mod:`repro.autograd.backend.numpy_backend` for the accumulation-order
  contract).

Every backend shares one identity-keyed structure cache
(:func:`cached_structure`) for what a kernel derives from a fixed operator:
its CSR transpose, the row of each stored element, the row pointers of an
sddmm support.

Registering a GPU backend (the CuPy seam)
-----------------------------------------
A CuPy backend is a registration away and needs no dispatch changes::

    import cupy
    import cupyx.scipy.sparse as cusparse
    from repro.autograd import backend as B

    class CupyBackend(B.ArrayBackend):
        name = "cupy"
        xp = cupy                                   # array-API namespace

        def asarray(self, value, dtype=None):
            return cupy.asarray(value, dtype=dtype or cupy.float64)

        def to_host(self, array):
            return cupy.asnumpy(array)

        def prepare_sparse(self, matrix):           # host CSR -> device CSR
            return cusparse.csr_matrix(matrix.tocsr())

    backend = CupyBackend()
    backend.register_kernel("spmm", lambda adj, x: adj @ x)
    ...                                             # remaining KERNEL_NAMES
    B.register_backend(backend)

``prepare_sparse`` is the device boundary: propagation operators stay host
CSR in the model caches and are converted (and cached by the caller) on
first use.  Dense tensors pick the device up at construction because
:class:`~repro.autograd.tensor.Tensor` coerces through
``backend.asarray``.  Host-side glue (metrics, aggregation) reads arrays
back through ``to_host``.
"""

from __future__ import annotations

import contextlib
import os
import threading
import weakref
from typing import Callable, Dict, Iterator, List, Optional, Union

import numpy as np
import scipy.sparse as sp

#: every kernel a concrete backend must provide.  The five hot-path
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
    """One array device/runtime: an ``xp`` namespace plus a kernel registry.

    Subclasses set :attr:`name`, :attr:`xp` and register a callable for every
    entry of :data:`KERNEL_NAMES`.  Instances are process-wide singletons
    resolved by name (pickling — e.g. shipping a client to a persistent pool
    worker — reduces to the name and re-resolves on the other side).
    """

    name: str = "abstract"
    #: the array-API namespace dense elementwise math routes through
    xp = np

    def __init__(self):
        self._kernels: Dict[str, Callable] = {}

    # ------------------------------------------------------------------
    # Array plumbing (the CuPy seam)
    # ------------------------------------------------------------------
    def asarray(self, value, dtype=None) -> np.ndarray:
        """Coerce ``value`` onto this backend's device as float64."""
        dtype = dtype or np.float64
        if isinstance(value, np.ndarray):
            if value.dtype != dtype:
                return value.astype(dtype)
            return value
        return np.asarray(value, dtype=dtype)

    def to_host(self, array) -> np.ndarray:
        """Device array → host numpy array (no copy when already host)."""
        return np.asarray(array)

    def prepare_sparse(self, matrix):
        """Host scipy sparse matrix → the CSR form this backend consumes."""
        if not sp.issparse(matrix):
            raise TypeError(
                f"{self.name} backend expects a scipy sparse operand, "
                f"got {type(matrix).__name__}")
        return matrix.tocsr()

    # ------------------------------------------------------------------
    # Kernel registry
    # ------------------------------------------------------------------
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
    def spmm(self, adjacency, dense):
        return self._kernels["spmm"](adjacency, dense)

    # ``out`` (``spmm_backward`` / ``spmm_batched`` only) offers a result
    # buffer of the product's shape and dtype: a kernel may fill and return
    # it or allocate as usual — callers use the return value.
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

    def spmm_pattern_backward_dense(self, matrix, grad):
        return self._kernels["spmm_pattern_backward_dense"](matrix, grad)

    def dropout_mask(self, rng, shape, p):
        return self._kernels["dropout_mask"](rng, shape, p)

    def apply_mask(self, x, mask):
        return self._kernels["apply_mask"](x, mask)

    # ------------------------------------------------------------------
    def __reduce__(self):
        # Backends are singletons: pickling (worker bootstrap, checkpoints)
        # re-resolves by name instead of shipping kernel closures.
        return (get_backend, (self.name,))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ArrayBackend({self.name!r})"


# ----------------------------------------------------------------------
# Registry and resolution
# ----------------------------------------------------------------------
_REGISTRY: Dict[str, ArrayBackend] = {}

BackendSpec = Union[None, str, ArrayBackend]


def register_backend(backend: ArrayBackend) -> ArrayBackend:
    """Register (or replace) a backend under its :attr:`~ArrayBackend.name`."""
    missing = backend.missing_kernels()
    if missing:
        raise ValueError(
            f"backend '{backend.name}' is missing kernels: {missing}")
    _REGISTRY[backend.name] = backend
    return backend


def get_backend(name: str) -> ArrayBackend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown array backend '{name}' "
            f"(registered: {sorted(_REGISTRY)})") from None


def list_array_backends() -> List[str]:
    """Names of every registered array backend (CLI choices)."""
    return sorted(_REGISTRY)


# Thread-local active-backend stack over a process-wide default, so worker
# threads (the pipelined pool's collector) never see another thread's
# temporarily-pushed backend.
_DEFAULT_NAME = os.environ.get("REPRO_ARRAY_BACKEND", "numpy")
_STATE = threading.local()


def _stack() -> list:
    stack = getattr(_STATE, "stack", None)
    if stack is None:
        stack = _STATE.stack = []
    return stack


def default_backend() -> ArrayBackend:
    """The process-wide default backend (``REPRO_ARRAY_BACKEND`` or numpy)."""
    return get_backend(_DEFAULT_NAME)


def set_default_backend(spec: BackendSpec) -> str:
    """Set the process-wide default; returns the previous default's name."""
    global _DEFAULT_NAME
    previous = _DEFAULT_NAME
    _DEFAULT_NAME = resolve_backend(spec).name
    return previous


def current_backend() -> ArrayBackend:
    """The innermost :func:`use_backend` scope, else the process default."""
    stack = getattr(_STATE, "stack", None)
    if stack:
        return stack[-1]
    return default_backend()


def resolve_backend(spec: BackendSpec) -> ArrayBackend:
    """``None`` → current scope; a name → registry; an instance → itself."""
    if spec is None:
        return current_backend()
    if isinstance(spec, ArrayBackend):
        return spec
    return get_backend(spec)


@contextlib.contextmanager
def use_backend(spec: BackendSpec) -> Iterator[ArrayBackend]:
    """Scope every tensor/kernel created inside to the given backend."""
    backend = resolve_backend(spec)
    stack = _stack()
    stack.append(backend)
    try:
        yield backend
    finally:
        stack.pop()


# ----------------------------------------------------------------------
# Shared structure cache
# ----------------------------------------------------------------------
# The operators and supports the sparse kernels see are long-lived graph
# constants (propagation matrices, block diagonals, top-k patterns), so what
# a kernel derives from their *structure* — the CSR transpose, the row index
# of every stored element, the row pointers of a CSR-ordered support — is
# computed once per object and shared by every backend and caller.  Entries
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
    ascending, an index from the end or out of range — which sends every
    backend to the defining scatter (and its ``IndexError``).
    """
    if not cached_structure(cols, _within, shape[1]):
        return None
    return cached_structure(rows, _row_pointers, shape[0])


# ----------------------------------------------------------------------
# Built-in backend
# ----------------------------------------------------------------------
from repro.autograd.backend.numpy_backend import NumpyBackend  # noqa: E402

register_backend(NumpyBackend())

try:  # env misuse guard: fail at import, in the registry's own words
    default_backend()
except KeyError as error:  # pragma: no cover - seen by a subprocess test
    raise KeyError(f"{error.args[0]} — set by REPRO_ARRAY_BACKEND") from None

__all__ = [
    "ArrayBackend",
    "KERNEL_NAMES",
    "cached_structure",
    "cached_transpose",
    "current_backend",
    "default_backend",
    "get_backend",
    "list_array_backends",
    "pattern_rows",
    "register_backend",
    "resolve_backend",
    "set_default_backend",
    "structure_cache_size",
    "support_indptr",
    "use_backend",
]
