"""Adjacency normalisation operators (Eq. 1 of the paper).

``normalize_adjacency`` implements ``D^{r-1} Â D^{-r}``: ``r = 1/2`` gives the
GCN symmetric normalisation, ``r = 1`` the random-walk operator ``Â D^{-1}``
and ``r = 0`` the reverse-transition operator ``D^{-1} Â``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

_INT32_MAX = np.iinfo(np.int32).max


def to_symmetric(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Symmetrise an adjacency matrix (logical OR of A and Aᵀ), binary weights."""
    adjacency = sp.csr_matrix(adjacency)
    sym = adjacency.maximum(adjacency.T)
    sym.data = np.ones_like(sym.data)
    sym.setdiag(0)
    sym.eliminate_zeros()
    return sym.tocsr()


def _entries(adjacency) -> tuple:
    """``(n, rows, cols, data)`` of a square adjacency's stored entries.

    Row-major storage order, explicit zeros and duplicates included,
    ``data`` as float64.  A CSR input's arrays are read, not copied.
    """
    if not (sp.issparse(adjacency) and adjacency.format == "csr"):
        adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    if adjacency.shape != (n, n):
        raise ValueError(f"adjacency must be square, got {adjacency.shape}")
    rows = np.repeat(np.arange(n), np.diff(adjacency.indptr))
    return (n, rows, adjacency.indices,
            np.asarray(adjacency.data, dtype=np.float64))


def csr_from_entries(n: int, rows: np.ndarray, cols: np.ndarray,
                     data: np.ndarray) -> sp.csr_matrix:
    """The ``n × n`` CSR of row-major entries (each row's order kept).

    Indices are int32 whenever they fit — the dtype scipy's constructor
    picks anyway, handed over so it need not scan for it.
    """
    index = np.int32 if max(n, cols.size) <= _INT32_MAX else np.int64
    indptr = np.zeros(n + 1, dtype=index)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return sp.csr_matrix((data, cols.astype(index, copy=False), indptr),
                         shape=(n, n))


def _is_canonical(rows: np.ndarray, cols: np.ndarray) -> bool:
    """Whether row-major entries have strictly increasing columns per row
    (scipy's "canonical format": sorted, no duplicates)."""
    return not np.any((cols[1:] <= cols[:-1]) & (rows[1:] == rows[:-1]))


def _sum_duplicates(n: int, rows: np.ndarray, cols: np.ndarray,
                   data: np.ndarray, order: int = 0) -> tuple:
    """Distinct entries, each the sum of its duplicates in storage order.

    Rows ascend; within a row the columns ascend (``order=0``), follow
    their first appearance (``1``) or its reverse (``-1``) — the orders
    scipy's sparse routines leave their results in.
    """
    keys, first, inverse = np.unique(rows * n + cols, return_index=True,
                                     return_inverse=True)
    sums = data[first]
    later = np.ones(inverse.size, dtype=bool)
    later[first] = False
    np.add.at(sums, inverse[later], data[later])
    if order:
        permutation = np.lexsort((order * first, keys // n))
        keys, sums = keys[permutation], sums[permutation]
    return keys // n, keys % n, sums


def canonical_csr(adjacency) -> sp.csr_matrix:
    """``adjacency`` as a CSR with sorted, duplicate-free rows.

    A CSR already in that form is returned as is; otherwise duplicates
    are summed in storage order (``data`` float64).
    """
    if sp.issparse(adjacency) and adjacency.format == "csr" \
            and adjacency.has_canonical_format:
        return adjacency
    n, rows, cols, data = _entries(adjacency)
    return csr_from_entries(n, *_sum_duplicates(n, rows, cols, data))


def _plus_identity(n: int, rows: np.ndarray, cols: np.ndarray,
                   data: np.ndarray, weight: float) -> tuple:
    """Entries of ``A + weight * I`` as scipy's CSR sum forms them.

    Duplicates are summed, the weight is added last, zero sums are
    dropped; a canonical ``A`` gives sorted rows, any other ``A`` rows in
    reverse order of first appearance with a new diagonal entry first.
    """
    diagonal = np.arange(n)
    rows, cols, data = _sum_duplicates(
        n, np.concatenate([rows, diagonal]), np.concatenate([cols, diagonal]),
        np.concatenate([data, np.full(n, weight, dtype=np.float64)]),
        order=0 if _is_canonical(rows, cols) else -1)
    keep = data != 0
    return rows[keep], cols[keep], data[keep]


def add_self_loops(adjacency: sp.spmatrix, weight: float = 1.0) -> sp.csr_matrix:
    """Return ``A + weight * I``."""
    n, rows, cols, data = _entries(adjacency)
    return csr_from_entries(n, *_plus_identity(n, rows, cols, data, weight))


def normalize_adjacency(adjacency: sp.spmatrix, r: float = 0.5,
                        self_loops: bool = True) -> sp.csr_matrix:
    """Generalised degree normalisation ``D^{r-1} Â D^{-r}`` (Eq. 1).

    Array code over the CSR entries that returns, bit for bit, the CSR of
    ``diags(D^{r-1}) @ Â @ diags(D^{-r})`` in scipy: degrees are summed in
    the association ``np.add.reduceat`` uses, each of the two products
    sums duplicate entries and drops zeros, and the result keeps ``Â``'s
    entry order.

    Parameters
    ----------
    adjacency:
        Sparse adjacency matrix.
    r:
        Convolution kernel coefficient in ``[0, 1]``.
    self_loops:
        Whether to add self-loops before normalising (GCN convention).
    """
    if not 0.0 <= r <= 1.0:
        raise ValueError("normalisation coefficient r must be in [0, 1]")
    n, rows, cols, data = _entries(adjacency)
    distinct = self_loops or _is_canonical(rows, cols)
    if self_loops:
        rows, cols, data = _plus_identity(n, rows, cols, data, 1.0)
    counts = np.bincount(rows, minlength=n)
    nonempty = np.flatnonzero(counts)
    degrees = np.zeros(n)
    if nonempty.size:
        starts = np.cumsum(counts) - counts
        degrees[nonempty] = np.add.reduceat(data, starts[nonempty])
    degrees[degrees == 0] = 1.0
    values = np.power(degrees, r - 1.0)[rows] * data
    if not distinct:
        rows, cols, values = _sum_duplicates(n, rows, cols, values, order=1)
    keep = values != 0
    rows, cols = rows[keep], cols[keep]
    values = values[keep] * np.power(degrees, -r)[cols]
    keep = values != 0
    return csr_from_entries(n, rows[keep], cols[keep], values[keep])


def row_normalize(matrix: np.ndarray) -> np.ndarray:
    """Row-normalise a dense non-negative matrix so rows sum to one."""
    matrix = np.asarray(matrix, dtype=np.float64)
    sums = matrix.sum(axis=1, keepdims=True)
    sums[sums == 0] = 1.0
    return matrix / sums
