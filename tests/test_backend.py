"""The kernel table: the reference kernels and the run-time swap.

The contract under test (see ``repro/autograd/backend``):

* the numpy kernels are the bitwise parity reference — each kernel must
  reproduce its defining expression (``adjacency @ dense``, the einsum row
  dot over fancy-index gathers, ...) exactly.  The sddmm backward no longer
  *is* the ``np.add.at`` scatter, so the scatter lives here as the oracle
  (``_scatter_sddmm_backward``), per kernel and through ten Step-2 epochs;
  likewise the fused ``signed_spmm_pattern`` node is held to the unfused
  Eq. 11–12 composition (``_unfused_forward_sparse``) through ten epochs;
* the **swap**: there is one table, ``resolve_backend(None)``, and a kernel
  registered on it — here counting wrappers, the way the end-to-end tracer
  wraps its spans — is what every federation engine path (serial, batched,
  persistent pool, hierarchical) and AdaFGL Step-2 then runs, bitwise
  equal to a run of the unwrapped table;
* one structure cache serves every derived constant of a fixed support, and
  an entry lives exactly as long as the object it was derived from;
* active dropout refuses to run without an explicit rng (no hidden
  unseeded ``default_rng()`` on any hot path).
"""

from __future__ import annotations

import collections
import contextlib
import gc
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.autograd import Tensor, functional as F, resolve_backend
from repro.autograd.backend import (
    KERNEL_NAMES,
    ArrayBackend,
    NumpyBackend,
    cached_structure,
    cached_transpose,
    pattern_rows,
    structure_cache_size,
    support_indptr,
)
from repro.core import AdaFGL, AdaFGLConfig
from repro.core.adafgl import PersonalizedClient
from repro.core.modules import LearnableMessagePassing
from repro.datasets import load_dataset
from repro.federated import FederatedConfig
from repro.fgl.fedgnn import FederatedGNN
from tests.conftest import small_csbm
from repro.simulation import community_split, structure_noniid_split


NUMPY = resolve_backend(None)
#: the table as it is ("numpy") and with counting wrappers registered on
#: every kernel ("twin"): a cell parametrised over both holds for a swapped
#: kernel too
BACKEND_NAMES = ["numpy", "twin"]


@contextlib.contextmanager
def counting_kernels():
    """Counting wrappers registered on the table, the way the end-to-end
    tracer wraps its spans; the kernels are restored on exit.  Yields the
    per-kernel call counts."""
    calls = collections.Counter()
    originals = {name: NUMPY.kernel(name) for name in KERNEL_NAMES}

    def counted(name, kernel):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return kernel(*args, **kwargs)
        return wrapper

    for name, kernel in originals.items():
        NUMPY.register_kernel(name, counted(name, kernel))
    try:
        yield calls
    finally:
        for name, kernel in originals.items():
            NUMPY.register_kernel(name, kernel)


@contextlib.contextmanager
def table(name):
    """The table, as :data:`BACKEND_NAMES` ``name`` says."""
    if name == "twin":
        with counting_kernels():
            yield NUMPY
    else:
        yield NUMPY


def _random_csr(rows, cols, density=0.15, seed=0):
    rng = np.random.default_rng(seed)
    matrix = sp.random(rows, cols, density=density, format="csr",
                       random_state=rng, dtype=np.float64)
    matrix.sort_indices()
    return matrix


def _sorted_support(pattern):
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    cols = pattern.indices
    return rows, cols


def _scatter_sddmm_backward(rows, cols, a, b, grad, need_a, need_b):
    """The scatter that *defines* the sddmm backward — the oracle."""
    column = grad[:, None]
    grad_a = grad_b = None
    if need_a:
        grad_a = np.zeros_like(a)
        np.add.at(grad_a, rows, column * b[cols])
    if need_b:
        grad_b = np.zeros_like(b)
        np.add.at(grad_b, cols, column * a[rows])
    return grad_a, grad_b


def _same_bits(left, right):
    if left is None or right is None:
        return left is right
    return (left.shape == right.shape and left.dtype == right.dtype
            and left.tobytes() == right.tobytes())


@st.composite
def csr_ordered_sddmm(draw):
    """``(rows, cols, a, b, grad)`` on a CSR-ordered support.

    Rows ascend; a row may be empty (so may the whole support), and columns
    are drawn with replacement, unsorted — duplicate ``(row, col)`` pairs
    included.  ``a`` may alias ``b`` (Step 2 calls ``sddmm(rows, cols, h,
    h)``) and either may be a non-contiguous view; widths start at 1.
    """
    n = draw(st.integers(1, 10))
    aliased = draw(st.booleans())
    m = n if aliased else draw(st.integers(1, 10))
    width = draw(st.integers(1, 5))
    counts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    rows = np.repeat(np.arange(n), counts)
    cols = rng.integers(0, m, size=rows.size)

    def dense(count):
        layout = draw(st.sampled_from(["contiguous", "strided", "transposed"]))
        if layout == "strided":
            return rng.standard_normal((count, 2 * width))[:, ::2]
        if layout == "transposed":
            return rng.standard_normal((width, count)).T
        return rng.standard_normal((count, width))

    a = dense(n)
    b = a if aliased else dense(m)
    return rows, cols, a, b, rng.standard_normal(rows.size)


# Mixed shapes exercising the real plans: tall/thin client features,
# batched blocks, near-square patterns, single-column edge case.
SHAPES = [(40, 40, 8), (64, 64, 16), (25, 25, 1), (96, 96, 5)]


# ----------------------------------------------------------------------
# Registry / resolution behaviour
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_backends_registered(self):
        # One table ships, filled with the reference kernels.
        assert type(NUMPY) is NumpyBackend and NUMPY.name == "numpy"

    def test_unknown_backend_raises(self):
        # Nothing is looked up by name: there is one table.
        with pytest.raises(TypeError, match="one kernel table"):
            resolve_backend("quantum")

    def test_backends_are_singletons(self):
        # The object the tracer swaps kernels on is the one the hot paths
        # dispatch through.
        assert resolve_backend(None) is NUMPY
        assert F.backend is NUMPY

    def test_all_kernels_registered(self):
        assert not NUMPY.missing_kernels()

    def test_missing_kernels_reported(self):
        class Partial(ArrayBackend):
            name = "partial-test"

        partial = Partial()
        assert set(partial.missing_kernels()) == set(KERNEL_NAMES)
        with pytest.raises(NotImplementedError):
            partial.kernel("spmm")

    def test_tensor_carries_backend(self):
        # A tensor is its array: no per-tensor backend to carry.
        assert "backend" not in Tensor.__slots__
        t = Tensor(np.ones((2, 2)))
        assert not hasattr(t, "backend")
        with pytest.raises(TypeError):
            Tensor(np.ones((2, 2)), backend="numpy")


# ----------------------------------------------------------------------
# Per-kernel forward/backward parity (reference kernel vs its defining
# expression, bitwise)
# ----------------------------------------------------------------------
class TestKernelParity:
    @pytest.mark.parametrize("n,m,f", SHAPES)
    def test_spmm_forward_backward(self, n, m, f):
        adjacency = _random_csr(n, m, seed=n)
        dense = np.random.default_rng(1).standard_normal((m, f))
        grad = np.random.default_rng(2).standard_normal((n, f))
        assert np.array_equal(NUMPY.spmm(adjacency, dense),
                              adjacency @ dense)
        assert np.array_equal(NUMPY.spmm_backward(adjacency, None, grad),
                              adjacency.T @ grad)

    def test_spmm_backward_accepts_precomputed_transpose(self):
        adjacency = _random_csr(30, 30, seed=3)
        adjacency_t = adjacency.T.tocsr()
        grad = np.random.default_rng(4).standard_normal((30, 6))
        assert np.array_equal(
            NUMPY.spmm_backward(adjacency, adjacency_t, grad),
            adjacency.T @ grad)

    @pytest.mark.parametrize("batch", [1, 3])
    def test_spmm_batched(self, batch):
        n, f = 20, 7
        block = sp.block_diag(
            [_random_csr(n, n, seed=10 + b) for b in range(batch)],
            format="csr")
        stacked = np.random.default_rng(5).standard_normal((batch, n, f))
        flat = stacked.reshape(batch * n, f)
        assert np.array_equal(NUMPY.spmm_batched(block, stacked),
                              (block @ flat).reshape(batch, n, f))

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_spmm_batched_and_backward_fill_a_given_out(self, name):
        """``out=`` is where the product lands, not another product."""
        n, f, batch = 20, 7, 3
        block = sp.block_diag(
            [_random_csr(n, n, seed=20 + b) for b in range(batch)],
            format="csr")
        stacked = np.random.default_rng(5).standard_normal((batch, n, f))
        flat = stacked.reshape(batch * n, f)
        out = np.full((batch, n, f), np.nan)
        with table(name) as backend:
            result = backend.spmm_batched(block, stacked, out=out)
        assert np.shares_memory(result, out)
        assert result.tobytes() == (block @ flat).tobytes()
        out = np.full((batch * n, f), np.nan)
        with table(name) as backend:
            result = backend.spmm_backward(block, None, flat, out=out)
        assert result is out
        assert out.tobytes() == (block.T @ flat).tobytes()

    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_unfit_out_is_left_alone(self, name):
        """A buffer of another shape, dtype or layout is not written."""
        adjacency = _random_csr(12, 12, seed=30)
        grad = np.random.default_rng(31).standard_normal((12, 4))
        expected = adjacency.T @ grad
        for out in (np.zeros((12, 5)), np.zeros((12, 4), dtype=np.float32),
                    np.zeros((4, 12)).T):
            with table(name) as backend:
                result = backend.spmm_backward(adjacency, None, grad,
                                               out=out)
            assert not np.shares_memory(result, out)
            assert not out.any()
            assert np.array_equal(result, expected)

    @pytest.mark.parametrize("n,m,f", SHAPES)
    def test_sddmm_forward_backward(self, n, m, f):
        pattern = _random_csr(n, n, seed=n + 1)
        rows, cols = _sorted_support(pattern)
        rng = np.random.default_rng(6)
        a = rng.standard_normal((n, f))
        b = rng.standard_normal((n, f))
        grad = rng.standard_normal(pattern.nnz)
        assert np.array_equal(NUMPY.sddmm(rows, cols, a, b),
                              np.einsum("ij,ij->i", a[rows], b[cols]))
        ref = _scatter_sddmm_backward(rows, cols, a, b, grad, True, True)
        out = NUMPY.sddmm_backward(rows, cols, a, b, grad, True, True)
        assert np.array_equal(ref[0], out[0])
        assert np.array_equal(ref[1], out[1])

    @given(csr_ordered_sddmm(), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_sddmm_backward_is_the_scatter_bit_for_bit(self, case, need_a,
                                                       need_b):
        rows, cols, a, b, grad = case
        assert support_indptr(rows, cols,
                              (a.shape[0], b.shape[0])) is not None
        self._assert_is_the_scatter(rows, cols, a, b, grad, need_a, need_b)

    @staticmethod
    def _assert_is_the_scatter(rows, cols, a, b, grad, need_a=True,
                               need_b=True):
        oracle = _scatter_sddmm_backward(rows, cols, a, b, grad,
                                         need_a, need_b)
        out = NUMPY.sddmm_backward(rows, cols, a, b, grad, need_a, need_b)
        assert _same_bits(out[0], oracle[0])
        assert _same_bits(out[1], oracle[1])

    @staticmethod
    def _fallback_case():
        rows, cols = _sorted_support(_random_csr(30, 30, seed=8))
        rng = np.random.default_rng(10)
        return (rows, cols, rng.standard_normal((30, 4)),
                rng.standard_normal((30, 4)), rng.standard_normal(rows.size))

    def test_sddmm_backward_unsorted_rows_fallback(self):
        # Outside CSR order the kernel keeps the scatter itself.
        rows, cols, a, b, grad = self._fallback_case()
        perm = np.random.default_rng(9).permutation(rows.size)
        rows, cols = rows[perm], cols[perm]
        assert support_indptr(rows, cols, (30, 30)) is None
        self._assert_is_the_scatter(rows, cols, a, b, grad)

    def test_sddmm_backward_columns_from_the_end_fallback(self):
        # Ascending rows, but columns counted from the end: valid for the
        # scatter, not a CSR column index.
        rows, cols, a, b, grad = self._fallback_case()
        assert support_indptr(rows, cols - 30, (30, 30)) is None
        self._assert_is_the_scatter(rows, cols - 30, a, b, grad)

    def test_sddmm_backward_out_of_range_index_raises(self):
        # Neither sparse product validates indices, so an index past the
        # operand must reach the scatter and raise there.
        rows, cols, a, b, grad = self._fallback_case()
        for bad_rows, bad_cols in ((rows, cols + 30), (rows + 30, cols)):
            assert support_indptr(bad_rows, bad_cols, (30, 30)) is None
            with pytest.raises(IndexError):
                NUMPY.sddmm_backward(bad_rows, bad_cols, a, b, grad,
                                     True, True)

    def test_sddmm_backward_partial_grads(self):
        pattern = _random_csr(20, 20, seed=11)
        rows, cols = _sorted_support(pattern)
        rng = np.random.default_rng(12)
        a = rng.standard_normal((20, 3))
        b = rng.standard_normal((20, 3))
        grad = rng.standard_normal(rows.size)
        grad_a, grad_b = NUMPY.sddmm_backward(rows, cols, a, b, grad,
                                              True, False)
        assert grad_a is not None and grad_b is None
        grad_a, grad_b = NUMPY.sddmm_backward(rows, cols, a, b, grad,
                                              False, True)
        assert grad_a is None and grad_b is not None

    @pytest.mark.parametrize("n,m,f", SHAPES)
    def test_spmm_pattern_forward_backward(self, n, m, f):
        pattern = _random_csr(n, n, seed=n + 2)
        rows, cols = _sorted_support(pattern)
        rng = np.random.default_rng(13)
        values = rng.standard_normal(pattern.nnz)
        dense = rng.standard_normal((n, f))
        grad = rng.standard_normal((n, f))
        valued = sp.csr_matrix((values, pattern.indices, pattern.indptr),
                               shape=pattern.shape)
        out, handle = NUMPY.spmm_pattern(pattern, values, dense)
        assert np.array_equal(out, valued @ dense)
        assert np.array_equal(
            NUMPY.spmm_pattern_backward_values(pattern, grad, dense),
            np.einsum("ij,ij->i", grad[rows], dense[cols]))
        assert np.array_equal(
            NUMPY.spmm_pattern_backward_dense(handle, grad),
            valued.T @ grad)

    @pytest.mark.parametrize("operand", ["c-order", "f-order", "one-column",
                                         "float32", "no-routines"])
    @pytest.mark.parametrize("transpose", [False, True])
    def test_structure_product_is_scipys_product(self, monkeypatch, operand,
                                                 transpose):
        """The pattern kernels call scipy's sparsetools routine on the
        structure's arrays; every operand gives scipy's own product's bits
        (and dtype), the routine or the built-matrix fallback."""
        from repro.autograd.backend import numpy_backend

        pattern = _random_csr(30, 24, seed=21)
        rng = np.random.default_rng(22)
        values = rng.standard_normal(pattern.nnz)
        dense = rng.standard_normal((24 if not transpose else 30,
                                     1 if operand == "one-column" else 5))
        if operand == "f-order":
            dense = np.asfortranarray(dense)
        elif operand == "float32":
            dense = dense.astype(np.float32)
        elif operand == "no-routines":
            monkeypatch.setattr(numpy_backend, "csr_matvecs", None)
            monkeypatch.setattr(numpy_backend, "csc_matvecs", None)
        valued = sp.csr_matrix((values, pattern.indices, pattern.indptr),
                               shape=pattern.shape)
        expected = (valued.T if transpose else valued) @ dense
        out = numpy_backend.structure_product(
            pattern.shape, pattern.indptr, pattern.indices, values, dense,
            transpose=transpose)
        assert _same_bits(out, expected)

    def test_dropout_mask_rng_stream_identical(self):
        # A kernel must consume the rng stream exactly as the defining
        # expression does, so that runs under any two backends see the same
        # masks — this one and every later one off the same generator.
        for p in (0.1, 0.5):
            rng, rng_ref = np.random.default_rng(0), np.random.default_rng(0)
            mask = NUMPY.dropout_mask(rng, (13, 7), p)
            mask_ref = (rng_ref.random((13, 7)) >= p) / (1.0 - p)
            assert np.array_equal(mask, mask_ref)
            assert rng.bit_generator.state == rng_ref.bit_generator.state
        x = np.random.default_rng(1).standard_normal((13, 7))
        assert np.array_equal(NUMPY.apply_mask(x, mask), x * mask_ref)

    def test_functional_ops_match_through_autograd(self):
        adjacency = _random_csr(30, 30, seed=14)
        feats = np.random.default_rng(15).standard_normal((30, 5))
        for name in BACKEND_NAMES:
            x = Tensor(feats.copy(), requires_grad=True)
            with table(name):
                out = F.spmm(adjacency, x)
                out.sum().backward()
            assert np.array_equal(out.numpy(), adjacency @ feats)
            assert np.array_equal(x.grad, adjacency.T @ np.ones((30, 5)))


# ----------------------------------------------------------------------
# Shared structure cache (every spmm backward reuses the cached transpose)
# ----------------------------------------------------------------------
class TestTransposeCache:
    def test_cache_returns_same_object(self):
        adjacency = _random_csr(25, 25, seed=16)
        first = cached_transpose(adjacency)
        assert cached_transpose(adjacency) is first
        assert np.array_equal(first.toarray(), adjacency.T.toarray())
        assert structure_cache_size() >= 1

    def test_spmm_backward_hits_shared_cache(self):
        adjacency = _random_csr(25, 25, seed=17)
        cached = cached_transpose(adjacency)
        x = Tensor(np.random.default_rng(18).standard_normal((25, 4)),
                   requires_grad=True)
        F.spmm(adjacency, x).sum().backward()
        expected = cached @ np.ones((25, 4))
        assert np.array_equal(x.grad, expected)
        # The entry was reused, not rebuilt.
        assert cached_transpose(adjacency) is cached


class TestStructureCacheLifetime:
    """An entry lives as long as its owner — no cap, no clear-on-overflow."""

    def test_more_live_owners_than_any_cap_all_hit(self):
        owners = [_random_csr(6, 6, density=0.5, seed=s) for s in range(100)]
        gc.collect()    # earlier tests' cyclic garbage owns entries too
        before = structure_cache_size()
        first = [cached_transpose(owner) for owner in owners]
        assert structure_cache_size() == before + 100
        assert all(cached_transpose(owner) is transpose
                   for owner, transpose in zip(owners, first))
        assert structure_cache_size() == before + 100

    def test_entries_die_with_their_owner(self):
        pattern = _random_csr(12, 12, seed=40)
        gc.collect()    # earlier tests' cyclic garbage owns entries too
        before = structure_cache_size()
        rows = pattern_rows(pattern)
        assert pattern_rows(pattern) is rows
        cols = pattern.indices
        assert support_indptr(rows, cols, (12, 12)) \
            is support_indptr(rows, cols, (12, 12))
        # rows-of-pattern, row pointers of ``rows``, range check of ``cols``
        assert structure_cache_size() == before + 3
        # The pattern holds the only other references to ``rows`` and
        # ``cols``, so the support's entries go when the pattern does.
        del rows, cols, pattern
        gc.collect()
        assert structure_cache_size() == before

    def test_threads_sharing_and_dropping_owners(self):
        shared = [_random_csr(8, 8, density=0.4, seed=s) for s in range(6)]
        expected = [owner.T.toarray() for owner in shared]
        deadline = time.monotonic() + 1.0
        wrong = []

        def worker(offset):
            turn = offset
            while time.monotonic() < deadline and not wrong:
                index = turn % len(shared)
                if not np.array_equal(
                        cached_transpose(shared[index]).toarray(),
                        expected[index]):
                    wrong.append(index)
                # a short-lived owner: built, cached, evicted on this thread
                scratch = _random_csr(5, 5, density=0.5, seed=turn)
                if cached_transpose(scratch).shape != (5, 5):
                    wrong.append(-1)
                turn += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        before = structure_cache_size()
        del shared
        gc.collect()
        assert structure_cache_size() == before - 6

    def test_recycled_id_never_returns_a_stale_structure(self):
        builds = []

        def first_value(owner):
            builds.append(id(owner))
            return float(owner[0])

        for value in range(200):
            owner = np.full(4, float(value))
            recycled = id(owner) in builds
            assert cached_structure(owner, first_value) == value
            del owner
            if recycled:
                break
        else:
            pytest.skip("the allocator never reused an id")
        assert len(builds) == value + 1


# ----------------------------------------------------------------------
# Dropout rng contract (satellite: no unseeded fallback on any hot path)
# ----------------------------------------------------------------------
class TestDropoutRng:
    def test_active_dropout_without_rng_raises(self):
        x = Tensor(np.ones((4, 4)))
        with pytest.raises(ValueError, match="explicit random generator"):
            F.dropout(x, 0.5, training=True)

    def test_inactive_dropout_without_rng_is_noop(self):
        x = Tensor(np.ones((4, 4)))
        assert F.dropout(x, 0.5, training=False) is x
        assert F.dropout(x, 0.0, training=True) is x

    def test_training_paths_never_hit_fallback(self, monkeypatch):
        # Any hot path reaching an unseeded default_rng() would be a
        # reproducibility bug; make the constructor explode and train.
        def _boom(*args, **kwargs):
            raise AssertionError(
                "hot path constructed an unseeded default_rng()")

        monkeypatch.setattr(np.random, "default_rng",
                            lambda seed=None: (_boom() if seed is None
                                               else np.random.Generator(
                                                   np.random.PCG64(seed))))
        graph = small_csbm(num_nodes=60, seed=21)
        clients = community_split(graph, 2, seed=0)
        config = FederatedConfig(rounds=1, local_epochs=1, seed=0,
                                 backend="serial")
        FederatedGNN(clients, "gcn", hidden=8, config=config).run()


# ----------------------------------------------------------------------
# End-to-end TrainingHistory parity: the table vs the table with counting
# wrappers registered, every engine path
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def parity_clients():
    graph = small_csbm(num_nodes=90, seed=5)
    return community_split(graph, 3, seed=0)


def _histories_equal(a, b):
    assert a.loss == b.loss
    assert a.train_accuracy == b.train_accuracy
    assert a.test_accuracy == b.test_accuracy
    assert a.client_accuracy == b.client_accuracy


class TestEndToEndParity:
    @pytest.mark.parametrize("backend,extra", [
        ("serial", {}),
        ("batched", {}),
        ("process_pool", {"num_workers": 2}),
        ("process_pool", {"num_workers": 2, "hierarchical": True}),
    ], ids=["serial", "batched", "persistent-pool", "hierarchical"])
    def test_step1_history_bitwise(self, parity_clients, backend, extra):
        # The pool cells keep the default ``pipe`` transport, and the counts
        # are the coordinator's (its evaluation, at least): forked workers
        # inherit the wrappers but count into their own copies.
        def run():
            config = FederatedConfig(rounds=2, local_epochs=2, lr=0.02,
                                     seed=0, backend=backend, **extra)
            return FederatedGNN(parity_clients, "gcn", hidden=8,
                                config=config).run()

        reference = run()
        with counting_kernels() as calls:
            wrapped = run()
        _histories_equal(reference, wrapped)
        assert calls["spmm"] + calls["spmm_batched"] > 0

    def test_adafgl_step2_history_bitwise(self, parity_clients):
        def run():
            config = AdaFGLConfig(rounds=2, local_epochs=2,
                                  personalized_epochs=3, hidden=8, seed=0,
                                  sparse_propagation=True)
            trainer = AdaFGL(list(parity_clients), config)
            return trainer.run(), trainer.evaluate("test")

        reference, accuracy = run()
        with counting_kernels() as calls:
            wrapped, wrapped_accuracy = run()
        _histories_equal(reference, wrapped)
        assert accuracy == wrapped_accuracy
        assert calls["sddmm"] and calls["spmm_pattern"]

    def test_step2_epochs_bitwise_against_the_scatter_kernels(self):
        """Ten Step-2 epochs on a sparse chameleon split: the reference
        kernels against the table with the scatter (and the fancy-index
        gathers they replaced) registered in their place."""
        calls = []

        def scatter(*args):
            calls.append(args[0].size)
            return _scatter_sddmm_backward(*args)

        def fancy_sddmm(rows, cols, a, b):
            return np.einsum("ij,ij->i", a[rows], b[cols])

        def fancy_values_backward(pattern, grad, dense):
            rows = np.repeat(np.arange(pattern.shape[0]),
                             np.diff(pattern.indptr))
            return np.einsum("ij,ij->i", grad[rows], dense[pattern.indices])

        def step2():
            graph = load_dataset("chameleon", seed=0, num_nodes=400)
            config = AdaFGLConfig(hidden=16, sparse_propagation=True,
                                  propagation_top_k="auto", seed=0)
            method = AdaFGL(structure_noniid_split(graph, 3, seed=0), config)
            method.run_step1(rounds=2)
            clients = [
                PersonalizedClient(index, graph, probs, config)
                for index, (graph, probs) in enumerate(zip(
                    method.extractor.client_graphs(),
                    method.extractor.client_probabilities()))]
            losses = [[client.train_epoch() for client in clients]
                      for _ in range(10)]
            return losses, [client.model.state_dict() for client in clients]

        losses, states = step2()
        backend = resolve_backend(None)
        old = {"sddmm_backward": scatter, "sddmm": fancy_sddmm,
               "spmm_pattern_backward_values": fancy_values_backward}
        current = {name: backend.kernel(name) for name in old}
        for name, kernel in old.items():
            backend.register_kernel(name, kernel)
        try:
            old_losses, old_states = step2()
        finally:
            for name, kernel in current.items():
                backend.register_kernel(name, kernel)
        assert calls and min(calls) > 0
        assert np.array_equal(np.array(losses), np.array(old_losses))
        for state, old_state in zip(states, old_states):
            assert state.keys() == old_state.keys()
            for name in state:
                assert _same_bits(state[name], old_state[name]), name


def _unfused_forward_sparse(self, h_m, pattern):
    """Eq. 11–12 on the fixed support as the op-by-op composition that
    ``signed_spmm_pattern`` fused: per layer ``relu``, ``neg``, ``relu``,
    two ``spmm_pattern`` products and their difference (the oracle)."""
    rows = pattern_rows(pattern)
    cols = pattern.indices
    p_values = Tensor(pattern.data)
    scale = 1.0 / max(1.0, float(h_m.shape[0]))
    for name in self._layer_names:
        h_m = F.relu(getattr(self, name)(h_m))
        similarity = F.sddmm(rows, cols, h_m, h_m)
        p_values = p_values * self.beta + similarity * (1.0 - self.beta)
        h_pos = F.spmm_pattern(pattern, F.relu(p_values), h_m)
        h_neg = F.spmm_pattern(pattern, F.relu(-p_values), h_m)
        h_m = h_m + (h_pos - h_neg) * scale
    return h_m


class TestFusedMessagePassing:
    def test_step2_epochs_bitwise_against_the_unfused_composition(
            self, monkeypatch):
        """Ten Step-2 epochs on a sparse chameleon split through the fused
        signed product and through the composition it replaced: the same
        losses and the same bits in every parameter."""
        def step2():
            graph = load_dataset("chameleon", seed=0, num_nodes=400)
            config = AdaFGLConfig(hidden=16, sparse_propagation=True,
                                  propagation_top_k="auto", seed=0)
            method = AdaFGL(structure_noniid_split(graph, 3, seed=0), config)
            method.run_step1(rounds=2)
            clients = [
                PersonalizedClient(index, graph, probs, config)
                for index, (graph, probs) in enumerate(zip(
                    method.extractor.client_graphs(),
                    method.extractor.client_probabilities()))]
            with counting_kernels() as calls:
                losses = [[client.train_epoch() for client in clients]
                          for _ in range(10)]
            return (losses, [client.model.state_dict() for client in clients],
                    calls)

        losses, states, calls = step2()
        monkeypatch.setattr(LearnableMessagePassing, "_forward_sparse",
                            _unfused_forward_sparse)
        old_losses, old_states, old_calls = step2()
        # One values-gradient per layer fused, two unfused.
        assert calls["spmm_pattern"] == old_calls["spmm_pattern"] > 0
        assert 2 * calls["spmm_pattern_backward_values"] \
            == old_calls["spmm_pattern_backward_values"] > 0
        assert np.array(losses).tobytes() == np.array(old_losses).tobytes()
        for state, old_state in zip(states, old_states):
            assert state.keys() == old_state.keys()
            for name in state:
                assert _same_bits(state[name], old_state[name]), name


class TestDispatchLintGuard:
    @staticmethod
    def _guard():
        """``(repository root, the guard loaded as a module)``."""
        import importlib.util
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        spec = importlib.util.spec_from_file_location(
            "check_backend_dispatch",
            repo / "tools" / "check_backend_dispatch.py")
        guard = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(guard)
        return repo, guard

    def test_hot_paths_are_clean(self):
        import subprocess
        import sys
        from pathlib import Path

        repo = Path(__file__).resolve().parents[1]
        result = subprocess.run(
            [sys.executable, str(repo / "tools" / "check_backend_dispatch.py")],
            cwd=repo, capture_output=True, text=True)
        assert result.returncode == 0, result.stdout + result.stderr

    def test_guard_catches_bare_numpy(self, tmp_path):
        repo, guard = self._guard()
        source = (repo / "src/repro/autograd/functional.py").read_text()
        bad = source.replace(
            "out_data = backend.spmm(adjacency, dense.data)",
            "out_data = np.asarray(adjacency @ dense.data)")
        assert bad != source
        target = tmp_path / "functional.py"
        target.write_text(bad)
        violations = guard.check(target)
        assert any(fn == "spmm" and expr == "np.asarray"
                   for fn, _, expr in violations)

    def test_guard_catches_bare_numpy_in_the_signed_product(self, tmp_path):
        repo, guard = self._guard()
        source = (repo / "src/repro/autograd/functional.py").read_text()
        bad = source.replace(
            "neg_data, neg_handle = backend.spmm_pattern(",
            "neg_data, neg_handle = np.zeros_like(dense.data), None\n"
            "    _ = backend.spmm_pattern(")
        assert bad != source
        target = tmp_path / "functional.py"
        target.write_text(bad)
        assert [(fn, expr) for fn, _, expr in guard.check(target)] \
            == [("signed_spmm_pattern", "np.zeros_like")]

    def test_signed_product_runs_on_the_table(self):
        pattern = _random_csr(12, 12, seed=5)
        rng = np.random.default_rng(6)
        values = Tensor(rng.standard_normal(pattern.nnz), requires_grad=True)
        dense = Tensor(rng.standard_normal((12, 3)), requires_grad=True)
        with counting_kernels() as calls:
            F.signed_spmm_pattern(pattern, values, dense).sum().backward()
        assert calls == {"spmm_pattern": 2,
                         "spmm_pattern_backward_values": 1,
                         "spmm_pattern_backward_dense": 2}

    def test_guard_catches_out_buffers_filled_outside_a_kernel(self,
                                                               tmp_path):
        repo, guard = self._guard()
        source = (repo / "src/repro/autograd/functional.py").read_text()
        assert guard.check(repo / "src/repro/autograd/functional.py") == []
        bad = source.replace(
            "out_data = backend.spmm_batched(adjacency, dense.data,",
            "out_data = backend.xp.matmul(adjacency, dense.data,")
        assert bad != source
        target = tmp_path / "functional.py"
        target.write_text(bad)
        assert [(fn, expr) for fn, _, expr in guard.check(target)] \
            == [("spmm_batched", "backend.xp.matmul(out=)")]
