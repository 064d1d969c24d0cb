"""Property-based tests (hypothesis) for core data structures and invariants."""

from types import SimpleNamespace

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings, strategies as st

from repro.autograd import Tensor, functional as F
from repro.core.hcs import label_propagation
from repro.core.knowledge import optimized_propagation_matrix
from repro.federated import fedavg_aggregate
from repro.graph import (
    adjacency_from_edges,
    edge_homophily,
    node_homophily,
    normalize_adjacency,
)
from repro.graph.normalize import add_self_loops, row_normalize
from repro.serving import extract_block, khop_nodes


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
@st.composite
def random_graph(draw, max_nodes=30):
    """A random undirected graph with labels: (adjacency, labels)."""
    n = draw(st.integers(min_value=4, max_value=max_nodes))
    num_classes = draw(st.integers(min_value=2, max_value=4))
    edge_count = draw(st.integers(min_value=0, max_value=3 * n))
    seed = draw(st.integers(min_value=0, max_value=2 ** 16))
    return labelled_graph(n, num_classes, edge_count, seed)


def labelled_graph(n, num_classes, edge_count, seed):
    """The graph :func:`random_graph` builds from these four draws."""
    rng = np.random.default_rng(seed)
    if edge_count:
        edges = rng.integers(0, n, size=(edge_count, 2))
        edges = edges[edges[:, 0] != edges[:, 1]]
    else:
        edges = np.zeros((0, 2), dtype=int)
    adjacency = adjacency_from_edges(edges, n)
    labels = rng.integers(0, num_classes, size=n)
    return adjacency, labels, num_classes


matrices = st.integers(min_value=0, max_value=2 ** 16).map(
    lambda seed: np.random.default_rng(seed).normal(
        size=(int(np.random.default_rng(seed).integers(2, 8)),
              int(np.random.default_rng(seed + 1).integers(2, 6)))))


# ----------------------------------------------------------------------
# Graph invariants
# ----------------------------------------------------------------------
@given(random_graph())
@settings(max_examples=40, deadline=None)
def test_homophily_metrics_are_probabilities(data):
    adjacency, labels, _ = data
    assert 0.0 <= edge_homophily(adjacency, labels) <= 1.0
    assert 0.0 <= node_homophily(adjacency, labels) <= 1.0


@given(random_graph())
@settings(max_examples=40, deadline=None)
def test_homophily_invariant_to_label_permutation(data):
    adjacency, labels, num_classes = data
    permutation = np.random.default_rng(0).permutation(num_classes)
    assert edge_homophily(adjacency, labels) == edge_homophily(
        adjacency, permutation[labels])


@given(random_graph())
@settings(max_examples=40, deadline=None)
def test_constant_labels_are_fully_homophilous(data):
    adjacency, labels, _ = data
    constant = np.zeros_like(labels)
    assert edge_homophily(adjacency, constant) == 1.0
    assert node_homophily(adjacency, constant) == 1.0


@given(random_graph(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=40, deadline=None)
def test_normalized_adjacency_is_nonnegative_and_bounded(data, r):
    adjacency, _, _ = data
    norm = normalize_adjacency(adjacency, r=r)
    dense = norm.toarray()
    assert np.all(dense >= 0.0)
    assert np.all(dense <= 1.0 + 1e-9)
    assert np.all(np.isfinite(dense))


@given(random_graph())
@example(labelled_graph(17, 2, 14, 569))   # 28 nnz; a belief reaches 1.008
@settings(max_examples=30, deadline=None, derandomize=True)
def test_label_propagation_stays_on_simplex(data):
    """Beliefs stay non-negative, labelled rows stay their one-hot label,
    and no belief exceeds the bound Eq. 15's operator allows.

    The bound is not 1.  ``P = D^-1/2 A D^-1/2`` is symmetric, not
    row-stochastic: row i sums to ``rho_i = sum_{j ~ i} 1/sqrt(d_i d_j)``,
    up to ``sqrt(d_i)`` (a hub among leaves).  Let ``rho = max_i rho_i``
    and ``r = (1 - kappa) max(rho, 1)``.  Initial beliefs lie in [0, 1];
    if every belief of step t is at most ``m_t`` then every entry of
    ``P B_t`` is at most ``rho m_t``, so an unlabelled belief of step t+1
    is at most ``kappa + r m_t`` and a labelled one is at most
    ``1 <= kappa + r m_t`` (for ``m_t >= 1``).  Hence, with ``m_0 = 1``,
    ``m_k = kappa (1 + r + ... + r^(k-1)) + r^k``: exactly 1 whenever
    ``rho <= 1``, and above it only on graphs whose rows sum past 1.
    """
    adjacency, labels, num_classes = data
    n = labels.shape[0]
    labeled = np.zeros(n, dtype=bool)
    labeled[: max(1, n // 3)] = True
    k, kappa = 3, 0.5
    beliefs = label_propagation(adjacency, labels, labeled, num_classes,
                                k=k, kappa=kappa)
    degree = np.asarray(adjacency.sum(axis=1)).ravel()
    inv_sqrt = np.zeros(n)
    inv_sqrt[degree > 0] = degree[degree > 0] ** -0.5
    rho = float(np.max(inv_sqrt * (adjacency @ inv_sqrt)))
    r = (1.0 - kappa) * max(rho, 1.0)
    bound = kappa * sum(r ** t for t in range(k)) + r ** k
    assert np.all(beliefs >= 0.0)
    np.testing.assert_array_equal(beliefs[labeled],
                                  np.eye(num_classes)[labels[labeled]])
    assert np.all(beliefs <= bound + 1e-9)


@given(random_graph(), st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_optimized_propagation_rows_sum_to_one(data, alpha):
    adjacency, labels, num_classes = data
    rng = np.random.default_rng(1)
    probs = rng.dirichlet(np.ones(num_classes), size=labels.shape[0])
    matrix = optimized_propagation_matrix(adjacency, probs, alpha=alpha)
    assert np.allclose(matrix.sum(axis=1), 1.0, atol=1e-8)
    assert np.all(matrix >= -1e-12)


@given(st.integers(min_value=2, max_value=20), st.integers(min_value=0, max_value=1000))
@settings(max_examples=40, deadline=None)
def test_row_normalize_rows_sum_to_one_or_zero(n, seed):
    rng = np.random.default_rng(seed)
    matrix = np.abs(rng.normal(size=(n, n)))
    matrix[0] = 0.0
    out = row_normalize(matrix)
    sums = out.sum(axis=1)
    assert np.all((np.isclose(sums, 1.0)) | (np.isclose(sums, 0.0)))


# ----------------------------------------------------------------------
# Array CSR code against the scipy expressions it replaced, bit for bit
# ----------------------------------------------------------------------
def _scipy_add_self_loops(adjacency, weight=1.0):
    adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    return (adjacency + weight * sp.eye(n, format="csr")).tocsr()


def _scipy_normalize_adjacency(adjacency, r=0.5, self_loops=True):
    matrix = _scipy_add_self_loops(adjacency) if self_loops else \
        sp.csr_matrix(adjacency, dtype=np.float64)
    degrees = np.asarray(matrix.sum(axis=1)).ravel()
    degrees[degrees == 0] = 1.0
    left = sp.diags(np.power(degrees, r - 1.0))
    right = sp.diags(np.power(degrees, -r))
    return (left @ matrix @ right).tocsr()


def _scipy_khop_nodes(adjacency, seeds, depth):
    adjacency = sp.csr_matrix(adjacency)
    visited = np.unique(np.asarray(seeds, dtype=np.int64))
    frontier = visited
    for _ in range(int(depth)):
        if frontier.size == 0:
            break
        neighbours = adjacency[frontier].indices
        fresh = np.setdiff1d(neighbours, visited)
        if fresh.size == 0:
            break
        visited = np.union1d(visited, fresh)
        frontier = fresh
    return visited


def _scipy_extract_block(graph, anchors, depth):
    """``(nodes, adjacency, features, new_index)``."""
    anchors = np.unique(np.asarray(anchors, dtype=np.int64))
    if depth is None:
        nodes = np.arange(graph.num_nodes, dtype=np.int64)
    else:
        nodes = _scipy_khop_nodes(graph.adjacency, anchors,
                                  max(int(depth) - 1, 0))
    base = sp.csr_matrix(graph.adjacency)[nodes][:, nodes].tocoo()
    size = int(nodes.size)
    anchor_positions = np.searchsorted(nodes, anchors)
    rows = np.concatenate([base.row, anchor_positions,
                           np.full(anchors.size, size, dtype=np.int64)])
    cols = np.concatenate([base.col,
                           np.full(anchors.size, size, dtype=np.int64),
                           anchor_positions])
    data = np.concatenate([base.data, np.ones(2 * anchors.size)])
    adjacency = sp.csr_matrix((data, (rows, cols)),
                              shape=(size + 1, size + 1))
    return nodes, adjacency, np.asarray(graph.features)[nodes], size


FUZZ = settings(max_examples=200, derandomize=True, deadline=None)

WEIGHTS = st.sampled_from([1.0, 0.0, -0.0, -1.0, 0.5, 2.0, 1e-3]) | st.floats(
    min_value=-10.0, max_value=10.0, allow_nan=False)


@st.composite
def stored_adjacency(draw, max_nodes=10):
    """A square CSR as a caller may hand it over.

    Unit or weighted entries, explicit zeros, diagonal entries (a -1.0
    among them cancels the added self-loop), isolated nodes; stored
    canonically or exactly as drawn — unsorted, with duplicates.  Rows
    hold at most eight entries: scipy sorts a longer row with an unstable
    sort, so the reference itself leaves the order of duplicates there
    undefined.  Indices are int32; for int64 input scipy picks the
    result's index dtype from uninitialised memory.
    """
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    weights = st.just(1.0) if draw(st.booleans()) else WEIGHTS
    stored = [draw(st.lists(st.tuples(st.integers(0, n - 1), weights),
                            max_size=8)) for _ in range(n)]
    rows = np.repeat(np.arange(n), [len(row) for row in stored])
    cols = np.array([col for row in stored for col, _ in row], dtype=np.int32)
    data = np.array([value for row in stored for _, value in row],
                    dtype=np.float64)
    if draw(st.booleans()):
        return sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    indptr = np.concatenate([[0], np.cumsum([len(row) for row in stored])])
    return sp.csr_matrix((data, cols, indptr.astype(np.int32)), shape=(n, n))


def _assert_same_csr(got, expected):
    assert type(got) is type(expected) and got.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@given(stored_adjacency())
@FUZZ
def test_normalize_adjacency_is_the_scipy_expression(adjacency):
    with np.errstate(invalid="ignore", divide="ignore"):
        for r in (0.0, 0.25, 0.5, 1.0):
            for self_loops in (True, False):
                _assert_same_csr(
                    normalize_adjacency(adjacency, r, self_loops),
                    _scipy_normalize_adjacency(adjacency, r, self_loops))
    _assert_same_csr(add_self_loops(adjacency),
                     _scipy_add_self_loops(adjacency))


@given(stored_adjacency(), st.data())
@FUZZ
def test_khop_and_extract_block_are_the_scipy_expressions(adjacency, data):
    n = adjacency.shape[0]
    anchors = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                 max_size=4))      # duplicates included
    graph = SimpleNamespace(
        adjacency=adjacency, num_nodes=n,
        features=np.arange(3.0 * n).reshape(n, 3))
    for depth in (0, 1, 2, 3):
        got = khop_nodes(adjacency, anchors, depth)
        expected = _scipy_khop_nodes(adjacency, anchors, depth)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
    for depth in (None, 0, 1, 2, 3):
        block = extract_block(graph, anchors, depth)
        nodes, expected, features, new_index = _scipy_extract_block(
            graph, anchors, depth)
        assert block.nodes.dtype == nodes.dtype
        assert block.nodes.tobytes() == nodes.tobytes()
        assert block.features.tobytes() == features.tobytes()
        assert block.new_index == new_index
        _assert_same_csr(block.adjacency, expected)


# ----------------------------------------------------------------------
# Autograd invariants
# ----------------------------------------------------------------------
@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_softmax_rows_always_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(scale=10.0, size=(5, 7))
    out = F.softmax(Tensor(x), axis=-1)
    assert np.allclose(out.data.sum(axis=1), 1.0)
    assert np.all(out.data >= 0.0)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_addition_gradient_is_ones(seed):
    rng = np.random.default_rng(seed)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    (a + b).sum().backward()
    assert np.allclose(a.grad, 1.0)
    assert np.allclose(b.grad, 1.0)


@given(st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=30, deadline=None)
def test_spmm_linear_in_features(seed):
    rng = np.random.default_rng(seed)
    dense = (rng.random((6, 6)) < 0.4).astype(float)
    adjacency = sp.csr_matrix(dense)
    x = rng.normal(size=(6, 3))
    y = rng.normal(size=(6, 3))
    lhs = F.spmm(adjacency, Tensor(x + y)).data
    rhs = F.spmm(adjacency, Tensor(x)).data + F.spmm(adjacency, Tensor(y)).data
    assert np.allclose(lhs, rhs)


# ----------------------------------------------------------------------
# Federated aggregation invariants
# ----------------------------------------------------------------------
@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_fedavg_stays_within_convex_hull(num_clients, seed):
    rng = np.random.default_rng(seed)
    states = [{"w": rng.normal(size=(3, 2))} for _ in range(num_clients)]
    weights = rng.random(num_clients) + 0.1
    aggregated = fedavg_aggregate(states, weights.tolist())["w"]
    stacked = np.stack([s["w"] for s in states])
    assert np.all(aggregated <= stacked.max(axis=0) + 1e-9)
    assert np.all(aggregated >= stacked.min(axis=0) - 1e-9)


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10 ** 6))
@settings(max_examples=40, deadline=None)
def test_fedavg_of_identical_states_is_identity(num_clients, seed):
    rng = np.random.default_rng(seed)
    base = {"w": rng.normal(size=(4,)), "b": rng.normal(size=(2, 2))}
    states = [{k: v.copy() for k, v in base.items()} for _ in range(num_clients)]
    aggregated = fedavg_aggregate(states)
    for key in base:
        assert np.allclose(aggregated[key], base[key])
