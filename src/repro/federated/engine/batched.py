"""Batched execution backend: homogeneous clients as one autograd graph.

Standard federated simulation spends most of its wall-clock on Python-level
overhead: ``B`` clients × ``E`` local epochs each build a full autograd graph
over small matrices.  When every client trains the *same architecture* (the
usual FL convention, and a hard requirement of FedAvg anyway), the per-client
graphs are structurally identical and can be fused:

* features are padded to ``(B, n_max, f)`` and propagated with one
  block-diagonal sparse operator via :func:`~repro.autograd.functional.spmm_batched`;
* per-client parameters are stacked into ``(B, ...)`` tensors, so every layer
  is a single batched matmul instead of ``B`` small ones;
* the per-client Adam moments are stacked too, and one vectorised update
  advances every client (with per-client bias-correction step counts, so
  partial participation stays exact);
* a steady-state epoch allocates nothing: the backend's
  :class:`~repro.autograd.Workspace` replays every stack-sized temporary
  into the previous epoch's arrays, Adam updates the stacks in place, the
  dropout masks are drawn into resident buffers.  Arrays produced inside an
  epoch (``param.grad`` included) are therefore reused once dropped, and
  views of the hot stacks follow the training.

Four model families are fused today, dispatched by model type:

* **GCN** (:class:`_BatchedGCNPlan`) — the full per-epoch pipeline:
  block-diagonal propagation, stacked linear layers, per-client dropout
  streams drawn in serial order;
* **SGC** (:class:`_BatchedSGCPlan`) — the ``k`` propagation hops act on
  *constant* features with a *constant* operator, so they are precomputed
  once per plan and every local epoch collapses to one stacked linear layer;
* **GAMLP** (:class:`_BatchedGAMLPPlan`) — decoupled-hop family: the
  constant hop stack ``[x, P̃x, …, P̃ᵏx]`` is precomputed once, every epoch
  is a softmax hop-gate combination plus one stacked MLP;
* **GPR-GNN** (:class:`_BatchedGPRGNNPlan`) — stacked MLP transform followed
  by ``k`` fused differentiable hops combined with per-client GPR weights
  (the hops act on *learned* features, so only the operator is hoisted).

Numerical behaviour mirrors serial execution: dropout masks are drawn from
each client's own RNG stream in serial order, gradients are clipped per
client with the same global-norm rule, and losses are the per-client
cross-entropy means.  Clients the backend cannot batch (unsupported models,
``extra_loss`` hooks, heterogeneous shapes) transparently fall back to serial
training; the most recent reason is kept in :attr:`BatchedBackend.last_fallback`.

The module also hosts the **fused evaluation plans**
(:func:`build_eval_plan`): no-grad forward passes over the same padded-batch
constants that fill every client's prediction cache in one sweep, mirroring
the serial evaluation expression by expression (sparse propagation is fused —
block rows are independent — while dense GEMMs run per-client slices, because
padded batched matmuls are not bit-stable against the per-client call).  The
pipelined round loop uses them after uniform *and* personalized broadcasts:
per-client states are grouped by identity, so FED-PUB / GCFL+ per-cluster
broadcasts evaluate through one fused sweep instead of per-client forwards.
"""

from __future__ import annotations

import logging
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type, Union

import numpy as np
import scipy.sparse as sp

from repro.autograd import (
    Tensor,
    Workspace,
    functional as F,
    no_grad,
    resolve_backend,
    use_backend,
)
from repro.autograd.backend import cached_transpose, pattern_rows
from repro.federated.engine.backends import (
    ExecutionBackend,
    register_backend,
)
from repro.models.base import propagation_operator
from repro.models.gamlp import GAMLP
from repro.models.gcn import GCN, SGC
from repro.models.gprgnn import GPRGNN
from repro.optim import Adam

StateDict = Dict[str, np.ndarray]

logger = logging.getLogger(__name__)

#: model families already warned about missing a fused eval plan (one
#: warning per family per process, not one per evaluation tick).
_WARNED_EVAL_FAMILIES: Set[str] = set()

#: parameter stacking roles: how one client's array lives in the (B, ...)
#: stack.  "matrix" → stacked as-is and used in batched matmuls;
#: "bias" → stacked as (B, 1, h) so row broadcasting matches the serial
#: ``x @ W + b``; "vector" → stacked as (B, d) (hop gates / GPR weights).
MATRIX, BIAS, VECTOR = "matrix", "bias", "vector"


def _padded_batch(clients: Sequence
                  ) -> Tuple[List[int], int, np.ndarray, sp.csr_matrix]:
    """Shared padded-batch constants: features block + block-diag operator.

    Returns ``(sizes, n_max, features, propagation)`` — the ``(B, n_max, f)``
    zero-padded feature block and the ``(B·n_max, B·n_max)`` block-diagonal
    normalized adjacency whose ``i``-th block acts on client ``i``.  Training
    plans and eval plans build from this one helper so their constants can
    never diverge.
    """
    sizes = [client.graph.num_nodes for client in clients]
    n_max = max(sizes)
    batch = len(clients)
    features = np.zeros((batch, n_max, clients[0].graph.num_features))
    rows, cols, vals = [], [], []
    for index, client in enumerate(clients):
        n = client.graph.num_nodes
        features[index, :n] = client.graph.features
        prop = propagation_operator(client.graph.adjacency)
        offset = index * n_max
        rows.append(pattern_rows(prop) + offset)
        cols.append(prop.indices + offset)
        vals.append(prop.data)
    total = batch * n_max
    propagation = sp.csr_matrix(
        (np.concatenate(vals),
         (np.concatenate(rows), np.concatenate(cols))),
        shape=(total, total))
    return sizes, n_max, features, propagation


def _softmax_rows(values: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax — ``F.softmax``'s expression on plain numpy.

    Every fused-eval consumer must use this one helper: the bitwise-parity
    guarantee depends on the expression matching the tensor op exactly.
    """
    shifted = values - values.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def group_states_by_identity(states: Sequence[StateDict]
                             ) -> List[Tuple[StateDict, List[int]]]:
    """Group positions sharing the *same* state-dict object.

    Personalized broadcasts hand every member of a cluster the identical
    dict (plain FedAvg hands everyone one dict), so grouping by ``id`` finds
    the broadcast groups without comparing array contents.
    """
    groups: Dict[int, Tuple[StateDict, List[int]]] = {}
    for index, state in enumerate(states):
        entry = groups.get(id(state))
        if entry is None:
            groups[id(state)] = (state, [index])
        else:
            entry[1].append(index)
    return list(groups.values())


class _BatchedPlan:
    """Constant per-group data shared by every batched model family.

    Owns the padded feature block, the block-diagonal propagation operator,
    the flat supervision indices that fuse every client's cross-entropy into
    one autograd path, and the stacked-Adam machinery.  Subclasses declare
    :meth:`_parameter_specs` — ``(name, role)`` pairs in optimizer order —
    and implement :meth:`_forward` over the flat stacked-parameter list.
    """

    def __init__(self, clients: Sequence):
        self.clients = list(clients)
        # Plans inherit the array backend of the clients they fuse, so the
        # batched path selects backends exactly like the serial one.
        self.array_backend = getattr(clients[0], "array_backend", None)
        self.sizes, self.n_max, features, self.propagation = \
            _padded_batch(clients)
        batch = len(clients)
        self.labels: List[np.ndarray] = []
        self.train_idx: List[np.ndarray] = []
        for index, client in enumerate(clients):
            padded_labels = np.zeros(self.n_max, dtype=np.int64)
            padded_labels[:client.graph.num_nodes] = client.graph.labels
            self.labels.append(padded_labels)
            self.train_idx.append(np.nonzero(client.graph.train_mask)[0])
        self.features = Tensor(features, backend=self.array_backend)
        # Flat supervision indices so the whole group's loss is one fused
        # autograd path: pick every (client, train-row, label) log-probability
        # at once and weight each entry by the client's 1/|train| (the exact
        # reciprocal the serial per-client ``mean()`` multiplies by, so
        # gradients match serial training bit for bit).
        counts = [idx.size for idx in self.train_idx]
        if any(count == 0 for count in counts):
            raise ValueError("batched training requires labelled train nodes "
                             "on every client")
        self.flat_batch = np.concatenate(
            [np.full(count, i) for i, count in enumerate(counts)])
        self.flat_rows = np.concatenate(self.train_idx)
        self.flat_labels = np.concatenate(
            [self.labels[i][idx] for i, idx in enumerate(self.train_idx)])
        self.flat_weights = Tensor(
            np.concatenate([np.full(count, 1.0 / count) for count in counts]),
            backend=self.array_backend)
        self.segments = np.concatenate([[0], np.cumsum(counts)])
        # Stable references into every client's parameters and graph-constant
        # metadata; re-read each round, but resolved only once.
        self._client_params = [dict(c.model.named_parameters())
                               for c in clients]
        #: (parameter name, stacking role) in optimizer order, e.g.
        #: [("hop_logits", VECTOR), ("classifier.lin0.weight", MATRIX), ...].
        self.param_specs: List[Tuple[str, str]] = self._parameter_specs()
        #: dropout site → (mask tensor, keep flags), resident padded buffers
        self._masks: Dict[int, Tuple[Tensor, np.ndarray]] = {}

    # -- family hooks --------------------------------------------------
    def _parameter_specs(self) -> List[Tuple[str, str]]:
        raise NotImplementedError

    def _forward(self, params: List[Tensor]) -> Tensor:
        raise NotImplementedError

    @staticmethod
    def signature(model) -> Tuple:
        """Family-specific fuse-compatibility key (k, dropout rate, ...)."""
        return ()

    # ------------------------------------------------------------------
    def _stack_states(self):
        """Stacked parameter tensors plus stacked Adam state, read from clients.

        Everything is ordered like ``Adam.parameters`` so moment arrays stay
        aligned with the stacked parameter tensors.
        """
        per_client = self._client_params
        params = []
        for name, role in self.param_specs:
            stack = np.stack([p[name].data for p in per_client])
            if role == BIAS:  # (B, h) → (B, 1, h) for row broadcasting
                stack = stack[:, None, :]
            params.append(Tensor(stack, requires_grad=True,
                                 backend=self.array_backend))
        moments_m, moments_v = [], []
        for j, (name, role) in enumerate(self.param_specs):
            m = np.stack([c.optimizer._m[j] for c in self.clients])
            v = np.stack([c.optimizer._v[j] for c in self.clients])
            if role == BIAS:  # bias moments align with the (B, 1, h) tensors
                m, v = m[:, None, :], v[:, None, :]
            moments_m.append(m)
            moments_v.append(v)
        steps = np.array([c.optimizer._step_count for c in self.clients],
                         dtype=np.float64)
        return params, moments_m, moments_v, steps

    # ------------------------------------------------------------------
    # Resident ("hot") mode: a persistent-pool worker trains the same shard
    # every round, so the stacked tensors and Adam state can live on the
    # plan between rounds instead of round-tripping through every client's
    # model and optimizer (B × set_weights + np.stack up, B × write_back
    # down — the dominant non-epoch cost of small-client shards).  While a
    # plan is hot its clients' own weights/moments are stale; ``flush``
    # must run before anything else reads them (state fetch, eviction,
    # serial fallback, a different plan over the same clients).
    # ------------------------------------------------------------------
    hot: Optional[Tuple] = None

    def ensure_hot(self) -> None:
        """Stack the clients' current weights/moments into resident tensors.

        First hot round only; afterwards the stacked state is authoritative
        and the caller overwrites the parameter slices with each broadcast
        via :meth:`load_client_state` / :meth:`load_group_state`.
        """
        if self.hot is None:
            self.hot = self._stack_states()

    def load_client_state(self, index: int, state: StateDict) -> None:
        """Write one client's parameter dict into the hot stacked tensors."""
        params = self.hot[0]
        for param, (name, role) in zip(params, self.param_specs):
            if role == BIAS:
                param.data[index, 0] = state[name]
            else:
                param.data[index] = state[name]

    def load_group_state(self, indices: Sequence[int],
                         state: StateDict) -> None:
        """Broadcast one dict to a *group* of stack slices in one write each.

        The group-wise personalized-broadcast fast path: per-cluster states
        (GCFL+, FED-PUB groups) land with one vectorised fancy-index assign
        per parameter instead of one write per (client, parameter).
        """
        indices = np.asarray(indices)
        params = self.hot[0]
        for param, (name, role) in zip(params, self.param_specs):
            if role == BIAS:
                param.data[indices, 0] = state[name]
            else:
                param.data[indices] = state[name]

    def load_shared_state(self, state: StateDict) -> None:
        """Broadcast one parameter dict to every client's stack slice.

        The uniform-broadcast fast path: one numpy assign per parameter
        instead of one per (client, parameter).
        """
        params = self.hot[0]
        for param, (name, role) in zip(params, self.param_specs):
            if role == BIAS:
                param.data[:, 0] = state[name]
            else:
                param.data[:] = state[name]

    def client_state(self, index: int) -> StateDict:
        """One client's trained parameters as views into the hot stack."""
        params = self.hot[0]
        state = {}
        for param, (name, role) in zip(params, self.param_specs):
            state[name] = param.data[index, 0] if role == BIAS \
                else param.data[index]
        return state

    def stacked_params(self) -> StateDict:
        """The hot ``(B, ...)`` parameter stacks, keyed by parameter name."""
        params = self.hot[0]
        stacks = {}
        for param, (name, role) in zip(params, self.param_specs):
            stacks[name] = param.data[:, 0] if role == BIAS else param.data
        return stacks

    def flush(self) -> None:
        """Write the hot stacked state back into the clients and go cold."""
        if self.hot is not None:
            self._write_back(*self.hot)
            self.hot = None

    # ------------------------------------------------------------------
    def run_round(self, workspace: Workspace, max_grad_norm: float = 5.0,
                  keep_hot: bool = False) -> List[float]:
        """All participants' local epochs as one batched graph per epoch.

        Every epoch replays ``workspace``: its stack-sized temporaries land
        in the arrays the previous epoch used, and the stacks themselves
        (parameters, Adam moments) are updated in place — views handed out
        by :meth:`client_state` / :meth:`stacked_params` follow the training.
        """
        for client in self.clients:
            client.model.train()
        if self.hot is not None:
            state = self.hot
        else:
            state = self._stack_states()
        losses: List[List[float]] = [[] for _ in self.clients]
        with use_backend(self.array_backend):
            self._run_epochs(workspace, state, losses, max_grad_norm)
        if keep_hot:
            self.hot = state
        else:
            self._write_back(*state)
            self.hot = None
        return [float(np.mean(per_round)) for per_round in losses]

    def _run_epochs(self, workspace, state, losses, max_grad_norm) -> None:
        """The fused epoch loop (runs under the plan's array backend)."""
        for _ in range(self.clients[0].local_epochs):
            with workspace:
                self._epoch(workspace, *state, losses, max_grad_norm)

    def _epoch(self, workspace, stacked, moments_m, moments_v, steps, losses,
               max_grad_norm) -> None:
        """One fused epoch; its graph dies with this frame, which is what
        frees the workspace's buffers for the next epoch's replay."""
        optimizer = self.clients[0].optimizer
        lr, wd = optimizer.lr, optimizer.weight_decay
        beta1, beta2, eps = optimizer.beta1, optimizer.beta2, optimizer.eps
        batch = len(self.clients)
        for param in stacked:
            param.grad = None
        logits = self._forward(stacked)
        log_probs = F.log_softmax(logits, axis=-1)
        picked = log_probs[self.flat_batch, self.flat_rows, self.flat_labels]
        total = -(picked * self.flat_weights).sum()
        for index in range(batch):
            start, stop = self.segments[index], self.segments[index + 1]
            segment = picked.data[start:stop]
            # Same float expression as the serial ``-picked.mean()``.
            losses[index].append(
                float(-(segment.sum() * (1.0 / segment.size))))
        total.backward()

        # Two scratch stacks per parameter carry every temporary of the
        # clipping and of Adam: the expressions of the allocating form
        # (kept beside each step), evaluated in the same order into ``out=``.
        scratch = [(workspace.take(param.shape), workspace.take(param.shape))
                   for param in stacked]

        # Per-client global-norm clipping (same rule as clip_grad_norm):
        # square_sums += (grad.reshape(batch, -1) ** 2).sum(axis=1)
        square_sums = np.zeros(batch)
        for param, (first, _second) in zip(stacked, scratch):
            np.square(param.grad, out=first)
            square_sums += first.reshape(batch, -1).sum(axis=1)
        norms = np.sqrt(square_sums)
        scale = np.where(norms > max_grad_norm,
                         max_grad_norm / (norms + 1e-12), 1.0)
        clip = bool(np.any(scale != 1.0))

        # Vectorised Adam with per-client bias-correction step counts.
        # The corrections use Python scalar pow: numpy's vectorised
        # ``beta ** steps`` takes a SIMD code path whose rounding differs
        # from ``beta ** int_step`` by one ulp at some exponents (e.g.
        # 0.999**7), which would break bitwise parity with the serial
        # optimizer.
        steps += 1.0
        bias1 = np.array([1.0 - beta1 ** int(s) for s in steps])
        bias2 = np.array([1.0 - beta2 ** int(s) for s in steps])
        for param, m, v, (first, second) in zip(stacked, moments_m,
                                                moments_v, scratch):
            # Broadcast a (B,) vector over a stacked tensor of any rank.
            per_client = (batch,) + (1,) * (param.ndim - 1)
            grad = param.grad       # stays the raw gradient: never mutated
            if clip:                # grad = grad * scale
                grad = np.multiply(grad, scale.reshape(per_client), out=first)
            if wd:                  # grad = grad + wd * param.data
                np.multiply(wd, param.data, out=second)
                grad = np.add(grad, second, out=first)
            m *= beta1              # m += (1 - beta1) * grad
            m += np.multiply(1.0 - beta1, grad, out=second)
            v *= beta2              # v += (1 - beta2) * grad * grad
            np.multiply(1.0 - beta2, grad, out=second)
            v += np.multiply(second, grad, out=second)
            # param.data -= lr * (m / b1) / (np.sqrt(v / b2) + eps)
            np.divide(m, bias1.reshape(per_client), out=first)
            np.multiply(lr, first, out=first)
            np.divide(v, bias2.reshape(per_client), out=second)
            np.sqrt(second, out=second)
            np.add(second, eps, out=second)
            np.divide(first, second, out=first)
            np.subtract(param.data, first, out=param.data)

    def _write_back(self, stacked, moments_m, moments_v, steps):
        """Unstack the trained state into each client's model and optimizer."""
        for index, client in enumerate(self.clients):
            state = {}
            for param, (name, role) in zip(stacked, self.param_specs):
                state[name] = param.data[index, 0] if role == BIAS \
                    else param.data[index]
            client.set_weights(state)
            opt = client.optimizer
            opt._step_count = int(steps[index])
            for j, (m, v) in enumerate(zip(moments_m, moments_v)):
                target_shape = opt._m[j].shape
                opt._m[j] = m[index].reshape(target_shape).copy()
                opt._v[j] = v[index].reshape(target_shape).copy()

    # ------------------------------------------------------------------
    # Shared building blocks
    # ------------------------------------------------------------------
    def _constant_hops(self, k: int, keep_all: bool) -> List[Tensor]:
        """``[P̃X, …, P̃ᵏX]`` (or just ``P̃ᵏX``) as constant stacked blocks.

        One fused ``spmm_batched`` per hop over the block-diagonal operator;
        block rows are independent, so every client's hops are bitwise the
        per-client ``F.spmm`` chain the serial forward computes.
        """
        blocks: List[Tensor] = []
        with no_grad():
            current = self.features
            for _ in range(k):
                current = F.spmm_batched(self.propagation, current)
                if keep_all:
                    blocks.append(Tensor(current.data,
                                         backend=self.array_backend))
        if not keep_all:
            blocks.append(Tensor(current.data, backend=self.array_backend))
        return blocks

    def _dropout_mask(self, site: int, width: int) -> Tensor:
        """One inverted-dropout mask per client, drawn from its own stream.

        Each dropout *site* of the forward owns its padded buffers: a mask
        is read again in the backward, after the later sites drew theirs.
        The draws land where ``random((n, width))`` would put them and turn
        into ``(draw >= p) / (1 - p)`` in place; padded rows stay zero.
        """
        p = self.dropout_p
        if site not in self._masks:
            shape = (len(self.clients), self.n_max, width)
            self._masks[site] = (
                Tensor(np.zeros(shape), backend=self.array_backend),
                np.zeros(shape, dtype=bool))
        mask, keep = self._masks[site]
        for index, client in enumerate(self.clients):
            self._dropout_rng(client).random(
                out=mask.data[index, :self.sizes[index]])
        np.greater_equal(mask.data, p, out=keep)
        np.divide(keep, 1.0 - p, out=mask.data)
        return mask

    def _dropout_rng(self, client):
        """The RNG stream the serial forward would draw this mask from."""
        raise NotImplementedError

    def _stacked_mlp(self, x: Tensor, params: List[Tensor],
                     layer_count: int) -> Tensor:
        """The serial :class:`~repro.nn.MLP` forward over stacked operands.

        ``params`` holds ``layer_count`` alternating (weight, bias) stacks;
        hidden activations get the serial relu + per-client dropout masks.
        """
        last = layer_count - 1
        for layer in range(layer_count):
            x = x.matmul(params[2 * layer]) + params[2 * layer + 1]
            if layer != last:
                x = x.relu()
                if self.dropout_p > 0.0:
                    x = x * self._dropout_mask(layer, x.shape[-1])
        return x


class _BatchedGCNPlan(_BatchedPlan):
    """GCN family: propagate + stacked linear + relu/dropout per layer."""

    def __init__(self, clients: Sequence):
        model = clients[0].model
        self.layer_names = list(model._layer_names)
        self.dropout_p = model.dropout.p
        super().__init__(clients)
        # The GCN forward back-propagates through spmm_batched; constant-hop
        # families never need the transposed operator.  The shared dispatch
        # cache makes this the same object every spmm backward would reuse.
        self.propagation_t = cached_transpose(self.propagation)
        #: the first layer's hop acts on the constant features: ``P̃X``, once
        self.first_hop = self._constant_hops(1, keep_all=False)[0]

    @staticmethod
    def signature(model) -> Tuple:
        return (model.dropout.p,)

    def _parameter_specs(self):
        specs = []
        for name in self.layer_names:
            specs.append((f"{name}.weight", MATRIX))
            specs.append((f"{name}.bias", BIAS))
        return specs

    def _dropout_rng(self, client):
        return client.model.dropout._rng

    def _forward(self, params: List[Tensor]) -> Tensor:
        hidden = self.first_hop
        last = len(self.layer_names) - 1
        for layer in range(len(self.layer_names)):
            if layer:
                hidden = F.spmm_batched(self.propagation, hidden,
                                        adjacency_t=self.propagation_t)
            hidden = hidden.matmul(params[2 * layer]) + params[2 * layer + 1]
            if layer != last:
                hidden = hidden.relu()
                if self.dropout_p > 0.0:
                    hidden = hidden * self._dropout_mask(
                        layer, hidden.shape[-1])
        return hidden


class _BatchedSGCPlan(_BatchedPlan):
    """SGC: constant k-hop block + one stacked linear.

    SGC's forward is ``linear(P^k X)`` where both ``P`` and ``X`` are fixed
    for the whole run, so the ``k`` sparse hops are hoisted out of the epoch
    loop entirely and every local epoch is a single ``(B, n, f) @ (B, f, c)``
    matmul plus bias.
    """

    def __init__(self, clients: Sequence):
        self.k = clients[0].model.k
        super().__init__(clients)
        self.propagated = self._constant_hops(self.k, keep_all=False)[0]

    @staticmethod
    def signature(model) -> Tuple:
        return (model.k,)

    def _parameter_specs(self):
        return [("linear.weight", MATRIX), ("linear.bias", BIAS)]

    def _forward(self, params: List[Tensor]) -> Tensor:
        return self.propagated.matmul(params[0]) + params[1]


class _BatchedGAMLPPlan(_BatchedPlan):
    """GAMLP decoupled-hop plan: constant hop stack + gates + stacked MLP.

    The ``k`` parameter-free propagation hops act on constant features, so
    the whole hop stack ``[x, P̃x, …, P̃ᵏx]`` is precomputed once at plan
    build; every local epoch is a softmax over the stacked hop logits, a
    gated accumulation of the constant blocks (gradients flow only into the
    gates) and one stacked MLP — no sparse work at all in the epoch loop.
    """

    def __init__(self, clients: Sequence):
        model = clients[0].model
        self.k = model.k
        self.layer_names = list(model.classifier._layer_names)
        self.dropout_p = model.classifier.dropout.p
        super().__init__(clients)
        self.hops = [self.features] + self._constant_hops(self.k,
                                                          keep_all=True)

    @staticmethod
    def signature(model) -> Tuple:
        return (model.k, model.classifier.dropout.p)

    def _parameter_specs(self):
        specs = [("hop_logits", VECTOR)]
        for name in self.layer_names:
            specs.append((f"classifier.{name}.weight", MATRIX))
            specs.append((f"classifier.{name}.bias", BIAS))
        return specs

    def _dropout_rng(self, client):
        return client.model.classifier.dropout._rng

    def _forward(self, params: List[Tensor]) -> Tensor:
        batch = len(self.clients)
        # Row-wise softmax over (B, k+1) — each row is the serial
        # ``softmax(hop_logits.reshape(1, -1))`` expression bit for bit.
        gates = F.softmax(params[0], axis=-1)
        combined = None
        for index, hop in enumerate(self.hops):
            weighted = hop * gates[:, index].reshape(batch, 1, 1)
            combined = weighted if combined is None else combined + weighted
        return self._stacked_mlp(combined, params[1:], len(self.layer_names))


class _BatchedGPRGNNPlan(_BatchedPlan):
    """GPR-GNN decoupled plan: stacked MLP + fused hops + GPR combination.

    Unlike GAMLP, the hop chain acts on the *learned* transform ``H =
    MLP(X)``, so the hops cannot be hoisted out of the epoch loop — but they
    still fuse: one differentiable ``spmm_batched`` per hop propagates every
    client's block at once, and the generalized-PageRank accumulation runs
    on per-client γ slices of the stacked weight vector.
    """

    def __init__(self, clients: Sequence):
        model = clients[0].model
        self.k = model.k
        self.layer_names = list(model.transform._layer_names)
        self.dropout_p = model.transform.dropout.p
        super().__init__(clients)
        self.propagation_t = cached_transpose(self.propagation)

    @staticmethod
    def signature(model) -> Tuple:
        return (model.k, model.transform.dropout.p)

    def _parameter_specs(self):
        specs = [("gamma", VECTOR)]
        for name in self.layer_names:
            specs.append((f"transform.{name}.weight", MATRIX))
            specs.append((f"transform.{name}.bias", BIAS))
        return specs

    def _dropout_rng(self, client):
        return client.model.transform.dropout._rng

    def _forward(self, params: List[Tensor]) -> Tensor:
        batch = len(self.clients)
        gamma = params[0]
        hidden = self._stacked_mlp(self.features, params[1:],
                                   len(self.layer_names))
        out = hidden * gamma[:, 0].reshape(batch, 1, 1)
        current = hidden
        for step in range(1, self.k + 1):
            current = F.spmm_batched(self.propagation, current,
                                     adjacency_t=self.propagation_t)
            out = out + current * gamma[:, step].reshape(batch, 1, 1)
        return out


#: model type → batched plan family (extension point for new families).
PLAN_FAMILIES: List[Tuple[type, Type[_BatchedPlan]]] = [
    (GCN, _BatchedGCNPlan),
    (SGC, _BatchedSGCPlan),
    (GAMLP, _BatchedGAMLPPlan),
    (GPRGNN, _BatchedGPRGNNPlan),
]


def _plan_family(client) -> Optional[Type[_BatchedPlan]]:
    for model_type, plan_cls in PLAN_FAMILIES:
        if type(client.model) is model_type:
            return plan_cls
    return None


def _batchable(client) -> Optional[str]:
    """Return None if the client can join a batched group, else the reason."""
    if client.extra_loss is not None:
        return "client has a method-specific extra_loss hook"
    if _plan_family(client) is None:
        return (f"model {type(client.model).__name__} has no batched plan "
                f"family")
    if not isinstance(client.optimizer, Adam):
        return f"optimizer {type(client.optimizer).__name__} is not Adam"
    return None


def _homogeneous(clients: Sequence) -> bool:
    """All clients share layer shapes, family knobs and optimizer settings."""
    reference = clients[0]
    family = _plan_family(reference)
    ref_shapes = {name: p.shape
                  for name, p in reference.model.named_parameters()}
    ref_signature = family.signature(reference.model)
    ref_opt = reference.optimizer
    for client in clients[1:]:
        if _plan_family(client) is not family:
            return False
        shapes = {name: p.shape for name, p in client.model.named_parameters()}
        if shapes != ref_shapes:
            return False
        if family.signature(client.model) != ref_signature:
            return False
        opt = client.optimizer
        if (opt.lr, opt.weight_decay, opt.beta1, opt.beta2, opt.eps) != \
                (ref_opt.lr, ref_opt.weight_decay, ref_opt.beta1,
                 ref_opt.beta2, ref_opt.eps):
            return False
        if client.local_epochs != reference.local_epochs:
            return False
    return True


# ----------------------------------------------------------------------
# Fused evaluation plans
# ----------------------------------------------------------------------
class _FusedEvalPlan:
    """One fused no-grad forward filling every client's prediction cache.

    The padded feature block and the block-diagonal normalized adjacency are
    constants built once per run; :meth:`refresh` computes every client's
    class probabilities with the exact tensor expressions the per-client
    eval forward uses — probabilities, and therefore every recorded
    accuracy, are bitwise-identical to serial evaluation.  The sparse
    propagation is fused (block rows are independent) while the dense
    linear layers run one GEMM per client on its ``[:n]`` slice: a single
    padded batched matmul is *not* bit-stable against the per-client call
    because BLAS kernel blocking depends on the row count.

    ``refresh`` takes one state dict per client (in client order), so
    uniform FedAvg broadcasts and personalized per-cluster broadcasts ride
    the same sweep; subclasses may exploit identical-state groups via
    :func:`group_states_by_identity`.
    """

    def __init__(self, clients):
        self.clients = list(clients)
        self._backend = resolve_backend(
            getattr(clients[0], "array_backend", None))
        self.sizes, self.n_max, self.features, self.propagation = \
            _padded_batch(clients)
        self._propagation_csr = self._backend.prepare_sparse(self.propagation)

    @staticmethod
    def signature(model) -> Tuple:
        """Eval-relevant fuse key (dropout is inert in eval mode)."""
        return ()

    # ------------------------------------------------------------------
    def _spmm(self, block: np.ndarray) -> np.ndarray:
        """One fused block-diagonal product over a stacked ``(B, n, f)``."""
        batch, n_max, width = block.shape
        flat = block.reshape(batch * n_max, width)
        return self._backend.spmm(self._propagation_csr,
                                  flat).reshape(batch, n_max, width)

    def _constant_blocks(self, k: int, keep_all: bool) -> List[np.ndarray]:
        """``[P̃X, …, P̃ᵏX]`` (or just ``P̃ᵏX``) — eval twin of the training
        plans' :meth:`_BatchedPlan._constant_hops`, same hop expressions."""
        blocks: List[np.ndarray] = []
        current = self.features
        for _ in range(k):
            current = self._spmm(current)
            if keep_all:
                blocks.append(current)
        if not keep_all:
            blocks.append(current)
        return blocks

    def _sliced_linear(self, block: np.ndarray, weights: List[np.ndarray],
                       biases: List[np.ndarray]) -> np.ndarray:
        """``x @ W_i + b_i`` per client slice (bit-stable vs serial GEMMs)."""
        out = np.zeros((len(self.clients), self.n_max, weights[0].shape[1]))
        for index, n in enumerate(self.sizes):
            out[index, :n] = block[index, :n] @ weights[index] + biases[index]
        return out

    def _logits(self, states: Sequence[StateDict]) -> np.ndarray:
        raise NotImplementedError

    def refresh(self, states: Sequence[StateDict]) -> None:
        """Fill every client's probability cache from its broadcast state."""
        # Padded rows get softmaxed too but are sliced away below.
        probs = _softmax_rows(self._logits(states))
        for index, client in enumerate(self.clients):
            client._prob_cache = (client._weights_version,
                                  probs[index, :self.sizes[index]])

    def _mlp_logits(self, block: np.ndarray, states: Sequence[StateDict],
                    layer_names: Sequence[str], prefix: str = "") -> np.ndarray:
        """The serial eval-mode MLP (relu between layers, dropout inert)."""
        hidden = block
        last = len(layer_names) - 1
        for layer, name in enumerate(layer_names):
            hidden = self._sliced_linear(
                hidden,
                [state[f"{prefix}{name}.weight"] for state in states],
                [state[f"{prefix}{name}.bias"] for state in states])
            if layer != last:
                hidden = hidden * (hidden > 0)   # F.relu's expression
        return hidden


class _GCNEvalPlan(_FusedEvalPlan):
    """GCN eval: fused propagation + per-client GEMM slices per layer."""

    def __init__(self, clients):
        super().__init__(clients)
        self.layer_names = list(clients[0].model._layer_names)
        self.first_hop = self._constant_blocks(1, keep_all=False)[0]

    def _logits(self, states):
        hidden = None
        last = len(self.layer_names) - 1
        for layer, name in enumerate(self.layer_names):
            hidden = self._sliced_linear(
                self._spmm(hidden) if layer else self.first_hop,
                [state[f"{name}.weight"] for state in states],
                [state[f"{name}.bias"] for state in states])
            if layer != last:
                hidden = hidden * (hidden > 0)
        return hidden


class _SGCEvalPlan(_FusedEvalPlan):
    """SGC eval: the constant k-hop block + one per-client linear slice."""

    def __init__(self, clients):
        super().__init__(clients)
        self.k = clients[0].model.k
        self.propagated = self._constant_blocks(self.k, keep_all=False)[0]

    @staticmethod
    def signature(model):
        return (model.k,)

    def _logits(self, states):
        return self._sliced_linear(
            self.propagated,
            [state["linear.weight"] for state in states],
            [state["linear.bias"] for state in states])


class _GAMLPEvalPlan(_FusedEvalPlan):
    """GAMLP eval: constant hop stack, per-client gates, MLP slices."""

    def __init__(self, clients):
        super().__init__(clients)
        model = clients[0].model
        self.k = model.k
        self.layer_names = list(model.classifier._layer_names)
        self.hops = [self.features] + self._constant_blocks(self.k,
                                                            keep_all=True)

    @staticmethod
    def signature(model):
        return (model.k,)

    def _logits(self, states):
        # Row-wise softmax — each row matches the serial hop-gate softmax.
        gates = _softmax_rows(
            np.stack([state["hop_logits"] for state in states]))
        combined = None
        for index, hop in enumerate(self.hops):
            weighted = hop * gates[:, index][:, None, None]
            combined = weighted if combined is None else combined + weighted
        return self._mlp_logits(combined, states, self.layer_names,
                                prefix="classifier.")


class _GPRGNNEvalPlan(_FusedEvalPlan):
    """GPR-GNN eval: MLP slices, fused hops, per-client γ combination."""

    def __init__(self, clients):
        super().__init__(clients)
        model = clients[0].model
        self.k = model.k
        self.layer_names = list(model.transform._layer_names)

    @staticmethod
    def signature(model):
        return (model.k,)

    def _logits(self, states):
        hidden = self._mlp_logits(self.features, states, self.layer_names,
                                  prefix="transform.")
        gamma = np.stack([state["gamma"] for state in states])
        out = hidden * gamma[:, 0][:, None, None]
        current = hidden
        for step in range(1, self.k + 1):
            current = self._spmm(current)
            out = out + current * gamma[:, step][:, None, None]
        return out


#: model type → fused eval-plan family.
EVAL_FAMILIES: List[Tuple[type, Type[_FusedEvalPlan]]] = [
    (GCN, _GCNEvalPlan),
    (SGC, _SGCEvalPlan),
    (GAMLP, _GAMLPEvalPlan),
    (GPRGNN, _GPRGNNEvalPlan),
]


def build_eval_plan(clients) -> Optional[_FusedEvalPlan]:
    """Fused evaluation plan for a homogeneous client set (or ``None``).

    Unlike training fusion this needs neither a common optimizer nor the
    absence of ``extra_loss`` hooks — evaluation is a pure forward — only a
    shared model family with identical parameter shapes and propagation
    depth.  Callers fall back to per-client evaluation on ``None``.
    """
    if len(clients) < 2:
        return None
    reference = clients[0]
    plan_cls = None
    for model_type, candidate in EVAL_FAMILIES:
        if type(reference.model) is model_type:
            plan_cls = candidate
            break
    if plan_cls is None:
        family = type(reference.model).__name__
        if family not in _WARNED_EVAL_FAMILIES:
            _WARNED_EVAL_FAMILIES.add(family)
            logger.warning(
                "no fused eval plan for model family %s: evaluation and "
                "serving fall back to one serial forward per client "
                "(fused families: %s)", family,
                ", ".join(model.__name__ for model, _ in EVAL_FAMILIES))
        return None
    shapes = {name: p.shape
              for name, p in reference.model.named_parameters()}
    signature = plan_cls.signature(reference.model)
    for client in clients[1:]:
        if type(client.model) is not type(reference.model):
            return None
        if {name: p.shape
                for name, p in client.model.named_parameters()} != shapes:
            return None
        if plan_cls.signature(client.model) != signature:
            return None
    try:
        return plan_cls(clients)
    except Exception:   # unexpected graph/feature shapes: fall back
        return None


class BatchedBackend(ExecutionBackend):
    """Vectorises homogeneous-architecture clients into one batched graph."""

    name = "batched"

    #: bounded cache of plans keyed by the participant-id tuple
    _MAX_PLANS = 8

    def __init__(self, num_workers: Optional[int] = None, **_unused):
        del num_workers  # signature parity with the other backends
        #: participant-id tuple → built plan, or the construction-failure
        #: reason (a str) so a doomed group is not rebuilt every round
        self._plans: Dict[Tuple[int, ...], Union[_BatchedPlan, str]] = {}
        self.last_fallback: Optional[str] = None
        #: key of the plan currently holding resident stacked state (at
        #: most one — hot plans own their clients' authoritative weights,
        #: so two hot plans sharing a client would desynchronise)
        self._hot_key: Optional[Tuple[int, ...]] = None
        #: replayed by whichever plan runs — one epoch's temporaries for the
        #: whole backend, so the cached plans hold none; a plan of other
        #: shapes re-allocates the slots that differ in its first epoch
        self._workspace = Workspace()

    def _serial(self, participants) -> List[float]:
        return [client.local_train() for client in participants]

    # ------------------------------------------------------------------
    # Resident rounds (persistent-pool workers)
    # ------------------------------------------------------------------
    def flush_hot(self) -> None:
        """Write any resident stacked state back into its clients."""
        if self._hot_key is not None:
            plan = self._plans.get(self._hot_key)
            if isinstance(plan, _BatchedPlan):
                plan.flush()
            self._hot_key = None

    def try_resident_round(self, participants, states: Dict[int, Dict]
                           ) -> Optional[Tuple[List[float], _BatchedPlan]]:
        """Train a shard on resident stacked state; None = caller fallback.

        ``states`` maps every participant's ``client_id`` to the broadcast
        state it should train from this round.  On the fast path the states
        are written straight into the plan's hot stacked tensors — the
        client objects are neither read nor written, skipping the
        per-round stack/write-back cycle entirely — and the caller reads
        the trained parameters back as views via
        :meth:`_BatchedPlan.client_state`.  Broadcast states are grouped by
        object identity, so a uniform FedAvg broadcast is one vectorised
        write per parameter and per-cluster personalized broadcasts
        (GCFL+/FED-PUB groups) take one write per group.  Returning
        ``None`` guarantees the clients are coherent again (any overlapping
        hot plan has been flushed), so the caller's classic ``set_weights``
        + train path is safe.
        """
        key = tuple(client.client_id for client in participants)
        if self._hot_key is not None and self._hot_key != key:
            self.flush_hot()
        if len(participants) < 2 or not all(
                _batchable(client) is None for client in participants) \
                or not _homogeneous(participants):
            self.flush_hot()
            return None
        plan = self._plans.get(key)
        if isinstance(plan, str):
            self.flush_hot()
            return None
        if plan is None:
            if len(self._plans) >= self._MAX_PLANS:
                self.flush_hot()
                self._plans.clear()
            try:
                plan = _plan_family(participants[0])(participants)
            except ValueError as error:
                self._plans[key] = str(error)
                self.flush_hot()
                return None
            self._plans[key] = plan
        plan.ensure_hot()
        self._hot_key = key
        groups = group_states_by_identity(
            [states[client.client_id] for client in participants])
        if len(groups) == 1:
            plan.load_shared_state(groups[0][0])  # uniform: B× cheaper
        else:
            for state, indices in groups:
                if len(indices) == 1:
                    plan.load_client_state(indices[0], state)
                else:
                    plan.load_group_state(indices, state)
        losses = plan.run_round(self._workspace, keep_hot=True)
        return losses, plan

    def run_local_training(self, participants):
        # Classic rounds read and write the client objects directly, so any
        # resident stacked state must land back in them first.
        self.flush_hot()
        if len(participants) < 2:
            self.last_fallback = "fewer than two participants"
            return self._serial(participants)
        for client in participants:
            reason = _batchable(client)
            if reason is not None:
                self.last_fallback = reason
                return self._serial(participants)
        if not _homogeneous(participants):
            self.last_fallback = "participants are not architecture-homogeneous"
            return self._serial(participants)
        self.last_fallback = None
        key = tuple(client.client_id for client in participants)
        plan = self._plans.get(key)
        if isinstance(plan, str):
            # Construction already failed for this group (e.g. a client
            # without labelled train nodes) — that cannot change within a
            # run, so skip straight to serial training.
            self.last_fallback = plan
            return self._serial(participants)
        if plan is None:
            if len(self._plans) >= self._MAX_PLANS:
                self._plans.clear()
            try:
                plan = _plan_family(participants[0])(participants)
            except ValueError as error:
                self.last_fallback = str(error)
                self._plans[key] = str(error)
                return self._serial(participants)
            self._plans[key] = plan
        return plan.run_round(self._workspace)

    def close(self):
        self.flush_hot()
        self._plans.clear()
        self._workspace = Workspace()


register_backend(BatchedBackend.name, BatchedBackend)
