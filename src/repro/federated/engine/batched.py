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

**Families × operation sets.**  A model family (:data:`FAMILIES`) is one small
class: where the model's layer stack and per-client vector parameter live,
which blocks are constant for the whole run (``constants``) and — written
**once** — its stacked ``forward``, in terms of eight operations a plan
provides: ``features``, ``hops(k)``, ``propagate(x)``, ``linear(x, name)``,
``activate(x, site)``, ``mlp(x, names)``, ``vector(name)`` / ``softmax(v)``
and ``scale(x, v, column)``.  ``features`` and ``hops`` are read by
``constants`` only: a plan keeps the padded features as far as a constant
holds them.

* **GCN** — constant ``P̃X``, then linear / activate / propagate per layer;
* **SGC** — constant ``P̃ᵏX``: every epoch is one stacked linear layer;
* **GAMLP** — constant hop stack ``[X, P̃X, …, P̃ᵏX]``, softmax hop gates,
  one MLP: no sparse work at all in the epoch loop;
* **GPR-GNN** — MLP transform, then ``k`` differentiable hops combined with
  per-client GPR weights (the hops act on *learned* features, so nothing is
  constant but the operator and the features).

Two plans *are* those operations.  :class:`_BatchedPlan` runs them on stacked
tensors — differentiable, per-client dropout streams drawn in serial order,
gradients clipped per client with the serial global-norm rule — and trains.
:class:`_FusedEvalPlan` (:func:`build_eval_plan`) runs them on plain arrays
with the serial evaluation's expressions: sparse propagation is fused (block
rows are independent) while dense GEMMs run per-client slices, because a
padded batched matmul is not bit-stable against the per-client call.  It
fills every client's prediction cache in one sweep — after uniform *and*
personalized broadcasts — and answers a serving flush of inductive queries.
Both are bitwise-equal to serial execution.

**Resident rounds.**  Handed the states each client trains from (a
persistent-pool worker's shard, or the in-process sync round loop, which
hands over the last broadcast), the plan loads them straight into its
stacks and keeps those stacks — Adam moments included — hot across rounds;
the trained states are read back as views.  The client objects are neither
read nor written until a flush hands the stacked state back.

Adding a family is one class (``constants``, ``forward``) and a
:data:`FAMILIES` entry; training, fused evaluation and serving follow.
Clients no plan can fuse (unsupported models, ``extra_loss`` hooks,
heterogeneous shapes) transparently fall back to serial training; the most
recent reason is kept in :attr:`BatchedBackend.last_fallback`.
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
)
from repro.autograd.backend import cached_transpose, pattern_rows
from repro.autograd.tensor import scratch
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


class _Family:
    """One model family: where its parameters live and its stacked forward.

    ``forward`` is the family's only forward: it is written against the
    operations of a plan (module docstring), and the plan it is handed
    decides whether they run on stacked tensors or on plain arrays.
    """

    model_type: type
    #: attribute of the model holding the layer stack ("" → the model itself)
    stack = ""
    #: the per-client vector parameter (hop gates / GPR weights), if any
    vector: Optional[str] = None

    def __init__(self, model):
        self.k = getattr(model, "k", None)
        layers = self.layer_stack(model)
        prefix = f"{self.stack}." if self.stack else ""
        self.layers = [prefix + name for name in layers._layer_names]
        self.dropout_p = layers.dropout.p

    def layer_stack(self, model):
        return getattr(model, self.stack) if self.stack else model

    def signature(self, training: bool) -> Tuple:
        """Fuse-compatibility key (dropout is inert in eval mode)."""
        return (self.k, self.dropout_p) if training else (self.k,)

    def parameter_specs(self) -> List[Tuple[str, str]]:
        """``(name, stacking role)`` pairs in optimizer order."""
        specs = [(self.vector, VECTOR)] if self.vector else []
        for name in self.layers:
            specs += [(f"{name}.weight", MATRIX), (f"{name}.bias", BIAS)]
        return specs

    def constants(self, ops) -> List:
        """Blocks that depend only on the graphs, built once per plan."""
        return []

    def forward(self, ops, constants: List):
        raise NotImplementedError


class _GCNFamily(_Family):
    """``σ(P̃ · W)`` per layer; the first hop acts on constant features."""

    model_type = GCN

    def constants(self, ops):
        return ops.hops(1)

    def forward(self, ops, constants):
        hidden, = constants
        last = len(self.layers) - 1
        for site, name in enumerate(self.layers):
            if site:
                hidden = ops.propagate(hidden)
            hidden = ops.linear(hidden, name)
            if site != last:
                hidden = ops.activate(hidden, site)
        return hidden


class _SGCFamily(_Family):
    """``linear(P̃ᵏX)``: operator and features are fixed for the whole run,
    so the ``k`` hops leave the epoch loop entirely."""

    model_type = SGC

    def __init__(self, model):
        self.k, self.layers, self.dropout_p = model.k, ["linear"], 0.0

    def constants(self, ops):
        return ops.hops(self.k)[-1:]

    def forward(self, ops, constants):
        return ops.linear(constants[0], "linear")


class _GAMLPFamily(_Family):
    """Softmax hop gates over the constant stack ``[X, P̃X, …, P̃ᵏX]``, then
    an MLP; gradients flow only into the gates and the classifier."""

    model_type, stack, vector = GAMLP, "classifier", "hop_logits"

    def constants(self, ops):
        return [ops.features] + ops.hops(self.k)

    def forward(self, ops, constants):
        # Row-wise softmax over (B, k+1) — each row is the serial
        # ``softmax(hop_logits.reshape(1, -1))`` expression bit for bit.
        gates = ops.softmax(ops.vector(self.vector))
        combined = None
        for column, hop in enumerate(constants):
            weighted = ops.scale(hop, gates, column)
            combined = weighted if combined is None else combined + weighted
        return ops.mlp(combined, self.layers)


class _GPRGNNFamily(_Family):
    """``Σ γ_k P̃ᵏ MLP(X)``: the hops act on the *learned* transform, so they
    stay in the epoch loop — one fused hop each — and only the features
    are constant."""

    model_type, stack, vector = GPRGNN, "transform", "gamma"

    def constants(self, ops):
        return [ops.features]

    def forward(self, ops, constants):
        gamma = ops.vector(self.vector)
        current = ops.mlp(constants[0], self.layers)
        out = ops.scale(current, gamma, 0)
        for step in range(1, self.k + 1):
            current = ops.propagate(current)
            out = out + ops.scale(current, gamma, step)
        return out


#: the fused model families, matched on the exact model type (the
#: extension point: training, fused evaluation and serving all read it).
FAMILIES: List[Type[_Family]] = [
    _GCNFamily, _SGCFamily, _GAMLPFamily, _GPRGNNFamily]


def _family_of(model) -> Optional[Type[_Family]]:
    for family in FAMILIES:
        if type(model) is family.model_type:
            return family
    return None


def _fuse_key(client, training: bool) -> Tuple:
    """Everything one plan assumes its clients share."""
    model = client.model
    key = (type(model),
           {name: p.shape for name, p in model.named_parameters()},
           _family_of(model)(model).signature(training))
    if training:
        opt = client.optimizer
        key += ((opt.lr, opt.weight_decay, opt.beta1, opt.beta2, opt.eps),
                client.local_epochs)
    return key


def _unfusable(clients: Sequence, training: bool) -> Optional[str]:
    """Why these clients cannot share one plan (``None``: they can).

    Evaluation is a pure forward: it needs a shared model family with
    identical parameter shapes and propagation depth.  Training also needs
    one Adam configuration and no ``extra_loss`` hook.
    """
    if len(clients) < 2:
        return "fewer than two participants"
    for client in clients:
        if training and client.extra_loss is not None:
            return "client has a method-specific extra_loss hook"
        if _family_of(client.model) is None:
            return (f"model {type(client.model).__name__} has no batched "
                    f"plan family")
        if training and not isinstance(client.optimizer, Adam):
            return f"optimizer {type(client.optimizer).__name__} is not Adam"
    reference = _fuse_key(clients[0], training)
    if any(_fuse_key(client, training) != reference
           for client in clients[1:]):
        return "participants are not architecture-homogeneous"
    return None


class _Plan:
    """What the two operation sets share: the padded batch, the family, and
    the operations that are compositions of the others.

    ``self._operands`` — the stacked parameter tensors, or the list of
    client states — is set for the duration of one forward only, so a plan
    at rest pins neither.
    """

    def __init__(self, clients: Sequence):
        self.clients = list(clients)
        model = clients[0].model
        self.family = _family_of(model)(model)
        self.sizes, self.n_max, self.features, self.propagation = \
            _padded_batch(clients)
        self._operands = None

    def _build_constants(self) -> None:
        self.constants = self.family.constants(self)
        self.features = None

    def _forward(self, operands):
        self._operands = operands
        try:
            return self.family.forward(self, self.constants)
        finally:
            self._operands = None

    def hops(self, k: int) -> List:
        """``[P̃X, …, P̃ᵏX]``: one fused product per hop over the block-
        diagonal operator.  Block rows are independent, so every client's
        hops are bitwise the per-client ``F.spmm`` chain of the serial
        forward."""
        blocks, current = [], self.features
        for _ in range(k):
            current = self.propagate(current)
            blocks.append(current)
        return blocks

    def mlp(self, x, names: Sequence[str]):
        """The serial :class:`~repro.nn.MLP` forward over stacked operands."""
        last = len(names) - 1
        for site, name in enumerate(names):
            x = self.linear(x, name)
            if site != last:
                x = self.activate(x, site)
        return x


class _BatchedPlan(_Plan):
    """The operations on stacked tensors, and the training round over them.

    Owns the flat supervision indices that fuse every client's
    cross-entropy into one autograd path, the resident dropout masks and
    the stacked-Adam machinery.
    """

    def __init__(self, clients: Sequence):
        super().__init__(clients)
        self.features = Tensor(self.features)
        train_idx = [np.nonzero(client.graph.train_mask)[0]
                     for client in clients]
        # Flat supervision indices so the whole group's loss is one fused
        # autograd path: pick every (client, train-row, label) log-probability
        # at once and weight each entry by the client's 1/|train| (the exact
        # reciprocal the serial per-client ``mean()`` multiplies by, so
        # gradients match serial training bit for bit).
        counts = [idx.size for idx in train_idx]
        if any(count == 0 for count in counts):
            raise ValueError("batched training requires labelled train nodes "
                             "on every client")
        self.flat_batch = np.concatenate(
            [np.full(count, i) for i, count in enumerate(counts)])
        self.flat_rows = np.concatenate(train_idx)
        self.flat_labels = np.concatenate(
            [client.graph.labels[idx]
             for client, idx in zip(clients, train_idx)])
        self.flat_weights = Tensor(
            np.concatenate([np.full(count, 1.0 / count) for count in counts]))
        self.segments = np.concatenate([[0], np.cumsum(counts)])
        # Stable references into every client's parameters; re-read each
        # round, but resolved only once.
        self._client_params = [dict(c.model.named_parameters())
                               for c in clients]
        #: (parameter name, stacking role) in optimizer order, e.g.
        #: [("hop_logits", VECTOR), ("classifier.lin0.weight", MATRIX), ...].
        self.param_specs = self.family.parameter_specs()
        #: dropout site → (mask tensor, keep flags), resident padded buffers
        self._masks: Dict[int, Tuple[Tensor, np.ndarray]] = {}
        with no_grad():
            self._build_constants()

    # -- the operations, on (B, ...) tensors ---------------------------
    def propagate(self, x: Tensor) -> Tensor:
        # Only a hop that is back-propagated through needs the transposed
        # operator; the shared dispatch cache makes it the same object
        # every spmm backward would reuse.
        transposed = cached_transpose(self.propagation) \
            if x.requires_grad else None
        return F.spmm_batched(self.propagation, x, adjacency_t=transposed)

    def linear(self, x: Tensor, name: str) -> Tensor:
        return x.matmul(self._operands[f"{name}.weight"]) \
            + self._operands[f"{name}.bias"]

    def activate(self, x: Tensor, site: int) -> Tensor:
        x = x.relu()
        if self.family.dropout_p > 0.0:
            x = x * self._dropout_mask(site, x.shape[-1])
        return x

    def vector(self, name: str) -> Tensor:
        return self._operands[name]

    @staticmethod
    def softmax(vectors: Tensor) -> Tensor:
        return F.softmax(vectors, axis=-1)

    def scale(self, x: Tensor, vectors: Tensor, column: int) -> Tensor:
        return x * vectors[:, column].reshape(len(self.clients), 1, 1)

    def _dropout_mask(self, site: int, width: int) -> Tensor:
        """One inverted-dropout mask per client, drawn from its own stream.

        Each dropout *site* of the forward owns its padded buffers: a mask
        is read again in the backward, after the later sites drew theirs.
        The draws land where ``random((n, width))`` would put them and turn
        into ``(draw >= p) / (1 - p)`` in place; padded rows stay zero.
        """
        p = self.family.dropout_p
        if site not in self._masks:
            shape = (len(self.clients), self.n_max, width)
            self._masks[site] = (
                Tensor(np.zeros(shape)),
                np.zeros(shape, dtype=bool))
        mask, keep = self._masks[site]
        for index, client in enumerate(self.clients):
            # the stream the serial forward would draw this mask from
            self.family.layer_stack(client.model).dropout._rng.random(
                out=mask.data[index, :self.sizes[index]])
        np.greater_equal(mask.data, p, out=keep)
        np.divide(keep, 1.0 - p, out=mask.data)
        return mask

    # ------------------------------------------------------------------
    # The stacked state.  ``hot`` = (parameter tensors, Adam m, Adam v,
    # step counts), ordered like ``Adam.parameters``.  A round stacks it
    # from the clients, trains it in place and writes it back — unless the
    # caller keeps it hot: a persistent-pool worker trains the same shard
    # every round, and so does the in-process round loop, so the stacks can
    # live on the plan between rounds instead of round-tripping through
    # every client's model and optimizer (B × set_weights + np.stack up,
    # B × write-back down — the dominant non-epoch cost of small-client
    # rounds).  While a plan is hot its clients' own moments are stale;
    # ``flush`` must run before anything else reads them (state fetch,
    # checkpoint, eviction, serial fallback, a different plan over the
    # same clients, the end of a run).
    # ------------------------------------------------------------------
    hot: Optional[Tuple] = None

    def ensure_hot(self) -> None:
        """Stack the clients' current weights/moments, unless already hot
        (then the stacked state is the authoritative one)."""
        if self.hot is not None:
            return
        params, moments_m, moments_v = [], [], []
        for j, (name, role) in enumerate(self.param_specs):
            moments = [c.optimizer.moments(j) for c in self.clients]
            stacks = [np.stack([p[name].data for p in self._client_params]),
                      np.stack([m for m, _v in moments]),
                      np.stack([v for _m, v in moments])]
            if role == BIAS:  # (B, h) → (B, 1, h) for row broadcasting
                stacks = [stack[:, None, :] for stack in stacks]
            params.append(Tensor(stacks[0], requires_grad=True))
            moments_m.append(stacks[1])
            moments_v.append(stacks[2])
        steps = np.array([c.optimizer._step_count for c in self.clients],
                         dtype=np.float64)
        self.hot = (params, moments_m, moments_v, steps)

    def _slices(self, where):
        """``(name, hot stack[where])`` pairs — ``where`` is a client index,
        a sequence of them or ``slice(None)``; biases sit at ``[where, 0]``.
        """
        for param, (name, role) in zip(self.hot[0], self.param_specs):
            yield name, param.data, (where, 0) if role == BIAS else where

    def load_state(self, where, state: StateDict) -> None:
        """Broadcast one parameter dict into the hot stack slices ``where``:
        one vectorised assign per parameter, however many clients."""
        for name, stack, index in self._slices(where):
            stack[index] = state[name]

    def read_state(self, where=slice(None)) -> StateDict:
        """The hot parameters at ``where``, keyed by name — views into the
        stacks for an index or a slice, so they follow the training."""
        return {name: stack[index]
                for name, stack, index in self._slices(where)}

    def flush(self, weights: bool = True) -> None:
        """Write the hot stacked state back into the clients and go cold.

        ``weights=False`` writes back only the optimizer moments and step
        counts: for clients whose weights the caller has since overwritten
        (an in-process round loop broadcasts into them).
        """
        if self.hot is None:
            return
        _params, moments_m, moments_v, steps = self.hot
        for index, client in enumerate(self.clients):
            if weights:
                client.set_weights(self.read_state(index))
            opt = client.optimizer
            opt._step_count = int(steps[index])
            for j, (m, v) in enumerate(zip(moments_m, moments_v)):
                target_shape = opt.parameters[j].data.shape
                opt._m[j] = m[index].reshape(target_shape).copy()
                opt._v[j] = v[index].reshape(target_shape).copy()
        self.hot = None

    # ------------------------------------------------------------------
    def run_round(self, workspace: Workspace, max_grad_norm: float = 5.0,
                  keep_hot: bool = False) -> List[float]:
        """All participants' local epochs as one batched graph per epoch.

        Every epoch replays ``workspace``: its stack-sized temporaries land
        in the arrays the previous epoch used, and the stacks themselves
        (parameters, Adam moments) are updated in place — views handed out
        by :meth:`read_state` follow the training.
        """
        for client in self.clients:
            client.model.train()
        self.ensure_hot()
        losses: List[List[float]] = [[] for _ in self.clients]
        try:
            for _ in range(self.clients[0].local_epochs):
                with workspace:
                    self._epoch(workspace, *self.hot, losses, max_grad_norm)
        finally:
            if not keep_hot:
                self.flush()
        return [float(np.mean(per_round)) for per_round in losses]

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
        logits = self._forward({name: param for param, (name, _role)
                                in zip(stacked, self.param_specs)})
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


class _FusedEvalPlan(_Plan):
    """The operations on plain arrays: one fused no-grad forward for all.

    Every operation is the exact expression the per-client eval forward
    uses, so the probabilities — and every recorded accuracy — are
    bitwise-identical to serial evaluation.  The sparse propagation is
    fused (block rows are independent) while ``linear`` runs one GEMM per
    client on its ``[:n]`` slice: a single padded batched matmul is *not*
    bit-stable against the per-client call because BLAS kernel blocking
    depends on the row count.

    The forwards take one state dict per client (in client order), so
    uniform FedAvg broadcasts and personalized per-cluster broadcasts ride
    the same sweep.  From its second sweep on, a plan replays a
    :class:`Workspace`: the blocks ``linear``, ``activate`` and
    ``propagate`` produce land in the previous sweep's arrays
    (``activate`` overwrites its input, which no family reads again), so a
    steady-state sweep allocates none of them.  A plan swept once — a
    serving flush, a snapshot — allocates as it goes and keeps nothing.
    """

    def __init__(self, clients):
        super().__init__(clients)
        self._backend = resolve_backend(None)
        self._propagation_csr = self.propagation.tocsr()
        #: created by the first sweep, replayed by every later one
        self._workspace: Optional[Workspace] = None
        self._build_constants()

    # -- the operations, on (B, n_max, ...) arrays ---------------------
    # ``scratch`` hands out the replayed workspace's next buffer, and None
    # outside a replayed sweep (the constants, a first sweep): allocate.
    def propagate(self, block: np.ndarray) -> np.ndarray:
        batch, n_max, width = block.shape
        flat = block.reshape(batch * n_max, width)
        return self._backend.spmm(self._propagation_csr, flat,
                                  out=scratch(flat.shape)
                                  ).reshape(batch, n_max, width)

    def linear(self, block: np.ndarray, name: str) -> np.ndarray:
        weight, bias = f"{name}.weight", f"{name}.bias"
        states = self._operands
        shape = (len(states), self.n_max, states[0][weight].shape[1])
        out = scratch(shape)
        if out is None:
            out = np.zeros(shape)
        for index, n in enumerate(self.sizes):
            # ``block[:n] @ W + b``, the serial expression, into the block
            rows = out[index, :n]
            np.matmul(block[index, :n], states[index][weight], out=rows)
            rows += states[index][bias]
            out[index, n:] = 0.0
        return out

    def activate(self, block: np.ndarray, site: int) -> np.ndarray:
        # ``block * (block > 0)``, F.relu's expression; dropout is inert
        positive = np.greater(block, 0, out=scratch(block.shape, np.bool_))
        return np.multiply(block, positive, out=block)

    def vector(self, name: str) -> np.ndarray:
        return np.stack([state[name] for state in self._operands])

    softmax = staticmethod(_softmax_rows)

    @staticmethod
    def scale(block: np.ndarray, vectors: np.ndarray, column: int
              ) -> np.ndarray:
        return block * vectors[:, column][:, None, None]

    # ------------------------------------------------------------------
    def probabilities(self, states: Sequence[StateDict]) -> np.ndarray:
        """``(B, n_max, classes)`` class probabilities, client ``i`` under
        ``states[i]``; rows past a client's size are padding."""
        workspace = self._workspace
        if workspace is None:
            self._workspace = Workspace()
            return _softmax_rows(self._forward(states))
        with workspace:
            return _softmax_rows(self._forward(states))

    def refresh(self, states: Sequence[StateDict]) -> None:
        """Fill every client's probability cache from its broadcast state."""
        probs = self.probabilities(states)
        for index, client in enumerate(self.clients):
            client._prob_cache = (client._weights_version,
                                  probs[index, :self.sizes[index]])


def build_eval_plan(clients) -> Optional[_FusedEvalPlan]:
    """Fused evaluation plan for a homogeneous client set (or ``None``).

    Callers fall back to per-client evaluation on ``None``.
    """
    if len(clients) >= 2 and _family_of(clients[0].model) is None:
        family = type(clients[0].model).__name__
        if family not in _WARNED_EVAL_FAMILIES:
            _WARNED_EVAL_FAMILIES.add(family)
            logger.warning(
                "no fused eval plan for model family %s: evaluation and "
                "serving fall back to one serial forward per client "
                "(fused families: %s)", family,
                ", ".join(f.model_type.__name__ for f in FAMILIES))
    if _unfusable(clients, training=False) is not None:
        return None
    try:
        return _FusedEvalPlan(clients)
    except ValueError:   # ragged feature widths: fall back
        return None


class BatchedBackend(ExecutionBackend):
    """Vectorises homogeneous-architecture clients into one batched graph."""

    name = "batched"

    #: an in-process round handed the broadcast trains on resident stacks
    takes_broadcast = True

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
        #: whether flushing the hot plan writes its weights back too (see
        #: :meth:`try_resident_round`)
        self._flush_weights = True
        #: replayed by whichever plan runs — one epoch's temporaries for the
        #: whole backend, so the cached plans hold none; a plan of other
        #: shapes re-allocates the slots that differ in its first epoch
        self._workspace = Workspace()

    def _plan_for(self, participants) -> Union[_BatchedPlan, str]:
        """The (cached) plan fusing ``participants``, or why there is none.

        A construction failure (e.g. a client without labelled train nodes)
        cannot change within a run, so its reason is cached like a plan.
        """
        reason = _unfusable(participants, training=True)
        if reason is not None:
            return reason
        key = tuple(client.client_id for client in participants)
        plan = self._plans.get(key)
        if plan is None:
            if len(self._plans) >= self._MAX_PLANS:
                self.flush_hot()
                self._plans.clear()
            try:
                plan = _BatchedPlan(participants)
            except ValueError as error:
                plan = str(error)
            self._plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    # Resident rounds (persistent-pool workers and in-process rounds)
    # ------------------------------------------------------------------
    def flush_hot(self) -> None:
        """Write any resident stacked state back into its clients."""
        if self._hot_key is not None:
            plan = self._plans.get(self._hot_key)
            if isinstance(plan, _BatchedPlan):
                plan.flush(weights=self._flush_weights)
            self._hot_key = None

    def try_resident_round(self, participants, states: Dict[int, Dict],
                           flush_weights: bool = True
                           ) -> Optional[Tuple[List[float], _BatchedPlan]]:
        """Train a shard on resident stacked state; None = caller fallback.

        ``states`` maps every participant's ``client_id`` to the broadcast
        state it should train from this round.  On the fast path the states
        are written straight into the plan's hot stacked tensors — the
        client objects are neither read nor written, skipping the
        per-round stack/write-back cycle entirely — and the caller reads
        the trained parameters back as views via
        :meth:`_BatchedPlan.read_state`.  Broadcast states are grouped by
        object identity, so a uniform FedAvg broadcast is one vectorised
        write per parameter and per-cluster personalized broadcasts
        (GCFL+/FED-PUB groups) take one write per group.  Returning
        ``None`` guarantees the clients are coherent again (any overlapping
        hot plan has been flushed), so the caller's classic ``set_weights``
        + train path is safe; the reason is left in :attr:`last_fallback`.

        ``flush_weights=False`` makes the eventual flush of this resident
        state write back only the optimizer moments and step counts: an
        in-process round loop broadcasts into the clients after every
        round, and the trained weights must not overwrite that broadcast.
        """
        key = tuple(client.client_id for client in participants)
        if self._hot_key != key:
            self.flush_hot()
        plan = self._plan_for(participants)
        if isinstance(plan, str):
            self.flush_hot()
            self.last_fallback = plan
            return None
        self.last_fallback = None
        plan.ensure_hot()
        self._hot_key = key
        self._flush_weights = flush_weights
        groups = group_states_by_identity(
            [states[client.client_id] for client in participants])
        for state, indices in groups:
            plan.load_state(slice(None) if len(groups) == 1 else indices,
                            state)
        return plan.run_round(self._workspace, keep_hot=True), plan

    def run_local_side(self, pending) -> None:
        """Train the round; handed the broadcast (``pending.sent``), on the
        resident stacks, whose trained states become ``pending.states`` —
        views that the next round trains in place."""
        participants = pending.local_side
        losses = self.run_local_training(participants, pending.sent or None)
        plan = self._plans.get(self._hot_key) if pending.sent else None
        for index, client in enumerate(participants):
            pending.losses[client.client_id] = losses[index]
            if plan is not None:
                pending.states[client.client_id] = plan.read_state(index)

    def run_local_training(self, participants, states=None):
        """Train ``participants``; returns their mean losses.

        ``states`` (client id → the broadcast state each trains from, which
        its mirror also holds) trains on resident stacks that stay hot
        across rounds (:meth:`try_resident_round`); without it, or when no
        plan fuses the participants, a classic round reads and writes the
        client objects.
        """
        if states is not None:
            resident = self.try_resident_round(participants, states,
                                               flush_weights=False)
            if resident is not None:
                return resident[0]
        # Classic rounds read and write the client objects directly, so any
        # resident stacked state must land back in them first.
        self.flush_hot()
        plan = self._plan_for(participants)
        if isinstance(plan, str):
            self.last_fallback = plan
            return [client.local_train() for client in participants]
        self.last_fallback = None
        return plan.run_round(self._workspace)

    # A checkpoint and the end of a run read the clients' optimizer state.
    sync_for_checkpoint = end_run = flush_hot

    def close(self):
        self.flush_hot()
        self._plans.clear()
        self._workspace = Workspace()


register_backend(BatchedBackend.name, BatchedBackend)
