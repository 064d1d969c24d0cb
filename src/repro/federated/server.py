"""Server-side model aggregation (Eq. 4 of the paper).

The weighted sum at the heart of FedAvg is computed through
:class:`DeterministicSum`, an order-independent fixed-point accumulator.
Each product ``w_i * state_i`` is snapped onto a 2**-84 grid and carried as
two ``int64`` limbs; integer addition is associative and commutative, so the
aggregate is bitwise identical no matter how the contributions are grouped
or ordered — a flat coordinator fold, a streaming out-of-order fold, and a
two-tier hierarchy of per-worker partial folds all produce the same bits.
That property is what lets edge aggregators pre-fold their shards and ship
one partial per round (see :mod:`repro.federated.engine.pipeline`).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

#: hi limb unit is 2**-_HI_BITS model-weight units.
_HI_BITS = 32
#: lo limb unit is 2**-_LO_BITS; the residual snap error per fold is below
#: 2**-85, orders of magnitude under float64 round-off for typical weights.
_LO_BITS = 84
#: 2**_CARRY lo units equal one hi unit.
_CARRY = _LO_BITS - _HI_BITS

_HI_SCALE = float(2.0 ** _HI_BITS)
_HI_INV = float(2.0 ** -_HI_BITS)
_CARRY_SCALE = float(2.0 ** _CARRY)
_LO_INV = float(2.0 ** -_LO_BITS)
#: folds between carries: 512 * 2**51 on top of a settled 2**52 is < 2**61
_SETTLE_EVERY = 512


class DeterministicSum:
    """Order-independent weighted sum of state dicts.

    Folding ``(state, weight)`` pairs in any order — or merging partial
    accumulators built elsewhere — yields bitwise-identical results, because
    every product is converted once to fixed point (two int64 limbs per
    entry) and only integers are accumulated.  Magnitudes up to ``~2**20``
    per entry and tens of thousands of contributions fit with ample headroom;
    model weights and optimizer-scaled updates are far below that.
    """

    def __init__(self):
        #: key → that entry's view into the flat hi / lo limb
        self._hi: Optional[Dict[str, np.ndarray]] = None
        self._lo: Optional[Dict[str, np.ndarray]] = None
        #: key → that entry's view into the flat ``weight * state`` array
        self._v: Dict[str, np.ndarray] = {}
        #: the flat arrays themselves: hi limb, lo limb, two float64 work
        #: arrays and an int64 one — all entries laid end to end, so a fold
        #: is a handful of whole-model passes and allocates nothing
        self._flat: Tuple[np.ndarray, ...] = ()
        #: folds since the lo limbs were last brought back into range
        self._loose = 0

    @property
    def empty(self) -> bool:
        return self._hi is None

    def _allocate(self, shapes: Dict[str, tuple]) -> None:
        bounds = np.cumsum([0] + [int(np.prod(shape, dtype=np.int64))
                                  for shape in shapes.values()])
        total = int(bounds[-1])
        self._flat = (np.zeros(total, dtype=np.int64),
                      np.zeros(total, dtype=np.int64), np.empty(total),
                      np.empty(total), np.empty(total, dtype=np.int64))
        self._hi, self._lo, self._v = (
            {key: flat[bounds[index]:bounds[index + 1]].reshape(shape)
             for index, (key, shape) in enumerate(shapes.items())}
            for flat in self._flat[:3])

    def _settle(self) -> None:
        """Bring every lo limb back into ``[0, 2**_CARRY)``.

        A fold adds less than ``2**(_CARRY - 1)`` in magnitude to a lo
        entry, so :data:`_SETTLE_EVERY` folds on top of a settled limb stay
        far inside int64; the carry is taken before anything reads the
        limbs and at the latest then.  The settled form is unique, so when
        the carries are taken does not show in the result.  The arithmetic
        right shift floors for negatives too.
        """
        if self._loose:
            hi, lo = self._flat[:2]
            carry = lo >> _CARRY
            lo -= carry << _CARRY
            hi += carry
            self._loose = 0

    def fold(self, state: Dict[str, np.ndarray], weight: float) -> None:
        """Accumulate ``weight * state`` (grid-snapped, order-independent).

        Per element: ``v = weight * x``, ``hi = rint(v * 2**32)``,
        ``lo = rint((v - hi * 2**-32) * 2**84)`` — computed in place in the
        work arrays as ``a = v * 2**32``, ``hi = rint(a)``,
        ``lo = rint((a - hi) * 2**52)``.  Scaling by a power of two is
        exact and ``a - rint(a)`` is exactly representable (as is the
        ``v - hi * 2**-32`` it stands for, Sterbenz), so both forms hold
        the same bits at every step that rounds.
        """
        if self._hi is None:
            self._allocate({key: np.shape(value)
                            for key, value in state.items()})
        elif len(state) != len(self._v):
            raise KeyError("state dicts have mismatching parameter names")
        for key, value in state.items():
            np.multiply(np.asarray(value, dtype=np.float64), weight,
                        out=self._v[key])
        hi_limb, lo_limb, scaled, snapped, limb = self._flat
        np.multiply(scaled, _HI_SCALE, out=scaled)
        np.rint(scaled, out=snapped)
        np.copyto(limb, snapped, casting="unsafe")
        hi_limb += limb
        np.subtract(scaled, snapped, out=scaled)
        np.multiply(scaled, _CARRY_SCALE, out=scaled)
        np.rint(scaled, out=scaled)
        np.copyto(limb, scaled, casting="unsafe")
        lo_limb += limb
        self._loose += 1
        if self._loose >= _SETTLE_EVERY:
            self._settle()

    def partial(self) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Export the raw limbs (for shipping a pre-aggregated shard up)."""
        if self._hi is None:
            raise RuntimeError("cannot export an empty DeterministicSum")
        self._settle()
        return {key: (self._hi[key].copy(), self._lo[key].copy())
                for key in self._hi}

    def merge(self, partial: Dict[str, Tuple[np.ndarray, np.ndarray]]) -> None:
        """Fold another accumulator's :meth:`partial` into this one."""
        if self._hi is None:
            self._allocate({key: np.shape(hi)
                            for key, (hi, _) in partial.items()})
        elif set(partial) != set(self._hi):
            raise KeyError("partial sums have mismatching parameter names")
        self._settle()
        for key, (hi, lo) in partial.items():
            self._hi[key] += np.asarray(hi, dtype=np.int64)
            self._lo[key] += np.asarray(lo, dtype=np.int64)
        self._loose = 1     # two settled limbs added: one carry at most
        self._settle()

    def value(self) -> Dict[str, np.ndarray]:
        """Convert back to float64 (one deterministic rounding per entry)."""
        if self._hi is None:
            raise RuntimeError("cannot read an empty DeterministicSum")
        self._settle()
        return {key: self._hi[key].astype(np.float64) * _HI_INV
                + self._lo[key].astype(np.float64) * _LO_INV
                for key in self._hi}


def fedavg_aggregate(states: Sequence[Dict[str, np.ndarray]],
                     weights: Optional[Sequence[float]] = None
                     ) -> Dict[str, np.ndarray]:
    """Weighted average of client state dicts (FedAvg, Eq. 4).

    ``weights`` default to uniform; they are normalised internally.  The sum
    runs through :class:`DeterministicSum`, so any regrouping of the same
    contributions (streaming folds, hierarchical partials) is bitwise equal.
    """
    if not states:
        raise ValueError("fedavg_aggregate needs at least one state dict")
    if weights is None:
        weights = [1.0] * len(states)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape[0] != len(states):
        raise ValueError("weights and states must have the same length")
    if weights.sum() <= 0:
        raise ValueError("aggregation weights must sum to a positive value")
    weights = weights / weights.sum()

    keys = set(states[0])
    for state in states[1:]:
        if set(state) != keys:
            raise KeyError("client state dicts have mismatching parameter names")

    acc = DeterministicSum()
    for weight, state in zip(weights, states):
        acc.fold(state, float(weight))
    return acc.value()


class Server:
    """Central coordinator holding the current global model state.

    How states are *combined* is decided by an
    :class:`~repro.federated.engine.AggregationStrategy`; the server itself
    only stores the result (:meth:`commit`).  :meth:`aggregate` remains as
    the FedAvg convenience used by standalone code and tests.
    """

    def __init__(self):
        self.global_state: Optional[Dict[str, np.ndarray]] = None
        self.round = 0

    def commit(self, state: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
        """Store an already-aggregated global state and advance the round."""
        self.global_state = state
        self.round += 1
        return self.global_state

    def aggregate(self, states: List[Dict[str, np.ndarray]],
                  weights: Optional[List[float]] = None) -> Dict[str, np.ndarray]:
        """FedAvg-aggregate uploaded client states into a new global state."""
        return self.commit(fedavg_aggregate(states, weights))

    def broadcast(self) -> Dict[str, np.ndarray]:
        """Return a copy of the global state to send to a client."""
        if self.global_state is None:
            raise RuntimeError("no global model has been aggregated yet")
        return {key: value.copy() for key, value in self.global_state.items()}
