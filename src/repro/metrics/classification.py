"""Node-classification metrics."""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np


def accuracy(predictions: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of correct predictions.

    ``predictions`` may be class ids ``(n,)`` or probability/logit rows
    ``(n, c)`` in which case the argmax is taken.
    """
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.ndim == 2:
        predictions = predictions.argmax(axis=1)
    if predictions.shape[0] != labels.shape[0]:
        raise ValueError("predictions and labels have different lengths")
    if labels.size == 0:
        return 0.0
    return float(np.mean(predictions == labels))


def masked_accuracy(predictions: np.ndarray, labels: np.ndarray,
                    mask: np.ndarray) -> float:
    """Accuracy restricted to ``mask`` (boolean or index array)."""
    mask = np.asarray(mask)
    if mask.dtype == bool:
        idx = np.nonzero(mask)[0]
    else:
        idx = mask
    if idx.size == 0:
        return 0.0
    predictions = np.asarray(predictions)
    if predictions.ndim == 2:
        predictions = predictions.argmax(axis=1)
    return accuracy(predictions[idx], np.asarray(labels)[idx])


def count_weighted_mean(pairs: Iterable[Tuple[float, int]]) -> float:
    """``Σ value·count / Σ count`` over ``(value, count)`` pairs, in order.

    The accuracy-over-clients reduction every trainer reports: pairs are
    accumulated in the order given (that float addition order is a parity
    contract between the trainers), zero counts are skipped, and no pairs —
    or only empty ones — give ``0.0``.
    """
    total, weight = 0.0, 0
    for value, count in pairs:
        if count:
            total += value * count
            weight += count
    return total / weight if weight else 0.0


def macro_f1(predictions: np.ndarray, labels: np.ndarray,
             num_classes: Optional[int] = None) -> float:
    """Unweighted mean of per-class F1 scores."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.ndim == 2:
        predictions = predictions.argmax(axis=1)
    if num_classes is None:
        num_classes = int(max(labels.max(initial=0), predictions.max(initial=0))) + 1
    scores = []
    for c in range(num_classes):
        tp = np.sum((predictions == c) & (labels == c))
        fp = np.sum((predictions == c) & (labels != c))
        fn = np.sum((predictions != c) & (labels == c))
        if tp + fp + fn == 0:
            continue
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall == 0:
            scores.append(0.0)
        else:
            scores.append(2 * precision * recall / (precision + recall))
    return float(np.mean(scores)) if scores else 0.0
