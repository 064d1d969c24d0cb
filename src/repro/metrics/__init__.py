"""Evaluation metrics and training-history tracking."""

from repro.metrics.classification import (
    accuracy,
    count_weighted_mean,
    macro_f1,
    masked_accuracy,
)
from repro.metrics.history import TrainingHistory, ClientReport, client_reports
from repro.metrics.distribution import (
    client_label_distribution,
    client_topology_distribution,
)

__all__ = [
    "accuracy",
    "count_weighted_mean",
    "masked_accuracy",
    "macro_f1",
    "TrainingHistory",
    "ClientReport",
    "client_reports",
    "client_label_distribution",
    "client_topology_distribution",
]
