"""Unified experiment runner over every federated method (baselines + AdaFGL).

The evaluation scale is controlled by :class:`ExperimentSettings`; the
defaults read the environment variables ``REPRO_ROUNDS`` / ``REPRO_EPOCHS`` /
``REPRO_CLIENTS`` so that the benchmark harness can be made faster or slower
without touching code.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Sequence

from repro.core import AdaFGL, AdaFGLConfig
from repro.datasets import load_dataset
from repro.federated.engine.config import env_default, project
from repro.fgl import build_baseline, list_baselines
from repro.graph import Graph
from repro.metrics import TrainingHistory
from repro.simulation import community_split, structure_noniid_split


def _env_knob_defaults(cls):
    """``REPRO_*`` variables replace the defaults of the fields declaring one.

    Every field of the chain is declared once, in the class that owns it,
    with the variable as ``env`` metadata, so the default cannot be
    re-declared here with an environment-reading factory; a value the caller
    passes always wins, and a variable that does not parse is ignored.
    """
    init = cls.__init__

    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        for knob in fields(cls):
            env = knob.metadata.get("env")
            if env and env in os.environ and knob.name not in kwargs:
                value = os.environ[env]
                if isinstance(knob.default, int):
                    try:
                        value = int(value)
                    except ValueError:
                        continue
                kwargs[knob.name] = value
        init(self, *args, **kwargs)

    cls.__init__ = __init__
    return cls


@_env_knob_defaults
@dataclass
class ExperimentSettings(AdaFGLConfig):
    """The scale every experiment runs at: one config for every method.

    Everything is inherited — :meth:`federated_config` (the FGL baselines)
    and :meth:`adafgl_config` are projections of this object — except the
    client count, three defaults the paper-table runs use instead of the
    library's, and the defaults ``REPRO_ROUNDS`` / ``REPRO_EPOCHS`` /
    ``REPRO_CLIENTS`` / ``REPRO_PERSONALIZED_EPOCHS`` / ``REPRO_WORKERS`` /
    ``REPRO_TRANSPORT`` replace.
    """

    num_clients: int = env_default(5, "REPRO_CLIENTS")
    hidden: int = 32
    personalized_epochs: int = env_default(60, "REPRO_PERSONALIZED_EPOCHS")
    # ``sparse_propagation=True`` is the experiment-runner default since
    # the dense-vs-sparse parity gate landed (``top_k=None`` sparse is
    # numerically identical to dense; the default top-k is an accuracy-
    # preserving approximation tracked by benchmarks/bench_perf.py).
    sparse_propagation: bool = True

    def adafgl_config(self, **overrides) -> AdaFGLConfig:
        return replace(project(AdaFGLConfig, self), **overrides)


def prepare_clients(dataset: str, split: str, settings: ExperimentSettings,
                    injection: str = "random",
                    graph: Optional[Graph] = None) -> List[Graph]:
    """Load a dataset and apply the requested data-simulation strategy."""
    if graph is None:
        graph = load_dataset(dataset, seed=settings.seed)
    if split == "community":
        return community_split(graph, settings.num_clients, seed=settings.seed)
    if split in ("structure", "structure-noniid", "noniid"):
        return structure_noniid_split(graph, settings.num_clients,
                                      seed=settings.seed, injection=injection)
    raise ValueError(f"unknown split strategy '{split}'")


def run_method(method: str, clients: Sequence[Graph],
               settings: Optional[ExperimentSettings] = None,
               adafgl_overrides: Optional[Dict] = None) -> Dict:
    """Train one federated method and return its summary dictionary.

    Returns keys: ``method``, ``accuracy`` (weighted test accuracy),
    ``train_accuracy``, ``history`` (:class:`TrainingHistory`),
    ``communication`` (float volume summary) and ``trainer``.
    """
    settings = settings or ExperimentSettings()
    name = method.lower()
    if name == "adafgl":
        config = settings.adafgl_config(**(adafgl_overrides or {}))
        trainer = AdaFGL(list(clients), config)
        history = trainer.run()
    else:
        trainer = build_baseline(name, clients,
                                 config=settings.federated_config(),
                                 hidden=settings.hidden)
        history = trainer.run()
    return {
        "method": method,
        "accuracy": trainer.evaluate("test"),
        "train_accuracy": trainer.evaluate("train"),
        "history": history,
        "communication": trainer.tracker.summary(),
        "trainer": trainer,
    }


def compare_methods(methods: Sequence[str], clients: Sequence[Graph],
                    settings: Optional[ExperimentSettings] = None) -> Dict[str, Dict]:
    """Run several methods on the same client split and collect summaries."""
    settings = settings or ExperimentSettings()
    results = {}
    for method in methods:
        results[method] = run_method(method, clients, settings)
    return results


def available_methods() -> List[str]:
    """Every runnable method name (baselines plus AdaFGL)."""
    return list_baselines() + ["adafgl"]
