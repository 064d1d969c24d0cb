"""Unified experiment runner over every federated method (baselines + AdaFGL).

The evaluation scale is controlled by :class:`ExperimentSettings`; the
defaults read the environment variables ``REPRO_ROUNDS`` / ``REPRO_EPOCHS`` /
``REPRO_CLIENTS`` so that the benchmark harness can be made faster or slower
without touching code.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Sequence

from repro.core import AdaFGL, AdaFGLConfig
from repro.datasets import load_dataset
from repro.federated import FederatedConfig
from repro.federated.engine import EngineConfig, engine_fields
from repro.fgl import build_baseline, list_baselines
from repro.graph import Graph
from repro.metrics import TrainingHistory
from repro.simulation import community_split, structure_noniid_split


def _env_int(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError:
        return default


def _env_knob_defaults(cls):
    """``REPRO_*`` variables replace the defaults of the knobs declaring one.

    The inherited knobs are declared once, in :class:`EngineConfig`, so
    their defaults cannot be re-declared with an environment-reading factory
    like the scale fields below; a knob the caller passes always wins.
    """
    init = cls.__init__

    @functools.wraps(init)
    def __init__(self, *args, **kwargs):
        for knob in fields(EngineConfig):
            env = knob.metadata["env"]
            if env and env in os.environ and knob.name not in kwargs:
                kwargs[knob.name] = _env_int(env, knob.default) \
                    if isinstance(knob.default, int) else os.environ[env]
        init(self, *args, **kwargs)

    cls.__init__ = __init__
    return cls


@_env_knob_defaults
@dataclass
class ExperimentSettings(EngineConfig):
    """Scale knobs shared by every experiment.

    The inherited :class:`~repro.federated.engine.EngineConfig` knobs select
    the federation engine plug-ins for Step-1 training and every FGL
    baseline; they are forwarded whole into both :meth:`federated_config`
    and :meth:`adafgl_config`.  ``REPRO_WORKERS`` / ``REPRO_TRANSPORT`` /
    ``REPRO_ARRAY_BACKEND`` replace the defaults of ``num_workers`` /
    ``transport`` / ``array_backend``.
    """

    num_clients: int = field(default_factory=lambda: _env_int("REPRO_CLIENTS", 5))
    rounds: int = field(default_factory=lambda: _env_int("REPRO_ROUNDS", 20))
    local_epochs: int = field(default_factory=lambda: _env_int("REPRO_EPOCHS", 3))
    personalized_epochs: int = field(
        default_factory=lambda: _env_int("REPRO_PERSONALIZED_EPOCHS", 60))
    hidden: int = 32
    lr: float = 0.01
    participation: float = 1.0
    seed: int = 0

    def federated_config(self) -> FederatedConfig:
        return FederatedConfig(**engine_fields(self), rounds=self.rounds,
                               local_epochs=self.local_epochs, lr=self.lr,
                               participation=self.participation,
                               seed=self.seed)

    def adafgl_config(self, **overrides) -> AdaFGLConfig:
        # ``sparse_propagation=True`` is the experiment-runner default since
        # the dense-vs-sparse parity gate landed (``top_k=None`` sparse is
        # numerically identical to dense; the default top-k is an accuracy-
        # preserving approximation tracked by benchmarks/bench_perf.py).
        config = AdaFGLConfig(**engine_fields(self), rounds=self.rounds,
                              local_epochs=self.local_epochs, lr=self.lr,
                              hidden=self.hidden,
                              personalized_epochs=self.personalized_epochs,
                              participation=self.participation,
                              seed=self.seed, sparse_propagation=True)
        for key, value in overrides.items():
            setattr(config, key, value)
        return config


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
