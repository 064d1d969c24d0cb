"""Shared helpers for the benchmark harness.

Every benchmark regenerates one table or figure of the paper.  Results are
printed and also written to ``benchmarks/results/<name>.txt`` so they survive
pytest's output capturing.

Scale knobs (environment variables):

* ``REPRO_BENCH_NODES`` — nodes per generated dataset (default 600).
* ``REPRO_BENCH_FULL=1`` — run the full dataset/method grids instead of the
  representative subsets used by default to keep the suite fast.
* ``REPRO_CLIENTS`` / ``REPRO_ROUNDS`` / ``REPRO_EPOCHS`` /
  ``REPRO_PERSONALIZED_EPOCHS`` — forwarded to :class:`ExperimentSettings`.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np
import scipy

from repro.datasets import load_dataset
from repro.experiments import ExperimentSettings, prepare_clients, run_method

RESULTS_DIR = Path(__file__).parent / "results"

#: Methods reported in Table II/III of the paper (plus AdaFGL).
MAIN_METHODS = [
    "fedgcn", "fedgcnii", "fedgamlp", "fedgprgnn", "fedggcn", "fedglognn",
    "fedgl", "gcfl+", "fedsage+", "fed-pub", "adafgl",
]

#: Smaller method set for sweeps/figures.
SWEEP_METHODS = ["fedgcn", "fedglognn", "fedsage+", "fed-pub", "adafgl"]


def full_grid() -> bool:
    return os.environ.get("REPRO_BENCH_FULL", "0") == "1"


def bench_nodes() -> int:
    try:
        return int(os.environ.get("REPRO_BENCH_NODES", "600"))
    except ValueError:
        return 600


def settings(**overrides) -> ExperimentSettings:
    # Keywords, not setattr: an option no config class declares is a
    # TypeError here instead of an attribute nobody reads.
    return ExperimentSettings(**overrides)


def load_bench_dataset(name: str, seed: int = 0):
    """Load a dataset at benchmark scale."""
    return load_dataset(name, seed=seed, num_nodes=bench_nodes())


def run_grid(datasets: Sequence[str], methods: Sequence[str],
             splits: Sequence[str], config: ExperimentSettings,
             injection: str = "random") -> Dict:
    """Run every (dataset, split, method) combination and collect accuracies."""
    results: Dict[str, Dict[str, Dict[str, float]]] = {}
    for dataset in datasets:
        graph = load_bench_dataset(dataset, seed=config.seed)
        for split in splits:
            clients = prepare_clients(dataset, split, config, graph=graph,
                                      injection=injection)
            for method in methods:
                summary = run_method(method, clients, config)
                results.setdefault(split, {}).setdefault(dataset, {})[method] \
                    = summary["accuracy"]
    return results


def record(name: str, text: str) -> None:
    """Print a result block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


def host_stamp() -> Dict:
    """Where and from what a timing artifact was recorded: a number is only
    comparable with one taken on the same host, versions and commit."""
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = "absent"
    try:
        sha = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40",
             "--exclude=*"], cwd=Path(__file__).parent, text=True,
            timeout=10, capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "platform": platform.platform(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "numba": numba_version,
        "git_sha": sha, "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def record_json(name: str, payload: Dict) -> Path:
    """Persist a structured result under benchmarks/results/<name>.json.

    Used by the timing harnesses so perf trajectories can be diffed across
    commits; returns the written path.  A payload without a ``host`` key is
    stamped with :func:`host_stamp` in place, so every recorded file names
    the host, versions and commit its numbers were taken on.
    """
    payload.setdefault("host", host_stamp())
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"[saved to {path}]")
    return path
