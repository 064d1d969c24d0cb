"""Scaling harness: store-backed hierarchical federation at 10^3-10^5 clients.

Measures the three axes the hierarchical engine is built for:

* ``curve`` — rounds/sec for client counts {1k, 10k, 100k} at a fixed
  cohort of ~256 sampled participants per round (``participation`` shrinks
  as N grows, the regime real cross-device federations run in).
* coordinator peak RSS (``resource.getrusage(RUSAGE_SELF).ru_maxrss``)
  after each point.  The store is built in a forked child and local
  training runs inside pool workers, so the coordinator only ever holds
  the global state, shard id lists and one fixed-point partial per worker
  — its RSS must stay (sub)linear-free as N grows 10k -> 100k.
* ``parity`` — the hard correctness bar at small N: hierarchical
  process-pool rounds and the store trainer must both reproduce flat
  FedAvg with ``loss_gap == 0.0``.

Run directly for the full checked-in artifact
(``benchmarks/results/BENCH_scale.json``)::

    PYTHONPATH=src python benchmarks/bench_scale.py

or at smoke scale through pytest (``test_bench_scale.py``, marker
``bench``).
"""

from __future__ import annotations

import argparse
import multiprocessing
import resource
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.federated import FederatedConfig
from repro.federated.engine import ClientStore, ModelSpec, StoreFederatedTrainer
from repro.fgl.fedgnn import FederatedGNN
from repro.graph import Graph

try:  # imported as benchmarks.bench_scale (pytest) or run as a script
    from benchmarks.bench_utils import record_json
except ImportError:  # pragma: no cover - script mode
    from bench_utils import record_json

NUM_FEATURES = 16
NUM_CLASSES = 3
NODES_PER_CLIENT = 8
HIDDEN = 8
SPEC_SEED = 7


def make_tiny_graph(seed: int, num_nodes: int = NODES_PER_CLIENT) -> Graph:
    """One cross-device-sized client: a ring graph with label-signal features.

    Built directly with numpy (no CSBM machinery) so streaming 10^5 of them
    into a store is generator-bound, not graph-generation-bound.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, NUM_CLASSES, size=num_nodes)
    features = rng.normal(size=(num_nodes, NUM_FEATURES))
    features[np.arange(num_nodes), labels % NUM_FEATURES] += 1.5
    row = np.repeat(np.arange(num_nodes), 2)
    col = np.concatenate([((np.arange(num_nodes) + 1) % num_nodes)[:, None],
                          ((np.arange(num_nodes) - 1) % num_nodes)[:, None]],
                         axis=1).ravel()
    adjacency = sp.csr_matrix(
        (np.ones(row.size), (row, col)), shape=(num_nodes, num_nodes))
    masks = np.zeros((num_nodes, 3), dtype=bool)
    masks[:num_nodes // 2, 0] = True          # train
    masks[num_nodes // 2:3 * num_nodes // 4, 1] = True  # val
    masks[3 * num_nodes // 4:, 2] = True      # test
    return Graph(adjacency=adjacency, features=features, labels=labels,
                 train_mask=masks[:, 0], val_mask=masks[:, 1],
                 test_mask=masks[:, 2], name=f"scale-{seed}",
                 metadata={"num_classes": NUM_CLASSES})


def _spec() -> ModelSpec:
    return ModelSpec(model_name="gcn", hidden=HIDDEN, dropout=0.5,
                     seed=SPEC_SEED)


def _client_stream(num_clients: int, seed: int, templates: int = 64):
    """Yield ``num_clients`` graphs cycling a small pool of templates."""
    pool = [make_tiny_graph(seed + index) for index in range(templates)]
    for index in range(num_clients):
        yield pool[index % templates]


def _create_store_job(path: str, num_clients: int, seed: int) -> None:
    ClientStore.create(path, _client_stream(num_clients, seed), _spec())


def create_store_detached(path: str, num_clients: int, seed: int) -> float:
    """Build the store in a forked child; returns creation seconds.

    Writing the arenas dirties every page, so doing it in-process would
    push the coordinator's ru_maxrss high-water mark to the full arena
    size and mask the flat-RSS property the curve is meant to measure.
    """
    start = time.perf_counter()
    ctx = multiprocessing.get_context("fork")
    worker = ctx.Process(target=_create_store_job,
                         args=(path, num_clients, seed))
    worker.start()
    worker.join()
    if worker.exitcode != 0:
        raise RuntimeError(
            f"store creation failed (exit code {worker.exitcode})")
    return time.perf_counter() - start


def _rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def run_scale_curve(client_counts: Sequence[int] = (1_000, 10_000, 100_000),
                    cohort: int = 256, rounds: int = 2,
                    local_epochs: int = 1, num_workers: int = 4,
                    seed: int = 0, eval_sample: int = 64,
                    store_root: Optional[str] = None) -> Dict:
    """Rounds/sec + coordinator RSS over the client-count axis."""
    root = Path(store_root or tempfile.mkdtemp(prefix="bench_scale_"))
    owns_root = store_root is None
    section: Dict = {
        "config": {
            "cohort": cohort, "rounds": rounds, "local_epochs": local_epochs,
            "num_workers": num_workers, "nodes_per_client": NODES_PER_CLIENT,
            "num_features": NUM_FEATURES, "hidden": HIDDEN, "seed": seed,
        },
        "points": [],
    }
    try:
        for num_clients in client_counts:
            path = str(root / f"store_{num_clients}")
            create_sec = create_store_detached(path, num_clients, seed)
            store = ClientStore.open(path)
            participation = min(1.0, cohort / num_clients)
            trainer = StoreFederatedTrainer(
                store, FederatedConfig(
                    rounds=rounds, local_epochs=local_epochs,
                    participation=participation, seed=seed,
                    num_workers=num_workers, eval_every=rounds),
                eval_sample=eval_sample)
            start = time.perf_counter()
            history = trainer.run()
            train_sec = time.perf_counter() - start
            trainer.close()
            store_bytes = sum(f.stat().st_size
                              for f in Path(path).iterdir() if f.is_file())
            participants = sorted(history.participants)
            entry = {
                "num_clients": num_clients,
                "participation": round(participation, 6),
                "participants_per_round": len(
                    history.participants[participants[0]])
                if participants else 0,
                "store_create_sec": round(create_sec, 3),
                "store_mb_on_disk": round(store_bytes / 2 ** 20, 2),
                "rounds_per_sec": round(rounds / train_sec, 4),
                "sec_per_round": round(train_sec / rounds, 4),
                "test_accuracy": round(history.test_accuracy[-1], 4)
                if history.test_accuracy else None,
                "coordinator_peak_rss_mb": round(
                    _rss_mb(resource.RUSAGE_SELF), 1),
                "children_peak_rss_mb": round(
                    _rss_mb(resource.RUSAGE_CHILDREN), 1),
            }
            section["points"].append(entry)
            print(f"scale N={num_clients:>7}  create {create_sec:6.1f}s  "
                  f"{entry['sec_per_round']:7.2f} s/round  "
                  f"coordinator RSS {entry['coordinator_peak_rss_mb']:.0f} MB "
                  f"({entry['store_mb_on_disk']:.0f} MB on disk)")
            shutil.rmtree(path, ignore_errors=True)
    finally:
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)

    by_count = {entry["num_clients"]: entry for entry in section["points"]}
    if 10_000 in by_count and 100_000 in by_count:
        # ru_maxrss is a lifetime high-water mark, so with ascending counts
        # the ratio upper-bounds the true growth: 1.0 == perfectly flat.
        section["rss_growth_10k_to_100k"] = round(
            by_count[100_000]["coordinator_peak_rss_mb"]
            / max(by_count[10_000]["coordinator_peak_rss_mb"], 1e-9), 3)
    return section


def run_parity(num_clients: int = 8, rounds: int = 3, local_epochs: int = 2,
               num_workers: int = 2, seed: int = 0,
               store_root: Optional[str] = None) -> Dict:
    """Small-N exactness bar: hierarchical and store paths vs flat FedAvg."""
    graphs = [make_tiny_graph(seed + index, num_nodes=24)
              for index in range(num_clients)]

    def run_flat(**overrides):
        config = FederatedConfig(rounds=rounds, local_epochs=local_epochs,
                                 seed=SPEC_SEED, eval_every=1, **overrides)
        trainer = FederatedGNN(graphs, "gcn", hidden=HIDDEN, config=config)
        return trainer.run()

    flat = run_flat(backend="serial")
    hierarchical = run_flat(backend="process_pool", num_workers=num_workers,
                            intra_worker="serial", hierarchical=True)

    root = Path(store_root or tempfile.mkdtemp(prefix="bench_scale_parity_"))
    owns_root = store_root is None
    try:
        store = ClientStore.create(
            str(root / "parity"), (graph for graph in graphs), _spec())
        trainer = StoreFederatedTrainer(store, FederatedConfig(
            rounds=rounds, local_epochs=local_epochs, seed=SPEC_SEED,
            num_workers=num_workers))
        store_history = trainer.run()
        trainer.close()
    finally:
        if owns_root:
            shutil.rmtree(root, ignore_errors=True)

    def gap(other):
        return float(np.max(np.abs(np.asarray(flat.loss)
                                   - np.asarray(other.loss))))

    section = {
        "num_clients": num_clients, "rounds": rounds,
        "hierarchical_loss_gap": gap(hierarchical),
        "store_trainer_loss_gap": gap(store_history),
        "test_accuracy": round(flat.test_accuracy[-1], 4),
    }
    print(f"parity  hierarchical loss_gap {section['hierarchical_loss_gap']:.1e}  "
          f"store loss_gap {section['store_trainer_loss_gap']:.1e}")
    return section


def run_scale_suite(client_counts: Sequence[int] = (1_000, 10_000, 100_000),
                    cohort: int = 256, rounds: int = 2,
                    local_epochs: int = 1, num_workers: int = 4,
                    seed: int = 0,
                    output_name: str = "BENCH_scale") -> Dict:
    report: Dict = {
        "parity": run_parity(num_workers=min(2, max(1, num_workers)),
                             seed=seed),
        "curve": run_scale_curve(client_counts=client_counts, cohort=cohort,
                                 rounds=rounds, local_epochs=local_epochs,
                                 num_workers=num_workers, seed=seed),
    }
    points = report["curve"]["points"]
    if points:
        top = points[-1]
        report["headline"] = {
            "num_clients": top["num_clients"],
            "sec_per_round": top["sec_per_round"],
            "coordinator_peak_rss_mb": top["coordinator_peak_rss_mb"],
            "participants_per_round": top["participants_per_round"],
        }
    record_json(output_name, report)
    return report


def main(argv: Optional[List[str]] = None) -> Dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--counts", type=int, nargs="+",
                        default=[1_000, 10_000, 100_000])
    parser.add_argument("--cohort", type=int, default=256)
    parser.add_argument("--rounds", type=int, default=2)
    parser.add_argument("--epochs", type=int, default=1)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="BENCH_scale")
    args = parser.parse_args(argv)
    return run_scale_suite(client_counts=args.counts, cohort=args.cohort,
                           rounds=args.rounds, local_epochs=args.epochs,
                           num_workers=args.workers, seed=args.seed,
                           output_name=args.output)


if __name__ == "__main__":
    main()
