"""Command-line interface for the AdaFGL reproduction.

Examples::

    python -m repro.cli datasets
    python -m repro.cli run --dataset cora --split structure --method adafgl
    python -m repro.cli compare --dataset citeseer --methods fedgcn fed-pub adafgl
    python -m repro.cli hcs --dataset chameleon --split structure
    python -m repro.cli serve --dataset cora --method fedgcn --rate 2000
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from typing import List, Optional

from repro.core import AdaFGL
from repro.datasets import dataset_statistics, list_datasets, load_dataset
from repro.experiments import (
    ExperimentSettings,
    compare_methods,
    format_table,
    prepare_clients,
    run_method,
)
from repro.experiments.runner import available_methods
from repro.federated.engine.config import EngineConfig, cli_flag
from repro.graph import edge_homophily


def _engine_flags():
    """``(knob, flag)`` for every engine knob settable from the shell."""
    return [(knob, flag) for knob in fields(EngineConfig)
            if (flag := cli_flag(knob)) is not None]


def _settings(args: argparse.Namespace) -> ExperimentSettings:
    settings = ExperimentSettings(seed=args.seed)
    if args.clients is not None:
        settings.num_clients = args.clients
    if args.rounds is not None:
        settings.rounds = args.rounds
    if args.epochs is not None:
        settings.local_epochs = args.epochs
    for knob, flag in _engine_flags():
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is not None:
            setattr(settings, knob.name, value)
    return settings


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="cora", choices=list_datasets())
    parser.add_argument("--split", default="community",
                        choices=["community", "structure"])
    parser.add_argument("--injection", default="random",
                        choices=["random", "meta"])
    parser.add_argument("--clients", type=int, default=None)
    parser.add_argument("--rounds", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--nodes", type=int, default=None,
                        help="override the generated dataset size")
    parser.add_argument("--seed", type=int, default=0)
    # One flag per EngineConfig knob, unset (None) unless given so the
    # settings' own defaults — and their REPRO_* overrides — stand.
    for knob, flag in _engine_flags():
        if isinstance(knob.default, bool):
            parser.add_argument(flag, action="store_true", default=None,
                                help=knob.metadata["help"])
            continue
        choices = knob.metadata["choices"]
        parser.add_argument(
            flag, default=None, help=knob.metadata["help"],
            choices=choices() if callable(choices) else choices,
            type=knob.metadata["parse"] or (
                str if knob.default is None else type(knob.default)))


def cmd_datasets(args: argparse.Namespace) -> int:
    rows = [list(dataset_statistics(name, seed=args.seed).values())
            for name in list_datasets()]
    headers = list(dataset_statistics(list_datasets()[0], seed=args.seed))
    print(format_table(headers, rows, title="Registered datasets"))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    settings = _settings(args)
    graph = load_dataset(args.dataset, seed=args.seed, num_nodes=args.nodes)
    clients = prepare_clients(args.dataset, args.split, settings, graph=graph,
                              injection=args.injection)
    summary = run_method(args.method, clients, settings)
    print(format_table(
        ["method", "split", "test accuracy", "train accuracy", "floats/round"],
        [[args.method, args.split, summary["accuracy"],
          summary["train_accuracy"], summary["communication"]["per_round"]]],
        title=f"{args.dataset} ({len(clients)} clients)"))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    settings = _settings(args)
    graph = load_dataset(args.dataset, seed=args.seed, num_nodes=args.nodes)
    clients = prepare_clients(args.dataset, args.split, settings, graph=graph,
                              injection=args.injection)
    results = compare_methods(args.methods, clients, settings)
    rows = [[method, results[method]["accuracy"],
             results[method]["communication"]["per_round"]]
            for method in args.methods]
    print(format_table(["method", "test accuracy", "floats/round"], rows,
                       title=f"{args.dataset} — {args.split} split"))
    return 0


def cmd_hcs(args: argparse.Namespace) -> int:
    settings = _settings(args)
    graph = load_dataset(args.dataset, seed=args.seed, num_nodes=args.nodes)
    clients = prepare_clients(args.dataset, args.split, settings, graph=graph,
                              injection=args.injection)
    trainer = AdaFGL(clients, settings.adafgl_config())
    trainer.run()
    hcs = trainer.client_hcs()
    rows = [[cid, hcs[cid],
             edge_homophily(clients[cid].adjacency, clients[cid].labels)]
            for cid in sorted(hcs)]
    print(format_table(["client", "HCS", "edge homophily"], rows,
                       title=f"HCS on {args.dataset} — {args.split} split"))
    print(f"\noverall test accuracy: {trainer.evaluate('test'):.3f}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Export (or load) a serving snapshot and drive it with open-loop load."""
    from repro.serving import (
        QueryEngine,
        ServingSnapshot,
        build_query_mix,
        run_open_loop,
    )

    if args.snapshot:
        snapshot = ServingSnapshot.load(args.snapshot)
    else:
        settings = _settings(args)
        graph = load_dataset(args.dataset, seed=args.seed,
                             num_nodes=args.nodes)
        clients = prepare_clients(args.dataset, args.split, settings,
                                  graph=graph, injection=args.injection)
        summary = run_method(args.method, clients, settings)
        trainer = summary["trainer"]
        snapshot = ServingSnapshot.from_adafgl(trainer) \
            if isinstance(trainer, AdaFGL) \
            else ServingSnapshot.from_trainer(trainer)
    if args.export:
        snapshot.save(args.export)
        print(f"snapshot written to {args.export}")
    with QueryEngine(snapshot, max_batch=args.max_batch,
                     max_delay_ms=args.max_delay_ms,
                     cache_size=args.cache_size,
                     max_queue=args.max_queue) as engine:
        queries = build_query_mix(
            snapshot, args.queries,
            inductive_fraction=args.inductive_frac, seed=args.seed)
        report = run_open_loop(engine, queries, args.rate, seed=args.seed)
    print(format_table(
        ["family", "max batch", "offered qps", "achieved qps",
         "p50 ms", "p99 ms", "inline", "mean batch", "rejected"],
        [[snapshot.model_family, args.max_batch,
          f"{report.offered_qps:.0f}", f"{report.achieved_qps:.0f}",
          f"{report.p50_ms:.2f}", f"{report.p99_ms:.2f}",
          report.triggers.get("inline", 0),
          f"{report.mean_batch:.1f}", report.rejected]],
        title=f"serving {snapshot.num_clients} clients "
              f"({report.queries} queries, source: {snapshot.source})"))
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """Run one federation worker that dials a TCP coordinator.

    The remote half of ``--transport tcp`` with ``mode="external"``: the
    coordinator listens, this process dials ``--connect host:port``,
    identifies itself as worker ``--worker-id`` and then serves the
    standard command loop until the coordinator closes the channel (crash
    supervision, reconnect and session resume all behave exactly as for
    locally spawned workers).
    """
    from repro.federated.engine.transport import run_tcp_worker

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        print(f"--connect must be HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    run_tcp_worker((host, int(port)), args.worker_id, token=args.token)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="AdaFGL reproduction command-line interface")
    subparsers = parser.add_subparsers(dest="command", required=True)

    p_datasets = subparsers.add_parser(
        "datasets", help="list the registered benchmark datasets")
    p_datasets.add_argument("--seed", type=int, default=0)
    p_datasets.set_defaults(func=cmd_datasets)

    p_run = subparsers.add_parser("run", help="train one federated method")
    _add_common(p_run)
    p_run.add_argument("--method", default="adafgl",
                       choices=available_methods())
    p_run.set_defaults(func=cmd_run)

    p_compare = subparsers.add_parser(
        "compare", help="compare several methods on the same split")
    _add_common(p_compare)
    p_compare.add_argument("--methods", nargs="+",
                           default=["fedgcn", "fed-pub", "adafgl"],
                           choices=available_methods())
    p_compare.set_defaults(func=cmd_compare)

    p_hcs = subparsers.add_parser(
        "hcs", help="report per-client Homophily Confidence Scores")
    _add_common(p_hcs)
    p_hcs.set_defaults(func=cmd_hcs)

    p_serve = subparsers.add_parser(
        "serve", help="freeze a serving snapshot and measure qps / latency")
    _add_common(p_serve)
    p_serve.add_argument("--method", default="fedgcn",
                         choices=available_methods())
    p_serve.add_argument("--snapshot", default=None,
                         help="serve a previously exported snapshot file "
                              "instead of training one")
    p_serve.add_argument("--export", default=None,
                         help="write the snapshot to this path before "
                              "serving")
    p_serve.add_argument("--queries", type=int, default=2000,
                         help="number of queries the load run submits")
    p_serve.add_argument("--rate", type=float, default=1000.0,
                         help="open-loop Poisson arrival rate (queries/sec)")
    p_serve.add_argument("--inductive-frac", type=float, default=0.0,
                         help="fraction of queries that present a new node "
                              "(requires an inductive-capable snapshot)")
    p_serve.add_argument("--max-batch", type=int, default=32,
                         help="micro-batch flush size")
    p_serve.add_argument("--max-delay-ms", type=float, default=2.0,
                         help="milliseconds a micro-batch waits for more "
                              "inductive queries once it has company (a "
                              "query that finds the queue empty is answered "
                              "at once)")
    p_serve.add_argument("--cache-size", type=int, default=128,
                         help="LRU capacity over extracted subgraph blocks")
    p_serve.add_argument("--max-queue", type=int, default=0,
                         help="admission-queue bound: submissions beyond "
                              "this many waiting queries fast-fail instead "
                              "of growing latency (0 = unbounded)")
    p_serve.set_defaults(func=cmd_serve)

    p_worker = subparsers.add_parser(
        "worker", help="run one TCP federation worker (dials a coordinator)")
    p_worker.add_argument("--connect", required=True,
                          help="coordinator listener address as HOST:PORT")
    p_worker.add_argument("--worker-id", type=int, required=True,
                          help="worker slot this process serves (matches "
                               "the coordinator's worker indices)")
    p_worker.add_argument("--token", default="",
                          help="shared secret the coordinator requires at "
                               "the HELLO handshake (if any)")
    p_worker.set_defaults(func=cmd_worker)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
