#!/usr/bin/env python3
"""End-to-end benchmark runner: four workloads, one command.

One run (the form ``BENCHMARK.json`` names; one fresh interpreter each)::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0|1

prints every metric by name with its unit, checks the outputs against an
oracle, writes ``benchmarks/e2e/results/``, and ends with one JSON line
``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.

A set of runs (each in its own interpreter, seeds ``S, S+1, ...``)::

    python3 benchmarks/e2e/run.py --runs 10 [--workload W] [--trace 1] [--smoke]

prints median, quartiles and n per (workload, metric) and writes a result
set that ``stats.py compare`` reads.  See ``README.md`` beside this file.
"""

import os
import sys
from pathlib import Path

#: BLAS thread pins, set before numpy loads: unpinned, two pool workers and
#: the coordinator fight over two cores and the scheduler is what is timed
PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
os.environ.update(PINS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
# Run as a script, the interpreter puts this directory first on the path,
# where ``trace.py`` would shadow the standard library's module.
sys.path[:] = [entry for entry in sys.path
               if Path(entry or ".").resolve() != HERE]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'}: the program this benchmark "
             f"measures is not in this checkout")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

from benchmarks.e2e import stats  # noqa: E402
from benchmarks.e2e.trace import Tracer  # noqa: E402
from benchmarks.e2e.workloads import WORKLOADS, peak_rss_mb  # noqa: E402

RESULTS = HERE / "results"


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def host_stamp(seed=None) -> dict:
    try:
        import numba
        numba_version = numba.__version__
    except ImportError:
        numba_version = "absent"
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, text=True, timeout=10,
            capture_output=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(), "load_average": list(os.getloadavg()),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "numba": numba_version,
        "blas_thread_pins": PINS, "git_sha": sha, "seed": seed,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def run_one(name: str, seed: int, seconds: float, traced: bool,
            smoke: bool) -> dict:
    workload = WORKLOADS[name]
    benchmark = load_benchmark()
    tracer = Tracer() if traced else None

    start = time.perf_counter()
    inputs = workload.generate(seed, seconds, smoke)
    gen_s = time.perf_counter() - start

    # Set-up is timed from "inputs handed over" to "ready for the first
    # timed operation", several times; all but the last are torn down.
    setups = 1 if smoke else workload.setups
    setup_s = []
    for index in range(setups):
        last = index == setups - 1
        handed_over = time.perf_counter()
        state = workload.setup(inputs, tracer if last else None)
        setup_s.append(time.perf_counter() - handed_over)
        if not last:
            workload.teardown(state, None)

    try:
        measured = workload.measure(state, seconds, smoke, tracer)
    except BaseException:
        workload.teardown(state, None)   # leave no pool worker behind
        raise
    rss_mb = peak_rss_mb()
    layers = dict(measured.layers)
    start = time.perf_counter()
    layers.update(workload.teardown(state, tracer))
    released = time.perf_counter()
    latency = measured.latency_ms
    # the traced pass reports no percentile of its (fewer) untraced samples
    if not (smoke or traced) and stats.highest_percentile(len(latency)) < 90:
        raise ValueError(f"{name}: {len(latency)} latency samples do not "
                         f"support a p90")

    parity_gap, oracle_layers = workload.oracle(inputs, state, measured,
                                                tracer)
    layers.update(oracle_layers)
    failed_share = measured.failed / measured.attempted
    layers.update({
        "run.gen_s": gen_s, "run.teardown_s": released - start,
        "op_per_s": measured.op_per_s,
        "parity_gap": parity_gap, "failed_share": failed_share})

    end_to_end = {
        "setup_s": stats.summary(setup_s)["median"],
        # the last set-up, the timed phase and the teardown, as stamped
        "wall_s": released - handed_over,
        "op_ms_p50": stats.percentile(latency, 50),
        "op_ms_p90": stats.percentile(latency, 90),
        "success_share": 1.0 - failed_share,
        "peak_rss_mb": rss_mb,
    }
    correct = (parity_gap <= workload.parity_ceiling
               and failed_share <= workload.failed_ceiling
               and layers.get("batched.fallback_count", 0.0) == 0.0)

    if traced:
        listed = {metric["name"] for metric in benchmark["per_layer"]}
        if set(layers) & listed != workload.layers:
            raise ValueError(
                f"{name}: per-layer metrics missing "
                f"{sorted(workload.layers - set(layers))}, not owned "
                f"{sorted((set(layers) & listed) - workload.layers)}")
    # A metric this workload does not own is null in the result file and
    # "n/a" in the table; the driver's line must hold a number, so it is 0
    # there (a metric the workload does own is never absent, see above).
    values = layers if traced else end_to_end
    chosen = benchmark["per_layer"] if traced else benchmark["end_to_end"]
    units = {metric["name"]: metric["unit"] for metric in chosen}
    owned = {metric: float(values[metric]) for metric in units
             if metric in values}
    result = {"correct": bool(correct), "attempted": int(measured.attempted),
              "failed": int(measured.failed),
              "metrics": {metric: {"value": owned.get(metric, 0.0),
                                   "unit": unit}
                          for metric, unit in units.items()}}

    print(f"# {name}: seed {seed}, {measured.ops} x {workload.op} timed, "
          f"{len(latency)} latency samples, {setups} set-ups, "
          f"{'traced' if traced else 'untraced'}"
          f"{', smoke scale' if smoke else ''}")
    for metric, unit in units.items():
        value = f"{owned[metric]:16.6f}" if metric in owned \
            else f"{'n/a':>16s}"
        print(f"{metric:44s} {value} {unit}")
    print(f"# parity_gap {parity_gap:g} (ceiling "
          f"{workload.parity_ceiling:g}), failed {measured.failed} of "
          f"{measured.attempted} (ceiling {workload.failed_ceiling:g})")
    for error in getattr(measured, "errors", []):
        print(f"# failed operation: {error}")

    RESULTS.mkdir(exist_ok=True)
    stamp = host_stamp(seed)
    suffix = "_traced" if traced else ""
    with open(RESULTS / f"last_{name}{suffix}.json", "w") as handle:
        json.dump({"host": stamp, "workload": name, "seconds": seconds,
                   "smoke": smoke, "trace": int(traced),
                   **{key: result[key]
                      for key in ("correct", "attempted", "failed")},
                   "metrics": {metric: {"value": owned.get(metric),
                                        "unit": unit}
                               for metric, unit in units.items()},
                   "unlisted": {key: value for key, value in
                                {**layers, **end_to_end}.items()
                                if key not in units}},
                  handle, indent=1)
        handle.write("\n")
    if traced:
        tracer.dump(RESULTS / f"trace_{name}.json", host=stamp,
                    workload=name)
    return result


def stop_helpers() -> None:
    """Stop multiprocessing's helper processes and wait until they ended.

    The TCP pool starts its workers through a forkserver, which brings a
    resource tracker with it; left alone, both outlive this process by a
    moment.  ``_stop`` is how the standard library's own tests end them.
    """
    from multiprocessing import forkserver, resource_tracker
    for helper in (forkserver._forkserver,
                   resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


# ----------------------------------------------------------------------
# A set of runs
# ----------------------------------------------------------------------
def run_set(names, seed: int, runs: int, seconds: float, trace: int,
            smoke: bool, out: Path) -> int:
    stamp = host_stamp(seed)
    if stamp["load_average"][0] > stamp["nproc"]:
        print(f"refusing to record: 1-min load average "
              f"{stamp['load_average'][0]:.2f} exceeds nproc "
              f"{stamp['nproc']}", file=sys.stderr)
        return 2
    records = []
    for name in names:
        for index in range(runs):
            command = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(seed + index),
                       "--seconds", str(seconds), "--trace", str(trace)]
            if smoke:
                command.append("--smoke")
            done = subprocess.run(command, cwd=ROOT, text=True,
                                  capture_output=True, timeout=900)
            try:    # exit code 1 with a result line: a ceiling exceeded
                record = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                print(done.stdout + done.stderr, file=sys.stderr)
                return done.returncode or 1
            if trace:   # what the workload does not own is no measurement
                record["metrics"] = {
                    metric: entry
                    for metric, entry in record["metrics"].items()
                    if metric in WORKLOADS[name].layers}
            record.update(workload=name, seed=seed + index, trace=trace)
            records.append(record)
            print(f"# {name} trace={trace} seed={seed + index} "
                  f"correct={record['correct']} "
                  f"failed={record['failed']}/{record['attempted']}",
                  flush=True)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as handle:   # one run per line
        header = json.dumps({"host": stamp, "seconds": seconds,
                             "smoke": smoke}, indent=1)
        handle.write(header[:-2] + ',\n "runs": [\n  ' + ",\n  ".join(
            json.dumps(record) for record in records) + "\n ]\n}\n")
    print_set(records)
    print(f"# wrote {out}")
    return 0 if all(record["correct"] for record in records) else 1


def print_set(records: list) -> None:
    bounds = {metric["name"]: metric["bound"]
              for metric in load_benchmark()["end_to_end"]}
    cells = {}
    for run in records:
        for metric, entry in run["metrics"].items():
            cells.setdefault((run["workload"], metric, entry["unit"]),
                             []).append(entry["value"])
    print(f"{'workload':22s} {'metric':44s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'n':>3s} {'unit':6s} spread/bound")
    for (workload, metric, unit), values in cells.items():
        summary = stats.summary(values)
        note = ""
        if metric in bounds:
            note = f"{stats.spread(values):.4f} / {bounds[metric]:g}"
        print(f"{workload:22s} {metric:44s} {summary['median']:14.6g} "
              f"{summary['q1']:14.6g} {summary['q3']:14.6g} "
              f"{summary['n']:3d} {unit:6s} {note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="AdaFGL reproduction: end-to-end benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the timed phase (default: "
                             "run_seconds of BENCHMARK.json; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="toy scale: every code path, no usable numbers")
    parser.add_argument("--runs", type=int, default=None,
                        help="record a set: this many runs per workload")
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else load_benchmark()["run_seconds"]
    if args.runs is None and args.workload is not None:
        try:
            result = run_one(args.workload, args.seed, seconds,
                             bool(args.trace), args.smoke)
        finally:
            stop_helpers()
        print(json.dumps(result))
        return 0 if result["correct"] else 1
    names = [args.workload] if args.workload else list(WORKLOADS)
    out = args.out or RESULTS / time.strftime("set_%Y%m%d_%H%M%S.json")
    return run_set(names, args.seed, args.runs or 1, seconds, args.trace,
                   args.smoke, out)


if __name__ == "__main__":
    sys.exit(main())
