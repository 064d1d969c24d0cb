"""Statistics of the end-to-end benchmark, and the two-set comparison.

``python benchmarks/e2e/stats.py compare A.json B.json`` prints one row per
(workload, metric) for two result sets written by ``run.py``: both medians
with quartiles and n, the ratio B/A with A's median as its base, and a
verdict against the metric's bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

#: percentiles a latency sample may be summarised at, lowest first
PERCENTILES = (50.0, 90.0, 99.0)
#: samples that must lie beyond a percentile for it to be reported
BEYOND = 10


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric over a set of runs."""
    values = [float(value) for value in values]
    if not values:
        raise ValueError("no values to summarise")
    median = statistics.median(values)
    if len(values) == 1:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    stats = summary(values)
    if stats["median"] == 0:
        return 0.0 if stats["q3"] == stats["q1"] else float("inf")
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100]."""
    ordered = sorted(float(value) for value in values)
    if not ordered:
        raise ValueError("no values to take a percentile of")
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def highest_percentile(count: int) -> float:
    """The highest of :data:`PERCENTILES` with :data:`BEYOND` samples past it.

    A tail percentile resting on fewer samples is one slow operation, not
    a distribution; 100 operations support p90, 1000 support p99.
    """
    # In whole per-mille steps: 100 * (1 - 0.9) is 9.999... in floats.
    supported = [q for q in PERCENTILES
                 if count * round((100.0 - q) * 10) >= BEYOND * 1000]
    if not supported:
        raise ValueError(
            f"{count} samples support no percentile with {BEYOND} beyond it")
    return supported[-1]


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per-span self time: duration minus the direct children's durations.

    ``spans`` are ``[name, start, end, parent, ...]`` rows with ``parent``
    an index into the same sequence (-1 for roots).
    """
    own = [span[2] - span[1] for span in spans]
    for span in spans:
        if span[3] >= 0:
            own[span[3]] -= span[2] - span[1]
    return own


# ----------------------------------------------------------------------
# Comparing two result sets
# ----------------------------------------------------------------------
def verdict(base: Sequence[float], other: Sequence[float], better: str,
            bound: float) -> str:
    """``regressed`` / ``better`` / ``unchanged`` / ``unresolved``.

    ``regressed``: the other median is worse than the base median by more
    than ``bound`` (a share of the base median).  Otherwise, when either
    side's spread exceeds the bound the sets cannot show "no change":
    ``unresolved`` — unless every other run beats every base run.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median = summary(base)["median"]
    other_median = summary(other)["median"]
    scale = abs(base_median) or 1.0
    worse_by = sign * (other_median - base_median) / scale
    if worse_by > bound:
        return "regressed"
    if (max(other) < min(base)) if better == "lower" \
            else (min(other) > max(base)):
        return "better"
    if max(spread(base), spread(other)) > bound:
        return "unresolved"
    return "unchanged"


def _by_cell(result_set: Dict, trace: int) -> Dict[tuple, List[float]]:
    cells: Dict[tuple, List[float]] = {}
    for run in result_set["runs"]:
        if int(run["trace"]) != trace:
            continue
        for name, metric in run["metrics"].items():
            cells.setdefault((run["workload"], name), []).append(
                metric["value"])
    return cells


def compare(base: Dict, other: Dict, benchmark: Dict) -> List[Dict]:
    """One row per (workload, metric) present in both sets."""
    rows = []
    gated = {metric["name"]: metric for metric in benchmark["end_to_end"]}
    layers = {metric["name"]: metric for metric in benchmark["per_layer"]}
    for trace, metrics in ((0, gated), (1, layers)):
        base_cells, other_cells = _by_cell(base, trace), _by_cell(other, trace)
        for cell in sorted(set(base_cells) & set(other_cells)):
            workload, name = cell
            metric = metrics.get(name)
            if metric is None:
                continue
            a, b = base_cells[cell], other_cells[cell]
            row = {"workload": workload, "metric": name,
                   "unit": metric["unit"], "base": summary(a),
                   "other": summary(b)}
            base_median = row["base"]["median"]
            row["ratio"] = row["other"]["median"] / base_median \
                if base_median else float("nan")
            if "bound" in metric:
                row["verdict"] = verdict(a, b, metric["better"],
                                         metric["bound"])
            elif metric["unit"] == "count":
                # Counts made by the program repeat exactly or not at all.
                row["verdict"] = "identical" \
                    if sorted(a) == sorted(b) else "differs"
            else:
                row["verdict"] = "reported"
            rows.append(row)
    return rows


def format_rows(rows: Sequence[Dict]) -> str:
    def cell(stats):
        return (f"{stats['median']:.6g} [{stats['q1']:.6g}, "
                f"{stats['q3']:.6g}] n={stats['n']}")

    lines = [f"{'workload':22s} {'metric':42s} {'unit':6s} "
             f"{'base median [q1, q3]':38s} {'other median [q1, q3]':38s} "
             f"{'other/base':>10s}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:22s} {row['metric']:42s} {row['unit']:6s} "
            f"{cell(row['base']):38s} {cell(row['other']):38s} "
            f"{row['ratio']:10.4f}  {row['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    cmp_parser = commands.add_parser(
        "compare", help="one row per (workload, metric) for two result sets")
    cmp_parser.add_argument("base")
    cmp_parser.add_argument("other")
    args = parser.parse_args(argv)
    with open(args.base) as handle:
        base = json.load(handle)
    with open(args.other) as handle:
        other = json.load(handle)
    with open(Path(__file__).resolve().parents[2]
              / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    rows = compare(base, other, benchmark)
    print(format_rows(rows))
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
