"""Smoke run of the whole benchmark at toy scale (marker: bench).

Skipped by tier-1; enable with ``pytest --run-bench`` or
``REPRO_RUN_BENCH=1``.  Every workload runs untraced and traced in its own
interpreter, exactly as ``BENCHMARK.json``'s command is run.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.bench
def test_every_metric_is_printed_with_its_unit_on_all_workloads():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    script = ROOT.joinpath(*benchmark["command"][1].split("/"))
    for workload in benchmark["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = subprocess.run(
                [sys.executable, str(script), "--workload", workload["name"],
                 "--seed", "3", "--seconds", "1", "--trace", str(trace),
                 "--smoke"],
                cwd=ROOT, text=True, capture_output=True, timeout=120)
            assert done.returncode == 0, done.stderr
            lines = done.stdout.strip().splitlines()
            printed = {line.split()[0]: line.split()[-1]
                       for line in lines[:-1] if not line.startswith("#")}
            result = json.loads(lines[-1])
            assert set(result) == {"correct", "attempted", "failed",
                                   "metrics"}
            assert result["correct"] is True and result["failed"] == 0
            assert result["attempted"] >= 1
            for metric in benchmark[key]:
                assert printed[metric["name"]] == metric["unit"]
                entry = result["metrics"][metric["name"]]
                assert entry["unit"] == metric["unit"]
                assert isinstance(entry["value"], float)
            assert set(result["metrics"]) == {
                metric["name"] for metric in benchmark[key]}
