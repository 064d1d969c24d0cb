"""Load generation for the serving workload.

Written for the benchmark (the program's own ``repro.serving.loadgen``
is part of what is measured, and raises on the first failed future).
Independent users make an open loop: queries are sent on a seeded Poisson
schedule whatever the engine's speed, latency runs from the *scheduled*
send so a stall is charged to every query it delays, and how late the
generator itself ran is reported beside it.  A failed or refused query is
counted, never raised.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.serving import AdmissionRejected

#: seconds a submitted query may take to come back before it counts as failed
TIMEOUT_S = 60.0


@dataclass
class PhaseReport:
    """What one load phase sent and what came back."""

    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    refused: int = 0
    duration_s: float = 0.0
    #: per query, aligned with the submitted list; ``None`` where the query
    #: failed or was refused
    results: List[Optional[object]] = field(default_factory=list)
    #: latency of each succeeded query in ms, from its reference instant
    #: (scheduled send in the open loop, submit call in a burst)
    latency_ms: List[float] = field(default_factory=list)
    #: how late after its scheduled instant each query was submitted, ms
    late_ms: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return self.sent + self.refused


def _drain(report: PhaseReport, pending) -> None:
    for reference, future in pending:
        if future is None:
            report.results.append(None)
            continue
        try:
            result = future.result(timeout=TIMEOUT_S)
        except Exception as error:   # a failed query is a data point
            report.failed += 1
            report.results.append(None)
            if len(report.errors) < 5:
                report.errors.append(f"{type(error).__name__}: {error}")
            continue
        report.succeeded += 1
        report.results.append(result)
        report.latency_ms.append((result.completed - reference) * 1e3)


def _submit(report: PhaseReport, engine, query):
    try:
        future = engine.submit(query)
    except AdmissionRejected:
        report.refused += 1
        return None
    report.sent += 1
    return future


def open_loop(engine, queries: Sequence,
              offsets: Sequence[float]) -> PhaseReport:
    """Submit each query at ``start + offset``; never skip, never wait."""
    report = PhaseReport()
    pending = []
    start = time.perf_counter() + 0.005
    for query, offset in zip(queries, offsets):
        target = start + float(offset)
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        report.late_ms.append((time.perf_counter() - target) * 1e3)
        pending.append((target, _submit(report, engine, query)))
    _drain(report, pending)
    report.duration_s = time.perf_counter() - start
    return report


def burst(engine, queries: Sequence) -> PhaseReport:
    """Submit everything back-to-back and drain: the saturated rate."""
    report = PhaseReport()
    start = time.perf_counter()
    pending = []
    for query in queries:
        pending.append((time.perf_counter(), _submit(report, engine, query)))
    _drain(report, pending)
    report.duration_s = time.perf_counter() - start
    return report
