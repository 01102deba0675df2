"""The serving vocabulary: requests, responses, policies, and the report.

Everything the one serving event loop
(:class:`~repro.serving.resilience.pool.ReplicaPool`, DESIGN.md §12)
consumes and produces lives here, below both the loop and the
:class:`~repro.serving.InferenceServer` facade so neither has to import
the other for a type:

* :class:`Request` / :class:`Response` — one inference request on the
  simulated clock and its single terminal record;
* :class:`BatchPolicy` — the ``(max_batch_size, max_wait)`` coalescing
  rule: a batch dispatches as soon as it is full, or when its oldest
  member has waited ``max_wait``, whichever comes first;
* :class:`AdmissionPolicy` — load shedding at arrival (queue depth) and
  per-request completion deadlines checked at dispatch;
* :class:`ServeReport` / :func:`summarize` — the latency / throughput /
  shed accounting the benchmarks and ``repro serve`` print.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.domains import Knobs, knob

#: Response status vocabulary.
STATUS_OK = "ok"
STATUS_SHED = "shed"
STATUS_TIMEOUT = "timeout"
#: Every attempt (including failovers) failed — replicated serving only.
STATUS_FAILED = "failed"


@dataclass
class Request:
    """One inference request: a payload plus its arrival on the sim clock."""

    request_id: int
    sample: object
    arrival: float
    client_id: str = "client-0"
    #: Absolute completion deadline on the sim clock (None = no deadline).
    deadline: Optional[float] = None


@dataclass
class Response:
    """The terminal record for one request."""

    request_id: int
    client_id: str
    status: str
    value: Optional[float]
    arrival: float
    dispatched_at: Optional[float]
    completed_at: float
    batch_size: int = 0
    #: Which replica answered (None when shed or failed before any did).
    replica: Optional[int] = None

    @property
    def latency(self) -> float:
        return self.completed_at - self.arrival

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class BatchPolicy(Knobs):
    """Coalescing knobs: batch cap and the oldest-request wait bound."""

    max_batch_size: int = knob(8, ge=1)
    max_wait: float = knob(0.01, ge=0)


@dataclass
class AdmissionPolicy(Knobs):
    """Load shedding and deadline knobs (None disables either)."""

    max_queue_depth: Optional[int] = knob(None, ge=1)
    deadline: Optional[float] = knob(None, gt=0)


@dataclass
class ServeReport:
    """Reduced view of one serving run over a traffic trace."""

    responses: List[Response]
    p50_latency: float
    p99_latency: float
    throughput: float  # completed requests per simulated second
    mean_batch_size: float
    ok: int
    shed: int
    timeout: int
    #: Requests whose every attempt (including failovers) failed.
    failed: int = 0
    metrics: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.ok + self.shed + self.timeout + self.failed

    @property
    def availability(self) -> float:
        """Fraction of offered requests answered OK (0.0 on an empty trace)."""
        if self.total == 0:
            return 0.0
        return self.ok / self.total

    def goodput(self, slo: float) -> float:
        """Completed-within-SLO requests per simulated second."""
        good = [r for r in self.responses if r.ok and r.latency <= slo]
        if not good:
            return 0.0
        span = max(r.completed_at for r in good) - min(r.arrival for r in self.responses)
        if span <= 0:
            return 0.0
        return len(good) / span

    def summary(self) -> str:
        return (
            f"{self.ok}/{self.total} ok ({self.shed} shed, {self.timeout} timeout, "
            f"{self.failed} failed), availability {self.availability:.3f}, "
            f"p50 {self.p50_latency * 1e3:.2f} ms, p99 {self.p99_latency * 1e3:.2f} ms, "
            f"{self.throughput:.1f} req/s, mean batch {self.mean_batch_size:.2f}"
        )


def summarize(responses: Sequence[Response], observer=None) -> ServeReport:
    """Reduce raw responses to the report the benches and CLI print.

    Degenerate traces reduce without raising: an empty response list, a
    trace where nothing completed, or a single instantaneous completion
    (zero observation span) all yield a report with 0.0 throughput rather
    than a division error — chaos runs can and do produce all three.
    """
    completed = [r for r in responses if r.ok]
    latencies = np.array([r.latency for r in completed], dtype=np.float64)
    if len(completed) >= 1:
        span = max(r.completed_at for r in completed) - min(
            r.arrival for r in responses
        )
        throughput = len(completed) / span if span > 0 else 0.0
        p50 = float(np.percentile(latencies, 50))
        p99 = float(np.percentile(latencies, 99))
        mean_batch = float(np.mean([r.batch_size for r in completed]))
    else:
        throughput = p50 = p99 = mean_batch = 0.0
    return ServeReport(
        responses=list(responses),
        p50_latency=p50,
        p99_latency=p99,
        throughput=throughput,
        mean_batch_size=mean_batch,
        ok=len(completed),
        shed=sum(r.status == STATUS_SHED for r in responses),
        timeout=sum(r.status == STATUS_TIMEOUT for r in responses),
        failed=sum(r.status == STATUS_FAILED for r in responses),
        metrics=observer.metrics.snapshot() if observer is not None else {},
    )
