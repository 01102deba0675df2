"""The inference server: servable + policies + observability, one handle.

:class:`InferenceServer` is a fixed configuration of the one serving
event loop, :class:`~repro.serving.ReplicaPool` (DESIGN.md §12): one
replica with every resilience mechanism off (:data:`SINGLE_SERVER`), fed
by a loaded :class:`~repro.serving.Servable` and watched by an
:class:`~repro.observability.Observer` on the shared simulated clock.  It
reduces a traffic trace to a :class:`~repro.serving.ServeReport` — the
p50/p99 latency, throughput, and shed/timeout accounting the benchmarks
and the ``repro serve`` CLI print.

Service time is modelled affinely (``a + b * batch_size``), calibrated
from real timed forwards by :func:`calibrate_service_model`: ``a`` is the
per-dispatch overhead micro-batching amortizes, ``b`` the per-sample
compute it cannot.  The model keeps the event loop deterministic while
staying anchored to measured compute on the current machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.distributed.events import SimClock
from repro.distributed.faults import RetryPolicy
from repro.observability import Observer
from repro.serving.batcher import (
    AdmissionPolicy,
    BatchPolicy,
    Request,
    ServeReport,
    summarize,
)
from repro.serving.resilience.pool import ReplicaPool
from repro.serving.servable import Servable
from repro.utils import time_callable

#: The :class:`ReplicaPool` settings that leave plain micro-batching with
#: admission control: nothing probes, trips, hedges, retries, or browns out.
SINGLE_SERVER = dict(
    hedge=None,
    breaker=None,
    health=None,
    degradation=None,
    retry=RetryPolicy(max_retries=0),
)


@dataclass
class AffineServiceModel:
    """``duration(n) = base + per_sample * n`` seconds."""

    base: float
    per_sample: float

    def __post_init__(self):
        if self.base < 0 or self.per_sample <= 0:
            raise ValueError(
                f"need base >= 0 and per_sample > 0, got {self.base}, {self.per_sample}"
            )

    def __call__(self, batch_size: int) -> float:
        return self.base + self.per_sample * batch_size

    def capacity(self, batch_size: int) -> float:
        """Sustainable throughput (req/s) at a fixed dispatch size."""
        return batch_size / self(batch_size)


def calibrate_service_model(
    servable: Servable,
    samples: Sequence[object],
    max_batch_size: int = 8,
    rounds: int = 3,
) -> AffineServiceModel:
    """Fit the affine model from real timed forwards at two batch sizes.

    Times ``predict`` at batch size 1 and ``max_batch_size`` (median of
    ``rounds``, one warmup each) and solves the two-point system for
    ``base``/``per_sample``.  Degenerate fits (non-positive slope on a
    noisy host) fall back to a flat per-sample cost.
    """
    if max_batch_size < 2:
        raise ValueError("max_batch_size must be >= 2 to calibrate a slope")
    one = [samples[0]]
    many = [samples[i % len(samples)] for i in range(max_batch_size)]
    t1 = time_callable(lambda: servable.predict(one), rounds=rounds, warmup=1)
    tn = time_callable(lambda: servable.predict(many), rounds=rounds, warmup=1)
    per_sample = (tn - t1) / (max_batch_size - 1)
    if per_sample <= 0:
        per_sample = tn / max_batch_size
    base = max(t1 - per_sample, 0.0)
    return AffineServiceModel(base=base, per_sample=per_sample)


class InferenceServer:
    """Micro-batched serving over a servable, fully observable."""

    def __init__(
        self,
        servable: Servable,
        batch: Optional[BatchPolicy] = None,
        admission: Optional[AdmissionPolicy] = None,
        service_model=None,
        observer: Optional[Observer] = None,
        clock: Optional[SimClock] = None,
    ):
        self.servable = servable
        self.clock = clock if clock is not None else SimClock()
        self.observer = observer if observer is not None else Observer(clock=self.clock)
        self.pool = ReplicaPool(
            servable.predict,
            num_replicas=1,
            batch=batch,
            admission=admission,
            service_model=service_model,
            clock=self.clock,
            observer=self.observer,
            **SINGLE_SERVER,
        )

    def serve(self, requests: Sequence[Request]) -> ServeReport:
        return summarize(self.pool.run(requests), self.observer)
