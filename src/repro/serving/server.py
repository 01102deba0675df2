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

import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.distributed.events import SimClock
from repro.domains import Knobs, knob
from repro.observability import Observer
from repro.serving.batcher import (
    AdmissionPolicy,
    BatchPolicy,
    Request,
    ServeReport,
    summarize,
)
from repro.serving.resilience.pool import ReplicaPool, RetryPolicy
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


class DegenerateFitWarning(RuntimeWarning):
    """The two timed batch sizes did not yield a positive per-sample slope."""


@dataclass
class AffineServiceModel(Knobs):
    """``duration(n) = base + per_sample * n`` seconds."""

    base: float = knob(ge=0)
    per_sample: float = knob(gt=0)
    #: Set by :func:`calibrate_service_model` when the fitted slope was not
    #: positive and ``per_sample`` is the flat ``tn / n`` instead.
    degenerate_fit: bool = field(default=False, init=False)

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
    ``base``/``per_sample``.  A degenerate fit (non-positive slope: the
    larger batch timed no slower, which a noisy host produces now that
    batch 1 and batch 8 both cost one GEMM tile per layer) falls back to a
    flat per-sample cost, with a :class:`DegenerateFitWarning` and
    ``degenerate_fit`` set on the returned model.
    """
    if max_batch_size < 2:
        raise ValueError("max_batch_size must be >= 2 to calibrate a slope")
    one = [samples[0]]
    many = [samples[i % len(samples)] for i in range(max_batch_size)]
    t1 = time_callable(lambda: servable.predict(one), rounds=rounds, warmup=1)
    tn = time_callable(lambda: servable.predict(many), rounds=rounds, warmup=1)
    per_sample = (tn - t1) / (max_batch_size - 1)
    degenerate = per_sample <= 0
    if degenerate:
        warnings.warn(
            f"degenerate service-model fit: batch {max_batch_size} timed "
            f"tn={tn * 1e3:.3f} ms <= batch 1 at t1={t1 * 1e3:.3f} ms; "
            "using a flat per-sample cost",
            DegenerateFitWarning,
            stacklevel=2,
        )
        per_sample = tn / max_batch_size
    base = max(t1 - per_sample, 0.0)
    model = AffineServiceModel(base=base, per_sample=per_sample)
    model.degenerate_fit = degenerate
    return model


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
