"""Online inference serving: model registry, micro-batching, admission.

The serving layer closes the loop the ROADMAP's north star opens —
trained surrogate models answering "heavy traffic from millions of users"
— in the same simulated, deterministic style as the distributed layer:

* :class:`ModelRegistry` / :class:`Servable` — CRC-checked checkpoint
  archives rebuilt into eval-mode tasks (``servable.py``);
* :class:`Request` / :class:`Response` / :class:`BatchPolicy` /
  :class:`AdmissionPolicy` / :class:`ServeReport` — the vocabulary of a
  serving run and its latency/throughput reduction (``batcher.py``);
* :class:`ReplicaPool` — the one discrete-event loop: dynamic request
  coalescing, load shedding and deadlines on a simulated clock, plus —
  when switched on — health checks, circuit breakers, hedging, failover,
  and seeded chaos (``resilience/``, DESIGN.md §12–13);
* :class:`InferenceServer` — that loop fixed to one replica with the
  resilience machinery off, bundled with a servable and an observer
  (``server.py``);
* :func:`poisson_arrivals` / :func:`make_requests` — seeded open-loop
  traffic (``traffic.py``).

The core numerical guarantee: a request's prediction is bit-identical
whether it is served alone or coalesced into any micro-batch, because all
serving forwards run under
:func:`repro.autograd.batch_invariant_kernels` (DESIGN.md §12).
"""

from repro.serving.batcher import (
    AdmissionPolicy,
    BatchPolicy,
    Request,
    Response,
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    ServeReport,
    summarize,
)
from repro.serving.resilience import (
    BreakerPolicy,
    ChaosFault,
    CircuitBreaker,
    DegradationPolicy,
    HealthChecker,
    HealthPolicy,
    HedgePolicy,
    ReplicaPool,
    RetryPolicy,
    ServingChaosProfile,
    chaos_schedule,
)
from repro.serving.servable import (
    ModelRegistry,
    Servable,
    ServableSpec,
    load_servable,
    matmul_mode_line,
    save_servable,
)
from repro.serving.server import (
    AffineServiceModel,
    DegenerateFitWarning,
    InferenceServer,
    SINGLE_SERVER,
    calibrate_service_model,
)
from repro.serving.traffic import make_requests, poisson_arrivals

__all__ = [
    "AdmissionPolicy",
    "AffineServiceModel",
    "BatchPolicy",
    "BreakerPolicy",
    "ChaosFault",
    "CircuitBreaker",
    "DegenerateFitWarning",
    "DegradationPolicy",
    "HealthChecker",
    "HealthPolicy",
    "HedgePolicy",
    "InferenceServer",
    "ModelRegistry",
    "ReplicaPool",
    "RetryPolicy",
    "Request",
    "Response",
    "SINGLE_SERVER",
    "STATUS_FAILED",
    "STATUS_OK",
    "STATUS_SHED",
    "STATUS_TIMEOUT",
    "Servable",
    "ServableSpec",
    "ServeReport",
    "ServingChaosProfile",
    "calibrate_service_model",
    "chaos_schedule",
    "load_servable",
    "make_requests",
    "matmul_mode_line",
    "poisson_arrivals",
    "save_servable",
    "summarize",
]
