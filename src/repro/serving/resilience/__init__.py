"""Resilient replicated serving: health, breakers, hedging, chaos.

See DESIGN.md §12–13.  The subpackage holds the serving layer's one event
loop and its failure story: a :class:`ReplicaPool` micro-batches for N
replicas of one servable behind a deterministic router with health
checking (:class:`HealthChecker`), per-replica circuit breakers
(:class:`CircuitBreaker`), hedged requests and failover retries
(:class:`HedgePolicy` + :class:`RetryPolicy`), and a graceful degradation
ladder (:class:`DegradationPolicy`) — all on the shared simulated clock,
all seeded, all bit-reproducible.  Chaos is planned by
:func:`chaos_schedule`, a seeded planner over slots of the trace.
"""

from repro.serving.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerPolicy,
    CircuitBreaker,
)
from repro.serving.resilience.chaos import (
    SERVING_FAULT_KINDS,
    ChaosFault,
    ServingChaosProfile,
    chaos_schedule,
)
from repro.serving.resilience.health import HealthChecker, HealthPolicy
from repro.serving.resilience.pool import (
    DegradationPolicy,
    HedgePolicy,
    ReplicaPool,
    RetryPolicy,
)

__all__ = [
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "BreakerPolicy",
    "CircuitBreaker",
    "SERVING_FAULT_KINDS",
    "ChaosFault",
    "ServingChaosProfile",
    "chaos_schedule",
    "HealthChecker",
    "HealthPolicy",
    "DegradationPolicy",
    "HedgePolicy",
    "ReplicaPool",
    "RetryPolicy",
]
