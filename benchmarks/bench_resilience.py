"""Resilience benchmark: replicated serving vs a bare replica under chaos.

The experiment the resilience layer exists for: the same seeded fault
schedule — one replica crash, one latency spike, one corrupt servable —
is driven into two arms serving identical seeded-Poisson traffic on the
simulated clock:

* **pool** — a 3-replica :class:`~repro.serving.ReplicaPool` with the
  full failure story (health checks, circuit breakers, hedged requests,
  failover retries, brownout degradation);
* **baseline** — a single replica with every resilience mechanism off,
  hit by the *same* schedule (same seed, same slot draws; all faults
  land on the only replica there is).

The headline, gated entries are availabilities::

    resilience.availability.pool   >= 0.95   (the pool rides out the chaos)
    resilience.availability.gain   = pool / baseline

with the baseline arm collapsing below 0.75 — the delta is what
replication + failover buys.  A third, fault-free arm provides the
reference answers: every response the chaotic pool delivers must be
bit-identical (``np.array_equal``) to the fault-free value for the same
request, because replicas share one servable, all forwards run under
batch-invariant kernels, and faults only ever fail loudly.  The bench
*asserts* all three properties, so a regression fails the run itself,
not just the gate.

Everything runs on the fixed reference service model (1 ms + 0.25
ms/sample), so the simulation — and every gated entry — is
bit-reproducible on any machine.  Baseline lives in
``benchmarks/BENCH_resilience.json``, gated by ``scripts/bench_gate.py
--suite resilience``.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Optional

import numpy as np

from benchmarks.common import bench_result, print_header
from repro.distributed.events import SimClock
from repro.observability import Observer
from repro.serving import (
    AdmissionPolicy,
    AffineServiceModel,
    BatchPolicy,
    ReplicaPool,
    SINGLE_SERVER,
    Servable,
    ServableSpec,
    chaos_schedule,
    make_requests,
    poisson_arrivals,
)
from repro.serving.demo import demo_request_samples

TRAFFIC_SEED = 17
#: Pinned so the schedule spreads the three fault kinds across all three
#: replicas (crash -> r2, slow -> r1, corrupt -> r0): every resilience
#: mechanism is exercised in one run.
CHAOS_SEED = 2
CHAOS_PROFILE = "replica_crash:1,replica_slow:1,servable_corrupt:1"
NUM_REPLICAS = 3
QUEUE_DEPTH = 16
BATCHED_SIZE = 8

#: Fixed reference service model (same shape as the serving bench): the
#: whole simulation is bit-reproducible across machines, so a drift in
#: any gated entry means the resilience logic changed, not the host.
REFERENCE_SERVICE = AffineServiceModel(base=1.0e-3, per_sample=0.25e-3)


@functools.lru_cache(maxsize=1)
def _servable() -> tuple:
    """An untrained, seeded servable: real forwards, bench-fast setup.

    The bit-identity property under test is a property of the serving
    path (shared servable + batch-invariant kernels + loud-failure
    faults), not of the weights, so the bench skips the demo training
    run the serving suite pays.
    """
    spec = ServableSpec(
        target="band_gap",
        encoder_name="egnn",
        hidden_dim=12,
        num_layers=2,
        position_dim=4,
        head_hidden_dim=12,
        head_blocks=1,
        cutoff=4.5,
        normalizer=[0.25, 1.5],
    )
    servable = Servable(spec.build_task(), spec)
    samples = demo_request_samples(8)
    return servable, samples


def _requests(samples, rate: float, count: int):
    return make_requests(
        samples, poisson_arrivals(rate, count, seed=TRAFFIC_SEED)
    )


def _run_pool(
    servable,
    samples,
    rate: float,
    count: int,
    resilient: bool,
    chaos_seed: Optional[int],
):
    clock = SimClock()
    observer = Observer(clock=clock)
    requests = _requests(samples, rate, count)
    duration = max(r.arrival for r in requests)
    num = NUM_REPLICAS if resilient else 1
    chaos = (
        chaos_schedule(CHAOS_PROFILE, num, duration, seed=chaos_seed)
        if chaos_seed is not None
        else None
    )
    kwargs = {} if resilient else SINGLE_SERVER
    pool = ReplicaPool(
        servable.predict,
        num_replicas=num,
        batch=BatchPolicy(max_batch_size=BATCHED_SIZE, max_wait=0.004),
        admission=AdmissionPolicy(max_queue_depth=QUEUE_DEPTH, deadline=0.25),
        service_model=REFERENCE_SERVICE,
        chaos=chaos,
        clock=clock,
        observer=observer,
        seed=0,
        **kwargs,
    )
    return pool, pool.serve(requests)


def collect_results(rounds: int = 5, warmup: int = 1, tiny: bool = False) -> List[Dict]:
    servable, samples = _servable()
    count = 120 if tiny else 400
    # Offered load at ~60% of one replica's batched capacity: two healthy
    # replicas absorb it with room to spare, one bare replica is fine
    # until the schedule takes it out.
    rate = 0.6 * REFERENCE_SERVICE.capacity(BATCHED_SIZE)

    pool, chaotic = _run_pool(servable, samples, rate, count, True, CHAOS_SEED)
    _, baseline = _run_pool(servable, samples, rate, count, False, CHAOS_SEED)
    _, fault_free = _run_pool(servable, samples, rate, count, False, None)

    # Bit-identity under failover: every delivered value equals the
    # fault-free single-replica answer for the same request.
    reference = {r.request_id: r.value for r in fault_free.responses if r.ok}
    delivered = [r for r in chaotic.responses if r.ok]
    mismatches = sum(
        1 for r in delivered if not np.array_equal(r.value, reference[r.request_id])
    )
    if mismatches:
        raise RuntimeError(
            f"failover broke bit-identity: {mismatches}/{len(delivered)} "
            f"delivered responses differ from the fault-free reference"
        )
    if chaotic.availability < 0.95:
        raise RuntimeError(
            f"resilient pool availability {chaotic.availability:.3f} < 0.95 "
            f"under {CHAOS_PROFILE!r} (seed {CHAOS_SEED})"
        )
    if baseline.availability >= 0.75:
        raise RuntimeError(
            f"bare-replica baseline availability {baseline.availability:.3f} "
            f">= 0.75 — the chaos schedule is not stressful enough"
        )
    gain = (
        chaotic.availability / baseline.availability
        if baseline.availability > 0
        else float("inf")
    )
    events = pool.events.summary()
    metrics = chaotic.metrics

    def counter(name: str) -> float:
        return metrics.get(name, {}).get("value", 0.0)

    return [
        bench_result(
            "resilience.availability.pool", "speedup", chaotic.availability, "x",
            detail=f"{NUM_REPLICAS} replicas under {CHAOS_PROFILE}",
        ),
        bench_result(
            "resilience.availability.gain", "speedup", gain, "x",
            detail="pool availability / bare-replica availability, same schedule",
        ),
        bench_result(
            "resilience.availability.baseline", "metric",
            baseline.availability, "fraction",
        ),
        bench_result("resilience.latency.p99.pool", "time", chaotic.p99_latency, "s"),
        bench_result(
            "resilience.latency.p99.fault_free", "time", fault_free.p99_latency, "s"
        ),
        bench_result("resilience.delivered", "metric", float(chaotic.ok), "req"),
        bench_result(
            "resilience.failovers", "metric",
            float(events.get("failover", 0)), "count",
        ),
        bench_result(
            "resilience.hedges.launched", "metric",
            counter("serve.hedge.launched"), "count",
        ),
        bench_result(
            "resilience.hedges.won", "metric", counter("serve.hedge.won"), "count",
        ),
        bench_result(
            "resilience.breaker.opens", "metric",
            float(events.get("breaker_open", 0)), "count",
        ),
        bench_result(
            "resilience.bit_identical", "metric", 1.0, "bool",
            detail=f"{len(delivered)} delivered responses vs fault-free reference",
        ),
    ]


def print_results(results: List[Dict]) -> None:
    print_header("Resilience: 3-replica pool vs bare replica under seeded chaos")
    by_name = {r["name"]: r for r in results}
    print(
        f"chaos: {CHAOS_PROFILE} (seed {CHAOS_SEED}), reference service "
        f"{REFERENCE_SERVICE.base * 1e3:.3f} ms + "
        f"{REFERENCE_SERVICE.per_sample * 1e3:.3f} ms/sample"
    )
    print(
        f"availability: pool {by_name['resilience.availability.pool']['value']:.3f} "
        f"vs bare {by_name['resilience.availability.baseline']['value']:.3f} "
        f"-> gain {by_name['resilience.availability.gain']['value']:.2f}x"
    )
    print(
        f"p99 latency: pool {by_name['resilience.latency.p99.pool']['value'] * 1e3:.2f} ms "
        f"(fault-free "
        f"{by_name['resilience.latency.p99.fault_free']['value'] * 1e3:.2f} ms)"
    )
    print(
        f"recovery traffic: {by_name['resilience.failovers']['value']:.0f} failovers, "
        f"{by_name['resilience.hedges.launched']['value']:.0f} hedges "
        f"({by_name['resilience.hedges.won']['value']:.0f} won), "
        f"{by_name['resilience.breaker.opens']['value']:.0f} breaker opens"
    )
    print(
        f"bit-identity vs fault-free reference: "
        f"{'PASS' if by_name['resilience.bit_identical']['value'] == 1.0 else 'FAIL'} "
        f"({by_name['resilience.bit_identical']['detail']})"
    )
