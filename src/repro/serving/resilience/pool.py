"""ReplicaPool: the one serving event loop — micro-batching to brownout.

The pool fronts N replicas of one servable behind a deterministic router
and drives a traffic trace on the shared
:class:`~repro.distributed.events.SimClock` as a heap-ordered
discrete-event simulation, so every run is deterministic and finishes in
milliseconds regardless of the traffic it models.  It is the only
serving loop: :class:`~repro.serving.InferenceServer` is this class with
one replica and everything below the first two bullets switched off.

* **micro-batching** — per replica, requests coalesce under
  ``(max_batch_size, max_wait)``: a batch dispatches when it is full or
  when its oldest member has waited ``max_wait``, and never before the
  replica is free (``fire_at = max(trigger, busy_until)``).  Events due
  at the same instant run before that instant's arrivals, so an arrival
  at exactly ``fire_at`` rides the *next* batch (the tie rule, pinned by
  ``tests/test_serving.py``);
* **admission** — a request that finds its replica's queue at
  ``max_queue_depth`` is shed at arrival, and one whose deadline would
  pass before its batch completes is timed out at dispatch instead of
  wasting a forward pass;
* **routing** — each request goes to the least-loaded replica (ties to
  the lowest index) among those that are alive, health-checked, and
  whose :class:`~repro.serving.resilience.CircuitBreaker` admits traffic;
* **health checking** — a :class:`~repro.serving.resilience.HealthChecker`
  probes every replica on a fixed simulated cadence;
* **hedged requests** — a request still unanswered ``hedge.delay``
  seconds after arrival is duplicated onto a sibling replica;
  first-response-wins, the loser is suppressed (and counted);
* **failover retries** — a failed dispatch (crash, flaky predict,
  corrupt servable) re-routes to a sibling after a seeded-jitter
  :class:`RetryPolicy` backoff;
* **graceful degradation** — as replicas drop out or queues fill, the
  admission policy tightens (shallower queues, shorter max-wait) instead
  of letting the pool collapse (the brownout ladder, DESIGN.md §13).

Chaos comes in as a pre-planned, seeded schedule
(:func:`~repro.serving.resilience.chaos_schedule`); every incident lands
in the shared :class:`~repro.distributed.events.EventLog` and the
``serve.replica.* / serve.breaker.* / serve.hedge.*`` metrics.

Bit-identity under failure: replicas serve the same servable and faults
only ever make a replica *fail loudly*, never mis-predict, so any
delivered response — whichever replica, hedge, or retry produced it — is
``np.array_equal`` to the fault-free answer.  The failover bit-identity
suite pins exactly this.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set

import numpy as np

from repro.distributed.events import (
    BROWNOUT,
    FAILOVER,
    HEDGE,
    PREDICT_FLAKY,
    REPLICA_CRASH,
    REPLICA_SLOW,
    SERVABLE_CORRUPT,
    EventLog,
    SimClock,
)
from repro.domains import Knobs, knob
from repro.serving.batcher import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SHED,
    STATUS_TIMEOUT,
    AdmissionPolicy,
    BatchPolicy,
    Request,
    Response,
    ServeReport,
    summarize,
)
from repro.serving.resilience.breaker import OPEN, BreakerPolicy, CircuitBreaker
from repro.serving.resilience.chaos import ChaosFault
from repro.serving.resilience.health import HealthChecker, HealthPolicy


@dataclass(frozen=True)
class RetryPolicy(Knobs):
    """Exponential-backoff failover retries.

    ``backoff(attempt)`` returns the simulated wait before re-attempting
    after the ``attempt``-th failure (0-indexed): base * factor**attempt.

    ``jitter`` (opt-in, fraction in [0, 1)) decorrelates the waits: the
    deterministic backoff is scaled by ``1 + jitter * u`` with ``u`` drawn
    uniformly from [-1, 1) by a generator seeded from ``(jitter_seed, key,
    attempt)``.  Identical retriers that pass distinct ``key`` values (a
    request id) therefore spread out instead of re-colliding in a
    synchronized retry storm — while any given ``(key, attempt)`` pair
    always waits the exact same simulated time.  ``jitter=0.0`` (the
    default) returns the undisturbed exponential schedule, bit for bit.
    """

    max_retries: int = knob(3, ge=0)
    backoff_base_s: float = knob(0.5, ge=0)
    backoff_factor: float = knob(2.0, ge=0)
    jitter: float = knob(0.0, ge=0, lt=1)
    jitter_seed: int = knob(0, ge=0)

    def backoff(self, attempt: int, key: int = 0) -> float:
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        wait = self.backoff_base_s * self.backoff_factor**attempt
        if self.jitter == 0.0:
            return wait
        rng = np.random.default_rng((self.jitter_seed, int(key), attempt))
        return wait * (1.0 + self.jitter * rng.uniform(-1.0, 1.0))


@dataclass(frozen=True)
class HedgePolicy(Knobs):
    """When to duplicate a waiting request (at most once per request)."""

    #: Simulated seconds after arrival before the hedge fires.
    delay: float = knob(0.005, ge=0)


@dataclass(frozen=True)
class DegradationPolicy(Knobs):
    """The brownout ladder: how admission tightens per degradation level.

    The level is the number of unavailable replicas (dead, unhealthy, or
    breaker-open), plus one when total queued work exceeds
    ``overload_queue_frac`` of the pool's aggregate queue capacity.  At
    level ``L`` the effective queue depth is ``depth * queue_depth_factor
    ** L`` and the effective batching max-wait is ``max_wait *
    max_wait_factor ** L`` — shed earlier, dispatch sooner, stay up.
    """

    queue_depth_factor: float = knob(0.5, gt=0, le=1)
    max_wait_factor: float = knob(0.5, gt=0, le=1)
    overload_queue_frac: float = knob(0.75, gt=0, le=1)


class _Pending:
    """Router-side bookkeeping for one logical request.

    ``deadline`` is the effective absolute deadline — the request's own,
    else arrival plus the admission policy's — kept here so the caller's
    :class:`Request` is never written to and can be replayed under a
    different policy.
    """

    __slots__ = ("req", "deadline", "done", "live", "tried", "hedges", "failovers")

    def __init__(self, req: Request, deadline: Optional[float]):
        self.req = req
        self.deadline = deadline
        self.done = False
        self.live = 0  # attempts queued, in flight, or awaiting re-dispatch
        self.tried: Set[int] = set()
        self.hedges = 0
        self.failovers = 0


class _Attempt:
    """One copy of a request sitting in (or flying through) a replica."""

    __slots__ = ("pending", "enqueued_at", "fire_deadline", "kind")

    def __init__(self, pending: _Pending, enqueued_at: float, fire_deadline: float, kind: str):
        self.pending = pending
        self.enqueued_at = enqueued_at
        self.fire_deadline = fire_deadline
        self.kind = kind  # "primary" | "hedge" | "failover"


class _Replica:
    """Simulated state of one servable replica."""

    __slots__ = (
        "index", "queue", "inflight", "busy_until", "alive", "corrupt",
        "flaky", "slow_from", "slow_until", "slow_factor", "epoch",
        "next_check", "breaker",
    )

    def __init__(self, index: int, breaker: Optional[CircuitBreaker]):
        self.index = index
        self.queue: List[_Attempt] = []
        self.inflight: List[_Attempt] = []
        self.busy_until = 0.0
        self.alive = True
        self.corrupt = False
        self.flaky = 0
        self.slow_from = 0.0
        self.slow_until = 0.0
        self.slow_factor = 1.0
        self.epoch = 0
        self.next_check: Optional[float] = None
        self.breaker = breaker

    def speed_factor(self, now: float) -> float:
        if self.slow_from <= now < self.slow_until:
            return self.slow_factor
        return 1.0

    @property
    def load(self) -> int:
        return len(self.queue) + len(self.inflight)


_EPS = 1e-12


class ReplicaPool:
    """Deterministic replicated serving loop with a failure story.

    ``model_fn(samples) -> array`` is shared by every replica (they serve
    the same servable); ``service_model(n) -> seconds`` is scaled by a
    replica's chaos slow-factor (default: instantaneous, which unit tests
    use to isolate the queueing behaviour).  Passing ``health=None``,
    ``hedge=None``, ``breaker=None``, ``degradation=None`` and
    ``retry=RetryPolicy(max_retries=0)`` yields a no-resilience pool —
    :data:`repro.serving.SINGLE_SERVER`, and the baseline arm the
    resilience bench compares against.
    """

    def __init__(
        self,
        model_fn: Callable[[List[object]], np.ndarray],
        num_replicas: int = 3,
        batch: Optional[BatchPolicy] = None,
        admission: Optional[AdmissionPolicy] = None,
        service_model: Optional[Callable[[int], float]] = None,
        hedge: Optional[HedgePolicy] = HedgePolicy(),
        breaker: Optional[BreakerPolicy] = BreakerPolicy(),
        health: Optional[HealthPolicy] = HealthPolicy(),
        degradation: Optional[DegradationPolicy] = DegradationPolicy(),
        retry: Optional[RetryPolicy] = None,
        chaos: Optional[Sequence[ChaosFault]] = None,
        clock: Optional[SimClock] = None,
        events: Optional[EventLog] = None,
        observer=None,
        seed: int = 0,
    ):
        if num_replicas < 1:
            raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
        self.model_fn = model_fn
        self.batch = batch if batch is not None else BatchPolicy()
        self.admission = admission if admission is not None else AdmissionPolicy()
        self.service_model = service_model if service_model is not None else (lambda n: 0.0)
        self.hedge = hedge
        self.degradation = degradation
        self.retry = retry if retry is not None else RetryPolicy(
            max_retries=2, backoff_base_s=0.002, backoff_factor=2.0,
            jitter=0.5, jitter_seed=seed,
        )
        self.clock = clock if clock is not None else SimClock()
        self.events = events if events is not None else EventLog(self.clock)
        self.observer = observer
        self.chaos = sorted(chaos, key=lambda f: (f.time, f.replica, f.kind)) if chaos else []
        metrics = observer.metrics if observer is not None else None
        self.replicas = [
            _Replica(
                i,
                CircuitBreaker(
                    breaker, self.clock, replica=i, seed=seed,
                    events=self.events, metrics=metrics,
                )
                if breaker is not None
                else None,
            )
            for i in range(num_replicas)
        ]
        self.health = (
            HealthChecker(health, self.clock, events=self.events, metrics=metrics)
            if health is not None
            else None
        )
        self._peak_level = 0
        self._peak_depth = 0

    # ------------------------------------------------------------------ #
    # Observability helpers
    # ------------------------------------------------------------------ #
    def _counter(self, name: str, amount: float = 1) -> None:
        if self.observer is not None:
            self.observer.metrics.counter(name).inc(amount)

    def _observe(self, name: str, value: float) -> None:
        if self.observer is not None:
            self.observer.metrics.histogram(name).observe(value)

    def _span(self, name: str, start: float, end: float, **attrs) -> None:
        if self.observer is not None:
            self.observer.span_at(name, start, end, **attrs)

    # ------------------------------------------------------------------ #
    # Event queue
    # ------------------------------------------------------------------ #
    def _push(self, time: float, kind: str, payload) -> None:
        # The tie rule: everything due at an instant — completions,
        # dispatch checks, chaos — runs before that instant's arrivals,
        # so a request landing exactly at a dispatch rides the next batch
        # and finds the queue slots that dispatch freed.
        heapq.heappush(self._heap, (time, kind == "arrival", self._seq, kind, payload))
        self._seq += 1

    def _advance_to(self, time: float) -> None:
        if self.clock.now() < time:
            self.clock.advance(time - self.clock.now())

    # ------------------------------------------------------------------ #
    # Routing and degradation
    # ------------------------------------------------------------------ #
    def _available(self, replica: _Replica) -> bool:
        """Router-visible availability (chaos the router has *detected*)."""
        if not replica.alive:
            return False
        if self.health is not None and not self.health.healthy(replica.index):
            return False
        return True

    def _degrade_level(self) -> int:
        if self.degradation is None:
            return 0
        level = sum(
            1
            for r in self.replicas
            if not self._available(r) or (r.breaker is not None and r.breaker.state == OPEN)
        )
        depth = self.admission.max_queue_depth
        if depth is not None:
            queued = sum(len(r.queue) for r in self.replicas)
            cap = depth * len(self.replicas)
            if queued >= self.degradation.overload_queue_frac * cap:
                level += 1
        return level

    def _refresh_level(self) -> int:
        level = self._degrade_level()
        if level != self._level:
            self.events.record(BROWNOUT, level=level)
            self._counter("serve.degrade.transitions")
            self._level = level
            self._peak_level = max(self._peak_level, level)
        return level

    def _effective_depth(self, level: int) -> Optional[int]:
        depth = self.admission.max_queue_depth
        if depth is None or self.degradation is None or level == 0:
            return depth
        return max(1, int(np.ceil(depth * self.degradation.queue_depth_factor**level)))

    def _effective_max_wait(self, level: int) -> float:
        wait = self.batch.max_wait
        if self.degradation is None or level == 0:
            return wait
        return wait * self.degradation.max_wait_factor**level

    def _candidates(self, exclude: Set[int] = frozenset()) -> List[_Replica]:
        """Admissible replicas in routing order (least load, lowest index).

        The breaker is consulted per candidate — a half-open breaker
        consumes one seeded admission draw per query, deterministically.
        """
        ranked = sorted(
            (r for r in self.replicas if self._available(r) and r.index not in exclude),
            key=lambda r: (r.load, r.index),
        )
        return [
            r for r in ranked if r.breaker is None or r.breaker.allow()
        ]

    # ------------------------------------------------------------------ #
    # Terminal responses
    # ------------------------------------------------------------------ #
    def _deliver(
        self,
        pending: _Pending,
        status: str,
        now: float,
        value: Optional[float] = None,
        dispatched_at: Optional[float] = None,
        batch_size: int = 0,
        replica: Optional[int] = None,
    ) -> None:
        pending.done = True
        self._open_requests -= 1
        req = pending.req
        self._responses.append(
            Response(
                request_id=req.request_id,
                client_id=req.client_id,
                status=status,
                value=value,
                arrival=req.arrival,
                dispatched_at=dispatched_at,
                completed_at=now,
                batch_size=batch_size,
                replica=replica,
            )
        )
        self._span(
            "serve.request", req.arrival, now,
            request_id=req.request_id, status=status, replica=replica,
        )

    # ------------------------------------------------------------------ #
    # Enqueueing and dispatch
    # ------------------------------------------------------------------ #
    def _schedule_check(self, replica: _Replica, at: float) -> None:
        at = max(at, self.clock.now())
        if replica.next_check is not None and replica.next_check <= at + _EPS:
            return
        replica.next_check = at
        self._push(at, "check", replica.index)

    def _enqueue(self, replica: _Replica, pending: _Pending, now: float, kind: str) -> None:
        level = self._refresh_level()
        pending.tried.add(replica.index)
        fire_deadline = now + self._effective_max_wait(level)
        replica.queue.append(_Attempt(pending, now, fire_deadline, kind))
        self._peak_depth = max(self._peak_depth, len(replica.queue))
        self._counter("serve.queue.admitted")
        self._schedule_check(replica, now)

    def _launch_failover(self, pending: _Pending, now: float, reason: str) -> bool:
        """Try to re-dispatch a failed attempt; returns False if given up.

        The caller still owns the attempt's live slot: on success the slot
        transfers to the scheduled re-dispatch, on failure the caller
        releases it.
        """
        if pending.failovers >= self.retry.max_retries or len(self.replicas) < 2:
            return False
        backoff = self.retry.backoff(pending.failovers, key=pending.req.request_id)
        pending.failovers += 1
        self.events.record(
            FAILOVER, request_id=pending.req.request_id, reason=reason
        )
        self._counter("serve.failover.launched")
        self._push(now + backoff, "enqueue", pending)
        return True

    def _attempt_failed(self, attempt: _Attempt, now: float, reason: str) -> None:
        pending = attempt.pending
        self._counter("serve.replica.attempt_failures")
        if pending.done:
            pending.live -= 1
            return
        if self._launch_failover(pending, now, reason):
            return  # live slot carried over to the scheduled re-dispatch
        pending.live -= 1
        if pending.live == 0:
            self._counter("serve.failed")
            self._deliver(pending, STATUS_FAILED, now)

    # ------------------------------------------------------------------ #
    # Event handlers
    # ------------------------------------------------------------------ #
    def _handle_arrival(self, now: float, req: Request) -> None:
        self._arrivals_left -= 1
        deadline = req.deadline
        if deadline is None and self.admission.deadline is not None:
            deadline = req.arrival + self.admission.deadline
        pending = _Pending(req, deadline)
        self._open_requests += 1
        level = self._refresh_level()
        depth = self._effective_depth(level)
        candidates = self._candidates()
        target = None
        for replica in candidates:
            if depth is None or len(replica.queue) < depth:
                target = replica
                break
        if target is None:
            name = "serve.shed.no_replica" if not candidates else "serve.shed.queue_full"
            self._counter(name)
            self._deliver(pending, STATUS_SHED, now)
            return
        pending.live = 1
        self._enqueue(target, pending, now, "primary")
        if self.hedge is not None and len(self.replicas) > 1:
            self._push(now + self.hedge.delay, "hedge", pending)

    def _handle_enqueue(self, now: float, pending: _Pending) -> None:
        """A failover re-dispatch whose backoff just elapsed."""
        if pending.done:
            pending.live -= 1
            return
        candidates = self._candidates(exclude=pending.tried)
        if not candidates:
            candidates = self._candidates()  # all siblings tried: retry anywhere
        if not candidates:
            pending.live -= 1
            if pending.live == 0:
                self._counter("serve.failed")
                self._deliver(pending, STATUS_FAILED, now)
            return
        self._enqueue(candidates[0], pending, now, "failover")

    def _handle_hedge(self, now: float, pending: _Pending) -> None:
        if pending.done or pending.hedges:
            return
        candidates = self._candidates(exclude=pending.tried)
        if not candidates:
            return
        pending.hedges += 1
        pending.live += 1
        self.events.record(
            HEDGE, rank=candidates[0].index,
            request_id=pending.req.request_id,
        )
        self._counter("serve.hedge.launched")
        self._enqueue(candidates[0], pending, now, "hedge")

    def _handle_check(self, now: float, index: int) -> None:
        replica = self.replicas[index]
        if replica.next_check is not None and abs(replica.next_check - now) <= _EPS:
            replica.next_check = None
        if not replica.alive or not replica.queue:
            return
        max_batch = self.batch.max_batch_size
        if len(replica.queue) >= max_batch:
            trigger = now
        else:
            trigger = replica.queue[0].fire_deadline
        fire_at = max(trigger, replica.busy_until)
        if fire_at > now + _EPS:
            self._schedule_check(replica, fire_at)
            return
        self._dispatch(replica, now)
        if replica.queue:
            self._schedule_check(replica, now)

    def _dispatch(self, replica: _Replica, now: float) -> None:
        max_batch = self.batch.max_batch_size
        batch = replica.queue[:max_batch]
        del replica.queue[:max_batch]

        # Drop attempts whose logical request already finished elsewhere
        # (a hedge or failover won) before spending a forward on them.
        live_batch: List[_Attempt] = []
        for attempt in batch:
            if attempt.pending.done:
                attempt.pending.live -= 1
                self._counter("serve.hedge.cancelled")
            else:
                live_batch.append(attempt)
        if not live_batch:
            return

        duration = float(self.service_model(len(live_batch))) * replica.speed_factor(now)
        completed_at = now + duration

        # Conservative deadline check: the duration is computed before
        # timeouts are removed, so removal only shrinks the batch and the
        # verdict stays deterministic.
        kept: List[_Attempt] = []
        for attempt in live_batch:
            deadline = attempt.pending.deadline
            if deadline is not None and completed_at > deadline:
                self._counter("serve.shed.deadline")
                attempt.pending.live -= 1
                if attempt.pending.live == 0:
                    self._deliver(
                        attempt.pending, STATUS_TIMEOUT, now,
                        dispatched_at=now, batch_size=len(live_batch),
                        replica=replica.index,
                    )
            else:
                kept.append(attempt)
        if not kept:
            return

        # Fault modes fail the whole dispatch loudly — never a wrong value.
        if replica.corrupt or replica.flaky > 0:
            reason = SERVABLE_CORRUPT if replica.corrupt else PREDICT_FLAKY
            if replica.flaky > 0 and not replica.corrupt:
                replica.flaky -= 1
            if replica.breaker is not None:
                replica.breaker.record_error()
            self._counter("serve.replica.dispatch_errors")
            for attempt in kept:
                self._attempt_failed(attempt, now, reason)
            return

        replica.inflight = kept
        replica.busy_until = completed_at
        self._counter("serve.batch.dispatched")
        self._counter("serve.batch.requests", len(kept))
        self._observe("serve.batch.size", len(kept))
        self._push(
            completed_at,
            "complete",
            {
                "replica": replica.index,
                "batch": kept,
                "fired_at": now,
                "duration": duration,
                "epoch": replica.epoch,
            },
        )

    def _handle_complete(self, now: float, payload: dict) -> None:
        replica = self.replicas[payload["replica"]]
        if payload["epoch"] != replica.epoch:
            return  # the replica crashed mid-flight; attempts already failed over
        batch: List[_Attempt] = payload["batch"]
        replica.inflight = []
        values = np.atleast_1d(
            np.asarray(self.model_fn([a.pending.req.sample for a in batch]))
        )
        if len(values) != len(batch):
            raise RuntimeError(
                f"model_fn returned {len(values)} values for {len(batch)} requests"
            )
        if replica.breaker is not None:
            replica.breaker.record_success(latency=payload["duration"])
        fired_at = payload["fired_at"]
        self._span(
            "serve.batch", fired_at, now,
            batch_size=len(batch), replica=replica.index,
        )
        for attempt, value in zip(batch, values):
            pending = attempt.pending
            pending.live -= 1
            if pending.done:
                self._counter("serve.hedge.wasted")
                continue
            if attempt.kind == "hedge":
                self._counter("serve.hedge.won")
            self._observe("serve.queue.wait_seconds", fired_at - attempt.enqueued_at)
            self._deliver(
                pending, STATUS_OK, now, value=float(value),
                dispatched_at=fired_at, batch_size=len(batch),
                replica=replica.index,
            )
        if replica.queue:
            self._schedule_check(replica, now)

    def _handle_probe(self, now: float, index: int) -> None:
        replica = self.replicas[index]
        up = replica.alive and not replica.corrupt
        latency = (
            float(self.service_model(1)) * replica.speed_factor(now) if up else 0.0
        )
        self.health.observe(index, ok=up, latency=latency)
        self._refresh_level()
        if self._arrivals_left > 0 or self._open_requests > 0:
            self._push(now + self.health.policy.interval, "probe", index)

    def _handle_chaos(self, now: float, fault: ChaosFault) -> None:
        replica = self.replicas[fault.replica % len(self.replicas)]
        fault.fired = True
        if fault.kind == REPLICA_CRASH:
            replica.alive = False
            replica.epoch += 1
            self.events.record(REPLICA_CRASH, rank=replica.index)
            self._counter("serve.replica.crashes")
            affected = replica.inflight + replica.queue
            replica.inflight = []
            replica.queue = []
            for attempt in affected:
                self._attempt_failed(attempt, now, REPLICA_CRASH)
        elif fault.kind == REPLICA_SLOW:
            replica.slow_from = now
            replica.slow_until = now + fault.duration
            replica.slow_factor = fault.factor
            self.events.record(
                REPLICA_SLOW, rank=replica.index,
                factor=fault.factor, duration=fault.duration,
            )
            self._counter("serve.replica.slowdowns")
        elif fault.kind == SERVABLE_CORRUPT:
            replica.corrupt = True
            self.events.record(SERVABLE_CORRUPT, rank=replica.index)
            self._counter("serve.replica.corruptions")
        elif fault.kind == PREDICT_FLAKY:
            replica.flaky += 1
            self.events.record(PREDICT_FLAKY, rank=replica.index)
            self._counter("serve.replica.flaky")
        else:
            raise ValueError(f"unknown chaos fault kind {fault.kind!r}")
        self._refresh_level()

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    _HANDLERS = {
        "arrival": "_handle_arrival",
        "enqueue": "_handle_enqueue",
        "hedge": "_handle_hedge",
        "check": "_handle_check",
        "complete": "_handle_complete",
        "probe": "_handle_probe",
        "chaos": "_handle_chaos",
    }

    def run(self, requests: Sequence[Request]) -> List[Response]:
        """Drive every request to exactly one terminal response."""
        self._heap: List = []
        self._seq = 0
        self._responses: List[Response] = []
        self._open_requests = 0
        self._level = 0
        ordered = sorted(requests, key=lambda r: (r.arrival, r.request_id))
        self._arrivals_left = len(ordered)
        for req in ordered:
            self._push(req.arrival, "arrival", req)
        for fault in self.chaos:
            self._push(fault.time, "chaos", fault)
        if self.health is not None:
            for replica in self.replicas:
                self._push(self.health.policy.interval, "probe", replica.index)

        while self._heap:
            time, _, _, kind, payload = heapq.heappop(self._heap)
            self._advance_to(time)
            getattr(self, self._HANDLERS[kind])(time, payload)

        if self.observer is not None:
            self.observer.metrics.gauge("serve.queue.peak_depth").set(self._peak_depth)
            self.observer.metrics.gauge("serve.degrade.peak_level").set(self._peak_level)
            self.observer.metrics.gauge("serve.replica.count").set(len(self.replicas))
            self.observer.metrics.gauge(
                "serve.replica.available"
            ).set(sum(1 for r in self.replicas if self._available(r)))
        self._responses.sort(key=lambda r: (r.completed_at, r.arrival, r.request_id))
        return self._responses

    def serve(self, requests: Sequence[Request]) -> ServeReport:
        responses = self.run(requests)
        return summarize(responses, self.observer)
