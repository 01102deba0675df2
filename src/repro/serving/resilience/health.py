"""Synthetic-probe health checking for serving replicas.

A :class:`HealthChecker` probes every replica at a fixed simulated
interval with a synthetic request (out-of-band: probes do not occupy the
replica's serving queue).  A probe fails when the replica is down
(crashed, corrupt servable — it cannot answer at all) or when its
simulated probe latency exceeds ``latency_threshold`` (a slow replica is
an unhealthy replica from the router's point of view).

Status changes are *hysteretic*: ``unhealthy_after`` consecutive probe
failures mark a replica unhealthy, ``healthy_after`` consecutive
successes mark it recovered — single blips in either direction do not
flap the routing table.  Transitions land in the shared
:class:`~repro.distributed.events.EventLog`
(``replica_unhealthy`` / ``replica_recovered``) and in the
``serve.replica.*`` metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.distributed.events import (
    REPLICA_RECOVERED,
    REPLICA_UNHEALTHY,
    EventLog,
    SimClock,
)
from repro.domains import Knobs, knob


@dataclass(frozen=True)
class HealthPolicy(Knobs):
    """Probe cadence and hysteresis knobs."""

    #: Simulated seconds between probes of the same replica.
    interval: float = knob(0.02, gt=0)
    #: Probe latency above this counts as a failed probe.
    latency_threshold: float = knob(0.05, gt=0)
    #: Consecutive failures before a replica is marked unhealthy.
    unhealthy_after: int = knob(2, ge=1)
    #: Consecutive successes before an unhealthy replica recovers.
    healthy_after: int = knob(2, ge=1)


class HealthChecker:
    """Tracks per-replica health from a stream of probe outcomes."""

    def __init__(
        self,
        policy: HealthPolicy,
        clock: SimClock,
        events: Optional[EventLog] = None,
        metrics=None,
    ):
        self.policy = policy
        self.clock = clock
        self.events = events
        self.metrics = metrics
        self._healthy: Dict[int, bool] = {}
        self._fail_streak: Dict[int, int] = {}
        self._ok_streak: Dict[int, int] = {}

    # ------------------------------------------------------------------ #
    def healthy(self, replica: int) -> bool:
        """Current verdict; replicas start healthy until probed otherwise."""
        return self._healthy.get(replica, True)

    def observe(self, replica: int, ok: bool, latency: float = 0.0) -> bool:
        """Fold one probe outcome in; returns the (possibly new) verdict."""
        good = ok and latency <= self.policy.latency_threshold
        if self.metrics is not None:
            name = "serve.health.probe_ok" if good else "serve.health.probe_fail"
            self.metrics.counter(name).inc()
        if good:
            self._fail_streak[replica] = 0
            self._ok_streak[replica] = self._ok_streak.get(replica, 0) + 1
            if (
                not self.healthy(replica)
                and self._ok_streak[replica] >= self.policy.healthy_after
            ):
                self._healthy[replica] = True
                if self.events is not None:
                    self.events.record(REPLICA_RECOVERED, rank=replica)
                if self.metrics is not None:
                    self.metrics.counter("serve.replica.recovered").inc()
        else:
            self._ok_streak[replica] = 0
            self._fail_streak[replica] = self._fail_streak.get(replica, 0) + 1
            if (
                self.healthy(replica)
                and self._fail_streak[replica] >= self.policy.unhealthy_after
            ):
                self._healthy[replica] = False
                if self.events is not None:
                    self.events.record(REPLICA_UNHEALTHY, rank=replica)
                if self.metrics is not None:
                    self.metrics.counter("serve.replica.unhealthy").inc()
        return self.healthy(replica)
