"""Per-replica circuit breaker: closed -> open -> half-open -> closed.

The breaker watches the outcome stream of one replica (successes with
their service latency, failures) over a rolling window and cuts traffic
to the replica when it is evidently broken or evidently slow — the
standard pattern for keeping a sick backend from dragging the whole
endpoint's latency down while it recovers.

State machine (DESIGN.md §13):

* **closed** — traffic flows; every outcome lands in the rolling window.
  When the window holds at least ``min_events`` outcomes and the *bad*
  fraction (failures plus successes slower than ``latency_slo``) reaches
  ``error_threshold``, the breaker opens.
* **open** — traffic is rejected outright for ``cooldown`` simulated
  seconds, then the breaker moves to half-open on the next admission
  query.
* **half-open** — a seeded fraction (``probe_admission``) of requests is
  admitted as probes; ``probe_successes`` consecutive good outcomes close
  the breaker, any bad outcome re-opens it (and restarts the cooldown).

Everything is deterministic: time is the shared ``SimClock``, and the
half-open admission draw comes from a generator seeded per breaker, so
the same run always admits the same probes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.distributed.events import (
    BREAKER_CLOSE,
    BREAKER_HALF_OPEN,
    BREAKER_OPEN,
    EventLog,
    SimClock,
)
from repro.domains import Knobs, knob

#: Breaker state vocabulary.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class BreakerPolicy(Knobs):
    """Trip/recovery knobs for one replica's circuit breaker."""

    #: Rolling outcome window length.
    window: int = knob(16, ge=1)
    #: Open when bad-outcome fraction in the window reaches this.
    error_threshold: float = knob(0.5, gt=0, le=1)
    #: Outcomes required in the window before the trip rule applies.
    min_events: int = knob(4, ge=1)
    #: Successes slower than this count as bad outcomes (None disables).
    latency_slo: Optional[float] = knob(None, gt=0)
    #: Simulated seconds to stay open before probing.
    cooldown: float = knob(0.1, ge=0)
    #: Fraction of half-open requests admitted as probes.
    probe_admission: float = knob(0.25, gt=0, le=1)
    #: Consecutive good probe outcomes that close the breaker.
    probe_successes: int = knob(2, ge=1)


class CircuitBreaker:
    """Deterministic per-replica breaker on the simulated clock."""

    def __init__(
        self,
        policy: BreakerPolicy,
        clock: SimClock,
        replica: int = 0,
        seed: int = 0,
        events: Optional[EventLog] = None,
        metrics=None,
    ):
        self.policy = policy
        self.clock = clock
        self.replica = replica
        self.events = events
        self.metrics = metrics
        self.state = CLOSED
        self.opened_at: Optional[float] = None
        self.transitions: List[Tuple[float, str]] = []
        self._window: List[bool] = []  # True = bad outcome
        self._probe_streak = 0
        self._rng = np.random.default_rng((seed, replica))

    # ------------------------------------------------------------------ #
    def _record_transition(self, state: str, event_kind: str) -> None:
        self.state = state
        self.transitions.append((self.clock.now(), state))
        if self.events is not None:
            self.events.record(event_kind, rank=self.replica)
        if self.metrics is not None:
            self.metrics.counter(f"serve.breaker.{state}").inc()

    def _open(self) -> None:
        self.opened_at = self.clock.now()
        self._window.clear()
        self._probe_streak = 0
        self._record_transition(OPEN, BREAKER_OPEN)

    def _close(self) -> None:
        self.opened_at = None
        self._window.clear()
        self._probe_streak = 0
        self._record_transition(CLOSED, BREAKER_CLOSE)

    # ------------------------------------------------------------------ #
    def allow(self) -> bool:
        """Whether a request may be routed to this replica right now.

        Half-open admission consumes one seeded draw per query, so the
        sequence of admitted probes is a deterministic function of the
        breaker's seed and the (deterministic) query stream.
        """
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if self.clock.now() - self.opened_at >= self.policy.cooldown:
                self._record_transition(HALF_OPEN, BREAKER_HALF_OPEN)
            else:
                return False
        # Half-open: admit a seeded fraction as probes.
        return bool(self._rng.random() < self.policy.probe_admission)

    # ------------------------------------------------------------------ #
    def _observe(self, bad: bool) -> None:
        if self.state == HALF_OPEN:
            if bad:
                self._open()
            else:
                self._probe_streak += 1
                if self._probe_streak >= self.policy.probe_successes:
                    self._close()
            return
        if self.state == OPEN:
            # Outcome of a request dispatched before the trip; the window
            # was cleared at open time, nothing more to learn from it.
            return
        self._window.append(bad)
        if len(self._window) > self.policy.window:
            del self._window[0]
        if len(self._window) >= self.policy.min_events:
            bad_fraction = sum(self._window) / len(self._window)
            if bad_fraction >= self.policy.error_threshold:
                self._open()

    def record_success(self, latency: float) -> None:
        """A dispatch completed; slow completions count against the SLO."""
        slo = self.policy.latency_slo
        self._observe(bad=slo is not None and latency > slo)

    def record_error(self) -> None:
        """A dispatch failed outright (crash, flaky predict, corrupt load)."""
        self._observe(bad=True)
