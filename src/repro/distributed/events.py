"""Structured incident event log and the simulated clock behind it.

Every intervention the serving pool and the loss-spike guard make —
injected replica faults, health and breaker transitions, hedges,
failovers, brownouts, spikes and LR cuts — is recorded as a
:class:`FaultEvent` in an :class:`EventLog`, stamped with a
:class:`SimClock`'s time.  Benches and tests assert on the recorded kinds
and counts, which is what makes the recovery behaviour testable rather
than anecdotal.

Waiting never sleeps: the serving loop's backoffs, probes and service
times advance the :class:`SimClock`, so every scenario runs
deterministically and in milliseconds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

# Canonical event kinds, in the vocabulary tests assert against.
#: A bounded recovery stopped trying (the guard's intervention budget).
GIVE_UP = "give_up"
# Serving-resilience vocabulary (replica chaos, health, breakers, hedging).
REPLICA_CRASH = "replica_crash"
REPLICA_SLOW = "replica_slow"
PREDICT_FLAKY = "predict_flaky"
SERVABLE_CORRUPT = "servable_corrupt"
REPLICA_UNHEALTHY = "replica_unhealthy"
REPLICA_RECOVERED = "replica_recovered"
BREAKER_OPEN = "breaker_open"
BREAKER_HALF_OPEN = "breaker_half_open"
BREAKER_CLOSE = "breaker_close"
HEDGE = "hedge"
FAILOVER = "failover"
BROWNOUT = "brownout"
# Loss-spike guard vocabulary (detection, LR cut, completed re-warm).
SPIKE = "spike"
LR_BACKOFF = "lr_backoff"
LR_REWARM = "lr_rewarm"

EVENT_KINDS = (
    GIVE_UP,
    REPLICA_CRASH,
    REPLICA_SLOW,
    PREDICT_FLAKY,
    SERVABLE_CORRUPT,
    REPLICA_UNHEALTHY,
    REPLICA_RECOVERED,
    BREAKER_OPEN,
    BREAKER_HALF_OPEN,
    BREAKER_CLOSE,
    HEDGE,
    FAILOVER,
    BROWNOUT,
    SPIKE,
    LR_BACKOFF,
    LR_REWARM,
)


class SimClock:
    """Monotonic simulated time; backoff waits advance it instead of sleeping."""

    def __init__(self, start: float = 0.0):
        self._t = float(start)

    def now(self) -> float:
        return self._t

    def advance(self, seconds: float) -> float:
        if not seconds >= 0:
            raise ValueError(f"cannot advance clock by {seconds}")
        self._t += float(seconds)
        return self._t


@dataclass
class FaultEvent:
    """One recorded incident: what happened, to whom, and when."""

    time: float
    kind: str
    rank: Optional[int] = None
    step: Optional[int] = None
    detail: Dict[str, object] = field(default_factory=dict)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f" rank={self.rank}" if self.rank is not None else ""
        at = f" step={self.step}" if self.step is not None else ""
        return f"FaultEvent(t={self.time:.3f} {self.kind}{where}{at} {self.detail})"


class EventLog:
    """Append-only record of incident events.

    The log owns (or shares) a :class:`SimClock`; every recorded event is
    stamped with the clock's current simulated time.
    """

    def __init__(self, clock: Optional[SimClock] = None):
        self.clock = clock if clock is not None else SimClock()
        self.events: List[FaultEvent] = []

    # ------------------------------------------------------------------ #
    def record(
        self,
        kind: str,
        rank: Optional[int] = None,
        step: Optional[int] = None,
        **detail,
    ) -> FaultEvent:
        if kind not in EVENT_KINDS:
            raise ValueError(f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}")
        event = FaultEvent(
            time=self.clock.now(), kind=kind, rank=rank, step=step, detail=detail
        )
        self.events.append(event)
        return event

    # ------------------------------------------------------------------ #
    # Query helpers for assertions
    # ------------------------------------------------------------------ #
    def kinds(self) -> List[str]:
        """Event kinds in log order."""
        return [e.kind for e in self.events]

    def of_kind(self, kind: str) -> List[FaultEvent]:
        return [e for e in self.events if e.kind == kind]

    def count(self, kind: str) -> int:
        return len(self.of_kind(kind))

    def summary(self) -> Dict[str, int]:
        """Event counts by kind (only kinds that occurred)."""
        out: Dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def clear(self) -> None:
        self.events.clear()

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)
