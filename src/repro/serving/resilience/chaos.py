"""Serving-side chaos: seeded replica faults over a traffic trace.

A seeded planner lands ``(kind, slot, victim)`` triples on a discrete
``[0, horizon)`` grid, and :func:`chaos_schedule` maps each slot onto
simulated time as a fraction of the trace duration.  One seed, one
schedule, bit-for-bit — the property the chaos-determinism suite pins.
Profiles are parsed from compact ``"kind:count,kind:count"`` specs (the
CLI's ``--chaos-profile``).

Fault kinds (the serving vocabulary; DESIGN.md §13):

* ``replica_crash`` — the replica dies: queued and in-flight work fails
  over, the router never selects it again.
* ``replica_slow`` — a latency spike: for a window of the trace, the
  replica's service time is multiplied by ``slow_factor`` (health probes
  see the same slowdown and mark it unhealthy; it recovers after).
* ``predict_flaky`` — the replica's next dispatch raises instead of
  predicting; the batch fails over to siblings.
* ``servable_corrupt`` — the replica's model archive fails its integrity
  check: every subsequent dispatch and probe fails, it never mis-predicts.

A fault never alters delivered values — replicas either answer with the
true model output or fail loudly — which is what lets failover preserve
the serving layer's bit-identity guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.events import (
    PREDICT_FLAKY,
    REPLICA_CRASH,
    REPLICA_SLOW,
    SERVABLE_CORRUPT,
)

#: Fault kinds a serving chaos profile may request.
SERVING_FAULT_KINDS = (REPLICA_CRASH, REPLICA_SLOW, PREDICT_FLAKY, SERVABLE_CORRUPT)


def parse_kind_counts(spec: Optional[str], kinds: Sequence[str]) -> Dict[str, int]:
    """Per-kind counts from ``"kind:count,kind:count"`` (empty/None/"none" =
    all zero)."""
    counts = dict.fromkeys(kinds, 0)
    if not spec or spec.strip() == "none":
        return counts
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" not in token:
            raise ValueError(f"bad chaos token {token!r}; expected kind:count")
        kind, _, num = token.partition(":")
        kind = kind.strip()
        if kind not in counts:
            raise ValueError(
                f"unknown chaos kind {kind!r}; expected one of {tuple(kinds)}"
            )
        try:
            n = int(num)
        except ValueError as exc:
            raise ValueError(f"bad chaos count in {token!r}") from exc
        if n < 0:
            raise ValueError(f"chaos count must be >= 0 in {token!r}")
        counts[kind] += n
    return counts


def _plan(
    kinds: Sequence[str], num_targets: int, seed: int, horizon: int
) -> List[Tuple[str, int, int]]:
    """Seeded ``(kind, slot, victim)`` triples, one per entry of ``kinds``.

    Slots are distinct draws from ``[0, horizon)``, so at most one fault
    lands per slot; they are sorted and paired with ``kinds`` in order,
    then one victim is drawn from ``[0, num_targets)`` per fault.  The
    draw order is part of the seeded plan.
    """
    if num_targets < 1:
        raise ValueError(f"num_targets must be >= 1, got {num_targets}")
    if not kinds:
        return []
    rng = np.random.default_rng(seed)
    slots = rng.choice(horizon, size=len(kinds), replace=False)
    return [
        (kind, int(slot), int(rng.integers(num_targets)))
        for kind, slot in zip(kinds, np.sort(slots))
    ]


@dataclass(frozen=True)
class ServingChaosProfile:
    """How many serving faults of each kind to inject over a trace."""

    crashes: int = 0
    slowdowns: int = 0
    flaky: int = 0
    corruptions: int = 0
    #: Service-time multiplier while a ``replica_slow`` window is active.
    slow_factor: float = 8.0
    #: Slow-window length as a fraction of the trace duration.
    slow_window_frac: float = 0.2

    @classmethod
    def parse(cls, spec: Optional[str], **overrides) -> "ServingChaosProfile":
        """Parse ``"kind:count,kind:count"`` (empty/None = no faults)."""
        counts = parse_kind_counts(spec, SERVING_FAULT_KINDS)
        return cls(
            crashes=counts[REPLICA_CRASH],
            slowdowns=counts[REPLICA_SLOW],
            flaky=counts[PREDICT_FLAKY],
            corruptions=counts[SERVABLE_CORRUPT],
            **overrides,
        )

    def kinds(self) -> List[str]:
        """Ordered kind list fed to the planner (order is seeded state)."""
        return (
            [REPLICA_CRASH] * self.crashes
            + [REPLICA_SLOW] * self.slowdowns
            + [PREDICT_FLAKY] * self.flaky
            + [SERVABLE_CORRUPT] * self.corruptions
        )

    @property
    def total(self) -> int:
        return self.crashes + self.slowdowns + self.flaky + self.corruptions


@dataclass
class ChaosFault:
    """One concrete serving fault in the time domain."""

    kind: str
    time: float
    replica: int
    #: Slow-window length in seconds (``replica_slow`` only).
    duration: float = 0.0
    #: Service-time multiplier while slow (``replica_slow`` only).
    factor: float = 1.0
    fired: bool = field(default=False, compare=False)


def chaos_schedule(
    profile: "ServingChaosProfile | str | None",
    num_replicas: int,
    duration: float,
    seed: int = 0,
    horizon: int = 16,
) -> List[ChaosFault]:
    """Plan a seeded serving-fault schedule over ``duration`` seconds.

    The planner draws distinct slots on ``[0, horizon)`` (widened to hold
    every fault) and a victim replica per fault; slot ``s`` fires at
    ``(s + 0.5) / horizon * duration`` so no fault lands exactly on the
    trace boundaries.  Same ``(profile, num_replicas, seed, horizon)`` —
    same schedule, always.
    """
    if isinstance(profile, str) or profile is None:
        profile = ServingChaosProfile.parse(profile)
    if not duration > 0:
        raise ValueError(f"duration must be > 0, got {duration}")
    horizon = max(horizon, profile.total, 1)
    faults = []
    for kind, slot, replica in _plan(profile.kinds(), num_replicas, seed, horizon):
        fault = ChaosFault(
            kind=kind, time=(slot + 0.5) / horizon * duration, replica=replica
        )
        if kind == REPLICA_SLOW:
            fault.duration = profile.slow_window_frac * duration
            fault.factor = profile.slow_factor
        faults.append(fault)
    faults.sort(key=lambda f: (f.time, f.replica, f.kind))
    return faults
