"""Deterministic fault injection for the simulated distributed stack.

The scheduling core is :class:`ChaosEngine`: a seeded planner that lands
an ordered list of fault kinds at distinct positions of a discrete
stream, drawing a victim index for targeted kinds.  Scheduling is fully
seeded: the same kinds + seed always produce the same faults at the same
positions against the same victims, so every chaos scenario in the test
suite and benches is reproducible bit-for-bit.  Two consumers share it:

* :class:`FaultInjector` (here) — training chaos over the allreduce call
  stream: rank crashes, allreduce timeouts, corrupted gradients;
* :mod:`repro.serving.resilience.chaos` — serving chaos over a traffic
  trace: replica crashes, latency spikes, flaky predicts, corrupt
  servable archives.

Profiles are parsed from compact specs (the CLI's ``--fault-profile``):

    "crash:1"               one rank crash
    "timeout:2,corrupt:1"   two allreduce timeouts and one corrupted gradient

Paper mapping: a 32-node Endeavour job (Sec. 4.1) at a per-rank MTBF of
~10k hours sees on the order of one failure per day of training;
``crash:1`` over a bench-scale run is the compressed equivalent of that
regime (see the failure-aware throughput model for the continuous-rate
version).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

import numpy as np

from repro.distributed.events import (
    CRASH,
    CORRUPT,
    TIMEOUT,
    EventLog,
    SimClock,
)

#: Fault kinds a profile may request.
FAULT_KINDS = (CRASH, TIMEOUT, CORRUPT)


# --------------------------------------------------------------------------- #
# Exceptions
# --------------------------------------------------------------------------- #
class CommFault(RuntimeError):
    """Base class for communicator-level failures."""


class RankCrash(CommFault):
    """A rank died mid-collective and will not return on its own."""

    def __init__(self, rank: int):
        super().__init__(f"rank {rank} crashed during allreduce")
        self.rank = rank


class AllreduceTimeout(CommFault):
    """An allreduce did not complete within the retry budget."""


class StepFailure(RuntimeError):
    """A training step could not be completed by the strategy.

    Raised by strategies when a communicator fault is not locally
    recoverable (crash with elastic mode off, retry budget exhausted);
    the trainer's checkpoint-recovery path catches exactly this.
    """

    def __init__(self, message: str, cause: Optional[CommFault] = None):
        super().__init__(message)
        self.cause = cause


# --------------------------------------------------------------------------- #
# Retry policy
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff retry semantics for collectives.

    ``backoff(attempt)`` returns the simulated wait before re-attempting
    after the ``attempt``-th failure (0-indexed): base * factor**attempt.

    ``jitter`` (opt-in, fraction in [0, 1)) decorrelates the waits: the
    deterministic backoff is scaled by ``1 + jitter * u`` with ``u`` drawn
    uniformly from [-1, 1) by a generator seeded from ``(jitter_seed, key,
    attempt)``.  Identical retriers that pass distinct ``key`` values (a
    rank, a request id) therefore spread out instead of re-colliding in a
    synchronized retry storm — while any given ``(key, attempt)`` pair
    always waits the exact same simulated time.  ``jitter=0.0`` (the
    default) returns the undisturbed exponential schedule, bit for bit.
    """

    max_retries: int = 3
    backoff_base_s: float = 0.5
    backoff_factor: float = 2.0
    jitter: float = 0.0
    jitter_seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def backoff(self, attempt: int, key: int = 0) -> float:
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        wait = self.backoff_base_s * self.backoff_factor**attempt
        if self.jitter == 0.0:
            return wait
        rng = np.random.default_rng((self.jitter_seed, int(key), attempt))
        return wait * (1.0 + self.jitter * rng.uniform(-1.0, 1.0))


# --------------------------------------------------------------------------- #
# Profiles
# --------------------------------------------------------------------------- #
def parse_kind_counts(
    spec: Optional[str], kinds: Sequence[str], what: str = "fault"
) -> Dict[str, int]:
    """Per-kind counts from ``"kind:count,kind:count"`` (empty/None/"none" =
    all zero); ``what`` names the vocabulary in error messages.  Training
    fault profiles and serving chaos profiles share this grammar."""
    counts = dict.fromkeys(kinds, 0)
    if not spec or spec.strip() == "none":
        return counts
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        if ":" not in token:
            raise ValueError(f"bad {what} token {token!r}; expected kind:count")
        kind, _, num = token.partition(":")
        kind = kind.strip()
        if kind not in counts:
            raise ValueError(
                f"unknown {what} kind {kind!r}; expected one of {tuple(kinds)}"
            )
        try:
            n = int(num)
        except ValueError as exc:
            raise ValueError(f"bad {what} count in {token!r}") from exc
        if n < 0:
            raise ValueError(f"{what} count must be >= 0 in {token!r}")
        counts[kind] += n
    return counts


@dataclass(frozen=True)
class FaultProfile:
    """How many faults of each kind to inject over a run."""

    crashes: int = 0
    timeouts: int = 0
    corruptions: int = 0

    @classmethod
    def parse(cls, spec: Optional[str]) -> "FaultProfile":
        """Parse ``"kind:count,kind:count"`` (empty/None = no faults)."""
        counts = parse_kind_counts(spec, FAULT_KINDS)
        return cls(
            crashes=counts[CRASH],
            timeouts=counts[TIMEOUT],
            corruptions=counts[CORRUPT],
        )

    @property
    def total(self) -> int:
        return self.crashes + self.timeouts + self.corruptions


@dataclass
class PlannedFault:
    """One scheduled fault: fires at a specific schedule position.

    ``call_index`` is the position in whatever discrete stream the engine
    schedules over — an allreduce call index for training chaos, a
    trace-fraction slot for serving chaos (see
    :mod:`repro.serving.resilience.chaos`).  ``rank`` is the victim index
    (a DDP rank, a serving replica) for targeted kinds.
    """

    kind: str
    call_index: int
    rank: Optional[int] = None
    fired: bool = False


# --------------------------------------------------------------------------- #
# Generic seeded chaos engine
# --------------------------------------------------------------------------- #
class ChaosEngine:
    """Seeded planner of faults over a discrete stream of positions.

    The shared scheduling core behind both training chaos
    (:class:`FaultInjector`, positions = allreduce call indices, targets =
    ranks) and serving chaos (positions = trace slots, targets = replica
    indices).  One seed, one plan: the same ``(kinds, num_targets, seed,
    horizon)`` always yields the same faults at the same positions against
    the same victims, so every chaos scenario replays bit-for-bit.

    Parameters
    ----------
    kinds:
        The fault kinds to schedule, one entry per fault (order matters —
        it is part of the seeded plan).
    num_targets:
        How many victims there are; targeted kinds draw a victim index
        uniformly from ``[0, num_targets)``.
    targeted:
        The subset of kinds that need a victim index (others get ``None``).
    seed / horizon:
        Faults land at distinct positions drawn uniformly from
        ``[0, horizon)``; runs shorter than the horizon never reach the
        later faults.
    events / clock:
        Shared event log and simulated clock; created when not supplied.
    """

    def __init__(
        self,
        kinds: Sequence[str],
        num_targets: int,
        seed: int = 0,
        horizon: int = 8,
        targeted: Sequence[str] = (),
        events: Optional[EventLog] = None,
        clock: Optional[SimClock] = None,
    ):
        if num_targets < 1:
            raise ValueError(f"num_targets must be >= 1, got {num_targets}")
        if horizon < max(len(kinds), 1):
            raise ValueError(
                f"horizon {horizon} cannot hold {len(kinds)} scheduled faults"
            )
        self.kinds = list(kinds)
        self.num_targets = num_targets
        self.seed = seed
        self.horizon = horizon
        self.targeted = frozenset(targeted)
        self.clock = clock if clock is not None else SimClock()
        self.events = events if events is not None else EventLog(self.clock)
        self.schedule: List[PlannedFault] = self._plan(np.random.default_rng(seed))
        self._by_call: Dict[int, List[PlannedFault]] = {}
        for fault in self.schedule:
            self._by_call.setdefault(fault.call_index, []).append(fault)

    def _plan(self, rng: np.random.Generator) -> List[PlannedFault]:
        if not self.kinds:
            return []
        # Distinct positions so at most one fault fires per slot; victims
        # drawn independently per fault.
        calls = rng.choice(self.horizon, size=len(self.kinds), replace=False)
        plan = []
        for kind, call in zip(self.kinds, np.sort(calls)):
            rank = (
                int(rng.integers(self.num_targets))
                if kind in self.targeted
                else None
            )
            plan.append(PlannedFault(kind=kind, call_index=int(call), rank=rank))
        return plan

    # ------------------------------------------------------------------ #
    def at(self, position: int) -> List[PlannedFault]:
        """All faults scheduled at ``position`` (fired or not)."""
        return list(self._by_call.get(position, ()))

    @property
    def pending(self) -> int:
        """Scheduled faults that have not fired yet."""
        return sum(1 for f in self.schedule if not f.fired)


# --------------------------------------------------------------------------- #
# Training injector
# --------------------------------------------------------------------------- #
class FaultInjector(ChaosEngine):
    """Seeded scheduler of faults over the allreduce call stream.

    Parameters
    ----------
    profile:
        What to inject (a :class:`FaultProfile` or its string spec).
    world_size:
        Rank count; victim ranks for crashes/corruptions are drawn from it.
    seed:
        Seeds the schedule; same (profile, world_size, seed, horizon) is
        always the same fault plan.
    horizon:
        Faults are scheduled at distinct allreduce call indices drawn
        uniformly from ``[0, horizon)``.  Runs shorter than the horizon
        simply never reach the later faults.
    events / clock:
        Shared event log and simulated clock; created when not supplied.
    """

    def __init__(
        self,
        profile: "FaultProfile | str | None",
        world_size: int,
        seed: int = 0,
        horizon: int = 8,
        events: Optional[EventLog] = None,
        clock: Optional[SimClock] = None,
    ):
        if isinstance(profile, str) or profile is None:
            profile = FaultProfile.parse(profile)
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        if horizon < max(profile.total, 1):
            raise ValueError(
                f"horizon {horizon} cannot hold {profile.total} scheduled faults"
            )
        kinds = (
            [CRASH] * profile.crashes
            + [TIMEOUT] * profile.timeouts
            + [CORRUPT] * profile.corruptions
        )
        super().__init__(
            kinds,
            num_targets=world_size,
            seed=seed,
            horizon=horizon,
            targeted=(CRASH, CORRUPT),
            events=events,
            clock=clock,
        )
        self.profile = profile
        self.world_size = world_size
        self.dead_ranks: Set[int] = set()

    # ------------------------------------------------------------------ #
    def poll(self, call_index: int, attempt: int) -> Optional[PlannedFault]:
        """The fault (if any) firing at this allreduce call and attempt.

        Timeouts and corruptions fire on the first attempt only — the
        retry that follows succeeds, which is the recovery being modelled.
        Crashes fire once and permanently mark their rank dead.
        """
        for fault in self._by_call.get(call_index, ()):
            if fault.fired:
                continue
            if attempt > 0 and fault.kind in (TIMEOUT, CORRUPT):
                continue
            if fault.kind == CRASH and fault.rank in self.dead_ranks:
                continue
            fault.fired = True
            if fault.kind == CRASH:
                self.dead_ranks.add(fault.rank)
            return fault
        return None

    def revive_all(self) -> None:
        """Bring crashed ranks back (checkpoint-recovery restarts them)."""
        self.dead_ranks.clear()
