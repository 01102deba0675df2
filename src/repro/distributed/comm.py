"""``SimComm``: an in-process, MPI-flavoured communicator.

Rank-local values are held as Python lists indexed by rank; collectives
compute exactly what their MPI counterparts would and additionally meter
traffic (message counts and bytes, ring-allreduce accounting), which the
performance model consumes.  The interface intentionally shadows mpi4py's
lower-case object API (``allreduce``, ``bcast``, ``gather``, ...).

Fault tolerance: when a :class:`~repro.distributed.faults.FaultInjector`
is attached, ``allreduce`` — and the bucket collectives
``reduce_scatter`` / ``allgather_flat`` the ZeRO-sharded gradient path
uses — run under retry-with-exponential-backoff semantics.  Injected
timeouts and corrupted contributions are detected, logged to the shared
event log, waited out on the *simulated* clock (no real sleeps), and
retried; rank crashes raise :class:`RankCrash` so the strategy layer can
either drop the rank elastically (``shrink``) or escalate to checkpoint
recovery.  Without an injector the healthy fast path is byte-for-byte
the original behaviour.

Traffic accounting separates *useful* bytes (the volume one successful
pass of each collective moves) from *wasted* bytes (traffic burned by
attempts that failed and were retried): useful volume is metered per
collective kind (``allreduce_bytes``, ``reduce_scatter_bytes``,
``allgather_bytes``), wasted volume lands in ``retry_bytes`` only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.distributed.events import (
    BACKOFF,
    CORRUPT,
    CRASH,
    GIVE_UP,
    RANK_DROP,
    RETRY,
    TIMEOUT,
    EventLog,
    SimClock,
)
from repro.distributed.faults import (
    AllreduceTimeout,
    FaultInjector,
    RankCrash,
    RetryPolicy,
)


@dataclass
class TrafficLog:
    """Accumulated communication metering.

    Useful traffic is metered per collective kind; ``retry_calls`` /
    ``retry_bytes`` meter *wasted* traffic — attempts that failed under
    fault injection and were retried — across every collective kind, so
    goodput and overhead can be read independently.
    """

    allreduce_calls: int = 0
    allreduce_bytes: int = 0
    reduce_scatter_calls: int = 0
    reduce_scatter_bytes: int = 0
    allgather_calls: int = 0
    allgather_bytes: int = 0
    bcast_calls: int = 0
    bcast_bytes: int = 0
    p2p_messages: int = 0
    p2p_bytes: int = 0
    retry_calls: int = 0
    retry_bytes: int = 0

    def reset(self) -> None:
        self.allreduce_calls = 0
        self.allreduce_bytes = 0
        self.reduce_scatter_calls = 0
        self.reduce_scatter_bytes = 0
        self.allgather_calls = 0
        self.allgather_bytes = 0
        self.bcast_calls = 0
        self.bcast_bytes = 0
        self.p2p_messages = 0
        self.p2p_bytes = 0
        self.retry_calls = 0
        self.retry_bytes = 0

    @property
    def collective_calls(self) -> int:
        """Successful gradient/param collective messages (no p2p, no waste)."""
        return self.allreduce_calls + self.reduce_scatter_calls + self.allgather_calls

    @property
    def useful_bytes(self) -> int:
        """Bytes that contributed to completed collectives."""
        return (
            self.allreduce_bytes
            + self.reduce_scatter_bytes
            + self.allgather_bytes
            + self.bcast_bytes
            + self.p2p_bytes
        )

    @property
    def wasted_bytes(self) -> int:
        """Bytes moved by failed attempts that had to be retried."""
        return self.retry_bytes


class SimComm:
    """A simulated communicator over ``world_size`` ranks.

    Collectives take per-rank sequences (index = rank) and return per-rank
    results, mirroring SPMD semantics without processes.  All byte counts
    use the ring-allreduce volume 2 * (N-1)/N * payload per rank, the
    algorithm oneCCL/NCCL use for large tensors; ``reduce_scatter`` and
    ``allgather_flat`` each meter one ring half ((N-1)/N * payload per
    rank), so a reduce-scatter + allgather pair moves exactly what one
    allreduce does.

    Parameters
    ----------
    world_size:
        Rank count.  Mutable through :meth:`shrink`/:meth:`restore_world`
        (elastic fault handling); ``initial_world_size`` keeps the original.
    injector:
        Optional fault injector; its event log and simulated clock become
        this communicator's ``events``/``clock``.  All fault-aware
        collectives draw faults from one shared call-index stream.
    retry:
        Retry/backoff semantics for fault-aware collectives.
    """

    def __init__(
        self,
        world_size: int,
        injector: Optional[FaultInjector] = None,
        retry: Optional[RetryPolicy] = None,
    ):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.initial_world_size = world_size
        self.traffic = TrafficLog()
        self.injector = injector
        self.retry = retry if retry is not None else RetryPolicy()
        #: Shared fault-aware collective call counter: allreduce,
        #: reduce_scatter, and allgather_flat all consume indices from this
        #: stream, so a fault profile's horizon covers bucketed runs too.
        self._collective_index = 0
        #: Optional :class:`~repro.observability.Tracer` (duck-typed; set by
        #: the trainer when an Observer is attached).  Each fault-aware
        #: collective call — one gradient bucket — then becomes a
        #: ``comm.<collective>`` span covering the full retry loop, with
        #: byte/retry attributes.
        self.tracer = None

    # ------------------------------------------------------------------ #
    @property
    def events(self) -> Optional[EventLog]:
        return self.injector.events if self.injector is not None else None

    @property
    def clock(self) -> Optional[SimClock]:
        return self.injector.clock if self.injector is not None else None

    # ------------------------------------------------------------------ #
    def _check(self, values: Sequence) -> None:
        if len(values) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} per-rank values, got {len(values)}"
            )

    @staticmethod
    def _nbytes(value) -> int:
        """Payload bytes of one rank's contribution.

        Ragged sequences (e.g. per-bucket shard lists whose last shard is
        shorter) cannot be converted to a rectangular array; ``np.asarray``
        would either raise or produce an *object* array whose ``nbytes`` is
        pointer size — both wrong for metering.  Sum the elements instead.
        """
        if isinstance(value, np.ndarray):
            if value.dtype == object:
                return sum(SimComm._nbytes(v) for v in value.tolist())
            return int(value.nbytes)
        if isinstance(value, (list, tuple)):
            try:
                arr = np.asarray(value)
            except ValueError:  # ragged
                return sum(SimComm._nbytes(v) for v in value)
            if arr.dtype == object:
                return sum(SimComm._nbytes(v) for v in value)
            return int(arr.nbytes)
        return int(np.asarray(value).nbytes)

    # ------------------------------------------------------------------ #
    # Elastic world management
    # ------------------------------------------------------------------ #
    def shrink(self, dead_rank: int) -> int:
        """Drop one rank from the world (elastic degradation); returns the new size."""
        if self.world_size <= 1:
            raise ValueError("cannot shrink a single-rank world")
        self.world_size -= 1
        if self.events is not None:
            self.events.record(RANK_DROP, rank=dead_rank, world_size=self.world_size)
        return self.world_size

    def restore_world(self) -> int:
        """Bring the world back to full strength (checkpoint recovery restarts ranks)."""
        self.world_size = self.initial_world_size
        if self.injector is not None:
            self.injector.revive_all()
        return self.world_size

    # ------------------------------------------------------------------ #
    # Collectives
    # ------------------------------------------------------------------ #
    @staticmethod
    def _reduce(arrays: List[np.ndarray], op: str) -> np.ndarray:
        """Elementwise reduction across ranks.

        ``sum`` and ``mean`` accumulate in rank order, then ``mean``
        divides by N, so the bits depend only on the per-rank values —
        never on how they are laid out (one tensor or a flat bucket).
        """
        if op in ("sum", "mean"):
            total = np.array(arrays[0], copy=True)
            for a in arrays[1:]:
                total += a
            return total / len(arrays) if op == "mean" else total
        if op == "max":
            return np.max(arrays, axis=0)
        if op == "min":
            return np.min(arrays, axis=0)
        raise ValueError(f"unsupported op {op!r}")

    def _meter(self, kind: str, volume: int, wasted: bool = False) -> None:
        """Account one collective pass: useful by kind, wasted to retry_*."""
        if wasted:
            self.traffic.retry_calls += 1
            self.traffic.retry_bytes += volume
            return
        setattr(
            self.traffic, f"{kind}_calls", getattr(self.traffic, f"{kind}_calls") + 1
        )
        setattr(
            self.traffic, f"{kind}_bytes", getattr(self.traffic, f"{kind}_bytes") + volume
        )

    def _ring_volume(self, payload: int, halves: int = 2) -> int:
        """Total ring traffic for one collective over the current world.

        ``halves=2`` is a full allreduce (reduce-scatter + allgather);
        ``halves=1`` is either half on its own.
        """
        if self.world_size <= 1:
            return 0
        return int(
            halves
            * (self.world_size - 1)
            / self.world_size
            * payload
            * self.world_size
        )

    def _meter_allreduce(self, payload: int, wasted: bool = False) -> None:
        self._meter("allreduce", self._ring_volume(payload, halves=2), wasted=wasted)

    def _run_with_faults(
        self,
        kind: str,
        arrays: List[np.ndarray],
        attempt_fn: Callable[[List[np.ndarray]], List[np.ndarray]],
        meter: Callable[[bool], None],
    ) -> List[np.ndarray]:
        """Run one collective under the shared retry/backoff fault semantics.

        ``attempt_fn(arrays)`` computes the per-rank results of one healthy
        pass; it is re-invoked on a poisoned contribution set to model a
        corruption (results discarded, detection logged).  Healthy path
        (no injector) is a single metered call.
        """
        if self.injector is None:
            result = attempt_fn(arrays)
            meter(False)
            return result

        call_index = self._collective_index
        self._collective_index += 1
        for attempt in range(self.retry.max_retries + 1):
            fault = self.injector.poll(call_index, attempt)
            if fault is None:
                result = attempt_fn(arrays)
                meter(False)
                return result
            if fault.kind == CRASH:
                self.events.record(
                    CRASH, rank=fault.rank, call=call_index, attempt=attempt
                )
                raise RankCrash(fault.rank)
            if fault.kind == TIMEOUT:
                self.events.record(TIMEOUT, call=call_index, attempt=attempt)
            else:  # CORRUPT: poison the victim's contribution and detect it.
                victim = fault.rank % len(arrays)
                poisoned = list(arrays)
                poisoned[victim] = np.full_like(arrays[victim], np.nan)
                trial = attempt_fn(poisoned)
                corrupted = not all(
                    bool(np.isfinite(np.asarray(t)).all()) for t in trial
                )
                self.events.record(
                    CORRUPT,
                    rank=fault.rank,
                    call=call_index,
                    attempt=attempt,
                    detected=corrupted,
                )
            # The failed attempt moved (wasted) bytes; account for them.
            meter(True)
            if self.tracer is not None:
                self.tracer.incr("retries")
            wait = self.retry.backoff(attempt)
            self.injector.clock.advance(wait)
            self.events.record(BACKOFF, call=call_index, seconds=wait)
            self.events.record(RETRY, call=call_index, attempt=attempt + 1)
        self.events.record(GIVE_UP, call=call_index)
        raise AllreduceTimeout(
            f"{kind} call {call_index} failed after "
            f"{self.retry.max_retries + 1} attempts"
        )

    def allreduce(self, values: Sequence[np.ndarray], op: str = "sum") -> List[np.ndarray]:
        """Reduce across ranks; every rank receives the result.

        With a fault injector attached, failed attempts back off on the
        simulated clock and retry up to ``retry.max_retries`` times; an
        injected crash raises :class:`RankCrash` immediately (a dead rank
        cannot be waited back), and an exhausted retry budget raises
        :class:`AllreduceTimeout`.
        """
        self._check(values)
        arrays = [np.asarray(v, dtype=np.float64) for v in values]
        # Validate the op up front so bad ops fail identically on both paths.
        if op not in ("sum", "mean", "max", "min"):
            raise ValueError(f"unsupported op {op!r}")
        payload = self._nbytes(arrays[0])
        if self.tracer is None:
            return self._allreduce(arrays, op, payload)
        with self.tracer.span(
            "comm.allreduce", bytes=payload, ranks=self.world_size, op=op
        ):
            return self._allreduce(arrays, op, payload)

    def _allreduce(
        self, arrays: List[np.ndarray], op: str, payload: int
    ) -> List[np.ndarray]:
        def attempt(contribs: List[np.ndarray]) -> List[np.ndarray]:
            result = self._reduce(contribs, op)
            return [result.copy() for _ in range(self.world_size)]

        return self._run_with_faults(
            "allreduce",
            arrays,
            attempt,
            lambda wasted: self._meter_allreduce(payload, wasted=wasted),
        )

    # ------------------------------------------------------------------ #
    # Bucketed (ZeRO) collectives
    # ------------------------------------------------------------------ #
    @staticmethod
    def shard_bounds(n: int, world_size: int) -> List[tuple]:
        """Contiguous per-rank [lo, hi) partition of ``n`` flat elements.

        Deterministic exact cover: the first ``n % world_size`` ranks own
        one extra element.  Shared by ``reduce_scatter`` and the sharded
        optimizer so gradient shards and state shards always align.
        """
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        base, rem = divmod(n, world_size)
        bounds = []
        lo = 0
        for r in range(world_size):
            hi = lo + base + (1 if r < rem else 0)
            bounds.append((lo, hi))
            lo = hi
        return bounds

    def reduce_scatter(
        self, values: Sequence[np.ndarray], op: str = "sum"
    ) -> List[np.ndarray]:
        """Reduce across ranks; rank ``r`` receives shard ``r`` of the result.

        One ring half: each rank moves (N-1)/N of the payload.  Fault
        semantics match :meth:`allreduce` (shared call-index stream, retry
        with backoff, crash escalation).
        """
        self._check(values)
        if op not in ("sum", "mean", "max", "min"):
            raise ValueError(f"unsupported op {op!r}")
        arrays = [np.asarray(v) for v in values]
        n = int(arrays[0].size)
        for a in arrays:
            if a.ndim != 1 or a.size != n:
                raise ValueError("reduce_scatter expects equal-length flat arrays")
        payload = self._nbytes(arrays[0])
        bounds = self.shard_bounds(n, self.world_size)

        def attempt(contribs: List[np.ndarray]) -> List[np.ndarray]:
            reduced = self._reduce(contribs, op)
            return [reduced[lo:hi].copy() for lo, hi in bounds]

        def run() -> List[np.ndarray]:
            return self._run_with_faults(
                "reduce_scatter",
                arrays,
                attempt,
                lambda wasted: self._meter(
                    "reduce_scatter", self._ring_volume(payload, halves=1), wasted
                ),
            )

        if self.tracer is None:
            return run()
        with self.tracer.span(
            "comm.reduce_scatter", bytes=payload, ranks=self.world_size, op=op
        ):
            return run()

    def allgather_flat(self, shards: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Every rank receives the concatenation of all ranks' flat shards.

        The inverse of :meth:`reduce_scatter`: one ring half, metered at
        (N-1)/N of the concatenated payload per rank, fault semantics
        shared with :meth:`allreduce`.
        """
        self._check(shards)
        arrays = [np.atleast_1d(np.asarray(s)) for s in shards]
        payload = sum(self._nbytes(a) for a in arrays)

        def attempt(contribs: List[np.ndarray]) -> List[np.ndarray]:
            full = (
                np.concatenate(contribs) if len(contribs) > 1 else contribs[0].copy()
            )
            return [full.copy() for _ in range(self.world_size)]

        def run() -> List[np.ndarray]:
            return self._run_with_faults(
                "allgather",
                arrays,
                attempt,
                lambda wasted: self._meter(
                    "allgather", self._ring_volume(payload, halves=1), wasted
                ),
            )

        if self.tracer is None:
            return run()
        with self.tracer.span(
            "comm.allgather", bytes=payload, ranks=self.world_size
        ):
            return run()

    # ------------------------------------------------------------------ #
    def bcast(self, value, root: int = 0) -> List:
        """Every rank receives the root's value."""
        if not 0 <= root < self.world_size:
            raise ValueError(f"invalid root {root}")
        self.traffic.bcast_calls += 1
        if self.world_size > 1:
            self.traffic.bcast_bytes += self._nbytes(value) * (self.world_size - 1)
        arr = np.asarray(value)
        return [arr.copy() for _ in range(self.world_size)]

    def gather(self, values: Sequence, root: int = 0) -> List:
        """Root receives the list of per-rank values; others receive None."""
        self._check(values)
        self.traffic.p2p_messages += self.world_size - 1
        self.traffic.p2p_bytes += sum(self._nbytes(v) for i, v in enumerate(values) if i != root)
        return [list(values) if rank == root else None for rank in range(self.world_size)]

    def allgather(self, values: Sequence) -> List[List]:
        """Every rank receives every rank's value."""
        self._check(values)
        self.traffic.p2p_messages += self.world_size * (self.world_size - 1)
        self.traffic.p2p_bytes += sum(self._nbytes(v) for v in values) * (self.world_size - 1)
        return [list(values) for _ in range(self.world_size)]

    def scatter(self, values: Sequence, root: int = 0) -> List:
        """Rank r receives values[r] (values live on the root)."""
        self._check(values)
        self.traffic.p2p_messages += self.world_size - 1
        self.traffic.p2p_bytes += sum(self._nbytes(v) for i, v in enumerate(values) if i != root)
        return list(values)

    def barrier(self) -> None:
        """No-op in simulation; present to keep call sites SPMD-shaped."""
