"""``SimComm``: an in-process, MPI-flavoured communicator.

Rank-local values are held as Python lists indexed by rank; collectives
compute exactly what their MPI counterparts would and additionally meter
traffic (message counts and bytes, ring-allreduce accounting), which the
performance model consumes.  The three collectives are the ones the
gradient paths run: ``allreduce`` (dense DDP) and the
``reduce_scatter``/``allgather_flat`` pair (ZeRO buckets).

Traffic is metered per collective kind (``allreduce_bytes``,
``reduce_scatter_bytes``, ``allgather_bytes``): the volume one pass of
each collective moves over the ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass
class TrafficLog:
    """Accumulated communication metering, per collective kind."""

    allreduce_calls: int = 0
    allreduce_bytes: int = 0
    reduce_scatter_calls: int = 0
    reduce_scatter_bytes: int = 0
    allgather_calls: int = 0
    allgather_bytes: int = 0

    @property
    def collective_calls(self) -> int:
        """Gradient/param collective messages."""
        return self.allreduce_calls + self.reduce_scatter_calls + self.allgather_calls

    @property
    def useful_bytes(self) -> int:
        """Bytes moved by every metered operation."""
        return self.allreduce_bytes + self.reduce_scatter_bytes + self.allgather_bytes


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
        Rank count.
    """

    def __init__(self, world_size: int):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.traffic = TrafficLog()
        #: Optional :class:`~repro.observability.Tracer` (duck-typed; set by
        #: the trainer when an Observer is attached).  Each collective call
        #: — one gradient bucket — then becomes a ``comm.<collective>`` span
        #: with byte attributes.
        self.tracer = None

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

    def _meter(self, kind: str, volume: int) -> None:
        """Account one collective pass of ``kind``."""
        setattr(
            self.traffic, f"{kind}_calls", getattr(self.traffic, f"{kind}_calls") + 1
        )
        setattr(
            self.traffic, f"{kind}_bytes", getattr(self.traffic, f"{kind}_bytes") + volume
        )

    def _ring_volume(self, payload: int, halves: int = 2) -> int:
        """Total ring traffic for one collective over the world.

        ``halves=2`` is a full allreduce (reduce-scatter + allgather);
        ``halves=1`` is either half on its own.  Each half moves (N-1)/N
        of the payload per rank over N ranks: ``halves * (N-1) * payload``
        bytes, in integer arithmetic so the two halves sum to one
        allreduce at every N.
        """
        return halves * (self.world_size - 1) * payload

    def _meter_allreduce(self, payload: int) -> None:
        self._meter("allreduce", self._ring_volume(payload, halves=2))

    def _traced(self, name: str, payload: int, run, **attrs):
        """``run()``, inside a ``comm.<name>`` span when a tracer is set."""
        if self.tracer is None:
            return run()
        with self.tracer.span(
            f"comm.{name}", bytes=payload, ranks=self.world_size, **attrs
        ):
            return run()

    def allreduce(self, values: Sequence[np.ndarray], op: str = "sum") -> List[np.ndarray]:
        """Reduce across ranks; every rank receives the result."""
        self._check(values)
        arrays = [np.asarray(v, dtype=np.float64) for v in values]
        if op not in ("sum", "mean", "max", "min"):
            raise ValueError(f"unsupported op {op!r}")
        payload = self._nbytes(arrays[0])

        def run() -> List[np.ndarray]:
            result = self._reduce(arrays, op)
            self._meter_allreduce(payload)
            return [result.copy() for _ in range(self.world_size)]

        return self._traced("allreduce", payload, run, op=op)

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

        One ring half: each rank moves (N-1)/N of the payload.
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

        def run() -> List[np.ndarray]:
            reduced = self._reduce(arrays, op)
            self._meter("reduce_scatter", self._ring_volume(payload, halves=1))
            return [
                reduced[lo:hi].copy()
                for lo, hi in self.shard_bounds(n, self.world_size)
            ]

        return self._traced("reduce_scatter", payload, run, op=op)

    def allgather_flat(self, shards: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Every rank receives the concatenation of all ranks' flat shards.

        The inverse of :meth:`reduce_scatter`: one ring half, metered at
        (N-1)/N of the concatenated payload per rank.
        """
        self._check(shards)
        arrays = [np.atleast_1d(np.asarray(s)) for s in shards]
        payload = sum(self._nbytes(a) for a in arrays)

        def run() -> List[np.ndarray]:
            full = np.concatenate(arrays) if len(arrays) > 1 else arrays[0].copy()
            self._meter("allgather", self._ring_volume(payload, halves=1))
            return [full.copy() for _ in range(self.world_size)]

        return self._traced("allgather", payload, run)
