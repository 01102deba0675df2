"""``SimComm``: an in-process, MPI-flavoured communicator.

Rank-local values are held as Python lists indexed by rank; ``allreduce``
computes exactly what its MPI counterpart would and additionally meters
traffic (message count and ring-allreduce bytes), which the performance
model consumes.  It is the one collective the gradient path runs: DDP's
reduction is metered as one allreduce per step.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np


@dataclass
class TrafficLog:
    """Accumulated allreduce metering."""

    allreduce_calls: int = 0
    allreduce_bytes: int = 0


class SimComm:
    """A simulated communicator over ``world_size`` ranks.

    Collectives take per-rank sequences (index = rank) and return per-rank
    results, mirroring SPMD semantics without processes.  Byte counts use
    the ring-allreduce volume 2 * (N-1)/N * payload per rank, the
    algorithm oneCCL/NCCL use for large tensors.

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
        #: the trainer when an Observer is attached).  Each ``allreduce``
        #: call then becomes a ``comm.allreduce`` span with byte attributes.
        self.tracer = None

    # ------------------------------------------------------------------ #
    def _check(self, values: Sequence) -> None:
        if len(values) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} per-rank values, got {len(values)}"
            )

    @staticmethod
    def _reduce(arrays: List[np.ndarray], op: str) -> np.ndarray:
        """Elementwise reduction across ranks.

        ``sum`` and ``mean`` accumulate in rank order, then ``mean``
        divides by N, so the bits depend only on the per-rank values.
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

    def _ring_volume(self, payload: int) -> int:
        """Total ring traffic of one allreduce over the world.

        Each rank moves 2 * (N-1)/N of the payload over N ranks:
        ``2 * (N-1) * payload`` bytes, in integer arithmetic.
        """
        return 2 * (self.world_size - 1) * payload

    def _meter_allreduce(self, payload: int) -> None:
        """Account one allreduce of ``payload`` bytes per rank."""
        self.traffic.allreduce_calls += 1
        self.traffic.allreduce_bytes += self._ring_volume(payload)

    def allreduce(self, values: Sequence[np.ndarray], op: str = "sum") -> List[np.ndarray]:
        """Reduce across ranks; every rank receives the result."""
        self._check(values)
        arrays = [np.asarray(v, dtype=np.float64) for v in values]
        if op not in ("sum", "mean", "max", "min"):
            raise ValueError(f"unsupported op {op!r}")
        if any(a.shape != arrays[0].shape for a in arrays):
            raise ValueError(
                f"allreduce expects one shape on every rank, got "
                f"{[a.shape for a in arrays]}"
            )
        payload = int(arrays[0].nbytes)
        span = (
            contextlib.nullcontext()
            if self.tracer is None
            else self.tracer.span(
                "comm.allreduce", bytes=payload, ranks=self.world_size, op=op
            )
        )
        with span:
            result = self._reduce(arrays, op)
            self._meter_allreduce(payload)
            return [result.copy() for _ in range(self.world_size)]
