"""ZeRO-style gradient bucketing and optimizer-state sharding.

The paper's scale-out result (Fig. 2) assumes the distributed layer moves
gradients efficiently; a per-parameter allreduce pays the per-message
latency once per *tensor*, and replicating Adam's m/v state on every rank
pays 2x the model size per rank in memory.  This module removes both, the
way ZeRO (Rajbhandari et al., 2020) does:

* :class:`GradientBucketer` packs parameter gradients into fixed-byte flat
  buckets — deterministic partition by registration order, dtype-
  segregated — so a step performs O(num_buckets) collectives instead of
  O(num_tensors).
* :class:`ShardedAdam` / :class:`ShardedAdamW` partition optimizer state
  across ranks: each rank owns a contiguous shard of every bucket, steps
  only the parameters in its shard, and the updated parameter shards are
  reassembled through ``SimComm.allgather_flat``.  Because every Adam
  operation is elementwise, the sharded step is *bit-identical* to dense
  Adam — the determinism tests assert exact equality.

The wire protocol per bucket is reduce-scatter (each rank receives its
shard of the averaged gradient) followed by allgather (each rank
broadcasts its updated parameter shard) — together exactly one ring
allreduce of traffic, but with optimizer state and the second half's
payload sharded N ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.comm import SimComm
from repro.nn.module import Parameter
from repro.optim.adam import Adam

#: Default bucket capacity: 4 MiB, the same order torch.DDP uses (25 MB)
#: scaled to this reproduction's model sizes.
DEFAULT_BUCKET_BYTES = 4 << 20

# --------------------------------------------------------------------------- #
# Bucketing
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class BucketSegment:
    """One parameter's slot inside a bucket's flat layout."""

    param_index: int
    offset: int  # element offset within the bucket
    size: int  # elements
    shape: Tuple[int, ...]


@dataclass(frozen=True)
class Bucket:
    """A fixed-byte group of same-dtype parameters, flattened contiguously."""

    index: int
    dtype: np.dtype
    segments: Tuple[BucketSegment, ...]
    size: int  # total elements


class GradientBucketer:
    """Deterministic fixed-byte bucketing of a parameter list.

    Parameters are walked in registration order and packed greedily into
    buckets of at most ``bucket_bytes`` bytes, one open bucket per dtype
    (payloads of different dtypes cannot share a flat buffer).  A single
    parameter larger than ``bucket_bytes`` gets a bucket of its own.  The
    partition is a disjoint exact cover of every parameter element and is
    a pure function of (shapes, dtypes, order, bucket_bytes) — two
    bucketers built from identical parameter lists always agree, which is
    what lets the strategy and the sharded optimizer partition
    independently yet stay aligned.
    """

    def __init__(
        self, params: Sequence[Parameter], bucket_bytes: int = DEFAULT_BUCKET_BYTES
    ):
        if bucket_bytes < 1:
            raise ValueError(f"bucket_bytes must be >= 1, got {bucket_bytes}")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("bucketer received no parameters")
        self.bucket_bytes = int(bucket_bytes)
        self.buckets: List[Bucket] = self._partition()

    def _partition(self) -> List[Bucket]:
        open_segments: Dict[np.dtype, List[BucketSegment]] = {}
        open_elems: Dict[np.dtype, int] = {}
        dtype_order: List[np.dtype] = []
        closed: List[Tuple[np.dtype, List[BucketSegment], int]] = []

        def close(dtype: np.dtype) -> None:
            segs = open_segments.pop(dtype, [])
            if segs:
                closed.append((dtype, segs, open_elems.pop(dtype)))
            else:
                open_elems.pop(dtype, None)

        for i, p in enumerate(self.params):
            data = np.asarray(p.data)
            dtype = data.dtype
            if dtype not in open_segments:
                open_segments[dtype] = []
                open_elems[dtype] = 0
                if dtype not in dtype_order:
                    dtype_order.append(dtype)
            current = open_elems[dtype]
            if (
                open_segments[dtype]
                and (current + data.size) * dtype.itemsize > self.bucket_bytes
            ):
                close(dtype)
                open_segments[dtype] = []
                open_elems[dtype] = 0
                current = 0
            open_segments[dtype].append(
                BucketSegment(
                    param_index=i,
                    offset=current,
                    size=int(data.size),
                    shape=tuple(data.shape),
                )
            )
            open_elems[dtype] = current + int(data.size)
        for dtype in dtype_order:
            close(dtype)
        # Deterministic bucket order: by first segment's param index, i.e.
        # registration order interleaved across dtypes.
        closed.sort(key=lambda entry: entry[1][0].param_index)
        return [
            Bucket(index=b, dtype=dtype, segments=tuple(segs), size=total)
            for b, (dtype, segs, total) in enumerate(closed)
        ]

    # ------------------------------------------------------------------ #
    def flatten(
        self,
        bucket: Bucket,
        arrays: Callable[[int], Optional[np.ndarray]],
    ) -> np.ndarray:
        """Pack per-parameter arrays into the bucket's flat layout.

        ``arrays(param_index)`` returns the tensor for one parameter (or
        None, packed as zeros — a missing gradient contributes nothing to
        the reduction, matching dense DDP's zeros_like fallback).
        """
        flat = np.zeros(bucket.size, dtype=bucket.dtype)
        for seg in bucket.segments:
            arr = arrays(seg.param_index)
            if arr is not None:
                flat[seg.offset : seg.offset + seg.size] = np.ravel(arr)
        return flat

    def flatten_grads(self, bucket: Bucket, grads: Sequence[Optional[np.ndarray]]) -> np.ndarray:
        """Pack one rank's per-parameter gradient list (aligned with params)."""
        return self.flatten(bucket, lambda i: grads[i])

    def flatten_params(self, bucket: Bucket) -> np.ndarray:
        """Pack the current parameter values of a bucket."""
        return self.flatten(bucket, lambda i: self.params[i].data)

    def assign_grads(self, bucket: Bucket, flat: np.ndarray) -> None:
        """Unpack a reduced flat bucket back onto ``param.grad``."""
        if flat.size != bucket.size:
            raise ValueError(
                f"bucket {bucket.index}: flat size {flat.size} != {bucket.size}"
            )
        for seg in bucket.segments:
            self.params[seg.param_index].grad = (
                flat[seg.offset : seg.offset + seg.size].reshape(seg.shape).copy()
            )

    def assign_params(self, bucket: Bucket, flat: np.ndarray) -> None:
        """Write a gathered flat bucket back into ``param.data``."""
        if flat.size != bucket.size:
            raise ValueError(
                f"bucket {bucket.index}: flat size {flat.size} != {bucket.size}"
            )
        for seg in bucket.segments:
            np.copyto(
                self.params[seg.param_index].data,
                flat[seg.offset : seg.offset + seg.size].reshape(seg.shape),
            )

    # ------------------------------------------------------------------ #
    def segment_slices(
        self, bucket: Bucket, lo: int, hi: int
    ) -> List[Tuple[BucketSegment, int, int]]:
        """Segments overlapping bucket range [lo, hi), with per-parameter
        flat offsets: yields (segment, param_lo, param_hi)."""
        out = []
        for seg in bucket.segments:
            a = max(lo, seg.offset)
            b = min(hi, seg.offset + seg.size)
            if a < b:
                out.append((seg, a - seg.offset, b - seg.offset))
        return out

    @property
    def num_buckets(self) -> int:
        return len(self.buckets)


# --------------------------------------------------------------------------- #
# Sharded optimizer
# --------------------------------------------------------------------------- #
def _flat_view(arr: np.ndarray) -> np.ndarray:
    """A flat *view* of a C-contiguous array (raises if a copy would be made)."""
    view = arr.view()
    view.shape = (-1,)
    return view


class ShardedAdam(Adam):
    """Adam with ZeRO-style optimizer-state sharding.

    Each simulated rank owns a contiguous shard of every gradient bucket;
    only the owner steps the parameters in its shard, then the updated
    parameter shards are reassembled through the communicator's
    ``allgather_flat``.  Every update operation is elementwise, so
    the result is bit-identical to dense :class:`~repro.optim.Adam` on
    the same gradients — sharding changes who computes, not what.

    Per-rank optimizer state is ~``2 * P / N`` (m and v over the owned
    shard) instead of dense Adam's ``2 * P``; :meth:`state_bytes` reports
    both for the memory accounting in the benches.

    Parameters
    ----------
    comm:
        Communicator used for the parameter allgather; its world size
        defines the shard partition.  Defaults to a single-rank world
        (sharding degenerates to dense Adam, still bit-identical).
    bucket_bytes / bucketer:
        Bucket layout; built from the parameter list when not supplied.
        Must match the strategy's layout when a bucketed
        ``DDPStrategy`` feeds this optimizer (both are deterministic in
        (params, bucket_bytes), so equal knobs mean equal layouts).

    ``update_clip`` is rejected: StableAdamW's clip needs the per-tensor
    RMS of the whole update, which is not shard-local.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        comm: Optional[SimComm] = None,
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        bucketer: Optional[GradientBucketer] = None,
    ) -> None:
        super().__init__(
            params,
            lr,
            betas=betas,
            eps=eps,
            weight_decay=weight_decay,
            update_clip=None,
        )
        self.comm = comm if comm is not None else SimComm(1)
        self.bucketer = (
            bucketer
            if bucketer is not None
            else GradientBucketer(self.params, bucket_bytes=bucket_bytes)
        )
        if self.bucketer.params is not self.params:
            # An externally supplied bucketer must describe the same tensors.
            if len(self.bucketer.params) != len(self.params):
                raise ValueError("bucketer covers a different parameter list")

    # ------------------------------------------------------------------ #
    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        world = self.comm.world_size
        for bucket in self.bucketer.buckets:
            bounds = SimComm.shard_bounds(bucket.size, world)
            for lo, hi in bounds:
                self._step_shard(bucket, lo, hi, bias1, bias2)
            # Reassemble the updated parameters: each rank contributes the
            # shard it owns; the ring allgather moves (N-1)/N * bucket
            # bytes per rank.
            flat = self.bucketer.flatten_params(bucket)
            shards = [flat[lo:hi] for lo, hi in bounds]
            gathered = self.comm.allgather_flat(shards)
            self.bucketer.assign_params(bucket, gathered[0])

    def _step_shard(
        self, bucket: Bucket, lo: int, hi: int, bias1: float, bias2: float
    ) -> None:
        """One rank's Adam update over its owned slice of one bucket: the
        dense update's elementwise sequence (:meth:`Adam._update`) run on
        each parameter's flat range [a, b), so the bits are the dense bits.
        """
        for seg, a, b in self.bucketer.segment_slices(bucket, lo, hi):
            p = self.params[seg.param_index]
            if p.grad is None:
                continue
            state = self.state.setdefault(seg.param_index, {})
            if "m" not in state:
                state["m"] = np.zeros_like(p.data)
                state["v"] = np.zeros_like(p.data)
            moments = {name: _flat_view(state[name])[a:b] for name in ("m", "v")}
            self._update(_flat_view(p.grad)[a:b], _flat_view(p.data)[a:b], moments,
                         np.empty(b - a), np.empty(b - a), bias1, bias2)

    # ------------------------------------------------------------------ #
    def state_bytes(self, rank: Optional[int] = None) -> int:
        """Optimizer-state bytes held by one rank (or replicated-dense total).

        ``rank=None`` reports what dense Adam replicates on *every* rank;
        a specific rank reports only its owned shard — the ZeRO memory win.
        """
        per_entry = 2  # m, v
        if rank is None:
            return per_entry * sum(
                b.size * b.dtype.itemsize for b in self.bucketer.buckets
            )
        world = self.comm.world_size
        total = 0
        for bucket in self.bucketer.buckets:
            lo, hi = SimComm.shard_bounds(bucket.size, world)[rank]
            total += per_entry * (hi - lo) * bucket.dtype.itemsize
        return total


class ShardedAdamW(ShardedAdam):
    """Sharded Adam with decoupled weight decay (ZeRO AdamW)."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 1e-2,
        comm: Optional[SimComm] = None,
        bucket_bytes: int = DEFAULT_BUCKET_BYTES,
        bucketer: Optional[GradientBucketer] = None,
    ) -> None:
        super().__init__(
            params,
            lr,
            betas=betas,
            eps=eps,
            weight_decay=weight_decay,
            comm=comm,
            bucket_bytes=bucket_bytes,
            bucketer=bucketer,
        )
        self._decoupled = True
