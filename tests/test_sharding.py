"""Property tests for the ZeRO sharding stack.

Three layers are swept with randomized geometry:

* the bucket partition — random shapes/dtypes/bucket sizes must always
  produce a disjoint exact cover of every parameter element;
* the bucket collectives — reduce_scatter composed with allgather_flat
  must equal allreduce elementwise, move exactly one allreduce's bytes at
  every world size, and give the same bits when traced;
* the sharded optimizer — ShardedAdam(W) must be bit-identical to dense
  Adam(W) at every world size, including non-default betas and eps;
* the DDP rank loop feeding them — rank gradients move into one
  rank-ordered reduction, and every collective meters its real payload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.distributed import (
    DDPStrategy,
    GradientBucketer,
    ShardedAdam,
    ShardedAdamW,
    SimComm,
)
from repro.models import EGNN
from repro.observability import Tracer
from repro.optim import Adam, AdamW
from repro.tasks import MultiClassClassificationTask

pytestmark = pytest.mark.shard


def _random_params(rng, count=None, dtypes=(np.float64,)):
    count = count if count is not None else int(rng.integers(3, 12))
    params = []
    for _ in range(count):
        ndim = int(rng.integers(1, 4))
        shape = tuple(int(rng.integers(1, 9)) for _ in range(ndim))
        dtype = dtypes[int(rng.integers(0, len(dtypes)))]
        params.append(
            Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
        )
    return params


def _traced_comm(world):
    comm = SimComm(world)
    comm.tracer = Tracer()
    return comm


# --------------------------------------------------------------------------- #
# Bucket partition properties
# --------------------------------------------------------------------------- #
class TestBucketPartition:
    def test_random_shapes_exact_disjoint_cover(self):
        rng = np.random.default_rng(101)
        for trial in range(25):
            params = _random_params(rng, dtypes=(np.float64, np.float32))
            bucket_bytes = int(rng.integers(1, 2048))
            b = GradientBucketer(params, bucket_bytes=bucket_bytes)

            # Every parameter appears exactly once, with its full element
            # count, in a bucket of its own dtype.
            seen = {}
            for bucket in b.buckets:
                offset = 0
                for seg in bucket.segments:
                    assert seg.offset == offset, "segments must tile contiguously"
                    offset += seg.size
                    assert seg.param_index not in seen
                    seen[seg.param_index] = seg
                    p = params[seg.param_index]
                    assert seg.size == p.data.size
                    assert seg.shape == p.data.shape
                    assert bucket.dtype == p.data.dtype
                assert offset == bucket.size
            assert sorted(seen) == list(range(len(params))), trial
            assert sum(bk.size for bk in b.buckets) == sum(p.data.size for p in params)

    def test_buckets_respect_byte_cap_unless_single_tensor(self):
        rng = np.random.default_rng(103)
        for _ in range(25):
            params = _random_params(rng)
            cap = int(rng.integers(64, 1024))
            for bucket in GradientBucketer(params, bucket_bytes=cap).buckets:
                nbytes = bucket.size * bucket.dtype.itemsize
                assert nbytes <= cap or len(bucket.segments) == 1

    def test_partition_is_deterministic(self):
        rng = np.random.default_rng(107)
        params = _random_params(rng, count=9, dtypes=(np.float64, np.float32))
        a = GradientBucketer(params, bucket_bytes=300)
        b = GradientBucketer(params, bucket_bytes=300)
        assert [bk.segments for bk in a.buckets] == [bk.segments for bk in b.buckets]

    def test_shard_bounds_exact_cover(self):
        rng = np.random.default_rng(109)
        for _ in range(50):
            n = int(rng.integers(0, 200))
            world = int(rng.integers(1, 12))
            bounds = SimComm.shard_bounds(n, world)
            assert len(bounds) == world
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            for (alo, ahi), (blo, bhi) in zip(bounds, bounds[1:]):
                assert ahi == blo  # adjacent, disjoint
                assert ahi - alo >= bhi - blo >= 0  # leading ranks own the +1

    def test_flatten_assign_roundtrip(self):
        rng = np.random.default_rng(113)
        params = _random_params(rng, count=6)
        b = GradientBucketer(params, bucket_bytes=256)
        originals = [p.data.copy() for p in params]
        for bucket in b.buckets:
            b.assign_params(bucket, b.flatten_params(bucket))
        for p, orig in zip(params, originals):
            assert np.array_equal(p.data, orig)


# --------------------------------------------------------------------------- #
# Collective properties
# --------------------------------------------------------------------------- #
class TestBucketCollectives:
    @pytest.mark.parametrize("op", ["sum", "mean"])
    def test_reduce_scatter_allgather_equals_allreduce(self, op):
        rng = np.random.default_rng(211)
        for world in (1, 2, 3, 5, 8):
            comm = SimComm(world)
            values = [rng.normal(size=37) for _ in range(world)]
            shards = comm.reduce_scatter(values, op=op)
            gathered = comm.allgather_flat(shards)
            reference = comm.allreduce(values, op=op)
            for rank in range(world):
                assert np.array_equal(gathered[rank], reference[rank]), (
                    f"world={world} rank={rank}"
                )

    def test_shards_are_disjoint_slices_of_the_reduction(self):
        rng = np.random.default_rng(223)
        world = 4
        comm = SimComm(world)
        values = [rng.normal(size=18) for _ in range(world)]
        shards = comm.reduce_scatter(values, op="sum")
        full = np.sum(values, axis=0)
        bounds = SimComm.shard_bounds(18, world)
        for (lo, hi), shard in zip(bounds, shards):
            assert np.array_equal(shard, full[lo:hi])

    def test_fault_injected_retry_converges_to_same_bits(self):
        """A traced communicator returns the untraced bits and records one
        ``comm.<collective>`` span per call, carrying its payload."""
        rng = np.random.default_rng(227)
        world = 4
        plain = SimComm(world)
        traced = _traced_comm(world)
        for call in range(8):
            values = [rng.normal(size=29) for _ in range(world)]
            p_shards = plain.reduce_scatter(values, op="mean")
            t_shards = traced.reduce_scatter(values, op="mean")
            for p, t in zip(p_shards, t_shards):
                assert np.array_equal(p, t), f"call {call}"
            p_full = plain.allgather_flat(p_shards)
            t_full = traced.allgather_flat(t_shards)
            for p, t in zip(p_full, t_full):
                assert np.array_equal(p, t), f"call {call}"
        names = [s.name for s in traced.tracer.completed()]
        assert names == ["comm.reduce_scatter", "comm.allgather"] * 8
        assert all(s.attrs["bytes"] == 29 * 8 for s in traced.tracer.completed())
        assert traced.traffic == plain.traffic

    def test_reduce_scatter_rejects_ragged_input(self):
        comm = SimComm(2)
        with pytest.raises(ValueError):
            comm.reduce_scatter([np.zeros(4), np.zeros(5)])


# --------------------------------------------------------------------------- #
# Traffic accounting: useful vs wasted bytes
# --------------------------------------------------------------------------- #
class TestTrafficAccounting:
    def test_wasted_bytes_pinned_under_seeded_faults(self):
        """Regression pin: every reduce_scatter meters exactly one ring
        half, (N-1) * payload bytes, and nothing else."""
        world = 4
        n = 64
        per_pass = (world - 1) * n * 8  # one ring half of float64
        comm = SimComm(world)
        rng = np.random.default_rng(229)
        calls = 8
        for _ in range(calls):
            comm.reduce_scatter([rng.normal(size=n) for _ in range(world)], op="mean")
        t = comm.traffic
        assert t.reduce_scatter_calls == t.collective_calls == calls
        assert t.reduce_scatter_bytes == t.useful_bytes == calls * per_pass == 12288

    def test_ring_halves_sum_to_one_allreduce_at_every_world(self):
        """``_ring_volume`` is integer arithmetic: at N = 3, 5, 9 a 200-byte
        allreduce meters 2 * (N-1) * 200 B, and a reduce_scatter +
        allgather_flat pair meters exactly the same."""
        for world in (3, 5, 9):
            values = [np.zeros(25) for _ in range(world)]  # 200 B each
            whole = SimComm(world)
            whole.allreduce(values)
            assert whole.traffic.allreduce_bytes == 2 * (world - 1) * 200, world
            pair = SimComm(world)
            pair.allgather_flat(pair.reduce_scatter(values))
            halves = pair.traffic.reduce_scatter_bytes + pair.traffic.allgather_bytes
            assert halves == whole.traffic.allreduce_bytes, world

    def test_ragged_shard_metering_sums_elements(self):
        """_nbytes regression: ragged per-rank shards meter their true
        bytes, not an object-array pointer size or a ValueError."""
        world = 3
        n = 17  # shards of 6, 6, 5 — ragged
        comm = SimComm(world)
        shards = comm.reduce_scatter([np.zeros(n) for _ in range(world)])
        assert [s.size for s in shards] == [6, 6, 5]
        gather = SimComm(world)
        gather.allgather_flat(shards)
        assert gather.traffic.allgather_bytes == (world - 1) * n * 8
        # And the helper itself on a ragged list:
        assert SimComm._nbytes([np.zeros(6), np.zeros(5)]) == 11 * 8

    def test_wire_bytes_override_meters_compressed_payload(self):
        """Bucket collectives meter the ``_nbytes`` of their operands —
        one ring half each, float32 buckets at half the float64 bytes."""
        world = 3
        for dtype in (np.float64, np.float32):
            comm = SimComm(world)
            values = [np.zeros(16, dtype=dtype) for _ in range(world)]
            shards = comm.reduce_scatter(values)
            comm.allgather_flat(shards)
            payload = SimComm._nbytes(values[0])
            assert payload == 16 * np.dtype(dtype).itemsize
            half = comm._ring_volume(payload, halves=1)
            assert comm.traffic.reduce_scatter_bytes == half
            assert comm.traffic.allgather_bytes == half


# --------------------------------------------------------------------------- #
# Sharded optimizer bit-identity
# --------------------------------------------------------------------------- #
class TestShardedAdamBitIdentity:
    @pytest.mark.parametrize("world", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize(
        "sharded_cls,dense_cls,kwargs",
        [
            (ShardedAdam, Adam, dict(weight_decay=0.0)),
            (ShardedAdam, Adam, dict(weight_decay=1e-2)),
            (ShardedAdamW, AdamW, dict(weight_decay=1e-2)),
            (ShardedAdamW, AdamW, dict(weight_decay=1e-2, betas=(0.8, 0.95), eps=1e-6)),
        ],
    )
    def test_five_steps_bit_identical_to_dense(
        self, world, sharded_cls, dense_cls, kwargs
    ):
        rng = np.random.default_rng(307)
        shapes = [(7, 3), (11,), (2, 5, 4), (1,), (6, 6)]
        sharded_params = [
            Tensor(rng.normal(size=s), requires_grad=True) for s in shapes
        ]
        dense_params = [
            Tensor(p.data.copy(), requires_grad=True) for p in sharded_params
        ]
        sharded = sharded_cls(
            sharded_params, lr=2e-3, comm=SimComm(world), bucket_bytes=200, **kwargs
        )
        dense = dense_cls(dense_params, lr=2e-3, **kwargs)
        assert sharded.bucketer.num_buckets > 1  # the cap actually splits

        for step in range(5):
            grng = np.random.default_rng(1000 + step)
            for a, b in zip(sharded_params, dense_params):
                g = grng.normal(size=a.shape)
                a.grad = g.copy()
                b.grad = g.copy()
            sharded.step()
            dense.step()
            for i, (a, b) in enumerate(zip(sharded_params, dense_params)):
                assert np.array_equal(a.data, b.data), (
                    f"world={world} step={step} param={i}"
                )

    def test_none_grads_skipped_like_dense(self):
        rng = np.random.default_rng(311)
        a_params = [Tensor(rng.normal(size=(4, 4)), requires_grad=True) for _ in range(3)]
        b_params = [Tensor(p.data.copy(), requires_grad=True) for p in a_params]
        sharded = ShardedAdamW(a_params, lr=1e-2, comm=SimComm(3), bucket_bytes=64)
        dense = AdamW(b_params, lr=1e-2)
        g = rng.normal(size=(4, 4))
        a_params[0].grad = g.copy()
        b_params[0].grad = g.copy()  # params 1, 2 stay grad-less
        sharded.step()
        dense.step()
        for i, (a, b) in enumerate(zip(a_params, b_params)):
            assert np.array_equal(a.data, b.data), f"param {i}"

    def test_fault_injected_step_converges_to_same_bits(self):
        """Tracing the sharded step's allgathers never changes params."""
        rng = np.random.default_rng(313)
        world = 4
        h_params = [Tensor(rng.normal(size=(5, 5)), requires_grad=True) for _ in range(4)]
        t_params = [Tensor(p.data.copy(), requires_grad=True) for p in h_params]
        plain = ShardedAdamW(h_params, lr=1e-3, comm=SimComm(world), bucket_bytes=100)
        traced_comm = _traced_comm(world)
        traced = ShardedAdamW(t_params, lr=1e-3, comm=traced_comm, bucket_bytes=100)
        for step in range(3):
            grng = np.random.default_rng(2000 + step)
            for a, b in zip(h_params, t_params):
                g = grng.normal(size=a.shape)
                a.grad = g.copy()
                b.grad = g.copy()
            plain.step()
            traced.step()
            for i, (a, b) in enumerate(zip(h_params, t_params)):
                assert np.array_equal(a.data, b.data), f"step={step} param={i}"
        spans = [s.name for s in traced_comm.tracer.completed()]
        assert spans == ["comm.allgather"] * (3 * traced.bucketer.num_buckets)

    def test_state_bytes_shrink_with_world(self):
        rng = np.random.default_rng(317)
        params = [Tensor(rng.normal(size=(32, 32)), requires_grad=True)]
        world = 8
        opt = ShardedAdam(params, comm=SimComm(world), bucket_bytes=1 << 20)
        dense_total = opt.state_bytes(rank=None)
        per_rank = [opt.state_bytes(rank=r) for r in range(world)]
        assert dense_total == 2 * 32 * 32 * 8
        assert sum(per_rank) == dense_total  # exact cover, nothing replicated
        assert max(per_rank) <= -(-dense_total // world) + 2 * 8

    def test_ownership_is_disjoint_exact_cover(self):
        """The rank shards of every bucket tile it: contiguous, in rank
        order, and they are what ``state_bytes`` counts per rank."""
        rng = np.random.default_rng(331)
        params = _random_params(rng, count=7)
        world = 5
        opt = ShardedAdam(params, comm=SimComm(world), bucket_bytes=150)
        owned = [0] * world
        for bucket in opt.bucketer.buckets:
            slices = SimComm.shard_bounds(bucket.size, world)
            for r, (lo, hi) in enumerate(slices):
                owned[r] += 2 * (hi - lo) * bucket.dtype.itemsize
            assert slices[0][0] == 0 and slices[-1][1] == bucket.size
            for (_, ahi), (blo, _) in zip(slices, slices[1:]):
                assert ahi == blo
        assert owned == [opt.state_bytes(rank=r) for r in range(world)]


# --------------------------------------------------------------------------- #
# The DDP rank loop that feeds the collectives
# --------------------------------------------------------------------------- #
def _ddp_task_and_samples(n=8):
    rng = np.random.default_rng(5)
    enc = EGNN(hidden_dim=10, num_layers=2, position_dim=4, num_species=4, rng=rng)
    task = MultiClassClassificationTask(
        enc, num_classes=4, hidden_dim=8, num_blocks=1, dropout=0.0,
        rng=np.random.default_rng(6),
    )
    ds = SymmetryPointCloudDataset(n, seed=5, group_names=["C1", "C2", "C4", "D2"])
    tf = StructureToGraph(cutoff=2.5)
    return task, [tf(ds[i]) for i in range(n)]


class _Loss:
    """Loss proxy that reports each rank's gradient arrays after backward."""

    def __init__(self, loss, on_backward):
        self.data = loss.data
        self._loss = loss
        self._on_backward = on_backward

    def backward(self):
        self._loss.backward()
        self._on_backward()


class _SpyTask:
    def __init__(self, task):
        self.task = task
        self.produced = []

    def parameters(self):
        return self.task.parameters()

    def zero_grad(self):
        self.task.zero_grad()

    def training_step(self, batch):
        loss, metrics = self.task.training_step(batch)
        record = lambda: self.produced.append([p.grad for p in self.parameters()])
        return _Loss(loss, record), metrics


class _PoisonTask(_SpyTask):
    """Writes a NaN into one rank's first gradient after its backward."""

    def __init__(self, task, rank):
        super().__init__(task)
        self.rank = rank
        self.index = None

    def training_step(self, batch):
        loss, metrics = self.task.training_step(batch)
        rank = len(self.produced)

        def poison():
            self.produced.append(rank)
            if rank == self.rank:
                grads = [p.grad for p in self.parameters()]
                self.index = next(i for i, g in enumerate(grads) if g is not None)
                grads[self.index].flat[0] = np.nan

        return _Loss(loss, poison), metrics


class _CapturingDDP(DDPStrategy):
    def _reduce(self, params, rank_grads):
        self.rank_grads = [list(g) for g in rank_grads]
        super()._reduce(params, rank_grads)


class TestBf16Wire:
    """Contracts of ``DDPStrategy``'s one rank loop and its one arithmetic.

    (The class keeps the name of the bfloat16 wire emulation these ids
    used to pin; that compression path is gone — DESIGN.md §11.)
    """

    def test_roundtrip_error_within_bound(self):
        """Rank gradients are moved, not copied, and never alias across
        ranks: the reduction receives the very arrays each backward made."""
        task, samples = _ddp_task_and_samples()
        spy = _SpyTask(task)
        ddp = _CapturingDDP(4)
        ddp.execute(spy, samples)
        assert len(ddp.rank_grads) == len(spy.produced) == 4
        for produced, handed in zip(spy.produced, ddp.rank_grads):
            for a, b in zip(produced, handed):
                assert a is b
        arrays = [g for grads in ddp.rank_grads for g in grads if g is not None]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)
        # The reduced gradients are fresh arrays, not a rank's buffer.
        for p in task.parameters():
            if p.grad is not None:
                assert not any(np.shares_memory(p.grad, g) for g in arrays)

    def test_exactly_representable_values_roundtrip_exactly(self):
        """The local reduction leaves the bits of one explicit
        ``comm.allreduce(op="mean")`` per touched parameter — the per-tensor
        baseline the sharding bench meters."""
        task, samples = _ddp_task_and_samples()
        world = 4
        ddp = _CapturingDDP(world)
        ddp.execute(task, samples)
        comm = SimComm(world)
        params = list(task.parameters())
        assert any(p.grad is None for p in params)
        for i, p in enumerate(params):
            if p.grad is None:
                assert all(g[i] is None for g in ddp.rank_grads)
                continue
            explicit = comm.allreduce(
                [g[i] if g[i] is not None else np.zeros_like(p.data) for g in ddp.rank_grads],
                op="mean",
            )[0]
            assert np.array_equal(p.grad, explicit), i

    def test_payload_is_two_bytes_per_element(self):
        """The local path meters exactly one allreduce of
        ``_ring_volume(payload)``, payload = the touched gradients' bytes."""
        task, samples = _ddp_task_and_samples()
        for world in (1, 2, 4):
            ddp = DDPStrategy(world)
            ddp.execute(task, samples)
            payload = sum(p.grad.nbytes for p in task.parameters() if p.grad is not None)
            assert ddp.comm.traffic.allreduce_calls == 1
            assert ddp.comm.traffic.allreduce_bytes == ddp.comm._ring_volume(payload)
            assert ddp.comm.traffic.reduce_scatter_calls == 0

    def test_nan_survives_compression(self):
        """A NaN in one rank's gradient reaches the reduced gradient on both
        reduction paths: nothing masks a non-finite contribution."""
        task, samples = _ddp_task_and_samples()
        for ddp in (DDPStrategy(4), DDPStrategy(4, bucket_bytes=1 << 20)):
            poison = _PoisonTask(task, rank=2)
            ddp.execute(poison, samples)
            params = list(task.parameters())
            grad = params[poison.index].grad
            assert np.isnan(grad.flat[0])
            assert np.isfinite(grad.flat[1:]).all()
            assert all(
                np.isfinite(p.grad).all()
                for i, p in enumerate(params) if i != poison.index and p.grad is not None
            )

    def test_rounding_is_to_nearest(self):
        """``sum``/``mean`` accumulate in rank order, then divide by N — the
        bits of a one-element tensor equal its slot in a flat bucket."""
        rng = np.random.default_rng(409)
        for world in (2, 8, 9, 16):
            values = [rng.normal(size=1) * 10.0 ** rng.integers(-6, 6) for _ in range(world)]
            ordered = values[0].copy()
            for v in values[1:]:
                ordered = ordered + v
            assert np.array_equal(SimComm._reduce(values, "sum"), ordered)
            assert np.array_equal(SimComm._reduce(values, "mean"), ordered / world)
            flats = [np.concatenate([v, np.ones(5)]) for v in values]
            bucket = SimComm(world).reduce_scatter(flats, op="mean")
            assert np.array_equal(np.concatenate(bucket)[:1], ordered / world)
