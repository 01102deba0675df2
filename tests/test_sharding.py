"""Contracts of the one DDP reduction path and the allreduce it is metered as.

``DDPStrategy`` splits a global batch into N rank shards, runs one
forward/backward per rank, and leaves Σ_r g_r / N (rank order) on every
parameter some rank touched.  Four layers are swept here:

* the rank partition — ``DDPStrategy.shard`` is an exact, disjoint,
  deterministic drop-last cover of the global batch;
* the collective — ``SimComm.allreduce`` computes rank-order sums and
  means, refuses malformed input, and meters 2 * (N-1) * payload bytes;
* N ranks == 1 rank — DDP + Adam(W) steps equal one process accumulating
  the same per-shard gradients in rank order, byte for byte;
* the rank loop — rank gradients move into the one reduction, and a
  non-finite contribution reaches the result.

The class and parametrize names are this file's history: it once tested
the ZeRO sharding stack (gradient buckets, reduce-scatter/allgather and a
rank-sharded Adam), which is gone (EXPERIMENTS.md records why).  Each
test's docstring says what it pins now.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.data.batching import collate_graphs
from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.distributed import DDPStrategy, SimComm
from repro.models import EGNN
from repro.observability import Tracer
from repro.optim import Adam, AdamW
from repro.tasks import MultiClassClassificationTask


def _traced_comm(world):
    comm = SimComm(world)
    comm.tracer = Tracer()
    return comm


def _make_task():
    rng = np.random.default_rng(5)
    enc = EGNN(hidden_dim=10, num_layers=2, position_dim=4, num_species=4, rng=rng)
    return MultiClassClassificationTask(
        enc, num_classes=4, hidden_dim=8, num_blocks=1, dropout=0.0,
        rng=np.random.default_rng(6),
    )


def _make_samples(n=8, seed=5):
    ds = SymmetryPointCloudDataset(n, seed=seed, group_names=["C1", "C2", "C4", "D2"])
    tf = StructureToGraph(cutoff=2.5)
    return [tf(ds[i]) for i in range(n)]


def _ddp_task_and_samples(n=8):
    return _make_task(), _make_samples(n)


def _rank_order_step(task, samples, world):
    """The one-process oracle of a DDP step: one backward per rank shard,
    then Σ_r g_r accumulated in rank order (zeros for a rank that did not
    touch a parameter) and divided by N.  Returns the mean shard loss."""
    params = list(task.parameters())
    per_rank = len(samples) // world
    rank_grads, losses = [], []
    for r in range(world):
        for p in params:
            p.grad = None
        loss, _ = task.training_step(collate_graphs(samples[r * per_rank : (r + 1) * per_rank]))
        loss.backward()
        losses.append(float(loss.data))
        rank_grads.append([p.grad for p in params])
    for i, p in enumerate(params):
        contributions = [g[i] for g in rank_grads]
        if all(g is None for g in contributions):
            p.grad = None
            continue
        total = None
        for g in contributions:
            g = np.zeros_like(p.data) if g is None else g
            total = g.copy() if total is None else total + g
        p.grad = total / world
    return float(np.mean(losses))


def _train(task, batches, optimizer, step):
    losses = []
    for batch in batches:
        optimizer.zero_grad()
        losses.append(step(task, batch))
        optimizer.step()
    return losses


def _assert_same_params(a_task, b_task, context=""):
    for (name, a), (_, b) in zip(a_task.named_parameters(), b_task.named_parameters()):
        assert np.array_equal(a.data, b.data), f"{context} {name}"


# --------------------------------------------------------------------------- #
# Rank partition properties
# --------------------------------------------------------------------------- #
class TestBucketPartition:
    def test_random_shapes_exact_disjoint_cover(self):
        """Random batch sizes and worlds: N contiguous shards of n // N
        samples in rank order, the n % N trailing samples dropped."""
        rng = np.random.default_rng(101)
        for trial in range(50):
            world = int(rng.integers(1, 12))
            n = int(rng.integers(world, 200))
            shards = DDPStrategy(world).shard(list(range(n)))
            assert len(shards) == world, trial
            assert all(len(s) == n // world for s in shards), trial
            kept = [x for s in shards for x in s]
            assert kept == list(range(world * (n // world))), trial

    def test_buckets_respect_byte_cap_unless_single_tensor(self):
        """A global batch smaller than the world cannot feed every rank and
        is refused; exactly N samples give one sample per rank."""
        for world in (2, 3, 8):
            with pytest.raises(ValueError, match=f"cannot feed {world} ranks"):
                DDPStrategy(world).shard(list(range(world - 1)))
            assert DDPStrategy(world).shard(list(range(world))) == [
                [r] for r in range(world)
            ]

    def test_partition_is_deterministic(self):
        """The same batch gives the same shards, holding the very sample
        objects; the shards are new lists, so editing one leaves the
        batch alone."""
        samples = [object() for _ in range(11)]
        a, b = DDPStrategy(3).shard(samples), DDPStrategy(3).shard(samples)
        assert a == b
        for shard in a:
            assert all(any(x is s for s in samples) for x in shard)
        a[0].clear()
        assert len(samples) == 11 and b[0] == samples[:3]

    def test_shard_bounds_exact_cover(self):
        """A world below one rank is refused by the strategy and by the
        communicator."""
        for world in (0, -1):
            with pytest.raises(ValueError, match="world_size must be >= 1"):
                DDPStrategy(world)
            with pytest.raises(ValueError, match="world_size must be >= 1"):
                SimComm(world)

    def test_flatten_assign_roundtrip(self):
        """A DDP step writes gradients only: every parameter's data and
        every sample's arrays are left as the step found them."""
        task, samples = _ddp_task_and_samples()
        params_before = [p.data.copy() for p in task.parameters()]
        positions_before = [s.positions.copy() for s in samples]
        DDPStrategy(4).execute(task, samples)
        for p, before in zip(task.parameters(), params_before):
            assert np.array_equal(p.data, before)
        for s, before in zip(samples, positions_before):
            assert np.array_equal(s.positions, before)


# --------------------------------------------------------------------------- #
# Collective properties
# --------------------------------------------------------------------------- #
class TestBucketCollectives:
    @pytest.mark.parametrize("op", ["sum", "mean"])
    def test_reduce_scatter_allgather_equals_allreduce(self, op):
        """``allreduce`` sums in rank order (then divides by N for
        ``mean``), and every rank receives those bits."""
        rng = np.random.default_rng(211)
        for world in (1, 2, 3, 5, 8):
            values = [rng.normal(size=37) * 10.0 ** rng.integers(-6, 6) for _ in range(world)]
            expected = values[0].copy()
            for v in values[1:]:
                expected = expected + v
            if op == "mean":
                expected = expected / world
            for rank, got in enumerate(SimComm(world).allreduce(values, op=op)):
                assert np.array_equal(got, expected), f"world={world} rank={rank}"

    def test_shards_are_disjoint_slices_of_the_reduction(self):
        """Each rank receives its own array: no two ranks' results share
        memory with each other or with the inputs, which stay unmodified."""
        rng = np.random.default_rng(223)
        world = 4
        values = [rng.normal(size=18) for _ in range(world)]
        before = [v.copy() for v in values]
        out = SimComm(world).allreduce(values, op="sum")
        for i, a in enumerate(out):
            assert not any(np.shares_memory(a, v) for v in values)
            for b in out[i + 1 :]:
                assert not np.shares_memory(a, b)
        for v, b in zip(values, before):
            assert np.array_equal(v, b)

    def test_fault_injected_retry_converges_to_same_bits(self):
        """A traced communicator returns the untraced bits and records one
        ``comm.allreduce`` span per call, carrying its payload."""
        rng = np.random.default_rng(227)
        world = 4
        plain = SimComm(world)
        traced = _traced_comm(world)
        for call in range(8):
            values = [rng.normal(size=29) for _ in range(world)]
            for p, t in zip(plain.allreduce(values, op="mean"), traced.allreduce(values, op="mean")):
                assert np.array_equal(p, t), f"call {call}"
        spans = traced.tracer.completed()
        assert [s.name for s in spans] == ["comm.allreduce"] * 8
        assert all(s.attrs["bytes"] == 29 * 8 and s.attrs["ranks"] == world for s in spans)
        assert traced.traffic == plain.traffic

    def test_reduce_scatter_rejects_ragged_input(self):
        """Ragged per-rank arrays, a wrong rank count and an unknown op are
        refused before anything is metered."""
        comm = SimComm(2)
        with pytest.raises(ValueError, match="one shape on every rank"):
            comm.allreduce([np.zeros(4), np.zeros(5)])
        with pytest.raises(ValueError, match="one shape on every rank"):
            comm.allreduce([np.zeros(4), np.zeros(1)])  # would broadcast
        with pytest.raises(ValueError, match="expected 2 per-rank values"):
            comm.allreduce([np.zeros(4)])
        with pytest.raises(ValueError, match="unsupported op"):
            comm.allreduce([np.zeros(4)] * 2, op="xor")
        assert comm.traffic.allreduce_calls == comm.traffic.allreduce_bytes == 0


# --------------------------------------------------------------------------- #
# Traffic accounting
# --------------------------------------------------------------------------- #
class TestTrafficAccounting:
    def test_wasted_bytes_pinned_under_seeded_faults(self):
        """Regression pin: every allreduce meters exactly one ring
        allreduce, 2 * (N-1) * payload bytes, and nothing else."""
        world = 4
        n = 64
        per_call = 2 * (world - 1) * n * 8  # float64
        comm = SimComm(world)
        rng = np.random.default_rng(229)
        calls = 8
        for _ in range(calls):
            comm.allreduce([rng.normal(size=n) for _ in range(world)], op="mean")
        assert comm.traffic.allreduce_calls == calls
        assert comm.traffic.allreduce_bytes == calls * per_call == 24576

    def test_ring_halves_sum_to_one_allreduce_at_every_world(self):
        """``_ring_volume`` is integer arithmetic: at N = 3, 5, 9 a 200-byte
        allreduce meters exactly 2 * (N-1) * 200 B."""
        for world in (3, 5, 9):
            comm = SimComm(world)
            comm.allreduce([np.zeros(25) for _ in range(world)])  # 200 B each
            assert comm.traffic.allreduce_bytes == 2 * (world - 1) * 200, world
            assert isinstance(comm.traffic.allreduce_bytes, int)
            assert comm._ring_volume(200) == comm.traffic.allreduce_bytes

    def test_ragged_shard_metering_sums_elements(self):
        """The payload is one rank's contribution in float64, the dtype the
        reduction runs in, whatever the input: Python floats, float32 and
        integers all meter 8 bytes per element."""
        world = 3
        for values in (
            [[1.0, 2.0, 3.0]] * world,
            [np.ones(3, dtype=np.float32)] * world,
            [np.arange(3)] * world,
        ):
            comm = SimComm(world)
            out = comm.allreduce(values)
            assert out[0].dtype == np.float64
            assert comm.traffic.allreduce_bytes == 2 * (world - 1) * 3 * 8

    def test_wire_bytes_override_meters_compressed_payload(self):
        """A communicator shared across DDP steps accumulates exactly one
        allreduce per step, each of ``_ring_volume(payload)``."""
        task, samples = _ddp_task_and_samples()
        comm = SimComm(4)
        strategy = DDPStrategy(4, comm=comm)
        for step in range(1, 4):
            strategy.execute(task, samples)
            payload = sum(p.grad.nbytes for p in task.parameters() if p.grad is not None)
            assert comm.traffic.allreduce_calls == step
            assert comm.traffic.allreduce_bytes == step * comm._ring_volume(payload)


# --------------------------------------------------------------------------- #
# N ranks == 1 rank, through the optimizer
# --------------------------------------------------------------------------- #
@functools.lru_cache(maxsize=None)
def _batches():
    """Five global batches of 8 samples (cached: the dataset is seeded)."""
    samples = _make_samples(40, seed=9)
    return [samples[i : i + 8] for i in range(0, 40, 8)]


def _ddp_step(world, tracer=None):
    strategy = DDPStrategy(world)
    strategy.tracer = strategy.comm.tracer = tracer
    return lambda task, batch: strategy.execute(task, batch)[0]


def _oracle_step(world):
    return lambda task, batch: _rank_order_step(task, batch, world)


class TestShardedAdamBitIdentity:
    # The ``name`` field keeps the ids of the rank-sharded optimizers each
    # kwargs set was once checked against; the optimizer is ``opt_cls``.
    @pytest.mark.parametrize("world", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize(
        "name,opt_cls,kwargs",
        [
            ("ShardedAdam", Adam, dict(weight_decay=0.0)),
            ("ShardedAdam", Adam, dict(weight_decay=1e-2)),
            ("ShardedAdamW", AdamW, dict(weight_decay=1e-2)),
            ("ShardedAdamW", AdamW, dict(weight_decay=1e-2, betas=(0.8, 0.95), eps=1e-6)),
        ],
    )
    def test_five_steps_bit_identical_to_dense(self, world, name, opt_cls, kwargs):
        """Five ``DDPStrategy(world)`` steps through ``opt_cls`` leave the
        parameters and losses of one process accumulating the same rank
        shards in rank order, bit for bit."""
        ddp_task, one_task = _make_task(), _make_task()
        ddp_losses = _train(
            ddp_task, _batches(), opt_cls(ddp_task.parameters(), lr=2e-3, **kwargs),
            _ddp_step(world),
        )
        one_losses = _train(
            one_task, _batches(), opt_cls(one_task.parameters(), lr=2e-3, **kwargs),
            _oracle_step(world),
        )
        assert ddp_losses == one_losses
        _assert_same_params(ddp_task, one_task, f"world={world}")

    def test_none_grads_skipped_like_dense(self):
        """A parameter no rank touches keeps ``grad=None`` under DDP, so
        AdamW neither steps nor decays it: it keeps its initial bits."""
        task = _make_task()
        init = [p.data.copy() for p in task.parameters()]
        opt = AdamW(task.parameters(), lr=1e-2, weight_decay=1e-1)
        _train(task, _batches()[:2], opt, _ddp_step(4))
        untouched = [i for i, p in enumerate(task.parameters()) if p.grad is None]
        assert untouched, "this encoder has parameters no rank touches"
        for i, p in enumerate(task.parameters()):
            assert np.array_equal(p.data, init[i]) == (i in untouched), f"param {i}"

    def test_fault_injected_step_converges_to_same_bits(self):
        """Tracing the DDP step never changes parameters, and each step
        records one ``comm.allreduce`` span carrying its payload."""
        plain, traced = _make_task(), _make_task()
        tracer = Tracer()
        _train(plain, _batches()[:3], AdamW(plain.parameters(), lr=1e-3), _ddp_step(4))
        _train(traced, _batches()[:3], AdamW(traced.parameters(), lr=1e-3),
               _ddp_step(4, tracer=tracer))
        _assert_same_params(plain, traced)
        payload = sum(p.grad.nbytes for p in traced.parameters() if p.grad is not None)
        spans = [s for s in tracer.completed() if s.name == "comm.allreduce"]
        assert len(spans) == 3
        assert all(s.attrs["bytes"] == payload and s.attrs["ranks"] == 4 for s in spans)

    def test_ownership_is_disjoint_exact_cover(self):
        """Adam's moments after three DDP steps equal the one-process
        oracle's, element for element, and a parameter no rank touches
        never gets any."""
        ddp_task, one_task = _make_task(), _make_task()
        ddp_opt = AdamW(ddp_task.parameters(), lr=1e-3)
        one_opt = AdamW(one_task.parameters(), lr=1e-3)
        _train(ddp_task, _batches()[:3], ddp_opt, _ddp_step(3))
        _train(one_task, _batches()[:3], one_opt, _oracle_step(3))
        assert ddp_opt.state.keys() == one_opt.state.keys()
        assert len(ddp_opt.state) < len(ddp_opt.params)
        for i, entry in ddp_opt.state.items():
            for moment in ("m", "v"):
                assert np.array_equal(entry[moment], one_opt.state[i][moment]), (i, moment)


# --------------------------------------------------------------------------- #
# The DDP rank loop that feeds the reduction
# --------------------------------------------------------------------------- #
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
    used to pin; that compression path is gone.)
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
        ``comm.allreduce(op="mean")`` per touched parameter."""
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

    def test_nan_survives_compression(self):
        """A NaN in one rank's gradient reaches the reduced gradient:
        nothing masks a non-finite contribution."""
        task, samples = _ddp_task_and_samples()
        poison = _PoisonTask(task, rank=2)
        DDPStrategy(4).execute(poison, samples)
        params = list(task.parameters())
        grad = params[poison.index].grad
        assert np.isnan(grad.flat[0])
        assert np.isfinite(grad.flat[1:]).all()
        assert all(
            np.isfinite(p.grad).all()
            for i, p in enumerate(params) if i != poison.index and p.grad is not None
        )

    def test_rounding_is_to_nearest(self):
        """``sum``/``mean`` accumulate in rank order, then divide by N, and
        ``allreduce`` hands every rank those bits."""
        rng = np.random.default_rng(409)
        for world in (2, 8, 9, 16):
            values = [rng.normal(size=1) * 10.0 ** rng.integers(-6, 6) for _ in range(world)]
            ordered = values[0].copy()
            for v in values[1:]:
                ordered = ordered + v
            assert np.array_equal(SimComm._reduce(values, "sum"), ordered)
            assert np.array_equal(SimComm._reduce(values, "mean"), ordered / world)
            for got in SimComm(world).allreduce(values, op="mean"):
                assert np.array_equal(got, ordered / world)
