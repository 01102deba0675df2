"""Contracts of the one DDP reduction path and the allreduce it is metered as.

``DDPStrategy`` splits a global batch into N rank shards, runs one
forward/backward per rank, and leaves Σ_r g_r / N (rank order) on every
parameter some rank touched.  Four layers are swept here:

* the rank partition — ``DDPStrategy.shard`` is an exact, disjoint,
  deterministic drop-last cover of the global batch;
* the reduction — ``rank_order_mean`` sums in rank order then divides by
  N, refuses ragged rank arrays, and each step meters 2 * (N-1) * payload
  bytes on ``strategy.comm.traffic``;
* N ranks == 1 rank — DDP + Adam(W) steps equal one process accumulating
  the same per-shard gradients in rank order, byte for byte;
* the rank loop — rank gradients move into the one reduction, and a
  non-finite contribution reaches the result.

The class and parametrize names are this file's history: it once tested
the ZeRO sharding stack (gradient buckets, reduce-scatter/allgather and a
rank-sharded Adam), which is gone (EXPERIMENTS.md records why), and later
an in-process communicator whose collective now lives here as
``_rank_order_oracle``.  Each test's docstring says what it pins now.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.data.batching import collate_graphs
from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.distributed import DDPStrategy
from repro.distributed.ddp import rank_order_mean
from repro.models import EGNN
from repro.nn import Parameter
from repro.observability import Observer, Tracer
from repro.optim import Adam, AdamW
from repro.tasks import MultiClassClassificationTask
from repro.training import Trainer, TrainerConfig


def _rank_order_oracle(values):
    """The rank-order oracle of DDP's reduction: Σ_r v_r in float64 with a
    fresh array per addition, rank 0 first, then ÷ N."""
    total = np.array(values[0], dtype=np.float64)
    for v in values[1:]:
        total = total + v
    return total / len(values)


class _VectorTask:
    """One ``size``-element float64 parameter and a loss that ignores the
    batch: every step touches exactly ``size`` gradient elements."""

    def __init__(self, size):
        self.weight = Parameter(np.arange(float(size)))

    def parameters(self):
        return [self.weight]

    def training_step(self, batch):
        return (self.weight * 0.5).sum(), {}


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
        p.grad = _rank_order_oracle(
            [np.zeros_like(p.data) if g is None else g for g in contributions]
        )
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
        """A world below one rank is refused; a valid world meters on its
        own rank count."""
        for world in (0, -1):
            with pytest.raises(ValueError, match="world_size must be >= 1"):
                DDPStrategy(world)
        assert DDPStrategy(3).comm.world_size == 3

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
# Reduction properties
# --------------------------------------------------------------------------- #
class TestBucketCollectives:
    @pytest.mark.parametrize("op", ["sum", "mean"])
    def test_reduce_scatter_allgather_equals_allreduce(self, op):
        """``mean``: ``rank_order_mean`` leaves the oracle's bits at every
        world size.  ``sum``: the order is the rank order — over these
        magnitudes some reversed-order sum differs in the last bits, and
        the reduction never matches it there."""
        rng = np.random.default_rng(211)
        reorders = 0
        for world in (1, 2, 3, 5, 8):
            values = [rng.normal(size=37) * 10.0 ** rng.integers(-6, 6) for _ in range(world)]
            got = rank_order_mean(values)
            if op == "mean":
                assert np.array_equal(got, _rank_order_oracle(values)), f"world={world}"
            else:
                reversed_ = _rank_order_oracle(values[::-1])
                differ = got != reversed_
                reorders += int(differ.any())
                assert np.array_equal(got[differ], _rank_order_oracle(values)[differ])
        if op == "sum":
            assert reorders > 0

    def test_shards_are_disjoint_slices_of_the_reduction(self):
        """The result is a fresh array: it shares memory with no rank's
        input, and the inputs stay unmodified."""
        rng = np.random.default_rng(223)
        world = 4
        values = [rng.normal(size=18) for _ in range(world)]
        before = [v.copy() for v in values]
        out = rank_order_mean(values)
        assert not any(np.shares_memory(out, v) for v in values)
        for v, b in zip(values, before):
            assert np.array_equal(v, b)

    def test_fault_injected_retry_converges_to_same_bits(self):
        """A trainer's observer traces the strategy: each DDP step records
        one ``comm.allreduce`` span carrying its payload, and the traced run
        leaves the untraced run's parameters and traffic log."""
        world = 4
        runs = []
        for observer in (None, Observer()):
            task, strategy = _make_task(), DDPStrategy(world)
            trainer = Trainer(
                TrainerConfig(max_epochs=1), strategy=strategy, observer=observer
            )
            trainer.fit(task, _batches()[:3], optimizer=AdamW(task.parameters(), lr=1e-3))
            runs.append((task, strategy, observer))
        (plain, plain_ddp, _), (traced, traced_ddp, observer) = runs
        _assert_same_params(plain, traced)
        assert traced_ddp.comm.traffic == plain_ddp.comm.traffic
        payload = sum(p.grad.nbytes for p in traced.parameters() if p.grad is not None)
        spans = [s for s in observer.tracer.completed() if s.name == "comm.allreduce"]
        assert len(spans) == 3
        assert all(s.attrs["bytes"] == payload and s.attrs["ranks"] == world for s in spans)

    def test_reduce_scatter_rejects_ragged_input(self):
        """Ragged rank arrays are refused, even a shape ``+=`` would
        broadcast, and a DDP step whose ranks hand over ragged gradients
        fails before anything is metered."""
        with pytest.raises(ValueError, match="one shape on every rank"):
            rank_order_mean([np.zeros(4), np.zeros(5)])
        with pytest.raises(ValueError, match="one shape on every rank"):
            rank_order_mean([np.zeros(4), np.zeros(1)])  # would broadcast
        with pytest.raises(ValueError, match="one shape on every rank"):
            rank_order_mean([np.zeros((2, 2)), np.zeros(4)])
        task, samples = _ddp_task_and_samples()
        ragged = _RaggedTask(task, rank=1)
        ddp = DDPStrategy(2)
        with pytest.raises(ValueError, match="one shape on every rank"):
            ddp.execute(ragged, samples)
        assert ddp.comm.traffic.allreduce_calls == ddp.comm.traffic.allreduce_bytes == 0


# --------------------------------------------------------------------------- #
# Traffic accounting
# --------------------------------------------------------------------------- #
class TestTrafficAccounting:
    def test_wasted_bytes_pinned_under_seeded_faults(self):
        """Regression pin: every DDP step meters exactly one ring
        allreduce, 2 * (N-1) * payload bytes, and nothing else."""
        world = 4
        n = 64
        per_call = 2 * (world - 1) * n * 8  # float64
        ddp = DDPStrategy(world)
        task, samples = _VectorTask(n), _make_samples(world)
        calls = 8
        for _ in range(calls):
            ddp.execute(task, samples)
        assert ddp.comm.traffic.allreduce_calls == calls
        assert ddp.comm.traffic.allreduce_bytes == calls * per_call == 24576

    def test_ring_halves_sum_to_one_allreduce_at_every_world(self):
        """Ring metering is integer arithmetic: at N = 3, 5, 9 a 200-byte
        step meters exactly 2 * (N-1) * 200 B."""
        for world in (3, 5, 9):
            ddp = DDPStrategy(world)
            ddp.execute(_VectorTask(25), _make_samples(world))  # 200 B per rank
            assert ddp.comm.traffic.allreduce_bytes == 2 * (world - 1) * 200, world
            assert isinstance(ddp.comm.traffic.allreduce_bytes, int)

    def test_ragged_shard_metering_sums_elements(self):
        """The payload is one rank's gradient in float64, the dtype the
        reduction runs in: every touched element meters 8 bytes."""
        task, samples = _ddp_task_and_samples()
        for world in (2, 3):
            ddp = DDPStrategy(world)
            ddp.execute(task, samples)
            grads = [p.grad for p in task.parameters() if p.grad is not None]
            assert all(g.dtype == np.float64 for g in grads)
            elements = sum(g.size for g in grads)
            assert ddp.comm.traffic.allreduce_bytes == 2 * (world - 1) * elements * 8

    def test_wire_bytes_override_meters_compressed_payload(self):
        """A strategy's traffic log accumulates across steps: exactly one
        allreduce per step, each of 2 * (N-1) * payload bytes."""
        task, samples = _ddp_task_and_samples()
        strategy = DDPStrategy(4)
        for step in range(1, 4):
            strategy.execute(task, samples)
            payload = sum(p.grad.nbytes for p in task.parameters() if p.grad is not None)
            assert strategy.comm.traffic.allreduce_calls == step
            assert strategy.comm.traffic.allreduce_bytes == step * 2 * 3 * payload


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
    strategy.tracer = tracer
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


class _RaggedTask(_SpyTask):
    """Truncates one rank's first gradient after its backward."""

    def __init__(self, task, rank):
        super().__init__(task)
        self.rank = rank

    def training_step(self, batch):
        loss, metrics = self.task.training_step(batch)
        rank = len(self.produced)

        def truncate():
            self.produced.append(rank)
            if rank == self.rank:
                p = next(p for p in self.parameters() if p.grad is not None)
                p.grad = p.grad.reshape(-1)[:1].copy()

        return _Loss(loss, truncate), metrics


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
        """The local reduction leaves the bits of the rank-order oracle per
        touched parameter."""
        task, samples = _ddp_task_and_samples()
        world = 4
        ddp = _CapturingDDP(world)
        ddp.execute(task, samples)
        params = list(task.parameters())
        assert any(p.grad is None for p in params)
        for i, p in enumerate(params):
            if p.grad is None:
                assert all(g[i] is None for g in ddp.rank_grads)
                continue
            explicit = _rank_order_oracle(
                [g[i] if g[i] is not None else np.zeros_like(p.data) for g in ddp.rank_grads]
            )
            assert np.array_equal(p.grad, explicit), i

    def test_payload_is_two_bytes_per_element(self):
        """The local path meters exactly one allreduce of
        2 * (N-1) * payload bytes, payload = the touched gradients' bytes."""
        task, samples = _ddp_task_and_samples()
        for world in (1, 2, 4):
            ddp = DDPStrategy(world)
            ddp.execute(task, samples)
            payload = sum(p.grad.nbytes for p in task.parameters() if p.grad is not None)
            assert ddp.comm.traffic.allreduce_calls == 1
            assert ddp.comm.traffic.allreduce_bytes == 2 * (world - 1) * payload

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
        """The reduction accumulates in rank order, then divides by N: the
        bits of a written-out rank-order sum ÷ N and of the oracle."""
        rng = np.random.default_rng(409)
        for world in (2, 8, 9, 16):
            values = [rng.normal(size=1) * 10.0 ** rng.integers(-6, 6) for _ in range(world)]
            ordered = values[0].copy()
            for v in values[1:]:
                ordered = ordered + v
            assert np.array_equal(rank_order_mean(values), ordered / world)
            assert np.array_equal(_rank_order_oracle(values), ordered / world)
