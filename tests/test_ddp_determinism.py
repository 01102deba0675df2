"""DDP determinism regression: N ranks == 1 rank, bit for bit.

Simulated DDP must be a *pure reshuffling* of the single-process
computation: training the same model on the same global batches with the
same seed must leave bit-identical parameters whether gradients are
produced by ``DDPStrategy(4)`` or by one process accumulating the same
four microbatch gradients sequentially and applying the 1/N loss-scale
correction.  Exact equality — not allclose — is the bar, and it holds here
because every parameter of this EGNN receives one contribution per
backward and 1/4 is a power of two.  Any hidden state (RNG consumed during
forward, stale optimizer moments, order-dependent reductions) breaks it.

``DDPStrategy``'s one reduction computes Σ_r g_r in rank order divided by
N, so it must leave the gradients (and the ``grad=None`` parameters) of a
one-process rank-order accumulation of the same shards, byte for byte,
for every encoder at every world size.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import detect_anomaly
from repro.core import EncoderConfig
from repro.core.pipeline import build_encoder_from_config
from repro.data.batching import collate_graphs
from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.distributed import DDPStrategy
from repro.models import EGNN
from repro.observability import OpProfiler, Tracer
from repro.optim import AdamW
from repro.tasks import MultiClassClassificationTask
from tests.test_sharding import _rank_order_step

WORLD = 4
STEPS = 5
BATCH = 16  # per step: WORLD shards of 4 samples


def _make_task(seed: int = 5) -> MultiClassClassificationTask:
    rng = np.random.default_rng(seed)
    enc = EGNN(hidden_dim=10, num_layers=1, position_dim=4, num_species=4, rng=rng)
    return MultiClassClassificationTask(
        enc,
        num_classes=4,
        hidden_dim=8,
        num_blocks=1,
        dropout=0.0,
        rng=np.random.default_rng(seed + 1),
    )


def _make_batches(seed: int = 5):
    ds = SymmetryPointCloudDataset(
        BATCH * STEPS, seed=seed, group_names=["C1", "C2", "C4", "D2"]
    )
    tf = StructureToGraph(cutoff=2.5)
    samples = [tf(ds[i]) for i in range(len(ds))]
    return [samples[i * BATCH : (i + 1) * BATCH] for i in range(STEPS)]


def _optimizer(task) -> AdamW:
    return AdamW(task.parameters(), lr=3e-3, weight_decay=1e-4)


def _train_ddp(task, batches, strategy=None):
    strategy = strategy if strategy is not None else DDPStrategy(WORLD)
    optimizer = _optimizer(task)
    losses = []
    for batch in batches:
        optimizer.zero_grad()
        loss, _ = strategy.execute(task, batch)
        optimizer.step()
        losses.append(loss)
    return losses


def _train_single_accumulating(task, batches):
    """One rank replaying the N microbatches with the 1/N loss-scale fix."""
    strategy = DDPStrategy(WORLD)  # reuse its sharding, not its execution
    optimizer = _optimizer(task)
    params = list(task.parameters())
    losses = []
    for batch in batches:
        optimizer.zero_grad()
        shard_losses = []
        for shard in strategy.shard(batch):
            loss, _ = task.training_step(collate_graphs(shard))
            loss.backward()  # gradients accumulate in place across shards
            shard_losses.append(float(loss.data))
        for p in params:
            if p.grad is not None:
                p.grad *= 1.0 / WORLD  # loss-scale correction == allreduce mean
        optimizer.step()
        losses.append(float(np.mean(shard_losses)))
    return losses


class TestDDPDeterminism:
    def test_params_bit_identical_after_five_steps(self):
        task_ddp, task_single = _make_task(), _make_task()
        # Same seed must mean same init: guard the premise explicitly.
        for (name, a), (_, b) in zip(
            task_ddp.named_parameters(), task_single.named_parameters()
        ):
            assert np.array_equal(a.data, b.data), f"init differs: {name}"

        batches = _make_batches()
        losses_ddp = _train_ddp(task_ddp, batches)
        losses_single = _train_single_accumulating(task_single, _make_batches())

        for (name, a), (_, b) in zip(
            task_ddp.named_parameters(), task_single.named_parameters()
        ):
            assert np.array_equal(a.data, b.data), (
                f"{name}: max |delta| = "
                f"{np.max(np.abs(a.data - b.data)):.3e} after {STEPS} steps"
            )
        assert losses_ddp == losses_single  # per-step losses bit-identical too

    def test_same_seed_rerun_is_bit_identical(self):
        """No hidden global state: repeating the DDP run reproduces itself."""
        first, second = _make_task(), _make_task()
        _train_ddp(first, _make_batches())
        _train_ddp(second, _make_batches())
        for (name, a), (_, b) in zip(
            first.named_parameters(), second.named_parameters()
        ):
            assert np.array_equal(a.data, b.data), name

    def test_different_seed_actually_diverges(self):
        """The equality above is meaningful: other seeds change the params."""
        a, b = _make_task(seed=5), _make_task(seed=6)
        diffs = [
            not np.array_equal(pa.data, pb.data)
            for (_, pa), (_, pb) in zip(a.named_parameters(), b.named_parameters())
        ]
        assert any(diffs)


def _op_counts(profiler):
    return {(s.name, s.phase): (s.calls, s.allocs) for s in profiler.summary()}


class TestCompiledDeterminism:
    """Observers are read-only: 4-rank DDP with the per-op profiler and
    ``detect_anomaly`` on must leave the same bits as plain 1-rank
    accumulation.  (The class keeps the name of the tape-compiler variant
    it replaced; DESIGN.md §14.)"""

    def test_compiled_four_ranks_match_eager_single_rank(self):
        task_observed, task_plain = _make_task(), _make_task()
        with OpProfiler() as profiler, detect_anomaly():
            losses_observed = _train_ddp(task_observed, _make_batches())
        losses_plain = _train_single_accumulating(task_plain, _make_batches())

        for (name, a), (_, b) in zip(
            task_observed.named_parameters(), task_plain.named_parameters()
        ):
            assert np.array_equal(a.data, b.data), (
                f"{name}: max |delta| = "
                f"{np.max(np.abs(a.data - b.data)):.3e} after {STEPS} steps"
            )
        assert losses_observed == losses_plain
        assert profiler.summary("backward"), "no backward hop was observed"

    def test_compiled_repeated_batches_replay_from_cache(self):
        """A recurring global batch builds the same tape every step — the
        profile of each step is identical, op by op — and the observed run
        still matches the plain one bitwise."""
        batch = _make_batches()[0]
        batches = [batch] * 4  # same global batch every step
        task_observed, task_plain = _make_task(), _make_task()
        strategy = DDPStrategy(WORLD)
        optimizer = _optimizer(task_observed)
        losses_observed, profiles = [], []
        for step_batch in batches:
            optimizer.zero_grad()
            with OpProfiler() as profiler, detect_anomaly():
                loss, _ = strategy.execute(task_observed, step_batch)
            optimizer.step()
            losses_observed.append(loss)
            profiles.append(_op_counts(profiler))
        losses_plain = _train_ddp(task_plain, batches)

        assert profiles[0] and all(p == profiles[0] for p in profiles[1:])
        assert losses_observed == losses_plain
        for (name, a), (_, b) in zip(
            task_observed.named_parameters(), task_plain.named_parameters()
        ):
            assert np.array_equal(a.data, b.data), name


class TestShardedDeterminism:
    """Tracing and leftover samples are invisible: same bits as one rank.

    (The class keeps the name of the ZeRO sharding variant it replaced.)
    """

    def test_sharded_four_ranks_match_dense_single_rank(self):
        """4-rank DDP with a tracer on the strategy leaves the bits of
        plain 1-rank accumulation, and records one ``comm.allreduce`` span
        per step."""
        task_traced, task_single = _make_task(), _make_task()
        strategy = DDPStrategy(WORLD)
        strategy.tracer = Tracer()
        losses_traced = _train_ddp(task_traced, _make_batches(), strategy)
        losses_single = _train_single_accumulating(task_single, _make_batches())

        for (name, a), (_, b) in zip(
            task_traced.named_parameters(), task_single.named_parameters()
        ):
            assert np.array_equal(a.data, b.data), (
                f"{name}: max |delta| = "
                f"{np.max(np.abs(a.data - b.data)):.3e} after {STEPS} steps"
            )
        assert losses_traced == losses_single
        spans = [s.name for s in strategy.tracer.completed()]
        assert spans.count("comm.allreduce") == STEPS

    def test_bucket_bytes_never_changes_results(self):
        """Samples past the last full rank shard are dropped, never read:
        global batches of 17, 18 and 19 samples train to the same bits as
        their first 16."""
        extra = _make_batches(seed=11)[0]
        ref_task = _make_task()
        ref_losses = _train_ddp(ref_task, _make_batches())
        for k in (1, 2, 3):
            task = _make_task()
            batches = [batch + extra[:k] for batch in _make_batches()]
            assert _train_ddp(task, batches) == ref_losses, k
            for (name, a), (_, b) in zip(
                task.named_parameters(), ref_task.named_parameters()
            ):
                assert np.array_equal(a.data, b.data), f"{k} extra: {name}"


def _encoder_task(name: str) -> MultiClassClassificationTask:
    config = EncoderConfig(
        name=name, hidden_dim=10, num_layers=2, position_dim=4, num_species=4
    )
    encoder = build_encoder_from_config(config, rng=np.random.default_rng(7))
    return MultiClassClassificationTask(
        encoder,
        num_classes=4,
        hidden_dim=8,
        num_blocks=1,
        dropout=0.0,
        rng=np.random.default_rng(8),
    )


class TestEveryReductionPath:
    """Identity-lattice row N-rank == 1-rank, per encoder, byte for byte."""

    @pytest.fixture(scope="class")
    def samples(self):
        return _make_batches()[0][:8]

    @pytest.mark.parametrize("world", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("encoder", ["egnn", "gaanet", "schnet", "megnet"])
    def test_gradients_byte_identical(self, encoder, world, samples):
        """``DDPStrategy(world)`` leaves the loss and the gradient bytes of
        one process accumulating the same rank shards in rank order ÷ N,
        including which parameters keep ``grad=None``."""
        task = _encoder_task(encoder)
        loss_ddp, _ = DDPStrategy(world).execute(task, samples)
        ddp = [None if p.grad is None else p.grad.tobytes() for p in task.parameters()]
        loss_one = _rank_order_step(task, samples, world)
        one = [None if p.grad is None else p.grad.tobytes() for p in task.parameters()]
        assert any(g is not None for g in ddp)
        assert loss_ddp == loss_one
        for i, (a, b) in enumerate(zip(ddp, one)):
            assert (a is None) == (b is None), f"param {i} None-ness"
            assert a == b, f"param {i} bytes differ"

    def test_buckets_win_over_injector(self, samples):
        """Each DDP step is exactly one allreduce of 2 * (N-1) * payload
        bytes on the strategy's traffic log, payload = the bytes of the
        gradients some rank touched."""
        strategy = DDPStrategy(4)
        comm = strategy.comm
        task = _encoder_task("egnn")
        for step in range(1, 3):
            strategy.execute(task, samples)
            payload = sum(p.grad.nbytes for p in task.parameters() if p.grad is not None)
            assert comm.traffic.allreduce_calls == step
            assert comm.traffic.allreduce_bytes == step * 2 * 3 * payload
