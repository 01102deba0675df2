"""Distributed substrate: the DDP reduction and its meter, DDP exactness,
the perf model, and the node shape.

``TestSimComm`` and ``TestAffinity`` keep the names of the in-process
communicator and the NUMA placement planner they once pinned; both are
gone.  Their ids now pin ``rank_order_mean``'s arithmetic and refusals,
the strategy's traffic log, and the ``NodeSpec`` arithmetic Fig. 2 reads.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.distributed import (
    ClusterSpec,
    DDPStrategy,
    ENDEAVOUR,
    InterconnectSpec,
    NodeSpec,
    SingleProcessStrategy,
    ThroughputModel,
)
from repro.distributed.ddp import rank_order_mean
from repro.distributed.perf_model import linear_fit_r2
from repro.models import EGNN
from repro.optim import scale_lr_for_ddp
from repro.tasks import MultiClassClassificationTask
from tests.test_sharding import _rank_order_oracle


class TestSimComm:
    def test_allreduce_sum_mean_max_min(self):
        """The reduction is the mean over ranks, nothing else."""
        values = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
        assert np.array_equal(rank_order_mean(values), [3.0, 4.0])

    def test_allreduce_all_ranks_identical(self):
        """N identical rank arrays reduce to that array, bit for bit at a
        power-of-two N."""
        x = np.random.default_rng(3).normal(size=6)
        assert np.array_equal(rank_order_mean([x] * 4), x)

    def test_allreduce_unknown_op(self):
        """A rank array of another length is refused."""
        with pytest.raises(ValueError, match="one shape on every rank"):
            rank_order_mean([np.zeros(2), np.zeros(3)])

    def test_wrong_rank_count_rejected(self):
        """The world fixes the rank count: a global batch that cannot feed
        every rank is refused before anything is metered."""
        task, samples = make_task_and_samples(n=2)
        ddp = DDPStrategy(3)
        with pytest.raises(ValueError, match="cannot feed 3 ranks"):
            ddp.execute(task, samples)
        assert ddp.comm.traffic.allreduce_calls == 0

    def test_bcast(self):
        """The reduced array keeps the ranks' shape."""
        values = [np.arange(6.0).reshape(2, 3) * (r + 1) for r in range(3)]
        out = rank_order_mean(values)
        assert out.shape == (2, 3)
        assert np.array_equal(out, np.arange(6.0).reshape(2, 3) * 2)

    def test_gather_root_only(self):
        """The result is a fresh array, not rank 0's buffer, and rank 0's
        input is left as it was."""
        values = [np.array([1.0, 2.0]), np.array([3.0, 6.0])]
        out = rank_order_mean(values)
        assert np.array_equal(out, [2.0, 4.0])
        assert not np.shares_memory(out, values[0])
        assert np.array_equal(values[0], [1.0, 2.0])

    def test_allgather(self):
        """The mean is the rank-order sum divided by N: the oracle's bits."""
        rng = np.random.default_rng(0)
        values = [rng.normal(size=10) * 10.0 ** rng.integers(-6, 6) for _ in range(4)]
        assert np.array_equal(rank_order_mean(values), _rank_order_oracle(values))

    def test_scatter(self):
        """The reduction takes one equal-shape array per rank, even where
        ``+=`` would broadcast."""
        for values in (
            [np.zeros(4), np.zeros(3)],
            [np.zeros((2, 2)), np.zeros(4)],
            [np.zeros(4), np.zeros(1)],
            [np.zeros((1, 4)), np.zeros(4)],
        ):
            with pytest.raises(ValueError, match="one shape on every rank"):
                rank_order_mean(values)

    def test_traffic_metering(self):
        task, samples = make_task_and_samples()
        ddp = DDPStrategy(4)
        ddp.execute(task, samples)
        payload = sum(p.grad.nbytes for p in task.parameters() if p.grad is not None)
        assert ddp.comm.traffic.allreduce_calls == 1
        # ring: 2 * 3/4 * payload bytes * 4 ranks
        assert ddp.comm.traffic.allreduce_bytes == int(2 * 0.75 * payload * 4)

    def test_single_rank_no_traffic(self):
        task, samples = make_task_and_samples(n=2)
        ddp = DDPStrategy(1)
        ddp.execute(task, samples)
        assert ddp.comm.traffic.allreduce_calls == 1
        assert ddp.comm.traffic.allreduce_bytes == 0

    def test_world_size_validation(self):
        """The meter counts the strategy's ranks; no world below one."""
        assert DDPStrategy(5).comm.world_size == 5
        for bad in (0, -2):
            with pytest.raises(ValueError, match="world_size must be >= 1"):
                DDPStrategy(bad)

    def test_barrier_is_noop(self):
        """In a one-rank world the reduction is the identity (a copy) and
        moves no bytes."""
        x = np.arange(5.0)
        out = rank_order_mean([x])
        assert np.array_equal(out, x) and not np.shares_memory(out, x)
        task, samples = make_task_and_samples(n=2)
        ddp = DDPStrategy(1)
        for _ in range(4):
            ddp.execute(task, samples)
        assert ddp.comm.traffic.allreduce_calls == 4
        assert ddp.comm.traffic.allreduce_bytes == 0


def make_task_and_samples(seed=5, n=8):
    rng = np.random.default_rng(seed)
    enc = EGNN(hidden_dim=10, num_layers=1, position_dim=4, num_species=4, rng=rng)
    task = MultiClassClassificationTask(
        enc, num_classes=4, hidden_dim=8, num_blocks=1, dropout=0.0,
        rng=np.random.default_rng(seed + 1),
    )
    ds = SymmetryPointCloudDataset(n, seed=seed, group_names=["C1", "C2", "C4", "D2"])
    tf = StructureToGraph(cutoff=2.5)
    return task, [tf(ds[i]) for i in range(n)]


class TestDDPStrategy:
    @given(world=st.sampled_from([1, 2, 4, 8]))
    @settings(max_examples=4, deadline=None)
    def test_gradients_match_single_process_exactly(self, world):
        task, samples = make_task_and_samples()
        single = SingleProcessStrategy()
        task.zero_grad()
        loss_sp, _ = single.execute(task, samples)
        ref = {n: p.grad.copy() for n, p in task.named_parameters() if p.grad is not None}

        task.zero_grad()
        loss_ddp, _ = DDPStrategy(world).execute(task, samples)
        for name, p in task.named_parameters():
            if name in ref:
                assert np.allclose(p.grad, ref[name], atol=1e-12), name
        assert loss_ddp == pytest.approx(loss_sp, abs=1e-9)

    def test_shard_sizes_equal(self):
        ddp = DDPStrategy(4)
        shards = ddp.shard(list(range(10)))
        assert [len(s) for s in shards] == [2, 2, 2, 2]  # drops remainder

    def test_too_small_batch_rejected(self):
        task, samples = make_task_and_samples(n=2)
        with pytest.raises(ValueError):
            DDPStrategy(4).execute(task, samples)

    def test_meters_allreduce_traffic(self):
        task, samples = make_task_and_samples()
        ddp = DDPStrategy(4)
        ddp.execute(task, samples)
        assert ddp.comm.traffic.allreduce_calls == 1
        assert ddp.comm.traffic.allreduce_bytes > 0

    def test_metrics_are_rank_means(self):
        """Each returned metric is the mean over the ranks that report it,
        like the loss, not the last rank's value."""
        task, samples = make_task_and_samples()

        class _RankMetricTask:
            def __init__(self):
                self.rank = 0

            def parameters(self):
                return task.parameters()

            def training_step(self, batch):
                loss, _ = task.training_step(batch)
                metrics = {"rank": float(self.rank)}
                if self.rank % 2:
                    metrics["odd_rank"] = float(self.rank)
                self.rank += 1
                return loss, metrics

        _, metrics = DDPStrategy(4).execute(_RankMetricTask(), samples)
        assert metrics == {"rank": 1.5, "odd_rank": 2.0}

    def test_train_acc_is_global_batch_accuracy(self):
        """Equal shards: the rank mean of shard accuracies is the accuracy
        over the whole global batch."""
        task, samples = make_task_and_samples(n=16)
        _, single = SingleProcessStrategy().execute(task, samples)
        _, ddp = DDPStrategy(4).execute(task, samples)
        assert ddp["train_acc"] == pytest.approx(single["train_acc"], abs=1e-12)

    def test_scale_lr(self):
        """The Goyal rule reads the strategy's world size."""
        assert scale_lr_for_ddp(1e-3, DDPStrategy(16).world_size) == pytest.approx(1.6e-2)
        assert scale_lr_for_ddp(1e-3, SingleProcessStrategy().world_size) == pytest.approx(1e-3)

    def test_invalid_world_size(self):
        with pytest.raises(ValueError):
            DDPStrategy(0)


class TestThroughputModel:
    def make_model(self, rate=100.0):
        return ThroughputModel(
            per_worker_samples_per_s=rate, batch_per_worker=32, gradient_bytes=4_000_000
        )

    def test_single_worker_matches_measurement(self):
        m = self.make_model(rate=100.0)
        assert m.samples_per_second(1) == pytest.approx(100.0)

    def test_monotonic_in_workers(self):
        m = self.make_model()
        rates = [m.samples_per_second(n) for n in (1, 16, 64, 256, 512)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_paper_regime_is_near_linear(self):
        """HDR200 + MB-scale gradients: efficiency stays above 95% at 512."""
        m = self.make_model()
        assert m.scaling_efficiency(512) > 0.95

    def test_linear_fit_r2_high(self):
        m = self.make_model()
        ns = [16, 32, 64, 128, 256, 512]
        rates = [m.samples_per_second(n) for n in ns]
        assert linear_fit_r2(ns, rates) > 0.999

    def test_slow_fabric_breaks_linearity(self):
        slow = ClusterSpec(
            node=NodeSpec(),
            interconnect=InterconnectSpec(name="gige", bandwidth_gbs=0.125, latency_us=50.0),
        )
        m = ThroughputModel(100.0, 32, 400_000_000, cluster=slow)
        assert m.scaling_efficiency(512) < 0.8

    def test_epoch_seconds(self):
        m = self.make_model(rate=100.0)
        # 512 workers, ~100 samples/s each, 2M samples -> about 39 s.
        t = m.epoch_seconds(512, 2_000_000)
        assert 35.0 < t < 60.0

    def test_sweep_rows(self):
        rows = self.make_model().sweep([16, 512], dataset_size=2_000_000)
        assert rows[0]["workers"] == 16 and rows[0]["nodes"] == 1
        assert rows[1]["nodes"] == 32
        assert rows[1]["samples_per_s"] > rows[0]["samples_per_s"]

    def test_validation(self):
        with pytest.raises(ValueError):
            ThroughputModel(0.0, 32, 1000)
        with pytest.raises(ValueError):
            ThroughputModel(10.0, 0, 1000)
        with pytest.raises(ValueError):
            self.make_model().samples_per_second(0)


class TestRingTimePinned:
    """The ring-time formula and the Fig. 2 numbers it feeds are pinned
    exactly to recorded values."""

    #: (workers, samples/s, epoch minutes, efficiency) at 302 samples/s per
    #: worker, 32 samples per worker, 4 MB of gradients, 2M samples.
    FIG2_SWEEP = [
        (1, 302.0, 110.37527593818984, 1.0),
        (2, 603.8860165143828, 55.1980546357616, 0.9998112856198391),
        (16, 4831.088132115063, 6.8997568294702, 0.9998112856198391),
        (32, 9647.338443549337, 3.4551844043184325, 0.9982759151023735),
        (64, 19279.05650025102, 1.7289919417425497, 0.9974677411139807),
        (128, 38539.24775762127, 0.8649191479546082, 0.9969797122729013),
        (256, 77046.59854507426, 0.4326386104356374, 0.9965671376380673),
        (512, 154009.18570509116, 0.21643730651990203, 0.9960238106962125),
    ]
    #: Half of ``allreduce_seconds`` (one ring half) per world size for
    #: 8383408 gradient bytes: zero at one rank, the shared-memory floor
    #: within one node, then the inter-node ring plus one latency per hop.
    RING_HALF = {
        1: 0.0,
        8: 1e-05,
        16: 1e-05,
        17: 0.00017916816000000001,
        64: 0.00026600224,
        512: 0.00038135706,
    }

    def test_fig2_sweep_pinned(self):
        model = ThroughputModel(302.0, 32, 4_000_000, cluster=ENDEAVOUR)
        rows = model.sweep([row[0] for row in self.FIG2_SWEEP], 2_000_000)
        got = [
            (r["workers"], r["samples_per_s"], r["epoch_minutes"], r["efficiency"])
            for r in rows
        ]
        assert got == self.FIG2_SWEEP

    def test_modeled_sharding_entries_pinned(self):
        model = ThroughputModel(200.0, 2, 8383408, cluster=ENDEAVOUR)
        for n, half in self.RING_HALF.items():
            assert model.allreduce_seconds(n) == 2.0 * half, n


class TestEndeavourSpec:
    def test_paper_node_shape(self):
        node = ENDEAVOUR.node
        assert node.physical_cores == 112
        assert node.workers == 16
        assert node.threads_per_worker == 7
        assert ENDEAVOUR.max_nodes == 32


class TestAffinity:
    """The node arithmetic of the Sec. 4.1 launch that Fig. 2 reads."""

    def test_sixteen_workers_per_node(self):
        """16 workers of 7 threads fill the node's 112 cores."""
        node = NodeSpec()
        assert node.workers * node.threads_per_worker == node.physical_cores == 112

    def test_full_job_512_ranks(self):
        """512 ranks at 16 per node fill the platform's 32 nodes."""
        model = ThroughputModel(302.0, 32, 4_000_000, cluster=ENDEAVOUR)
        (row,) = model.sweep([512], dataset_size=2_000_000)
        assert row["nodes"] == ENDEAVOUR.max_nodes == 32

    def test_omp_num_threads(self):
        assert ENDEAVOUR.node.threads_per_worker == 7
        assert NodeSpec(workers=8).threads_per_worker == 14
