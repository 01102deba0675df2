"""Distributed substrate: collectives, DDP exactness, perf model, affinity.

``SimComm`` has the one collective the gradient path is metered as; the
ids that pinned its broadcast/gather/scatter/allgather/barrier (and the
affinity planner's whole-job helper) now pin ``allreduce``'s results,
refusals and metering, and ``plan_node``'s rank and node bases.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.distributed import (
    AffinityPlanner,
    ClusterSpec,
    DDPStrategy,
    ENDEAVOUR,
    InterconnectSpec,
    NodeSpec,
    SimComm,
    SingleProcessStrategy,
    ThroughputModel,
)
from repro.distributed.perf_model import linear_fit_r2, ring_half_seconds
from repro.models import EGNN
from repro.optim import scale_lr_for_ddp
from repro.tasks import MultiClassClassificationTask


class TestSimComm:
    def test_allreduce_sum_mean_max_min(self):
        comm = SimComm(3)
        values = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
        assert np.allclose(comm.allreduce(values, op="sum")[0], [9.0, 12.0])
        assert np.allclose(comm.allreduce(values, op="mean")[1], [3.0, 4.0])
        assert np.allclose(comm.allreduce(values, op="max")[2], [5.0, 6.0])
        assert np.allclose(comm.allreduce(values, op="min")[0], [1.0, 2.0])

    def test_allreduce_all_ranks_identical(self):
        comm = SimComm(4)
        results = comm.allreduce([np.array([float(r)]) for r in range(4)])
        for r in results[1:]:
            assert np.allclose(r, results[0])

    def test_allreduce_unknown_op(self):
        with pytest.raises(ValueError):
            SimComm(2).allreduce([np.zeros(1)] * 2, op="xor")

    def test_wrong_rank_count_rejected(self):
        with pytest.raises(ValueError):
            SimComm(3).allreduce([np.zeros(1)] * 2)

    def test_bcast(self):
        """Every rank receives the whole reduced vector."""
        comm = SimComm(3)
        values = [np.arange(7.0) * (r + 1) for r in range(3)]
        out = comm.allreduce(values, op="sum")
        assert all(np.array_equal(o, np.arange(7.0) * 6) for o in out)
        with pytest.raises(ValueError):
            comm.allreduce(values, op="xor")

    def test_gather_root_only(self):
        """Ranks receive distinct arrays: no result shares memory with
        another rank's."""
        comm = SimComm(3)
        out = comm.allreduce([np.array([1.0, 2.0])] * 3)
        assert len(out) == 3
        assert all(np.array_equal(o, [3.0, 6.0]) for o in out)
        assert not np.shares_memory(out[0], out[1])

    def test_allgather(self):
        """``mean`` is the rank-order sum divided by N on every rank, and
        one call meters one allreduce's bytes."""
        rng = np.random.default_rng(0)
        values = [rng.normal(size=10) for _ in range(4)]
        comm = SimComm(4)
        for got in comm.allreduce(values, op="mean"):
            assert np.array_equal(got, SimComm._reduce(values, "sum") / 4)
        assert comm.traffic.allreduce_calls == 1
        assert comm.traffic.allreduce_bytes == 2 * 3 * 80

    def test_scatter(self):
        """allreduce takes one equal-shape array per rank."""
        comm = SimComm(2)
        with pytest.raises(ValueError):
            comm.allreduce([np.zeros(4), np.zeros(3)])
        with pytest.raises(ValueError):
            comm.allreduce([np.zeros((2, 2)), np.zeros(4)])
        with pytest.raises(ValueError):
            comm.allreduce([np.zeros(4)])

    def test_traffic_metering(self):
        comm = SimComm(4)
        comm.allreduce([np.zeros(100)] * 4)
        assert comm.traffic.allreduce_calls == 1
        # ring: 2 * 3/4 * 800 bytes * 4 ranks
        assert comm.traffic.allreduce_bytes == int(2 * 0.75 * 800 * 4)

    def test_single_rank_no_traffic(self):
        comm = SimComm(1)
        comm.allreduce([np.zeros(10)])
        assert comm.traffic.allreduce_bytes == 0

    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            SimComm(0)

    def test_barrier_is_noop(self):
        """In a one-rank world every op is the identity and moves no
        bytes."""
        comm = SimComm(1)
        x = np.arange(5.0)
        for op in ("sum", "mean", "max", "min"):
            assert np.array_equal(comm.allreduce([x], op=op)[0], x)
        assert comm.traffic.allreduce_calls == 4
        assert comm.traffic.allreduce_bytes == 0


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
    #: ``ring_half_seconds`` per world size for 8383408 gradient bytes:
    #: zero at one rank, the shared-memory floor within one node, then
    #: the inter-node ring plus one latency per hop.
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
        halves = {n: ring_half_seconds(ENDEAVOUR, 8383408, n) for n in self.RING_HALF}
        assert halves == self.RING_HALF
        model = ThroughputModel(200.0, 2, 8383408)
        for n, half in self.RING_HALF.items():
            assert model.allreduce_seconds(n) == 2.0 * half


class TestEndeavourSpec:
    def test_paper_node_shape(self):
        node = ENDEAVOUR.node
        assert node.physical_cores == 112
        assert node.numa_domains == 4
        assert node.workers == 16
        assert node.threads_per_worker == 7
        assert ENDEAVOUR.max_nodes == 32


class TestAffinity:
    def test_sixteen_workers_per_node(self):
        planner = AffinityPlanner()
        placements = planner.plan_node(16)
        assert len(placements) == 16
        # 4 workers per NUMA domain
        domains = [p.numa_domain for p in placements]
        assert all(domains.count(d) == 4 for d in range(4))
        # 7 threads each, no core shared
        all_cores = [c for p in placements for c in p.cores]
        assert len(all_cores) == len(set(all_cores)) == 112
        assert all(p.num_threads == 7 for p in placements)

    def test_full_job_512_ranks(self):
        """The last node of a 512-rank job holds ranks 496..511."""
        planner = AffinityPlanner()
        placements = planner.plan_node(16, node_index=31, rank_base=496)
        assert [p.rank for p in placements] == list(range(496, 512))
        assert {p.node_index for p in placements} == {31}
        assert [p.cores for p in placements] == [p.cores for p in planner.plan_node(16)]

    def test_oversubscription_rejected(self):
        planner = AffinityPlanner()
        with pytest.raises(ValueError):
            planner.plan_node(256)

    def test_uneven_split_rejected(self):
        with pytest.raises(ValueError):
            AffinityPlanner().plan_node(10)  # not divisible over 4 domains

    def test_job_size_must_be_multiple(self):
        for bad in (0, -4):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                AffinityPlanner().plan_node(bad)

    def test_omp_num_threads(self):
        assert AffinityPlanner().omp_num_threads() == 7
        assert AffinityPlanner().omp_num_threads(workers_per_node=8) == 14
