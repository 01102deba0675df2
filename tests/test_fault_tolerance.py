"""What survives training fault injection: checkpoints, retries, the plan.

The training fault path — the allreduce fault injector, retrying
collectives, the elastic rank drop and the trainer's restore-and-retry
loop — is deleted (DESIGN.md §7).  The ids in this module outlived it and
now pin the contracts that remain:

* the state round trip: ``state_dict()`` into fresh objects continues
  bit-identically, an archive (:func:`write_archive` /
  :func:`read_archive`) crosses processes bit for bit, corrupt or
  unchecksummed archives fail loudly, and a failed restore touches no
  live state;
* one training step with no recovery loop: a strategy error leaves
  ``fit`` unchanged after exactly one attempt, and the DDP world never
  changes size;
* the serving failure story that shared the old machinery: the seeded
  chaos planner and its spec grammar, :class:`RetryPolicy` backoff, and
  failover that delivers the fault-free answer;
* the incident :class:`EventLog` on its :class:`SimClock`.

Class names keep the ids of the tests they replace.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import EncoderConfig, OptimizerConfig, PretrainConfig, pretrain_symmetry
from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.distributed import DDPStrategy, EventLog, SimClock, SingleProcessStrategy
from repro.distributed.ddp import rank_order_mean
from repro.distributed.events import (
    FAILOVER,
    PREDICT_FLAKY,
    REPLICA_CRASH,
    SERVABLE_CORRUPT,
)
from repro.models import EGNN
from repro.optim import AdamW, WarmupExponential, scale_lr_for_ddp
from repro.serving import (
    AdmissionPolicy,
    BatchPolicy,
    ChaosFault,
    ReplicaPool,
    RetryPolicy,
    SINGLE_SERVER,
    STATUS_OK,
    ServingChaosProfile,
    chaos_schedule,
    make_requests,
    poisson_arrivals,
)
from repro.serving.resilience.chaos import SERVING_FAULT_KINDS, _plan, parse_kind_counts
from repro.tasks import MultiClassClassificationTask
from repro.training import (
    CheckpointIntegrityError,
    History,
    Trainer,
    TrainerConfig,
    read_archive,
    write_archive,
)
from repro.training.checkpoint_io import verify_archive


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


def echo_model(samples):
    return np.asarray([float(s) for s in samples])


def seeded_requests(count=80):
    samples = [float(i) for i in range(11)]
    return make_requests(samples, poisson_arrivals(800.0, count, seed=3))


def run_pool(requests, num_replicas=2, chaos=None, **overrides):
    kwargs = dict(
        batch=BatchPolicy(max_batch_size=4, max_wait=0.004),
        admission=AdmissionPolicy(max_queue_depth=16, deadline=0.5),
        service_model=lambda n: 1e-3 + 0.25e-3 * n,
        chaos=chaos,
        clock=SimClock(),
    )
    kwargs.update(overrides)
    pool = ReplicaPool(echo_model, num_replicas=num_replicas, **kwargs)
    return pool, pool.serve(requests)


def delivered(report):
    return {r.request_id: r.value for r in report.responses if r.status == STATUS_OK}


# --------------------------------------------------------------------------- #
# Spec grammar, clock, event log
# --------------------------------------------------------------------------- #
class TestFaultProfile:
    def test_parse_counts(self):
        p = ServingChaosProfile.parse("replica_crash:1,replica_slow:2,predict_flaky:3")
        assert (p.crashes, p.slowdowns, p.flaky, p.corruptions) == (1, 2, 3, 0)
        assert p.total == 6
        # Repeated kinds accumulate.
        assert parse_kind_counts("a:1, b:2 ,a:3", ("a", "b", "c")) == {"a": 4, "b": 2, "c": 0}

    def test_parse_empty_and_none(self):
        for spec in (None, "", "none", " none ", ",,"):
            assert ServingChaosProfile.parse(spec).total == 0
            assert chaos_schedule(spec, 2, 1.0) == []

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown chaos kind 'meteor'"):
            parse_kind_counts("meteor:1", SERVING_FAULT_KINDS)
        # The deleted training kinds are not serving kinds.
        for spec in ("crash:1", "timeout:1", "corrupt:1"):
            with pytest.raises(ValueError, match="unknown chaos kind"):
                ServingChaosProfile.parse(spec)

    def test_parse_rejects_bad_count(self):
        for spec, message in (
            ("replica_crash:lots", "bad chaos count"),
            ("replica_crash:-1", "must be >= 0"),
            ("replica_crash", "expected kind:count"),
        ):
            with pytest.raises(ValueError, match=message):
                ServingChaosProfile.parse(spec)


class TestClockAndEvents:
    def test_clock_advances_never_sleeps(self):
        clock = SimClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        clock.advance(2.5)
        assert clock.now() == pytest.approx(4.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)

    def test_record_and_query(self):
        log = EventLog()
        log.record("spike", step=3)
        log.clock.advance(1.0)
        log.record("failover", rank=2)
        assert log.kinds() == ["spike", "failover"]
        assert log.count("failover") == 1
        assert log.of_kind("failover")[0].rank == 2
        assert log.of_kind("failover")[0].time == pytest.approx(1.0)
        assert log.of_kind("spike")[0].step == 3
        assert log.summary() == {"spike": 1, "failover": 1}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EventLog().record("mystery")
        # The kinds only the training fault path recorded are gone.
        for kind in ("crash", "timeout", "corrupt", "backoff", "retry", "rank_drop",
                     "reshard", "lr_rescale", "checkpoint_save", "restore", "recover"):
            with pytest.raises(ValueError):
                EventLog().record(kind)

    def test_has_sequence_subsequence_semantics(self):
        """``kinds()`` is record order, ``summary()`` counts only the kinds
        that occurred, and ``clear()`` empties the log."""
        log = EventLog()
        for kind in ("spike", "lr_backoff", "spike", "lr_rewarm"):
            log.record(kind)
        assert log.kinds() == ["spike", "lr_backoff", "spike", "lr_rewarm"]
        assert [e.kind for e in log] == log.kinds()
        assert log.summary() == {"spike": 2, "lr_backoff": 1, "lr_rewarm": 1}
        assert len(log) == 4
        log.clear()
        assert len(log) == 0 and log.summary() == {}


# --------------------------------------------------------------------------- #
# The seeded chaos planner and the faults it schedules
# --------------------------------------------------------------------------- #
class TestFaultInjector:
    def test_schedule_is_seeded_deterministic(self):
        kinds = ["replica_crash", "replica_slow", "replica_slow", "predict_flaky"]
        plan = _plan(kinds, 3, seed=3, horizon=16)
        assert plan == _plan(kinds, 3, seed=3, horizon=16)
        assert plan != _plan(kinds, 3, seed=4, horizon=16)
        # Kinds keep their order; slots are distinct and ascending; every
        # victim is a valid target.
        assert [k for k, _, _ in plan] == kinds
        slots = [s for _, s, _ in plan]
        assert slots == sorted(set(slots)) and 0 <= slots[0] and slots[-1] < 16
        assert all(0 <= victim < 3 for _, _, victim in plan)
        with pytest.raises(ValueError, match="num_targets"):
            _plan(kinds, 0, seed=3, horizon=16)

    def test_faults_fire_once(self):
        chaos = [ChaosFault(kind=PREDICT_FLAKY, time=0.01, replica=0)]
        pool, _ = run_pool(seeded_requests(), chaos=chaos)
        assert chaos[0].fired
        assert pool.events.count(PREDICT_FLAKY) == 1

    def test_timeout_clears_on_retry_attempt(self):
        """A flaky predict fails one dispatch; the replica then answers
        again, and the failed batch fails over instead of failing."""
        chaos = [ChaosFault(kind=PREDICT_FLAKY, time=0.01, replica=0)]
        pool, report = run_pool(seeded_requests(), chaos=chaos)
        assert pool.events.count(FAILOVER) >= 1
        assert report.ok == report.total == 80
        assert any(
            r.replica == 0 and r.dispatched_at > 0.01
            for r in report.responses if r.ok
        )

    def test_crash_marks_rank_dead_and_revives(self):
        """A crash is permanent; a slow window ends and its replica serves
        again."""
        requests = seeded_requests(count=120)
        end = max(r.arrival for r in requests) * 0.3
        chaos = [
            ChaosFault(kind="replica_slow", time=1e-6, replica=0, duration=end, factor=30.0),
            ChaosFault(kind=REPLICA_CRASH, time=end, replica=1),
        ]
        pool, report = run_pool(requests, num_replicas=3, chaos=chaos)
        assert [r.alive for r in pool.replicas] == [True, False, True]
        ok = [r for r in report.responses if r.ok]
        assert not any(r.replica == 1 and r.dispatched_at > end for r in ok)
        assert any(r.replica == 0 and r.dispatched_at > end for r in ok)

    def test_horizon_too_small_rejected(self):
        # The planner cannot fit more faults than slots ...
        with pytest.raises(ValueError):
            _plan(["replica_crash"] * 3, 2, seed=0, horizon=2)
        # ... so chaos_schedule widens the horizon to hold every fault.
        faults = chaos_schedule("replica_crash:3,replica_slow:2", 2, 1.0, seed=0, horizon=2)
        times = [f.time for f in faults]
        assert len(faults) == 5 and len(set(times)) == 5
        assert all(0.0 < t < 1.0 for t in times)


# --------------------------------------------------------------------------- #
# Retry backoff and failover
# --------------------------------------------------------------------------- #
class TestRetryBackoffAllreduce:
    def test_backoff_is_exponential(self):
        policy = RetryPolicy(max_retries=3, backoff_base_s=0.5, backoff_factor=2.0)
        assert [policy.backoff(a) for a in range(3)] == [0.5, 1.0, 2.0]

    def test_zero_jitter_is_bit_identical_to_plain_schedule(self):
        plain = RetryPolicy(max_retries=3, backoff_base_s=0.5, backoff_factor=2.0)
        opted = RetryPolicy(
            max_retries=3, backoff_base_s=0.5, backoff_factor=2.0,
            jitter=0.0, jitter_seed=99,
        )
        for attempt in range(4):
            for key in (0, 7, 123):
                assert opted.backoff(attempt, key=key) == plain.backoff(attempt)

    def test_jitter_stays_within_fraction_and_is_deterministic(self):
        policy = RetryPolicy(
            max_retries=3, backoff_base_s=0.5, backoff_factor=2.0,
            jitter=0.25, jitter_seed=3,
        )
        twin = RetryPolicy(
            max_retries=3, backoff_base_s=0.5, backoff_factor=2.0,
            jitter=0.25, jitter_seed=3,
        )
        for attempt in range(3):
            base = 0.5 * 2.0**attempt
            for key in range(8):
                wait = policy.backoff(attempt, key=key)
                assert base * 0.75 <= wait <= base * 1.25
                # Same (seed, key, attempt) always waits the same time.
                assert wait == twin.backoff(attempt, key=key)

    def test_jitter_decorrelates_distinct_keys(self):
        policy = RetryPolicy(backoff_base_s=0.5, jitter=0.5, jitter_seed=0)
        waits = {policy.backoff(0, key=k) for k in range(16)}
        assert len(waits) > 1  # retriers spread out, no synchronized storm
        reseeded = RetryPolicy(backoff_base_s=0.5, jitter=0.5, jitter_seed=1)
        assert policy.backoff(0, key=5) != reseeded.backoff(0, key=5)

    def test_jitter_fraction_validated(self):
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-0.1)

    def test_timeout_retries_and_result_matches_healthy(self):
        """Every value a flaky pool delivers is the fault-free value."""
        _, healthy = run_pool(seeded_requests())
        chaos = [ChaosFault(kind=PREDICT_FLAKY, time=0.01, replica=0)]
        _, flaky = run_pool(seeded_requests(), chaos=chaos)
        assert delivered(flaky) == delivered(healthy)

    def test_corruption_detected_and_retried_clean(self):
        _, healthy = run_pool(seeded_requests())
        chaos = [ChaosFault(kind=SERVABLE_CORRUPT, time=0.01, replica=0)]
        pool, corrupt = run_pool(seeded_requests(), chaos=chaos)
        assert pool.events.count(SERVABLE_CORRUPT) == 1
        assert pool.events.count(FAILOVER) >= 1
        assert delivered(corrupt) == delivered(healthy)
        # The corrupt replica never answers after the fault.
        assert not any(
            r.replica == 0 and r.dispatched_at > 0.01
            for r in corrupt.responses if r.ok
        )

    def test_exhausted_retries_raise_timeout(self):
        """With no retry budget, the failed dispatch's requests end failed."""
        chaos = [ChaosFault(kind=PREDICT_FLAKY, time=0.01, replica=0)]
        pool, report = run_pool(
            seeded_requests(), chaos=chaos, retry=RetryPolicy(max_retries=0)
        )
        assert pool.events.count(FAILOVER) == 0
        assert report.failed > 0
        assert report.failed + report.ok == report.total == 80

    def test_crash_raises_immediately(self):
        """With no sibling left, every request after a crash ends at its
        arrival instead of waiting."""
        requests = seeded_requests(count=40)
        crash_at = max(r.arrival for r in requests) * 0.25
        chaos = [ChaosFault(kind=REPLICA_CRASH, time=crash_at, replica=0)]
        pool, report = run_pool(requests, num_replicas=1, chaos=chaos, **SINGLE_SERVER)
        assert pool.events.count(REPLICA_CRASH) == 1
        late = [r for r in report.responses if r.arrival > crash_at]
        assert late
        assert all(not r.ok and r.completed_at == r.arrival for r in late)

    def test_healthy_comm_unchanged_with_empty_injector(self):
        """A healthy reduction: the exact mean in a fresh array, and a
        healthy step meters one call of one ring volume."""
        ones = np.ones(2)
        out = rank_order_mean([ones] * 3)
        assert np.array_equal(out, ones) and not np.shares_memory(out, ones)
        task, samples = make_task_and_samples()
        ddp = DDPStrategy(3)
        ddp.execute(task, samples)
        payload = sum(p.grad.nbytes for p in task.parameters() if p.grad is not None)
        assert ddp.comm.traffic.allreduce_calls == 1
        assert ddp.comm.traffic.allreduce_bytes == 2 * (3 - 1) * payload


# --------------------------------------------------------------------------- #
# One DDP step: a fixed world, no retry
# --------------------------------------------------------------------------- #
class _Boom(RuntimeError):
    pass


class _FailingTask:
    """Delegates to ``task`` but raises on the ``fail_on``-th forward."""

    def __init__(self, task, fail_on):
        self.task = task
        self.fail_on = fail_on
        self.forwards = 0

    def parameters(self):
        return self.task.parameters()

    def training_step(self, batch):
        self.forwards += 1
        if self.forwards == self.fail_on:
            raise _Boom("rank failed")
        return self.task.training_step(batch)


class TestElasticRankDrop:
    def test_survivor_gradients_bitwise_match_shrunken_healthy_run(self):
        """Leftover samples are dropped: 3 ranks over 8 samples leave the
        same bits as 3 ranks over the first 6."""
        task, samples = make_task_and_samples()
        DDPStrategy(3).execute(task, samples)
        ragged = [None if p.grad is None else p.grad.copy() for p in task.parameters()]
        DDPStrategy(3).execute(task, samples[:6])
        for a, p in zip(ragged, task.parameters()):
            assert (a is None) == (p.grad is None)
            if a is not None:
                assert np.array_equal(a, p.grad)

    def test_event_sequence_and_lr_rescale_factor(self):
        """The Goyal rule ties the LR to the world size, and
        ``Trainer.scale_lr`` moves the live LR and the scheduler target
        together (the loss-spike guard's cut)."""
        assert scale_lr_for_ddp(1e-3, 3) / scale_lr_for_ddp(1e-3, 4) == pytest.approx(0.75)
        task, _ = make_task_and_samples()
        optimizer = AdamW(task.parameters(), lr=scale_lr_for_ddp(1e-3, 4))
        scheduler = WarmupExponential(optimizer, warmup_epochs=2, gamma=0.8, target_lr=4e-3)
        trainer = Trainer(TrainerConfig())
        trainer.optimizer, trainer.scheduler = optimizer, scheduler
        lr = optimizer.lr
        trainer.scale_lr(0.5)
        assert optimizer.lr == lr * 0.5
        assert scheduler.target_lr == 4e-3 * 0.5

    def test_non_elastic_crash_escalates_to_step_failure(self):
        """A rank that fails mid-step fails the whole step; the world does
        not shrink, and the next step runs on every rank."""
        task, samples = make_task_and_samples()
        ddp = DDPStrategy(4)
        with pytest.raises(_Boom):
            ddp.execute(_FailingTask(task, fail_on=3), samples)
        assert ddp.world_size == ddp.comm.world_size == 4
        ddp.execute(task, samples)
        assert len(ddp.last_rank_losses) == 4

    def test_exhausted_allreduce_escalates_to_step_failure(self):
        """A global batch too small for the world fails the first step
        before any optimizer update."""
        task, samples = make_task_and_samples(n=2)
        before = [p.data.copy() for p in task.parameters()]
        trainer = Trainer(TrainerConfig(max_epochs=1), strategy=DDPStrategy(4))
        with pytest.raises(ValueError, match="cannot feed 4 ranks"):
            trainer.fit(task, [samples], optimizer=AdamW(task.parameters(), lr=1e-3))
        assert trainer.global_step == 0
        for a, p in zip(before, task.parameters()):
            assert np.array_equal(a, p.data)

    def test_on_recover_restores_full_world(self):
        """The world is fixed: three steps meter three allreduces over the
        same four ranks."""
        task, samples = make_task_and_samples()
        ddp = DDPStrategy(4)
        for _ in range(3):
            ddp.execute(task, samples)
        assert ddp.world_size == ddp.comm.world_size == 4
        assert ddp.comm.traffic.allreduce_calls == 3


# --------------------------------------------------------------------------- #
# State round trip; a failed step is not retried
# --------------------------------------------------------------------------- #
def resume_under_ddp(steps=3, split=1):
    """``steps`` DDP(4) steps uninterrupted vs ``split`` steps, then
    ``state_dict()`` into fresh objects and the rest there; returns both
    runs."""
    _, samples = make_task_and_samples(n=8)

    def run(task, optimizer, n, history=None, step=0):
        trainer = Trainer(
            TrainerConfig(max_epochs=1, log_every_n_steps=1), strategy=DDPStrategy(4)
        )
        if history is not None:
            trainer.history = history
        trainer.global_step = step
        trainer.fit(task, [samples] * n, optimizer=optimizer)
        return trainer

    task_a, _ = make_task_and_samples(n=8)
    whole = run(task_a, AdamW(task_a.parameters(), lr=1e-3), steps)

    task_b, _ = make_task_and_samples(n=8)
    opt_b = AdamW(task_b.parameters(), lr=1e-3)
    first = run(task_b, opt_b, split)
    task_c, _ = make_task_and_samples(seed=99, n=8)
    task_c.load_state_dict(task_b.state_dict())
    opt_c = AdamW(task_c.parameters(), lr=1e-3)
    opt_c.load_state_dict(opt_b.state_dict())
    history = History()
    history.records = list(first.history.records)
    resumed = run(task_c, opt_c, steps - split, history, first.global_step)
    return (task_a, whole), (task_c, resumed)


def train_steps(steps):
    """A task after ``steps`` single-process AdamW steps on fixed batches."""
    task, samples = make_task_and_samples(n=8)
    optimizer = AdamW(task.parameters(), lr=1e-3)
    Trainer(TrainerConfig(max_epochs=1)).fit(task, [samples] * steps, optimizer=optimizer)
    return task


class TestCheckpointRecovery:
    def test_crash_recovery_is_exact(self):
        """A DDP run continued from ``state_dict()`` snapshots in fresh
        objects ends with the parameters of the uninterrupted run."""
        (task_a, _), (task_c, resumed) = resume_under_ddp()
        assert resumed.global_step == 3
        for (name_a, p_a), (name_c, p_c) in zip(
            task_a.named_parameters(), task_c.named_parameters()
        ):
            assert name_a == name_c
            assert np.array_equal(p_a.data, p_c.data), name_a

    def test_recovery_resumes_loss_history_exactly(self):
        (_, whole), (_, resumed) = resume_under_ddp(steps=4, split=2)
        a = [r for r in whole.history.records if r["split"] == "train"]
        c = [r for r in resumed.history.records if r["split"] == "train"]
        assert len(a) == 4 and a == c

    def test_unrecoverable_without_recovery_config(self):
        """A strategy error propagates out of ``fit`` unchanged and no
        parameter moves."""

        class Fail(SingleProcessStrategy):
            def execute(self, task, samples):
                raise _Boom("step failed")

        task, samples = make_task_and_samples(n=8)
        before = [p.data.copy() for p in task.parameters()]
        optimizer = AdamW(task.parameters(), lr=1e-3)
        trainer = Trainer(TrainerConfig(max_epochs=1), strategy=Fail())
        with pytest.raises(_Boom):
            trainer.fit(task, [samples], optimizer=optimizer)
        assert trainer.global_step == 0
        assert optimizer.state_dict()["step_count"] == 0
        for a, p in zip(before, task.parameters()):
            assert np.array_equal(a, p.data)

    def test_max_recoveries_bounds_restore_loop(self):
        """A failing step is attempted exactly once: there is no retry."""
        calls = []

        class Fail(SingleProcessStrategy):
            def execute(self, task, samples):
                calls.append(len(samples))
                raise _Boom("step failed")

        task, samples = make_task_and_samples(n=8)
        trainer = Trainer(TrainerConfig(max_epochs=2), strategy=Fail())
        with pytest.raises(_Boom):
            trainer.fit(task, [samples] * 3, optimizer=AdamW(task.parameters(), lr=1e-3))
        assert calls == [8]

    def test_cross_process_resume_matches_uninterrupted(self, tmp_path):
        """An archive a child process trains and writes is read back by
        this process bit for bit: same keys, dtypes and bytes as the same
        run done here."""
        root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
        path = str(tmp_path / "model.npz")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"), root])}
        subprocess.run(
            [
                sys.executable, "-c",
                "import sys; from repro.training import write_archive; "
                "from tests.test_fault_tolerance import train_steps; "
                "write_archive(sys.argv[1], train_steps(2).state_dict())",
                path,
            ],
            cwd=root, env=env, check=True,
        )
        expected = train_steps(2).state_dict()
        state = read_archive(path)
        assert list(state) == list(expected)
        for name, arr in expected.items():
            assert state[name].dtype == arr.dtype, name
            assert state[name].tobytes() == arr.tobytes(), name

    def test_fault_event_monitor_logs_summary(self):
        """A guarded run's event log holds only guard kinds, and the run
        history has no ``fault`` split."""
        result = pretrain_symmetry(_workflow_config(stability_guard=True))
        assert result.events is not None
        assert set(result.events.kinds()) <= {"spike", "lr_backoff", "lr_rewarm", "give_up"}
        assert {r["split"] for r in result.history.records} <= {"train", "val", "lr"}


# --------------------------------------------------------------------------- #
# Archive integrity
# --------------------------------------------------------------------------- #
def _flip_byte(path, offset_fraction):
    with open(path, "rb") as fh:
        blob = bytearray(fh.read())
    idx = int(len(blob) * offset_fraction) % len(blob)
    blob[idx] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(blob)


class TestCheckpointIntegrity:
    @pytest.mark.parametrize("offset_fraction", [0.1, 0.35, 0.6, 0.85])
    def test_single_flipped_byte_raises_clear_error(self, tmp_path, offset_fraction):
        task, _ = make_task_and_samples()
        path = str(tmp_path / "model.npz")
        write_archive(path, task.state_dict())
        _flip_byte(path, offset_fraction)
        with pytest.raises(CheckpointIntegrityError, match="model.npz"):
            read_archive(path)

    def test_optimizer_archive_corruption_detected(self, tmp_path):
        """``verify_archive`` (the registry audit) catches a flipped byte in
        an archive of optimizer moments and names the file."""
        _, opt = _trained(seed=5)
        moments = {
            f"{idx}/{name}": arr
            for idx, sub in opt.state_dict()["state"].items()
            for name, arr in sub.items()
        }
        path = str(tmp_path / "optim.npz")
        write_archive(path, moments)
        assert verify_archive(path)["arrays"] == len(moments)
        _flip_byte(path, 0.5)
        with pytest.raises(CheckpointIntegrityError, match="optim.npz"):
            verify_archive(path)

    def test_stale_checksum_detected_even_when_container_valid(self, tmp_path):
        # A syntactically valid archive whose embedded CRC does not match
        # its contents must still be rejected.
        path = str(tmp_path / "forged.npz")
        np.savez(
            path,
            **{"w": np.ones(4), "__checksum__": np.uint32(0xDEADBEEF)},
        )
        with pytest.raises(CheckpointIntegrityError, match="integrity check"):
            read_archive(path)

    def test_round_trip_is_exact(self, tmp_path):
        task, _ = make_task_and_samples()
        path = str(tmp_path / "ok.npz")
        write_archive(path, task.state_dict())
        fresh, _ = make_task_and_samples(seed=99)
        fresh.load_state_dict(read_archive(path))
        for (n_a, p_a), (n_b, p_b) in zip(
            task.named_parameters(), fresh.named_parameters()
        ):
            assert n_a == n_b
            assert np.array_equal(p_a.data, p_b.data)

    def test_legacy_archive_without_checksum_still_loads(self, tmp_path):
        """An archive without ``__checksum__`` is refused: every writer
        embeds one, so its absence means the file is not ours."""
        task, _ = make_task_and_samples()
        path = str(tmp_path / "legacy.npz")
        np.savez(path, **task.state_dict())
        with pytest.raises(CheckpointIntegrityError, match="__checksum__"):
            read_archive(path)


# --------------------------------------------------------------------------- #
# Failed restores leave the live state alone
# --------------------------------------------------------------------------- #
def _trained(seed):
    """A task and an optimizer that has taken one step (so it has moments)."""
    task, samples = make_task_and_samples(seed=seed)
    opt = AdamW(task.parameters(), lr=1e-3)
    DDPStrategy(2).execute(task, samples)
    opt.step()
    return task, opt


def _snapshot(task, opt):
    return (
        [p.data.copy() for p in task.parameters()],
        opt.state_dict(),
    )


def _assert_unchanged(task, opt, snapshot):
    params, opt_state = snapshot
    for before, p in zip(params, task.parameters()):
        assert np.array_equal(before, p.data)
    now = opt.state_dict()
    assert (now["lr"], now["step_count"]) == (opt_state["lr"], opt_state["step_count"])
    assert now["state"].keys() == opt_state["state"].keys()
    for idx, sub in opt_state["state"].items():
        assert sub.keys() == now["state"][idx].keys()
        for name, arr in sub.items():
            assert np.array_equal(arr, now["state"][idx][name]), (idx, name)


def _overwrite(path, blob):
    with open(path, "wb") as fh:
        fh.write(blob)


def _truncate(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    _overwrite(path, blob[: len(blob) // 2])


def _rewrite(path, edit):
    """Re-save ``path``'s arrays through ``np.savez`` after ``edit``."""
    with np.load(path) as data:
        state = {k: data[k] for k in data.files}
    edit(state)
    np.savez(path, **state)


class TestFailedRestoreIsAtomic:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        task, _ = _trained(seed=5)
        path = str(tmp_path / "model.npz")
        write_archive(path, task.state_dict())
        return path

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda path: _overwrite(path, b""),
            lambda path: _overwrite(path, b"[]"),
            lambda path: _rewrite(path, lambda s: s.update(__checksum__=np.uint32(1))),
            lambda path: _rewrite(path, lambda s: s.pop("__checksum__")),
            _truncate,
        ],
        ids=["empty", "not-an-object", "stale-checksum", "no-checksum", "truncated"],
    )
    def test_bad_meta_restores_nothing(self, checkpoint, corrupt):
        """A hostile module archive raises naming the file, before any
        parameter moves.  (The id predates the archive pair; its first
        cases fed bad resume metadata.)"""
        corrupt(checkpoint)
        task, opt = _trained(seed=9)
        before = _snapshot(task, opt)
        with pytest.raises(CheckpointIntegrityError, match="model.npz"):
            task.load_state_dict(read_archive(checkpoint))
        _assert_unchanged(task, opt, before)

    def test_model_missing_a_late_key_restores_nothing(self, checkpoint):
        state = read_archive(checkpoint)
        del state[sorted(state)[-1]]
        write_archive(checkpoint, state)
        task, opt = _trained(seed=9)
        before = _snapshot(task, opt)
        with pytest.raises(KeyError):
            task.load_state_dict(read_archive(checkpoint))
        _assert_unchanged(task, opt, before)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda state: state.pop("lr"),
            lambda state: state.pop("step_count"),
            lambda state: state["state"].update({0: np.zeros(2)}),
            lambda state: state["state"].update({"x": {"m": np.zeros(2)}}),
            lambda state: state["state"].update({0: {"": state["state"][0]["m"]}}),
            lambda state: state["state"][0].update({"m": np.zeros(2)}),
            lambda state: state["state"].update({10**6: {}}),
        ],
        ids=["no-lr", "no-step-count", "no-slash", "non-int-index", "no-name",
             "wrong-shape", "no-such-parameter"],
    )
    def test_malformed_optimizer_archive_restores_nothing(self, edit):
        """A malformed optimizer snapshot raises before anything is
        assigned.  (The ids predate the archive pair: ``no-slash`` is now
        a bare array where a name -> moment map belongs.)"""
        _, donor = _trained(seed=5)
        state = donor.state_dict()
        edit(state)
        task, opt = _trained(seed=9)
        before = _snapshot(task, opt)
        with pytest.raises((KeyError, ValueError)):
            opt.load_state_dict(state)
        _assert_unchanged(task, opt, before)


# --------------------------------------------------------------------------- #
# Workflow + CLI
# --------------------------------------------------------------------------- #
def _workflow_config(**overrides):
    base = dict(
        encoder=EncoderConfig(hidden_dim=12, num_layers=1, position_dim=4),
        optimizer=OptimizerConfig(base_lr=1e-4, warmup_epochs=2),
        group_names=["C1", "C2", "C4", "D2"],
        train_samples=16,
        val_samples=8,
        world_size=4,
        batch_per_worker=2,
        max_epochs=1,
        max_steps=2,
        head_hidden_dim=12,
        head_blocks=1,
        seed=11,
    )
    base.update(overrides)
    return PretrainConfig(**base)


class TestWorkflowFaultProfile:
    def test_recover_run_matches_healthy_run_exactly(self):
        """Two runs of one world-4 config end with the same bits."""
        first = pretrain_symmetry(_workflow_config())
        second = pretrain_symmetry(_workflow_config())
        params = dict(first.task.named_parameters())
        for name, p in second.task.named_parameters():
            assert np.array_equal(p.data, params[name].data), name
        assert first.history.records == second.history.records

    def test_elastic_run_shrinks_world(self):
        """The workflow's world never changes: each of its two steps
        meters one allreduce over four ranks."""
        result = pretrain_symmetry(_workflow_config(profile=True))
        metrics = result.observer.metrics
        assert metrics.value("comm.allreduce.calls") == 2
        payload = sum(p.data.nbytes for p in result.task.parameters())
        assert 0 < metrics.value("comm.allreduce.bytes") <= 2 * (2 * 3 * payload)

    def test_cli_fault_profile_flag(self, capsys):
        from repro.cli import build_parser

        for argv in (
            ["--fault-profile", "crash:1"],
            ["--fault-seed", "1"],
            ["--on-fault", "elastic"],
        ):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args(["pretrain", *argv])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
