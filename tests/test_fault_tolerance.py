"""Fault-tolerant DDP: injection, retry/backoff, elastic drop, recovery.

Every scenario here is deterministic: faults are scheduled by seed, and
backoff waits advance a simulated clock instead of sleeping, so the whole
suite runs in milliseconds (`pytest -m fault` selects it).
"""

import json
import os
import zlib

import numpy as np
import pytest

from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.distributed import (
    AllreduceTimeout,
    DDPStrategy,
    EventLog,
    FaultInjector,
    FaultProfile,
    RetryPolicy,
    SimClock,
    SimComm,
    StepFailure,
)
from repro.models import EGNN
from repro.optim import AdamW
from repro.tasks import MultiClassClassificationTask
from repro.training import (
    CheckpointIntegrityError,
    FaultEventMonitor,
    RecoveryConfig,
    Trainer,
    TrainerConfig,
    load_checkpoint,
    load_module,
    load_optimizer,
    save_checkpoint,
    save_module,
    save_optimizer,
)

pytestmark = pytest.mark.fault


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


# --------------------------------------------------------------------------- #
# Profiles, clock, event log
# --------------------------------------------------------------------------- #
class TestFaultProfile:
    def test_parse_counts(self):
        p = FaultProfile.parse("crash:1,timeout:2,corrupt:3")
        assert (p.crashes, p.timeouts, p.corruptions) == (1, 2, 3)
        assert p.total == 6

    def test_parse_empty_and_none(self):
        assert FaultProfile.parse(None).total == 0
        assert FaultProfile.parse("").total == 0
        assert FaultProfile.parse("none").total == 0

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            FaultProfile.parse("meteor:1")

    def test_parse_rejects_bad_count(self):
        with pytest.raises(ValueError):
            FaultProfile.parse("crash:lots")
        with pytest.raises(ValueError):
            FaultProfile.parse("crash:-1")
        with pytest.raises(ValueError):
            FaultProfile.parse("crash")


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
        log.record("timeout", step=3)
        log.clock.advance(1.0)
        log.record("retry", rank=2)
        assert log.kinds() == ["timeout", "retry"]
        assert log.count("retry") == 1
        assert log.of_kind("retry")[0].rank == 2
        assert log.of_kind("retry")[0].time == pytest.approx(1.0)
        assert log.summary() == {"timeout": 1, "retry": 1}

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            EventLog().record("mystery")

    def test_has_sequence_subsequence_semantics(self):
        log = EventLog()
        for kind in ("crash", "restore", "retry", "recover"):
            log.record(kind)
        assert log.has_sequence(["crash", "retry", "recover"])
        assert log.has_sequence(["crash", "restore", "retry", "recover"])
        assert not log.has_sequence(["recover", "crash"])


class TestFaultInjector:
    def test_schedule_is_seeded_deterministic(self):
        a = FaultInjector("crash:1,timeout:2", world_size=8, seed=3)
        b = FaultInjector("crash:1,timeout:2", world_size=8, seed=3)
        assert [(f.kind, f.call_index, f.rank) for f in a.schedule] == [
            (f.kind, f.call_index, f.rank) for f in b.schedule
        ]

    def test_faults_fire_once(self):
        inj = FaultInjector("timeout:1", world_size=4, seed=0, horizon=1)
        assert inj.poll(0, 0) is not None
        assert inj.poll(0, 0) is None
        assert inj.pending == 0

    def test_timeout_clears_on_retry_attempt(self):
        inj = FaultInjector("timeout:1", world_size=4, seed=0, horizon=1)
        # A later attempt at the same call never re-times-out.
        assert inj.poll(0, 1) is None
        assert inj.poll(0, 0) is not None  # still fires for attempt 0

    def test_crash_marks_rank_dead_and_revives(self):
        inj = FaultInjector("crash:1", world_size=4, seed=0, horizon=1)
        fault = inj.poll(0, 0)
        assert fault.kind == "crash"
        assert fault.rank in inj.dead_ranks
        inj.revive_all()
        assert not inj.dead_ranks

    def test_horizon_too_small_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector("crash:3", world_size=4, seed=0, horizon=2)


# --------------------------------------------------------------------------- #
# Retry / backoff allreduce
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
        values = [np.arange(4.0) + r for r in range(4)]
        healthy = SimComm(4).allreduce(values, op="mean")
        inj = FaultInjector("timeout:1", world_size=4, seed=0, horizon=1)
        comm = SimComm(4, injector=inj)
        out = comm.allreduce(values, op="mean")
        assert np.array_equal(out[0], healthy[0])
        assert inj.events.has_sequence(["timeout", "backoff", "retry"])
        # Backoff advanced the simulated clock by the first backoff step.
        assert inj.clock.now() == pytest.approx(comm.retry.backoff(0))
        # The failed attempt's bytes are metered as wasted retry traffic.
        assert comm.traffic.retry_calls == 1
        assert comm.traffic.retry_bytes > 0
        assert comm.traffic.allreduce_calls == 1

    def test_corruption_detected_and_retried_clean(self):
        values = [np.ones(3) * (r + 1) for r in range(4)]
        healthy = SimComm(4).allreduce(values, op="sum")
        inj = FaultInjector("corrupt:1", world_size=4, seed=1, horizon=1)
        comm = SimComm(4, injector=inj)
        out = comm.allreduce(values, op="sum")
        assert np.array_equal(out[0], healthy[0])
        assert np.isfinite(out[0]).all()
        corrupt = inj.events.of_kind("corrupt")
        assert len(corrupt) == 1 and corrupt[0].detail["detected"] is True
        assert inj.events.has_sequence(["corrupt", "backoff", "retry"])

    def test_exhausted_retries_raise_timeout(self):
        inj = FaultInjector("timeout:1", world_size=2, seed=0, horizon=1)
        comm = SimComm(2, injector=inj, retry=RetryPolicy(max_retries=0))
        with pytest.raises(AllreduceTimeout):
            comm.allreduce([np.zeros(2)] * 2)
        assert inj.events.count("give_up") == 1

    def test_crash_raises_immediately(self):
        from repro.distributed import RankCrash

        inj = FaultInjector("crash:1", world_size=4, seed=0, horizon=1)
        comm = SimComm(4, injector=inj)
        with pytest.raises(RankCrash):
            comm.allreduce([np.zeros(2)] * 4)
        assert inj.events.count("crash") == 1

    def test_healthy_comm_unchanged_with_empty_injector(self):
        inj = FaultInjector(None, world_size=3, seed=0)
        comm = SimComm(3, injector=inj)
        out = comm.allreduce([np.ones(2)] * 3, op="sum")
        assert np.array_equal(out[0], np.full(2, 3.0))
        assert len(inj.events) == 0


# --------------------------------------------------------------------------- #
# Elastic rank drop
# --------------------------------------------------------------------------- #
class TestElasticRankDrop:
    def test_survivor_gradients_bitwise_match_shrunken_healthy_run(self):
        """After a crash drops one of 4 ranks, the elastic step's gradients
        are bit-identical to a healthy 3-rank run over the same batch."""
        task, samples = make_task_and_samples()
        inj = FaultInjector("crash:1", world_size=4, seed=0, horizon=1)
        ddp = DDPStrategy(4, comm=SimComm(4, injector=inj), elastic=True)
        task.zero_grad()
        loss_elastic, _ = ddp.execute(task, samples)
        faulted = {
            n: p.grad.copy() for n, p in task.named_parameters() if p.grad is not None
        }
        assert ddp.world_size == 3

        healthy = DDPStrategy(3)
        task.zero_grad()
        loss_healthy, _ = healthy.execute(task, samples)
        for name, p in task.named_parameters():
            if name in faulted:
                assert np.array_equal(p.grad, faulted[name]), name
        assert loss_elastic == pytest.approx(loss_healthy, abs=0.0)

    def test_event_sequence_and_lr_rescale_factor(self):
        task, samples = make_task_and_samples()
        inj = FaultInjector("crash:1", world_size=4, seed=0, horizon=1)
        ddp = DDPStrategy(4, comm=SimComm(4, injector=inj), elastic=True)
        ddp.execute(task, samples)
        assert inj.events.has_sequence(["crash", "rank_drop", "reshard", "lr_rescale"])
        assert inj.events.of_kind("reshard")[0].detail["world_size"] == 3
        # Goyal rule: lr tracks world size, so the pending factor is 3/4.
        assert ddp.consume_lr_rescale() == pytest.approx(3.0 / 4.0)
        assert ddp.consume_lr_rescale() == 1.0  # consumed

    def test_non_elastic_crash_escalates_to_step_failure(self):
        task, samples = make_task_and_samples()
        inj = FaultInjector("crash:1", world_size=4, seed=0, horizon=1)
        ddp = DDPStrategy(4, comm=SimComm(4, injector=inj), elastic=False)
        with pytest.raises(StepFailure):
            ddp.execute(task, samples)

    def test_exhausted_allreduce_escalates_to_step_failure(self):
        task, samples = make_task_and_samples()
        inj = FaultInjector("timeout:1", world_size=4, seed=0, horizon=1)
        comm = SimComm(4, injector=inj, retry=RetryPolicy(max_retries=0))
        ddp = DDPStrategy(4, comm=comm)
        with pytest.raises(StepFailure):
            ddp.execute(task, samples)

    def test_on_recover_restores_full_world(self):
        task, samples = make_task_and_samples()
        inj = FaultInjector("crash:1", world_size=4, seed=0, horizon=1)
        ddp = DDPStrategy(4, comm=SimComm(4, injector=inj), elastic=True)
        ddp.execute(task, samples)
        assert ddp.world_size == 3
        ddp.on_recover()
        assert ddp.world_size == 4
        assert not inj.dead_ranks


# --------------------------------------------------------------------------- #
# Trainer-level checkpoint recovery
# --------------------------------------------------------------------------- #
def fit_once(tmp_path, fault_profile, n_batches=3, tag="run"):
    """One 4-rank training run over fixed batches; faults optional."""
    task, samples = make_task_and_samples(n=8)
    batches = [samples] * n_batches
    events = None
    if fault_profile:
        inj = FaultInjector(fault_profile, world_size=4, seed=0, horizon=1)
        comm = SimComm(4, injector=inj)
        events = inj.events
    else:
        # Empty injector keeps the explicit allreduce path so both runs
        # compute gradients through the identical reduction order.
        inj = FaultInjector(None, world_size=4, seed=0)
        comm = SimComm(4, injector=inj)
    strategy = DDPStrategy(4, comm=comm, elastic=False)
    recovery = RecoveryConfig(
        checkpoint_dir=str(tmp_path / f"ckpt-{tag}"),
        checkpoint_every_n_steps=1,
        events=inj.events,
    )
    optimizer = AdamW(task.parameters(), lr=1e-3)
    trainer = Trainer(
        TrainerConfig(max_epochs=1, log_every_n_steps=1),
        strategy=strategy,
        recovery=recovery,
    )
    history = trainer.fit(task, batches, optimizer=optimizer)
    return task, history, inj.events if events is None else events, trainer


class TestCheckpointRecovery:
    def test_crash_recovery_is_exact(self, tmp_path):
        """Acceptance: a seeded crash:1 run restored from checkpoint ends
        with parameters identical to the uninterrupted run, and the event
        log records the full fault -> retry -> recover sequence."""
        healthy_task, healthy_hist, _, _ = fit_once(tmp_path, None, tag="healthy")
        faulty_task, faulty_hist, events, trainer = fit_once(
            tmp_path, "crash:1", tag="faulty"
        )

        assert trainer.recoveries == 1
        assert events.has_sequence(
            ["checkpoint_save", "crash", "restore", "retry", "recover"]
        )
        for (name_h, p_h), (name_f, p_f) in zip(
            healthy_task.named_parameters(), faulty_task.named_parameters()
        ):
            assert name_h == name_f
            assert np.array_equal(p_h.data, p_f.data), name_h

    def test_recovery_resumes_loss_history_exactly(self, tmp_path):
        healthy_task, healthy_hist, _, _ = fit_once(tmp_path, None, tag="h2")
        _, faulty_hist, _, _ = fit_once(tmp_path, "crash:1", tag="f2")
        h = [r for r in healthy_hist.records if r["split"] == "train"]
        f = [r for r in faulty_hist.records if r["split"] == "train"]
        assert h == f

    def test_unrecoverable_without_recovery_config(self):
        task, samples = make_task_and_samples(n=8)
        inj = FaultInjector("crash:1", world_size=4, seed=0, horizon=1)
        strategy = DDPStrategy(4, comm=SimComm(4, injector=inj), elastic=False)
        trainer = Trainer(TrainerConfig(max_epochs=1), strategy=strategy)
        with pytest.raises(StepFailure):
            trainer.fit(task, [samples], optimizer=AdamW(task.parameters(), lr=1e-3))

    def test_max_recoveries_bounds_restore_loop(self, tmp_path):
        task, samples = make_task_and_samples(n=8)
        # Every allreduce times out with a zero retry budget: the step can
        # never complete, so the trainer must give up after max_recoveries.
        inj = FaultInjector("timeout:3", world_size=4, seed=0, horizon=3)
        comm = SimComm(4, injector=inj, retry=RetryPolicy(max_retries=0))
        strategy = DDPStrategy(4, comm=comm)
        recovery = RecoveryConfig(
            checkpoint_dir=str(tmp_path / "ckpt-bounded"),
            max_recoveries=2,
            events=inj.events,
        )
        trainer = Trainer(
            TrainerConfig(max_epochs=1), strategy=strategy, recovery=recovery
        )
        with pytest.raises(StepFailure):
            trainer.fit(task, [samples], optimizer=AdamW(task.parameters(), lr=1e-3))
        assert trainer.recoveries == 2

    def test_cross_process_resume_matches_uninterrupted(self, tmp_path):
        """save -> new objects -> load -> continue == one uninterrupted run."""
        # Uninterrupted: 4 single-process steps over fixed batches.
        task_a, samples = make_task_and_samples(n=8)
        opt_a = AdamW(task_a.parameters(), lr=1e-3)
        trainer_a = Trainer(TrainerConfig(max_epochs=1, log_every_n_steps=1))
        hist_a = trainer_a.fit(task_a, [samples] * 4, optimizer=opt_a)

        # Interrupted: 2 steps, checkpoint, resume into fresh objects.
        task_b, _ = make_task_and_samples(n=8)
        opt_b = AdamW(task_b.parameters(), lr=1e-3)
        trainer_b = Trainer(TrainerConfig(max_epochs=1, log_every_n_steps=1))
        trainer_b.fit(task_b, [samples] * 2, optimizer=opt_b)
        ckpt = str(tmp_path / "resume")
        save_checkpoint(
            ckpt, task_b, opt_b, step=trainer_b.global_step, history=trainer_b.history
        )

        task_c, _ = make_task_and_samples(n=8)
        opt_c = AdamW(task_c.parameters(), lr=1e-3)
        trainer_c = Trainer(TrainerConfig(max_epochs=1, log_every_n_steps=1))
        meta = load_checkpoint(ckpt, task_c, opt_c, history=trainer_c.history)
        trainer_c.global_step = meta["step"]
        hist_c = trainer_c.fit(task_c, [samples] * 2, optimizer=opt_c)

        for (n_a, p_a), (n_c, p_c) in zip(
            task_a.named_parameters(), task_c.named_parameters()
        ):
            assert n_a == n_c
            assert np.array_equal(p_a.data, p_c.data), n_a
        a = [r for r in hist_a.records if r["split"] == "train"]
        c = [r for r in hist_c.records if r["split"] == "train"]
        assert a == c

    def test_fault_event_monitor_logs_summary(self, tmp_path):
        _, history, events, _ = fit_once(tmp_path, "crash:1", tag="mon")
        monitor = FaultEventMonitor(events)
        assert monitor.summary()["crash"] == 1


# --------------------------------------------------------------------------- #
# Checkpoint integrity
# --------------------------------------------------------------------------- #
class TestCheckpointIntegrity:
    def _flip_byte(self, path, offset_fraction):
        with open(path, "rb") as fh:
            blob = bytearray(fh.read())
        idx = int(len(blob) * offset_fraction) % len(blob)
        blob[idx] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(blob)

    @pytest.mark.parametrize("offset_fraction", [0.1, 0.35, 0.6, 0.85])
    def test_single_flipped_byte_raises_clear_error(self, tmp_path, offset_fraction):
        task, _ = make_task_and_samples()
        path = str(tmp_path / "model.npz")
        save_module(task, path)
        self._flip_byte(path, offset_fraction)
        fresh, _ = make_task_and_samples()
        with pytest.raises(CheckpointIntegrityError):
            load_module(fresh, path)

    def test_optimizer_archive_corruption_detected(self, tmp_path):
        task, samples = make_task_and_samples()
        opt = AdamW(task.parameters(), lr=1e-3)
        SingleStep = DDPStrategy(2)
        SingleStep.execute(task, samples)
        opt.step()
        path = str(tmp_path / "optim.npz")
        save_optimizer(opt, path)
        self._flip_byte(path, 0.5)
        with pytest.raises(CheckpointIntegrityError):
            load_optimizer(AdamW(task.parameters(), lr=1e-3), path)

    def test_stale_checksum_detected_even_when_container_valid(self, tmp_path):
        # A syntactically valid archive whose embedded CRC does not match
        # its contents must still be rejected.
        path = str(tmp_path / "forged.npz")
        np.savez(
            path,
            **{"w": np.ones(4), "__checksum__": np.uint32(0xDEADBEEF)},
        )
        task, _ = make_task_and_samples()
        with pytest.raises(CheckpointIntegrityError):
            load_module(task, path)

    def test_round_trip_is_exact(self, tmp_path):
        task, _ = make_task_and_samples()
        path = str(tmp_path / "ok.npz")
        save_module(task, path)
        fresh, _ = make_task_and_samples(seed=99)
        load_module(fresh, path)
        for (n_a, p_a), (n_b, p_b) in zip(
            task.named_parameters(), fresh.named_parameters()
        ):
            assert n_a == n_b
            assert np.array_equal(p_a.data, p_b.data)

    def test_legacy_archive_without_checksum_still_loads(self, tmp_path):
        task, _ = make_task_and_samples()
        path = str(tmp_path / "legacy.npz")
        np.savez(path, **task.state_dict())
        fresh, _ = make_task_and_samples(seed=99)
        load_module(fresh, path)  # no integrity error


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


class TestFailedRestoreIsAtomic:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        task, opt = _trained(seed=5)
        return save_checkpoint(str(tmp_path / "ckpt"), task, opt, step=3, epoch=1)

    @pytest.mark.parametrize(
        "meta",
        [{}, [], {"step": "3"}, {"step": True}, {"step": 3, "epoch": "1"},
         {"step": 3, "history": 7}],
        ids=["empty", "not-an-object", "str-step", "bool-step", "str-epoch",
             "int-history"],
    )
    def test_bad_meta_restores_nothing(self, checkpoint, meta):
        with open(os.path.join(checkpoint, "meta.json"), "w") as fh:
            json.dump(meta, fh)
        task, opt = _trained(seed=9)
        before = _snapshot(task, opt)
        with pytest.raises(CheckpointIntegrityError, match="meta.json"):
            load_checkpoint(checkpoint, task, opt)
        _assert_unchanged(task, opt, before)

    def test_model_missing_a_late_key_restores_nothing(self, checkpoint):
        path = os.path.join(checkpoint, "model.npz")
        with np.load(path) as data:
            state = {k: data[k] for k in data.files if k != "__checksum__"}
        del state[sorted(state)[-1]]
        np.savez(path, **state)
        task, opt = _trained(seed=9)
        before = _snapshot(task, opt)
        with pytest.raises(KeyError):
            load_checkpoint(checkpoint, task, opt)
        _assert_unchanged(task, opt, before)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda state: state.pop("__lr__"),
            lambda state: state.pop("__step_count__"),
            lambda state: state.update({"moments": np.zeros(2)}),
            lambda state: state.update({"x/m": np.zeros(2)}),
            lambda state: state.update({"0/": np.zeros(2)}),
        ],
        ids=["no-lr", "no-step-count", "no-slash", "non-int-index", "no-name"],
    )
    def test_malformed_optimizer_archive_restores_nothing(self, checkpoint, edit):
        path = os.path.join(checkpoint, "optim.npz")
        with np.load(path) as data:
            state = {k: data[k] for k in data.files if k != "__checksum__"}
        edit(state)
        np.savez(path, **state)
        task, opt = _trained(seed=9)
        before = _snapshot(task, opt)
        with pytest.raises(CheckpointIntegrityError, match="optim.npz"):
            load_optimizer(opt, path)
        _assert_unchanged(task, opt, before)
        with pytest.raises(CheckpointIntegrityError, match="optim.npz"):
            load_checkpoint(checkpoint, task, opt)
        _assert_unchanged(task, opt, before)


# --------------------------------------------------------------------------- #
# Workflow + CLI integration
# --------------------------------------------------------------------------- #
class TestWorkflowFaultProfile:
    def _config(self, tmp_path, **overrides):
        from repro.core import EncoderConfig, OptimizerConfig, PretrainConfig

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
            checkpoint_dir=str(tmp_path / "wf-ckpt"),
        )
        base.update(overrides)
        return PretrainConfig(**base)

    def test_recover_run_matches_healthy_run_exactly(self, tmp_path):
        """Acceptance criterion, end to end through the workflow layer."""
        from repro.core import pretrain_symmetry

        healthy = pretrain_symmetry(
            self._config(tmp_path, fault_profile="", checkpoint_dir=None)
        )
        faulty = pretrain_symmetry(
            self._config(tmp_path, fault_profile="crash:1", fault_horizon=1)
        )
        assert faulty.events is not None
        assert faulty.events.has_sequence(["crash", "restore", "retry", "recover"])
        healthy_params = dict(healthy.task.named_parameters())
        for name, p in faulty.task.named_parameters():
            assert np.array_equal(p.data, healthy_params[name].data), name

    def test_elastic_run_shrinks_world(self, tmp_path):
        from repro.core import pretrain_symmetry

        result = pretrain_symmetry(
            self._config(
                tmp_path, fault_profile="crash:1", fault_horizon=1, on_fault="elastic"
            )
        )
        assert result.events.has_sequence(["crash", "rank_drop", "reshard", "lr_rescale"])

    def test_cli_fault_profile_flag(self, tmp_path, capsys):
        from repro.cli import main

        rc = main(
            [
                "pretrain",
                "--samples", "16",
                "--world-size", "4",
                "--epochs", "1",
                "--hidden-dim", "12",
                "--layers", "1",
                "--fault-profile", "timeout:1",
                "--lr", "1e-4",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "fault profile: timeout:1" in out
        assert "fault events:" in out
        assert "timeout=1" in out
