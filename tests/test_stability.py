"""Numerical stability guard: anomaly tracing, spike detection, recovery.

Every scenario is seeded and deterministic.  The end-to-end cases rerun
the Fig. 3-style large-batch divergence (the same cheap configuration the
instability regression uses) with the guard attached and assert the run
completes, the recovery transitions land in the event log, and the guard's
verdicts agree across all simulated DDP ranks (`pytest -m stability`
selects this suite).
"""

import math

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F
from repro.autograd.anomaly import NumericalAnomalyError, anomaly_enabled, detect_anomaly
from repro.core import EncoderConfig, OptimizerConfig, PretrainConfig, pretrain_symmetry
from repro.distributed import DDPStrategy, SimComm
from repro.distributed.faults import StepFailure
from repro.stability import (
    EpsFloorMonitor,
    GradNormMonitor,
    RollingSpikeDetector,
    StabilityConfig,
    StabilityGuard,
    make_policy,
)

pytestmark = pytest.mark.stability

GROUPS = ["C1", "C2", "C4", "D2"]


def diverging_config(**overrides) -> PretrainConfig:
    """The cheap world-256 setting where default Adam reliably spikes."""
    cfg = PretrainConfig(
        encoder=EncoderConfig(hidden_dim=16, num_layers=1, position_dim=6),
        optimizer=OptimizerConfig(base_lr=1e-3, warmup_epochs=4, gamma=0.8),
        group_names=GROUPS,
        train_samples=256,
        val_samples=32,
        max_points=12,
        world_size=256,
        batch_per_worker=1,
        max_epochs=10_000,
        max_steps=18,
        val_every_n_steps=3,
        head_hidden_dim=16,
        head_blocks=1,
        seed=4,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


# --------------------------------------------------------------------------- #
# Autograd anomaly tracing
# --------------------------------------------------------------------------- #
class TestAnomalyTracing:
    def test_forward_anomaly_names_the_op(self):
        x = Tensor(np.array([1.0, -1.0]), requires_grad=True)
        with detect_anomaly():
            with pytest.raises(NumericalAnomalyError) as err:
                with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
                    F.log(x)
        assert err.value.op == "log"
        assert err.value.phase == "forward"
        assert err.value.shape == (2,)
        assert "log" in str(err.value)

    def test_backward_anomaly_names_op_and_hop(self):
        # sqrt(0) is finite forward but its gradient 1/(2*sqrt(0)) is not;
        # the anomaly must name the receiving node and the backward hop
        # that produced the bad gradient.
        x = Tensor(np.array([0.0, 4.0]), requires_grad=True)
        with detect_anomaly():
            y = F.sqrt(x)
            with pytest.raises(NumericalAnomalyError) as err:
                with pytest.warns(RuntimeWarning, match="divide by zero"):
                    y.sum().backward()
        assert err.value.phase == "backward"
        assert err.value.hop == "sqrt"
        assert "sqrt" in str(err.value)

    def test_healthy_graph_is_untouched(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        with detect_anomaly():
            loss = (F.exp(x) * 2.0).sum()
            loss.backward()
        assert np.all(np.isfinite(x.grad))

    def test_depth_restored_after_exception(self):
        x = Tensor(np.array([-1.0]), requires_grad=True)
        assert not anomaly_enabled()
        with pytest.raises(NumericalAnomalyError):
            with detect_anomaly():
                with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
                    F.log(x)
        assert not anomaly_enabled()
        # Outside the context the historical behaviour (non-finite values
        # propagate; numpy's own warning is all that is said) is preserved.
        with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
            out = F.log(x)
        assert np.isnan(out.data).all()

    def test_nesting(self):
        with detect_anomaly():
            with detect_anomaly():
                assert anomaly_enabled()
            assert anomaly_enabled()
        assert not anomaly_enabled()


# --------------------------------------------------------------------------- #
# Detectors
# --------------------------------------------------------------------------- #
class TestRollingSpikeDetector:
    def test_warmup_never_flags(self):
        det = RollingSpikeDetector(warmup=5)
        for value in (100.0, 1.0, 50.0, 2.0, 75.0):
            assert not det.observe(value).flagged

    def test_flags_multiplicative_spike(self):
        det = RollingSpikeDetector(window=8, threshold=6.0, spike_factor=10.0, warmup=3)
        for i in range(10):
            det.observe(1.0 + 0.01 * i)
        verdict = det.observe(25.0)
        assert verdict.flagged and verdict.reason == "spike"
        assert verdict.score > 6.0

    def test_flags_nonfinite_immediately(self):
        det = RollingSpikeDetector(warmup=100)
        verdict = det.observe(float("nan"))
        assert verdict.flagged and verdict.reason == "nonfinite"
        assert det.observe(float("inf")).flagged

    def test_spikes_do_not_poison_the_window(self):
        det = RollingSpikeDetector(window=8, warmup=3)
        for i in range(10):
            det.observe(1.0)
        before = list(det.values)
        assert det.observe(1e6).flagged
        assert list(det.values) == before  # flagged sample not absorbed
        assert det.observe(1e6).flagged  # successor still caught

    def test_score_is_pure_and_absorb_is_explicit(self):
        det = RollingSpikeDetector(window=8, warmup=2)
        for value in (1.0, 1.1, 0.9, 1.0):
            det.score(value)
        assert len(det.values) == 0  # score never mutates the window
        det.absorb(1.0)
        det.absorb(float("nan"))  # non-finite values never enter
        assert list(det.values) == [1.0]

    def test_tolerates_benign_wiggle_on_flat_window(self):
        # A flat-lined window has MAD = 0; the sigma floor and the
        # multiplicative factor must keep harmless wiggles unflagged.
        det = RollingSpikeDetector(window=8, warmup=3)
        for _ in range(10):
            det.observe(1.0)
        assert not det.observe(1.05).flagged

    def test_validates_parameters(self):
        with pytest.raises(ValueError):
            RollingSpikeDetector(window=1)
        with pytest.raises(ValueError):
            RollingSpikeDetector(spike_factor=1.0)


class TestMonitors:
    def test_grad_norm_nonfinite_flags(self):
        mon = GradNormMonitor()
        verdict = mon.observe(float("inf"))
        assert verdict.flagged and verdict.reason == "nonfinite"

    def test_grad_norm_explosion_flags(self):
        mon = GradNormMonitor(factor=10.0, warmup=3)
        for _ in range(8):
            assert not mon.observe(1.0).flagged
        verdict = mon.observe(100.0)
        assert verdict.flagged and verdict.reason == "explode"

    def test_eps_floor_alerts_once_per_excursion(self):
        mon = EpsFloorMonitor(threshold=0.9, patience=3)
        flags = [mon.observe(0.95).flagged for _ in range(6)]
        assert flags == [False, False, True, False, False, False]
        mon.observe(0.1)  # streak resets
        flags = [mon.observe(0.95).flagged for _ in range(3)]
        assert flags == [False, False, True]


# --------------------------------------------------------------------------- #
# Recovery policies (driven through a stub trainer)
# --------------------------------------------------------------------------- #
class _StubOptimizer:
    def __init__(self, lr=1e-2):
        self.lr = lr

    def update_statistics(self):
        return {"grad_norm": 1.0, "eps_floor_fraction": 0.0}


class _StubScheduler:
    def __init__(self, target_lr=1e-2):
        self.target_lr = target_lr


class _StubStrategy:
    world_size = 1

    def __init__(self):
        self.last_rank_losses = [1.0]


class _StubTrainer:
    def __init__(self):
        self.optimizer = _StubOptimizer()
        self.scheduler = _StubScheduler()
        self.strategy = _StubStrategy()
        self.global_step = 0
        self.recovery = None
        self.restored = 0

    def _restore_recovery_point(self, task):
        self.restored += 1
        self.global_step = 0


def _noop_record(kind, **detail):
    return None


class TestPolicies:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            make_policy("pray")

    def test_skip_batch_leaves_lr_alone(self):
        trainer = _StubTrainer()
        policy = make_policy("skip_batch")
        policy.on_spike(trainer, None, _noop_record)
        assert trainer.optimizer.lr == 1e-2
        assert policy.deficit == 1.0

    def test_lr_backoff_cuts_and_rewarms_to_nominal(self):
        trainer = _StubTrainer()
        policy = make_policy("lr_backoff", backoff_factor=0.5, rewarm_steps=10)
        policy.on_spike(trainer, None, _noop_record)
        assert math.isclose(trainer.optimizer.lr, 0.5e-2)
        assert math.isclose(trainer.scheduler.target_lr, 0.5e-2)
        for _ in range(20):
            policy.on_healthy_step(trainer, _noop_record)
        # Geometric re-warm converges back to the scheduled rate exactly,
        # never overshooting it.
        assert math.isclose(trainer.optimizer.lr, 1e-2, rel_tol=1e-9)
        assert policy.deficit == 1.0

    def test_rewarm_tracks_scheduler_target(self):
        trainer = _StubTrainer()
        policy = make_policy("lr_backoff", backoff_factor=0.5, rewarm_steps=4)
        policy.on_spike(trainer, None, _noop_record)
        # An epoch boundary resets the live lr from target_lr (as
        # WarmupExponential does); the deficit survives because the cut
        # scaled the target too.
        trainer.optimizer.lr = trainer.scheduler.target_lr
        for _ in range(8):
            policy.on_healthy_step(trainer, _noop_record)
        assert math.isclose(trainer.scheduler.target_lr, 1e-2, rel_tol=1e-9)

    def test_rollback_requires_recovery_config(self):
        trainer = _StubTrainer()
        policy = make_policy("rollback")
        with pytest.raises(RuntimeError, match="RecoveryConfig"):
            policy.on_spike(trainer, None, _noop_record)

    def test_rollback_restores_then_cuts(self):
        trainer = _StubTrainer()
        trainer.recovery = object()
        policy = make_policy("rollback", backoff_factor=0.5)
        trainer.global_step = 7
        policy.on_spike(trainer, None, _noop_record)
        assert trainer.restored == 1
        assert math.isclose(trainer.optimizer.lr, 0.5e-2)

    def test_policy_parameter_validation(self):
        with pytest.raises(ValueError):
            make_policy("lr_backoff", backoff_factor=1.0)
        with pytest.raises(ValueError):
            make_policy("lr_backoff", rewarm_steps=0)


# --------------------------------------------------------------------------- #
# Guard orchestration: rank agreement, budget, monitors
# --------------------------------------------------------------------------- #
class TestGuardRankAgreement:
    def _ddp_trainer(self, world=4):
        trainer = _StubTrainer()
        trainer.strategy = DDPStrategy(world, comm=SimComm(world))
        trainer.strategy.last_rank_losses = [1.0] * world
        return trainer

    def test_single_rank_vote_escalates_all_ranks(self):
        trainer = self._ddp_trainer(world=4)
        guard = StabilityGuard(StabilityConfig(warmup_steps=2, policy="skip_batch"))
        for step in range(8):
            trainer.global_step = step
            trainer.strategy.last_rank_losses = [1.0, 1.0, 1.0, 1.0]
            assert not guard.guard_step(trainer, None, 1.0)
        # Only rank 2 sees the spike; the verdict must be unanimous.
        trainer.strategy.last_rank_losses = [1.0, 1.0, 500.0, 1.0]
        assert guard.guard_step(trainer, None, float(np.mean([1.0, 1.0, 500.0, 1.0])))
        assert guard.last_votes == [False, False, True, False]
        assert guard.last_agreed == [True, True, True, True]

    def test_rank_windows_stay_identical_after_disagreement(self):
        trainer = self._ddp_trainer(world=2)
        guard = StabilityGuard(StabilityConfig(warmup_steps=2, policy="skip_batch"))
        for step in range(8):
            trainer.global_step = step
            trainer.strategy.last_rank_losses = [1.0, 1.0]
            guard.guard_step(trainer, None, 1.0)
        trainer.strategy.last_rank_losses = [1.0, 500.0]
        guard.guard_step(trainer, None, 250.5)
        d0, d1 = guard._rank_detectors[:2]
        # The non-flagging rank's healthy-looking sample must NOT be
        # absorbed (the agreed verdict was spike), so both windows match.
        assert list(d0.values) == list(d1.values)

    def test_intervention_budget_gives_up_once(self):
        trainer = _StubTrainer()
        guard = StabilityGuard(
            StabilityConfig(warmup_steps=1, policy="skip_batch", max_interventions=2)
        )
        for step in range(4):
            trainer.global_step = step
            trainer.strategy.last_rank_losses = [float("nan")]
            guard.guard_step(trainer, None, float("nan"))
        assert guard.interventions == 2
        assert guard.exhausted
        assert guard.events.count("give_up") == 1

    def test_nonfinite_grad_norm_forces_intervention(self):
        trainer = _StubTrainer()
        trainer.optimizer.update_statistics = lambda: {
            "grad_norm": float("nan"),
            "eps_floor_fraction": 0.0,
        }
        guard = StabilityGuard(StabilityConfig(warmup_steps=1, policy="skip_batch"))
        trainer.strategy.last_rank_losses = [1.0]
        assert guard.guard_step(trainer, None, 1.0)  # loss healthy, grads not
        assert guard.events.count("grad_norm_alert") == 1

    def test_eps_floor_alert_recorded(self):
        trainer = _StubTrainer()
        trainer.optimizer.update_statistics = lambda: {
            "grad_norm": 1.0,
            "eps_floor_fraction": 0.99,
        }
        guard = StabilityGuard(
            StabilityConfig(warmup_steps=1, policy="skip_batch", eps_floor_patience=2)
        )
        for step in range(3):
            trainer.global_step = step
            trainer.strategy.last_rank_losses = [1.0]
            assert not guard.guard_step(trainer, None, 1.0)  # alert, not spike
        assert guard.events.count("eps_floor_alert") == 1


# --------------------------------------------------------------------------- #
# End-to-end: the diverging Fig. 3 run completes under the guard
# --------------------------------------------------------------------------- #
class TestGuardedDivergenceRuns:
    def test_unguarded_run_diverges(self):
        result = pretrain_symmetry(diverging_config())
        _, ce = result.history.series("val", "ce")
        assert max(ce) / min(ce) > 3.0

    def test_lr_backoff_completes_with_finite_losses(self):
        result = pretrain_symmetry(
            diverging_config(stability_guard=True, on_spike="lr_backoff")
        )
        guard = result.guard
        assert guard is not None
        _, ce = result.history.series("val", "ce")
        assert np.isfinite(ce).all()
        assert guard.interventions > 0
        kinds = result.events.kinds()
        assert "spike" in kinds and "lr_backoff" in kinds
        # Detection precedes recovery for every transition pair.
        assert result.events.has_sequence(["spike", "lr_backoff"])
        # Every spike verdict was unanimous across the simulated ranks.
        for event in result.events.of_kind("spike"):
            assert len(set(event.detail["agreed"])) == 1

    def test_rollback_completes_and_restores_checkpoints(self):
        result = pretrain_symmetry(
            diverging_config(stability_guard=True, on_spike="rollback")
        )
        guard = result.guard
        _, ce = result.history.series("val", "ce")
        assert np.isfinite(ce).all()
        assert guard.interventions > 0
        assert result.events.has_sequence(["checkpoint_save", "spike", "restore", "rollback"])
        # Rollback ends far below the unguarded blow-up and near the start.
        assert ce[-1] < 3.0 * ce[0]
        for event in result.events.of_kind("spike"):
            assert len(set(event.detail["agreed"])) == 1

    def test_guarded_arms_beat_the_unguarded_peak(self):
        unguarded = pretrain_symmetry(diverging_config())
        guarded = pretrain_symmetry(
            diverging_config(stability_guard=True, on_spike="rollback")
        )
        _, ce_un = unguarded.history.series("val", "ce")
        _, ce_g = guarded.history.series("val", "ce")
        assert ce_g[-1] < max(ce_un)


# --------------------------------------------------------------------------- #
# Anomaly handling inside the trainer loop
# --------------------------------------------------------------------------- #
class TestTrainerAnomalyPath:
    def _task_and_loader(self):
        from repro.data.transforms import StructureToGraph
        from repro.datasets import SymmetryPointCloudDataset
        from repro.models import EGNN
        from repro.tasks import MultiClassClassificationTask

        rng = np.random.default_rng(5)
        enc = EGNN(hidden_dim=10, num_layers=1, position_dim=4, num_species=4, rng=rng)
        task = MultiClassClassificationTask(
            enc, num_classes=4, hidden_dim=8, num_blocks=1, dropout=0.0,
            rng=np.random.default_rng(6),
        )
        ds = SymmetryPointCloudDataset(8, seed=5, group_names=GROUPS)
        tf = StructureToGraph(cutoff=2.5)
        samples = [tf(ds[i]) for i in range(8)]
        return task, [samples[:4], samples[4:]]

    def test_anomaly_routed_to_guard_and_training_continues(self):
        from repro.distributed.ddp import SingleProcessStrategy
        from repro.optim import AdamW
        from repro.training import Trainer, TrainerConfig

        class PoisonOnce(SingleProcessStrategy):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def execute(self, task, samples):
                self.calls += 1
                if self.calls == 3:
                    raise NumericalAnomalyError(op="exp", shape=(4, 8), phase="forward")
                return super().execute(task, samples)

        task, batches = self._task_and_loader()
        guard = StabilityGuard(StabilityConfig(warmup_steps=1, policy="skip_batch"))
        trainer = Trainer(
            TrainerConfig(max_epochs=3, log_every_n_steps=1),
            strategy=PoisonOnce(),
            stability=guard,
        )
        optimizer = AdamW(task.parameters(), lr=1e-3)
        trainer.fit(task, batches, optimizer=optimizer)
        assert trainer.global_step == 6  # the poisoned step still counts
        events = guard.events.of_kind("anomaly")
        assert len(events) == 1
        assert events[0].detail["op"] == "exp"
        assert events[0].detail["phase"] == "forward"
        # The quarantined step's NaN never reaches the training history.
        for record in trainer.history.records:
            if record.get("split") == "train":
                assert np.isfinite(record["loss"])

    def test_anomaly_without_guard_propagates(self):
        from repro.distributed.ddp import SingleProcessStrategy
        from repro.optim import AdamW
        from repro.training import Trainer, TrainerConfig

        class Poison(SingleProcessStrategy):
            def execute(self, task, samples):
                raise NumericalAnomalyError(op="log", shape=(2,), phase="forward")

        task, batches = self._task_and_loader()
        trainer = Trainer(TrainerConfig(max_epochs=1), strategy=Poison())
        with pytest.raises(NumericalAnomalyError):
            trainer.fit(task, batches, optimizer=AdamW(task.parameters(), lr=1e-3))

    def test_detect_anomaly_flag_pinpoints_op_in_training(self):
        # A real forward pass through a task whose head weights are
        # poisoned to Inf: the tape must name the op instead of letting
        # NaN reach the loss.
        from repro.optim import AdamW
        from repro.training import Trainer, TrainerConfig

        task, batches = self._task_and_loader()
        for p in task.parameters():
            p.data[...] = np.inf
        trainer = Trainer(TrainerConfig(max_epochs=1, detect_anomaly=True))
        with pytest.raises(NumericalAnomalyError) as err:
            trainer.fit(task, batches, optimizer=AdamW(task.parameters(), lr=1e-3))
        assert err.value.op  # a concrete op name, not a silent NaN loss


# --------------------------------------------------------------------------- #
# Satellite: intentional NaN targets must not trip the guard
# --------------------------------------------------------------------------- #
class TestMultitaskNaNTargetsDoNotMisfire:
    def test_guard_ignores_masked_nan_targets(self):
        from repro.data.batching import collate_graphs
        from repro.data.dataset import ConcatDataset
        from repro.data.transforms import StructureToGraph
        from repro.datasets import CarolinaSurrogate, MaterialsProjectSurrogate
        from repro.models import EGNN
        from repro.optim import AdamW
        from repro.tasks import MultiTaskModule, TaskSpec
        from repro.training import Trainer, TrainerConfig

        mp = MaterialsProjectSurrogate(12, seed=3).materialize()
        cmd = CarolinaSurrogate(8, seed=4).materialize()
        ds = ConcatDataset([mp, cmd])
        tf = StructureToGraph(cutoff=4.5)
        samples = [tf(ds[i]) for i in range(len(ds))]
        # Interleave the datasets (as a shuffling loader would) so every
        # batch mixes MP and Carolina rows: each batch then carries NaN
        # fill for the targets its foreign rows lack.
        order = [0, 12, 1, 13, 2, 14, 3, 15, 4, 16, 5, 17, 6, 18, 7, 19]
        mixed = [samples[i] for i in order]
        batches = [mixed[i : i + 4] for i in range(0, 16, 4)]
        # Precondition: every collated batch really does carry NaN-filled
        # targets (MP rows lack Carolina's keys and vice versa).
        assert all(
            any(np.isnan(v).any() for v in collate_graphs(b).targets.values())
            for b in batches
        )

        rng = np.random.default_rng(7)
        enc = EGNN(hidden_dim=10, num_layers=1, position_dim=4, rng=rng)
        task = MultiTaskModule(
            enc,
            specs=[
                TaskSpec("band_gap", "band_gap", "regression", dataset="materials_project"),
                TaskSpec("cmd_eform", "formation_energy", "regression", dataset="carolina"),
            ],
            hidden_dim=8,
            num_blocks=1,
            rng=np.random.default_rng(8),
        )
        # Thresholds far above the genuine per-batch loss variance of tiny
        # raw-unit batches: a *non-finite* loss still flags unconditionally
        # (that check bypasses every threshold), so any event below proves
        # NaN fill leaked past the masking into the training loss.
        guard = StabilityGuard(
            StabilityConfig(
                warmup_steps=0, threshold=1e3, spike_factor=1e3, policy="skip_batch"
            )
        )
        trainer = Trainer(
            TrainerConfig(max_epochs=3, detect_anomaly=True, log_every_n_steps=1),
            stability=guard,
        )
        trainer.fit(task, batches, optimizer=AdamW(task.parameters(), lr=1e-3))
        # Post-mask losses are finite, so the guard must stay silent: no
        # spikes, no anomalies, no interventions.
        assert guard.interventions == 0
        assert guard.events.count("spike") == 0
        assert guard.events.count("anomaly") == 0
        for record in trainer.history.records:
            if record.get("split") == "train":
                assert np.isfinite(record["loss"])


class TestGuardedStepFailureInterplay:
    def test_guard_and_step_failure_paths_compose(self):
        # A StepFailure (fault-tolerance path) must still escalate when no
        # recovery config exists, guard or not.
        from repro.distributed.ddp import SingleProcessStrategy
        from repro.optim import AdamW
        from repro.training import Trainer, TrainerConfig

        class Fail(SingleProcessStrategy):
            def execute(self, task, samples):
                raise StepFailure("boom")

        task = None
        from repro.data.transforms import StructureToGraph
        from repro.datasets import SymmetryPointCloudDataset
        from repro.models import EGNN
        from repro.tasks import MultiClassClassificationTask

        rng = np.random.default_rng(5)
        enc = EGNN(hidden_dim=10, num_layers=1, position_dim=4, num_species=4, rng=rng)
        task = MultiClassClassificationTask(
            enc, num_classes=4, hidden_dim=8, num_blocks=1, dropout=0.0,
            rng=np.random.default_rng(6),
        )
        ds = SymmetryPointCloudDataset(4, seed=5, group_names=GROUPS)
        tf = StructureToGraph(cutoff=2.5)
        batches = [[tf(ds[i]) for i in range(4)]]
        guard = StabilityGuard(StabilityConfig(policy="skip_batch"))
        trainer = Trainer(
            TrainerConfig(max_epochs=1), strategy=Fail(), stability=guard
        )
        with pytest.raises(StepFailure):
            trainer.fit(task, batches, optimizer=AdamW(task.parameters(), lr=1e-3))
