"""Numerical stability: anomaly tracing, the Fig. 3 remedy and the guard.

The repository answers the paper's large-batch Adam divergence with one
optimizer option, ``Adam(update_clip=)``, and fails loudly on non-finite
values with ``repro.autograd.detect_anomaly``.  The ``SpikeDetector``
callback, fed by validation losses, is the reported spike signal; the
loss-spike guard (skip the step, halve the LR, re-warm) is the one runtime
recovery.  This suite pins the contracts of each, plus the DDP loss the
trainer logs and the trainer's behaviour when a step goes non-finite
(`pytest -m stability` selects it).

Every scenario is seeded and deterministic.  The end-to-end cases rerun
the Fig. 3-style divergence (the same cheap configuration the instability
regression uses) with and without the remedy.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.autograd import Tensor, functional as F
from repro.autograd.anomaly import NumericalAnomalyError, detect_anomaly
from repro.core import EncoderConfig, OptimizerConfig, PretrainConfig, pretrain_symmetry
from repro.data.batching import collate_graphs
from repro.distributed import DDPStrategy, EventLog, SingleProcessStrategy
from repro.nn.module import Parameter
from repro.optim import Adam, AdamW, clip_grad_norm
from repro.stability import StabilityGuard
from repro.training import SpikeDetector, Trainer, TrainerConfig

pytestmark = pytest.mark.stability

GROUPS = ["C1", "C2", "C4", "D2"]
CHANCE = math.log(len(GROUPS))


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


def _task_and_samples(n: int = 8):
    """A tiny dropout-free symmetry classifier and ``n`` graph samples."""
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
    ds = SymmetryPointCloudDataset(n, seed=5, group_names=GROUPS)
    tf = StructureToGraph(cutoff=2.5)
    return task, [tf(ds[i]) for i in range(n)]


def _param(values) -> Parameter:
    return Parameter(np.asarray(values, dtype=np.float64))


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

    @staticmethod
    def armed() -> bool:
        """Whether a non-finite op raises right now, i.e. tracing is on."""
        x = Tensor(np.array([-1.0]), requires_grad=True)
        with np.errstate(invalid="ignore"):
            try:
                F.log(x)
            except NumericalAnomalyError:
                return True
        return False

    def test_depth_restored_after_exception(self):
        x = Tensor(np.array([-1.0]), requires_grad=True)
        assert not self.armed()
        with pytest.raises(NumericalAnomalyError):
            with detect_anomaly():
                with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
                    F.log(x)
        assert not self.armed()
        # Outside the context the historical behaviour (non-finite values
        # propagate; numpy's own warning is all that is said) is preserved.
        with pytest.warns(RuntimeWarning, match="invalid value encountered in log"):
            out = F.log(x)
        assert np.isnan(out.data).all()

    def test_nesting(self):
        with detect_anomaly():
            with detect_anomaly():
                assert self.armed()
            assert self.armed()
        assert not self.armed()


# --------------------------------------------------------------------------- #
# The one spike signal: the SpikeDetector callback
# --------------------------------------------------------------------------- #
def _feed(detector: SpikeDetector, values, key: str = "ce") -> None:
    for step, value in enumerate(values):
        detector.on_validation_end(None, None, step, {key: value})


class TestRollingSpikeDetector:
    """The ``SpikeDetector`` contract (the class keeps the name of the
    guard-internal detector it replaced)."""

    def test_warmup_never_flags(self):
        det = SpikeDetector("ce", factor=1.5, warmup_evals=5)
        _feed(det, [1.0, 0.5, 50.0, 0.4, 75.0])
        assert det.spike_count == 0
        _feed(det, [75.0])  # the sixth evaluation is past the warmup
        assert det.spike_count == 1

    def test_flags_multiplicative_spike(self):
        det = SpikeDetector("ce", factor=1.5, warmup_evals=2)
        _feed(det, [2.0, 1.0, 0.9, 1.3, 1.4])
        # 1.3 < 1.5 * 0.9 is tolerated; 1.4 is the first spike.
        assert det.spike_steps == [4]
        assert det.spike_magnitudes == [pytest.approx(1.4 / 0.9)]

    def test_flags_nonfinite_immediately(self):
        det = SpikeDetector("ce", factor=1.5, warmup_evals=2)
        _feed(det, [1.0, 0.8, 0.7, float("inf")])
        assert det.spike_count == 1
        assert det.spike_magnitudes == [float("inf")]
        assert not det.recovered

    def test_spikes_do_not_poison_the_window(self):
        det = SpikeDetector("ce", factor=1.5, warmup_evals=2)
        _feed(det, [1.0, 1.0, 1.0, 1.0, 10.0, 10.0])
        # A spike never becomes the reference, so its successor is caught.
        assert det.best == 1.0
        assert det.spike_steps == [4, 5]

    def test_score_is_pure_and_absorb_is_explicit(self):
        det = SpikeDetector("ce", warmup_evals=0)
        _feed(det, [1.0, 100.0], key="acc")
        # Evaluations without the monitored metric are not evaluations.
        assert det.evals == 0
        assert det.best is None and det.last_value is None
        assert det.recovered

    def test_tolerates_benign_wiggle_on_flat_window(self):
        det = SpikeDetector("ce", factor=1.5, warmup_evals=2)
        _feed(det, [1.0] * 6 + [1.05, 1.4, 1.0])
        assert det.spike_count == 0
        assert det.recovered

    def test_validates_parameters(self):
        with pytest.raises(ValueError, match="factor"):
            SpikeDetector("ce", factor=1.0)
        with pytest.raises(ValueError, match="warmup_evals"):
            SpikeDetector("ce", warmup_evals=-1)
        with pytest.raises(ValueError, match="recovery_factor"):
            SpikeDetector("ce", recovery_factor=0.5)


# --------------------------------------------------------------------------- #
# The diagnostics that remain: the clip's global norm and Adam's moments
# --------------------------------------------------------------------------- #
def _eps_floor_fraction(opt):
    """Share of second-moment entries below eps^2 (the Molybog floor)."""
    v = np.concatenate([entry["v"].ravel() for entry in opt.state.values()])
    return float(np.mean(v < opt.eps**2))


class TestMonitors:
    """The global gradient norm ``clip_grad_norm`` reports and the eps floor
    read from Adam's ``v`` state (the class keeps the name of the guard
    monitors that once read an optimizer summary of both)."""

    def test_grad_norm_nonfinite_flags(self):
        p = _param(np.zeros(3))
        p.grad = np.array([1.0, np.inf, 0.0])
        assert clip_grad_norm([p], 1.0, nonfinite="zero") == np.inf
        assert np.array_equal(p.grad, np.zeros(3))

    def test_grad_norm_explosion_flags(self):
        a, b = _param([0.0, 0.0]), _param([0.0])
        a.grad, b.grad = np.array([3.0, 0.0]), np.array([4.0])
        assert clip_grad_norm([a, b], 1e6) == 5.0  # global, not per tensor
        a.grad, b.grad = a.grad * 100.0, b.grad * 100.0
        assert clip_grad_norm([a, b], 1e6) == 500.0

    def test_eps_floor_alerts_once_per_excursion(self):
        # The floor fraction reads the moments, so it rises and falls with
        # them: entries whose gradient vanished sit at the floor until a
        # gradient lifts their second moment again.
        p = _param(np.zeros(4))
        opt = Adam([p], lr=1e-3)
        p.grad = np.array([1.0, 1.0, 0.0, 0.0])
        opt.step()
        assert _eps_floor_fraction(opt) == 0.5
        p.grad = np.ones(4)
        opt.step()
        assert _eps_floor_fraction(opt) == 0.0


# --------------------------------------------------------------------------- #
# The remedy: Adam(update_clip=)
# --------------------------------------------------------------------------- #
def _adamw_reference(params, grads_per_step, lr, betas, eps, weight_decay):
    """Plain AdamW, written out with the operation order of ``Adam._update``."""
    b1, b2 = betas
    data = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_per_step, start=1):
        bias1, bias2 = 1.0 - b1**t, 1.0 - b2**t
        for i, g in enumerate(grads):
            m[i] = m[i] * b1 + g * (1.0 - b1)
            v[i] = v[i] * b2 + (g * (1.0 - b2)) * g
            update = (m[i] / bias1) / (np.sqrt(v[i] / bias2) + eps)
            data[i] = data[i] - data[i] * (lr * weight_decay)
            data[i] = data[i] - update * lr
    return data


class TestPolicies:
    """``update_clip`` contracts (the class keeps the name of the guard's
    recovery policies, which the remedy replaced)."""

    def test_unknown_policy_rejected(self):
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError, match="update_clip"):
                Adam([_param([1.0])], update_clip=bad)
            with pytest.raises(ValueError, match="update_clip"):
                AdamW([_param([1.0])], update_clip=bad)

    def test_skip_batch_leaves_lr_alone(self, rng):
        # update_clip=None is plain AdamW, byte for byte.
        shapes = [(3, 4), (5,)]
        init = [rng.normal(size=s) for s in shapes]
        steps = [[rng.normal(size=s) * 10.0**k for s in shapes] for k in range(-3, 7)]
        params = [_param(x.copy()) for x in init]
        opt = AdamW(params, lr=3e-3, eps=1e-8, weight_decay=1e-2, update_clip=None)
        for grads in steps:
            for p, g in zip(params, grads):
                p.grad = g.copy()
            opt.step()
        expected = _adamw_reference(init, steps, 3e-3, (0.9, 0.999), 1e-8, 1e-2)
        for p, ref in zip(params, expected):
            assert np.array_equal(p.data, ref)

    def test_lr_backoff_cuts_and_rewarms_to_nominal(self, rng):
        # Every step, every tensor's realized update has RMS <= r, at any
        # gradient scale.
        r, lr = 0.1, 1e-2
        params = [_param(rng.normal(size=(6, 3))), _param(rng.normal(size=(7,)))]
        opt = AdamW(params, lr=lr, weight_decay=0.0, update_clip=r)
        for step in range(12):
            before = [p.data.copy() for p in params]
            for k, p in enumerate(params):
                p.grad = rng.normal(size=p.data.shape) * 10.0 ** (step - 6 + 3 * k)
            opt.step()
            for p, old in zip(params, before):
                rms = float(np.sqrt(np.mean(((old - p.data) / lr) ** 2)))
                assert rms <= r * (1.0 + 1e-9)

    def test_rewarm_tracks_scheduler_target(self):
        # The clip is per tensor: a tensor whose update RMS is under r keeps
        # the unclipped bits while its neighbour in the same step is scaled.
        r, lr = 0.5, 0.1

        def run(update_clip):
            a, b = _param(np.zeros(4)), _param(np.zeros(16))
            opt = Adam([a, b], lr=lr, update_clip=update_clip)
            a.grad = np.ones(4)  # first-step update RMS 1 -> clipped
            b.grad = np.zeros(16)
            b.grad[0] = 1.0  # update RMS 1/4 -> untouched
            opt.step()
            return a.data.copy(), b.data.copy()

        (a_plain, b_plain), (a_clip, b_clip) = run(None), run(r)
        assert np.array_equal(b_clip, b_plain)
        assert np.allclose(a_clip, r * a_plain, rtol=1e-12)

    def test_rollback_requires_recovery_config(self):
        # update_clip under DDPStrategy: after one 2-rank step every
        # tensor's update RMS is at most r * lr (Adam's first update has
        # RMS ~1, so the clip binds), and the pretraining workflow runs it.
        lr, r = 1e-2, 0.1
        task, samples = _task_and_samples(8)
        before = [p.data.copy() for p in task.parameters()]
        opt = AdamW(task.parameters(), lr=lr, weight_decay=0.0, update_clip=r)
        DDPStrategy(2).execute(task, samples)
        opt.step()
        rms = [
            float(np.sqrt(np.mean((p.data - b) ** 2)))
            for p, b in zip(task.parameters(), before)
            if p.grad is not None
        ]
        assert rms and max(rms) <= r * lr * (1 + 1e-12) and min(rms) > 0
        config = PretrainConfig(
            encoder=EncoderConfig(hidden_dim=8, num_layers=1, position_dim=4),
            optimizer=OptimizerConfig(update_clip=r),
            group_names=GROUPS,
            train_samples=8,
            val_samples=8,
            world_size=2,
            max_epochs=1,
            head_hidden_dim=8,
            head_blocks=1,
        )
        result = pretrain_symmetry(config)
        assert math.isfinite(result.history.last("val", "ce"))

    def test_rollback_restores_then_cuts(self):
        # The clip acts after the preconditioner.  Adam normalizes the
        # gradient, so clipping the gradient norm leaves the first step at
        # lr whatever the gradient's scale; update_clip bounds it at r * lr.
        lr, r = 1e-2, 0.1
        for scale in (1e3, 1.0, 1e-3):
            clipped_grad, clipped_update = _param(np.zeros(4)), _param(np.zeros(4))
            grad_opt = AdamW([clipped_grad], lr=lr, weight_decay=0.0)
            update_opt = AdamW([clipped_update], lr=lr, weight_decay=0.0, update_clip=r)
            clipped_grad.grad = np.full(4, scale)
            clip_grad_norm([clipped_grad], max_norm=1e-3)
            grad_opt.step()
            clipped_update.grad = np.full(4, scale)
            update_opt.step()
            assert np.allclose(clipped_grad.data, -lr, rtol=1e-3)
            assert np.allclose(clipped_update.data, -r * lr, rtol=1e-6)

    def test_policy_parameter_validation(self):
        with pytest.raises(ValueError, match="update_clip"):
            Adam([_param([1.0])], update_clip=float("nan"))
        with pytest.raises(ValueError, match="update_clip"):
            AdamW([_param([1.0])], update_clip=float("nan"))


# --------------------------------------------------------------------------- #
# The DDP loss the trainer sees
# --------------------------------------------------------------------------- #
def _shard_losses(task, strategy, samples):
    losses = []
    for shard in strategy.shard(samples):
        loss, _ = task.training_step(collate_graphs(shard))
        losses.append(float(loss.data))
    return losses


class TestGuardRankAgreement:
    """DDP's returned loss is the rank-order mean of the shard losses (the
    class keeps the name of the guard's cross-rank verdict it replaced)."""

    def test_single_rank_vote_escalates_all_ranks(self):
        task, samples = _task_and_samples(8)
        strategy = DDPStrategy(4)
        loss, _ = strategy.execute(task, samples)
        assert loss == float(np.mean(_shard_losses(task, strategy, samples)))

    def test_rank_windows_stay_identical_after_disagreement(self):
        task, samples = _task_and_samples(8)
        ddp_loss, _ = DDPStrategy(1).execute(task, samples)
        single_loss, _ = SingleProcessStrategy().execute(task, samples)
        assert ddp_loss == single_loss

    def test_intervention_budget_gives_up_once(self):
        # A sick rank is never averaged away: one non-finite shard loss
        # makes the returned loss non-finite.
        task, samples = _task_and_samples(8)
        healthy = task.training_step
        calls = []

        def training_step(batch):
            loss, metrics = healthy(batch)
            calls.append(batch)
            return (loss * float("nan") if len(calls) == 3 else loss), metrics

        task.training_step = training_step
        loss, _ = DDPStrategy(4).execute(task, samples)
        assert len(calls) == 4
        assert math.isnan(loss)

    def test_nonfinite_grad_norm_forces_intervention(self):
        # ... and its gradient reaches the reduced gradients, where the
        # clip reports a non-finite global norm.
        task, samples = _task_and_samples(8)
        healthy = task.training_step
        calls = []

        def training_step(batch):
            loss, metrics = healthy(batch)
            calls.append(batch)
            return (loss * float("nan") if len(calls) == 2 else loss), metrics

        task.training_step = training_step
        DDPStrategy(4).execute(task, samples)
        assert math.isnan(clip_grad_norm(task.parameters(), 1.0, nonfinite="zero"))

    def test_eps_floor_alert_recorded(self):
        # The trainer logs exactly the loss the strategy returned.
        task, samples = _task_and_samples(8)
        expected, _ = DDPStrategy(4).execute(task, samples[:4])
        task, samples = _task_and_samples(8)
        trainer = Trainer(
            TrainerConfig(max_epochs=1, log_every_n_steps=1),
            strategy=DDPStrategy(4),
        )
        trainer.fit(task, [samples[:4], samples[4:]], optimizer=AdamW(task.parameters()))
        _, losses = trainer.history.series("train", "loss")
        assert len(losses) == 2
        assert losses[0] == expected


class _StubTrainer:
    """What the guard touches: the step counter, the strategy's per-rank
    losses, the LR and ``scale_lr``."""

    def __init__(self, lr=1e-2):
        self.global_step = 0
        self.strategy = SimpleNamespace(last_rank_losses=None)
        self.optimizer = SimpleNamespace(lr=lr)
        self.scheduler = SimpleNamespace(target_lr=lr)

    def scale_lr(self, factor):
        self.optimizer.lr *= factor
        self.scheduler.target_lr *= factor


def _score(guard, trainer, losses):
    """Feed ``losses`` as consecutive steps; the guard's skip verdicts."""
    verdicts = []
    for loss in losses:
        verdicts.append(guard.guard_step(trainer, loss))
        trainer.global_step += 1
    return verdicts


class TestGuardRecovery:
    """The loss-spike guard's one fixed behaviour: skip, halve, re-warm."""

    def test_step_after_a_cut_runs_at_the_cut_lr(self):
        # A skipped step leaves the parameters where they were, so the next
        # loss is as high as the spike.  Scored against the pre-spike window
        # it would be flagged again, and so would every loss after it: the
        # run freezes and the cut LR never acts.  An intervention therefore
        # re-baselines the window, and the next step runs at the cut LR.
        trainer, guard = _StubTrainer(), StabilityGuard()
        assert not any(_score(guard, trainer, [1.0] * 8))
        assert _score(guard, trainer, [100.0]) == [True]
        cut = trainer.optimizer.lr
        assert _score(guard, trainer, [100.0] * 3) == [False] * 3
        assert guard.interventions == 1
        assert cut == pytest.approx(0.5e-2)

    def test_cut_moves_the_scheduler_target_and_rewarms_to_nominal(self):
        trainer, guard = _StubTrainer(), StabilityGuard()
        _score(guard, trainer, [1.0] * 8 + [100.0])
        assert trainer.scheduler.target_lr == pytest.approx(0.5e-2)
        _score(guard, trainer, [1.0] * 25)
        # The geometric re-warm lands on the schedule's rate, never above.
        assert trainer.optimizer.lr == pytest.approx(1e-2, rel=1e-12)
        assert guard.deficit == 1.0
        assert guard.events.kinds() == ["spike", "lr_backoff", "lr_rewarm"]

    def test_one_flagging_rank_skips_the_step(self):
        # Each rank is scored against its own window: rank 1's jump flags
        # the step for both ranks, and every window is re-baselined.
        trainer, guard = _StubTrainer(), StabilityGuard()
        trainer.strategy.last_rank_losses = [1.0, 1.0]
        assert not any(_score(guard, trainer, [1.0] * 8))
        trainer.strategy.last_rank_losses = [1.0, 100.0]
        assert _score(guard, trainer, [50.5]) == [True]
        assert guard.events.of_kind("spike")[0].detail["ranks"] == [1]
        assert [len(w) for w in guard.windows] == [0, 0]

    def test_nonfinite_loss_is_a_spike_even_in_warmup(self):
        trainer, guard = _StubTrainer(), StabilityGuard()
        assert _score(guard, trainer, [float("nan")]) == [True]
        assert guard.events.of_kind("spike")[0].detail["loss"] is None

    def test_budget_gives_up_once_and_passes_steps_through(self):
        trainer, guard = _StubTrainer(), StabilityGuard()
        verdicts = _score(guard, trainer, [float("inf")] * 40)
        assert sum(verdicts) == guard.interventions == 32
        assert verdicts[32:] == [False] * 8
        assert guard.exhausted
        assert guard.events.count("give_up") == 1

    def test_trainer_skips_the_flagged_step(self):
        # The flagged step drops its gradients, runs no optimizer step and
        # never reaches the train history, but counts toward the loop.
        class SpikeOnce(SingleProcessStrategy):
            calls = 0

            def execute(self, task, samples):
                loss, metrics = super().execute(task, samples)
                SpikeOnce.calls += 1
                if SpikeOnce.calls == 8:
                    loss *= 1e3
                    self.last_rank_losses = [loss]
                return loss, metrics

        task, samples = _task_and_samples(8)
        guard = StabilityGuard()
        trainer = Trainer(
            TrainerConfig(max_epochs=4, log_every_n_steps=1),
            strategy=SpikeOnce(),
            stability=guard,
        )
        optimizer = AdamW(task.parameters(), lr=1e-3)
        trainer.fit(task, [samples[:4], samples[4:]], optimizer=optimizer)
        assert trainer.global_step == 8
        assert guard.interventions == 1
        assert optimizer.step_count == 7
        assert optimizer.lr == pytest.approx(0.5e-3)
        steps, _ = trainer.history.series("train", "loss")
        assert steps == [1, 2, 3, 4, 5, 6, 7]

    def test_anomaly_propagates_through_an_attached_guard(self):
        class Poison(SingleProcessStrategy):
            def execute(self, task, samples):
                raise NumericalAnomalyError(op="exp", shape=(2,), phase="forward")

        task, samples = _task_and_samples(4)
        trainer = Trainer(
            TrainerConfig(max_epochs=1), strategy=Poison(), stability=StabilityGuard()
        )
        with pytest.raises(NumericalAnomalyError):
            trainer.fit(task, [samples], optimizer=AdamW(task.parameters(), lr=1e-3))


# --------------------------------------------------------------------------- #
# End-to-end: the diverging Fig. 3 run with and without the remedy
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def divergence_runs():
    clipped = OptimizerConfig(base_lr=1e-3, warmup_epochs=4, gamma=0.8, update_clip=0.1)
    return {
        "unguarded": pretrain_symmetry(diverging_config()),
        "update_clip": pretrain_symmetry(diverging_config(optimizer=clipped)),
    }


def _val_ce(result):
    return result.history.series("val", "ce")[1]


class TestGuardedDivergenceRuns:
    """The remedy on the diverging run (the class keeps the name of the
    guarded runs it replaced)."""

    def test_unguarded_run_diverges(self, divergence_runs):
        ce = _val_ce(divergence_runs["unguarded"])
        assert max(ce) / min(ce) > 3.0

    def test_lr_backoff_completes_with_finite_losses(self, divergence_runs):
        result = divergence_runs["update_clip"]
        assert np.isfinite(_val_ce(result)).all()
        assert np.isfinite(result.history.series("train", "loss")[1]).all()

    def test_rollback_completes_and_restores_checkpoints(self, divergence_runs):
        # The remedied run ends below chance.
        assert _val_ce(divergence_runs["update_clip"])[-1] < CHANCE

    def test_guarded_arms_beat_the_unguarded_peak(self, divergence_runs):
        clipped = _val_ce(divergence_runs["update_clip"])
        unguarded = _val_ce(divergence_runs["unguarded"])
        assert max(clipped) < max(unguarded)
        assert clipped[-1] < max(unguarded)


# --------------------------------------------------------------------------- #
# Anomalies inside the trainer loop
# --------------------------------------------------------------------------- #
class TestTrainerAnomalyPath:
    def test_anomaly_routed_to_guard_and_training_continues(self):
        # The anomaly propagates at the poisoned step, naming its op; the
        # steps before it ran and were logged, the poisoned one never counts.
        class PoisonOnce(SingleProcessStrategy):
            def __init__(self):
                super().__init__()
                self.calls = 0

            def execute(self, task, samples):
                self.calls += 1
                if self.calls == 3:
                    raise NumericalAnomalyError(op="exp", shape=(4, 8), phase="forward")
                return super().execute(task, samples)

        task, samples = _task_and_samples(8)
        trainer = Trainer(
            TrainerConfig(max_epochs=3, log_every_n_steps=1), strategy=PoisonOnce()
        )
        optimizer = AdamW(task.parameters(), lr=1e-3)
        with pytest.raises(NumericalAnomalyError) as err:
            trainer.fit(task, [samples[:4], samples[4:]], optimizer=optimizer)
        assert (err.value.op, err.value.phase) == ("exp", "forward")
        assert trainer.global_step == 2
        assert optimizer.step_count == 2
        _, losses = trainer.history.series("train", "loss")
        assert len(losses) == 2 and np.isfinite(losses).all()

    def test_anomaly_without_guard_propagates(self):
        class Poison(SingleProcessStrategy):
            def execute(self, task, samples):
                raise NumericalAnomalyError(op="log", shape=(2,), phase="forward")

        task, samples = _task_and_samples(8)
        trainer = Trainer(TrainerConfig(max_epochs=1), strategy=Poison())
        with pytest.raises(NumericalAnomalyError):
            trainer.fit(
                task, [samples[:4], samples[4:]],
                optimizer=AdamW(task.parameters(), lr=1e-3),
            )

    def test_detect_anomaly_flag_pinpoints_op_in_training(self):
        # A real forward pass through a task whose weights are poisoned to
        # Inf: the tape must name the op instead of letting NaN reach the
        # loss.
        task, samples = _task_and_samples(8)
        for p in task.parameters():
            p.data[...] = np.inf
        trainer = Trainer(TrainerConfig(max_epochs=1, detect_anomaly=True))
        with pytest.raises(NumericalAnomalyError) as err:
            trainer.fit(
                task, [samples[:4], samples[4:]],
                optimizer=AdamW(task.parameters(), lr=1e-3),
            )
        assert err.value.op  # a concrete op name, not a silent NaN loss


# --------------------------------------------------------------------------- #
# Intentional NaN targets must not read as anomalies
# --------------------------------------------------------------------------- #
class TestMultitaskNaNTargetsDoNotMisfire:
    def test_guard_ignores_masked_nan_targets(self):
        from repro.data.dataset import ConcatDataset
        from repro.data.transforms import StructureToGraph
        from repro.datasets import CarolinaSurrogate, MaterialsProjectSurrogate
        from repro.models import EGNN
        from repro.tasks import MultiTaskModule, TaskSpec

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
        # Under detect_anomaly any NaN fill that leaked past the masking
        # into a forward value or gradient would raise, naming its op.
        trainer = Trainer(
            TrainerConfig(max_epochs=3, detect_anomaly=True, log_every_n_steps=1)
        )
        trainer.fit(task, batches, optimizer=AdamW(task.parameters(), lr=1e-3))
        assert trainer.global_step == 12
        _, losses = trainer.history.series("train", "loss")
        assert len(losses) == 12 and np.isfinite(losses).all()


class TestGuardedStepFailureInterplay:
    def test_guard_and_step_failure_paths_compose(self):
        # A failed strategy step propagates through an attached guard: the
        # guard never scores it and records nothing.
        class Fail(SingleProcessStrategy):
            def execute(self, task, samples):
                raise RuntimeError("boom")

        task, samples = _task_and_samples(4)
        guard = StabilityGuard(events=EventLog())
        trainer = Trainer(TrainerConfig(max_epochs=1), strategy=Fail(), stability=guard)
        with pytest.raises(RuntimeError, match="boom"):
            trainer.fit(task, [samples], optimizer=AdamW(task.parameters(), lr=1e-3))
        assert trainer.global_step == 0
        assert len(guard.events) == 0
        assert guard.summary()["interventions"] == 0
