"""Trainer loop, callbacks, history, fine-tune utilities."""

import numpy as np
import pytest

from repro.data import DataLoader
from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.models import EGNN
from repro.optim import AdamW, WarmupExponential
from repro.tasks import MultiClassClassificationTask
from repro.training import (
    Callback,
    History,
    LRMonitor,
    ModelCheckpoint,
    SpikeDetector,
    ThroughputMeter,
    Trainer,
    TrainerConfig,
    finetune_lr,
)
from repro.autograd import functional as F
from repro.tasks.base import finalize_val_results, merge_val_results
from repro.training.metrics import accuracy


def make_setup(seed=21, n_train=24, n_val=12, group_names=("C1", "C2", "C4", "D2")):
    rng = np.random.default_rng(seed)
    names = list(group_names)
    tf = StructureToGraph(cutoff=2.5)
    train = SymmetryPointCloudDataset(n_train, seed=seed, group_names=names).materialize()
    val = SymmetryPointCloudDataset(n_val, seed=seed + 500, group_names=names).materialize()
    train_loader = DataLoader(train, batch_size=8, shuffle=True,
                              rng=np.random.default_rng(seed), collate_fn=list, transform=tf)
    val_loader = DataLoader(val, batch_size=8, collate_fn=list, transform=tf)
    enc = EGNN(hidden_dim=10, num_layers=1, position_dim=4, num_species=4, rng=rng)
    task = MultiClassClassificationTask(enc, num_classes=len(names),
                                        hidden_dim=8, num_blocks=1, rng=rng)
    opt = AdamW(task.parameters(), lr=3e-3, weight_decay=0.0)
    return task, train_loader, val_loader, opt


class TestHistory:
    def test_series_extraction(self):
        h = History()
        h.log(1, 0, "train", loss=1.0)
        h.log(2, 0, "train", loss=0.5)
        h.log(2, 0, "val", ce=2.0)
        steps, values = h.series("train", "loss")
        assert steps == [1, 2] and values == [1.0, 0.5]
        assert h.last("val", "ce") == 2.0
        assert h.last("train", "loss") == 0.5

    def test_missing_metric(self):
        h = History()
        assert h.last("val", "nope") is None
        assert h.series("val", "nope") == ([], [])

    def test_metrics_logged_and_csv(self):
        """Records keep step, epoch, split and every metric; ``series``
        skips a None value."""
        h = History()
        h.log(1, 0, "val", a=1.0, b=2.0)
        h.log(2, 1, "val", a=None, b=3.0)
        assert h.records[0] == {"step": 1, "epoch": 0, "split": "val", "a": 1.0, "b": 2.0}
        assert h.series("val", "a") == ([1], [1.0])
        assert h.series("val", "b") == ([1, 2], [2.0, 3.0])

    def test_last_skips_none_values(self):
        """``last`` returns the latest non-None value, like ``series``
        skips None, and None when every record holds None."""
        h = History()
        h.log(1, 0, "val", a=1.0, b=None)
        h.log(2, 1, "val", a=None, b=None)
        assert h.last("val", "a") == 1.0
        assert h.last("val", "b") is None

    def test_len(self):
        h = History()
        h.log(1, 0, "train", loss=1.0)
        assert len(h) == 1


class TestMeterAndMetrics:
    def test_meter_weighted_mean(self):
        """Validation metrics stream as (sum, count) pairs: the merged mean
        is weighted by count, and no batch means no metric."""
        merged = merge_val_results({"m": (1.0 * 3, 3)}, {"m": (5.0, 1)})
        assert finalize_val_results(merged)["m"] == pytest.approx(2.0)
        assert finalize_val_results(merge_val_results({}, {})) == {}

    def test_mae(self):
        """MAE is the tape's ``l1_loss`` (``ScalarRegressionTask(loss="l1")``)."""
        assert F.l1_loss(np.array([1.0, 3.0]), np.array([2.0, 1.0])).item() == pytest.approx(1.5)

    def test_accuracy_binary_and_multiclass(self):
        assert accuracy(np.array([1.0, -1.0]), np.array([1.0, 0.0])) == 1.0
        logits = np.array([[2.0, 0.0], [0.0, 2.0]])
        assert accuracy(logits, np.array([0, 0])) == 0.5

    def test_cross_entropy_np_uniform(self):
        logits = np.zeros((4, 3))
        assert F.cross_entropy(logits, np.zeros(4, dtype=int)).item() == pytest.approx(np.log(3))


class TestTrainerLoop:
    def test_fit_logs_and_validates(self):
        task, train_loader, val_loader, opt = make_setup()
        trainer = Trainer(TrainerConfig(max_epochs=2, log_every_n_steps=1))
        history = trainer.fit(task, train_loader, val_loader, opt)
        assert history.last("val", "ce") is not None
        assert len(history.series("train", "loss")[0]) == 2 * 3

    def test_requires_optimizer(self):
        task, train_loader, val_loader, _ = make_setup()
        with pytest.raises(ValueError):
            Trainer(TrainerConfig(max_epochs=1)).fit(task, train_loader, val_loader)

    def test_max_steps_stops_early(self):
        task, train_loader, val_loader, opt = make_setup()
        trainer = Trainer(TrainerConfig(max_epochs=50, max_steps=4))
        trainer.fit(task, train_loader, val_loader, opt)
        assert trainer.global_step == 4

    def test_step_cadence_validation(self):
        task, train_loader, val_loader, opt = make_setup()
        trainer = Trainer(TrainerConfig(max_epochs=2, val_every_n_steps=2))
        history = trainer.fit(task, train_loader, val_loader, opt)
        val_steps = history.series("val", "ce")[0]
        assert val_steps == [2, 4, 6]

    def test_scheduler_steps_per_epoch(self):
        task, train_loader, val_loader, opt = make_setup()
        sched = WarmupExponential(opt, warmup_epochs=4, gamma=0.8, target_lr=3e-3)
        trainer = Trainer(TrainerConfig(max_epochs=3))
        trainer.fit(task, train_loader, val_loader, opt, sched)
        assert sched.epoch == 3

    def test_grad_clip_applied(self):
        task, train_loader, val_loader, opt = make_setup()
        trainer = Trainer(TrainerConfig(max_epochs=1, grad_clip_norm=1e-12))
        before = {n: p.data.copy() for n, p in task.named_parameters()}
        trainer.fit(task, train_loader, None, opt)
        # With an absurdly tight clip the update is essentially frozen by
        # gradient magnitude (Adam renormalizes, so just check it ran).
        assert trainer.global_step > 0
        assert any(
            not np.allclose(before[n], p.data) for n, p in task.named_parameters()
        )

    def test_val_max_batches(self):
        """Validation covers every batch: three batches of 8 give the
        metrics of one batch of all 24."""
        task, train_loader, val_loader, opt = make_setup(n_val=24)
        trainer = Trainer(TrainerConfig(max_epochs=1))
        metrics = trainer.validate(task, val_loader)
        whole = DataLoader(val_loader.dataset, batch_size=24, collate_fn=list,
                           transform=val_loader.transform)
        assert len(val_loader) == 3
        assert metrics == pytest.approx(trainer.validate(task, whole), rel=1e-12)

    @pytest.mark.parametrize(
        "field", ["max_epochs", "max_steps", "val_every_n_steps", "log_every_n_steps"]
    )
    def test_config_domain(self, field):
        """Every count must be >= 1: 0 trained nothing (an empty history)
        or divided by zero at the first step."""
        for bad in (0, -1, float("nan")):
            with pytest.raises(ValueError, match=rf"^TrainerConfig\.{field} must be >= 1"):
                TrainerConfig(**{field: bad})
        TrainerConfig(**{field: 1})

    def test_zero_epoch_finetune_is_refused(self):
        """``train_property`` at ``max_epochs=0`` used to return a result
        whose ``final_mae`` raised IndexError."""
        from repro.core import FinetuneConfig, train_property

        with pytest.raises(ValueError, match="max_epochs must be >= 1, got 0"):
            train_property(FinetuneConfig(train_samples=4, val_samples=2, batch_size=2,
                                          max_epochs=0, world_size=1))


class TestCallbacks:
    def test_early_stopping(self):
        # A callback stops the loop by setting ``should_stop``: the loop
        # finishes the epoch's validation and returns.
        class StopAfterSecondValidation(Callback):
            seen = 0

            def on_validation_end(self, trainer, task, step, metrics):
                self.seen += 1
                trainer.should_stop = self.seen == 2

        task, train_loader, val_loader, opt = make_setup()
        stopper = StopAfterSecondValidation()
        trainer = Trainer(TrainerConfig(max_epochs=30), callbacks=[stopper])
        trainer.fit(task, train_loader, val_loader, opt)
        assert trainer.global_step == 2 * 3
        assert len(trainer.history.series("val", "ce")[0]) == 2

    def test_early_stopping_mode_validation(self):
        # ModelCheckpoint's "max" mode keeps the highest monitored value.
        ckpt = ModelCheckpoint(monitor="acc", mode="max")
        for step, value in enumerate([0.2, 0.7, 0.5]):
            task = type("T", (), {"state_dict": lambda self, v=value: {"v": v}})()
            ckpt.on_validation_end(None, task, step, {"acc": value})
        assert (ckpt.best_value, ckpt.best_step, ckpt.best_state) == (0.7, 1, {"v": 0.7})

    def test_model_checkpoint_restores_best(self):
        task, train_loader, val_loader, opt = make_setup()
        ckpt = ModelCheckpoint(monitor="ce")
        trainer = Trainer(TrainerConfig(max_epochs=3), callbacks=[ckpt])
        trainer.fit(task, train_loader, val_loader, opt)
        assert ckpt.best_state is not None
        best_value = ckpt.best_value
        ckpt.restore_best(task)
        metrics = trainer.validate(task, val_loader)
        assert metrics["ce"] == pytest.approx(best_value, rel=0.35)

    def test_checkpoint_restore_before_capture_raises(self):
        ckpt = ModelCheckpoint(monitor="ce")
        with pytest.raises(RuntimeError):
            ckpt.restore_best(None)

    def test_lr_monitor_traces(self):
        task, train_loader, val_loader, opt = make_setup()
        sched = WarmupExponential(opt, warmup_epochs=2, gamma=0.5, target_lr=1.0)
        mon = LRMonitor()
        trainer = Trainer(TrainerConfig(max_epochs=3), callbacks=[mon])
        trainer.fit(task, train_loader, val_loader, opt, sched)
        assert len(mon.trace) == 3
        epochs, lrs = zip(*mon.trace)
        # The monitor records after the per-epoch scheduler step, so epoch e
        # logs lr_at(e + 1): warmup peak, first decay, second decay.
        assert lrs[0] == pytest.approx(1.0)
        assert lrs[1] == pytest.approx(0.5)
        assert lrs[2] == pytest.approx(0.25)

    def test_throughput_meter_counts_samples(self):
        task, train_loader, val_loader, opt = make_setup()
        meter = ThroughputMeter()
        trainer = Trainer(TrainerConfig(max_epochs=2), callbacks=[meter])
        trainer.fit(task, train_loader, None, opt)
        assert meter.samples == 2 * 24
        assert meter.samples_per_second > 0

    def test_gradient_stats_monitor(self):
        # The optimizer's moments are readable after a fit, with the last
        # step's gradients still in place: one (m, v) pair per parameter.
        task, train_loader, val_loader, opt = make_setup()
        trainer = Trainer(TrainerConfig(max_epochs=1))
        trainer.fit(task, train_loader, None, opt)
        params = list(task.parameters())
        assert any(p.grad is not None and np.any(p.grad) for p in params)
        assert opt.step_count == trainer.global_step == 3
        for i, entry in opt.state.items():
            assert set(entry) == {"m", "v"}
            assert entry["v"].shape == params[i].data.shape
            assert np.all(entry["v"] >= 0)


class TestSpikeDetector:
    def feed(self, detector, values):
        class FakeTrainer:
            pass

        for i, v in enumerate(values):
            detector.on_validation_end(FakeTrainer(), None, i, {"ce": v})

    def test_detects_spike_after_warmup(self):
        det = SpikeDetector("ce", factor=1.5, warmup_evals=2)
        self.feed(det, [3.0, 2.0, 1.0, 0.9, 2.5, 0.95])
        assert det.spike_count == 1
        assert det.spike_magnitudes[0] == pytest.approx(2.5 / 0.9)
        assert det.recovered

    def test_non_recovery_flagged(self):
        det = SpikeDetector("ce", factor=1.5, warmup_evals=1)
        self.feed(det, [2.0, 1.0, 0.5, 4.0, 4.2, 4.1])
        assert det.spike_count >= 1
        assert not det.recovered

    def test_warmup_suppresses_early_noise(self):
        det = SpikeDetector("ce", factor=1.5, warmup_evals=5)
        self.feed(det, [1.0, 0.2, 5.0, 0.2])
        assert det.spike_count == 0

    def test_monotone_descent_no_spikes(self):
        det = SpikeDetector("ce")
        self.feed(det, [3.0, 2.0, 1.5, 1.2, 1.0])
        assert det.spike_count == 0
        assert det.recovered


class TestFinetuneUtils:
    def test_lr_rule(self):
        assert finetune_lr(1e-3) == pytest.approx(1e-4)
        with pytest.raises(ValueError):
            finetune_lr(1e-3, divisor=0)

    def test_transfer_encoder_copies_weights(self):
        """``load_encoder_state(encoder_state())``, as the fine-tune workflow
        transplants a pretrained encoder."""
        task_a, *_ = make_setup(seed=1)
        task_b, *_ = make_setup(seed=2)
        p_a = next(iter(task_a.encoder.parameters())).data
        p_b = next(iter(task_b.encoder.parameters())).data
        assert not np.allclose(p_a, p_b)
        task_b.load_encoder_state(task_a.encoder_state())
        assert np.allclose(
            next(iter(task_a.encoder.parameters())).data,
            next(iter(task_b.encoder.parameters())).data,
        )
