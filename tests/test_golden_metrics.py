"""Golden-metrics regression: tiny fixed-seed end-to-end runs.

Two miniature but complete workflows — symmetry pretraining and band-gap
finetuning — are pinned to exact final metric values.  Everything in the
stack feeds these numbers: dataset synthesis, graph construction,
collation, the EGNN forward, every backward rule, DDP sharding and
allreduce, optimizer math, and the LR schedule.  Any silent numerical
change anywhere shows up here as a mismatch at 1e-9, long before it is
visible in accuracy plots.

The goldens were captured by running the exact configs below once and
recording the results to full float64 precision.  If a change is *meant*
to alter numerics (e.g. a different reduction order), re-capture and
update the constants in the same commit, and say why in the message.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import detect_anomaly
from repro.core import (
    EncoderConfig,
    FinetuneConfig,
    OptimizerConfig,
    PretrainConfig,
    pretrain_symmetry,
    train_property,
)
from repro.observability import OpProfiler

TOL = 1e-9

# Captured from the configs below (numpy float64, single machine):
GOLDEN_PRETRAIN_VAL_CE = 1.3071403023419523
GOLDEN_PRETRAIN_VAL_ACC = 0.3125
GOLDEN_PRETRAIN_TRAIN_LOSS = 1.3207445424273769
GOLDEN_FINETUNE_FINAL_MAE = 1.2795972489148004
GOLDEN_FINETUNE_BEST_MAE = 1.2795972489148004

# Train -> checkpoint -> registry -> serve round trip (serving demo, seed 13,
# query structures seed 99).  Pinned in physical units after denormalization;
# the demo shares the finetune config above, so its training MAE must land on
# GOLDEN_FINETUNE_FINAL_MAE exactly.
GOLDEN_SERVING_PREDICTIONS = [
    1.5465144734267675,
    0.9309743232751978,
    2.3848497067710897,
    1.2150353362748516,
]


def _pretrain_config() -> PretrainConfig:
    return PretrainConfig(
        encoder=EncoderConfig(hidden_dim=16, num_layers=2, position_dim=4),
        optimizer=OptimizerConfig(base_lr=2e-3, warmup_epochs=1, gamma=0.9),
        group_names=["C1", "C2", "C4", "D2"],
        train_samples=32,
        val_samples=16,
        world_size=2,
        batch_per_worker=4,
        max_epochs=3,
        head_hidden_dim=16,
        head_blocks=1,
        seed=21,
    )


def _finetune_config() -> FinetuneConfig:
    return FinetuneConfig(
        encoder=EncoderConfig(hidden_dim=16, num_layers=2, position_dim=4),
        optimizer=OptimizerConfig(base_lr=1e-3, warmup_epochs=1, gamma=0.9),
        train_samples=48,
        val_samples=16,
        batch_size=8,
        max_epochs=3,
        world_size=1,
        head_hidden_dim=16,
        head_blocks=1,
        seed=13,
    )


class TestGoldenPretrain:
    @pytest.fixture(scope="class")
    def result(self):
        return pretrain_symmetry(_pretrain_config())

    def test_final_val_cross_entropy(self, result):
        ce = result.history.last("val", "ce")
        assert ce == pytest.approx(GOLDEN_PRETRAIN_VAL_CE, abs=TOL)

    def test_final_val_accuracy(self, result):
        acc = result.history.last("val", "acc")
        assert acc == pytest.approx(GOLDEN_PRETRAIN_VAL_ACC, abs=TOL)

    def test_final_train_loss(self, result):
        loss = result.history.last("train", "loss")
        assert loss == pytest.approx(GOLDEN_PRETRAIN_TRAIN_LOSS, abs=TOL)


class TestGoldenPretrainZero:
    """The ``trace_out`` branch must reproduce the *plain* goldens exactly.

    Writing a Chrome trace attaches the observer's spans (without the op
    profiler) to the trainer, the strategy and its communicator; spans only
    read, so the run is pinned to the plain constants.  (The class keeps the
    name of the deleted ZeRO sharding variant these ids used to pin.)
    """

    @pytest.fixture(scope="class")
    def result(self, tmp_path_factory):
        config = _pretrain_config()
        config.trace_out = str(tmp_path_factory.mktemp("trace") / "trace.json")
        result = pretrain_symmetry(config)
        assert result.observer is not None and result.observer.op_profiler is None
        return result

    def test_final_val_cross_entropy(self, result):
        ce = result.history.last("val", "ce")
        assert ce == pytest.approx(GOLDEN_PRETRAIN_VAL_CE, abs=TOL)

    def test_final_val_accuracy(self, result):
        acc = result.history.last("val", "acc")
        assert acc == pytest.approx(GOLDEN_PRETRAIN_VAL_ACC, abs=TOL)

    def test_final_train_loss(self, result):
        loss = result.history.last("train", "loss")
        assert loss == pytest.approx(GOLDEN_PRETRAIN_TRAIN_LOSS, abs=TOL)


class TestGoldenPretrainAssemblyBranches:
    """Every guard/observer branch ``pretrain_symmetry`` assembles from
    one code path lands on the *plain* goldens.

    ``detect_anomaly`` alone scans every tape value without changing one;
    a healthy run under the loss-spike guard never intervenes, with or
    without the profiling observer attached.  (The ``explicit_allreduce``
    and ``guard_rollback`` ids are kept from deleted branches; they now
    name the anomaly-scanned and the guarded, profiled branches.)
    """

    @pytest.fixture(
        scope="class",
        params=[
            {"detect_anomaly": True},
            {"stability_guard": True},
            {"stability_guard": True, "profile": True},
        ],
        ids=["explicit_allreduce", "guard_lr_backoff", "guard_rollback"],
    )
    def result(self, request):
        config = _pretrain_config()
        for key, value in request.param.items():
            setattr(config, key, value)
        return pretrain_symmetry(config)

    def test_final_val_cross_entropy(self, result):
        ce = result.history.last("val", "ce")
        assert ce == pytest.approx(GOLDEN_PRETRAIN_VAL_CE, abs=TOL)

    def test_final_val_accuracy(self, result):
        acc = result.history.last("val", "acc")
        assert acc == pytest.approx(GOLDEN_PRETRAIN_VAL_ACC, abs=TOL)

    def test_final_train_loss(self, result):
        loss = result.history.last("train", "loss")
        assert loss == pytest.approx(GOLDEN_PRETRAIN_TRAIN_LOSS, abs=TOL)

    def test_guard_never_intervened(self, result):
        # A healthy run records nothing: no spike, no LR change.
        assert result.events is None or len(result.events) == 0
        if result.guard is not None:
            assert result.guard.summary()["interventions"] == 0

    def test_recovery_points_only_where_provisioned(self, result):
        # An event log exists only where the guard is attached.
        provisioned = result.config.stability_guard
        assert (result.events is not None) == provisioned
        assert (result.guard is not None) == provisioned

    @pytest.mark.parametrize("encoder", ["egnn", "megnet"])
    def test_every_reduction_path_leaves_plain_parameters(self, encoder):
        """Plain and observed (``profile`` + ``detect_anomaly``) runs at
        world 4 finish with the same bits in every parameter — including
        the ones no rank ever touches, which must stay undecayed on both."""
        finals = {}
        for label, overrides in (
            ("plain", {}),
            ("observed", {"profile": True, "detect_anomaly": True}),
        ):
            config = _pretrain_config()
            config.encoder = EncoderConfig(
                name=encoder, hidden_dim=16, num_layers=2, position_dim=4
            )
            config.world_size = 4
            for key, value in overrides.items():
                setattr(config, key, value)
            task = pretrain_symmetry(config).task
            finals[label] = [(n, p.data.copy()) for n, p in task.named_parameters()]
        plain = finals.pop("plain")
        for label, params in finals.items():
            differ = [n for (n, a), (_, b) in zip(plain, params) if not np.array_equal(a, b)]
            assert not differ, f"{label}: {len(differ)} tensors differ: {differ[:4]}"


def _profiled_ops(profiler, phase: str):
    return {s.name: s for s in profiler.summary(phase) if s.calls or s.allocs}


class TestGoldenPretrainCompiled:
    """The observed run must reproduce the *plain* goldens exactly.

    With ``profile`` and ``detect_anomaly`` on, every tape node goes
    through the hooked branch of ``Tensor._make`` (tagged, metered,
    scanned) and every backward hop is timed and scanned.  Observers only
    read, so the run is pinned to the same constants as the plain run —
    not to separately captured values.  (The class keeps the name of the
    tape-compiler variant it replaced; DESIGN.md §14.)
    """

    @pytest.fixture(scope="class")
    def result(self):
        config = _pretrain_config()
        config.profile = True
        config.detect_anomaly = True
        return pretrain_symmetry(config)

    def test_final_val_cross_entropy(self, result):
        ce = result.history.last("val", "ce")
        assert ce == pytest.approx(GOLDEN_PRETRAIN_VAL_CE, abs=TOL)

    def test_final_val_accuracy(self, result):
        acc = result.history.last("val", "acc")
        assert acc == pytest.approx(GOLDEN_PRETRAIN_VAL_ACC, abs=TOL)

    def test_final_train_loss(self, result):
        loss = result.history.last("train", "loss")
        assert loss == pytest.approx(GOLDEN_PRETRAIN_TRAIN_LOSS, abs=TOL)

    def test_compiler_actually_engaged(self, result):
        """The observers were really on: the profiler metered forward
        nodes and timed backward hops."""
        profiler = result.observer.op_profiler
        assert profiler is not None
        forward = _profiled_ops(profiler, "forward")
        assert sum(s.allocs for s in forward.values()) > 0, forward
        assert _profiled_ops(profiler, "backward"), profiler.format_table()


class TestGoldenFinetuneCompiled:
    """Observed fine-tuning is pinned to the same plain goldens (see above)."""

    @pytest.fixture(scope="class")
    def result(self):
        with OpProfiler(), detect_anomaly():
            return train_property(_finetune_config())

    def test_final_mae(self, result):
        assert result.final_mae == pytest.approx(GOLDEN_FINETUNE_FINAL_MAE, abs=TOL)

    def test_best_mae(self, result):
        assert result.best_mae == pytest.approx(GOLDEN_FINETUNE_BEST_MAE, abs=TOL)


class TestGoldenFinetune:
    @pytest.fixture(scope="class")
    def result(self):
        return train_property(_finetune_config())

    def test_final_mae(self, result):
        assert result.final_mae == pytest.approx(GOLDEN_FINETUNE_FINAL_MAE, abs=TOL)

    def test_best_mae(self, result):
        assert result.best_mae == pytest.approx(GOLDEN_FINETUNE_BEST_MAE, abs=TOL)

    def test_best_no_worse_than_final(self, result):
        # Internal consistency of the golden pair, independent of exact values.
        assert result.best_mae <= result.final_mae + TOL


@pytest.mark.serve
class TestGoldenServing:
    """Fixed-seed train -> checkpoint -> registry -> serve round trip.

    Extends the golden guarantee across the serialization boundary: the
    archived weights, the CRC check, the spec-driven model rebuild, the
    normalizer round trip, and the batch-invariant serving forward all sit
    between training and these constants.  The demo reuses the finetune
    config above, so its training MAE is additionally pinned to the same
    golden — proving the serving path added no training-side drift.
    """

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        from repro.serving import ModelRegistry
        from repro.serving.demo import (
            DEMO_MODEL_NAME,
            demo_request_samples,
            fit_demo_servable,
        )

        root = str(tmp_path_factory.mktemp("registry"))
        _, final_mae = fit_demo_servable(root, seed=13)
        servable = ModelRegistry(root).load(DEMO_MODEL_NAME)
        samples = demo_request_samples(4, seed=99)
        return final_mae, servable, samples

    def test_training_side_unchanged(self, served):
        final_mae, _, _ = served
        assert final_mae == pytest.approx(GOLDEN_FINETUNE_FINAL_MAE, abs=TOL)

    def test_round_trip_predictions(self, served):
        _, servable, samples = served
        preds = servable.predict(samples)
        assert list(preds) == pytest.approx(GOLDEN_SERVING_PREDICTIONS, abs=TOL)

    def test_round_trip_is_batch_invariant(self, served):
        _, servable, samples = served
        batched = servable.predict(samples)
        singles = [servable.predict_one(s) for s in samples]
        assert list(batched) == singles  # bit-exact, not approx


# MEGNet goldens: the same tiny pretrain/finetune geometry as above but
# through the fourth encoder family — the global-state stream, every MEGNet
# block update, lstm_cell, and the Set2Set readout all feed these numbers.
GOLDEN_MEGNET_PRETRAIN_VAL_CE = 1.4113584214581039
GOLDEN_MEGNET_PRETRAIN_VAL_ACC = 0.125
GOLDEN_MEGNET_PRETRAIN_TRAIN_LOSS = 1.5139880900931555
GOLDEN_MEGNET_FINETUNE_FINAL_MAE = 0.8779672699687657
GOLDEN_MEGNET_FINETUNE_BEST_MAE = 0.8779672699687657


def _megnet_pretrain_config() -> PretrainConfig:
    config = _pretrain_config()
    config.encoder = EncoderConfig(
        name="megnet", hidden_dim=16, num_layers=2, position_dim=4
    )
    return config


def _megnet_finetune_config() -> FinetuneConfig:
    config = _finetune_config()
    config.encoder = EncoderConfig(
        name="megnet", hidden_dim=16, num_layers=2, position_dim=4
    )
    return config


@pytest.mark.megnet
class TestGoldenMEGNetPretrain:
    @pytest.fixture(scope="class")
    def result(self):
        return pretrain_symmetry(_megnet_pretrain_config())

    def test_final_val_cross_entropy(self, result):
        ce = result.history.last("val", "ce")
        assert ce == pytest.approx(GOLDEN_MEGNET_PRETRAIN_VAL_CE, abs=TOL)

    def test_final_val_accuracy(self, result):
        acc = result.history.last("val", "acc")
        assert acc == pytest.approx(GOLDEN_MEGNET_PRETRAIN_VAL_ACC, abs=TOL)

    def test_final_train_loss(self, result):
        loss = result.history.last("train", "loss")
        assert loss == pytest.approx(GOLDEN_MEGNET_PRETRAIN_TRAIN_LOSS, abs=TOL)


@pytest.mark.megnet
class TestGoldenMEGNetFinetune:
    @pytest.fixture(scope="class")
    def result(self):
        return train_property(_megnet_finetune_config())

    def test_final_mae(self, result):
        assert result.final_mae == pytest.approx(
            GOLDEN_MEGNET_FINETUNE_FINAL_MAE, abs=TOL
        )

    def test_best_mae(self, result):
        assert result.best_mae == pytest.approx(
            GOLDEN_MEGNET_FINETUNE_BEST_MAE, abs=TOL
        )


@pytest.mark.megnet
class TestGoldenMEGNetPretrainCompiled:
    """Observed MEGNet pretraining is pinned to the plain MEGNet goldens.

    Set2Set's attention (``segment_softmax``) and its ``lstm_cell`` query
    are the ops no other encoder family puts on the tape; the profile must
    show both went through the observed path.
    """

    @pytest.fixture(scope="class")
    def result(self):
        config = _megnet_pretrain_config()
        config.profile = True
        config.detect_anomaly = True
        return pretrain_symmetry(config)

    def test_final_val_cross_entropy(self, result):
        ce = result.history.last("val", "ce")
        assert ce == pytest.approx(GOLDEN_MEGNET_PRETRAIN_VAL_CE, abs=TOL)

    def test_final_train_loss(self, result):
        loss = result.history.last("train", "loss")
        assert loss == pytest.approx(GOLDEN_MEGNET_PRETRAIN_TRAIN_LOSS, abs=TOL)

    def test_taint_fallback_counted(self, result):
        profiler = result.observer.op_profiler
        forward = _profiled_ops(profiler, "forward")
        backward = _profiled_ops(profiler, "backward")
        assert forward["segment_softmax"].calls > 0, profiler.format_table()
        assert forward["lstm_cell"].allocs > 0, profiler.format_table()
        assert backward["lstm_cell"].calls > 0, profiler.format_table()


# Train -> save -> load -> screen: candidate identities pinned exactly,
# scores at 1e-9.  Captured from the config in TestGoldenScreening below
# (demo servable seed 13, screen seed 7, 24 candidates over an 8-crystal
# parent pool).
GOLDEN_SCREEN_TOPK = [
    (-0.4277567938644258, "a86591efcd0d2ed5", 12),
    (-0.4143879273661373, "2bfc0f71acd478a6", 3),
    (-0.2046561069852586, "6fec78df29b60810", 17),
    (-0.19365257003874614, "5a2b33938af14dc3", 11),
]


@pytest.mark.screen
class TestGoldenScreening:
    """Fixed-seed train -> registry -> screen pipeline, pinned end to end.

    Everything between the optimizer and the ranked report sits under
    these constants: the demo training run, the checkpoint round trip,
    candidate synthesis (parent draw, swaps, strain), graph preparation,
    the batch-invariant forward, and the streaming top-k order.  The
    candidate *identities* (fingerprint, index) must match exactly; the
    scores at 1e-9.
    """

    @pytest.fixture(scope="class")
    def screened(self, tmp_path_factory):
        from repro.screening import ScreenConfig, run_screening
        from repro.serving import ModelRegistry
        from repro.serving.demo import DEMO_MODEL_NAME, fit_demo_servable

        root = str(tmp_path_factory.mktemp("registry"))
        _, final_mae = fit_demo_servable(root, seed=13)
        servable = ModelRegistry(root).load(DEMO_MODEL_NAME)
        config = ScreenConfig(
            n_candidates=24, top_k=4, batch_size=8, seed=7, base_samples=8
        )
        return final_mae, run_screening(servable, config)

    def test_training_side_unchanged(self, screened):
        final_mae, _ = screened
        assert final_mae == pytest.approx(GOLDEN_FINETUNE_FINAL_MAE, abs=TOL)

    def test_topk_identities_pinned(self, screened):
        _, result = screened
        got = [(e.fingerprint, e.index) for e in result.ranked]
        assert got == [(fp, i) for _, fp, i in GOLDEN_SCREEN_TOPK]

    def test_topk_scores_pinned(self, screened):
        _, result = screened
        scores = [e.score for e in result.ranked]
        assert scores == pytest.approx(
            [s for s, _, _ in GOLDEN_SCREEN_TOPK], abs=TOL
        )

    def test_stream_accounting(self, screened):
        _, result = screened
        assert result.candidates == 24
        assert result.batches == 3
        assert len(result.ranked) == 4
