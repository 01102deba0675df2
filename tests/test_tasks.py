"""Tasks: objectives, metrics, normalization, and multi-task routing."""

import numpy as np
import pytest

from repro.data import collate_graphs
from repro.data.transforms import StructureToGraph
from repro.data.transforms.features import TargetNormalizer
from repro.data.structures import GraphSample
from repro.datasets import SymmetryPointCloudDataset
from repro.models import EGNN
from repro.tasks import (
    EnergyForceTask,
    MultiClassClassificationTask,
    MultiTaskModule,
    ScalarRegressionTask,
    TaskSpec,
)
from repro.tasks.base import finalize_val_results, merge_val_results


def make_samples(rng, n=6, dataset="materials_project", **target_fns):
    samples = []
    for i in range(n):
        k = int(rng.integers(3, 6))
        targets = {key: np.float64(fn(i)) for key, fn in target_fns.items()}
        samples.append(
            GraphSample(
                positions=rng.normal(size=(k, 3)),
                species=rng.integers(1, 5, size=k),
                edge_src=np.arange(k - 1),
                edge_dst=np.arange(1, k),
                targets=targets,
                metadata={"dataset": dataset},
            )
        )
    return samples


@pytest.fixture
def encoder(rng):
    return EGNN(hidden_dim=8, num_layers=1, position_dim=4, num_species=8, rng=rng)


class TestScalarRegression:
    def test_training_step_returns_scalar_loss(self, rng, encoder):
        task = ScalarRegressionTask(encoder, "y", hidden_dim=8, num_blocks=1, rng=rng)
        batch = collate_graphs(make_samples(rng, y=lambda i: float(i)))
        loss, metrics = task.training_step(batch)
        assert loss.size == 1
        assert "train_y_mae" in metrics

    def test_validation_metrics(self, rng, encoder):
        task = ScalarRegressionTask(encoder, "y", hidden_dim=8, num_blocks=1, rng=rng)
        batch = collate_graphs(make_samples(rng, y=lambda i: float(i)))
        result = task.validation_step(batch)
        assert "y_mae" in result and "y_mse" in result
        total, count = result["y_mae"]
        assert count == batch.num_graphs

    def test_normalizer_reports_physical_units(self, rng, encoder):
        samples = make_samples(rng, y=lambda i: 100.0 * i)
        norm = TargetNormalizer(["y"]).fit(samples)
        task = ScalarRegressionTask(
            encoder, "y", hidden_dim=8, num_blocks=1, normalizer=norm, rng=rng
        )
        batch = collate_graphs(samples)
        result = finalize_val_results(task.validation_step(batch))
        # Untrained model ~ 0 prediction in z-space; MAE in units is O(100).
        assert result["y_mae"] > 10.0

    def test_missing_target_raises(self, rng, encoder):
        task = ScalarRegressionTask(encoder, "zz", hidden_dim=8, num_blocks=1, rng=rng)
        batch = collate_graphs(make_samples(rng, y=lambda i: 1.0))
        with pytest.raises(KeyError):
            task.training_step(batch)

    def test_loss_choices(self, rng, encoder):
        for loss in ("mse", "l1", "huber"):
            ScalarRegressionTask(encoder, "y", loss=loss, hidden_dim=8, num_blocks=1, rng=rng)
        with pytest.raises(ValueError):
            ScalarRegressionTask(encoder, "y", loss="cosine", rng=rng)


class TestBinaryClassification:
    def test_steps(self, rng, encoder):
        """A binary (stability) target is a ``"binary"`` multi-task head."""
        task = MultiTaskModule(
            encoder, [TaskSpec("stable", "stable", "binary")],
            hidden_dim=8, num_blocks=1, rng=rng,
        )
        batch = collate_graphs(make_samples(rng, stable=lambda i: float(i % 2)))
        loss, metrics = task.training_step(batch)
        assert np.isfinite(loss.item())
        assert 0.0 <= metrics["train_stable_acc"] <= 1.0
        result = finalize_val_results(task.validation_step(batch))
        assert 0.0 <= result["stable_acc"] <= 1.0
        assert result["stable_bce"] > 0


class TestMultiClass:
    def test_ce_matches_uniform_at_init_scale(self, rng, encoder):
        task = MultiClassClassificationTask(
            encoder, num_classes=4, hidden_dim=8, num_blocks=1, rng=rng
        )
        batch = collate_graphs(
            make_samples(rng, point_group=lambda i: float(i % 4))
        )
        result = finalize_val_results(task.validation_step(batch))
        # Untrained logits are near zero -> CE near log(4).
        assert abs(result["ce"] - np.log(4)) < 1.0

    def test_label_range_validated(self, rng, encoder):
        task = MultiClassClassificationTask(
            encoder, num_classes=2, hidden_dim=8, num_blocks=1, rng=rng
        )
        batch = collate_graphs(make_samples(rng, point_group=lambda i: 5.0))
        with pytest.raises(ValueError):
            task.training_step(batch)

    def test_needs_two_classes(self, rng, encoder):
        with pytest.raises(ValueError):
            MultiClassClassificationTask(encoder, num_classes=1, rng=rng)


class TestEnergyForce:
    def test_joint_step(self, rng, encoder):
        samples = make_samples(rng, energy=lambda i: float(i))
        for s in samples:
            s.targets["forces"] = rng.normal(size=(s.num_nodes, 3))
        task = EnergyForceTask(encoder, hidden_dim=8, num_blocks=1, rng=rng)
        batch = collate_graphs(samples)
        loss, metrics = task.training_step(batch)
        assert np.isfinite(loss.item())
        result = finalize_val_results(task.validation_step(batch))
        assert "energy_mae" in result and "force_mae" in result

    def test_force_weight_validated(self, rng, encoder):
        with pytest.raises(ValueError):
            EnergyForceTask(encoder, force_weight=-1.0, rng=rng)


class TestMultiTask:
    def make_mixed_batch(self, rng):
        mp = make_samples(rng, n=4, dataset="materials_project",
                          band_gap=lambda i: float(i),
                          is_stable=lambda i: float(i % 2),
                          formation_energy=lambda i: 0.1 * i)
        cmd = make_samples(rng, n=3, dataset="carolina",
                           formation_energy=lambda i: -0.1 * i)
        return collate_graphs(mp + cmd)

    def make_task(self, rng, encoder):
        specs = [
            TaskSpec("gap", "band_gap", "regression", dataset="materials_project"),
            TaskSpec("stab", "is_stable", "binary", dataset="materials_project"),
            TaskSpec("mp_ef", "formation_energy", "regression", dataset="materials_project"),
            TaskSpec("cmd_ef", "formation_energy", "regression", dataset="carolina"),
        ]
        return MultiTaskModule(encoder, specs, hidden_dim=8, num_blocks=1, rng=rng)

    def test_routing_masks_by_dataset(self, rng, encoder):
        task = self.make_task(rng, encoder)
        batch = self.make_mixed_batch(rng)
        result = task.validation_step(batch)
        assert result["gap_mae"][1] == 4  # only MP samples
        assert result["cmd_ef_mae"][1] == 3  # only CMD samples
        assert result["mp_ef_mae"][1] == 4

    def test_training_step_combines_losses(self, rng, encoder):
        task = self.make_task(rng, encoder)
        loss, metrics = task.training_step(self.make_mixed_batch(rng))
        assert np.isfinite(loss.item())
        loss.backward()
        enc_grads = [p.grad is not None for p in task.encoder.parameters()]
        assert any(enc_grads)  # shared encoder receives gradient

    def test_nan_targets_are_masked(self, rng, encoder):
        task = self.make_task(rng, encoder)
        batch = self.make_mixed_batch(rng)
        # CMD samples have NaN for band_gap after collation.
        assert np.isnan(batch.targets["band_gap"][-1])
        loss, _ = task.training_step(batch)
        assert np.isfinite(loss.item())

    def test_batch_matching_no_spec_raises(self, rng, encoder):
        task = self.make_task(rng, encoder)
        other = collate_graphs(make_samples(rng, n=2, dataset="lips", energy=lambda i: 1.0))
        with pytest.raises(ValueError):
            task.training_step(other)

    def test_missing_dataset_metadata_raises(self, rng, encoder):
        task = self.make_task(rng, encoder)
        samples = make_samples(rng, n=2, band_gap=lambda i: 1.0)
        for s in samples:
            s.metadata = {}
        batch = collate_graphs(samples)
        with pytest.raises(ValueError):
            task.training_step(batch)

    def test_duplicate_spec_names_rejected(self, rng, encoder):
        specs = [
            TaskSpec("a", "x", "regression"),
            TaskSpec("a", "y", "regression"),
        ]
        with pytest.raises(ValueError):
            MultiTaskModule(encoder, specs, rng=rng)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TaskSpec("a", "x", "ranking")
        with pytest.raises(ValueError):
            TaskSpec("a", "x", "regression", weight=0.0)

    def test_head_per_spec(self, rng, encoder):
        task = self.make_task(rng, encoder)
        assert len(task.heads) == 4

    def test_encoder_transplant(self, rng, encoder):
        """The fine-tune hinge: ``load_encoder_state`` of another task's
        ``encoder_state()``, exactly as the fine-tune workflow calls it."""
        task_a = self.make_task(rng, encoder)
        enc_b = EGNN(hidden_dim=8, num_layers=1, position_dim=4, num_species=8,
                     rng=np.random.default_rng(99))
        task_b = self.make_task(np.random.default_rng(98), enc_b)
        task_b.load_encoder_state(task_a.encoder_state())
        for (na, pa), (nb, pb) in zip(
            task_a.encoder.named_parameters(), task_b.encoder.named_parameters()
        ):
            assert np.allclose(pa.data, pb.data), na

    def test_freeze_on_transfer(self, rng, encoder):
        """A transplanted encoder frozen with ``requires_grad_(False)`` (the
        linear-probe ablation) receives no gradient; its heads still train."""
        task_a = self.make_task(rng, encoder)
        enc_b = EGNN(hidden_dim=8, num_layers=1, position_dim=4, num_species=8,
                     rng=np.random.default_rng(99))
        task_b = self.make_task(np.random.default_rng(98), enc_b)
        task_b.load_encoder_state(task_a.encoder_state())
        task_b.encoder.requires_grad_(False)
        loss, _ = task_b.training_step(self.make_mixed_batch(rng))
        loss.backward()
        assert all(p.grad is None for p in task_b.encoder.parameters())
        assert any(p.grad is not None for p in task_b.heads.parameters())


class TestValResultHelpers:
    def test_merge_and_finalize(self):
        a = {"m": (10.0, 5)}
        b = {"m": (20.0, 5), "n": (3.0, 3)}
        merged = merge_val_results(a, b)
        final = finalize_val_results(merged)
        assert final["m"] == pytest.approx(3.0)
        assert final["n"] == pytest.approx(1.0)
