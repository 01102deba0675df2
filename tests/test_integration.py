"""End-to-end integration: archive and state round-trips, resume,
cross-encoder task composition — the seams between subsystems."""

import numpy as np
import pytest

from repro.data import DataLoader, collate_graphs
from repro.data.transforms import StructureToGraph
from repro.datasets import MaterialsProjectSurrogate, SymmetryPointCloudDataset
from repro.models import EGNN, GeometricAttentionEncoder, SchNet
from repro.optim import AdamW
from repro.tasks import MultiClassClassificationTask, ScalarRegressionTask
from repro.training import Trainer, TrainerConfig, read_archive, write_archive


def make_task(rng, encoder_cls=EGNN, **enc_kwargs):
    defaults = dict(hidden_dim=10, num_species=8, rng=rng)
    defaults.update(enc_kwargs)
    enc = encoder_cls(**defaults)
    return MultiClassClassificationTask(
        enc, num_classes=3, hidden_dim=10, num_blocks=1, dropout=0.0, rng=rng
    )


def make_batch(rng):
    ds = SymmetryPointCloudDataset(6, seed=4, group_names=["C1", "C2", "C4"])
    tf = StructureToGraph(cutoff=2.5)
    return collate_graphs([tf(ds[i]) for i in range(6)])


class TestCheckpointIO:
    def test_module_roundtrip_via_disk(self, rng, tmp_path):
        task_a = make_task(rng)
        task_b = make_task(np.random.default_rng(999))
        batch = make_batch(rng)
        path = str(tmp_path / "task.npz")
        write_archive(path, task_a.state_dict())
        task_b.load_state_dict(read_archive(path))
        out_a = task_a.logits(batch).data
        out_b = task_b.logits(batch).data
        assert np.allclose(out_a, out_b)

    def test_optimizer_roundtrip_resumes_identically(self, rng):
        task = make_task(rng)
        batch = make_batch(rng)
        opt = AdamW(task.parameters(), lr=1e-3)
        for _ in range(3):
            opt.zero_grad()
            loss, _ = task.training_step(batch)
            loss.backward()
            opt.step()
        # Continue training in two universes: live vs restored from
        # ``state_dict()`` snapshots.
        task2 = make_task(np.random.default_rng(5))
        task2.load_state_dict(task.state_dict())
        opt2 = AdamW(task2.parameters(), lr=1e-3)
        opt2.load_state_dict(opt.state_dict())

        for t, o in ((task, opt), (task2, opt2)):
            o.zero_grad()
            loss, _ = t.training_step(batch)
            loss.backward()
            o.step()
        for (na, pa), (nb, pb) in zip(
            task.named_parameters(), task2.named_parameters()
        ):
            assert np.allclose(pa.data, pb.data, atol=1e-14), na

    def test_strict_load_catches_wrong_architecture(self, rng, tmp_path):
        task_a = make_task(rng)
        wrong = make_task(np.random.default_rng(1), num_layers=4)
        path = str(tmp_path / "task.npz")
        write_archive(path, task_a.state_dict())
        with pytest.raises(KeyError):
            wrong.load_state_dict(read_archive(path))


class TestCrossEncoderComposition:
    @pytest.mark.parametrize("encoder_cls", [EGNN, GeometricAttentionEncoder, SchNet])
    def test_every_encoder_drives_every_task_kind(self, rng, encoder_cls):
        """Any registered encoder slots into the task abstraction (Fig. 1)."""
        task = make_task(rng, encoder_cls=encoder_cls)
        batch = make_batch(rng)
        loss, _ = task.training_step(batch)
        loss.backward()
        assert np.isfinite(loss.item())
        # Regression variant too.
        enc = encoder_cls(hidden_dim=10, num_species=100, rng=rng)
        reg = ScalarRegressionTask(enc, "band_gap", hidden_dim=10, num_blocks=1, rng=rng)
        ds = MaterialsProjectSurrogate(4, seed=6)
        tf = StructureToGraph(cutoff=4.5)
        reg_batch = collate_graphs([tf(ds[i]) for i in range(4)])
        loss, _ = reg.training_step(reg_batch)
        assert np.isfinite(loss.item())


class TestResumeTraining:
    def test_split_run_matches_continuous_run(self, rng):
        """Two 1-epoch fits with a ``state_dict()`` hand-over in between ==
        one 2-epoch fit."""

        def build(seed):
            r = np.random.default_rng(seed)
            task = make_task(r)
            ds = SymmetryPointCloudDataset(
                12, seed=9, group_names=["C1", "C2", "C4"]
            ).materialize()
            tf = StructureToGraph(cutoff=2.5)

            def loader():
                return DataLoader(ds, batch_size=6, collate_fn=list, transform=tf)

            return task, loader

        # Continuous: 2 epochs.
        task_c, loader_c = build(42)
        opt_c = AdamW(task_c.parameters(), lr=1e-3)
        Trainer(TrainerConfig(max_epochs=2)).fit(task_c, loader_c(), None, opt_c)

        # Split: 1 epoch, snapshot, restore, 1 more epoch.
        task_s, loader_s = build(42)
        opt_s = AdamW(task_s.parameters(), lr=1e-3)
        Trainer(TrainerConfig(max_epochs=1)).fit(task_s, loader_s(), None, opt_s)

        task_r, loader_r = build(7)  # different init, will be overwritten
        opt_r = AdamW(task_r.parameters(), lr=1e-3)
        task_r.load_state_dict(task_s.state_dict())
        opt_r.load_state_dict(opt_s.state_dict())
        Trainer(TrainerConfig(max_epochs=1)).fit(task_r, loader_r(), None, opt_r)

        for (na, pa), (nb, pb) in zip(
            task_c.named_parameters(), task_r.named_parameters()
        ):
            assert np.allclose(pa.data, pb.data, atol=1e-12), na
