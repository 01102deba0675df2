"""Core workflows: each paper experiment runs end-to-end at tiny scale."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    EncoderConfig,
    FinetuneConfig,
    MultiTaskConfig,
    OptimizerConfig,
    PretrainConfig,
    cached_pretrained_encoder,
    explore_datasets,
    pretrain_symmetry,
    train_multitask,
    train_property,
)
from repro.core.pipeline import (
    build_encoder_from_config,
    make_train_loader,
    transform_once,
)
from repro.core import workflows
from repro.core.workflows import TABLE1_METRICS, TABLE1_SPECS, transfer_pretrain_recipe
from repro.data.transforms import StructureToGraph
from repro.datasets import MaterialsProjectSurrogate
from repro.training import CheckpointIntegrityError

TINY_ENCODER = dict(hidden_dim=16, num_layers=1, position_dim=6)
GROUPS = ["C1", "C2", "C4", "D2"]


def tiny_pretrain_config(**overrides):
    cfg = PretrainConfig(
        encoder=EncoderConfig(**TINY_ENCODER),
        optimizer=OptimizerConfig(base_lr=1e-3, warmup_epochs=2),
        group_names=GROUPS,
        train_samples=32,
        val_samples=16,
        world_size=4,
        batch_per_worker=2,
        max_epochs=2,
        head_hidden_dim=16,
        head_blocks=1,
        seed=3,
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


class TestPretrainWorkflow:
    def test_runs_and_reports(self):
        res = pretrain_symmetry(tiny_pretrain_config())
        assert res.history.last("val", "ce") > 0
        assert res.throughput.samples_per_second > 0
        assert len(res.lr_trace) == 2

    def test_lr_scaled_by_world_size(self):
        res = pretrain_symmetry(tiny_pretrain_config())
        # warmup_epochs=2: after 2 epochs lr should be at peak = base * world.
        peak = max(lr for _, lr in res.lr_trace)
        assert peak == pytest.approx(1e-3 * 4, rel=0.3)

    def test_world_size_one_uses_single_process(self):
        res = pretrain_symmetry(tiny_pretrain_config(world_size=1, batch_per_worker=8))
        assert res.history.last("val", "ce") is not None

    def test_effective_batch(self):
        assert tiny_pretrain_config().effective_batch == 8

    def test_step_limited_run(self):
        res = pretrain_symmetry(
            tiny_pretrain_config(max_steps=3, max_epochs=100, val_every_n_steps=1)
        )
        steps, _ = res.history.series("val", "ce")
        assert steps == [1, 2, 3]


class TestCachedEncoder:
    def test_cache_roundtrip(self, tmp_path):
        cfg = tiny_pretrain_config()
        state1 = cached_pretrained_encoder(cfg, cache_dir=str(tmp_path))
        state2 = cached_pretrained_encoder(cfg, cache_dir=str(tmp_path))  # from disk
        assert len(list(tmp_path.glob("pretrained_*.npz"))) == 1
        assert set(state1) == set(state2)
        for k in state1:
            assert np.array_equal(state1[k], state2[k])

    def test_state_loads_into_fresh_encoder(self, tmp_path):
        cfg = tiny_pretrain_config()
        state = cached_pretrained_encoder(cfg, cache_dir=str(tmp_path))
        enc = build_encoder_from_config(cfg.encoder, rng=np.random.default_rng(0))
        enc.load_state_dict(state)


@pytest.fixture
def stub_pretrain(monkeypatch):
    """Replace the pretraining run behind the cache; returns its calls."""
    calls = []
    state = {"w": np.linspace(0.0, 1.0, 64).reshape(8, 8), "b": np.arange(8.0)}

    def fake(config):
        calls.append(config)
        return SimpleNamespace(task=SimpleNamespace(encoder_state=lambda: dict(state)))

    monkeypatch.setattr(workflows, "pretrain_symmetry", fake)
    return calls


def _leaves(tree, prefix=()):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + (key,))
        else:
            yield prefix + (key,)


def _other(value):
    """A different value of the same leaf (only hashed, never trained)."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2 + 1
    if isinstance(value, str):
        return value + "_other"
    if isinstance(value, tuple):
        return tuple(v + 1 for v in value)
    assert value is None, value
    return 1


@pytest.mark.parametrize(
    "leaf",
    list(_leaves(dataclasses.asdict(transfer_pretrain_recipe()))),
    ids=".".join,
)
def test_every_recipe_field_keys_the_encoder_cache(leaf, tmp_path, stub_pretrain):
    """Changing any one field of the recipe names a new cache file and
    retrains, instead of returning the encoder of the old recipe."""
    changed = transfer_pretrain_recipe()
    owner = changed
    for key in leaf[:-1]:
        owner = getattr(owner, key)
    setattr(owner, leaf[-1], _other(getattr(owner, leaf[-1])))
    cached_pretrained_encoder(transfer_pretrain_recipe(), cache_dir=str(tmp_path))
    cached_pretrained_encoder(changed, cache_dir=str(tmp_path))
    assert len(stub_pretrain) == 2
    assert len(list(tmp_path.glob("pretrained_*.npz"))) == 2


@pytest.mark.parametrize("damage", ["truncated", "flipped"])
def test_corrupt_encoder_cache_raises_naming_the_file(damage, tmp_path, stub_pretrain):
    """A damaged cache file is refused loudly, and never retrained over."""
    cfg = transfer_pretrain_recipe()
    cached_pretrained_encoder(cfg, cache_dir=str(tmp_path))
    (path,) = tmp_path.glob("pretrained_*.npz")
    blob = bytearray(path.read_bytes())
    if damage == "truncated":
        blob = blob[: len(blob) // 2]
    else:
        blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointIntegrityError, match=path.name):
        cached_pretrained_encoder(cfg, cache_dir=str(tmp_path))
    assert len(stub_pretrain) == 1
    assert path.read_bytes() == bytes(blob)


@pytest.mark.parametrize("value", [0, -1])
@pytest.mark.parametrize("field", ["hidden_dim", "num_layers", "position_dim", "num_species"])
def test_encoder_config_refuses_sizes_that_cannot_build(field, value):
    with pytest.raises(ValueError, match=rf"^EncoderConfig\.{field} must be >= 1, got {value}$"):
        EncoderConfig(**{field: value})


def tiny_finetune_config(**overrides):
    cfg = FinetuneConfig(
        encoder=EncoderConfig(**TINY_ENCODER),
        optimizer=OptimizerConfig(base_lr=1e-3, warmup_epochs=2),
        train_samples=24,
        val_samples=8,
        batch_size=8,
        max_epochs=2,
        head_hidden_dim=16,
        head_blocks=1,
        seed=5,
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


class TestBandGapWorkflow:
    def test_scratch_run(self):
        res = train_property(tiny_finetune_config())
        assert len(res.curve_mae) == 2
        assert all(np.isfinite(v) for v in res.curve_mae)
        assert res.final_mae == res.curve_mae[-1]
        assert res.best_mae <= res.final_mae + 1e-12

    def test_pretrained_arm_uses_smaller_lr(self, tmp_path):
        state = cached_pretrained_encoder(tiny_pretrain_config(), cache_dir=str(tmp_path))
        res = train_property(tiny_finetune_config(), pretrained_state=state)
        assert np.isfinite(res.final_mae)

    def test_mae_at_fraction(self):
        res = train_property(tiny_finetune_config())
        assert res.mae_at_fraction(0.0) == res.curve_mae[0]
        assert res.mae_at_fraction(1.0) == res.curve_mae[-1]


def tiny_multitask_config(**overrides):
    cfg = MultiTaskConfig(
        encoder=EncoderConfig(**TINY_ENCODER),
        optimizer=OptimizerConfig(base_lr=1e-3, warmup_epochs=2),
        mp_samples=24,
        carolina_samples=12,
        batch_size=8,
        max_epochs=2,
        head_hidden_dim=16,
        head_blocks=2,
        seed=9,
    )
    for k, v in overrides.items():
        setattr(cfg, k, v)
    return cfg


class TestMultiTaskWorkflow:
    def test_reports_all_table1_metrics(self):
        res = train_multitask(tiny_multitask_config())
        for key in TABLE1_METRICS:
            assert key in res.final_metrics, key
            assert np.isfinite(res.final_metrics[key])

    def test_table_row_order(self):
        """``final_metrics`` holds the last validation value of each
        Table-1 column, plus the stability accuracy."""
        res = train_multitask(tiny_multitask_config())
        assert list(res.final_metrics) == TABLE1_METRICS + ["stability_acc"]
        for key, value in res.final_metrics.items():
            assert value == res.history.last("val", key)

    def test_specs_match_paper_columns(self):
        names = [s.name for s in TABLE1_SPECS]
        assert names == ["band_gap", "fermi", "mp_eform", "stability", "cmd_eform"]
        datasets = {s.dataset for s in TABLE1_SPECS}
        assert datasets == {"materials_project", "carolina"}


class TestTransformOncePerRun:
    """Identity: pre-transformed == per-epoch transformed, at 1/epochs the calls."""

    @pytest.fixture
    def transformed(self, monkeypatch):
        seen = []
        original = StructureToGraph.__call__

        def counted(self, structure):
            seen.append(structure)
            return original(self, structure)

        monkeypatch.setattr(StructureToGraph, "__call__", counted)
        return seen

    def test_pretrain_transforms_each_cloud_once(self, transformed):
        cfg = tiny_pretrain_config()
        assert cfg.max_epochs > 1
        pretrain_symmetry(cfg)
        assert len(transformed) == cfg.train_samples + cfg.val_samples
        assert len({id(s) for s in transformed}) == len(transformed)

    def test_finetune_transforms_each_crystal_once(self, transformed):
        cfg = tiny_finetune_config()
        assert cfg.max_epochs > 1
        train_property(cfg)
        assert len(transformed) == cfg.train_samples + cfg.val_samples
        assert len({id(s) for s in transformed}) == len(transformed)

    def test_multitask_transforms_each_crystal_once(self, transformed):
        cfg = tiny_multitask_config()
        train_multitask(cfg)
        assert len(transformed) == cfg.mp_samples + cfg.carolina_samples

    def test_pretransformed_batches_equal_per_draw_batches(self):
        crystals = MaterialsProjectSurrogate(12, seed=4).materialize()
        transform = StructureToGraph(cutoff=4.5)
        per_draw = make_train_loader(crystals, 4, transform, seed=1)
        once = make_train_loader(transform_once(crystals, transform), 4, seed=1)
        for _ in range(2):  # the shared samples survive an epoch unchanged
            for expected, batch in zip(per_draw, once, strict=True):
                for a, b in zip(expected, batch, strict=True):
                    assert a.positions.tobytes() == b.positions.tobytes()
                    assert np.array_equal(a.species, b.species)
                    assert np.array_equal(a.edge_src, b.edge_src)
                    assert np.array_equal(a.edge_dst, b.edge_dst)
                    assert a.targets == b.targets and a.metadata == b.metadata


class TestExplorationWorkflow:
    def test_full_exploration(self, rng):
        enc = build_encoder_from_config(
            EncoderConfig(**TINY_ENCODER), rng=rng
        )
        res = explore_datasets(enc, samples_per_dataset=12, umap_epochs=20)
        assert res.names == ["oc20", "oc22", "materials_project", "carolina", "lips"]
        assert res.projection.shape == (60, 2)
        assert res.overlap.shape == (5, 5)
        assert np.allclose(res.overlap.sum(axis=1), 1.0)
        sil = res.by_name(res.silhouettes)
        assert set(sil) == set(res.names)
