"""Utilities, the chemical-space extension, and autograd stress tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import Tensor, gradcheck
from repro.autograd import functional as F
from repro.datasets import SymmetryPointCloudDataset
from repro.utils import human_count, seed_everything, time_callable


class TestUtils:
    def test_seed_everything_reproducible(self):
        a = seed_everything(5).random(3)
        b = seed_everything(5).random(3)
        assert np.allclose(a, b)

    def test_spawn_rngs_independent(self):
        """Each sample draws from its own ``(seed, index)`` stream, so
        neighbouring samples are independent draws."""
        ds = SymmetryPointCloudDataset(4, seed=1, group_names=["C1"])
        draws = [ds[i].positions for i in range(4)]
        for i in range(4):
            for j in range(i + 1, 4):
                assert draws[i].shape != draws[j].shape or not np.allclose(draws[i], draws[j])

    def test_spawn_rngs_deterministic(self):
        """Sample ``i`` is a pure function of ``(seed, i)``: a fresh dataset
        with the same seed yields the same arrays."""
        a = SymmetryPointCloudDataset(3, seed=2)
        b = SymmetryPointCloudDataset(3, seed=2)
        assert np.array_equal(a[1].positions, b[1].positions)

    def test_moving_average(self, monkeypatch):
        """``time_callable`` summarizes its timed rounds by the median (mean
        of the middle two for an even count) or by the minimum."""
        import repro.utils

        def script(*durations):
            stamps = iter(np.cumsum([0.0, *durations]).repeat(2)[1:-1])
            monkeypatch.setattr(repro.utils.time, "perf_counter", lambda: next(stamps))

        script(5.0, 1.0, 3.0)
        assert time_callable(lambda: None, rounds=3, warmup=0) == 3.0
        script(5.0, 1.0, 3.0)
        assert time_callable(lambda: None, rounds=3, warmup=0, reduce="min") == 1.0
        script(4.0, 2.0, 6.0, 1.0)
        assert time_callable(lambda: None, rounds=4, warmup=0) == 3.0

    def test_human_count(self):
        assert human_count(2_000_000) == "2.0M"
        assert human_count(1_500) == "1.5k"
        assert human_count(3_200_000_000) == "3.2B"
        assert human_count(42) == "42"


class TestChemicalSpaceExtension:
    def test_explore_chemical_space_runs(self):
        """The Sec. 5.3 extension composes two workflows: the Fig. 4
        exploration run on an encoder trained by ``train_multitask``."""
        from repro.core import (
            EncoderConfig,
            MultiTaskConfig,
            OptimizerConfig,
            explore_datasets,
            train_multitask,
        )

        cfg = MultiTaskConfig(
            encoder=EncoderConfig(hidden_dim=12, num_layers=1, position_dim=6),
            optimizer=OptimizerConfig(base_lr=1e-3, warmup_epochs=2),
            mp_samples=24,
            carolina_samples=12,
            max_epochs=1,
            world_size=1,
            head_hidden_dim=12,
            head_blocks=1,
            seed=3,
        )
        encoder = train_multitask(cfg).task.encoder
        result = explore_datasets(encoder, samples_per_dataset=10, seed=3, umap_epochs=15)
        assert result.projection.shape == (50, 2)
        assert np.allclose(result.overlap.sum(axis=1), 1.0)


# --------------------------------------------------------------------------- #
# Autograd stress: random expression trees must gradcheck.
# --------------------------------------------------------------------------- #
# Bounded-growth ops only: chains of exp or sum-reductions compound into
# magnitudes where central differences lose all precision (those ops are
# gradchecked individually in test_autograd_functional).
_UNARY = [
    lambda t: F.silu(t),
    lambda t: F.tanh(t),
    lambda t: F.sigmoid(t),
    lambda t: t * 0.5 + 0.2,
    lambda t: F.softplus(t) * 0.5,
]
_BINARY = [
    lambda a, b: a + b,
    lambda a, b: a * b,
    lambda a, b: a - b * 0.5,
]


def _build_expression(ops: list, depth: int):
    """Compose a deterministic expression tree from an op-index list."""

    def fn(x: Tensor, y: Tensor) -> Tensor:
        vals = [x, y]
        for i, op_idx in enumerate(ops):
            if i % 2 == 0:
                vals[0] = _UNARY[op_idx % len(_UNARY)](vals[0])
            else:
                vals[1] = _BINARY[op_idx % len(_BINARY)](vals[0], vals[1])
        return (vals[0] * vals[1]).mean()

    return fn


class TestRandomExpressions:
    @given(
        ops=st.lists(st.integers(0, 20), min_size=2, max_size=8),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_expression_gradchecks(self, ops, seed):
        rng = np.random.default_rng(seed)
        fn = _build_expression(ops, len(ops))
        x = rng.uniform(-1.0, 1.0, size=(3, 4))
        y = rng.uniform(-1.0, 1.0, size=(3, 4))
        gradcheck(fn, [x, y], atol=1e-4, rtol=1e-3)

    @given(seed=st.integers(0, 50))
    @settings(max_examples=15, deadline=None)
    def test_deep_chain_matches_numeric(self, seed):
        rng = np.random.default_rng(seed)

        def fn(x: Tensor) -> Tensor:
            h = x
            for _ in range(10):
                h = F.tanh(h * 0.9 + 0.1)
            return (h * h).mean()

        gradcheck(fn, [rng.normal(size=(4,))])

    def test_very_deep_graph_no_recursion_error(self):
        # 3000-op chain: the iterative topological sort must handle it.
        x = Tensor(np.ones(4) * 0.01, requires_grad=True)
        h = x
        for _ in range(3000):
            h = h + x * 1e-4
        h.sum().backward()
        assert x.grad is not None
        assert np.all(np.isfinite(x.grad))
