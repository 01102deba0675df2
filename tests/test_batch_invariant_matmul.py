"""The batch-invariant matmul: the tiled property, its loud fallback.

``stable_matmul`` inside ``batch_invariant_kernels`` cuts every product
that has a row axis into fixed-shape ``M0``-row GEMM tiles (DESIGN.md
§12).  The property that makes that a serving contract — a row's bits
depend on that row alone — is pinned here with ``np.array_equal`` over
slices, permutations, padding and memory layouts; the self-test's failure
path is driven by a fake BLAS whose rows *do* depend on tile position.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import (
    Tensor,
    batch_invariant_kernels,
    batch_invariant_matmul_mode,
    no_grad,
)
from repro.observability import MetricsRegistry
from repro.serving import matmul_mode_line

from tests.test_serving_determinism import ENCODERS, build_servable, graph_samples

# ``repro.autograd.tensor`` the attribute is the factory function.
tensor_core = importlib.import_module("repro.autograd.tensor")
stable_matmul = tensor_core.stable_matmul
M0 = tensor_core.M0


def invariant(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    with batch_invariant_kernels():
        return stable_matmul(a, b)


def operands(m: int, k: int, n: int, seed: int):
    rng = np.random.default_rng(seed)
    # Row scales over several orders of magnitude: a reduction-order change
    # then lands in the low bits instead of cancelling.
    a = rng.standard_normal((m, k)) * np.exp(rng.standard_normal((m, 1)) * 3.0)
    return a, rng.standard_normal((k, n))


# --------------------------------------------------------------------------- #
# The property
# --------------------------------------------------------------------------- #
@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 600),
    k=st.integers(1, 96),
    n=st.integers(1, 96),
    seed=st.integers(0, 2**16),
    data=st.data(),
)
def test_rows_do_not_depend_on_the_batch(m, k, n, seed, data):
    a, b = operands(m, k, n, seed)
    full = invariant(a, b)
    assert batch_invariant_matmul_mode() == f"tiled(M0={M0})"
    assert full.shape == (m, n)
    # Same values as BLAS to rounding; the bits are allowed to differ.
    np.testing.assert_allclose(full, np.matmul(a, b), rtol=1e-12, atol=1e-12 * np.abs(full).max())

    start = data.draw(st.integers(0, m - 1), label="slice start")
    stop = data.draw(st.integers(start + 1, m), label="slice stop")
    assert np.array_equal(invariant(a[start:stop], b), full[start:stop])

    row = data.draw(st.integers(0, m - 1), label="row alone")
    assert np.array_equal(invariant(a[row : row + 1], b)[0], full[row])

    perm = np.random.default_rng(seed + 1).permutation(m)
    assert np.array_equal(invariant(a[perm], b), full[perm])

    pad = data.draw(st.integers(1, 2 * M0), label="zero rows appended")
    padded = np.concatenate([a, np.zeros((pad, k))])
    assert np.array_equal(invariant(padded, b)[:m], full)

    assert np.array_equal(invariant(np.asfortranarray(a), b), full)
    strided = np.repeat(a, 2, axis=0)[::2]  # non-contiguous whenever m, k > 1
    assert np.array_equal(invariant(strided, b), full)
    # The right operand's layout is normalized too, so ``x @ w.T`` style
    # views cannot reach a BLAS path the self-test never saw.
    assert np.array_equal(invariant(a, np.asfortranarray(b)), full)


@pytest.mark.parametrize("k", [32, 76, 96])
def test_matrix_vector_row_alone_equals_row_in_batch(k):
    """``(m, k) @ (k,)`` used to escape to gemv, whose row bits follow ``m``."""
    a, b = operands(474, k, 1, seed=k)
    v = b[:, 0]
    full = invariant(a, v)
    assert full.shape == (474,)
    assert np.array_equal(full, invariant(a, b)[:, 0])
    for i in range(474):
        assert invariant(a[i : i + 1], v)[0] == full[i]
    with no_grad(), batch_invariant_kernels():
        assert np.array_equal((Tensor(a) @ Tensor(v)).data, full)


def test_stacked_left_operand_with_vector_keeps_its_shape():
    rng = np.random.default_rng(0)
    a, v = rng.standard_normal((3, 5, 7)), rng.standard_normal(7)
    out = invariant(a, v)
    assert out.shape == (3, 5)
    # Stacked operands reduce through einsum, whose rows are stable on their
    # own terms (not bit-equal to the 2-D tiles).
    assert out[1, 2] == invariant(a[1:2, 2:3], v)[0, 0]


def test_empty_operands():
    assert invariant(np.zeros((0, 4)), np.ones((4, 3))).shape == (0, 3)
    assert np.array_equal(invariant(np.ones((5, 0)), np.ones((0, 3))), np.zeros((5, 3)))


def test_operands_without_a_row_axis_stay_plain_matmul():
    rng = np.random.default_rng(1)
    v, w, b = rng.standard_normal(9), rng.standard_normal(9), rng.standard_normal((9, 4))
    assert np.array_equal(invariant(v, b), np.matmul(v, b))
    assert invariant(v, w) == np.matmul(v, w)


#: (a.shape, b.shape) of every operand-rank combination, on the matmul
#: shapes the training goldens run (hidden 16/32, 76-wide message inputs).
TRAINING_SHAPES = [
    ((51, 32), (32, 32)),
    ((400, 76), (76, 32)),
    ((16, 16), (16, 1)),
    ((4, 32), (32,)),
    ((32,), (32, 16)),
    ((32,), (32,)),
    ((3, 8, 16), (16, 16)),
    ((3, 8, 16), (3, 16, 4)),
    ((8, 16), (3, 16, 4)),
]


@pytest.mark.parametrize("a_shape,b_shape", TRAINING_SHAPES)
def test_outside_the_context_it_is_np_matmul(a_shape, b_shape):
    rng = np.random.default_rng(7)
    a, b = rng.standard_normal(a_shape), rng.standard_normal(b_shape)
    out = stable_matmul(a, b)
    expected = np.matmul(a, b)
    assert out.shape == expected.shape
    assert np.array_equal(out, expected)
    assert out.flags.c_contiguous == expected.flags.c_contiguous


# --------------------------------------------------------------------------- #
# The fallback
# --------------------------------------------------------------------------- #
class PositionDependentBlas:
    """``numpy``, except stacked matmul perturbs every odd row of a tile."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def matmul(a, b):
        out = np.matmul(a, b)
        if a.ndim == 3:
            out[:, 1::2] *= 1.0 + 2.0**-52
        return out


@pytest.fixture
def broken_blas(monkeypatch):
    """A process whose BLAS fails the tile self-test, with fresh verdicts."""
    monkeypatch.setattr(tensor_core, "np", PositionDependentBlas())
    monkeypatch.setattr(tensor_core, "_TILE_VERIFIED", set())
    monkeypatch.setattr(tensor_core, "_TILE_FALLBACK", None)


def test_failed_self_test_falls_back_to_einsum_loudly(broken_blas):
    a, b = operands(19, 33, 17, seed=3)
    with pytest.warns(RuntimeWarning, match=r"\(k, n\) = \(33, 17\)"):
        out = invariant(a, b)
    assert np.array_equal(out, np.einsum("mk,kn->mn", a, b))
    assert batch_invariant_matmul_mode() == (
        "einsum (fallback: self-test failed for (k, n) = (33, 17))"
    )

    # For the rest of the process: other shapes do not retry the tiles and
    # do not warn again (a second warning would be an error here).
    a2, b2 = operands(40, 8, 8, seed=4)
    assert np.array_equal(invariant(a2, b2), np.einsum("mk,kn->mn", a2, b2))
    assert tensor_core._TILE_VERIFIED == set()

    metrics = MetricsRegistry()
    line = matmul_mode_line(metrics)
    assert line.startswith("batch-invariant matmul: einsum (fallback: self-test failed")
    assert metrics.value("kernels.batch_invariant.fallback") == 1
    matmul_mode_line(metrics)
    assert metrics.value("kernels.batch_invariant.fallback") == 1


def test_healthy_process_reports_tiled_and_a_zero_counter():
    a, b = operands(5, 6, 7, seed=0)
    invariant(a, b)
    metrics = MetricsRegistry()
    assert matmul_mode_line(metrics) == f"batch-invariant matmul: tiled(M0={M0})"
    assert "kernels.batch_invariant.fallback" in metrics.names()
    assert metrics.value("kernels.batch_invariant.fallback") == 0


@pytest.mark.serve
@pytest.mark.parametrize("encoder_name", ENCODERS)
def test_batched_equals_single_in_fallback_mode(broken_blas, encoder_name):
    """The contract is intra-mode: it holds in einsum mode exactly as in tiled."""
    servable = build_servable(encoder_name, "band_gap")
    samples = graph_samples("materials_project")
    with pytest.warns(RuntimeWarning, match="batch-invariant matmul"):
        batched = servable.predict(samples)
    assert batch_invariant_matmul_mode().startswith("einsum (fallback:")
    offline = np.array([servable.predict_one(s) for s in samples])
    assert np.array_equal(batched, offline)


# --------------------------------------------------------------------------- #
# The summary line of `repro serve` / `repro screen`
# --------------------------------------------------------------------------- #
@pytest.fixture
def tiny_registry(tmp_path):
    from repro.serving import save_servable

    servable = build_servable("egnn", "band_gap")
    save_servable(servable.task, servable.spec, str(tmp_path / "tiny"))
    return str(tmp_path)


def cli_commands(registry):
    return [
        ["serve", "--registry", registry, "--model", "tiny", "--requests", "12"],
        ["screen", "--registry", registry, "--model", "tiny", "--n-candidates", "12",
         "--top-k", "3", "--batch-size", "5", "--base-samples", "4"],
    ]


# Timing a tiny model on a shared host can produce a degenerate service-model
# fit; that warning has its own tests (tests/test_serving.py).
tolerate_degenerate_fit = pytest.mark.filterwarnings(
    "default::repro.serving.DegenerateFitWarning"
)


@pytest.mark.serve
@tolerate_degenerate_fit
def test_cli_summaries_name_the_matmul_mode(tiny_registry, capsys):
    from repro.cli import main

    for argv in cli_commands(tiny_registry):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert f"batch-invariant matmul: tiled(M0={M0})\n" in out
        assert "kernels.batch_invariant.fallback   counter    0" in out


@pytest.mark.serve
@tolerate_degenerate_fit
def test_cli_summaries_name_the_fallback(broken_blas, tiny_registry, capsys):
    from repro.cli import main

    serve, screen = cli_commands(tiny_registry)
    with pytest.warns(RuntimeWarning, match="batch-invariant matmul: rows of the tiled"):
        assert main(serve) == 0
    assert main(screen) == 0  # already fallen back: no second warning
    out = capsys.readouterr().out
    assert out.count("batch-invariant matmul: einsum (fallback: self-test failed for (k, n) = (") == 2
    assert out.count("kernels.batch_invariant.fallback   counter    1") == 2
