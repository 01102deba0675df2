"""Fused-kernel equivalence: fused tape nodes vs reference compositions.

The dispatch layer promises that flipping ``use_fused`` changes tape
granularity but never numbers.  These tests enforce the strongest version
of that promise — *bitwise* equality of forward values and leaf gradients
across a seeded shape sweep (broadcast-inducing size-1 axes, single rows,
empty edge sets, duplicate indices) — plus finite-difference gradcheck of
every fused op under both modes, scatter-kernel equivalence with
``np.add.at``, flat Adam == the per-tensor loop, and multi-step training
equivalence end to end.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.autograd import Tensor, no_grad
from repro.autograd import functional as F
from repro.autograd.gradcheck import gradcheck
from repro.autograd.scatter import scatter_rows
from repro.data import collate_graphs
from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.kernels import dispatch as K
from repro.kernels import fused, reference, set_fused, use_fused
from repro.models import EGNN
from repro.optim import Adam, AdamW
from repro.tasks import MultiClassClassificationTask
from tests.test_optim_flat_adam import PerTensorAdam


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(770_000 + seed)


def _both_modes(build, seed: int):
    """Run ``build(rng)`` -> (out, leaves) fused and reference; compare bits."""
    outs, grads = [], []
    for enabled in (True, False):
        with use_fused(enabled):
            out, leaves = build(_rng(seed))
            out.sum().backward()
        outs.append(out.data)
        grads.append([leaf.grad for leaf in leaves])
    assert np.array_equal(outs[0], outs[1]), "forward values differ"
    for gf, gr in zip(grads[0], grads[1]):
        if gf is None or gr is None:
            assert gf is None and gr is None
        else:
            assert np.array_equal(gf, gr), "leaf gradients differ"


# --------------------------------------------------------------------------- #
# Bitwise fused == reference across the shape sweep
# --------------------------------------------------------------------------- #
LINEAR_SHAPES = [(4, 5, 3), (1, 3, 2), (6, 1, 4), (3, 2, 1)]


@pytest.mark.parametrize("n,din,dout", LINEAR_SHAPES)
@pytest.mark.parametrize("act", sorted(fused.ACTIVATIONS))
@pytest.mark.parametrize("with_bias", [True, False])
def test_linear_act_bitwise(n, din, dout, act, with_bias):
    def build(rng):
        x = Tensor(rng.normal(size=(n, din)), requires_grad=True)
        w = Tensor(rng.normal(size=(din, dout)), requires_grad=True)
        b = Tensor(rng.normal(size=(dout,)), requires_grad=True) if with_bias else None
        leaves = [x, w] + ([b] if with_bias else [])
        return K.linear_act(x, w, b, act=act), leaves

    _both_modes(build, seed=hash((n, din, dout, act, with_bias)) % 10_000)


@pytest.mark.parametrize("act", ["sigmoid", "softplus", "shifted_softplus"])
def test_inference_activations_bitwise(act):
    """no_grad forwards drop backward-only work, never bits: the one-exp
    sigmoid and the context-free softplus equal the reference on the clip
    edges, both zeros, both branches and strided (LSTM gate) views."""
    rng = _rng(31)
    z = rng.normal(size=(9, 12)) * rng.choice([1e-3, 1.0, 40.0, 900.0], size=(9, 12))
    z[0, :6] = [0.0, -0.0, 500.0, -500.0, 745.2, -745.2]
    act_fwd, _ = fused.ACTIVATIONS[act]
    for view in (z, z[:, 3:9], z[::2], z[:0]):
        expected = reference._ACTS[act](Tensor(view)).data
        with no_grad():
            inferred, inferred_ctx = act_fwd(view)
        trained, trained_ctx = act_fwd(view)
        assert inferred.tobytes() == expected.tobytes()
        assert trained.tobytes() == expected.tobytes()
        assert trained_ctx is not None
        if act != "sigmoid":  # sigmoid's context is its output
            assert inferred_ctx is None


SOFTPLUS_ACTS = ["softplus", "shifted_softplus"]


def _act_in_mode(act, fused_mode):
    """Activation forward of the fused kernel or of the reference tape."""
    if fused_mode:
        return lambda z: fused.ACTIVATIONS[act][0](z)[0]
    return lambda z: reference._ACTS[act](Tensor(z)).data


@pytest.mark.parametrize("fused_mode", [True, False], ids=["fused", "reference"])
@pytest.mark.parametrize("act", SOFTPLUS_ACTS)
def test_softplus_edges_equal_logaddexp(act, fused_mode):
    """``max(z, 0) + log1p(exp(-|z|))`` is logaddexp(0, z) on every IEEE
    edge, warning-free (tier-1 runs with ``filterwarnings = error``)."""
    z = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300])
    with np.errstate(invalid="ignore"):  # logaddexp itself flags NaN input
        expected = np.logaddexp(0.0, z)
    if act == "shifted_softplus":
        expected = expected - np.log(2.0)
    got = _act_in_mode(act, fused_mode)(z)
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == expected[~nan].tobytes()


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    act=st.sampled_from(SOFTPLUS_ACTS),
    fused_mode=st.booleans(),
)
def test_softplus_row_bits_independent_of_layout(data, act, fused_mode):
    """A row's output bits do not depend on the array's length, the row's
    offset or the input's memory layout: the batched == single
    precondition for the SIMD exp/log1p loops.

    NaN in gives NaN out, but *which* NaN is not pinned: numpy's add
    returns either operand's NaN depending on whether the element falls in
    the SIMD body or the scalar tail, so NaNs are compared by position.
    """
    rows = data.draw(st.integers(1, 20), label="rows")
    width = data.draw(st.integers(1, 12), label="width")
    z = data.draw(
        hnp.arrays(np.float64, (rows, width), elements=st.floats(width=64)), label="z"
    )
    start = data.draw(st.integers(0, rows - 1), label="start")
    stop = data.draw(st.integers(start + 1, rows), label="stop")
    act_fn = _act_in_mode(act, fused_mode)

    def bits(out):
        return np.where(np.isnan(out), np.nan, out).tobytes()

    expected = act_fn(z)[start:stop]
    strided = np.zeros((rows, 2 * width))
    strided[:, ::2] = z
    for view in (
        z[start:stop],
        z[start:stop].copy(),
        np.asfortranarray(z[start:stop]),
        strided[start:stop, ::2],
    ):
        assert bits(act_fn(view)) == bits(expected)
    for r in range(start, stop):
        assert bits(act_fn(z[r])) == bits(expected[r - start])


@pytest.mark.parametrize("shape", [(4, 6), (1, 3), (5, 1)])
@pytest.mark.parametrize("op", ["rms_norm", "layer_norm"])
def test_norms_bitwise(shape, op):
    def build(rng):
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        w = Tensor(rng.normal(size=(shape[-1],)), requires_grad=True)
        if op == "rms_norm":
            return K.rms_norm(x, w, 1e-6), [x, w]
        b = Tensor(rng.normal(size=(shape[-1],)), requires_grad=True)
        return K.layer_norm(x, w, b, 1e-6), [x, w, b]

    _both_modes(build, seed=hash((shape, op)) % 10_000)


def _leaf_grad_bytes(build):
    """Leaf-gradient bytes of ``build() -> (loss, leaves)``, fused and
    reference: tells ``-0.0`` from ``+0.0``, which ``np.array_equal`` does
    not."""
    runs = []
    for enabled in (True, False):
        with use_fused(enabled):
            loss, leaves = build()
            loss.backward()
        runs.append([leaf.grad.tobytes() for leaf in leaves])
    return runs


def test_rms_norm_keeps_signed_zeros_on_one_wide_rows():
    """A row with zero upstream gradient through a one-wide RMSNorm: the
    reference never sums the one-element row statistic, so the kernel must
    not either (numpy's sum would turn ``-0.0`` into ``+0.0``)."""

    def build():
        x = Tensor([[0.7], [-1.3], [-0.4]], requires_grad=True)
        w = Tensor([-0.8], requires_grad=True)
        return K.rms_norm(x, w, 1e-6)[:2].sum(), [x, w]

    fused_grads, reference_grads = _leaf_grad_bytes(build)
    assert fused_grads == reference_grads


def test_rms_norm_feeds_the_weight_before_x():
    """``x`` doubling as the weight, with a consumer of its own: the
    reference chain adds the weight gradient before x's, and float sums of
    three or more terms depend on that order."""

    def build():
        v = Tensor(_rng(1).uniform(-2.0, 2.0, size=4), requires_grad=True)
        r = K.rms_norm(v, v, 1e-6)
        return F.concat([v, r], axis=0).sum() + F.sigmoid(r).sum(), [v]

    fused_grads, reference_grads = _leaf_grad_bytes(build)
    assert fused_grads == reference_grads


def _deleted_fused_cross_entropy(z, targets):
    """The arithmetic of the deleted fused ``softmax_cross_entropy`` kernel,
    verbatim: the loss and the logits gradient for the seed ``g = 1.0``."""
    targets = np.asarray(targets, dtype=np.int64)
    n = z.shape[0]
    inv_n = np.asarray(1.0 / n, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    logsum = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logsum
    idx = np.arange(n)
    loss = -(logp[idx, targets].sum() * inv_n)
    soft = np.exp(logp)
    g = np.ones_like(loss)
    gs = (-g) * inv_n
    gb = np.broadcast_to(gs, (n,))
    full = np.zeros(z.shape, dtype=np.float64)
    np.add.at(full, (idx, targets), gb)
    return loss, full - soft * full.sum(axis=-1, keepdims=True)


@pytest.mark.parametrize("n,c", [(6, 4), (1, 3), (8, 2)])
def test_softmax_cross_entropy_bitwise(n, c):
    """``F.cross_entropy`` (the one cross-entropy) reproduces the loss and
    gradient bytes of the fused kernel it replaced, in both kernel modes."""
    targets = _rng(n * c).integers(0, c, size=n)
    z = _rng(n * 31 + c).normal(size=(n, c)) * 3.0
    loss_bits, grad_bits = _deleted_fused_cross_entropy(z, targets)
    for enabled in (True, False):
        logits = Tensor(z.copy(), requires_grad=True)
        with use_fused(enabled):
            loss = F.cross_entropy(logits, targets)
            loss.backward()
        assert loss.data.tobytes() == np.asarray(loss_bits).tobytes()
        assert logits.grad.tobytes() == grad_bits.tobytes()


@pytest.mark.parametrize("nodes,edges", [(5, 12), (3, 0), (4, 1), (6, 40)])
def test_gather_scatter_ops_bitwise(nodes, edges):
    idx_rng = _rng(nodes * 100 + edges)
    src = idx_rng.integers(0, nodes, size=edges)
    dst = idx_rng.integers(0, nodes, size=edges)

    def build_diff(rng):
        x = Tensor(rng.normal(size=(nodes, 3)), requires_grad=True)
        return K.row_sq_norm(K.gather_diff(x, src, dst)), [x]

    def build_select(rng):
        x = Tensor(rng.normal(size=(nodes, 4)), requires_grad=True)
        return K.index_select(x, src), [x]

    def build_segsum(rng):
        x = Tensor(rng.normal(size=(edges, 4)), requires_grad=True)
        return K.segment_sum(x, src, nodes), [x]

    def build_mulseg(rng):
        a = Tensor(rng.normal(size=(edges, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(edges, 4)), requires_grad=True)
        return K.mul_segment_sum(a, b, src, nodes), [a, b]

    def build_pair(rng):
        h = Tensor(rng.normal(size=(nodes, 4)), requires_grad=True)
        t1 = Tensor(rng.normal(size=(edges, 1)), requires_grad=True)
        t2 = Tensor(rng.normal(size=(edges, 2)), requires_grad=True)
        return K.gather_pair_concat(h, src, dst, [t1, t2]), [h, t1, t2]

    for i, build in enumerate(
        [build_diff, build_select, build_segsum, build_mulseg, build_pair]
    ):
        _both_modes(build, seed=nodes * 1000 + edges * 10 + i)


@pytest.mark.parametrize("n,din,d", [(4, 6, 3), (1, 2, 1), (0, 4, 2), (5, 1, 4)])
def test_lstm_cell_bitwise(n, din, d):
    # Covers the Set2Set driver shapes plus the hostile corners: single
    # row, width-1 input/state, and the empty batch (zero graphs).
    def build(rng):
        x = Tensor(rng.normal(size=(n, din)), requires_grad=True)
        h = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        c = Tensor(rng.normal(size=(n, d)), requires_grad=True)
        w_x = Tensor(rng.normal(size=(din, 4 * d)), requires_grad=True)
        w_h = Tensor(rng.normal(size=(d, 4 * d)), requires_grad=True)
        b = Tensor(rng.normal(size=(4 * d,)), requires_grad=True)
        return K.lstm_cell(x, h, c, w_x, w_h, b), [x, h, c, w_x, w_h, b]

    _both_modes(build, seed=n * 100 + din * 10 + d)


# --------------------------------------------------------------------------- #
# Scatter kernel == np.add.at, bit for bit
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "rows,n,d", [(7, 30, 5), (4, 4, 1), (3, 0, 4), (1, 50, 8)]
)
def test_scatter_rows_matches_add_at(rows, n, d):
    rng = _rng(rows * n + d)
    # Heavy duplication on purpose: duplicate indices are where accumulation
    # order (and therefore bit-identity) could break.
    index = rng.integers(0, rows, size=n)
    values = rng.normal(size=(n, d))
    expected = np.zeros((rows, d))
    np.add.at(expected, index, values)
    assert np.array_equal(scatter_rows(index, values, rows), expected)
    flat_expected = np.zeros(rows)
    np.add.at(flat_expected, index, values[:, 0] if d else np.zeros(n))
    assert np.array_equal(
        scatter_rows(index, values[:, 0], rows), flat_expected
    )


# --------------------------------------------------------------------------- #
# Gradcheck of every fused op (both modes — the sweep already proves they
# agree bitwise, so reference-mode gradcheck covers fused too; running both
# keeps the property self-contained)
# --------------------------------------------------------------------------- #
SEG = np.array([0, 0, 1, 3, 3, 3])
SRC = np.array([0, 1, 1, 2, 3, 0])
DST = np.array([1, 2, 3, 0, 0, 2])

FUSED_OPS = {
    "linear_act_silu": (
        lambda x, w, b: K.linear_act(x, w, b, act="silu"),
        lambda rng: [rng.normal(size=(4, 3)), rng.normal(size=(3, 5)), rng.normal(size=(5,))],
    ),
    "rms_norm": (
        lambda x, w: K.rms_norm(x, w, 1e-6),
        lambda rng: [rng.normal(size=(4, 6)), rng.normal(size=(6,))],
    ),
    "layer_norm": (
        lambda x, w, b: K.layer_norm(x, w, b, 1e-6),
        lambda rng: [rng.normal(size=(4, 6)), rng.normal(size=(6,)), rng.normal(size=(6,))],
    ),
    "softmax_cross_entropy": (
        lambda z: K.softmax_cross_entropy(z, np.array([1, 0, 2, 1])),
        lambda rng: [rng.normal(size=(4, 3)) * 2.0],
    ),
    "gather_diff": (
        lambda x: K.gather_diff(x, SRC, DST),
        lambda rng: [rng.normal(size=(4, 3))],
    ),
    "row_sq_norm": (
        lambda x: K.row_sq_norm(x),
        lambda rng: [rng.normal(size=(5, 3))],
    ),
    "index_select": (
        lambda x: K.index_select(x, SEG),
        lambda rng: [rng.normal(size=(4, 3))],
    ),
    "segment_sum": (
        lambda x: K.segment_sum(x, SEG, 4),
        lambda rng: [rng.normal(size=(6, 3))],
    ),
    "mul_segment_sum": (
        lambda a, b: K.mul_segment_sum(a, b, SEG, 4),
        lambda rng: [rng.normal(size=(6, 3)), rng.normal(size=(6, 3))],
    ),
    "gather_pair_concat": (
        lambda h, t: K.gather_pair_concat(h, SRC, DST, [t]),
        lambda rng: [rng.normal(size=(4, 3)), rng.normal(size=(6, 2))],
    ),
    "lstm_cell": (
        lambda x, h, c, w_x, w_h, b: K.lstm_cell(x, h, c, w_x, w_h, b),
        lambda rng: [
            rng.normal(size=(3, 4)),
            rng.normal(size=(3, 2)),
            rng.normal(size=(3, 2)),
            rng.normal(size=(4, 8)),
            rng.normal(size=(2, 8)),
            rng.normal(size=(8,)),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(FUSED_OPS))
@pytest.mark.parametrize("fused_mode", [True, False])
def test_fused_op_gradcheck(name, fused_mode):
    fn, make_inputs = FUSED_OPS[name]
    with use_fused(fused_mode):
        assert gradcheck(fn, make_inputs(_rng(len(name))))


# --------------------------------------------------------------------------- #
# Adam: one flat update, the same bits in both kernel modes and as the
# per-tensor loop (tests/test_optim_flat_adam.py has the full sweep)
# --------------------------------------------------------------------------- #
@pytest.mark.parametrize(
    "weight_decay,coupled", [(0.0, False), (1e-2, False), (0.0, True), (1e-2, True)]
)
def test_adam_fused_bit_identity(weight_decay, coupled):
    """AdamW (``coupled=False``) and coupled-decay Adam step the same bits in
    both kernel modes as the per-tensor loop."""

    def run(enabled):
        rng = _rng(99)
        params = [
            Tensor(rng.normal(size=s), requires_grad=True) for s in [(4, 3), (7,), (2, 2)]
        ]
        if enabled is None:
            opt = PerTensorAdam(params, 1e-3, weight_decay=weight_decay, decoupled=not coupled)
        else:
            cls = Adam if coupled else AdamW
            opt = cls(params, lr=1e-3, weight_decay=weight_decay)
        with use_fused(bool(enabled)):
            for _ in range(5):
                for p in params:
                    p.grad = rng.normal(size=p.shape)
                opt.step()
        return params, opt

    oracle_params, oracle = run(None)
    for enabled in (True, False):
        params, opt = run(enabled)
        for a, b in zip(params, oracle_params):
            assert np.array_equal(a.data, b.data)
        for i in oracle.state:
            for key in oracle.state[i]:
                assert np.array_equal(opt.state[i][key], oracle.state[i][key])


def test_adam_scratch_not_in_state():
    # The flat update's work buffers never reach checkpointable state: the
    # state holds exactly the moments, none of which aliases a work buffer.
    rng = _rng(5)
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in [(3,), (2, 2)]]
    opt = AdamW(params, lr=1e-3)
    for p in params:
        p.grad = rng.normal(size=p.shape)
    opt.step()
    flat = opt._flat
    work = [flat.grad, flat.param, flat.work, flat.update]
    for i, entry in opt.state.items():
        assert set(entry) == {"m", "v"}
        assert not any(np.shares_memory(w, arr) for w in work for arr in entry.values())
    saved = opt.state_dict()["state"]
    assert {(i, name) for i, entry in saved.items() for name in entry} == {
        (i, name) for i in (0, 1) for name in ("m", "v")
    }
    assert not any(
        np.shares_memory(arr, buf)
        for entry in saved.values()
        for arr in entry.values()
        for buf in work + list(flat.moments.values())
    )


# --------------------------------------------------------------------------- #
# End to end: multi-step training is bitwise mode-independent
# --------------------------------------------------------------------------- #
def test_training_steps_bitwise_equivalent():
    def run(enabled):
        rng = np.random.default_rng(42)
        ds = SymmetryPointCloudDataset(6, seed=5, group_names=["C2", "C4", "D2"])
        tf = StructureToGraph(cutoff=2.5)
        batch = collate_graphs([tf(ds[i]) for i in range(6)])
        enc = EGNN(hidden_dim=8, num_layers=2, position_dim=4, num_species=4, rng=rng)
        task = MultiClassClassificationTask(enc, num_classes=3, hidden_dim=8, num_blocks=2, rng=rng)
        opt = AdamW(task.parameters(), lr=1e-3)
        with use_fused(enabled):
            for _ in range(3):
                opt.zero_grad()
                loss, _ = task.training_step(batch)
                loss.backward()
                opt.step()
        return float(loss.data), [p.data.copy() for p in task.parameters()]

    loss_f, params_f = run(True)
    loss_r, params_r = run(False)
    assert loss_f == loss_r
    for a, b in zip(params_f, params_r):
        assert np.array_equal(a, b)


# --------------------------------------------------------------------------- #
# Dispatch mechanics
# --------------------------------------------------------------------------- #
def test_env_flag_parsing():
    """The environment selects no kernel path: a fresh process started with
    the retired ``REPRO_FUSED=0`` still runs fused kernels."""
    root = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
    env = {**os.environ, "REPRO_FUSED": "0", "PYTHONPATH": os.path.join(root, "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "from repro.kernels import fused_enabled; print(fused_enabled())"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "True"


def test_set_fused_returns_previous_and_use_fused_restores():
    baseline = K.fused_enabled()
    try:
        assert set_fused(True) == baseline
        with use_fused(False):
            assert not K.fused_enabled()
            with use_fused(True):
                assert K.fused_enabled()
            assert not K.fused_enabled()
        assert K.fused_enabled()
    finally:
        set_fused(baseline)


def test_dispatch_falls_back_on_contract_mismatch():
    # 1-D input violates the linear_act fused contract (ndim >= 2): the call
    # must fall through to the reference composition, not fail.
    rng = _rng(5)
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 2)), requires_grad=True)
    with use_fused(True):
        out = K.linear_act(x, w, None, act="silu")
    with use_fused(False):
        ref = K.linear_act(Tensor(x.data.copy()), Tensor(w.data.copy()), None, act="silu")
    assert np.array_equal(out.data, ref.data)
