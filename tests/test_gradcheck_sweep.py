"""Property-based gradcheck sweep over ``repro.autograd.functional``.

A seeded, hand-rolled fuzz: ~50 (op, shape, data-regime) combinations
checked against central differences, deliberately including the shapes
that break naive backward rules — size-1 axes that trigger broadcasting,
scalar-vs-matrix mixes, empty batches, single-element reductions.  Every
case is deterministic (seed = case index), so a failure reproduces
exactly from the pytest id.

Kink avoidance: piecewise ops (relu, abs, clip, l1, huber, where, max,
min) are sampled away from their non-differentiable points by shifting
data off the kink; otherwise finite differences straddle the kink and
disagree with the (one-sided) analytic gradient.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.autograd import detect_anomaly, functional as F
from repro.autograd.gradcheck import gradcheck
from repro.kernels.dispatch import use_fused
from repro.observability import OpProfiler


def _rng(case_id: int) -> np.random.Generator:
    return np.random.default_rng(900_000 + case_id)


def _data(rng, shape, low=-2.0, high=2.0):
    return rng.uniform(low, high, size=shape)


def _off_kink(rng, shape, margin=0.3):
    """Values bounded away from zero (for relu/abs/where-style kinks)."""
    x = rng.uniform(margin, 2.0, size=shape)
    return x * rng.choice([-1.0, 1.0], size=shape)


#: (name, builder) — builder(rng) returns (fn, inputs) for gradcheck.
CASES = []


def case(name):
    def register(builder):
        CASES.append(pytest.param(builder, id=f"{len(CASES):02d}-{name}"))
        return builder

    return register


# --------------------------------------------------------------------------- #
# Smooth elementwise ops x edge shapes (incl. size-1 axes and empties)
# --------------------------------------------------------------------------- #
for op_name, fn, low, high in [
    ("exp", F.exp, -1.5, 1.5),
    ("log", F.log, 0.2, 3.0),
    ("sqrt", F.sqrt, 0.2, 3.0),
    ("tanh", F.tanh, -2.0, 2.0),
    ("sigmoid", F.sigmoid, -3.0, 3.0),
    ("silu", F.silu, -2.0, 2.0),
    ("selu", F.selu, -2.0, 2.0),
    ("softplus", F.softplus, -3.0, 3.0),
]:
    for shape in [(5,), (2, 1, 3), (1,)]:

        @case(f"{op_name}-{'x'.join(map(str, shape))}")
        def _build(rng, fn=fn, low=low, high=high, shape=shape):
            return fn, [_data(rng, shape, low, high)]


@case("relu-off-kink")
def _build_relu(rng):
    return F.relu, [_off_kink(rng, (3, 4))]


@case("abs-off-kink")
def _build_abs(rng):
    return F.abs, [_off_kink(rng, (6,))]


@case("clip-interior")
def _build_clip(rng):
    # Sample strictly inside (low, high): the clamp gradient is 1 there.
    return (lambda x: F.clip(x, -5.0, 5.0)), [_data(rng, (2, 3))]


@case("exp-empty-batch")
def _build_exp_empty(rng):
    return F.exp, [np.zeros((0, 3))]


# --------------------------------------------------------------------------- #
# Broadcasting arithmetic through Tensor operators
# --------------------------------------------------------------------------- #
for shapes in [((2, 3), (3,)), ((4, 1), (1, 5)), ((1,), (3, 3)), ((2, 3), (2, 3))]:

    @case(f"add-bcast-{'x'.join(map(str, shapes[0]))}+{'x'.join(map(str, shapes[1]))}")
    def _build_add(rng, shapes=shapes):
        return (lambda a, b: a + b), [_data(rng, shapes[0]), _data(rng, shapes[1])]

    @case(f"mul-bcast-{'x'.join(map(str, shapes[0]))}+{'x'.join(map(str, shapes[1]))}")
    def _build_mul(rng, shapes=shapes):
        return (lambda a, b: a * b), [_data(rng, shapes[0]), _data(rng, shapes[1])]


@case("sub-bcast-scalar")
def _build_sub(rng):
    return (lambda a, b: a - b), [_data(rng, (3, 2)), _data(rng, (1, 1))]


@case("div-bcast")
def _build_div(rng):
    return (lambda a, b: a / b), [_data(rng, (2, 4)), _data(rng, (4,), 0.5, 2.0)]


@case("pow-square")
def _build_pow(rng):
    return (lambda a: a ** 2), [_data(rng, (3, 3))]


@case("neg-getitem")
def _build_neg(rng):
    return (lambda a: (-a)[1:, :1]), [_data(rng, (3, 4))]


# --------------------------------------------------------------------------- #
# matmul, incl. degenerate inner/outer dims and empty batch
# --------------------------------------------------------------------------- #
for shapes in [((2, 3), (3, 4)), ((1, 3), (3, 1)), ((4, 1), (1, 2)), ((0, 3), (3, 2))]:

    @case(f"matmul-{'x'.join(map(str, shapes[0]))}@{'x'.join(map(str, shapes[1]))}")
    def _build_matmul(rng, shapes=shapes):
        return (lambda a, b: a @ b), [_data(rng, shapes[0]), _data(rng, shapes[1])]


# --------------------------------------------------------------------------- #
# Reductions (axes, keepdims, size-1 axes) and shape ops
# --------------------------------------------------------------------------- #
for red_name, red in [("sum", "sum"), ("mean", "mean")]:
    for axis, shape in [(0, (3, 2)), (1, (2, 1)), (None, (2, 3)), (-1, (1, 4))]:

        @case(f"{red_name}-axis{axis}-{'x'.join(map(str, shape))}")
        def _build_red(rng, red=red, axis=axis, shape=shape):
            return (lambda x: getattr(x, red)(axis=axis)), [_data(rng, shape)]


@case("sum-keepdims")
def _build_sum_keep(rng):
    return (lambda x: x.sum(axis=1, keepdims=True) * 2.0), [_data(rng, (3, 4))]


@case("max-unique")
def _build_max(rng):
    # Distinct values: argmax ties are the kink of max-reductions.
    x = np.arange(12, dtype=np.float64).reshape(3, 4)
    rng.shuffle(x.reshape(-1))
    return (lambda t: t.max(axis=1)), [x]


@case("min-unique")
def _build_min(rng):
    x = np.arange(8, dtype=np.float64).reshape(2, 4) * 0.7
    rng.shuffle(x.reshape(-1))
    return (lambda t: t.min(axis=0)), [x]


@case("reshape-transpose")
def _build_reshape(rng):
    return (lambda x: x.reshape(6, 2).transpose()), [_data(rng, (3, 4))]


@case("squeeze-unsqueeze")
def _build_squeeze(rng):
    return (lambda x: x.squeeze(1).unsqueeze(0)), [_data(rng, (3, 1, 2))]


# --------------------------------------------------------------------------- #
# Softmax family and losses
# --------------------------------------------------------------------------- #
for axis, shape in [(-1, (2, 4)), (0, (3, 2)), (-1, (1, 5))]:

    @case(f"softmax-axis{axis}-{'x'.join(map(str, shape))}")
    def _build_softmax(rng, axis=axis, shape=shape):
        return (lambda x: F.softmax(x, axis=axis)), [_data(rng, shape)]


@case("log_softmax")
def _build_log_softmax(rng):
    return (lambda x: F.log_softmax(x, axis=-1)), [_data(rng, (3, 5))]


@case("cross_entropy")
def _build_ce(rng):
    targets = rng.integers(0, 5, size=4)
    return (lambda x: F.cross_entropy(x, targets)), [_data(rng, (4, 5))]


@case("bce_with_logits")
def _build_bce(rng):
    targets = rng.integers(0, 2, size=6).astype(np.float64)
    return (
        lambda x: F.binary_cross_entropy_with_logits(x, targets)
    ), [_data(rng, (6,))]


@case("mse_loss")
def _build_mse(rng):
    target = _data(rng, (4, 2))  # mse_loss treats the target as constant
    return (lambda p: F.mse_loss(p, target)), [_data(rng, (4, 2))]


@case("l1_loss-off-kink")
def _build_l1(rng):
    pred = _data(rng, (5,))
    target = pred + _off_kink(rng, (5,))  # |pred - target| bounded from 0
    return (lambda p: F.l1_loss(p, target)), [pred]


@case("huber-quadratic-zone")
def _build_huber_q(rng):
    pred = _data(rng, (4,), -0.3, 0.3)
    target = np.zeros(4)  # residuals inside |r| < delta
    return (lambda p: F.huber_loss(p, target, delta=1.0)), [pred]


@case("huber-linear-zone")
def _build_huber_l(rng):
    pred = _off_kink(rng, (4,), margin=2.0)  # residuals beyond delta
    target = np.zeros(4)
    return (lambda p: F.huber_loss(p, target, delta=1.0)), [pred]


@case("where-off-kink")
def _build_where(rng):
    cond = rng.integers(0, 2, size=(3, 3)).astype(bool)
    return (
        lambda a, b: F.where(cond, a, b)
    ), [_data(rng, (3, 3)), _data(rng, (3, 3))]


# --------------------------------------------------------------------------- #
# Structure ops: concat/stack/pad, gather/scatter, graph segments
# --------------------------------------------------------------------------- #
@case("concat-axis0")
def _build_concat(rng):
    return (
        lambda a, b: F.concat([a, b], axis=0)
    ), [_data(rng, (2, 3)), _data(rng, (1, 3))]


@case("stack-axis1")
def _build_stack(rng):
    return (
        lambda a, b: F.stack([a, b], axis=1)
    ), [_data(rng, (3,)), _data(rng, (3,))]


@case("pad_rows")
def _build_pad(rng):
    return (lambda x: F.pad_rows(x, 5)), [_data(rng, (2, 3))]


@case("index_select-repeats")
def _build_index_select(rng):
    index = np.array([0, 2, 2, 1, 0])  # repeated gathers must sum grads
    return (lambda x: F.index_select(x, index)), [_data(rng, (3, 2))]


@case("segment_sum")
def _build_segment_sum(rng):
    ids = np.array([0, 0, 1, 2, 2, 2])
    return (lambda x: F.segment_sum(x, ids, 3)), [_data(rng, (6, 2))]


@case("segment_sum-empty-segment")
def _build_segment_sum_empty(rng):
    ids = np.array([0, 0, 2, 2])  # segment 1 receives nothing
    return (lambda x: F.segment_sum(x, ids, 3)), [_data(rng, (4, 2))]


@case("segment_mean")
def _build_segment_mean(rng):
    ids = np.array([0, 1, 1, 1])
    return (lambda x: F.segment_mean(x, ids, 2)), [_data(rng, (4, 3))]


@case("segment_softmax")
def _build_segment_softmax(rng):
    ids = np.array([0, 0, 0, 1, 1])
    return (lambda x: F.segment_softmax(x, ids, 2)), [_data(rng, (5,))]


@case("pairwise_sq_dist")
def _build_pairwise(rng):
    src = np.array([0, 1, 2])
    dst = np.array([1, 2, 0])
    return (lambda x: F.pairwise_sq_dist(x, src, dst)), [_data(rng, (3, 3))]


@case("dropout-eval-identity")
def _build_dropout(rng):
    # Eval mode is the deterministic branch: exact identity gradient.
    return (
        lambda x: F.dropout(x, 0.5, np.random.default_rng(0), training=False)
    ), [_data(rng, (3, 3))]


# --------------------------------------------------------------------------- #
# lstm_cell and Set2Set (the MEGNet readout stack)
# --------------------------------------------------------------------------- #
def _lstm_inputs(rng, n, din, d):
    return [
        _data(rng, (n, din)),
        _data(rng, (n, d)),
        _data(rng, (n, d)),
        _data(rng, (din, 4 * d)),
        _data(rng, (d, 4 * d)),
        _data(rng, (4 * d,)),
    ]


@case("lstm_cell")
def _build_lstm(rng):
    from repro.kernels import dispatch as K

    return (
        lambda x, h, c, w_x, w_h, b: K.lstm_cell(x, h, c, w_x, w_h, b)
    ), _lstm_inputs(rng, 3, 4, 2)


@case("lstm_cell-size1")
def _build_lstm_size1(rng):
    # Single row and width-1 state: the broadcast-prone corner.
    from repro.kernels import dispatch as K

    return (
        lambda x, h, c, w_x, w_h, b: K.lstm_cell(x, h, c, w_x, w_h, b)
    ), _lstm_inputs(rng, 1, 2, 1)


@case("lstm_cell-empty-batch")
def _build_lstm_empty(rng):
    from repro.kernels import dispatch as K

    return (
        lambda x, h, c, w_x, w_h, b: K.lstm_cell(x, h, c, w_x, w_h, b)
    ), _lstm_inputs(rng, 0, 3, 2)


@case("set2set-readout")
def _build_set2set(rng):
    from repro.models import Set2Set

    pool = Set2Set(2, processing_steps=2, rng=np.random.default_rng(3))
    ids = np.array([0, 0, 0, 1, 1])
    return (lambda x: pool(x, ids, 2)), [_data(rng, (5, 2))]


@case("set2set-empty-segment")
def _build_set2set_empty(rng):
    # Segment 1 receives no elements: its readout is the pure LSTM query
    # path, and gradients must still flow through the occupied segments.
    from repro.models import Set2Set

    pool = Set2Set(2, processing_steps=2, rng=np.random.default_rng(4))
    ids = np.array([0, 0, 2, 2])
    return (lambda x: pool(x, ids, 3)), [_data(rng, (4, 2))]


@pytest.mark.parametrize("builder", CASES)
def test_gradcheck_sweep(builder):
    # Seed from the case's position so every id reproduces exactly.
    idx = next(i for i, p in enumerate(CASES) if p.values[0] is builder)
    fn, inputs = builder(_rng(idx))
    assert gradcheck(fn, inputs)


def test_sweep_is_large_enough():
    """The sweep must stay a sweep: ~50 distinct seeded combinations."""
    assert len(CASES) >= 50


# --------------------------------------------------------------------------- #
# The same sweep on the observed tape with the reference kernels: each case
# is built and differentiated under the per-op profiler and detect_anomaly
# (the hooked branch of Tensor._make, plus the timed, scanned backward
# hops), with kernels.dispatch routed to its reference compositions.  The
# ids are those of the tape compiler's replay sweep, which this replaced
# (DESIGN.md §14).
# --------------------------------------------------------------------------- #

_OBSERVED_RUNS = [0]  # mutated by the sweep, checked by the coverage test


@pytest.mark.parametrize("builder", CASES)
def test_gradcheck_sweep_compiled(builder):
    idx = next(i for i, p in enumerate(CASES) if p.values[0] is builder)
    fn, inputs = builder(_rng(idx))
    with use_fused(False), OpProfiler(profile_memory=False), detect_anomaly():
        assert gradcheck(fn, inputs)
    _OBSERVED_RUNS[0] += 1


def test_compiled_sweep_covers_most_cases():
    """Every case ran observed: no op is exempt from the hooked branch."""
    assert _OBSERVED_RUNS[0] == len(CASES), (
        f"only {_OBSERVED_RUNS[0]}/{len(CASES)} cases ran observed"
    )

