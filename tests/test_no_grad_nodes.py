"""``Tensor._make``'s hook-free early return under ``no_grad``.

With gradients off and no profiler or anomaly context listening,
``_make`` fills the node's slots directly instead of going through the
parents filter and ``__init__`` (DESIGN.md §12).  That must be invisible:
every op's ``.data`` equals the live tape's bit for bit, the node looks
exactly like ``__init__``'s ``requires_grad=False`` result, and any
installed hook still sees every node.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest

from repro.autograd import NumericalAnomalyError, Tensor, detect_anomaly, no_grad
from repro.autograd import functional as F
from repro.kernels import fused
from repro.observability import OpProfiler
from repro.observability.opprofile import _TENSOR_OPS

RNG = np.random.default_rng(21)
A = RNG.standard_normal((6, 4))
B = RNG.standard_normal((6, 4))
POS = np.abs(A) + 0.5
W = RNG.standard_normal((4, 5))
BIAS = RNG.standard_normal(5)
VEC = RNG.standard_normal(4)
SRC = np.array([0, 1, 2, 3, 4, 5, 0, 2])
DST = np.array([1, 0, 3, 2, 5, 4, 3, 5])
SEG = np.array([0, 0, 1, 1, 2, 2])
LABELS = np.array([0, 3, 1, 2, 0, 1])
H = RNG.standard_normal((6, 3))
C = RNG.standard_normal((6, 3))
WX = RNG.standard_normal((4, 12))
WH = RNG.standard_normal((3, 12))
GATE_BIAS = RNG.standard_normal(12)
EDGE_TAIL = RNG.standard_normal((8, 2))


def t(array) -> Tensor:
    return Tensor(array, requires_grad=True)


#: Tensor methods by the names the op profiler wraps, plus the wrappers
#: around ``functional`` and the ``T`` property.
TENSOR_CASES = {
    "__add__": lambda: t(A) + t(B),
    "__add__/const": lambda: t(A) + 2.0,
    "__radd__": lambda: 2 + t(A),
    "__neg__": lambda: -t(A),
    "__sub__": lambda: t(A) - t(B),
    "__sub__/const": lambda: t(A) - 1.5,
    "__rsub__": lambda: 1.5 - t(A),
    "__mul__": lambda: t(A) * t(B),
    "__rmul__": lambda: 3.0 * t(A),
    "__truediv__": lambda: t(A) / t(POS),
    "__rtruediv__": lambda: 2.0 / t(POS),
    "__pow__": lambda: t(POS) ** 1.5,
    "__matmul__": lambda: t(A) @ t(W),
    "__matmul__/vector": lambda: t(A) @ t(VEC),
    "__getitem__": lambda: t(A)[SRC],
    "__getitem__/slice": lambda: t(A)[1:4, ::2],
    "reshape": lambda: t(A).reshape(4, 6),
    "transpose": lambda: t(A).transpose(1, 0),
    "T": lambda: t(A).T,
    "squeeze": lambda: t(A[:, :1]).squeeze(1),
    "unsqueeze": lambda: t(A).unsqueeze(0),
    "sum": lambda: t(A).sum(),
    "sum/axis": lambda: t(A).sum(axis=1, keepdims=True),
    "mean": lambda: t(A).mean(axis=0),
    "max": lambda: t(A).max(axis=1),
    "min": lambda: t(A).min(),
    "exp": lambda: t(A).exp(),
    "log": lambda: t(POS).log(),
    "sqrt": lambda: t(POS).sqrt(),
    "tanh": lambda: t(A).tanh(),
    "abs": lambda: t(A).abs(),
    "clip": lambda: t(A).clip(-0.5, 0.5),
}

# ``F.<name>`` is looked up at call time: the op profiler swaps the
# module attributes while it is installed.
FUNCTIONAL_CASES = {
    "exp": lambda: F.exp(t(A)),
    "log": lambda: F.log(t(POS)),
    "sqrt": lambda: F.sqrt(t(POS)),
    "abs": lambda: F.abs(t(A)),
    "tanh": lambda: F.tanh(t(A)),
    "sigmoid": lambda: F.sigmoid(t(A)),
    "relu": lambda: F.relu(t(A)),
    "silu": lambda: F.silu(t(A)),
    "selu": lambda: F.selu(t(A)),
    "softplus": lambda: F.softplus(t(A)),
    "clip": lambda: F.clip(t(A), -0.5, 0.5),
    "where": lambda: F.where(A > 0, t(A), t(B)),
    "concat": lambda: F.concat([t(A), t(B), t(POS)], axis=1),
    "stack": lambda: F.stack([t(A), t(B)], axis=0),
    "pad_rows": lambda: F.pad_rows(t(A), 9),
    "softmax": lambda: F.softmax(t(A), axis=-1),
    "log_softmax": lambda: F.log_softmax(t(A), axis=-1),
    "cross_entropy": lambda: F.cross_entropy(t(A), LABELS),
    "binary_cross_entropy_with_logits": lambda: F.binary_cross_entropy_with_logits(
        t(A), (B > 0).astype(float)
    ),
    "mse_loss": lambda: F.mse_loss(t(A), B),
    "l1_loss": lambda: F.l1_loss(t(A), B),
    "huber_loss": lambda: F.huber_loss(t(A), B, delta=0.7),
    "dropout": lambda: F.dropout(t(A), 0.3, np.random.default_rng(5), training=True),
    "index_select": lambda: F.index_select(t(A), SRC),
    "segment_sum": lambda: F.segment_sum(t(A), SEG, 3),
    "segment_mean": lambda: F.segment_mean(t(A), SEG, 4),
    "segment_softmax": lambda: F.segment_softmax(t(A), SEG, 3),
    "pairwise_sq_dist": lambda: F.pairwise_sq_dist(t(A), SRC, DST),
}

FUSED_CASES = {
    **{
        f"linear_act/{act}": (lambda act=act: fused.linear_act(t(A), t(W), t(BIAS), act))
        for act in fused.ACTIVATIONS
    },
    "linear_act/no-bias": lambda: fused.linear_act(t(A), t(W), None, "silu"),
    "rms_norm": lambda: fused.rms_norm(t(A), t(VEC), 1e-6),
    "layer_norm": lambda: fused.layer_norm(t(A), t(VEC), t(VEC * 0.5), 1e-5),
    "gather_diff": lambda: fused.gather_diff(t(A), SRC, DST),
    "row_sq_norm": lambda: fused.row_sq_norm(t(A)),
    "gather_pair_concat": lambda: fused.gather_pair_concat(
        t(A), SRC, DST, [t(EDGE_TAIL)]
    ),
    "index_select": lambda: fused.index_select(t(A), SRC),
    "segment_sum": lambda: fused.segment_sum(t(A), SEG, 3),
    "lstm_cell": lambda: fused.lstm_cell(t(A), t(H), t(C), t(WX), t(WH), t(GATE_BIAS)),
    "mul_segment_sum": lambda: fused.mul_segment_sum(t(A), t(B), SEG, 3),
}

CASES = [
    *(pytest.param(fn, id=f"Tensor.{name}") for name, fn in TENSOR_CASES.items()),
    *(pytest.param(fn, id=f"F.{name}") for name, fn in FUNCTIONAL_CASES.items()),
    *(pytest.param(fn, id=f"fused.{name}") for name, fn in FUSED_CASES.items()),
]


def test_the_case_table_covers_every_op():
    """A new op without a row here fails, instead of going untested."""
    tensor_ops = {name.split("/")[0] for name in TENSOR_CASES}
    assert tensor_ops >= set(_TENSOR_OPS)
    assert set(FUNCTIONAL_CASES) == set(F.__all__)
    fused_ops = {
        name
        for name, fn in inspect.getmembers(fused, inspect.isfunction)
        if fn.__module__ == fused.__name__ and not name.startswith("_")
    }
    assert {name.split("/")[0] for name in FUSED_CASES} == fused_ops


@pytest.mark.parametrize("case", CASES)
def test_no_grad_node_equals_live_tape_node(case):
    live = case()
    assert live.requires_grad and live._backward is not None and live._parents
    with no_grad():
        quiet = case()
    assert type(quiet) is Tensor
    assert quiet.data.dtype == np.float64
    assert isinstance(quiet.data, np.ndarray)
    assert quiet.data.shape == live.data.shape
    assert np.array_equal(quiet.data, live.data)
    assert quiet.requires_grad is False
    assert quiet._parents == ()
    assert quiet._backward is None
    assert quiet.grad is None
    assert quiet.name == "" and quiet._op == ""


def profiled_nodes(case) -> int:
    with OpProfiler(profile_memory=False) as profiler:
        out = case()
    assert out._op != ""
    return sum(stat.allocs for stat in profiler.summary("forward"))


@pytest.mark.parametrize("case", CASES)
def test_hooks_still_see_every_no_grad_node(case):
    created = profiled_nodes(case)  # tape live: the reference node count
    assert created >= 1

    with no_grad():
        assert profiled_nodes(case) == created

        with detect_anomaly():
            out = case()
        assert out._op != ""


def test_anomaly_detection_still_raises_under_no_grad():
    with no_grad(), detect_anomaly():
        with pytest.raises(NumericalAnomalyError, match="add"):
            Tensor([np.inf, 1.0]) + 1.0


def test_scalar_and_integer_results_are_coerced_like_init():
    """The early return keeps ``__init__``'s float64 ndarray coercion."""
    with no_grad():
        total = Tensor._make(np.float64(3.0), (), None)
        counts = Tensor._make(np.arange(3), (), None)
    assert isinstance(total.data, np.ndarray) and total.data.shape == ()
    assert counts.data.dtype == np.float64
