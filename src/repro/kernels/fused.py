"""Fused autograd kernels: one tape node per composite op.

Bit-identity contract
---------------------
Every kernel here must produce forward values AND leaf gradients that are
bitwise equal to the reference composition in
:mod:`repro.kernels.reference`.  Two facts about the reference tape make
this achievable:

* each elementary op's backward closure computes its gradient with a fixed
  numpy expression — replaying the same expressions in the same order gives
  the same bits;
* ``Tensor._accumulate`` copies the first contribution and ``+=``s the
  rest, and IEEE-754 addition/multiplication are commutative, so only the
  *order of contributions into the same tensor* matters, which each fused
  backward preserves.

The parent tuples passed to ``Tensor._make`` are ordered so the iterative
DFS in ``Tensor.backward`` explores subgraphs in the same order as it would
for the reference chain (parents are pushed in order and popped reversed).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

import importlib

_tensor_core = importlib.import_module("repro.autograd.tensor")
from repro.autograd.scatter import scatter_rows
from repro.autograd.tensor import Tensor, stable_matmul

_SELU_ALPHA = 1.6732632423543772
_SELU_SCALE = 1.0507009873554805
_LOG2 = float(np.log(2.0))


# --------------------------------------------------------------------------- #
# Activation table: key -> (forward, backward).  forward(z) returns
# (out, ctx); backward(g, z, ctx) returns the gradient w.r.t. z.  The
# formulas mirror repro.autograd.functional exactly.
# --------------------------------------------------------------------------- #
def _identity_fwd(z):
    return z, None


def _identity_bwd(g, z, ctx):
    return g


def _silu_fwd(z):
    # Same IEEE op sequence as 1.0 / (1.0 + exp(-clip(z))) with in-place
    # ufuncs: on a memory-bound host the five avoided temporaries are the
    # dominant cost of the activation.
    sig = np.clip(z, -500, 500)
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    np.divide(1.0, sig, out=sig)
    return z * sig, sig


def _silu_bwd(g, z, sig):
    # g * (sig + out * (1 - sig)) rearranged only by commutativity, so the
    # bits match the reference backward exactly.
    out = z * sig
    u = 1.0 - sig
    u *= out
    u += sig
    u *= g
    return u


def _selu_fwd(z):
    pos = z > 0
    expx = np.exp(np.clip(z, -500, 0))
    out = _SELU_SCALE * np.where(pos, z, _SELU_ALPHA * (expx - 1.0))
    return out, (pos, expx)


def _selu_bwd(g, z, ctx):
    pos, expx = ctx
    return g * (_SELU_SCALE * np.where(pos, 1.0, _SELU_ALPHA * expx))


def _relu_fwd(z):
    mask = z > 0
    return z * mask, mask


def _relu_bwd(g, z, mask):
    return g * mask


def _tanh_fwd(z):
    out = np.tanh(z)
    return out, out


def _tanh_bwd(g, z, out):
    return g * (1.0 - out * out)


def _sigmoid_fwd(z):
    # The reference evaluates exp(-c) where z >= 0 and exp(c) elsewhere, with
    # c = clip(z): both arguments are -|c| exactly, so one exp serves both
    # branches with the same bits.
    t = np.abs(np.clip(z, -500, 500))
    np.negative(t, out=t)
    np.exp(t, out=t)
    out = np.where(z >= 0, 1.0, t)
    t += 1.0
    np.divide(out, t, out=out)
    return out, out


def _sigmoid_bwd(g, z, out):
    return g * out * (1.0 - out)


def _softplus_ctx(z):
    """sigmoid(z), which only ``_softplus_bwd`` reads: skipped under no_grad."""
    if not _tensor_core.is_grad_enabled():
        return None
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _softplus(z):
    # Same IEEE op sequence as max(z, 0) + log1p(exp(-|z|)), the reference
    # definition, with in-place ufuncs on fresh contiguous temporaries (the
    # SIMD exp/log1p loops; numpy's logaddexp is a scalar libm loop).  The
    # max operand stays first in the add, as in the reference, so even NaN
    # outputs match it bit for bit.
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    out = np.maximum(z, 0.0)
    out += t
    return out


def _softplus_fwd(z):
    return _softplus(z), _softplus_ctx(z)


def _softplus_bwd(g, z, sig):
    return g * sig


def _shifted_softplus_fwd(z):
    out = _softplus(z)
    out -= _LOG2
    return out, _softplus_ctx(z)


ACTIVATIONS = {
    "identity": (_identity_fwd, _identity_bwd),
    "silu": (_silu_fwd, _silu_bwd),
    "selu": (_selu_fwd, _selu_bwd),
    "relu": (_relu_fwd, _relu_bwd),
    "tanh": (_tanh_fwd, _tanh_bwd),
    "sigmoid": (_sigmoid_fwd, _sigmoid_bwd),
    "softplus": (_softplus_fwd, _softplus_bwd),
    "shifted_softplus": (_shifted_softplus_fwd, _softplus_bwd),
}


# --------------------------------------------------------------------------- #
# Fused ops
# --------------------------------------------------------------------------- #
def linear_act(
    x: Tensor, weight: Tensor, bias: Optional[Tensor], act: Optional[str] = None
) -> Tensor:
    """``act(x @ W + b)`` as a single tape node.

    Replaces up to three nodes (matmul, bias add, activation).  The leaf
    accumulation order of the reference chain — bias, then x, then W — is
    preserved, and the matmul gradients use the identical
    ``swapaxes``-based GEMM expressions.
    """
    act_fwd, act_bwd = ACTIVATIONS[act or "identity"]
    x_data, w_data = x.data, weight.data
    z = stable_matmul(x_data, w_data)
    if bias is not None:
        z += bias.data  # in-place on the fresh GEMM result, same bits
    out_data, ctx = act_fwd(z)

    def backward(g: np.ndarray) -> None:
        gz = act_bwd(g, z, ctx)
        if bias is not None:
            bias._accumulate(gz)
        x._accumulate_owned(stable_matmul(gz, np.swapaxes(w_data, -1, -2)))
        weight._accumulate_owned(stable_matmul(np.swapaxes(x_data, -1, -2), gz))

    parents = (x, weight) if bias is None else (x, weight, bias)
    return Tensor._make(out_data, parents, backward)


def rms_norm(x: Tensor, weight: Tensor, eps: float) -> Tensor:
    """``x / rms(x) * w`` as a single tape node (seven in the reference)."""
    x_data, w_data = x.data, weight.data
    inv_d = np.asarray(1.0 / x_data.shape[-1], dtype=np.float64)
    ms = (x_data * x_data).sum(axis=-1, keepdims=True) * inv_d
    rms = np.sqrt(ms + eps)
    xon = x_data / rms
    out_data = xon * w_data

    def backward(g: np.ndarray) -> None:
        # Reference firing order: out-mul, div, sqrt, +eps, mean-mul, sum,
        # x*x.  The out-mul feeds the weight before the div feeds x, which
        # matters when x and the weight are one tensor; then x*x twice.
        g7 = g * w_data
        weight._accumulate_owned(g * xon)
        x._accumulate_owned(g7 / rms)
        g6 = -g7 * x_data / (rms * rms)
        if x_data.shape[-1] != 1:
            # The reference's ``_unbroadcast`` skips a one-wide sum, which
            # would turn -0.0 into +0.0.
            g6 = g6.sum(axis=-1, keepdims=True)
        g5 = g6 * 0.5 / rms
        g3 = g5 * inv_d
        gb = np.broadcast_to(g3, x_data.shape)
        t = gb * x_data
        x._accumulate(t)
        x._accumulate(t)

    return Tensor._make(out_data, (x, weight), backward)


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float) -> Tensor:
    """``(x - mu) / sqrt(var + eps) * w + b`` as a single tape node."""
    x_data, w_data = x.data, weight.data
    inv_d = np.asarray(1.0 / x_data.shape[-1], dtype=np.float64)
    mu = x_data.sum(axis=-1, keepdims=True) * inv_d
    centered = x_data - mu
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_d
    sd = np.sqrt(var + eps)
    normed = centered / sd
    out_data = normed * w_data + bias.data

    def backward(g: np.ndarray) -> None:
        bias._accumulate(g)
        g9 = g * w_data
        weight._accumulate_owned(g * normed)
        # Gradient into `centered`: div path plus twice the var path (the
        # reference computes centered*centered with both operands the same
        # tensor, so its backward fires two identical contributions).
        G = g9 / sd
        g8 = (-g9 * centered / (sd * sd)).sum(axis=-1, keepdims=True)
        g7 = g8 * 0.5 / sd
        g5 = g7 * inv_d
        gb = np.broadcast_to(g5, x_data.shape)
        t = gb * centered
        G += t
        G += t
        x._accumulate_owned(G)
        gmu = (-G).sum(axis=-1, keepdims=True)
        x._accumulate(np.broadcast_to(gmu * inv_d, x_data.shape))

    return Tensor._make(out_data, (x, weight, bias), backward)


def gather_diff(x: Tensor, src: np.ndarray, dst: np.ndarray) -> Tensor:
    """Per-edge difference ``x[src] - x[dst]`` as a single tape node.

    The reference chain fires the src-gather scatter before the dst-gather
    scatter; both contributions into x are replayed in that order.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    x_data = x.data
    out_data = x_data[src] - x_data[dst]
    shape = x_data.shape

    def backward(g: np.ndarray) -> None:
        x._accumulate_owned(scatter_rows(src, g, shape[0]))
        x._accumulate_owned(scatter_rows(dst, -g, shape[0]))

    return Tensor._make(out_data, (x,), backward)


def row_sq_norm(t: Tensor) -> Tensor:
    """``(t * t).sum(axis=-1, keepdims=True)`` as a single tape node."""
    t_data = t.data
    out_data = (t_data * t_data).sum(axis=-1, keepdims=True)

    def backward(g: np.ndarray) -> None:
        gb = np.broadcast_to(g, t_data.shape)
        contrib = gb * t_data
        t._accumulate(contrib)
        t._accumulate(contrib)

    return Tensor._make(out_data, (t,), backward)


def gather_pair_concat(h: Tensor, src: np.ndarray, dst: np.ndarray, tails) -> Tensor:
    """``concat([h[src], h[dst], *tails], axis=1)`` as a single tape node.

    The GNN message-input assembly: two row gathers of the same node table
    plus per-edge feature columns, written straight into one output buffer
    (the reference chain materializes both gathers and then copies them
    again in concat).  Backward replays the reference contribution order:
    src scatter into ``h``, then dst scatter, then the tail slices.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    h_data = h.data
    num_rows, hw = h_data.shape
    tail_data = [t.data for t in tails]
    total = 2 * hw + sum(t.shape[1] for t in tail_data)
    out_data = np.empty((len(src), total), dtype=np.float64)
    out_data[:, :hw] = h_data[src]
    out_data[:, hw : 2 * hw] = h_data[dst]
    spans = []
    offset = 2 * hw
    for t in tail_data:
        width = t.shape[1]
        out_data[:, offset : offset + width] = t
        spans.append((offset, offset + width))
        offset += width

    def backward(g: np.ndarray) -> None:
        h._accumulate_owned(scatter_rows(src, g[:, :hw], num_rows))
        h._accumulate_owned(scatter_rows(dst, g[:, hw : 2 * hw], num_rows))
        for t, (start, stop) in zip(tails, spans):
            t._accumulate(g[:, start:stop])

    return Tensor._make(out_data, (h, *tails), backward)


def index_select(x: Tensor, index: np.ndarray) -> Tensor:
    """Row gather; ``F.index_select`` with the scattered gradient adopted
    by ``x`` instead of copied."""
    index = np.asarray(index, dtype=np.int64)
    x_data = x.data
    out_data = x_data[index]
    num_rows = x_data.shape[0]

    def backward(g: np.ndarray) -> None:
        x._accumulate_owned(scatter_rows(index, g, num_rows))

    return Tensor._make(out_data, (x,), backward)


def segment_sum(x: Tensor, segment_ids: np.ndarray, num_segments: int) -> Tensor:
    """Segment reduction; ``F.segment_sum`` (same scatter forward, same
    gather backward) with the gathered gradient adopted by ``x``."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    x_data = x.data
    out_data = scatter_rows(segment_ids, x_data, num_segments)

    def backward(g: np.ndarray) -> None:
        x._accumulate_owned(g[segment_ids])

    return Tensor._make(out_data, (x,), backward)


def lstm_cell(
    x: Tensor, h: Tensor, c: Tensor, w_x: Tensor, w_h: Tensor, b: Tensor
) -> Tensor:
    """One LSTM step as a single tape node (~16 in the reference).

    Output is ``concat([h', c'], axis=1)``; the i/f/g/o gate layout matches
    the reference composition.  The backward replays the reference chain's
    firing order — concat slices, the o/tanh(c') product, the cell update,
    then one gate-gradient scatter per slice into the pre-activation buffer
    before the three GEMM backwards — so every leaf gradient is bitwise
    equal to the ``use_fused(False)`` tape.
    """
    d = h.data.shape[1]
    x_data, h_data, c_data = x.data, h.data, c.data
    wx_data, wh_data = w_x.data, w_h.data
    z = stable_matmul(x_data, wx_data)
    z = z + stable_matmul(h_data, wh_data)
    z += b.data  # in-place on the fresh sum, same bits as the reference add
    i_out = _sigmoid_fwd(z[:, :d])[0]
    f_out = _sigmoid_fwd(z[:, d : 2 * d])[0]
    g_out = np.tanh(z[:, 2 * d : 3 * d])
    o_out = _sigmoid_fwd(z[:, 3 * d :])[0]
    c_next = f_out * c_data + i_out * g_out
    t_out = np.tanh(c_next)
    h_next = o_out * t_out
    out_data = np.concatenate([h_next, c_next], axis=1)

    def backward(g: np.ndarray) -> None:
        gh = g[:, :d]
        gc = g[:, d : 2 * d].copy()
        gc += gh * o_out * (1.0 - t_out * t_out)
        dgates = np.zeros((g.shape[0], 4 * d), dtype=np.float64)
        dgates[:, 3 * d :] = gh * t_out * o_out * (1.0 - o_out)
        dgates[:, d : 2 * d] = gc * c_data * f_out * (1.0 - f_out)
        dgates[:, : d] = gc * g_out * i_out * (1.0 - i_out)
        dgates[:, 2 * d : 3 * d] = gc * i_out * (1.0 - g_out * g_out)
        # The reference accumulates four zero-filled scatters into the gate
        # buffer; the zero additions fold any -0.0 slice values to +0.0,
        # which direct slice assignment alone would not.
        dgates += 0.0
        c._accumulate_owned(gc * f_out)
        b._accumulate(dgates)
        x._accumulate_owned(stable_matmul(dgates, np.swapaxes(wx_data, -1, -2)))
        w_x._accumulate_owned(stable_matmul(np.swapaxes(x_data, -1, -2), dgates))
        h._accumulate_owned(stable_matmul(dgates, np.swapaxes(wh_data, -1, -2)))
        w_h._accumulate_owned(stable_matmul(np.swapaxes(h_data, -1, -2), dgates))

    return Tensor._make(out_data, (x, h, c, w_x, w_h, b), backward)


def mul_segment_sum(
    a: Tensor, b: Tensor, segment_ids: np.ndarray, num_segments: int
) -> Tensor:
    """``segment_sum(a * b)`` — message modulation + aggregation in one node."""
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    a_data, b_data = a.data, b.data
    msg = a_data * b_data
    out_data = scatter_rows(segment_ids, msg, num_segments)

    def backward(g: np.ndarray) -> None:
        gm = g[segment_ids]
        a._accumulate_owned(gm * b_data)
        b._accumulate_owned(gm * a_data)

    return Tensor._make(out_data, (a, b), backward)
