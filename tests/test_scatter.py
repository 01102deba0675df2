"""The one scatter kernel: ``np.add.at`` bits and hostile ids.

Every segment reduction and gather backward, fused or reference, goes
through :func:`repro.autograd.scatter.scatter_rows`.  These tests pin it
(and ``F.segment_sum`` / ``F.segment_mean`` / ``K.segment_sum`` on top of
it) to an ``np.add.at`` oracle byte for byte, and check that an
out-of-range id fails loudly instead of growing the output.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.autograd import SegmentIndexError, Tensor
from repro.autograd import functional as F
from repro.autograd.scatter import scatter_rows
from repro.kernels import dispatch as K
from repro.kernels import use_fused

WIDTHS = [None, 1, 2, 3, 12, 32, 65]  # None: 1-D values


def add_at_sum(index, values, num_segments):
    out = np.zeros((num_segments,) + values.shape[1:])
    np.add.at(out, index, values)
    return out


def add_at_mean(index, values, num_segments):
    counts = np.zeros(num_segments)
    np.add.at(counts, index, 1.0)
    inverse = 1.0 / np.maximum(counts, 1.0)
    total = add_at_sum(index, values, num_segments)
    return total * (inverse if values.ndim == 1 else inverse[:, None])


def same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def scatter_case(draw):
    width = draw(st.sampled_from(WIDTHS))
    num_segments = draw(st.integers(1, 9))
    rows = draw(st.integers(0, 40))
    # Few segments, many rows: duplicate-heavy on purpose, since repeated
    # ids are where accumulation order could break bit-identity.
    ids = draw(st.lists(st.integers(0, num_segments - 1), min_size=rows, max_size=rows))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    cols = 1 if width is None else width
    # A wider parent array sliced down: a non-contiguous column view.
    wide = rng.normal(size=(rows, 2 * cols + 1)) * 10.0 ** rng.integers(-3, 4, size=(rows, 1))
    special = rng.random(wide.shape)
    wide[special < 0.08] = -0.0
    wide[special > 0.97] = np.nan
    strided = draw(st.booleans())
    values = wide[:, 1 : 2 * cols + 1 : 2] if strided else np.ascontiguousarray(wide[:, :cols])
    if width is None:
        values = values[:, 0]
    index = np.array(ids, dtype=np.int64)
    if draw(st.booleans()):
        index.flags.writeable = False  # as screening's shared parent graphs
    return index, values, num_segments


@settings(max_examples=300, deadline=None)
@given(case=scatter_case())
def test_scatter_and_segment_ops_equal_add_at_byte_for_byte(case):
    index, values, num_segments = case
    expected_sum = add_at_sum(index, values, num_segments)
    expected_mean = add_at_mean(index, values, num_segments)
    assert same_bytes(scatter_rows(index, values, num_segments), expected_sum)
    assert same_bytes(F.segment_sum(Tensor(values), index, num_segments).data, expected_sum)
    assert same_bytes(F.segment_mean(Tensor(values), index, num_segments).data, expected_mean)
    for enabled in (True, False):
        with use_fused(enabled):
            out = K.segment_sum(Tensor(values), index, num_segments)
        assert same_bytes(out.data, expected_sum)


@pytest.mark.parametrize("width", [None, 4])
def test_index_mutated_in_place_between_calls_gives_fresh_sums(width):
    values = np.arange(6.0) if width is None else np.arange(6.0 * width).reshape(6, width)
    index = np.array([0, 0, 1, 1, 2, 2])
    first = scatter_rows(index, values, 3)
    index[:] = [2, 2, 2, 0, 0, 1]  # same array object, new contents
    assert np.array_equal(scatter_rows(index, values, 3), add_at_sum(index, values, 3))
    assert not np.array_equal(first, add_at_sum(index, values, 3))
    index[0] = 3  # now out of range for 3 segments
    with pytest.raises(SegmentIndexError):
        scatter_rows(index, values, 3)


OPS = {
    "F.segment_sum": lambda x, ids, n: F.segment_sum(x, ids, n),
    "F.segment_mean": lambda x, ids, n: F.segment_mean(x, ids, n),
    "K.segment_sum": lambda x, ids, n: K.segment_sum(x, ids, n),
    "K.mul_segment_sum": lambda x, ids, n: K.mul_segment_sum(x, x, ids, n),
}


@pytest.mark.parametrize("op", sorted(OPS))
@pytest.mark.parametrize("fused", [True, False])
@pytest.mark.parametrize(
    "ids,bad,shape",
    [
        ([0, 1, 5, 2], 5, (4,)),  # 1-D: used to return shape (6,)
        ([0, 1, 5, 2], 5, (4, 3)),  # 2-D: used to fail inside reshape
        ([0, -1, 2, 2], -1, (4, 3)),  # negative: used to be bincount's message
        ([0, -1, 2, 2], -1, (4,)),
    ],
)
def test_out_of_range_segment_id_raises_named_error(op, fused, ids, bad, shape):
    index = np.array(ids, dtype=np.int64)
    with use_fused(fused), pytest.raises(SegmentIndexError) as info:
        OPS[op](Tensor(np.ones(shape)), index, 3)
    assert isinstance(info.value, ValueError)
    assert f"segment id {bad}" in str(info.value)
    assert "num_segments=3" in str(info.value)


@pytest.mark.parametrize("shape", [(5, 3), (5, 3, 2)])
@pytest.mark.parametrize("fused", [True, False])
def test_gather_backward_scatter_matches_add_at(shape, fused):
    rng = np.random.default_rng(3)
    index = np.array([4, 0, 4, 4, 1, 0])
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    with use_fused(fused):
        out = K.index_select(x, index)
    g = rng.normal(size=out.shape)
    out.backward(g)
    assert same_bytes(x.grad, add_at_sum(index, g, 5))
