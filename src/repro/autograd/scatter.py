"""Row scatter-add through one flat ``np.bincount``: the one implementation
behind every segment reduction and gather backward, fused or reference.

``np.bincount`` accumulates its weights in input order — the element order
``np.add.at`` uses — so sums over duplicate indices agree with
``np.add.at(zeros, index, values)`` bit for bit, without the buffered
fancy-indexing machinery that makes ``np.add.at`` several times slower.
A row scatter of width ``d`` is one bincount over the flat positions
``index * d + arange(d)``.

An id outside ``[0, num_segments)`` raises :class:`SegmentIndexError`.  The
check costs nothing on the way through: a too-large id lengthens
bincount's output past its fixed length and a negative one makes bincount
refuse, so only a failing call looks for the culprit.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SegmentIndexError", "scatter_rows"]


class SegmentIndexError(ValueError):
    """A scatter/segment index outside ``[0, num_segments)``."""


def _out_of_range(index: np.ndarray, num_segments: int) -> SegmentIndexError:
    low = int(index.min())
    bad = low if low < 0 else int(index.max())
    return SegmentIndexError(
        f"segment id {bad} is out of range for num_segments={num_segments}"
    )


def scatter_rows(index: np.ndarray, values: np.ndarray, num_rows: int) -> np.ndarray:
    """Row scatter-add, bitwise equal to ``np.add.at(zeros, index, values)``.

    ``values`` has one leading row per index entry and any trailing shape;
    the result has ``num_rows`` rows of that shape.  Raises
    :class:`SegmentIndexError` for an index outside ``[0, num_rows)``.
    """
    tail = values.shape[1:]
    d = math.prod(tail)
    flat = index if d == 1 else (index[:, None] * d + np.arange(d, dtype=np.int64)).ravel()
    length = num_rows * d
    try:
        out = np.bincount(flat, weights=values.ravel(), minlength=length)
    except ValueError:
        if index.size and index.min() < 0:
            raise _out_of_range(index, num_rows) from None
        raise
    if out.size != length:
        raise _out_of_range(index, num_rows)
    # An empty index makes bincount return int64 zeros.
    return out.astype(np.float64, copy=False).reshape((num_rows,) + tail)
