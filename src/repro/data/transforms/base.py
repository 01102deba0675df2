"""Transform protocol and content fingerprints."""

from __future__ import annotations

import hashlib
import math
import numbers

import numpy as np


def array_fingerprint(*arrays: np.ndarray) -> str:
    """Content hash of one or more arrays (dtype + shape + bytes)."""
    digest = hashlib.sha1()
    for arr in arrays:
        arr = np.ascontiguousarray(arr)
        digest.update(str(arr.dtype).encode())
        digest.update(str(arr.shape).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def check_cutoff(cutoff) -> None:
    """Raise ``ValueError`` unless ``cutoff`` is a finite real number > 0."""
    if not (isinstance(cutoff, numbers.Real) and math.isfinite(cutoff) and cutoff > 0):
        raise ValueError(f"cutoff must be finite and > 0, got {cutoff!r}")


class Transform:
    """A deterministic-or-seeded mapping from sample to sample."""

    def __call__(self, sample):
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}()"

    def fingerprint(self) -> str:
        """Stable identity string covering every output-affecting parameter.

        Together with :func:`array_fingerprint` of the input it names a
        transform's output, so a transform whose ``__repr__`` omits
        parameters MUST override this — otherwise two configurations that
        produce different outputs would share one identity.
        """
        return repr(self)
