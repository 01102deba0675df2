"""Transform protocol and composition."""

from __future__ import annotations

import hashlib
import math
import numbers
from typing import Callable, Sequence

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


class Compose(Transform):
    """Apply transforms left to right."""

    def __init__(self, transforms: Sequence[Callable]):
        self.transforms = list(transforms)

    def __call__(self, sample):
        for t in self.transforms:
            sample = t(sample)
        return sample

    def __repr__(self) -> str:
        inner = ", ".join(repr(t) for t in self.transforms)
        return f"Compose([{inner}])"

    def fingerprint(self) -> str:
        """Combine child fingerprints so any stage change changes the identity."""
        inner = ", ".join(
            t.fingerprint() if isinstance(t, Transform) else repr(t)
            for t in self.transforms
        )
        return f"Compose([{inner}])"


class Lambda(Transform):
    """Wrap a plain function as a transform."""

    def __init__(self, fn: Callable, name: str = "lambda"):
        self.fn = fn
        self.name = name

    def __call__(self, sample):
        return self.fn(sample)

    def __repr__(self) -> str:
        return f"Lambda({self.name})"
