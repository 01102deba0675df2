"""Node-permutation augment: the harness for encoder invariance claims.

Position noise and random orientation, the pretraining task's augments,
are drawn inside :class:`repro.datasets.SymmetryPointCloudDataset` from
each sample's own seed stream.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Union

import numpy as np

from repro.data.structures import GraphSample, PointCloudSample, Structure
from repro.data.transforms.base import Transform

SampleT = Union[Structure, PointCloudSample, GraphSample]


class PermuteNodes(Transform):
    """Randomly permute node order (tests permutation invariance).

    For graph samples the edge indices are remapped through the permutation
    so connectivity is preserved.
    """

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def __call__(self, sample: SampleT) -> SampleT:
        n = len(sample.positions)
        perm = self.rng.permutation(n)
        inverse = np.argsort(perm)
        if isinstance(sample, GraphSample):
            return replace(
                sample,
                positions=sample.positions[perm],
                species=sample.species[perm],
                edge_src=inverse[sample.edge_src],
                edge_dst=inverse[sample.edge_dst],
            )
        return replace(
            sample,
            positions=sample.positions[perm],
            species=sample.species[perm],
        )
