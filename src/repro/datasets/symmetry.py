"""Synthetic symmetry-group point clouds — the pretraining task (Sec. 3.1).

Each sample is generated by scattering a few seed particles in a spherical
shell and replicating them under every operation of a randomly chosen
crystallographic point group.  The label is the generating group's class
index.  Because positions are random, the dataset can be sampled at
arbitrary scale and uniformly across groups — the property the paper calls
out as an antidote to the selection bias of curated materials datasets.

Samples are generated lazily and deterministically: sample ``i`` of a
dataset with seed ``s`` is always the same point cloud, so DDP ranks and
repeated epochs agree without materializing 2M samples.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.data.dataset import Dataset
from repro.data.structures import Structure
from repro.geometry.operations import random_rotation
from repro.geometry.point_groups import (
    CRYSTAL_POINT_GROUP_NAMES,
    PointGroup,
    crystallographic_point_groups,
)


def merge_coincident(points: np.ndarray, tol: float = 1e-3) -> np.ndarray:
    """Collapse orbit points that coincide (seeds on symmetry elements).

    A seed lying on a mirror plane or rotation axis has a smaller orbit than
    the group order; replication then produces duplicate coordinates which
    must be merged or the cloud would encode multiplicity instead of
    geometry.
    """
    if len(points) <= 1:
        return points
    from scipy.spatial.distance import pdist, squareform

    d = squareform(pdist(points))
    keep = np.ones(len(points), dtype=bool)
    for i in range(len(points)):
        if not keep[i]:
            continue
        close = np.nonzero(d[i] < tol)[0]
        keep[close[close > i]] = False
    return points[keep]


class SymmetryPointCloudDataset(Dataset[Structure]):
    """Lazy generator of labelled symmetry point clouds.

    Parameters
    ----------
    num_samples:
        Virtual dataset length.
    seed:
        Base seed; combined with the sample index for per-sample streams.
    group_names:
        Subset of point groups to sample from (default: all 32).  The class
        index of a sample is its position in this list.
    max_points:
        Caps the seed count at ``max(1, min(max_seeds, max_points // order))``,
        so a cloud holds at most ``max(max_points, order)`` points before
        coincident points merge.  A group whose order exceeds
        ``max_points`` still gets one whole orbit: at ``max_points=32``
        an Oh cloud has 48 points.
    noise_sigma:
        Gaussian jitter applied after replication; breaks exact symmetry the
        way thermal motion does, hardening the classification task.
    random_orientation:
        Apply a Haar-random global rotation.  Off by default (the canonical
        orientation matches how the generation pipeline in the paper builds
        clouds about the z-axis); turning it on upgrades the task from
        orientation-dependent to truly intrinsic symmetry recognition.

    Every particle has the anonymous species 1: the paper's clouds carry no
    chemical signal.
    """

    def __init__(
        self,
        num_samples: int,
        seed: int = 0,
        group_names: Optional[Sequence[str]] = None,
        max_points: int = 64,
        max_seeds: int = 3,
        noise_sigma: float = 0.02,
        radius_range: Tuple[float, float] = (0.8, 2.2),
        random_orientation: bool = False,
    ):
        if num_samples < 1:
            raise ValueError("num_samples must be >= 1")
        if not noise_sigma >= 0:
            raise ValueError(f"noise_sigma must be >= 0, got {noise_sigma!r}")
        self.num_samples = num_samples
        self.seed = seed
        self.group_names = list(group_names or CRYSTAL_POINT_GROUP_NAMES)
        self.groups = crystallographic_point_groups(self.group_names)
        self.max_points = max_points
        self.max_seeds = max_seeds
        self.noise_sigma = noise_sigma
        self.radius_range = radius_range
        self.random_orientation = random_orientation
        self.name = "symmetry"

    @property
    def num_classes(self) -> int:
        return len(self.groups)

    def __len__(self) -> int:
        return self.num_samples

    def _sample_seeds(self, rng: np.random.Generator, group: PointGroup) -> np.ndarray:
        k = max(1, min(self.max_seeds, self.max_points // group.order))
        n_seeds = int(rng.integers(1, k + 1))
        # Uniform direction, radius in a shell away from the origin so seeds
        # rarely sit exactly on symmetry elements.
        directions = rng.normal(size=(n_seeds, 3))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = rng.uniform(*self.radius_range, size=(n_seeds, 1))
        return directions * radii

    def __getitem__(self, index: int) -> Structure:
        if not 0 <= index < self.num_samples:
            raise IndexError(index)
        rng = np.random.default_rng((self.seed, index))
        label = int(rng.integers(0, len(self.groups)))
        group = self.groups[label]
        seeds = self._sample_seeds(rng, group)
        points = group.orbit(seeds)
        points = merge_coincident(points)
        if self.noise_sigma > 0:
            points = points + rng.normal(0.0, self.noise_sigma, size=points.shape)
        points = points - points.mean(axis=0, keepdims=True)
        if self.random_orientation:
            points = points @ random_rotation(rng).T
        return Structure(
            positions=points,
            species=np.ones(len(points), dtype=np.int64),
            targets={"point_group": np.float64(label)},
            metadata={
                "dataset": self.name,
                "group": group.name,
                "order": group.order,
                "index": index,
            },
        )
