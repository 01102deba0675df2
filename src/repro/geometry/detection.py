"""Point-group detection: identify the symmetry group of a point cloud.

The inverse of the synthetic-data generator: given particle positions (in
the generator's canonical orientation, principal axis = z), find the
largest crystallographic point group whose every operation maps the cloud
onto itself within a tolerance.  Used to audit the pretraining dataset
(every generated cloud's label must be a subgroup of its detected group —
seeds that accidentally land on symmetry elements can only *raise* the
symmetry) and available as a library utility for users' own structures.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.geometry.point_groups import (
    PointGroup,
    crystallographic_point_groups,
)


def is_invariant_under(
    points: np.ndarray, operation: np.ndarray, tol: float = 1e-3
) -> bool:
    """True when ``operation`` maps the point set onto itself.

    Matches each transformed point to its nearest original; the set is
    invariant when every match is within ``tol`` AND the matching is a
    bijection (no two transformed points claiming one original).
    """
    points = np.asarray(points, dtype=np.float64)
    if len(points) == 0:
        return True
    from scipy.spatial import cKDTree

    transformed = points @ np.asarray(operation, dtype=np.float64).T
    tree = cKDTree(points)
    dist, idx = tree.query(transformed, k=1)
    if np.any(dist > tol):
        return False
    return len(np.unique(idx)) == len(points)


def symmetry_operations_of(
    points: np.ndarray, group: PointGroup, tol: float = 1e-3
) -> int:
    """Number of the group's operations that leave the cloud invariant."""
    return sum(1 for op in group.operations if is_invariant_under(points, op, tol))


def detect_point_group(
    points: np.ndarray,
    candidates: Optional[Sequence[str]] = None,
    tol: float = 1e-3,
    center: bool = True,
) -> PointGroup:
    """Largest crystallographic point group the cloud is invariant under.

    Parameters
    ----------
    points:
        (n, 3) coordinates in the canonical orientation (principal axis z,
        mirrors/2-fold axes as the generator places them).  Detection is
        orientation-dependent by design — reorienting arbitrary structures
        is a separate (much harder) problem.
    candidates:
        Group names to test; defaults to all 32.
    tol:
        Geometric matching tolerance.  Should exceed any noise the cloud
        carries (the dataset default noise is sigma = 0.02, so tol ~ 0.1
        suits generated data).

    Returns the highest-order invariant group; ties break toward the group
    listed first in the canonical name order.  C1 (order 1) always matches,
    so a group is always returned.
    """
    points = np.asarray(points, dtype=np.float64)
    if center and len(points):
        points = points - points.mean(axis=0, keepdims=True)
    groups = crystallographic_point_groups(
        list(candidates) if candidates is not None else None
    )
    best: Optional[PointGroup] = None
    for group in groups:
        if best is not None and group.order <= best.order:
            continue
        if symmetry_operations_of(points, group, tol) == group.order:
            best = group
    if best is None:  # only possible with a restricted candidate list
        raise ValueError("no candidate group leaves the cloud invariant")
    return best
