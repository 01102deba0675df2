"""Symmetry and crystal-geometry substrate.

Provides the 3-D orthogonal symmetry operations and the 32 crystallographic
point groups that the paper's synthetic pretraining task samples from, plus
Bravais-lattice utilities used by the surrogate materials datasets.
"""

from repro.geometry.operations import (
    identity,
    inversion,
    rotation_matrix,
    reflection_matrix,
    improper_rotation,
    is_orthogonal,
    canonical_key,
    random_rotation,
)
from repro.geometry.point_groups import (
    PointGroup,
    build_point_group,
    crystallographic_point_groups,
    CRYSTAL_POINT_GROUP_NAMES,
    POINT_GROUP_ORDERS,
)
from repro.geometry.detection import (
    detect_point_group,
    is_invariant_under,
    symmetry_operations_of,
)
from repro.geometry.lattice import (
    Lattice,
    BRAVAIS_FAMILIES,
    random_lattice,
    fractional_to_cartesian,
    image_distances,
    minimum_image_distances,
    supercell,
)

__all__ = [
    "identity",
    "inversion",
    "rotation_matrix",
    "reflection_matrix",
    "improper_rotation",
    "is_orthogonal",
    "canonical_key",
    "random_rotation",
    "PointGroup",
    "build_point_group",
    "detect_point_group",
    "is_invariant_under",
    "symmetry_operations_of",
    "crystallographic_point_groups",
    "CRYSTAL_POINT_GROUP_NAMES",
    "POINT_GROUP_ORDERS",
    "Lattice",
    "BRAVAIS_FAMILIES",
    "random_lattice",
    "fractional_to_cartesian",
    "image_distances",
    "minimum_image_distances",
    "supercell",
]
