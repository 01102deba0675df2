"""Representation transforms (the middle block of the paper's Fig. 1).

Transforms are callables ``sample -> sample``; they build graphs from
structures and attach what the downstream task requires (normalized
targets, the MEGNet global state).
"""

from repro.data.transforms.base import Transform
from repro.data.transforms.graph import (
    StructureToGraph,
    radius_graph,
    periodic_radius_graph,
)
from repro.data.transforms.augment import PermuteNodes
from repro.data.transforms.features import TargetNormalizer

__all__ = [
    "Transform",
    "StructureToGraph",
    "radius_graph",
    "periodic_radius_graph",
    "PermuteNodes",
    "TargetNormalizer",
]
