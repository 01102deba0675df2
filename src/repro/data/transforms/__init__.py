"""Representation transforms (the middle block of the paper's Fig. 1).

Transforms are callables ``sample -> sample`` composed with
:class:`Compose`; they build graphs from structures or point clouds and
attach the features (distance expansions, normalized targets) the
downstream task requires.
"""

from repro.data.transforms.base import Transform, Compose, Lambda
from repro.data.transforms.graph import (
    StructureToGraph,
    PointCloudToGraph,
    radius_graph,
    knn_graph,
    periodic_radius_graph,
)
from repro.data.transforms.augment import PermuteNodes
from repro.data.transforms.features import DistanceEdgeFeatures, TargetNormalizer

__all__ = [
    "Transform",
    "Compose",
    "Lambda",
    "StructureToGraph",
    "PointCloudToGraph",
    "radius_graph",
    "knn_graph",
    "periodic_radius_graph",
    "PermuteNodes",
    "DistanceEdgeFeatures",
    "TargetNormalizer",
]
