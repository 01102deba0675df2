"""Core data records exchanged along the pipeline.

``Structure`` is the dataset-level record (what a materials database row
holds); ``GraphSample``/``PointCloudSample`` are model-facing
representations produced by transforms; ``GraphBatch`` is the collated form
the encoders consume (PyG-style disjoint-union batching).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.geometry.lattice import Lattice


@dataclass
class Structure:
    """A material structure plus its labels.

    Attributes
    ----------
    positions:
        Cartesian coordinates, shape (n_atoms, 3), angstrom.
    species:
        Integer atomic numbers, shape (n_atoms,).  For the synthetic
        pretraining task these are all 1 (anonymous particles).
    lattice:
        Periodic cell, or None for molecules/point clouds.
    targets:
        Scalar or array labels keyed by target name (e.g. ``"band_gap"``).
    metadata:
        Free-form provenance (dataset name, generating point group, ...).
    """

    positions: np.ndarray
    species: np.ndarray
    lattice: Optional[Lattice] = None
    targets: Dict[str, np.ndarray] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.positions = np.asarray(self.positions, dtype=np.float64)
        self.species = np.asarray(self.species, dtype=np.int64)
        if self.positions.ndim != 2 or self.positions.shape[1] != 3:
            raise ValueError(f"positions must be (n, 3), got {self.positions.shape}")
        if self.species.shape != (self.positions.shape[0],):
            raise ValueError(
                f"species shape {self.species.shape} does not match "
                f"{self.positions.shape[0]} atoms"
            )

    @property
    def num_atoms(self) -> int:
        return len(self.positions)

    def centered(self) -> "Structure":
        """Return a copy translated so the centroid sits at the origin."""
        return Structure(
            positions=self.positions - self.positions.mean(axis=0, keepdims=True),
            species=self.species.copy(),
            lattice=self.lattice,
            targets=dict(self.targets),
            metadata=dict(self.metadata),
        )


@dataclass
class PointCloudSample:
    """Model input in point-cloud representation (no imposed connectivity)."""

    positions: np.ndarray
    species: np.ndarray
    targets: Dict[str, np.ndarray] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def num_points(self) -> int:
        return len(self.positions)


@dataclass
class GraphSample:
    """Model input in graph representation.

    ``edge_src``/``edge_dst`` index into the sample's own nodes; directed
    edges, with both directions present for undirected connectivity.
    ``global_attr`` optionally carries a per-graph state vector u, shape
    (gdim,) (the MEGNet global stream's input).
    """

    positions: np.ndarray
    species: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    global_attr: Optional[np.ndarray] = None
    targets: Dict[str, np.ndarray] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        self.edge_src = np.asarray(self.edge_src, dtype=np.int64)
        self.edge_dst = np.asarray(self.edge_dst, dtype=np.int64)
        n = len(self.positions)
        if self.edge_src.size and (self.edge_src.max() >= n or self.edge_dst.max() >= n):
            raise ValueError("edge index out of range")

    @property
    def num_nodes(self) -> int:
        return len(self.positions)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)


@dataclass
class GraphBatch:
    """Disjoint union of graphs, plus per-node graph assignment.

    ``node_graph`` maps each node to its graph index (0..num_graphs-1), the
    segment ids for sum pooling.  ``targets`` hold stacked per-graph labels.
    ``global_attr`` stacks the samples' per-graph state vectors u into
    (num_graphs, gdim) when every sample carries one.
    """

    positions: np.ndarray
    species: np.ndarray
    edge_src: np.ndarray
    edge_dst: np.ndarray
    node_graph: np.ndarray
    num_graphs: int
    global_attr: Optional[np.ndarray] = None
    targets: Dict[str, np.ndarray] = field(default_factory=dict)
    metadata: Dict[str, object] = field(default_factory=dict)

    @property
    def num_nodes(self) -> int:
        return len(self.positions)

    @property
    def num_edges(self) -> int:
        return len(self.edge_src)
