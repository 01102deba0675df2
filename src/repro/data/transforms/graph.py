"""Structure / point cloud -> graph conversions.

Graph construction is the step the paper contrasts against point-cloud
models (Sec. 2.1): it imposes connectivity via a radius rule.  Neighbour
search is a ``scipy.spatial.cKDTree`` (O(n log n)) above one tree leaf
(``LEAF_SIZE`` points).  At or below it, the tree would be a single leaf
that scans every pair anyway, so ``radius_graph`` runs that scan in numpy,
with the same pair order and comparison, and never imports scipy: the
crystals the serving, screening and fine-tuning paths see are all that
small.
"""

from __future__ import annotations

import itertools
from typing import Tuple

import numpy as np

from repro.data.structures import GraphSample, Structure
from repro.data.transforms.base import Transform, check_cutoff


#: Points per cKDTree leaf.  Clouds this small are one leaf, whose
#: brute-force scan ``radius_graph`` reproduces in numpy.
LEAF_SIZE = 16

#: ``np.triu_indices(n, 1)`` for every n a single leaf holds: the i < j
#: pairs in the order the leaf scans them.  Recomputing them per call costs
#: more than the tree query they replace.
_LEAF_PAIRS = tuple(np.triu_indices(n, 1) for n in range(LEAF_SIZE + 1))


def radius_graph(positions: np.ndarray, cutoff: float) -> Tuple[np.ndarray, np.ndarray]:
    """Directed edges (src, dst) between all pairs within ``cutoff``.

    Both (i, j) and (j, i) are emitted; self-loops are excluded, matching
    the j != i sum in the E(n)-GNN update.  For 3-D positions of any count
    the edges equal, in value and order, those of
    ``cKDTree(positions, leafsize=LEAF_SIZE).query_pairs``.  Raises ``ValueError`` for a cutoff that is not finite
    and positive, or for non-finite positions.
    """
    check_cutoff(cutoff)
    positions = np.asarray(positions, dtype=np.float64)
    if not np.isfinite(positions).all():
        raise ValueError("positions must be finite")
    n = len(positions)
    if n < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if n <= LEAF_SIZE:
        i, j = _LEAF_PAIRS[n]
        d = np.take(positions, i, axis=0) - np.take(positions, j, axis=0)
        d *= d
        keep = d.sum(axis=1) <= cutoff * cutoff
        first, second = i[keep], j[keep]
    else:
        from scipy.spatial import cKDTree

        pairs = cKDTree(positions, leafsize=LEAF_SIZE).query_pairs(
            r=cutoff, output_type="ndarray"
        )
        first, second = pairs[:, 0], pairs[:, 1]
    src = np.concatenate([first, second]).astype(np.int64, copy=False)
    dst = np.concatenate([second, first]).astype(np.int64, copy=False)
    return src, dst


def periodic_radius_graph(
    positions: np.ndarray,
    cell: np.ndarray,
    cutoff: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Radius graph under periodic boundary conditions.

    Replicates the cell over the 27 neighbouring images, finds pairs between
    the central copy and all images, and folds image indices back to the
    central cell.  Returns (src, dst, displacement_vectors); displacements
    point from src to dst through the minimum image, so downstream distance
    features are PBC-correct even though node indices are cell-local.
    """
    positions = np.asarray(positions, dtype=np.float64)
    cell = np.asarray(cell, dtype=np.float64)
    n = len(positions)
    if n == 0:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros((0, 3)),
        )
    from scipy.spatial import cKDTree

    shifts = np.array(list(itertools.product((-1, 0, 1), repeat=3)), dtype=np.float64)
    image_offsets = shifts @ cell  # (27, 3)
    tiled = (positions[None, :, :] + image_offsets[:, None, :]).reshape(-1, 3)
    tree = cKDTree(tiled)
    central = cKDTree(positions)
    pairs = central.query_ball_tree(tree, r=cutoff)
    src_list, dst_list, disp_list = [], [], []
    for i, neigh in enumerate(pairs):
        for flat in neigh:
            j = flat % n
            if flat == 13 * n + i:  # identity image of the same atom
                continue
            src_list.append(i)
            dst_list.append(j)
            disp_list.append(tiled[flat] - positions[i])
    if not src_list:
        return (
            np.zeros(0, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros((0, 3)),
        )
    return (
        np.asarray(src_list, dtype=np.int64),
        np.asarray(dst_list, dtype=np.int64),
        np.asarray(disp_list, dtype=np.float64),
    )


#: Width of the canonical per-graph state vector u.
GLOBAL_FEATURE_DIM = 4


def global_state_features(species: np.ndarray) -> np.ndarray:
    """Canonical composition descriptor for the MEGNet global stream.

    A structure-level summary computed from the graph's own species only —
    log atom count, mean/spread of atomic number, species diversity — so
    the same graph yields bit-identical u whether prepared alone or inside
    a batch (the serving bit-identity contract).  Both
    :class:`StructureToGraph` (``global_features=True``) and the MEGNet
    encoder's in-model fallback call this one function, keeping the two
    paths interchangeable.
    """
    z = np.asarray(species, dtype=np.float64)
    if z.size == 0:
        return np.zeros(GLOBAL_FEATURE_DIM, dtype=np.float64)
    return np.array(
        [
            np.log1p(float(z.size)),
            z.mean() / 10.0,
            z.std() / 10.0,
            len(np.unique(z)) / 10.0,
        ],
        dtype=np.float64,
    )


class StructureToGraph(Transform):
    """Build a graph sample from a structure with a radius rule."""

    def __init__(
        self,
        cutoff: float = 5.0,
        center: bool = True,
        global_features: bool = False,
    ):
        check_cutoff(cutoff)
        self.cutoff = cutoff
        self.center = center
        self.global_features = global_features

    def fingerprint(self) -> str:
        """Identity covering cutoff, centring, and the global-u flag."""
        return (
            f"StructureToGraph(cutoff={self.cutoff}, "
            f"center={self.center}, global_features={self.global_features})"
        )

    def __call__(self, structure: Structure) -> GraphSample:
        pos = structure.positions
        if self.center:
            pos = pos - pos.mean(axis=0, keepdims=True)
        src, dst = radius_graph(pos, self.cutoff)
        return GraphSample(
            positions=pos,
            species=structure.species.copy(),
            edge_src=src,
            edge_dst=dst,
            global_attr=(
                global_state_features(structure.species)
                if self.global_features
                else None
            ),
            targets=dict(structure.targets),
            metadata=dict(structure.metadata),
        )

    def __repr__(self) -> str:
        return f"StructureToGraph(cutoff={self.cutoff})"
