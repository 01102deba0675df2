"""Transforms: graph construction, augmentation, normalization.

Graphs come from one radius rule and carry no per-edge feature array; the
encoders read edge geometry from positions.  ``TestKnnGraph`` and
``TestDistanceEdgeFeatures`` keep the names of the k-NN builder and the
radial-basis edge features these ids used to pin; both are gone
(DESIGN.md §3), and the ids now pin the radius graph and the
edge-feature-free encoder input.
"""

import numpy as np
import pytest
from scipy.spatial import cKDTree

from repro.data import GraphSample, PointCloudSample, Structure, collate_graphs
from repro.data.transforms import (
    PermuteNodes,
    StructureToGraph,
    TargetNormalizer,
    periodic_radius_graph,
    radius_graph,
)
from repro.data.transforms.graph import LEAF_SIZE
from repro.datasets import SymmetryPointCloudDataset
from repro.models import EGNN


def square_positions():
    return np.array(
        [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]]
    )


class TestRadiusGraph:
    def test_unit_square(self):
        src, dst = radius_graph(square_positions(), cutoff=1.1)
        # 4 edges of the square, both directions
        assert len(src) == 8
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert (0, 1) in pairs and (1, 0) in pairs
        assert (0, 3) not in pairs  # diagonal excluded

    def test_includes_diagonal_at_larger_cutoff(self):
        src, dst = radius_graph(square_positions(), cutoff=1.5)
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert (0, 3) in pairs

    def test_no_self_loops(self):
        src, dst = radius_graph(np.random.default_rng(0).normal(size=(20, 3)), 2.0)
        assert np.all(src != dst)

    def test_symmetric(self):
        src, dst = radius_graph(np.random.default_rng(1).normal(size=(15, 3)), 1.5)
        fwd = set(zip(src.tolist(), dst.tolist()))
        assert all((j, i) in fwd for i, j in fwd)

    def test_empty_inputs(self):
        src, dst = radius_graph(np.zeros((0, 3)), 1.0)
        assert len(src) == 0
        src, dst = radius_graph(np.zeros((1, 3)), 1.0)
        assert len(src) == 0

    @pytest.mark.parametrize("cutoff", [0.0, -1.0, float("inf"), float("nan"), "2"])
    def test_rejects_bad_cutoff(self, cutoff):
        """The tree squared a negative radius into a positive one, took
        inf as every pair and NaN as none; each is now refused."""
        with pytest.raises(ValueError, match="cutoff"):
            radius_graph(np.random.default_rng(0).normal(size=(5, 3)), cutoff)

    @pytest.mark.parametrize("n", [3, LEAF_SIZE, LEAF_SIZE + 1, 40])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_positions(self, n, bad):
        """On both sides of one leaf: a NaN atom must not vanish from the
        graph silently."""
        pos = np.random.default_rng(n).normal(size=(n, 3))
        pos[n // 2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            radius_graph(pos, 1.5)


def _tree_edges(positions, cutoff):
    pairs = cKDTree(positions, leafsize=LEAF_SIZE).query_pairs(
        r=cutoff, output_type="ndarray"
    )
    return (
        np.concatenate([pairs[:, 0], pairs[:, 1]]).astype(np.int64),
        np.concatenate([pairs[:, 1], pairs[:, 0]]).astype(np.int64),
    )


def _assert_tree_edges(positions, cutoff):
    src, dst = radius_graph(positions, cutoff)
    tree_src, tree_dst = _tree_edges(positions, cutoff)
    assert src.dtype == dst.dtype == np.int64
    assert np.array_equal(src, tree_src) and np.array_equal(dst, tree_dst)


class TestRadiusGraphMatchesTree:
    """Up to ``LEAF_SIZE`` points ``radius_graph`` scans pairs in numpy
    instead of building a one-leaf KD-tree; its edges must equal the
    tree's bit for bit, order included."""

    @pytest.mark.parametrize("n", range(LEAF_SIZE + 1))
    def test_random_clouds(self, n):
        rng = np.random.default_rng(100 + n)
        for _ in range(20):
            positions = rng.normal(size=(n, 3)) * rng.uniform(0.5, 3.0)
            _assert_tree_edges(positions, float(rng.uniform(0.3, 4.0)))

    @pytest.mark.parametrize(
        "cutoff, pairs", [(1.5, 12), (np.nextafter(1.5, 0.0), 0), (1.5 * np.sqrt(2), 24)]
    )
    def test_lattice_pairs_at_the_cutoff(self, cutoff, pairs):
        """A 2x2x2 cube of side 1.5: twelve edges sit exactly at 1.5 and
        twelve face diagonals at 1.5 * sqrt(2)."""
        cube = 1.5 * np.array(np.meshgrid(*[np.arange(2.0)] * 3, indexing="ij")).reshape(3, -1).T
        _assert_tree_edges(cube, cutoff)
        assert len(radius_graph(cube, cutoff)[0]) == 2 * pairs

    def test_summation_order_at_the_cutoff(self):
        """The tree sums squared components left to right: here that sum
        equals cutoff**2 exactly, while x**2 + (y**2 + z**2) exceeds it."""
        positions = np.array([[0.0, 0.0, 0.0], [2.02, -1.065, 0.373]])
        _assert_tree_edges(positions, 2.313818056805677)
        assert len(radius_graph(positions, 2.313818056805677)[0]) == 2

    @pytest.mark.parametrize("n", [2, 7, LEAF_SIZE, LEAF_SIZE + 1])
    def test_coincident_atoms(self, n):
        positions = np.random.default_rng(n).normal(size=(n, 3))
        positions[1] = positions[0]
        positions[-1] = positions[0]
        _assert_tree_edges(positions, 0.5)
        _assert_tree_edges(np.zeros((n, 3)), 0.5)


class TestKnnGraph:
    def test_out_degree(self):
        """Each atom's out-degree is its count of neighbours within the
        cutoff: 3 at a corner of a cubic grid, 4 on an edge, 5 on a face,
        6 inside."""
        grid = np.array(np.meshgrid(*[np.arange(3.0)] * 3, indexing="ij")).reshape(3, -1).T
        g = StructureToGraph(cutoff=1.1)(Structure(grid, np.ones(27)))
        degree = np.bincount(g.edge_src, minlength=27)
        boundary = ((grid == 0) | (grid == 2)).sum(axis=1)
        assert np.array_equal(degree, 6 - boundary)

    def test_k_clamped_to_n_minus_one(self):
        """A cutoff wider than the structure gives the complete graph."""
        pos = np.random.default_rng(0).normal(size=(5, 3))
        g = StructureToGraph(cutoff=100.0)(Structure(pos, np.ones(5)))
        assert g.num_edges == 5 * 4
        assert np.all(np.bincount(g.edge_src, minlength=5) == 4)

    def test_nearest_is_selected(self):
        """At a cutoff between the two spacings only the near pair is
        joined; the far atom stays isolated."""
        pos = np.array([[0.0, 0, 0], [1.0, 0, 0], [5.0, 0, 0]])
        g = StructureToGraph(cutoff=1.5)(Structure(pos, np.ones(3)))
        assert set(zip(g.edge_src.tolist(), g.edge_dst.tolist())) == {(0, 1), (1, 0)}

    def test_single_point(self):
        """A one-atom structure is one node with no edges, and collates."""
        g = StructureToGraph(cutoff=2.0)(Structure(np.zeros((1, 3)), np.ones(1)))
        assert g.num_nodes == 1 and g.num_edges == 0
        batch = collate_graphs([g, g])
        assert batch.num_nodes == 2 and batch.num_edges == 0


class TestPeriodicRadiusGraph:
    def test_finds_image_neighbours(self):
        cell = np.eye(3) * 10.0
        pos = np.array([[0.5, 5.0, 5.0], [9.5, 5.0, 5.0]])
        src, dst, disp = periodic_radius_graph(pos, cell, cutoff=2.0)
        pairs = set(zip(src.tolist(), dst.tolist()))
        assert (0, 1) in pairs
        # Displacement goes through the boundary: length 1, not 9.
        d01 = disp[(src == 0) & (dst == 1)]
        assert np.isclose(np.linalg.norm(d01, axis=1).min(), 1.0)

    def test_self_image_interaction(self):
        """An atom can neighbour its own periodic image in a small cell."""
        cell = np.eye(3) * 2.0
        pos = np.array([[1.0, 1.0, 1.0]])
        src, dst, disp = periodic_radius_graph(pos, cell, cutoff=2.1)
        assert len(src) >= 6  # six face images
        assert np.all(src == 0) and np.all(dst == 0)

    def test_empty(self):
        src, dst, disp = periodic_radius_graph(np.zeros((0, 3)), np.eye(3), 1.0)
        assert len(src) == 0 and disp.shape == (0, 3)


class TestConversionTransforms:
    def make_structure(self):
        return Structure(
            positions=square_positions() + 5.0,
            species=np.array([1, 2, 3, 4]),
            targets={"y": np.float64(2.0)},
            metadata={"dataset": "toy"},
        )

    def test_structure_to_graph_centers(self):
        g = StructureToGraph(cutoff=1.1)(self.make_structure())
        assert isinstance(g, GraphSample)
        assert np.allclose(g.positions.mean(axis=0), 0.0)
        assert g.num_edges == 8
        assert g.targets["y"] == 2.0
        assert g.metadata["dataset"] == "toy"

    def test_structure_to_graph_knn_mode(self):
        """``center=False`` keeps the input coordinates; the edges are those
        of the centred graph (the radius rule is translation-invariant)."""
        structure = self.make_structure()
        raw = StructureToGraph(cutoff=1.1, center=False)(structure)
        centred = StructureToGraph(cutoff=1.1)(structure)
        assert np.array_equal(raw.positions, structure.positions)
        assert np.array_equal(raw.edge_src, centred.edge_src)
        assert np.array_equal(raw.edge_dst, centred.edge_dst)

    def test_structure_to_point_cloud(self):
        """Every atom of the structure is a node, species carried over."""
        g = StructureToGraph(cutoff=1e-9)(self.make_structure())
        assert g.num_nodes == 4 and g.num_edges == 0
        assert np.array_equal(g.species, [1, 2, 3, 4])

    def test_point_cloud_to_graph(self):
        """The graph owns copies: editing its species, targets or metadata
        cannot reach the structure."""
        structure = self.make_structure()
        g = StructureToGraph(cutoff=1.1)(structure)
        g.species[:] = 0
        g.targets["y"] = -1.0
        g.metadata["dataset"] = "edited"
        assert np.array_equal(structure.species, [1, 2, 3, 4])
        assert structure.targets["y"] == 2.0
        assert structure.metadata["dataset"] == "toy"

    def test_compose_and_lambda(self):
        """Transforms chain as plain callables: graph, permute, normalize."""
        rng = np.random.default_rng(3)
        graph = StructureToGraph(cutoff=1.1)(self.make_structure())
        norm = TargetNormalizer(["y"])
        norm.stats["y"] = (1.0, 2.0)
        out = norm(PermuteNodes(rng)(graph))
        assert isinstance(out, GraphSample)
        assert out.num_edges == graph.num_edges
        assert sorted(out.species.tolist()) == [1, 2, 3, 4]
        assert out.targets["y"] == pytest.approx(0.5)
        assert repr(StructureToGraph(cutoff=1.1)) == "StructureToGraph(cutoff=1.1)"


class TestAugments:
    """Centring, orientation and noise are applied where samples are made:
    ``StructureToGraph(center=True)`` and the pretraining set's own
    ``random_orientation`` / ``noise_sigma`` draws."""

    def test_center(self, rng):
        structure = Structure(positions=rng.normal(size=(6, 3)) + 3.0, species=np.arange(1, 7))
        out = StructureToGraph(cutoff=1.0)(structure)
        assert np.allclose(out.positions.mean(axis=0), 0.0)

    def test_random_rotation_preserves_distances(self):
        from scipy.spatial.distance import pdist

        sample = SymmetryPointCloudDataset(1, seed=4, group_names=["C2"])[0]
        out = SymmetryPointCloudDataset(
            1, seed=4, group_names=["C2"], random_orientation=True
        )[0]
        assert np.allclose(pdist(sample.positions), pdist(out.positions))
        assert not np.allclose(sample.positions, out.positions)

    def test_gaussian_noise_scale(self):
        def cloud(sigma):
            return SymmetryPointCloudDataset(1, seed=5, noise_sigma=sigma)[0].positions

        exact = cloud(0.0)
        noisy = cloud(0.01)
        assert 0.0 < np.abs(noisy - exact).max() < 0.1
        assert np.array_equal(cloud(0.0), exact)

    def test_noise_rejects_negative_sigma(self):
        for bad in (-1.0, float("nan")):
            with pytest.raises(ValueError, match="noise_sigma"):
                SymmetryPointCloudDataset(4, noise_sigma=bad)

    def test_permute_preserves_graph_connectivity(self, rng):
        pos = rng.normal(size=(5, 3))
        g = GraphSample(
            positions=pos,
            species=np.arange(5),
            edge_src=np.array([0, 1, 2]),
            edge_dst=np.array([1, 2, 3]),
        )
        out = PermuteNodes(rng)(g)
        # Each original edge (i, j) must map to an edge connecting the same
        # two points (identified by coordinates).
        for s, d in zip(out.edge_src, out.edge_dst):
            p_s, p_d = out.positions[s], out.positions[d]
            orig_pairs = [
                (pos[i], pos[j]) for i, j in zip([0, 1, 2], [1, 2, 3])
            ]
            assert any(
                np.allclose(p_s, a) and np.allclose(p_d, b) for a, b in orig_pairs
            )


class TestDistanceEdgeFeatures:
    def test_rbf_shape_and_peak(self):
        """EGNN messages see distance only as the squared edge length: the
        message MLP's input is ``2 * hidden + 1`` wide."""
        enc = EGNN(hidden_dim=8, num_layers=2, position_dim=4, rng=np.random.default_rng(0))
        for layer in enc.layers:
            assert layer.phi_e[0].in_features == 2 * 8 + 1
        g = StructureToGraph(cutoff=2.0)(
            Structure(np.array([[0.0, 0, 0], [1.5, 0, 0]]), np.array([1, 2]))
        )
        out = enc(collate_graphs([g]))
        assert out.graph_embedding.shape == (1, 8)

    def test_empty_edges(self):
        """A batch of edgeless graphs runs through EGNN's isolated-node path
        and leaves coordinates where they were."""
        g = StructureToGraph(cutoff=1e-9)(Structure(np.eye(3), np.array([1, 2, 3])))
        batch = collate_graphs([g, g])
        assert batch.num_edges == 0
        enc = EGNN(hidden_dim=8, num_layers=2, position_dim=4, rng=np.random.default_rng(0))
        out = enc(batch)
        assert out.graph_embedding.shape == (2, 8)
        assert np.array_equal(out.coordinate_update.data, np.zeros((6, 3)))


class TestTargetNormalizer:
    def make_samples(self, values):
        return [
            PointCloudSample(np.zeros((1, 3)), np.ones(1), targets={"y": np.float64(v)})
            for v in values
        ]

    def test_fit_and_apply(self):
        samples = self.make_samples([0.0, 2.0, 4.0])
        norm = TargetNormalizer(["y"]).fit(samples)
        mean, std = norm.stats["y"]
        assert mean == pytest.approx(2.0)
        out = norm(samples[0])
        assert out.targets["y"] == pytest.approx((0.0 - mean) / std)

    def test_denormalize_roundtrip(self):
        samples = self.make_samples([1.0, 5.0, 9.0])
        norm = TargetNormalizer(["y"]).fit(samples)
        z = norm(samples[1]).targets["y"]
        assert norm.denormalize("y", z) == pytest.approx(5.0)

    def test_nan_targets_ignored_in_fit(self):
        samples = self.make_samples([1.0, 3.0])
        samples.append(
            PointCloudSample(np.zeros((1, 3)), np.ones(1), targets={"y": np.float64("nan")})
        )
        norm = TargetNormalizer(["y"]).fit(samples)
        assert norm.stats["y"][0] == pytest.approx(2.0)

    def test_unfitted_raises(self):
        norm = TargetNormalizer(["y"])
        with pytest.raises(RuntimeError):
            norm(self.make_samples([1.0])[0])

    def test_missing_target_raises_on_fit(self):
        with pytest.raises(ValueError):
            TargetNormalizer(["z"]).fit(self.make_samples([1.0]))

    def test_constant_target_gets_unit_scale(self):
        norm = TargetNormalizer(["y"]).fit(self.make_samples([2.0, 2.0, 2.0]))
        assert norm.scale_of("y") == 1.0
