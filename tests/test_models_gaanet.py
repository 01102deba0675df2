"""Geometric attention encoder: invariances and pair enumeration."""

import copy

import numpy as np
import pytest

from repro.data import collate_graphs
from repro.data.transforms import PermuteNodes, StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.geometry.operations import random_rotation
from repro.models import GeometricAttentionEncoder, build_encoder
from repro.models.gaanet import all_pairs_within_graphs


def make_batch(seed=0, n_samples=2):
    ds = SymmetryPointCloudDataset(
        n_samples, seed=seed, group_names=["C2", "C4"], max_points=12
    )
    tf = StructureToGraph(cutoff=2.5)
    return collate_graphs([tf(ds[i]) for i in range(n_samples)])


class TestPairEnumeration:
    def test_all_ordered_pairs_per_graph(self):
        node_graph = np.array([0, 0, 0, 1, 1])
        src, dst = all_pairs_within_graphs(node_graph)
        assert len(src) == 3 * 2 + 2 * 1
        # No pair crosses graphs.
        assert np.all(node_graph[src] == node_graph[dst])
        assert np.all(src != dst)

    def test_singleton_graph_has_no_pairs(self):
        src, dst = all_pairs_within_graphs(np.array([0, 1, 1]))
        assert len(src) == 2

    def test_empty(self):
        src, dst = all_pairs_within_graphs(np.array([], dtype=np.int64))
        assert len(src) == 0

    @staticmethod
    def _loop_oracle(node_graph):
        """The per-graph loop the vectorised index replaced."""
        src_list, dst_list = [], []
        for g in np.unique(node_graph):
            nodes = np.nonzero(node_graph == g)[0]
            n = len(nodes)
            if n < 2:
                continue
            grid_i, grid_j = np.meshgrid(nodes, nodes, indexing="ij")
            mask = ~np.eye(n, dtype=bool)
            src_list.append(grid_i[mask])
            dst_list.append(grid_j[mask])
        if not src_list:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        return np.concatenate(src_list), np.concatenate(dst_list)

    def test_equals_the_per_graph_loop(self):
        """Bit-equal to the loop, order included, on sorted and unsorted
        graph ids, skipped ids (empty graphs) and singletons."""
        rng = np.random.default_rng(0)
        for trial in range(300):
            node_graph = rng.integers(0, int(rng.integers(1, 10)), size=int(rng.integers(0, 40)))
            if trial % 2:
                node_graph = np.sort(node_graph)
            src, dst = all_pairs_within_graphs(node_graph)
            want_src, want_dst = self._loop_oracle(node_graph)
            assert src.dtype == dst.dtype == np.int64
            assert np.array_equal(src, want_src) and np.array_equal(dst, want_dst)


class TestInvariance:
    def test_rotation_and_translation(self, rng):
        model = GeometricAttentionEncoder(hidden_dim=8, num_layers=2, num_species=4, rng=rng)
        batch = make_batch(seed=1)
        rot = random_rotation(rng)
        moved = copy.deepcopy(batch)
        moved.positions = batch.positions @ rot.T + 7.5
        assert np.allclose(
            model(batch).graph_embedding.data,
            model(moved).graph_embedding.data,
            atol=1e-9,
        )

    def test_permutation(self, rng):
        model = GeometricAttentionEncoder(hidden_dim=8, num_layers=1, num_species=4, rng=rng)
        ds = SymmetryPointCloudDataset(1, seed=4, group_names=["C4"], max_points=12)
        tf = StructureToGraph(cutoff=2.5)
        sample = tf(ds[0])
        permuted = PermuteNodes(rng)(sample)
        assert np.allclose(
            model(collate_graphs([sample])).graph_embedding.data,
            model(collate_graphs([permuted])).graph_embedding.data,
            atol=1e-9,
        )

    def test_ignores_imposed_edges(self, rng):
        """The point-cloud encoder must not depend on graph connectivity."""
        model = GeometricAttentionEncoder(hidden_dim=8, num_layers=1, num_species=4, rng=rng)
        batch = make_batch(seed=2)
        stripped = copy.deepcopy(batch)
        stripped.edge_src = np.zeros(0, dtype=np.int64)
        stripped.edge_dst = np.zeros(0, dtype=np.int64)
        assert np.allclose(
            model(batch).graph_embedding.data,
            model(stripped).graph_embedding.data,
        )


class TestMisc:
    def test_gradients_flow(self, rng):
        model = GeometricAttentionEncoder(hidden_dim=8, num_layers=2, num_species=4, rng=rng)
        out = model(make_batch(seed=3))
        (out.graph_embedding * out.graph_embedding).sum().backward()
        grads = [p.grad is not None for p in model.parameters()]
        assert all(grads)

    def test_registry_builds_both(self, rng):
        assert isinstance(build_encoder("gaanet", hidden_dim=8, rng=rng), GeometricAttentionEncoder)
        with pytest.raises(KeyError):
            build_encoder("transformer")

    def test_rejects_zero_layers(self, rng):
        with pytest.raises(ValueError):
            GeometricAttentionEncoder(num_layers=0, rng=rng)
