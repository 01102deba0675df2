"""Data layer: structures, datasets, splits, collation, loaders."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    ConcatDataset,
    DataLoader,
    GraphSample,
    InMemoryDataset,
    Structure,
    Subset,
    collate_graphs,
    train_val_split,
)
from repro.core.pipeline import make_train_loader
from repro.data.loaders import RandomSampler, SequentialSampler
from repro.distributed import DDPStrategy


def make_structure(n=4, seed=0, **targets):
    rng = np.random.default_rng(seed)
    return Structure(
        positions=rng.normal(size=(n, 3)),
        species=rng.integers(1, 5, size=n),
        targets={k: np.float64(v) for k, v in targets.items()},
        metadata={"dataset": "toy"},
    )


def make_graph_sample(n=4, e=6, seed=0, **targets):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, n, size=e)
    dst = (src + 1 + rng.integers(0, n - 1, size=e)) % n
    return GraphSample(
        positions=rng.normal(size=(n, 3)),
        species=rng.integers(1, 5, size=n),
        edge_src=src,
        edge_dst=dst,
        targets={k: np.float64(v) for k, v in targets.items()},
        metadata={"dataset": "toy"},
    )


class TestStructure:
    def test_validates_shapes(self):
        with pytest.raises(ValueError):
            Structure(positions=np.zeros((3, 2)), species=np.zeros(3))
        with pytest.raises(ValueError):
            Structure(positions=np.zeros((3, 3)), species=np.zeros(4))

    def test_centered(self):
        s = make_structure(5, seed=1)
        c = s.centered()
        assert np.allclose(c.positions.mean(axis=0), 0.0)
        assert c.num_atoms == 5

    def test_graph_sample_edge_validation(self):
        with pytest.raises(ValueError):
            GraphSample(
                positions=np.zeros((2, 3)),
                species=np.zeros(2),
                edge_src=np.array([0]),
                edge_dst=np.array([5]),
            )


class TestDatasets:
    def test_in_memory_basics(self):
        ds = InMemoryDataset([1, 2, 3], name="x")
        assert len(ds) == 3
        assert list(ds) == [1, 2, 3]

    def test_subset_view(self):
        ds = InMemoryDataset(list(range(10)))
        sub = Subset(ds, [9, 0, 5])
        assert len(sub) == 3
        assert [sub[i] for i in range(3)] == [9, 0, 5]

    def test_concat_indexing_and_provenance(self):
        a = InMemoryDataset([10, 11], name="a")
        b = InMemoryDataset([20, 21, 22], name="b")
        cat = ConcatDataset([a, b])
        assert len(cat) == 5
        assert cat[0] == 10 and cat[2] == 20 and cat[4] == 22
        assert cat[-1] == 22
        assert cat.source_of(1) == (0, "a")
        assert cat.source_of(3) == (1, "b")
        with pytest.raises(IndexError):
            cat[5]

    def test_concat_requires_nonempty(self):
        with pytest.raises(ValueError):
            ConcatDataset([])

    def test_materialize_preserves_name(self):
        ds = InMemoryDataset([1], name="named")
        assert ds.materialize().name == "named"


class TestSplits:
    def test_disjoint_and_complete(self, rng):
        ds = InMemoryDataset(list(range(100)))
        train, val = train_val_split(ds, 0.2, rng)
        ids = set(train.indices) | set(val.indices)
        assert len(train) == 80 and len(val) == 20
        assert ids == set(range(100))
        assert not set(train.indices) & set(val.indices)

    def test_deterministic_given_seed(self):
        ds = InMemoryDataset(list(range(50)))
        a = train_val_split(ds, 0.3, np.random.default_rng(5))
        b = train_val_split(ds, 0.3, np.random.default_rng(5))
        assert a[0].indices == b[0].indices

    def test_three_way(self, rng):
        """A test split is a second ``train_val_split`` of the training part."""
        ds = InMemoryDataset(list(range(100)))
        rest, te = train_val_split(ds, 0.1, rng)
        tr, va = train_val_split(rest, 2 / 9, rng)
        assert len(tr) == 70 and len(va) == 20 and len(te) == 10
        parts = [set(tr), set(va), set(te)]
        assert set().union(*parts) == set(range(100))
        assert not (parts[0] & parts[1] or parts[0] & parts[2] or parts[1] & parts[2])

    def test_invalid_fraction(self, rng):
        ds = InMemoryDataset(list(range(10)))
        with pytest.raises(ValueError):
            train_val_split(ds, 1.5, rng)
        with pytest.raises(ValueError):
            train_val_split(ds, 0.0, rng)
        with pytest.raises(ValueError, match="no training samples"):
            train_val_split(InMemoryDataset([0]), 0.5, rng)


class TestCollation:
    def test_node_and_edge_offsets(self):
        s1 = make_graph_sample(3, 4, seed=1, y=1.0)
        s2 = make_graph_sample(5, 6, seed=2, y=2.0)
        batch = collate_graphs([s1, s2])
        assert batch.num_nodes == 8
        assert batch.num_edges == 10
        assert batch.num_graphs == 2
        # second sample's edges shifted by 3
        assert batch.edge_src[4:].min() >= 3
        assert np.allclose(batch.node_graph, [0, 0, 0, 1, 1, 1, 1, 1])
        assert np.allclose(batch.targets["y"], [1.0, 2.0])

    def test_missing_targets_become_nan(self):
        s1 = make_graph_sample(2, 2, seed=1, a=1.0)
        s2 = make_graph_sample(2, 2, seed=2, b=2.0)
        batch = collate_graphs([s1, s2])
        assert np.isnan(batch.targets["a"][1])
        assert np.isnan(batch.targets["b"][0])

    def test_array_targets_concatenate(self):
        s1 = make_graph_sample(2, 2, seed=1)
        s2 = make_graph_sample(3, 2, seed=2)
        s1.targets["forces"] = np.ones((2, 3))
        s2.targets["forces"] = np.zeros((3, 3))
        batch = collate_graphs([s1, s2])
        assert batch.targets["forces"].shape[0] == 5

    def test_dataset_metadata_propagates(self):
        batch = collate_graphs([make_graph_sample(seed=1), make_graph_sample(seed=2)])
        assert list(batch.metadata["dataset"]) == ["toy", "toy"]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            collate_graphs([])

    def test_point_cloud_collation(self):
        """Point clouds batch as edgeless graphs: ``node_graph`` alone
        carries membership, which is all GAANet's attention reads."""
        no_edges = np.zeros(0, dtype=np.int64)
        pc1 = GraphSample(np.zeros((2, 3)), np.ones(2), no_edges, no_edges, targets={"y": 1.0})
        pc2 = GraphSample(np.ones((3, 3)), np.ones(3), no_edges, no_edges, targets={"y": 2.0})
        batch = collate_graphs([pc1, pc2])
        assert batch.num_nodes == 5
        assert batch.num_edges == 0
        assert np.allclose(batch.node_graph, [0, 0, 1, 1, 1])


class TestLoaders:
    def test_sequential_batching(self):
        ds = InMemoryDataset(list(range(10)))
        loader = DataLoader(ds, batch_size=3, collate_fn=list)
        batches = list(loader)
        assert len(batches) == 4
        assert batches[0] == [0, 1, 2]
        assert batches[-1] == [9]
        assert len(loader) == 4

    def test_drop_last(self):
        ds = InMemoryDataset(list(range(10)))
        loader = DataLoader(ds, batch_size=3, collate_fn=list, drop_last=True)
        assert len(list(loader)) == 3
        assert len(loader) == 3

    def test_shuffle_permutes_and_covers(self, rng):
        ds = InMemoryDataset(list(range(20)))
        loader = DataLoader(ds, batch_size=20, shuffle=True, rng=rng, collate_fn=list)
        batch = next(iter(loader))
        assert sorted(batch) == list(range(20))
        assert batch != list(range(20))  # astronomically unlikely to be sorted

    def test_shuffle_and_sampler_mutually_exclusive(self, rng):
        ds = InMemoryDataset([1, 2])
        from repro.data.loaders import SequentialSampler

        with pytest.raises(ValueError):
            DataLoader(ds, 1, sampler=SequentialSampler(ds), shuffle=True)

    def test_transform_applied(self):
        ds = InMemoryDataset([1, 2, 3])
        loader = DataLoader(ds, batch_size=3, collate_fn=list, transform=lambda x: x * 10)
        assert next(iter(loader)) == [10, 20, 30]

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(InMemoryDataset([1]), batch_size=0)


class TestDistributedSampler:
    """Rank sharding lives in ``DDPStrategy.shard``; the loader's samplers
    only order the global batch.  (The class keeps the name of the rank
    sampler these ids used to pin; it is gone — DESIGN.md §3.)"""

    @given(
        n=st.integers(8, 100),
        world=st.sampled_from([2, 4, 8]),
        epoch=st.integers(0, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_ranks_partition_the_data(self, n, world, epoch):
        batch = list(np.random.default_rng(epoch).permutation(n))
        shards = DDPStrategy(world).shard(batch)
        flat = [i for sub in shards for i in sub]
        # Disjoint across ranks, equal share each, in global-batch order;
        # the n % world leftovers are dropped.
        assert len(shards) == world
        assert {len(sub) for sub in shards} == {n // world}
        assert flat == batch[: (n // world) * world]

    def test_epoch_changes_order(self):
        """A RandomSampler reshuffles on every pass from its own generator."""
        ds = InMemoryDataset(list(range(64)))
        s = RandomSampler(ds, np.random.default_rng(3))
        a, b = list(s), list(s)
        assert a != b
        assert sorted(a) == sorted(b) == list(range(64))

    def test_same_epoch_reproducible(self):
        """Equal seeds give equal orders, pass for pass, and the training
        loader built from one seed repeats its batches."""
        ds = InMemoryDataset(list(range(32)))
        s1 = RandomSampler(ds, np.random.default_rng(9))
        s2 = RandomSampler(ds, np.random.default_rng(9))
        for _ in range(3):
            assert list(s1) == list(s2)
        first = [list(b) for b in make_train_loader(ds, 8, seed=5)]
        assert first == [list(b) for b in make_train_loader(ds, 8, seed=5)]
        assert first != [list(b) for b in make_train_loader(ds, 8, seed=6)]

    def test_pad_mode_covers_everything(self):
        """SequentialSampler visits every index once, in order; without
        drop_last the loader's last batch is short instead of padded."""
        ds = InMemoryDataset(list(range(10)))
        assert list(SequentialSampler(ds)) == list(range(10))
        batches = list(DataLoader(ds, batch_size=4, collate_fn=list))
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]

    def test_invalid_rank(self):
        """A global batch smaller than the world cannot feed every rank."""
        with pytest.raises(ValueError, match="cannot feed 2 ranks"):
            DDPStrategy(2).shard([1])
