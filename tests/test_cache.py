"""One data path: fresh transform outputs, fresh batches, loud bad parameters.

Transforms and ``collate_graphs`` have no cache and no reused buffers, so
every array they return is new, writable and owned by its caller.  The
tests here pin what that buys: editing a batch in place cannot reach the
samples it came from, the next batch, or a ``transform_once`` dataset;
a transform's fingerprint changes exactly with the parameters that change
its output; and a neighbour rule that would build a silently wrong graph
(a negative or NaN cutoff, ``k < 1``) is refused when the transform is
built, with a ``ValueError`` naming the parameter and its value.

The class names are this file's history (it once tested an LRU transform
cache and reusable collate buffers); each test's docstring says what it
pins now.
"""

from __future__ import annotations

import re
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.pipeline import transform_once
from repro.data import DataLoader, array_fingerprint, collate_graphs
from repro.data.structures import GraphSample, PointCloudSample, Structure
from repro.data.transforms import (
    Compose,
    DistanceEdgeFeatures,
    PointCloudToGraph,
    StructureToGraph,
)
from repro.datasets import SymmetryPointCloudDataset
from repro.observability import Observer

BAD_CUTOFFS = [-1.0, 0.0, -0.0, np.nan, np.inf, -np.inf, None, "5.0"]


def _make_samples(count=4, nodes=10, edges=40, seed=0):
    rng = np.random.default_rng(seed)
    return [
        GraphSample(
            positions=rng.normal(size=(nodes, 3)),
            species=rng.integers(0, 4, size=nodes),
            edge_src=rng.integers(0, nodes, size=edges).astype(np.int64),
            edge_dst=rng.integers(0, nodes, size=edges).astype(np.int64),
            edge_attr=rng.normal(size=(edges, 2)),
            global_attr=rng.normal(size=3),
            targets={"y": float(rng.normal())},
        )
        for _ in range(count)
    ]


def _arrays(obj):
    """Every ndarray a sample or batch holds, targets and metadata included."""
    fields = ("positions", "species", "edge_src", "edge_dst", "node_graph",
              "edge_attr", "global_attr")
    found = [getattr(obj, f) for f in fields if getattr(obj, f, None) is not None]
    for mapping in (obj.targets, obj.metadata):
        found += [v for v in mapping.values() if isinstance(v, np.ndarray)]
    return found


def _shares_memory(a, b) -> bool:
    return any(np.shares_memory(x, y) for x in _arrays(a) for y in _arrays(b))


def _rejects(build, param, value):
    with pytest.raises(ValueError, match=rf"^{param} .*got {re.escape(repr(value))}$"):
        build()


# --------------------------------------------------------------------------- #
# Hostile transform parameters and index dtypes
# --------------------------------------------------------------------------- #
class TestLRUByteCache:
    def test_hit_miss_accounting(self):
        """StructureToGraph refuses a cutoff that is not finite and > 0 (a
        negative one used to build a full graph, NaN an empty one)."""
        for bad in BAD_CUTOFFS:
            _rejects(lambda: StructureToGraph(cutoff=bad), "cutoff", bad)
        # The radius is checked even when the k-NN rule is selected.
        _rejects(lambda: StructureToGraph(cutoff=-1.0, k=2), "cutoff", -1.0)

    def test_lru_eviction_at_byte_budget(self):
        """Both graph transforms refuse ``k`` that is not an integer >= 1
        (PointCloudToGraph used to fail on a call with ``k=0`` as a raw
        IndexError, with ``k=-2`` as a numpy reduction error)."""
        for cls in (StructureToGraph, PointCloudToGraph):
            for bad in (0, -2, np.int64(0), 2.5, "3"):
                _rejects(lambda: cls(k=bad), "k", bad)

    def test_oversized_value_is_not_cached(self):
        """PointCloudToGraph refuses the same cutoffs StructureToGraph does."""
        for bad in BAD_CUTOFFS:
            _rejects(lambda: PointCloudToGraph(cutoff=bad), "cutoff", bad)
            _rejects(lambda: PointCloudToGraph(cutoff=bad, k=3), "cutoff", bad)

    def test_cached_arrays_are_frozen(self):
        """DistanceEdgeFeatures refuses a cutoff that is not finite and > 0 (0
        used to give all-zero features, a negative one centres below zero)."""
        for bad in BAD_CUTOFFS:
            _rejects(lambda: DistanceEdgeFeatures(cutoff=bad), "cutoff", bad)
        _rejects(lambda: DistanceEdgeFeatures(num_basis=0), "num_basis", 0)

    def test_reinsert_replaces_and_reaccounts(self):
        """Legal edge values pass: a tiny cutoff, numpy scalars, ``k=1``; numpy
        and Python numbers of equal value build the same graph."""
        structure = Structure(
            positions=np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]) + 5.0,
            species=np.array([1, 2, 3, 4]),
        )
        assert StructureToGraph(cutoff=1e-9)(structure).num_edges == 0
        plain = StructureToGraph(cutoff=1.1)(structure)
        for cutoff in (np.float64(1.1), np.float32(1.1)):
            g = StructureToGraph(cutoff=cutoff)(structure)
            assert np.array_equal(g.edge_src, plain.edge_src)
            assert np.array_equal(g.edge_dst, plain.edge_dst)
        knn = StructureToGraph(k=np.int64(1))(structure)
        assert knn.num_edges == 4
        cloud = PointCloudSample(structure.positions, structure.species)
        assert PointCloudToGraph(k=1)(cloud).num_edges == 4
        assert DistanceEdgeFeatures(num_basis=3, cutoff=np.float64(2.0)).width == 1.0

    def test_clear_resets_contents_but_counts_survive(self):
        """``edge_src``/``edge_dst``/``node_graph`` come out int64 with the
        right offsets even when a sample's edges are int32."""
        samples = _make_samples(count=3, nodes=5, edges=6)
        for s in samples:
            s.edge_src = s.edge_src.astype(np.int32)
            s.edge_dst = s.edge_dst.astype(np.int32)
        batch = collate_graphs(samples)
        for attr in ("edge_src", "edge_dst", "node_graph"):
            assert getattr(batch, attr).dtype == np.int64
        for i, s in enumerate(samples):
            rows = slice(6 * i, 6 * (i + 1))
            assert np.array_equal(batch.edge_src[rows], s.edge_src.astype(np.int64) + 5 * i)
            assert np.array_equal(batch.edge_dst[rows], s.edge_dst.astype(np.int64) + 5 * i)
        assert np.array_equal(batch.node_graph, np.repeat(np.arange(3), 5))

    def test_resolve_cache_names(self):
        """``edge_attr``/``global_attr`` are batched all-or-none: one sample
        without them drops the field from the whole batch."""
        full = _make_samples(count=3, edges=4)
        batch = collate_graphs(full)
        assert batch.edge_attr.shape == (12, 2)
        assert batch.global_attr.shape == (3, 3)
        for field in ("edge_attr", "global_attr"):
            mixed = _make_samples(count=3, edges=4)
            setattr(mixed[1], field, None)
            assert getattr(collate_graphs(mixed), field) is None
            other = "global_attr" if field == "edge_attr" else "edge_attr"
            assert getattr(collate_graphs(mixed), other) is not None


# --------------------------------------------------------------------------- #
# Fingerprints and fresh transform outputs
# --------------------------------------------------------------------------- #
class TestFingerprints:
    def test_array_fingerprint_sensitivity(self):
        a = np.arange(6.0).reshape(2, 3)
        assert array_fingerprint(a) == array_fingerprint(a.copy())
        assert array_fingerprint(a) != array_fingerprint(a + 1e-12)
        assert array_fingerprint(a) != array_fingerprint(a.reshape(3, 2))
        assert array_fingerprint(a) != array_fingerprint(a.astype(np.float32))

    def test_transform_fingerprint_includes_parameters(self):
        assert (
            StructureToGraph(cutoff=2.5).fingerprint()
            != StructureToGraph(cutoff=3.0).fingerprint()
        )
        assert (
            StructureToGraph(cutoff=2.5, center=False).fingerprint()
            != StructureToGraph(cutoff=2.5, center=True).fingerprint()
        )

    def test_compose_fingerprint_combines_children(self):
        one = Compose([StructureToGraph(cutoff=2.5)])
        two = Compose([StructureToGraph(cutoff=3.0)])
        assert one.fingerprint() != two.fingerprint()

    def test_transform_hits_on_repeat_and_results_match(self):
        """A repeated StructureToGraph call returns equal but fresh, writable
        arrays: editing one result cannot reach the other or the input."""
        ds = SymmetryPointCloudDataset(4, seed=3, group_names=["C2", "C4"])
        tf = StructureToGraph(cutoff=2.5, global_features=True)
        for i in range(4):
            before = array_fingerprint(ds[i].positions, ds[i].species)
            first, second = tf(ds[i]), tf(ds[i])
            for a, b in zip(_arrays(first), _arrays(second)):
                assert np.array_equal(a, b)
                assert a.flags.writeable and b.flags.writeable
            assert not _shares_memory(first, second)
            first.positions += 1.0
            first.edge_src[:] = 0
            assert array_fingerprint(ds[i].positions, ds[i].species) == before
            assert np.array_equal(second.edge_src, tf(ds[i]).edge_src)

    def test_stale_cache_poisoning_regression(self):
        """Fingerprints differ exactly when outputs must: each parameter
        change that changes the graph or features changes the fingerprint,
        and equal parameters give equal fingerprints and outputs."""
        structure = SymmetryPointCloudDataset(2, seed=3, group_names=["C4"])[0]
        cloud = PointCloudSample(structure.positions, structure.species)

        def output(tf):
            sample = cloud if isinstance(tf, PointCloudToGraph) else structure
            return array_fingerprint(*_arrays(tf(sample)))

        pairs = [
            (StructureToGraph(cutoff=1.0), StructureToGraph(cutoff=4.0)),
            (StructureToGraph(k=2), StructureToGraph(k=3)),
            (StructureToGraph(cutoff=2.5), StructureToGraph(cutoff=2.5, global_features=True)),
            (PointCloudToGraph(cutoff=1.0), PointCloudToGraph(cutoff=4.0)),
            (PointCloudToGraph(k=2), PointCloudToGraph(k=3)),
        ]
        for a, b in pairs:
            assert a.fingerprint() != b.fingerprint()
            assert output(a) != output(b)
        for make in (
            lambda: StructureToGraph(cutoff=2.5, k=3, global_features=True),
            lambda: PointCloudToGraph(cutoff=2.5),
        ):
            assert make().fingerprint() == make().fingerprint()
            assert output(make()) == output(make())

        graphed = StructureToGraph(cutoff=2.5)(structure)
        features = [
            DistanceEdgeFeatures(num_basis=4, cutoff=6.0),
            DistanceEdgeFeatures(num_basis=5, cutoff=6.0),
            DistanceEdgeFeatures(num_basis=4, cutoff=5.0),
        ]
        assert len({f.fingerprint() for f in features}) == 3
        attrs = [f(graphed).edge_attr for f in features]
        assert not np.array_equal(attrs[0], attrs[2])
        assert attrs[0].shape != attrs[1].shape
        same = DistanceEdgeFeatures(num_basis=4, cutoff=6.0)
        assert same.fingerprint() == features[0].fingerprint()
        assert np.array_equal(same(graphed).edge_attr, attrs[0])

    def test_feature_transform_caches(self):
        """DistanceEdgeFeatures returns equal but fresh, writable features on
        every call, and leaves its input sample untouched."""
        ds = SymmetryPointCloudDataset(2, seed=3, group_names=["C4"])
        graphed = StructureToGraph(cutoff=2.5)(ds[0])
        before = array_fingerprint(*_arrays(graphed))
        feat = DistanceEdgeFeatures(num_basis=4)
        first, second = feat(graphed), feat(graphed)
        assert np.array_equal(first.edge_attr, second.edge_attr)
        assert first.edge_attr.flags.writeable
        assert not np.shares_memory(first.edge_attr, second.edge_attr)
        first.edge_attr[:] = 0.0
        assert not np.array_equal(first.edge_attr, feat(graphed).edge_attr)
        assert graphed.edge_attr is None
        assert array_fingerprint(*_arrays(graphed)) == before


# --------------------------------------------------------------------------- #
# Observer.finalize after the cache gauges left
# --------------------------------------------------------------------------- #
def _finalize_inputs():
    traffic = SimpleNamespace(
        allreduce_calls=3, allreduce_bytes=4096, reduce_scatter_calls=1,
        reduce_scatter_bytes=512, allgather_calls=1, allgather_bytes=512,
    )
    return SimpleNamespace(comm=SimpleNamespace(traffic=traffic))


class TestCacheMetrics:
    def test_publish_cache_metrics_gauges(self):
        """``Observer.finalize`` publishes comm totals and no ``cache.*``
        gauge, even after transforms have run."""
        ds = SymmetryPointCloudDataset(4, seed=3, group_names=["C2"])
        feat = Compose([StructureToGraph(cutoff=2.5), DistanceEdgeFeatures(num_basis=4)])
        for _ in range(2):
            [feat(ds[i]) for i in range(4)]
        observer = Observer()
        observer.finalize(strategy=_finalize_inputs())
        names = observer.metrics.names()
        assert not [n for n in names if n.startswith("cache.")]
        assert observer.metrics.value("comm.allreduce.bytes") == 4096
        assert observer.metrics.value("comm.allreduce.calls") == 3

    def test_default_cache_stats_shape(self):
        """``Observer.finalize`` is idempotent: a second call with the same
        strategy leaves every metric as the first left it."""
        observer = Observer(profile_ops=True)
        strategy = _finalize_inputs()
        observer.finalize(strategy=strategy)
        first = observer.metrics.snapshot()
        observer.finalize(strategy=strategy)
        assert observer.metrics.snapshot() == first
        assert set(first) >= {"comm.allreduce.calls", "comm.bucket.allgather.bytes",
                              "mem.peak_live_tensor_bytes"}
        assert not [n for n in first if n.startswith("comm.retry.")]
        assert not [n for n in first if n.startswith("stability.")]


# --------------------------------------------------------------------------- #
# Plain collation: fresh batches
# --------------------------------------------------------------------------- #
class TestCollateBuffers:
    def test_buffered_collate_matches_plain(self):
        """A batch shares no memory with the samples it was collated from."""
        samples = _make_samples()
        batch = collate_graphs(samples)
        for s in samples:
            assert not _shares_memory(batch, s)
        single = collate_graphs(samples[:1])
        assert not _shares_memory(single, samples[0])

    def test_buffers_are_reused_not_reallocated(self):
        """Two collates of the same samples are equal and share no memory."""
        samples = _make_samples()
        first, second = collate_graphs(samples), collate_graphs(samples)
        for a, b in zip(_arrays(first), _arrays(second)):
            assert np.array_equal(a, b)
        assert not _shares_memory(first, second)

    def test_aliasing_contract_next_collate_overwrites(self):
        """A batch held across later draws keeps its values: drawing the next
        batch never writes into an earlier one."""
        ds = transform_once(
            SymmetryPointCloudDataset(12, seed=3, group_names=["C2", "C4"]),
            StructureToGraph(cutoff=2.5),
        )
        loader = DataLoader(ds, batch_size=4)
        held, digests = [], []
        for batch in loader:
            held.append(batch)
            digests.append(array_fingerprint(*_arrays(batch)))
        assert len(held) == 3
        assert [array_fingerprint(*_arrays(b)) for b in held] == digests
        assert not _shares_memory(held[0], held[1])

    def test_buffers_grow_for_larger_batches(self):
        """A zero-edge graph in mid-batch keeps every later graph's edge
        offsets right, whatever the graphs' sizes."""
        sizes = [(3, 4), (6, 0), (2, 2), (9, 0), (5, 7)]
        samples = [
            _make_samples(count=1, nodes=n, edges=e, seed=i)[0]
            for i, (n, e) in enumerate(sizes)
        ]
        batch = collate_graphs(samples)
        assert batch.num_nodes == sum(n for n, _ in sizes)
        assert batch.num_edges == sum(e for _, e in sizes)
        node_base = edge_base = 0
        for i, (s, (n, e)) in enumerate(zip(samples, sizes)):
            rows = slice(edge_base, edge_base + e)
            assert np.array_equal(batch.edge_src[rows], s.edge_src + node_base)
            assert np.array_equal(batch.edge_dst[rows], s.edge_dst + node_base)
            assert np.all(batch.node_graph[batch.edge_src[rows]] == i)
            assert np.all(batch.node_graph[node_base : node_base + n] == i)
            node_base += n
            edge_base += e
        assert batch.edge_attr.shape == (batch.num_edges, 2)

    def test_loader_reuse_buffers_batches_match_plain(self):
        """Editing a batch in place leaves a ``transform_once`` dataset
        bytewise intact, so the next epoch's batches are the first's."""
        ds = transform_once(
            SymmetryPointCloudDataset(8, seed=3, group_names=["C2", "C4"]),
            StructureToGraph(cutoff=2.5, global_features=True),
        )
        before = [array_fingerprint(*_arrays(ds[i])) for i in range(len(ds))]
        loader = DataLoader(ds, batch_size=4)
        first_epoch = []
        for batch in loader:
            first_epoch.append(array_fingerprint(*_arrays(batch)))
            for arr in _arrays(batch):
                arr[...] = 0
        assert [array_fingerprint(*_arrays(ds[i])) for i in range(len(ds))] == before
        assert [array_fingerprint(*_arrays(b)) for b in loader] == first_epoch

    def test_loader_rejects_buffers_with_incompatible_collate(self):
        """A DataLoader calls ``collate_fn`` with the batch list alone, so any
        one-argument callable works: a lambda, ``list``, a builtin."""
        ds = SymmetryPointCloudDataset(5, seed=3, group_names=["C2"])
        assert [len(b) for b in DataLoader(ds, batch_size=2, collate_fn=lambda s: s)] == [2, 2, 1]
        assert [len(b) for b in DataLoader(ds, batch_size=2, collate_fn=list)] == [2, 2, 1]
        assert list(DataLoader(ds, batch_size=2, collate_fn=len)) == [2, 2, 1]
        assert list(DataLoader(ds, batch_size=2, collate_fn=len, drop_last=True)) == [2, 2]
