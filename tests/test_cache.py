"""One data path: fresh transform outputs, fresh batches, loud bad parameters.

Transforms and ``collate_graphs`` have no cache and no reused buffers, so
every array they return is new, writable and owned by its caller.  The
tests here pin what that buys: editing a batch in place cannot reach the
samples it came from, the next batch, or a ``transform_once`` dataset;
a transform's fingerprint changes exactly with the parameters that change
its output; and a radius rule that would build a silently wrong graph (a
negative or NaN cutoff) is refused when the transform is built, with a
``ValueError`` naming the parameter and its value.  Samples and batches
carry no per-edge feature array: the encoders read edge geometry from the
positions.

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
from repro.data.structures import GraphBatch, GraphSample, Structure
from repro.data.transforms import PermuteNodes, StructureToGraph, TargetNormalizer, radius_graph
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
            global_attr=rng.normal(size=3),
            targets={"y": float(rng.normal())},
        )
        for _ in range(count)
    ]


def _arrays(obj):
    """Every ndarray a sample or batch holds, targets and metadata included."""
    fields = ("positions", "species", "edge_src", "edge_dst", "node_graph", "global_attr")
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

    def test_lru_eviction_at_byte_budget(self):
        """The radius rule emits exactly the pairs of a brute-force O(n^2)
        scan within the cutoff: both directions, no self-loops."""
        rng = np.random.default_rng(4)
        for n in (0, 1, 2, 17):
            pos = rng.uniform(0.0, 3.0, size=(n, 3))
            src, dst = radius_graph(pos, 1.2)
            assert src.dtype == dst.dtype == np.int64
            dist = np.linalg.norm(pos[:, None] - pos[None, :], axis=-1)
            want = {(i, j) for i in range(n) for j in range(n) if i != j and dist[i, j] <= 1.2}
            got = list(zip(src.tolist(), dst.tolist()))
            assert len(got) == len(set(got)) and set(got) == want

    def test_oversized_value_is_not_cached(self):
        """StructureToGraph refuses the bad cutoffs whatever its other flags."""
        for bad in BAD_CUTOFFS:
            for center in (True, False):
                _rejects(
                    lambda: StructureToGraph(cutoff=bad, center=center, global_features=True),
                    "cutoff", bad,
                )

    def test_cached_arrays_are_frozen(self):
        """A graph sample refuses an edge index outside its own nodes, so a
        wrong graph cannot reach collation."""
        with pytest.raises(ValueError, match="edge index out of range"):
            GraphSample(np.zeros((3, 3)), np.ones(3), edge_src=[0, 3], edge_dst=[1, 0])
        with pytest.raises(ValueError, match="edge index out of range"):
            GraphSample(np.zeros((3, 3)), np.ones(3), edge_src=[0, 1], edge_dst=[1, 5])
        ok = GraphSample(np.zeros((3, 3)), np.ones(3), edge_src=[0, 2], edge_dst=[2, 0])
        assert ok.edge_src.dtype == np.int64 and ok.num_edges == 2

    def test_reinsert_replaces_and_reaccounts(self):
        """Legal edge values pass: a tiny cutoff and numpy scalars; numpy and
        Python numbers of equal value build the same graph."""
        structure = Structure(
            positions=np.array([[0.0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]]) + 5.0,
            species=np.array([1, 2, 3, 4]),
        )
        assert StructureToGraph(cutoff=1e-9)(structure).num_edges == 0
        plain = StructureToGraph(cutoff=1.1)(structure)
        assert plain.num_edges == 8  # the four unit sides, both directions
        for cutoff in (np.float64(1.1), np.float32(1.1), np.int64(1)):
            g = StructureToGraph(cutoff=cutoff)(structure)
            assert np.array_equal(g.edge_src, plain.edge_src)
            assert np.array_equal(g.edge_dst, plain.edge_dst)

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
        """``global_attr`` is batched all-or-none: one sample without it drops
        the field from the whole batch.  No per-edge feature array exists on
        a sample or a batch."""
        full = _make_samples(count=3, edges=4)
        batch = collate_graphs(full)
        assert batch.global_attr.shape == (3, 3)
        mixed = _make_samples(count=3, edges=4)
        mixed[1].global_attr = None
        assert collate_graphs(mixed).global_attr is None
        for record in (GraphSample, GraphBatch):
            assert "edge_attr" not in record.__dataclass_fields__
        assert not hasattr(batch, "edge_attr")


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

    def test_target_normalizer_fingerprint_covers_keys_and_stats(self):
        """Two normalizers share a fingerprint only when their keys and
        fitted statistics agree."""
        def fitted(keys, values):
            samples = [
                GraphSample(
                    positions=np.zeros((1, 3)),
                    species=np.zeros(1, dtype=np.int64),
                    edge_src=np.zeros(0, dtype=np.int64),
                    edge_dst=np.zeros(0, dtype=np.int64),
                    targets={k: np.float64(v) for k in ("y", "z")},
                )
                for v in values
            ]
            return TargetNormalizer(keys).fit(samples)

        ref = fitted(["y"], [0.0, 2.0]).fingerprint()
        assert fitted(["y"], [0.0, 2.0]).fingerprint() == ref
        assert fitted(["z"], [0.0, 2.0]).fingerprint() != ref
        assert fitted(["y"], [0.0, 4.0]).fingerprint() != ref
        assert TargetNormalizer(["y"]).fingerprint() != ref  # unfitted

    def test_compose_fingerprint_combines_children(self):
        """Every StructureToGraph parameter enters its fingerprint, equal
        parameters give equal fingerprints, and a different transform class
        never shares one."""
        base = dict(cutoff=2.5, center=True, global_features=False)
        ref = StructureToGraph(**base).fingerprint()
        assert StructureToGraph(**base).fingerprint() == ref
        for key, value in (("cutoff", 3.0), ("center", False), ("global_features", True)):
            assert StructureToGraph(**{**base, key: value}).fingerprint() != ref
        other = PermuteNodes(np.random.default_rng(0)).fingerprint()
        assert other != ref and other.startswith("PermuteNodes")

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

        def output(tf):
            return array_fingerprint(*_arrays(tf(structure)))

        pairs = [
            (StructureToGraph(cutoff=1.0), StructureToGraph(cutoff=4.0)),
            (StructureToGraph(cutoff=2.5), StructureToGraph(cutoff=2.5, global_features=True)),
            (StructureToGraph(cutoff=2.5), StructureToGraph(cutoff=2.5, center=False)),
        ]
        for a, b in pairs:
            assert a.fingerprint() != b.fingerprint()
            assert output(a) != output(b)
        for make in (
            lambda: StructureToGraph(cutoff=2.5, global_features=True),
            lambda: StructureToGraph(cutoff=2.5, center=False),
        ):
            assert make().fingerprint() == make().fingerprint()
            assert output(make()) == output(make())

    def test_feature_transform_caches(self):
        """TargetNormalizer returns new target arrays on every call and
        leaves its input sample untouched."""
        ds = transform_once(
            SymmetryPointCloudDataset(4, seed=3, group_names=["C2", "C4"]),
            StructureToGraph(cutoff=2.5),
        )
        samples = [ds[i] for i in range(len(ds))]
        for i, s in enumerate(samples):
            s.targets = {"y": np.float64(i)}
        norm = TargetNormalizer(["y"]).fit(samples)
        before = [array_fingerprint(*_arrays(s)) for s in samples]
        first, second = norm(samples[3]), norm(samples[3])
        assert np.array_equal(first.targets["y"], second.targets["y"])
        assert not np.shares_memory(first.targets["y"], second.targets["y"])
        assert first.targets["y"] != samples[3].targets["y"]
        assert [array_fingerprint(*_arrays(s)) for s in samples] == before
        assert samples[3].targets["y"] == 3.0


# --------------------------------------------------------------------------- #
# Observer.finalize after the cache gauges left
# --------------------------------------------------------------------------- #
def _finalize_inputs():
    traffic = SimpleNamespace(allreduce_calls=3, allreduce_bytes=4096)
    return SimpleNamespace(comm=SimpleNamespace(traffic=traffic))


class TestCacheMetrics:
    def test_publish_cache_metrics_gauges(self):
        """``Observer.finalize`` publishes comm totals and no ``cache.*``
        gauge, even after transforms have run."""
        ds = SymmetryPointCloudDataset(4, seed=3, group_names=["C2"])
        to_graph = StructureToGraph(cutoff=2.5)
        for _ in range(2):
            [to_graph(ds[i]) for i in range(4)]
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
        assert set(first) >= {"comm.allreduce.calls", "comm.allreduce.bytes",
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
        assert batch.global_attr.shape == (len(sizes), 3)

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
