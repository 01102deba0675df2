"""Shared fixtures: seeded RNGs and small reusable model/dataset builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.transforms import StructureToGraph
from repro.datasets import SymmetryPointCloudDataset
from repro.models import EGNN

#: Custom markers, registered here as well as in pyproject.toml so the
#: suite stays warning-free when run from a directory where pyproject's
#: [tool.pytest.ini_options] is not picked up.
MARKERS = [
    "stability: anomaly tracing and the Fig. 3 remedy (update_clip, the "
    "loss-spike guard); select with -m stability",
    "profile: observability-layer scenarios (spans, op profiler, metrics); "
    "select with -m profile",
    "slow: long-running regression tests; excluded from the smoke lane with "
    "-m 'not slow'",
    "bench: benchmark-gate integrations that time real workloads; select "
    "with -m bench",
    "serve: online serving scenarios (micro-batching, registry, batch "
    "bit-identity); select with -m serve",
    "chaos: resilient-serving chaos scenarios (replica pool, breakers, "
    "hedging, seeded fault schedules); select with -m chaos",
    "screen: high-throughput screening scenarios (swap table, candidate "
    "generation, streaming top-k, batched/sharded bit-identity); select "
    "with -m screen",
    "megnet: MEGNet encoder scenarios (global-state stream, Set2Set "
    "readout, zero-edge parity); select with -m megnet",
]


def pytest_configure(config):
    for marker in MARKERS:
        config.addinivalue_line("markers", marker)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_egnn(rng) -> EGNN:
    return EGNN(hidden_dim=12, num_layers=2, position_dim=6, num_species=8, rng=rng)


@pytest.fixture
def graph_transform() -> StructureToGraph:
    return StructureToGraph(cutoff=2.5)


@pytest.fixture
def tiny_symmetry_samples(graph_transform):
    ds = SymmetryPointCloudDataset(
        12, seed=3, group_names=["C1", "C2", "C4", "D2"], max_points=24
    )
    return [graph_transform(ds[i]) for i in range(len(ds))]
