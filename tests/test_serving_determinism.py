"""Bit-identity of batched serving vs one-at-a-time offline inference.

The serving layer's core numerical contract (DESIGN.md §12): the
prediction returned for a request is the *same bits* whether the request
is served alone or coalesced into a micro-batch with arbitrary
neighbours.  Plain BLAS matmul does not satisfy this — ``(m, k) @ (k, n)``
routes through different kernels for different ``m``, so a sample's row
can change bits when its batch grows.  Serving forwards therefore run
under :func:`repro.autograd.batch_invariant_kernels`, and this suite pins
the end-to-end guarantee across every encoder family and dataset
surrogate the toolkit ships, exactly (``np.array_equal``, no tolerance).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.transforms import StructureToGraph
from repro.datasets import build_dataset
from repro.serving import (
    BatchPolicy,
    InferenceServer,
    Servable,
    ServableSpec,
    make_requests,
    poisson_arrivals,
)

pytestmark = pytest.mark.serve

#: (dataset name, scalar target it provides).
DATASETS = [
    ("materials_project", "band_gap"),
    ("carolina", "formation_energy"),
    ("lips", "energy"),
    ("oc20", "energy"),
]
ENCODERS = ["egnn", "schnet", "gaanet", "megnet"]
NUM_SAMPLES = 7
CUTOFF = 4.5


def build_servable(encoder_name: str, target: str) -> Servable:
    spec = ServableSpec(
        target=target,
        encoder_name=encoder_name,
        hidden_dim=12,
        num_layers=2,
        position_dim=4,
        head_hidden_dim=12,
        head_blocks=1,
        cutoff=CUTOFF,
        normalizer=[0.25, 1.5],
    )
    # Untrained weights are as good as trained ones for a bits contract —
    # build_task() is seeded, so the sweep is deterministic.
    return Servable(spec.build_task(), spec)


def graph_samples(dataset_name: str):
    dataset = build_dataset(dataset_name, num_samples=NUM_SAMPLES, seed=11)
    transform = StructureToGraph(cutoff=CUTOFF)
    return [transform(dataset[i]) for i in range(NUM_SAMPLES)]


@pytest.mark.parametrize("dataset_name,target", DATASETS)
@pytest.mark.parametrize("encoder_name", ENCODERS)
def test_batched_equals_one_at_a_time(encoder_name, dataset_name, target):
    servable = build_servable(encoder_name, target)
    samples = graph_samples(dataset_name)

    offline = np.array([servable.predict_one(s) for s in samples])
    batched = servable.predict(samples)
    assert np.array_equal(batched, offline), (
        f"{encoder_name}/{dataset_name}: batched serving changed bits "
        f"(max diff {np.abs(batched - offline).max():.3e})"
    )


@pytest.mark.parametrize("dataset_name,target", DATASETS)
@pytest.mark.parametrize("encoder_name", ENCODERS)
def test_batch_composition_does_not_change_bits(encoder_name, dataset_name, target):
    """The same sample scored in two different batches yields the same bits."""
    servable = build_servable(encoder_name, target)
    samples = graph_samples(dataset_name)

    first = servable.predict(samples[:4])[0]  # sample 0 with 3 neighbours
    second = servable.predict([samples[0], samples[5], samples[6]])[0]
    assert first == second


@pytest.mark.parametrize("encoder_name", ENCODERS)
def test_micro_batched_serving_matches_offline(encoder_name):
    """End to end through the serving loop: coalesced responses == offline bits."""
    servable = build_servable(encoder_name, "band_gap")
    samples = graph_samples("materials_project")
    offline = {i: servable.predict_one(s) for i, s in enumerate(samples)}

    requests = make_requests(
        samples, poisson_arrivals(300.0, 24, seed=3), num_clients=3
    )
    server = InferenceServer(
        servable,
        batch=BatchPolicy(max_batch_size=5, max_wait=0.01),
        service_model=lambda n: 0.001 * n,
    )
    responses = server.serve(requests).responses
    assert len(responses) == len(requests)
    sizes = {r.batch_size for r in responses}
    assert sizes - {1} , "traffic never coalesced; test is vacuous"
    for resp in responses:
        expected = offline[resp.request_id % len(samples)]
        assert resp.value == expected, (
            f"request {resp.request_id} served in batch of {resp.batch_size} "
            f"diverged from offline prediction"
        )
