"""Tiny fixed-seed train -> servable pipeline used by the CLI, smoke
lane, serving bench, and the golden round-trip test.

``fit_demo_servable`` runs the same miniature band-gap fine-tune the
golden-metrics suite pins (48/16 samples, 3 epochs, seed 13 by default)
and archives the trained task as a servable, so every consumer exercises
the full train -> checkpoint -> registry -> serve path rather than a
hand-built model.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core import EncoderConfig, FinetuneConfig, OptimizerConfig, train_property
from repro.core.workflows import MATERIALS_CUTOFF
from repro.data.structures import GraphSample
from repro.data.transforms import StructureToGraph
from repro.datasets import MaterialsProjectSurrogate
from repro.serving.servable import ModelRegistry, Servable, ServableSpec

#: Registry entry name every demo consumer uses.
DEMO_MODEL_NAME = "band_gap_demo"


def demo_finetune_config(seed: int = 13) -> FinetuneConfig:
    """The golden finetune config (test_golden_metrics.py), shared so the
    demo servable's training MAE stays pinned to the finetune golden."""
    return FinetuneConfig(
        encoder=EncoderConfig(hidden_dim=16, num_layers=2, position_dim=4),
        optimizer=OptimizerConfig(base_lr=1e-3, warmup_epochs=1, gamma=0.9),
        train_samples=48,
        val_samples=16,
        batch_size=8,
        max_epochs=3,
        world_size=1,
        head_hidden_dim=16,
        head_blocks=1,
        seed=seed,
    )


def fit_demo_servable(registry_root: str, seed: int = 13) -> Tuple[str, float]:
    """Train the demo model and archive it; returns (directory, final MAE)."""
    config = demo_finetune_config(seed)
    result = train_property(config)
    task = result.task
    mean, std = task.normalizer.stats[config.target]
    spec = ServableSpec(
        target=config.target,
        encoder_name=config.encoder.name,
        hidden_dim=config.encoder.hidden_dim,
        num_layers=config.encoder.num_layers,
        position_dim=config.encoder.position_dim,
        num_species=config.encoder.num_species,
        head_hidden_dim=config.head_hidden_dim,
        head_blocks=config.head_blocks,
        cutoff=MATERIALS_CUTOFF,
        normalizer=[mean, std],
        metadata={"seed": seed, "final_mae": result.final_mae},
    )
    registry = ModelRegistry(registry_root)
    directory = registry.save(DEMO_MODEL_NAME, task, spec)
    return directory, result.final_mae


def ensure_demo_servable(registry_root: str, seed: int = 13) -> Servable:
    """Load the demo model, training and archiving it first if absent."""
    registry = ModelRegistry(registry_root)
    if DEMO_MODEL_NAME not in registry.names():
        fit_demo_servable(registry_root, seed=seed)
    return registry.load(DEMO_MODEL_NAME)


def demo_request_samples(
    count: int, seed: int = 99, cutoff: float = MATERIALS_CUTOFF
) -> List[GraphSample]:
    """Deterministic Materials Project query structures, graph-transformed."""
    dataset = MaterialsProjectSurrogate(num_samples=count, seed=seed)
    transform = StructureToGraph(cutoff=cutoff)
    return [transform(dataset[i]) for i in range(count)]


__all__ = [
    "DEMO_MODEL_NAME",
    "demo_finetune_config",
    "demo_request_samples",
    "ensure_demo_servable",
    "fit_demo_servable",
]
