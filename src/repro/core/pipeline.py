"""Pipeline plumbing shared by the workflows."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.config import EncoderConfig
from repro.data.dataset import Dataset, InMemoryDataset
from repro.data.loaders import DataLoader
from repro.models import build_encoder
from repro.models.encoder import Encoder


def transform_once(dataset: Dataset, transform: Callable) -> InMemoryDataset:
    """Apply a *deterministic* transform to every sample, once per run.

    A loader's own ``transform`` runs per sample per epoch, which is what a
    stochastic augmentation needs and what a structure -> graph conversion
    wastes: the workflows convert their materialized datasets here and hand
    the loaders graph samples.  The samples are shared between epochs, so
    nothing downstream may modify them in place (collation copies).
    """
    return InMemoryDataset([transform(sample) for sample in dataset], name=dataset.name)


def make_train_loader(
    dataset: Dataset,
    batch_size: int,
    transform: Optional[Callable] = None,
    seed: int = 0,
) -> DataLoader:
    """Shuffling loader that yields *lists of samples* (strategy collates).

    Every batch is a full global batch (``drop_last``), so DDP always
    splits ``batch_size`` samples into its rank shards.  ``transform``
    runs on every draw; see :func:`transform_once` for deterministic ones.
    """
    return DataLoader(
        dataset,
        batch_size=batch_size,
        shuffle=True,
        rng=np.random.default_rng((seed, 101)),
        collate_fn=list,
        transform=transform,
        drop_last=True,
    )


def make_val_loader(
    dataset: Dataset,
    batch_size: int,
    transform: Optional[Callable] = None,
) -> DataLoader:
    """Deterministic validation loader (lists of samples)."""
    return DataLoader(
        dataset,
        batch_size=batch_size,
        collate_fn=list,
        transform=transform,
    )


def build_encoder_from_config(
    config: EncoderConfig, rng: Optional[np.random.Generator] = None
) -> Encoder:
    """Instantiate the configured encoder through the registry."""
    return build_encoder(config.name, rng=rng, **config.build_kwargs())
