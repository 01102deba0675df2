"""Samplers and the DataLoader.

Rank sharding is not a sampler: the loader yields one global batch of
``N * B`` samples and ``DDPStrategy.shard`` splits it across the N ranks
(paper Sec. 4.2, ``B_eff = N * B``).
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, List, Optional

import numpy as np

from repro.data.batching import collate_graphs
from repro.data.dataset import Dataset


class SequentialSampler:
    """Yields indices 0..n-1 in order (validation)."""

    def __init__(self, dataset: Dataset):
        self.dataset = dataset

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self.dataset)))

    def __len__(self) -> int:
        return len(self.dataset)


class RandomSampler:
    """Reshuffles every epoch using its own generator."""

    def __init__(self, dataset: Dataset, rng: np.random.Generator):
        self.dataset = dataset
        self.rng = rng

    def __iter__(self) -> Iterator[int]:
        return iter(self.rng.permutation(len(self.dataset)).tolist())

    def __len__(self) -> int:
        return len(self.dataset)


class DataLoader:
    """Batches dataset samples through a collate function.

    Single-process (the reproduction environment has one core), but the
    interface matches the multi-worker loaders the toolkit uses: sampler
    injection, drop_last, custom collate.
    """

    def __init__(
        self,
        dataset: Dataset,
        batch_size: int,
        sampler=None,
        shuffle: bool = False,
        rng: Optional[np.random.Generator] = None,
        collate_fn: Callable = collate_graphs,
        drop_last: bool = False,
        transform: Optional[Callable] = None,
    ):
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        if sampler is not None and shuffle:
            raise ValueError("provide either sampler or shuffle, not both")
        self.dataset = dataset
        self.batch_size = batch_size
        if sampler is None:
            if shuffle:
                sampler = RandomSampler(dataset, rng or np.random.default_rng())
            else:
                sampler = SequentialSampler(dataset)
        self.sampler = sampler
        self.collate_fn = collate_fn
        self.drop_last = drop_last
        self.transform = transform

    def __iter__(self):
        batch: List = []
        for idx in self.sampler:
            sample = self.dataset[idx]
            if self.transform is not None:
                sample = self.transform(sample)
            batch.append(sample)
            if len(batch) == self.batch_size:
                yield self.collate_fn(batch)
                batch = []
        if batch and not self.drop_last:
            yield self.collate_fn(batch)

    def __len__(self) -> int:
        n = len(self.sampler)
        if self.drop_last:
            return n // self.batch_size
        return math.ceil(n / self.batch_size)
