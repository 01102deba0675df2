"""Samplers and the DataLoader.

``DistributedSampler`` reproduces the DDP sharding rule from the paper's
Sec. 4.2: the dataset is divided across N ranks, each receiving the same
number of samples per batch, so the effective batch is ``B_eff = N * B``.
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


class DistributedSampler:
    """Rank-sharded sampler: rank r sees indices r, r+N, r+2N, ... of a
    deterministic per-epoch permutation shared by all ranks.

    All ranks must call :meth:`set_epoch` with the same value so their
    permutations agree — the same contract as
    ``torch.utils.data.DistributedSampler``.
    """

    def __init__(
        self,
        dataset: Dataset,
        world_size: int,
        rank: int,
        shuffle: bool = True,
        seed: int = 0,
        drop_last: bool = True,
    ):
        if not 0 <= rank < world_size:
            raise ValueError(f"rank {rank} out of range for world size {world_size}")
        self.dataset = dataset
        self.world_size = world_size
        self.rank = rank
        self.shuffle = shuffle
        self.seed = seed
        self.drop_last = drop_last
        self.epoch = 0

    def set_epoch(self, epoch: int) -> None:
        self.epoch = epoch

    def _global_order(self) -> np.ndarray:
        n = len(self.dataset)
        if self.shuffle:
            rng = np.random.default_rng((self.seed, self.epoch))
            order = rng.permutation(n)
        else:
            order = np.arange(n)
        if self.drop_last:
            usable = (n // self.world_size) * self.world_size
            order = order[:usable]
        else:
            # Pad by wrapping so each rank gets the same count.
            target = math.ceil(n / self.world_size) * self.world_size
            pad = target - n
            order = np.concatenate([order, order[:pad]])
        return order

    def __iter__(self) -> Iterator[int]:
        order = self._global_order()
        return iter(order[self.rank :: self.world_size].tolist())

    def __len__(self) -> int:
        n = len(self.dataset)
        if self.drop_last:
            return n // self.world_size
        return math.ceil(n / self.world_size)


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
