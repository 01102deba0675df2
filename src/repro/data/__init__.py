"""Data pipeline: structures, datasets, loaders, batching, transforms.

Mirrors the paper's Fig. 1 data path: a *dataset* yields
:class:`repro.data.structures.Structure` samples; a *transform* converts
them into graphs and injects inductive biases; a *collator* batches them
for the encoder.
"""

from repro.data.structures import Structure, GraphSample, PointCloudSample, GraphBatch
from repro.data.dataset import Dataset, InMemoryDataset, ConcatDataset, Subset
from repro.data.splits import train_val_split
from repro.data.batching import collate_graphs
from repro.data.loaders import DataLoader, SequentialSampler, RandomSampler
from repro.data.transforms.base import array_fingerprint

__all__ = [
    "array_fingerprint",
    "Structure",
    "GraphSample",
    "PointCloudSample",
    "GraphBatch",
    "Dataset",
    "InMemoryDataset",
    "ConcatDataset",
    "Subset",
    "train_val_split",
    "collate_graphs",
    "DataLoader",
    "SequentialSampler",
    "RandomSampler",
]
