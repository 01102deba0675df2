"""Collation: disjoint-union graph batching.

Graph batching follows the standard GNN recipe: node arrays are
concatenated, edge indices offset by each graph's node base, and a
``node_graph`` segment-id vector records graph membership for pooling.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.data.structures import GraphBatch, GraphSample


def _stack_targets(samples: Sequence) -> Dict[str, np.ndarray]:
    """Stack per-sample targets; missing keys are filled with NaN.

    NaN-filling is what lets a multi-dataset batch carry heterogeneous
    labels: the multi-task module masks each head's loss on NaN targets.
    """
    keys: List[str] = []
    for s in samples:
        for k in s.targets:
            if k not in keys:
                keys.append(k)
    out: Dict[str, np.ndarray] = {}
    for key in keys:
        rows = []
        for s in samples:
            value = s.targets.get(key)
            if value is None:
                rows.append(np.nan)
            else:
                rows.append(np.asarray(value, dtype=np.float64))
        # Scalars stack into (batch,); ragged rows (per-atom forces) cannot,
        # so they are concatenated.
        try:
            out[key] = np.array(rows, dtype=np.float64)
        except ValueError:
            out[key] = np.concatenate([np.atleast_1d(r) for r in rows])
    return out


def _offset_edges(
    samples: Sequence[GraphSample], node_offsets: np.ndarray, attr: str
) -> np.ndarray:
    """Concatenate edge indices shifted by each graph's node base."""
    return np.concatenate(
        [getattr(s, attr) + off for s, off in zip(samples, node_offsets)]
    ).astype(np.int64)


def collate_graphs(samples: Sequence[GraphSample]) -> GraphBatch:
    """Merge graph samples into one disjoint-union batch.

    Every array of the batch is freshly allocated: a batch shares no memory
    with its samples or with any other batch.
    """
    if not samples:
        raise ValueError("cannot collate an empty batch")
    positions = np.concatenate([s.positions for s in samples], axis=0)
    species = np.concatenate([s.species for s in samples], axis=0)
    node_offsets = np.cumsum([0] + [s.num_nodes for s in samples][:-1])
    edge_src = _offset_edges(samples, node_offsets, "edge_src")
    edge_dst = _offset_edges(samples, node_offsets, "edge_dst")
    node_graph = np.concatenate(
        [np.full(s.num_nodes, i, dtype=np.int64) for i, s in enumerate(samples)]
    )
    global_attr = None
    if all(s.global_attr is not None for s in samples):
        global_attr = np.concatenate(
            [np.atleast_1d(s.global_attr)[None, :] for s in samples], axis=0
        )
    metadata = {"num_nodes_per_graph": np.array([s.num_nodes for s in samples])}
    # Preserve sample provenance when present (multi-dataset batches).
    if all("dataset" in s.metadata for s in samples):
        metadata["dataset"] = np.array([s.metadata["dataset"] for s in samples])
    return GraphBatch(
        positions=positions,
        species=species,
        edge_src=edge_src,
        edge_dst=edge_dst,
        node_graph=node_graph,
        num_graphs=len(samples),
        global_attr=global_attr,
        targets=_stack_targets(samples),
        metadata=metadata,
    )
