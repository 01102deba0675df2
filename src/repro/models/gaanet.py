"""Geometric-algebra-style attention encoder for point clouds.

The toolkit's point-cloud track (paper Sec. 2.1) follows Spellings'
geometric algebra attention networks: permutation-covariant attention over
point tuples whose scores are functions of rotation-invariant geometric
products.  This implementation keeps the architecture's defining structure
— all-pairs attention inside each cloud, invariant pair geometry (squared
distance expanded in radial basis functions, the pair's scalar product with
the centroid frame), dense compute with no imposed graph — while replacing
full multivector algebra with its scalar invariants, which is exactly the
information the scalar channel of the multivector product carries for pairs.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.data.structures import GraphBatch
from repro.kernels import dispatch as K
from repro.models.encoder import Encoder, EncoderOutput
from repro.nn import Embedding, Linear, ModuleList, Sequential, SiLU
from repro.nn.module import Module


def all_pairs_within_graphs(node_graph: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Dense pair index (i, j), i != j, restricted to nodes of the same graph.

    The attention encoder imposes no neighbourhood structure — pairs are
    enumerated per cloud, the "bypass graph construction" property the paper
    credits point-cloud models with.  Pairs come graph by graph in
    ascending graph id, each graph's in row-major (i, j) order over its
    nodes in ascending index, without a Python loop over graphs.
    """
    node_graph = np.asarray(node_graph, dtype=np.int64)
    # Nodes grouped by graph, ascending index within a group.
    order = np.argsort(node_graph, kind="stable")
    grouped = node_graph[order]
    first = np.ones(len(grouped), dtype=bool)
    first[1:] = grouped[1:] != grouped[:-1]
    group = np.cumsum(first) - 1
    size = np.bincount(group)[group]  # per grouped node: its graph's size
    start = np.flatnonzero(first)[group]  # per grouped node: its graph's first slot
    # Row r of the grid repeats each node once per member of its graph;
    # column c walks that graph's members from its first slot.
    row = np.repeat(np.arange(len(grouped)), size)
    col = np.arange(len(row)) - np.repeat(np.cumsum(size) - size, size) + start[row]
    off_diagonal = row != col
    return order[row[off_diagonal]], order[col[off_diagonal]]


class GeometricPairFeatures:
    """Rotation/translation-invariant features of a point pair.

    For points p_i, p_j with cloud centroid c:  ||p_i - p_j||^2 expanded in
    ``num_rbf`` Gaussians, plus (p_i - c)·(p_j - c) and the two centroid
    distances — the scalar parts of the relevant geometric products.
    """

    def __init__(self, num_rbf: int = 8, r_max: float = 6.0):
        self.num_rbf = num_rbf
        self.centers = np.linspace(0.0, r_max, num_rbf)
        self.width = r_max / max(num_rbf - 1, 1)

    @property
    def dim(self) -> int:
        return self.num_rbf + 3

    def __call__(
        self,
        positions: np.ndarray,
        node_graph: np.ndarray,
        num_graphs: int,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> np.ndarray:
        counts = np.bincount(node_graph, minlength=num_graphs).astype(np.float64)
        sums = np.zeros((num_graphs, 3))
        np.add.at(sums, node_graph, positions)
        centroids = sums / np.maximum(counts, 1.0)[:, None]
        rel = positions - centroids[node_graph]
        d = np.linalg.norm(positions[src] - positions[dst], axis=1, keepdims=True)
        rbf = np.exp(-((d - self.centers[None, :]) ** 2) / (2.0 * self.width**2))
        dots = (rel[src] * rel[dst]).sum(axis=1, keepdims=True)
        norms_i = np.linalg.norm(rel[src], axis=1, keepdims=True)
        norms_j = np.linalg.norm(rel[dst], axis=1, keepdims=True)
        return np.concatenate([rbf, dots, norms_i, norms_j], axis=1)


class GeometricAttentionLayer(Module):
    """One attention block: scores and values from (h_i, h_j, geometry)."""

    def __init__(
        self,
        hidden_dim: int,
        geom_dim: int,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        pair_in = 2 * hidden_dim + geom_dim
        self.score = Sequential(
            Linear(pair_in, hidden_dim, rng=rng), SiLU(), Linear(hidden_dim, 1, rng=rng)
        )
        self.value = Sequential(
            Linear(pair_in, hidden_dim, rng=rng), SiLU(), Linear(hidden_dim, hidden_dim, rng=rng)
        )
        self.update = Sequential(
            Linear(2 * hidden_dim, hidden_dim, rng=rng), SiLU(), Linear(hidden_dim, hidden_dim, rng=rng)
        )

    def forward(
        self,
        h: Tensor,
        geom: np.ndarray,
        src: np.ndarray,
        dst: np.ndarray,
    ) -> Tensor:
        num_nodes = h.shape[0]
        if len(src) == 0:
            pooled = Tensor(np.zeros((num_nodes, h.shape[1])))
        else:
            pair = K.gather_pair_concat(h, src, dst, [Tensor(geom)])
            alpha = F.segment_softmax(self.score(pair).squeeze(-1), src, num_nodes)
            values = self.value(pair)
            pooled = K.mul_segment_sum(values, alpha.unsqueeze(-1), src, num_nodes)
        return h + self.update(F.concat([h, pooled], axis=1))


class GeometricAttentionEncoder(Encoder):
    """Point-cloud encoder: species embedding, N attention blocks, sum pool."""

    def __init__(
        self,
        hidden_dim: int = 128,
        num_layers: int = 2,
        num_species: int = 100,
        num_rbf: int = 8,
        r_max: float = 6.0,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        self.embed_dim = hidden_dim
        self.features = GeometricPairFeatures(num_rbf=num_rbf, r_max=r_max)
        self.atom_embedding = Embedding(num_species, hidden_dim, rng=rng)
        self.layers = ModuleList(
            [
                GeometricAttentionLayer(hidden_dim, self.features.dim, rng=rng)
                for _ in range(num_layers)
            ]
        )

    def forward(self, batch: GraphBatch) -> EncoderOutput:
        src, dst = all_pairs_within_graphs(batch.node_graph)
        geom = self.features(batch.positions, batch.node_graph, batch.num_graphs, src, dst)
        h = self.atom_embedding(batch.species)
        for layer in self.layers:
            h = layer(h, geom, src, dst)
        graph = K.segment_sum(h, batch.node_graph, batch.num_graphs)
        return EncoderOutput(graph_embedding=graph, node_embedding=h)
