"""E(n)-equivariant graph neural network (Satorras et al., 2022).

The encoder used throughout the paper (Appendix A): atom embeddings from a
learnable table, three EGCL layers with residual connections, SiLU
activations, 256-wide node/message MLPs, 64-wide coordinate MLPs, and
size-extensive sum pooling over nodes.

Equivariance comes from using only relative geometric quantities: messages
see the squared edge length, coordinate updates move along edge difference
vectors, so node embeddings are E(3)-*invariant* while updated coordinates
are E(3)-*equivariant* — properties the test suite checks under random
rotations, translations, reflections and permutations.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.autograd import Tensor
from repro.autograd import functional as F
from repro.data.structures import GraphBatch
from repro.kernels import dispatch as K
from repro.models.encoder import Encoder, EncoderOutput
from repro.nn import Embedding, Linear, ModuleList, Sequential, SiLU
from repro.nn.module import Module


class EGCL(Module):
    """One Equivariant Graph Convolutional Layer.

    Implements Eqs. (1)-(2) of the paper's Appendix A:

        m_ij      = phi_e(h_i, h_j, ||x_i - x_j||^2)
        x_i^{l+1} = x_i + C * sum_{j != i} (x_i - x_j) phi_x(m_ij)
        h_i^{l+1} = phi_h(h_i, sum_{j != i} m_ij)

    with C the mean-normalizer over incoming edges.  The phi_x output is
    squashed through tanh — the standard stabilization for coordinate
    updates on dense point clouds.
    """

    def __init__(
        self,
        hidden_dim: int,
        message_dim: Optional[int] = None,
        position_dim: int = 64,
        update_positions: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng()
        message_dim = message_dim or hidden_dim
        self.hidden_dim = hidden_dim
        self.update_positions = update_positions
        edge_in = 2 * hidden_dim + 1
        self.phi_e = Sequential(
            Linear(edge_in, message_dim, rng=rng),
            SiLU(),
            Linear(message_dim, message_dim, rng=rng),
            SiLU(),
        )
        self.phi_x = Sequential(
            Linear(message_dim, position_dim, rng=rng),
            SiLU(),
            Linear(position_dim, 1, rng=rng),
        )
        self.phi_h = Sequential(
            Linear(hidden_dim + message_dim, hidden_dim, rng=rng),
            SiLU(),
            Linear(hidden_dim, hidden_dim, rng=rng),
        )

    def forward(
        self,
        h: Tensor,
        x: Tensor,
        edge_src: np.ndarray,
        edge_dst: np.ndarray,
    ):
        num_nodes = h.shape[0]
        if len(edge_src) == 0:
            # Isolated nodes: only the self-path of phi_h applies.
            zero_msg = Tensor(np.zeros((num_nodes, self.phi_x[0].in_features)))
            h_new = self.phi_h(F.concat([h, zero_msg], axis=1))
            return h + h_new, x

        diff = K.gather_diff(x, edge_src, edge_dst)
        sq_dist = K.row_sq_norm(diff)
        m = self.phi_e(K.gather_pair_concat(h, edge_src, edge_dst, [sq_dist]))

        if self.update_positions:
            scale = F.tanh(self.phi_x(m))
            x = x + F.segment_mean(diff * scale, edge_src, num_nodes)

        agg = K.segment_sum(m, edge_src, num_nodes)
        h_new = self.phi_h(F.concat([h, agg], axis=1))
        return h + h_new, x


class EGNN(Encoder):
    """Stacked EGCL encoder with atom-embedding input and sum pooling.

    Parameters mirror Appendix A; ``hidden_dim`` defaults to 256 as in the
    paper but is configurable so tests and CPU benches can run small.
    """

    def __init__(
        self,
        hidden_dim: int = 256,
        num_layers: int = 3,
        position_dim: int = 64,
        num_species: int = 100,
        update_positions: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        self.embed_dim = hidden_dim
        self.num_layers = num_layers
        self.update_positions = update_positions
        self.atom_embedding = Embedding(num_species, hidden_dim, rng=rng)
        self.layers = ModuleList(
            [
                EGCL(
                    hidden_dim,
                    position_dim=position_dim,
                    update_positions=update_positions,
                    rng=rng,
                )
                for _ in range(num_layers)
            ]
        )

    def forward(self, batch: GraphBatch) -> EncoderOutput:
        h = self.atom_embedding(batch.species)
        x0 = Tensor(batch.positions)
        x = x0
        for layer in self.layers:
            h, x = layer(h, x, batch.edge_src, batch.edge_dst)
        graph = K.segment_sum(h, batch.node_graph, batch.num_graphs)
        update = (x - x0) if self.update_positions else None
        return EncoderOutput(
            graph_embedding=graph, node_embedding=h, coordinate_update=update
        )
