"""GIN node encoder and the sum-readout projection head used by the
non-grouping baseline."""
from __future__ import annotations

from typing import Mapping

import numpy as np

from . import tensor as T
from .graphs import Batch
from .tensor import Tensor


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def init_gin_params(
    rng: np.random.Generator,
    in_dim: int,
    hidden: int,
    num_layers: int,
    learnable_eps: bool = False,
    prefix: str = "gin",
) -> dict[str, np.ndarray]:
    """Per-layer two-linear MLP (d_in -> hidden -> hidden) with ReLU inside."""
    params: dict[str, np.ndarray] = {}
    d = in_dim
    for layer in range(num_layers):
        params[f"{prefix}.{layer}.w1"] = glorot_uniform(rng, d, hidden)
        params[f"{prefix}.{layer}.b1"] = np.zeros(hidden)
        params[f"{prefix}.{layer}.w2"] = glorot_uniform(rng, hidden, hidden)
        params[f"{prefix}.{layer}.b2"] = np.zeros(hidden)
        if learnable_eps:
            params[f"{prefix}.{layer}.eps"] = np.zeros(1)
        d = hidden
    return params


def gin_layer(
    h: Tensor,
    batch: Batch,
    w1: Tensor,
    b1: Tensor,
    w2: Tensor,
    b2: Tensor,
    eps: Tensor | None = None,
) -> Tensor:
    """MLP((1+eps)*h_v + sum of the rows h_src over the directed edges
    (src, v) of the batch); no eps is eps = 0."""
    neigh = T.neighbour_sum(h, batch.by_dst, batch.edge_index[0])
    self_term = h if eps is None else T.add(h, T.mul(h, eps))
    z = T.add(self_term, neigh)
    hidden = T.relu(T.add(T.matmul(z, w1), b1))
    return T.add(T.matmul(hidden, w2), b2)


def encode_nodes(
    batch: Batch,
    params: Mapping[str, Tensor],
    num_layers: int,
    prefix: str = "gin",
) -> Tensor:
    """Stack GIN layers over the batched node block; L=0 returns the inputs."""
    h = Tensor(batch.features)
    for layer in range(num_layers):
        h = gin_layer(
            h,
            batch,
            params[f"{prefix}.{layer}.w1"],
            params[f"{prefix}.{layer}.b1"],
            params[f"{prefix}.{layer}.w2"],
            params[f"{prefix}.{layer}.b2"],
            eps=params.get(f"{prefix}.{layer}.eps"),
        )
    return h


def init_projection_head(
    rng: np.random.Generator,
    node_dim: int,
    out_dim: int,
    prefix: str = "head",
) -> dict[str, np.ndarray]:
    """Two dense layers of width out_dim (no biases), plus a linear lift when
    the node width differs from the head width."""
    params: dict[str, np.ndarray] = {}
    if node_dim != out_dim:
        params[f"{prefix}.lift"] = glorot_uniform(rng, node_dim, out_dim)
    params[f"{prefix}.w1"] = glorot_uniform(rng, out_dim, out_dim)
    params[f"{prefix}.w2"] = glorot_uniform(rng, out_dim, out_dim)
    return params


def readout_projection(
    node_embeddings: Tensor,
    batch: Batch,
    params: Mapping[str, Tensor],
    prefix: str = "head",
) -> Tensor:
    """Per-graph sum readout followed by the two-layer projection head."""
    pooled = T.index_add(node_embeddings, batch.by_graph)
    if f"{prefix}.lift" in params:
        pooled = T.matmul(pooled, params[f"{prefix}.lift"])
    hidden = T.relu(T.matmul(pooled, params[f"{prefix}.w1"]))
    return T.matmul(hidden, params[f"{prefix}.w2"])
