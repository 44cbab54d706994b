"""GIN node encoder and the sum-readout projection head used by the
non-grouping baseline."""
from __future__ import annotations

from typing import Mapping

import numpy as np

from . import tensor as T
from .graphs import Batch
from .tensor import NumericError, Tensor


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    a = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


# A layout lists a block's parameters in draw order as (name, shape, init):
# "glorot" draws glorot_uniform over the two axes, "normal" a standard normal
# over the square root of the row count, and "zeros" draws nothing. Shapes
# are known before any array exists.
Layout = list[tuple[str, tuple[int, ...], str]]


def draw_params(rng: np.random.Generator, layout: Layout) -> dict[str, np.ndarray]:
    params = {}
    for name, shape, init in layout:
        if init == "glorot":
            params[name] = glorot_uniform(rng, *shape)
        elif init == "normal":
            params[name] = rng.standard_normal(shape) / np.sqrt(shape[0])
        else:
            params[name] = np.zeros(shape)
    return params


def gin_layout(in_dim: int, hidden: int, num_layers: int, learnable_eps: bool = False) -> Layout:
    """Per-layer two-linear MLP (d_in -> hidden -> hidden) with ReLU inside."""
    layout: Layout = []
    d = in_dim
    for layer in range(num_layers):
        layout += [(f"gin.{layer}.w1", (d, hidden), "glorot"),
                   (f"gin.{layer}.b1", (hidden,), "zeros"),
                   (f"gin.{layer}.w2", (hidden, hidden), "glorot"),
                   (f"gin.{layer}.b2", (hidden,), "zeros")]
        if learnable_eps:
            layout.append((f"gin.{layer}.eps", (1,), "zeros"))
        d = hidden
    return layout


def init_gin_params(
    rng: np.random.Generator,
    in_dim: int,
    hidden: int,
    num_layers: int,
    learnable_eps: bool = False,
) -> dict[str, np.ndarray]:
    return draw_params(rng, gin_layout(in_dim, hidden, num_layers, learnable_eps))


def encode_nodes(
    batch: Batch,
    params: Mapping[str, Tensor],
    num_layers: int,
) -> Tensor:
    """Stack GIN layers over the batched node block; L=0 returns the inputs.
    Layer l maps h to ``mlp((1 + eps) * h_v + the sum of the rows h_u over
    the neighbours u of v)`` with its ``gin.{l-1}`` weights; no eps is
    eps = 0, the aggregation one ``gin_aggregate`` op. The layers share one
    plan of the batch's edges, and each drops its input before its mlp
    runs. A numeric error names its layer, counted from 1 (``gin.0`` is
    layer 1)."""
    h = Tensor(batch.features)
    plan = T.EdgePlan(batch.edges, len(batch.features))
    for layer in range(num_layers):
        try:
            h = T.gin_aggregate(h, plan, params.get(f"gin.{layer}.eps"))
            h = T.mlp(h, *(params[f"gin.{layer}.{name}"] for name in ("w1", "b1", "w2", "b2")))
        except NumericError as exc:
            raise type(exc)(f"gin layer {layer + 1} of {num_layers}: {exc}") from exc
    return h


def head_layout(node_dim: int, out_dim: int) -> Layout:
    """Two dense layers of width out_dim (no biases), plus a linear lift when
    the node width differs from the head width."""
    lift = [("head.lift", (node_dim, out_dim), "glorot")] if node_dim != out_dim else []
    return lift + [("head.w1", (out_dim, out_dim), "glorot"),
                   ("head.w2", (out_dim, out_dim), "glorot")]


def readout_projection(
    node_embeddings: Tensor,
    batch: Batch,
    params: Mapping[str, Tensor],
) -> Tensor:
    """Per-graph sum readout followed by the two-layer projection head. The
    readout pools the nodes with one uniform group: ``pool_outer`` with a
    column of ones."""
    ones = Tensor(np.ones((node_embeddings.shape[0], 1)))
    pooled = T.reshape(T.pool_outer(ones, node_embeddings, batch.segments),
                       (batch.num_graphs, node_embeddings.shape[1]))
    if "head.lift" in params:
        pooled = T.matmul(pooled, params["head.lift"])
    hidden = T.relu(T.matmul(pooled, params["head.w1"]))
    return T.matmul(hidden, params["head.w2"])
