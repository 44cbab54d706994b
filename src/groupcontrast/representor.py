"""Attention-based representor: project node embeddings to key/value,
attend with learned queries, emit one graph-level embedding per group."""
from __future__ import annotations

from typing import Mapping

import numpy as np

from . import tensor as T
from .encoder import Layout, draw_params
from .graphs import Batch
from .tensor import DimensionError, Tensor


def representor_layout(node_dim: int, key_dim: int, group_dim: int, num_groups: int) -> Layout:
    # queries scaled to keep initial attention scores O(1)
    return [("rep.wk", (node_dim, key_dim), "glorot"),
            ("rep.wv", (node_dim, group_dim), "glorot"),
            ("rep.q", (key_dim, num_groups), "normal")]


def init_representor_params(
    rng: np.random.Generator,
    node_dim: int,
    key_dim: int,
    group_dim: int,
    num_groups: int,
) -> dict[str, np.ndarray]:
    return draw_params(rng, representor_layout(node_dim, key_dim, group_dim, num_groups))


def attention(
    h: Tensor,
    wk: Tensor,
    q: Tensor,
    segments: np.ndarray,
    scale_scores: bool = False,
) -> Tensor:
    """Scores ``(h wk) q`` normalized along each graph's node dimension, per
    column. They are computed as ``h (wk q)``: the (node_dim, p) product of
    the key projection and the queries comes first, so no (N, key_dim) key
    block is built. Scaled scores divide by the square root of the key
    width, ``q.shape[0]``."""
    if wk.shape[1] != q.shape[0]:
        raise DimensionError(f"attention: key width {wk.shape[1]} != query rows {q.shape[0]}")
    wq = T.matmul(wk, q)
    if scale_scores:
        wq = T.smul(wq, 1.0 / np.sqrt(q.shape[0]))
    return T.segment_softmax(T.matmul(h, wq), segments)


def group_embed(h: Tensor, a: Tensor, batch: Batch, wv: Tensor) -> list[Tensor]:
    """Attention-weighted sums of value rows per graph, one tensor per group.

    The value projection is linear, so it is applied after pooling: one
    ``pool_outer`` over the batch's segments sums node n's weighted embeddings
    ``a[n, k] * h[n]`` into a (B, p, node_dim) block, building no
    (N, p, node_dim) block in either pass, and one matmul by ``wv`` projects
    all B * p pooled rows to the group width d. No (N, d) value block is
    built. Each group vector is L2-normalized, so discriminator scores are
    bounded. The result is held flat as (B, p * d) with the groups in order
    and handed on as p (B, d) column slices.
    """
    p = a.shape[1]
    width, d = wv.shape
    b = batch.num_graphs
    pooled = T.reshape(T.pool_outer(a, h, batch.segments), (b * p, width))
    unit = T.reshape(T.row_l2_normalize(T.matmul(pooled, wv)), (b, p * d))
    return [T.slice_cols(unit, k * d, (k + 1) * d) for k in range(p)]


def concat_groups(groups: list[Tensor]) -> Tensor:
    """Concatenate group vectors in group order: (num_graphs, p * group_dim)."""
    return T.concat(groups, axis=1)


def duplicate_rep(r: np.ndarray, p: int) -> list[np.ndarray]:
    """p value-independent copies of one representation."""
    if p < 1:
        raise DimensionError("duplicate_rep: p must be at least 1")
    arr = np.asarray(r, dtype=np.float64)
    return [arr.copy() for _ in range(p)]


def forward_groups(
    batch: Batch,
    node_embeddings: Tensor,
    params: Mapping[str, Tensor],
    scale_scores: bool = False,
) -> tuple[list[Tensor], Tensor]:
    """Full representor pass; returns group tensors and the attention matrix."""
    a = attention(node_embeddings, params["rep.wk"], params["rep.q"],
                  batch.segments, scale_scores)
    return group_embed(node_embeddings, a, batch, params["rep.wv"]), a
