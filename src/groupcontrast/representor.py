"""Attention-based representor: project node embeddings to key/value,
attend with learned queries, emit one graph-level embedding per group."""
from __future__ import annotations

from typing import Mapping

import numpy as np

from . import tensor as T
from .encoder import glorot_uniform
from .graphs import Batch
from .tensor import DimensionError, Tensor


def init_representor_params(
    rng: np.random.Generator,
    node_dim: int,
    key_dim: int,
    group_dim: int,
    num_groups: int,
    prefix: str = "rep",
) -> dict[str, np.ndarray]:
    return {
        f"{prefix}.wk": glorot_uniform(rng, node_dim, key_dim),
        f"{prefix}.wv": glorot_uniform(rng, node_dim, group_dim),
        # queries scaled to keep initial attention scores O(1)
        f"{prefix}.q": rng.standard_normal((key_dim, num_groups)) / np.sqrt(key_dim),
    }


def attention(
    k: Tensor,
    q: Tensor,
    segments: np.ndarray,
    scale_scores: bool = False,
) -> Tensor:
    """Scores KQ normalized along each graph's node dimension, per column."""
    if k.shape[1] != q.shape[0]:
        raise DimensionError(f"attention: key width {k.shape[1]} != query rows {q.shape[0]}")
    scores = T.matmul(k, q)
    if scale_scores:
        scores = T.smul(scores, 1.0 / np.sqrt(k.shape[1]))
    return T.segment_softmax(scores, segments)


def group_embed(v: Tensor, a: Tensor, batch: Batch) -> list[Tensor]:
    """Attention-weighted sums of value rows per graph, one tensor per group.

    All p groups are pooled at once. Node n's weighted values form an
    (N, p, d) block, ``a[n, k] * v[n]``; one index-add over the nodes' graphs
    turns it into a (B, p, d) block whose entry [g, k] is group k of graph g.
    Each group vector is L2-normalized, so discriminator scores are bounded.
    The result is held flat as (B, p * d) with the groups in order and handed
    on as p (B, d) column slices.
    """
    n, p = a.shape
    d = v.shape[1]
    b = batch.num_graphs
    weighted = T.mul(T.reshape(a, (n, p, 1)), T.reshape(v, (n, 1, d)))
    pooled = T.index_add(weighted, batch.graph_index, b)
    unit = T.reshape(T.row_l2_normalize(T.reshape(pooled, (b * p, d))), (b, p * d))
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
    prefix: str = "rep",
) -> tuple[list[Tensor], Tensor]:
    """Full representor pass; returns group tensors and the attention matrix."""
    k = T.matmul(node_embeddings, params[f"{prefix}.wk"])
    v = T.matmul(node_embeddings, params[f"{prefix}.wv"])
    a = attention(k, params[f"{prefix}.q"], batch.segments, scale_scores)
    return group_embed(v, a, batch), a
