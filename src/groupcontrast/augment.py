"""Stochastic graph view generation for the augmented-view pipeline."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Batch, GraphError

AUGMENTATION_KINDS = ("node-drop", "edge-perturb", "attribute-mask", "subgraph")


@dataclass(frozen=True)
class AugmentationPolicy:
    kinds: tuple[str, ...] = ("node-drop", "attribute-mask")
    ratio: float = 0.2

    def __post_init__(self):
        if not self.kinds:
            raise GraphError("augmentation policy needs at least one kind")
        for i, k in enumerate(self.kinds):
            if k not in AUGMENTATION_KINDS:
                raise GraphError(f"unknown augmentation kind {k!r}")
            # each graph draws one kind uniformly: a repeat would weight it
            if k in self.kinds[:i]:
                raise GraphError(f"repeated augmentation kind {k!r}")
        if not (0.0 <= self.ratio < 1.0):
            raise GraphError(f"augmentation ratio must lie in [0, 1), got {self.ratio}")


def _lowest(key: np.ndarray, owner: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Mask of the k[b] items of lowest `key` among the items of each graph b."""
    order = np.lexsort((key, owner))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - np.searchsorted(owner[order], owner[order])
    return rank < k[owner]


def _walk(adj: dict[int, list[int]], lo: int, hi: int, ratio: float,
          rng: np.random.Generator) -> list[int]:
    """A random-walk-grown subset of ceil((1-ratio)*n) of the nodes lo..hi-1.
    A stuck walk restarts from a kept node with an unkept neighbour, so a
    connected graph gives a connected subset; when the kept component is
    exhausted (a disconnected graph) it jumps to a uniform unkept node."""
    target = max(int(np.ceil((1.0 - ratio) * (hi - lo))), 1)
    current = lo + int(rng.integers(hi - lo))
    kept = {current}
    while len(kept) < target:
        candidates = [u for u in adj[current] if u not in kept]
        if candidates:
            current = candidates[int(rng.integers(len(candidates)))]
            kept.add(current)
            continue
        frontier = [v for v in sorted(kept) if any(u not in kept for u in adj[v])]
        if frontier:
            current = frontier[int(rng.integers(len(frontier)))]
        else:
            outside = [v for v in range(lo, hi) if v not in kept]
            current = outside[int(rng.integers(len(outside)))]
            kept.add(current)
    return list(kept)


def _perturb_edges(edges, owner, segments, ratios, rng):
    """The (E, 2) pairs `edges` (`owner` holds each pair's graph) with, in
    each graph b, the k = floor(ratios[b]*|E|) lowest-ranked pairs removed
    and as many uniform non-edges of the input graph added after its kept
    pairs (fewer if it is near-complete)."""
    k = (ratios * np.bincount(owner, minlength=len(segments))).astype(np.intp)
    kept = ~_lowest(rng.random(len(edges)), owner, k)
    parts = [(edges[kept], owner[kept])]
    for b in np.flatnonzero(k):
        lo, hi = segments[b]
        (u, v), n = (edges[owner == b] - lo).T, hi - lo
        rows, cols = np.triu_indices(n, 1)           # every pair, in row-major order
        free = ~np.isin(rows * n + cols, np.minimum(u, v) * n + np.maximum(u, v))
        rows, cols = rows[free], cols[free]
        n_add = min(k[b], len(rows))
        if n_add:
            added = np.sort(rng.choice(len(rows), size=n_add, replace=False))
            parts.append((np.stack([rows[added], cols[added]], axis=1) + lo, np.full(n_add, b)))
    edges, owner = (np.concatenate(p) for p in zip(*parts))
    return edges[np.argsort(owner, kind="stable")]


def sample_view(batch: Batch, policy: AugmentationPolicy, rng: np.random.Generator) -> Batch:
    """One augmented view of every graph of a `batch_graphs` batch, in
    `batch_graphs`' layout. Each graph draws one enabled kind uniformly and
    applies it at the policy ratio: node-drop removes, and attribute-mask
    zeroes the features of, a uniform floor(ratio*n) subset of its nodes;
    edge-perturb swaps a uniform floor(ratio*|E|) subset of its edges for
    non-edges; subgraph keeps the induced subgraph of a random walk. Edge-
    perturb on an edgeless graph and subgraph on a one-node graph leave it
    unchanged. The draws, in order: the kinds; one rank key per node; the
    walks, in graph order; and only if some graph perturbs edges, one rank
    key per edge, then each perturbed graph's added non-edges."""
    ratio, segments, owner = policy.ratio, batch.segments, batch.graph_index
    sizes = segments[:, 1] - segments[:, 0]
    kind = np.asarray(policy.kinds)[rng.integers(len(policy.kinds), size=len(segments))]
    low = _lowest(rng.random(len(owner)), owner, (ratio * sizes).astype(np.intp))
    keep = ~(low & (kind == "node-drop")[owner])
    edges = batch.edges
    walked = np.flatnonzero((kind == "subgraph") & (sizes >= 2))
    if walked.size:
        # the walk follows each pair both ways
        src, dst = np.concatenate([edges, edges[:, ::-1]]).T
        order = np.lexsort((dst, src))
        ptr = np.searchsorted(src[order], np.arange(len(owner) + 1))
        for lo, hi in segments[walked]:
            adj = {v: dst[order[ptr[v]:ptr[v + 1]]].tolist() for v in range(lo, hi)}
            keep[lo:hi] = False
            keep[_walk(adj, lo, hi, ratio, rng)] = True
    if (kind == "edge-perturb").any():
        ratios = np.where(kind == "edge-perturb", ratio, 0.0)
        edges = _perturb_edges(edges, owner[edges[:, 0]], segments, ratios, rng)
    new_id = np.cumsum(keep) - 1
    features = batch.features[keep]
    features[(low & (kind == "attribute-mask")[owner])[keep]] = 0.0
    sizes = np.bincount(owner[keep], minlength=len(segments))
    ends = np.cumsum(sizes)
    return Batch(
        features=features,
        edges=new_id[edges[keep[edges[:, 0]] & keep[edges[:, 1]]]],
        segments=np.stack([ends - sizes, ends], axis=1),
    )
