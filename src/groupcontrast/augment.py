"""Stochastic graph view generation for the augmented-view pipeline."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Graph, GraphError

AUGMENTATION_KINDS = ("node-drop", "edge-perturb", "attribute-mask", "subgraph")


@dataclass(frozen=True)
class AugmentationPolicy:
    kinds: tuple[str, ...] = ("node-drop", "attribute-mask")
    ratio: float = 0.2

    def __post_init__(self):
        if not self.kinds:
            raise GraphError("augmentation policy needs at least one kind")
        for k in self.kinds:
            if k not in AUGMENTATION_KINDS:
                raise GraphError(f"unknown augmentation kind {k!r}")
        if not (0.0 <= self.ratio < 1.0):
            raise GraphError(f"augmentation ratio must lie in [0, 1), got {self.ratio}")


def _induced(g: Graph, keep: np.ndarray) -> Graph:
    """The subgraph induced by the nodes where `keep` is set; nodes and edges
    keep their relative order."""
    new_id = np.cumsum(keep) - 1
    edges = g.edges[keep[g.edges].all(axis=1)]
    return Graph._trusted(g.node_features[keep], new_id[edges], g.label)


def node_drop(g: Graph, ratio: float, rng: np.random.Generator) -> Graph:
    """Drop floor(ratio*N) uniform nodes; survivors keep their relative order."""
    k = int(ratio * g.num_nodes)
    if k >= g.num_nodes:
        raise GraphError("node_drop would remove every node")
    if k == 0:
        return g
    keep = np.ones(g.num_nodes, dtype=bool)
    keep[rng.choice(g.num_nodes, size=k, replace=False)] = False
    return _induced(g, keep)


def edge_perturb(g: Graph, ratio: float, rng: np.random.Generator) -> Graph:
    """Remove floor(ratio*|E|) uniform edges and add as many uniform
    non-edges of the original graph (fewer if the graph is near-complete).
    An edgeless graph has nothing to perturb and is returned unchanged."""
    k = int(ratio * len(g.edges))
    if k == 0:
        return g
    kept = np.ones(len(g.edges), dtype=bool)
    kept[rng.choice(len(g.edges), size=k, replace=False)] = False
    edges = g.edges[kept]
    rows, cols = np.triu_indices(g.num_nodes, 1)
    free = np.ones((g.num_nodes, g.num_nodes), dtype=bool)
    free[g.edges.min(axis=1), g.edges.max(axis=1)] = False
    non_edges = np.stack([rows, cols], axis=1)[free[rows, cols]]   # row-major order
    n_add = min(k, len(non_edges))
    if n_add:
        added = rng.choice(len(non_edges), size=n_add, replace=False)
        edges = np.concatenate([edges, non_edges[np.sort(added)]])
    return Graph._trusted(g.node_features.copy(), edges, g.label)


def attribute_mask(g: Graph, ratio: float, rng: np.random.Generator) -> Graph:
    """Zero the feature rows of floor(ratio*N) uniform nodes; structure kept."""
    k = int(ratio * g.num_nodes)
    if k == 0:
        return g
    masked = rng.choice(g.num_nodes, size=k, replace=False)
    feats = g.node_features.copy()
    feats[masked] = 0.0
    return Graph._trusted(feats, g.edges, g.label)


def subgraph_sample(g: Graph, ratio: float, rng: np.random.Generator) -> Graph:
    """Random-walk-grown node subset of size ceil((1-ratio)*N); returns the
    induced subgraph. Connected inputs yield connected outputs. A single-node
    graph has no proper subgraph and is returned unchanged."""
    if g.num_nodes < 2:
        return g
    target = max(int(np.ceil((1.0 - ratio) * g.num_nodes)), 1)
    # neighbor lists in ascending order, as the walk's random draws index them
    adj: list[list[int]] = [[] for _ in range(g.num_nodes)]
    for u, v in sorted(np.concatenate([g.edges, g.edges[:, ::-1]]).tolist()):
        adj[u].append(v)
    current = int(rng.integers(g.num_nodes))
    kept = {current}
    while len(kept) < target:
        candidates = [u for u in adj[current] if u not in kept]
        if candidates:
            current = candidates[int(rng.integers(len(candidates)))]
            kept.add(current)
            continue
        # stuck: restart from a kept node with an unkept neighbor
        frontier = [v for v in kept if any(u not in kept for u in adj[v])]
        if frontier:
            current = frontier[int(rng.integers(len(frontier)))]
        else:
            # kept component exhausted (disconnected input): jump outside
            outside = [v for v in range(g.num_nodes) if v not in kept]
            current = outside[int(rng.integers(len(outside)))]
            kept.add(current)
    keep = np.zeros(g.num_nodes, dtype=bool)
    keep[list(kept)] = True
    return _induced(g, keep)


_KIND_FNS = {
    "node-drop": node_drop,
    "edge-perturb": edge_perturb,
    "attribute-mask": attribute_mask,
    "subgraph": subgraph_sample,
}


def sample_view(g: Graph, policy: AugmentationPolicy, rng: np.random.Generator) -> Graph:
    """Uniformly pick one enabled kind and apply it with the policy ratio."""
    kind = policy.kinds[int(rng.integers(len(policy.kinds)))]
    return _KIND_FNS[kind](g, policy.ratio, rng)
