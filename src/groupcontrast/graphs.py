"""Graph/dataset types, a line-delimited file format, a synthetic
planted-motif generator, and block-segment batching."""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .seeding import stream_rng
from .tensor import RowSum


class GraphError(ValueError):
    pass


class DatasetFormatError(ValueError):
    """Malformed dataset record; message carries the 1-based line number."""


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected graph with dense node features and an optional class label.

    Edges are an (E, 2) intp array holding each undirected pair once, with no
    self-loops (GIN aggregation adds the self term). ``Graph(...)`` takes any
    sequence of integer pairs and validates it once.
    """

    num_nodes: int
    node_features: np.ndarray
    edges: np.ndarray
    label: int | None = None

    def __post_init__(self):
        if self.num_nodes <= 0:
            raise GraphError("graph must have at least one node")
        feats = np.asarray(self.node_features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != self.num_nodes:
            raise GraphError(
                f"feature matrix shape {feats.shape} does not match {self.num_nodes} nodes")
        if not np.all(np.isfinite(feats)):
            raise GraphError("node features hold non-finite values")
        object.__setattr__(self, "node_features", feats)
        object.__setattr__(self, "edges", _checked_edges(self.edges, self.num_nodes))

    @property
    def feature_dim(self) -> int:
        return self.node_features.shape[1]


def _checked_edges(edges, n: int) -> np.ndarray:
    """`edges` as an (E, 2) intp array of in-range, loop-free, distinct
    undirected pairs."""
    try:
        e = np.asarray(edges)
    except (TypeError, ValueError) as exc:
        raise GraphError(f"edge endpoints must be integers in pairs: {exc}") from exc
    if e.shape == (0,):
        return np.empty((0, 2), dtype=np.intp)
    if e.ndim != 2 or e.shape[1] != 2 or e.dtype.kind not in "iu":
        raise GraphError(
            f"edge endpoints must be integers in pairs, got shape {e.shape} of {e.dtype}")
    if e.size and (e.min() < 0 or e.max() >= n):
        u, v = e[((e < 0) | (e >= n)).any(axis=1)][0]
        raise GraphError(f"edge ({u}, {v}) out of range for {n} nodes")
    e = e.astype(np.intp, copy=False)
    lo, hi = np.minimum(e[:, 0], e[:, 1]), np.maximum(e[:, 0], e[:, 1])
    if (lo == hi).any():
        raise GraphError(f"explicit self-loop on node {lo[lo == hi][0]}")
    key = lo * n + hi
    ordered = np.sort(key)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if repeated.size:
        u, v = e[np.flatnonzero(key == repeated[0])[1]]
        raise GraphError(f"duplicate undirected edge ({u}, {v})")
    return e


@dataclass(frozen=True, eq=False)
class Dataset:
    graphs: tuple[Graph, ...]
    feature_dim: int
    num_classes: int

    def __post_init__(self):
        object.__setattr__(self, "graphs", tuple(self.graphs))
        for g in self.graphs:
            if g.feature_dim != self.feature_dim:
                raise GraphError(
                    f"graph feature dim {g.feature_dim} != dataset dim {self.feature_dim}")
            if g.label is not None and not (0 <= g.label < max(self.num_classes, 1)):
                raise GraphError(f"label {g.label} outside [0, {self.num_classes})")

    def __len__(self):
        return len(self.graphs)


@dataclass(frozen=True, eq=False)
class Batch:
    """Graphs stacked into one node block with per-graph segment ranges."""

    features: np.ndarray                         # (total_nodes, d)
    edge_index: tuple[np.ndarray, np.ndarray]    # directed (src, dst), see batch_graphs
    segments: np.ndarray                         # (B, 2) [start, end) per graph, in order

    @property
    def num_graphs(self) -> int:
        return len(self.segments)

    # derived once on first use and dropped with the batch

    @cached_property
    def graph_index(self) -> np.ndarray:
        """(total_nodes,) owning graph of each node."""
        sizes = self.segments[:, 1] - self.segments[:, 0]
        return np.repeat(np.arange(self.num_graphs), sizes)

    @cached_property
    def by_dst(self) -> RowSum:
        """Edges bucketed by destination node."""
        return RowSum(self.edge_index[1], len(self.features))

    @cached_property
    def by_graph(self) -> RowSum:
        """Nodes bucketed by owning graph."""
        return RowSum(self.graph_index, self.num_graphs)


def batch_graphs(graphs: list[Graph]) -> Batch:
    """Stack graphs with offset node ids. The edge index holds every edge of
    the batch forward, then every edge reversed."""
    if not graphs:
        raise GraphError("cannot batch an empty graph list")
    if len({g.feature_dim for g in graphs}) > 1:
        raise GraphError("mixed feature dimensions in batch")
    sizes = np.array([g.num_nodes for g in graphs], dtype=np.intp)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    edges = np.concatenate([g.edges for g in graphs]) + np.repeat(
        starts, [len(g.edges) for g in graphs])[:, None]
    return Batch(
        features=np.concatenate([g.node_features for g in graphs], axis=0),
        edge_index=(np.concatenate([edges[:, 0], edges[:, 1]]),
                    np.concatenate([edges[:, 1], edges[:, 0]])),
        segments=np.stack([starts, ends], axis=1),
    )


# ---------------------------------------------------------------------------
# file format: one JSON object per line with fields n, x (row-major), e
# (flat endpoint pairs), optional y


def graph_to_record(g: Graph) -> str:
    rec = {
        "n": g.num_nodes,
        "x": [float(v) for v in g.node_features.reshape(-1)],
        "e": g.edges.reshape(-1).tolist(),
    }
    if g.label is not None:
        rec["y"] = int(g.label)
    return json.dumps(rec, separators=(",", ":"))


def save_dataset(path, dataset: Dataset) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for g in dataset.graphs:
            f.write(graph_to_record(g) + "\n")


def load_dataset(path) -> Dataset:
    graphs: list[Graph] = []
    feature_dim: int | None = None
    # read as bytes and decode line by line, so a bad byte names its line
    with open(path, "rb") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                line = line.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise DatasetFormatError(f"line {lineno}: {exc}") from exc
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetFormatError(f"line {lineno}: invalid record: {exc}") from exc
            if not isinstance(rec, dict) or "n" not in rec or "x" not in rec or "e" not in rec:
                raise DatasetFormatError(f"line {lineno}: record must carry fields n, x, e")
            n = rec["n"]
            # `type(...) is int`: JSON true/false decode to bool, an int subclass
            if type(n) is not int or n <= 0:
                raise DatasetFormatError(f"line {lineno}: invalid node count {n!r}")
            x = rec["x"]
            if not isinstance(x, list) or len(x) % n != 0:
                raise DatasetFormatError(
                    f"line {lineno}: feature list length {len(x) if isinstance(x, list) else '?'} "
                    f"not divisible by {n} nodes")
            if not set(map(type, x)) <= {int, float}:
                raise DatasetFormatError(f"line {lineno}: features must be numbers")
            d = len(x) // n
            if feature_dim is None:
                feature_dim = d
            elif d != feature_dim:
                raise DatasetFormatError(
                    f"line {lineno}: feature dim {d} differs from earlier dim {feature_dim}")
            e = rec["e"]
            if not isinstance(e, list) or len(e) % 2 != 0:
                raise DatasetFormatError(f"line {lineno}: edge list must hold endpoint pairs")
            if not set(map(type, e)) <= {int}:
                raise DatasetFormatError(f"line {lineno}: edge endpoints must be integers")
            label = rec.get("y")
            if label is not None and (type(label) is not int or label < 0):
                raise DatasetFormatError(f"line {lineno}: label must be a non-negative integer")
            try:
                g = Graph(
                    num_nodes=n,
                    node_features=np.asarray(x, dtype=np.float64).reshape(n, d),
                    edges=np.array(e, dtype=np.intp).reshape(-1, 2),
                    label=label,
                )
            except (GraphError, ValueError, OverflowError) as exc:
                raise DatasetFormatError(f"line {lineno}: {exc}") from exc
            graphs.append(g)
    if not graphs:
        return Dataset(graphs=(), feature_dim=0, num_classes=0)
    labels = [g.label for g in graphs if g.label is not None]
    num_classes = (max(labels) + 1) if labels else 0
    return Dataset(graphs=tuple(graphs), feature_dim=feature_dim, num_classes=num_classes)


# ---------------------------------------------------------------------------
# synthetic planted-motif generator

_BACKGROUND_DENSITY = 0.15
_NOISE_SIGMA = 0.01


def generate_planted_motif_dataset(
    seed: int, num_graphs: int, nodes_per_graph: int, feature_dim: int,
) -> Dataset:
    """Two balanced classes of random graphs: class 0 carries a planted
    4-clique, class 1 a planted 6-cycle. Features are one-hot degree buckets
    (capped) plus small seeded Gaussian noise. Deterministic given seed."""
    if num_graphs <= 0 or num_graphs % 2 != 0:
        raise GraphError(f"num_graphs must be positive and even, got {num_graphs}")
    if nodes_per_graph < 8:
        raise GraphError("nodes_per_graph must be at least 8")
    if feature_dim < 4:
        raise GraphError("feature_dim must be at least 4")
    rng = stream_rng(seed, "data")
    graphs = []
    for i in range(num_graphs):
        label = i % 2
        n = nodes_per_graph
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        num_background = int(round(_BACKGROUND_DENSITY * len(pairs)))
        chosen = rng.choice(len(pairs), size=num_background, replace=False)
        edge_set: set[tuple[int, int]] = {pairs[j] for j in chosen}
        motif_size = 4 if label == 0 else 6
        motif = sorted(rng.choice(n, size=motif_size, replace=False).tolist())
        if label == 0:
            for a in range(motif_size):
                for b in range(a + 1, motif_size):
                    edge_set.add((motif[a], motif[b]))
        else:
            # the cycle is planted as an induced subgraph: background chords
            # between motif nodes are removed so the motif really is a 6-cycle
            ring = list(motif)
            for a in range(motif_size):
                for b in range(a + 1, motif_size):
                    edge_set.discard((motif[a], motif[b]))
            for a in range(motif_size):
                u, v = ring[a], ring[(a + 1) % motif_size]
                edge_set.add((min(u, v), max(u, v)))
        edges = tuple(sorted(edge_set))
        degree = np.bincount(np.ravel(edges), minlength=n)
        feats = np.zeros((n, feature_dim))
        feats[np.arange(n), np.minimum(degree, feature_dim - 1)] = 1.0
        feats += rng.normal(0.0, _NOISE_SIGMA, size=feats.shape)
        graphs.append(Graph(num_nodes=n, node_features=feats, edges=edges, label=label))
    return Dataset(graphs=tuple(graphs), feature_dim=feature_dim, num_classes=2)
