import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from groupcontrast import tensor as T
from groupcontrast.augment import AUGMENTATION_KINDS, AugmentationPolicy, _lowest, sample_view
from groupcontrast.encoder import encode_nodes, init_gin_params
from groupcontrast.graphs import Graph, GraphError, batch_graphs, generate_planted_motif_dataset
from groupcontrast.seeding import stream_rng
from strategies import valid_graphs


def path_graph(n=10, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return Graph(n, rng.standard_normal((n, d)),
                 tuple((i, i + 1) for i in range(n - 1)), label=0)


def view_of(graphs, kinds, ratio, seed, *key):
    policy = AugmentationPolicy(kinds=tuple(kinds), ratio=ratio)
    return sample_view(batch_graphs(graphs), policy, stream_rng(seed, "augment", *key))


def unbatch(batch) -> list[Graph]:
    """Each segment of a batch, rebuilt through the public constructor from
    the pairs its first endpoints own."""
    owner = batch.graph_index[batch.edges[:, 0]]
    return [Graph(int(hi - lo), batch.features[lo:hi], batch.edges[owner == b] - lo)
            for b, (lo, hi) in enumerate(batch.segments)]


def assert_same_batch(a, b):
    for x, y in ((a.features, b.features), (a.segments, b.segments),
                 (a.graph_index, b.graph_index), (a.edges, b.edges)):
        assert x.dtype == y.dtype and np.array_equal(x, y)


def is_connected(g: Graph) -> bool:
    if g.num_nodes == 1:
        return True
    adj = {v: set() for v in range(g.num_nodes)}
    for a, b in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for u in adj[v]:
            if u not in seen:
                seen.add(u)
                frontier.append(u)
    return len(seen) == g.num_nodes


def kept_rows(g: Graph, view: Graph) -> list[int]:
    """The input nodes a view kept; feature rows are distinct, so they name them."""
    rows = {r.tobytes(): i for i, r in enumerate(g.node_features)}
    return [rows[r.tobytes()] for r in view.node_features]


def assert_induced(g: Graph, view: Graph):
    # kept nodes in input order; exactly the input edges between kept nodes,
    # in input order and orientation
    kept = kept_rows(g, view)
    assert kept == sorted(kept)
    back = [(kept[u], kept[w]) for u, w in view.edges.tolist()]
    assert back == [(u, w) for u, w in g.edges.tolist() if u in kept and w in kept]


def test_policy_validation():
    with pytest.raises(GraphError):
        AugmentationPolicy(kinds=())
    with pytest.raises(GraphError):
        AugmentationPolicy(kinds=("node-drop", "edge-rewire"))
    with pytest.raises(GraphError):
        AugmentationPolicy(ratio=1.0)


def test_zero_ratio_is_identity():
    graphs = [path_graph(), path_graph(3, seed=1), Graph(1, np.ones((1, 4)), ())]
    for kind in AUGMENTATION_KINDS:
        assert_same_batch(view_of(graphs, [kind], 0.0, 0), batch_graphs(graphs))


def test_node_drop_counts_and_reindexing():
    graphs = [path_graph(10), path_graph(5, seed=1), Graph(1, np.zeros((1, 4)), ())]
    view = view_of(graphs, ["node-drop"], 0.2, 1)
    # the drop count floors, so a one-node graph is left alone
    assert (view.segments[:, 1] - view.segments[:, 0]).tolist() == [8, 4, 1]
    for g, v in zip(graphs, unbatch(view)):
        assert all(0 <= u < v.num_nodes and 0 <= w < v.num_nodes for u, w in v.edges)
        # surviving feature rows are rows of the original matrix
        orig_rows = {r.tobytes() for r in g.node_features}
        assert all(r.tobytes() in orig_rows for r in v.node_features)


def test_node_drop_cannot_remove_everything():
    # ratio 1 is rejected by the policy, and below it the drop count floors
    # to fewer than n, so every graph keeps a node
    graphs = [path_graph(2), path_graph(5, seed=1), Graph(1, np.zeros((1, 4)), ())]
    view = view_of(graphs, ["node-drop"], 0.99, 0)
    assert (view.segments[:, 1] - view.segments[:, 0]).tolist() == [1, 1, 1]


def test_edge_perturb_preserves_count_and_validity():
    graphs = [path_graph(10), path_graph(8, seed=1)]
    for g, v in zip(graphs, unbatch(view_of(graphs, ["edge-perturb"], 0.4, 2))):
        assert len(v.edges) == len(g.edges)
        undirected = {frozenset(e) for e in v.edges.tolist()}
        assert len(undirected) == len(v.edges)  # no duplicates
        # added edges come from the original graph's non-edges
        existing = {frozenset(e) for e in g.edges.tolist()}
        assert len(undirected - existing) == int(0.4 * len(g.edges))


def test_edge_perturb_on_near_complete_graph():
    # K4: no non-edges to add, so only the removal count applies
    edges = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
    g = Graph(4, np.zeros((4, 2)), edges)
    (v,) = unbatch(view_of([g], ["edge-perturb"], 0.5, 3))
    assert len(v.edges) == len(edges) - int(0.5 * len(edges))


def test_undefined_kinds_return_the_input_graph():
    # nothing to perturb on an edgeless graph, no proper subgraph of one node
    edgeless = Graph(3, np.ones((3, 2)), ())
    single = Graph(1, np.ones((1, 2)), ())
    for kind, g in (("edge-perturb", edgeless), ("subgraph", single)):
        assert_same_batch(view_of([g, g], [kind], 0.5, 0), batch_graphs([g, g]))


def test_attribute_mask_zeroes_rows_only():
    g = path_graph(10)
    (v,) = unbatch(view_of([g], ["attribute-mask"], 0.3, 4))
    assert np.array_equal(v.edges, g.edges)
    zero_rows = [i for i in range(10) if np.all(v.node_features[i] == 0)]
    assert len(zero_rows) == 3
    kept = [i for i in range(10) if i not in zero_rows]
    assert np.array_equal(v.node_features[kept], g.node_features[kept])


def test_subgraph_keeps_connected_inputs_connected():
    graphs = [path_graph(12, seed=seed) for seed in range(4)]
    for seed in range(20):
        for v in unbatch(view_of(graphs, ["subgraph"], 0.25, seed)):
            assert v.num_nodes == int(np.ceil(0.75 * 12))
            assert is_connected(v)


def test_subgraph_handles_disconnected_input():
    # two components of 3 nodes each; the target size forces a jump
    g = Graph(6, np.arange(12.0).reshape(6, 2), ((0, 1), (1, 2), (3, 4), (4, 5)))
    (v,) = unbatch(view_of([g], ["subgraph"], 0.1, 0))
    assert v.num_nodes == 6
    assert_induced(g, v)


def test_determinism_per_stream():
    graphs = [path_graph(10), path_graph(7, seed=1)]
    for kind in AUGMENTATION_KINDS:
        assert_same_batch(view_of(graphs, [kind], 0.3, 7, 1), view_of(graphs, [kind], 0.3, 7, 1))


def test_sample_view_uses_enabled_kinds_only():
    # a node-drop-only policy always changes the node count at ratio 0.2
    graphs = [path_graph(10, seed=s) for s in range(3)]
    for seed in range(5):
        view = view_of(graphs, ["node-drop"], 0.2, seed)
        assert (view.segments[:, 1] - view.segments[:, 0]).tolist() == [8, 8, 8]


def test_sample_view_default_policy_runs_on_generated_data():
    ds = generate_planted_motif_dataset(7, 8, 10, 6)
    policy = AugmentationPolicy()
    assert policy.kinds == ("node-drop", "attribute-mask")
    view = sample_view(batch_graphs(list(ds.graphs)), policy, stream_rng(0, "augment"))
    assert view.num_graphs == 8
    assert (view.segments[:, 1] > view.segments[:, 0]).all()


def test_all_kinds_registered():
    assert set(AUGMENTATION_KINDS) == {
        "node-drop", "edge-perturb", "attribute-mask", "subgraph"}


# chi-square bound for 6 equally likely outcomes (5 degrees of freedom) at
# p = 0.001; the draws are seeded, so the statistic is fixed
CHI2_BOUND = 20.52


@pytest.mark.parametrize("kind", ["node-drop", "attribute-mask", "edge-perturb"])
def test_each_subset_is_equally_likely(kind):
    # GraphCL's kinds keep a uniform floor(ratio*n) subset of the nodes or
    # edges: on 4 of them at ratio 0.5, each of the 6 pairs is picked alike
    g = Graph(4, np.arange(8.0).reshape(4, 2) + 1, ((0, 1), (1, 2), (2, 3), (3, 0)))
    items = g.edges.tolist() if kind == "edge-perturb" else list(range(4))
    counts = dict.fromkeys(itertools.combinations(range(4), 2), 0)
    for seed in range(20):
        for v in unbatch(view_of([g] * 60, [kind], 0.5, seed)):
            if kind == "node-drop":
                picked = set(range(4)) - set(kept_rows(g, v))
            elif kind == "attribute-mask":
                picked = {i for i in range(4) if not v.node_features[i].any()}
            else:
                picked = {i for i, e in enumerate(items) if e not in v.edges.tolist()}
            counts[tuple(sorted(picked))] += 1
    expected = 1200 / len(counts)
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < CHI2_BOUND, counts


def _lowest_per_graph(key, owner, k):
    """_lowest graph by graph: each graph's items sorted by key, a tie to
    the earlier item, and its first k[b] marked."""
    low = np.zeros(len(key), dtype=bool)
    for b in range(len(k)):
        items = np.flatnonzero(owner == b).tolist()
        low[sorted(items, key=lambda i: (key[i], i))[:k[b]]] = True
    return low


@given(sizes=st.lists(st.integers(0, 40) | st.integers(41, 300), min_size=1, max_size=8),
       data=st.data())
@example(sizes=[0, 3, 0, 3, 1, 0], data=None)
@example(sizes=[40, 0, 40, 17], data=None)
@example(sizes=[300, 4, 0, 157, 60, 5, 300, 23], data=None)
def test_lowest_marks_each_graphs_k_lowest_keys(sizes, data):
    # graphs of equal and of mixed sizes up to 300 nodes, empty ones among
    # them, keys with ties, and k from 0 past the graph's size. Rows of over
    # 16 ties tell a stable sort from numpy's default
    owner = np.repeat(np.arange(len(sizes)), sizes)
    if data is None:
        rng = np.random.default_rng(sum(sizes))
        key = rng.integers(0, 3, len(owner)) / 4
        k = np.array([rng.integers(0, n + 2) for n in sizes], dtype=np.intp)
    else:
        key = data.draw(hnp.arrays(np.float64, len(owner), elements=st.sampled_from(
            [0.0, 0.25, 0.5]) | st.floats(0.0, 1.0, exclude_max=True)))
        k = np.array([data.draw(st.integers(0, n + 1)) for n in sizes], dtype=np.intp)
    got = _lowest(key, owner, k)
    assert got.dtype == bool and np.array_equal(got, _lowest_per_graph(key, owner, k))


def test_lowest_over_65536_graphs_sorts_by_the_full_owner():
    # past 65536 graphs the owner does not fit 16 bits and is sorted as it
    # is; the mask is that of one lexsort by owner, then key
    rng = np.random.default_rng(0)
    sizes = rng.integers(0, 3, (1 << 16) + 9)
    owner = np.repeat(np.arange(len(sizes)), sizes)
    key = rng.integers(0, 2, len(owner)) / 2
    k = rng.integers(0, 3, len(sizes))
    order = np.lexsort((key, owner))
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order)) - np.searchsorted(owner[order], owner[order])
    assert np.array_equal(_lowest(key, owner, k), rank < k[owner])


_GIN = {name: T.Tensor(value) for name, value in
        init_gin_params(stream_rng(0, "init"), 3, 4, 2).items()}


def aggregations(view) -> list[tuple[np.ndarray, np.ndarray]]:
    """The input and the output of each GIN aggregation of a two-layer
    ``encode_nodes`` over the view."""
    sums, gin_aggregate = [], T.gin_aggregate

    def recorded(x, plan, eps=None):
        out = gin_aggregate(x, plan, eps)
        sums.append((x.values, out.values))
        return out

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(T, "gin_aggregate", recorded)
        encode_nodes(view, _GIN, 2)
    assert len(sums) == 2
    return sums


# a 1-node graph, an edgeless one and a 2-node edge: at the largest ratio
# every kind would drop, mask or rewire all it could
_SMALLEST = [Graph(1, [[1.0, 2.0, 3.0]], ()), Graph(3, np.arange(9.0).reshape(3, 3), ()),
             Graph(2, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]], ((0, 1),))]
_KIND_SETS = [(kind,) for kind in AUGMENTATION_KINDS] + [AUGMENTATION_KINDS]


@given(graphs=st.lists(valid_graphs(), min_size=1, max_size=4),
       kinds=st.sampled_from(_KIND_SETS),
       ratio=st.sampled_from((0.0, 0.2, 0.5, 0.9, 0.999999)), seed=st.integers(0, 99))
@example(graphs=_SMALLEST, kinds=AUGMENTATION_KINDS, ratio=0.999999, seed=0)
@example(graphs=_SMALLEST, kinds=("node-drop",), ratio=0.999999, seed=1)
@example(graphs=_SMALLEST, kinds=("edge-perturb",), ratio=0.999999, seed=2)
@example(graphs=_SMALLEST, kinds=("attribute-mask",), ratio=0.999999, seed=3)
@example(graphs=_SMALLEST, kinds=("subgraph",), ratio=0.999999, seed=4)
def test_views_pass_the_public_constructor(graphs, kinds, ratio, seed):
    # views are built without validation, so each segment must be a graph
    # Graph(...) accepts as is, and batching those graphs must give the view.
    # The pooling ops read the segments as they are: each must be non-empty,
    # and together they tile the node rows in order
    view = view_of(graphs, kinds, ratio, seed)
    assert all(a.dtype == np.intp for a in (view.edges, view.segments, view.graph_index))
    assert view.num_graphs == len(graphs)
    starts, stops = view.segments.T
    assert np.all(stops > starts)
    assert starts[0] == 0 and np.array_equal(starts[1:], stops[:-1])
    assert stops[-1] == len(view.features)
    assert_same_batch(batch_graphs(unbatch(view)), view)
    # the view's edges hold each undirected pair once, inside one graph,
    # in range and loop-free, as a Graph's do
    u, v = view.edges.T
    assert view.edges.shape == (len(u), 2) and np.all((0 <= view.edges) & (view.edges < stops[-1]))
    assert np.all(u != v) and np.array_equal(view.graph_index[u], view.graph_index[v])
    assert len({frozenset(pair) for pair in view.edges.tolist()}) == len(u)
    # every GIN layer sums each pair both ways, in list order: forward, then
    # reversed, as numpy's sequential scatter-add does, then adds the node's
    # own row
    src, dst = np.concatenate([u, v]), np.concatenate([v, u])
    for x, summed in aggregations(view):
        ref = np.zeros_like(x)
        np.add.at(ref, dst, x[src])
        assert summed.tobytes() == (ref + x).tobytes()


@given(graphs=st.lists(valid_graphs(), min_size=1, max_size=4),
       kind=st.sampled_from(("node-drop", "subgraph")),
       ratio=st.sampled_from((0.2, 0.5, 0.9)), seed=st.integers(0, 99))
def test_node_drop_and_subgraph_return_induced_subgraphs(graphs, kind, ratio, seed):
    for g, v in zip(graphs, unbatch(view_of(graphs, [kind], ratio, seed))):
        assert_induced(g, v)


@given(graphs=st.lists(valid_graphs(), min_size=1, max_size=4),
       ratio=st.sampled_from((0.0, 0.2, 0.5, 0.9)), seed=st.integers(0, 99))
def test_views_are_augmented_graphs_in_batch_layout(graphs, ratio, seed):
    view = view_of(graphs, AUGMENTATION_KINDS, ratio, seed)
    # every segment passes the public constructor, and batching those graphs
    # again gives the view, array for array
    rebuilt = unbatch(view)
    assert_same_batch(batch_graphs(rebuilt), view)
    # the first draw of the stream is each graph's kind
    drawn = stream_rng(seed, "augment").integers(len(AUGMENTATION_KINDS), size=len(graphs))
    for g, v, kind in zip(graphs, rebuilt, (AUGMENTATION_KINDS[i] for i in drawn)):
        n, k = g.num_nodes, int(ratio * g.num_nodes)
        if kind == "node-drop":
            assert v.num_nodes == n - k
            assert_induced(g, v)
        elif kind == "subgraph":
            assert v.num_nodes == (max(math.ceil((1 - ratio) * n), 1) if n >= 2 else n)
            assert_induced(g, v)
        elif kind == "attribute-mask":
            assert np.array_equal(v.edges, g.edges)
            zeroed = ~v.node_features.any(axis=1)
            assert zeroed.sum() == k
            assert np.array_equal(v.node_features[~zeroed], g.node_features[~zeroed])
        else:
            assert np.array_equal(v.node_features, g.node_features)
            # the kept input edges in input order and orientation, then
            # uniform non-edges of the input in row-major order
            edges, k = g.edges.tolist(), int(ratio * len(g.edges))
            out = v.edges.tolist()
            kept = [e for e in out if e in edges]
            added = out[len(kept):]
            assert kept == [e for e in edges if e in kept] and len(kept) == len(edges) - k
            pairs = {frozenset(e) for e in edges}
            non_edges = [[u, w] for u in range(n) for w in range(u + 1, n)
                         if frozenset((u, w)) not in pairs]
            assert added == [e for e in non_edges if e in added]
            assert len(added) == min(k, len(non_edges))
