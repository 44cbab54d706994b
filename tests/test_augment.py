import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupcontrast.augment import (AUGMENTATION_KINDS, AugmentationPolicy,
                                   attribute_mask, edge_perturb, node_drop,
                                   sample_view, subgraph_sample)
from groupcontrast.graphs import Graph, GraphError, generate_planted_motif_dataset
from groupcontrast.seeding import stream_rng
from strategies import valid_graphs


def path_graph(n=10, d=4, seed=0):
    rng = np.random.default_rng(seed)
    return Graph(n, rng.standard_normal((n, d)),
                 tuple((i, i + 1) for i in range(n - 1)), label=0)


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


def test_policy_validation():
    with pytest.raises(GraphError):
        AugmentationPolicy(kinds=())
    with pytest.raises(GraphError):
        AugmentationPolicy(kinds=("node-drop", "edge-rewire"))
    with pytest.raises(GraphError):
        AugmentationPolicy(ratio=1.0)


def test_zero_ratio_is_identity():
    g = path_graph()
    rng = stream_rng(0, "augment")
    for fn in (node_drop, edge_perturb, attribute_mask):
        out = fn(g, 0.0, rng)
        assert np.array_equal(out.edges, g.edges)
        assert np.array_equal(out.node_features, g.node_features)


def test_node_drop_counts_and_reindexing():
    g = path_graph(10)
    out = node_drop(g, 0.2, stream_rng(1, "augment"))
    assert out.num_nodes == 8
    assert all(0 <= u < 8 and 0 <= v < 8 for u, v in out.edges)
    # surviving feature rows are rows of the original matrix
    orig_rows = {r.tobytes() for r in g.node_features}
    assert all(r.tobytes() in orig_rows for r in out.node_features)


def test_node_drop_cannot_remove_everything():
    g = path_graph(2)
    with pytest.raises(GraphError):
        node_drop(g, 1.0, stream_rng(0, "augment"))
    # the drop count floors, so sub-threshold ratios leave tiny graphs alone
    tiny = Graph(1, np.zeros((1, 2)), ())
    out = node_drop(tiny, 0.5, stream_rng(0, "augment"))
    assert out.num_nodes == 1


def test_edge_perturb_preserves_count_and_validity():
    g = path_graph(10)
    out = edge_perturb(g, 0.4, stream_rng(2, "augment"))
    assert len(out.edges) == len(g.edges)
    undirected = {frozenset(e) for e in out.edges}
    assert len(undirected) == len(out.edges)  # no duplicates
    # added edges come from the original graph's non-edges
    existing = {frozenset(e) for e in g.edges}
    added = undirected - existing
    assert all(e not in existing for e in added)
    assert len(added) == int(0.4 * len(g.edges))


def test_edge_perturb_on_near_complete_graph():
    # K4 minus nothing: no non-edges to add, so only removal count shrinks
    edges = tuple((u, v) for u in range(4) for v in range(u + 1, 4))
    g = Graph(4, np.zeros((4, 2)), edges)
    out = edge_perturb(g, 0.5, stream_rng(3, "augment"))
    assert len(out.edges) == len(edges) - int(0.5 * len(edges))


def test_undefined_kinds_return_the_input_graph():
    # nothing to perturb on an edgeless graph, no proper subgraph of one node
    edgeless = Graph(3, np.ones((3, 2)), ())
    single = Graph(1, np.ones((1, 2)), ())
    assert edge_perturb(edgeless, 0.5, stream_rng(0, "augment")) is edgeless
    assert subgraph_sample(single, 0.5, stream_rng(0, "augment")) is single


def test_attribute_mask_zeroes_rows_only():
    g = path_graph(10)
    out = attribute_mask(g, 0.3, stream_rng(4, "augment"))
    assert np.array_equal(out.edges, g.edges)
    zero_rows = [i for i in range(10) if np.all(out.node_features[i] == 0)]
    assert len(zero_rows) == 3
    kept = [i for i in range(10) if i not in zero_rows]
    assert np.array_equal(out.node_features[kept], g.node_features[kept])


def test_subgraph_keeps_connected_inputs_connected():
    for seed in range(20):
        g = path_graph(12, seed=seed)
        out = subgraph_sample(g, 0.25, stream_rng(seed, "augment"))
        assert out.num_nodes == int(np.ceil(0.75 * 12))
        assert is_connected(out)


def test_subgraph_handles_disconnected_input():
    # two components of 3 nodes each; target size forces a jump
    g = Graph(6, np.zeros((6, 2)), ((0, 1), (1, 2), (3, 4), (4, 5)))
    out = subgraph_sample(g, 0.1, stream_rng(0, "augment"))
    assert out.num_nodes == 6


def test_determinism_per_stream():
    g = path_graph(10)
    for fn in (node_drop, edge_perturb, attribute_mask, subgraph_sample):
        a = fn(g, 0.3, stream_rng(7, "augment", 1))
        b = fn(g, 0.3, stream_rng(7, "augment", 1))
        assert np.array_equal(a.edges, b.edges)
        assert np.array_equal(a.node_features, b.node_features)


def test_sample_view_uses_enabled_kinds_only():
    # a node-drop-only policy always changes the node count at ratio 0.2
    g = path_graph(10)
    policy = AugmentationPolicy(kinds=("node-drop",), ratio=0.2)
    for seed in range(5):
        out = sample_view(g, policy, stream_rng(seed, "augment"))
        assert out.num_nodes == 8


def test_sample_view_default_policy_runs_on_generated_data():
    ds = generate_planted_motif_dataset(7, 8, 10, 6)
    policy = AugmentationPolicy()
    assert policy.kinds == ("node-drop", "attribute-mask")
    rng = stream_rng(0, "augment")
    for g in ds.graphs:
        out = sample_view(g, policy, rng)
        assert out.num_nodes >= 1


def test_all_kinds_registered():
    assert set(AUGMENTATION_KINDS) == {
        "node-drop", "edge-perturb", "attribute-mask", "subgraph"}


def view_of(g, kind, ratio, seed):
    policy = AugmentationPolicy(kinds=(kind,), ratio=ratio)
    return sample_view(g, policy, stream_rng(seed, "augment"))


@given(g=valid_graphs(), kind=st.sampled_from(AUGMENTATION_KINDS),
       ratio=st.sampled_from((0.0, 0.2, 0.5, 0.9)), seed=st.integers(0, 99))
def test_views_pass_the_public_constructor(g, kind, ratio, seed):
    # views skip validation, so each must be a graph Graph(...) accepts as is
    v = view_of(g, kind, ratio, seed)
    checked = Graph(v.num_nodes, v.node_features, v.edges, v.label)
    assert v.edges.dtype == np.intp and v.edges.shape == (len(v.edges), 2)
    assert checked.num_nodes == v.num_nodes and checked.label == v.label
    assert np.array_equal(checked.node_features, v.node_features)
    assert np.array_equal(checked.edges, v.edges)


@given(g=valid_graphs(), kind=st.sampled_from(("node-drop", "subgraph")),
       ratio=st.sampled_from((0.2, 0.5, 0.9)), seed=st.integers(0, 99))
def test_node_drop_and_subgraph_return_induced_subgraphs(g, kind, ratio, seed):
    v = view_of(g, kind, ratio, seed)
    # feature rows are distinct, so they name the kept nodes, in order
    rows = {r.tobytes(): i for i, r in enumerate(g.node_features)}
    kept = [rows[r.tobytes()] for r in v.node_features]
    assert kept == sorted(kept)
    # exactly the input edges between kept nodes, in input order and orientation
    back = [(kept[u], kept[w]) for u, w in v.edges.tolist()]
    assert back == [(u, w) for u, w in g.edges.tolist() if u in kept and w in kept]
