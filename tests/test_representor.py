import numpy as np
import pytest

from groupcontrast import tensor as T
from groupcontrast.gradcheck import finite_difference_check
from groupcontrast.graphs import Graph, batch_graphs
from groupcontrast.representor import (attention, concat_groups,
                                       duplicate_rep, forward_groups,
                                       init_representor_params)
from groupcontrast.seeding import stream_rng
from groupcontrast.tensor import DimensionError, Tape, Tensor, backward


def make_batch(sizes, d, seed=0):
    rng = np.random.default_rng(seed)
    graphs = []
    for n in sizes:
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5)
        graphs.append(Graph(n, rng.standard_normal((n, d)), edges))
    return batch_graphs(graphs)


def tensor_params(params):
    return {k: Tensor(v) for k, v in params.items()}


def test_projection_shapes():
    batch = make_batch([4, 3], 6)
    params = init_representor_params(stream_rng(0, "init"), 6, 100, 40, 4)
    assert params["rep.wk"].shape == (6, 100)
    assert params["rep.wv"].shape == (6, 40)
    groups, a = forward_groups(batch, Tensor(batch.features), tensor_params(params))
    assert a.shape == (7, 4)
    assert [g.shape for g in groups] == [(2, 40)] * 4


def test_attention_columns_sum_per_graph():
    batch = make_batch([5, 2, 4], 6, seed=1)
    params = tensor_params(init_representor_params(stream_rng(1, "init"), 6, 10, 8, 3))
    _, a = forward_groups(batch, Tensor(batch.features), params)
    assert a.shape == (11, 3)
    for lo, hi in batch.segments:
        assert np.allclose(a.values[lo:hi].sum(axis=0), 1.0, atol=1e-9)


def test_group_embeddings_unit_norm():
    batch = make_batch([4, 6], 5, seed=2)
    params = tensor_params(init_representor_params(stream_rng(2, "init"), 5, 7, 6, 2))
    groups, _ = forward_groups(batch, Tensor(batch.features), params)
    for g in groups:
        assert np.allclose(np.linalg.norm(g.values, axis=1), 1.0, atol=1e-9)


def test_matches_naive_weighted_sum():
    batch = make_batch([3, 4], 5, seed=3)
    raw = init_representor_params(stream_rng(3, "init"), 5, 7, 6, 3)
    params = tensor_params(raw)
    groups, a = forward_groups(batch, Tensor(batch.features), params)
    v = batch.features @ raw["rep.wv"]
    for gi, (lo, hi) in enumerate(batch.segments):
        for k in range(3):
            vec = (a.values[lo:hi, k:k + 1] * v[lo:hi]).sum(axis=0)
            vec = vec / np.linalg.norm(vec)
            assert np.allclose(groups[k].values[gi], vec, atol=1e-12)


def test_scaled_scores_option():
    batch = make_batch([4], 5, seed=4)
    raw = init_representor_params(stream_rng(4, "init"), 5, 9, 6, 2)
    h, wk, q = Tensor(batch.features), Tensor(raw["rep.wk"]), Tensor(raw["rep.q"])
    plain = attention(h, wk, q, list(batch.segments))
    scaled = attention(h, wk, q, list(batch.segments), scale_scores=True)
    assert not np.allclose(plain.values, scaled.values)
    # scaled by the key width (9), not the node width (5)
    want = T.segment_softmax(Tensor((batch.features @ raw["rep.wk"] @ raw["rep.q"]) / 3.0),
                             list(batch.segments))
    assert np.allclose(scaled.values, want.values, atol=1e-12)


def test_attention_dim_mismatch():
    with pytest.raises(DimensionError):
        attention(Tensor(np.ones((3, 6))), Tensor(np.ones((6, 4))),
                  Tensor(np.ones((5, 2))), [(0, 3)])


def test_permutation_invariance_of_groups():
    rng = np.random.default_rng(5)
    n, d = 6, 5
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < 0.5)
    feats = rng.standard_normal((n, d))
    g = Graph(n, feats, edges)
    perm = rng.permutation(n)
    remap = {old: new for new, old in enumerate(perm)}
    gp = Graph(n, feats[perm], tuple((remap[u], remap[v]) for u, v in edges))
    params = tensor_params(init_representor_params(stream_rng(5, "init"), d, 7, 4, 3))
    b1, b2 = batch_graphs([g]), batch_graphs([gp])
    g1, _ = forward_groups(b1, Tensor(b1.features), params)
    g2, _ = forward_groups(b2, Tensor(b2.features), params)
    for a, b in zip(g1, g2):
        assert np.allclose(a.values, b.values, atol=1e-12)


def test_concat_preserves_group_order():
    batch = make_batch([3, 3], 4, seed=6)
    params = tensor_params(init_representor_params(stream_rng(6, "init"), 4, 5, 3, 2))
    groups, _ = forward_groups(batch, Tensor(batch.features), params)
    cat = concat_groups(groups)
    assert cat.shape == (2, 6)
    assert np.allclose(cat.values[:, :3], groups[0].values)
    assert np.allclose(cat.values[:, 3:], groups[1].values)


def test_duplicate_rep_value_independent():
    r = np.ones((3, 4))
    copies = duplicate_rep(r, 3)
    assert len(copies) == 3
    copies[0][0, 0] = 99.0
    assert copies[1][0, 0] == 1.0 and r[0, 0] == 1.0
    with pytest.raises(DimensionError):
        duplicate_rep(r, 0)


def test_representor_gradients_pass_oracle():
    batch = make_batch([3, 3], 4, seed=8)
    params = init_representor_params(stream_rng(8, "init"), 4, 5, 3, 2)

    def fn(leaves):
        groups, _ = forward_groups(batch, Tensor(batch.features), leaves)
        return T.tsum(T.square(concat_groups(groups)))

    assert finite_difference_check(fn, params) <= 1e-4


def test_spec_dimension_example():
    # d_n=32 node embeddings, d_K=100 keys, p=4 groups over d_o=160
    batch = make_batch([7], 32, seed=9)
    params = tensor_params(init_representor_params(stream_rng(9, "init"), 32, 100, 40, 4))
    groups, a = forward_groups(batch, Tensor(batch.features), params)
    assert a.shape == (7, 4)
    assert all(g.shape == (1, 40) for g in groups)
    assert concat_groups(groups).shape == (1, 160)


def test_forward_groups_allocation_budget(traced_peak):
    # one forward and backward at the default benchmark's shape (128 graphs
    # of 14 nodes, width 32, key_dim 100, 4 groups of width 40): scoring
    # through wk @ q, pooling before the value projection and pooling with
    # pool_outer build no (N, key_dim) key, (N, d) value or (N, p, width)
    # weighted block, or their gradients. This reads 1.17 blocks with one
    # batched product per graph size, against 1.31 when the pooling vjp
    # walked chunk buffers; pooling as mul then a scatter-add read 3.30, and
    # one (N, p, width) block is 1.28
    b, nodes_per_graph, width, key_dim, p, d = 128, 14, 32, 100, 4, 40
    n = b * nodes_per_graph
    block = n * key_dim * 8
    rng = np.random.default_rng(0)
    batch = batch_graphs([Graph(nodes_per_graph, rng.standard_normal((nodes_per_graph, 1)), ())
                          for _ in range(b)])
    h_values = rng.standard_normal((n, width))
    params = init_representor_params(stream_rng(0, "init"), width, key_dim, d, p)
    weights = rng.standard_normal((b, p * d))

    def forward_backward():
        tape = Tape()
        leaves = {name: tape.leaf(v) for name, v in params.items()}
        groups, _ = forward_groups(batch, tape.leaf(h_values), leaves)
        backward(tape, T.tsum(T.mul(concat_groups(groups), Tensor(weights))))

    forward_backward()          # first-call set-up stays out of the count
    peak = traced_peak(forward_backward)
    assert peak < 2.0 * block, f"peak {peak / block:.2f} blocks"
