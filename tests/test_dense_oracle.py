"""The index-based graph ops against dense matrix oracles.

The N x N adjacency and the B x N graph indicator are built here, in the
test, and the dense forms of GIN aggregation, group pooling, sum readout and
the node-wise JS loss multiply them out. On random batches holding edgeless
and single-node graphs, the library's values and gradients must match them.
"""
import numpy as np
import pytest

from groupcontrast import tensor as T
from groupcontrast.encoder import (encode_nodes, init_gin_params,
                                   init_projection_head, readout_projection)
from groupcontrast.graphs import Graph, batch_graphs
from groupcontrast.objectives import js_terms_nodewise
from groupcontrast.representor import forward_groups, init_representor_params
from groupcontrast.seeding import stream_rng
from groupcontrast.tensor import Tape, Tensor, backward

D, HIDDEN, LAYERS, KEY, GROUP, P = 3, 5, 2, 4, 3, 2
TOL = 1e-12


def random_batch(seed):
    rng = np.random.default_rng(seed)
    graphs = [Graph(1, rng.standard_normal((1, D)), ()),
              Graph(3, rng.standard_normal((3, D)), ())]
    for _ in range(int(rng.integers(2, 5))):
        n = int(rng.integers(1, 7))
        edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                      if rng.random() < 0.5)
        graphs.append(Graph(n, rng.standard_normal((n, D)), edges))
    return batch_graphs([graphs[i] for i in rng.permutation(len(graphs))])


def dense_matrices(batch):
    n = batch.features.shape[0]
    adjacency = np.zeros((n, n))
    for u, v in zip(*batch.edge_index):
        adjacency[u, v] = adjacency[v, u] = 1.0
    indicator = np.zeros((batch.num_graphs, n))
    for g, (lo, hi) in enumerate(batch.segments):
        indicator[g, lo:hi] = 1.0
    return adjacency, indicator


def dense_encode(batch, leaves):
    adjacency, _ = dense_matrices(batch)
    h = Tensor(batch.features)
    for layer in range(LAYERS):
        z = T.add(h, T.matmul(Tensor(adjacency), h))
        hidden = T.relu(T.add(T.matmul(z, leaves[f"gin.{layer}.w1"]), leaves[f"gin.{layer}.b1"]))
        h = T.add(T.matmul(hidden, leaves[f"gin.{layer}.w2"]), leaves[f"gin.{layer}.b2"])
    return h


def dense_groups(batch, nodes, leaves, scale_scores=False):
    _, indicator = dense_matrices(batch)
    n, b = batch.features.shape[0], batch.num_graphs
    scores = T.matmul(T.matmul(nodes, leaves["rep.wk"]), leaves["rep.q"])
    if scale_scores:
        scores = T.smul(scores, 1.0 / np.sqrt(KEY))
    a = T.segment_softmax(scores, list(batch.segments))
    v = T.matmul(nodes, leaves["rep.wv"])
    weighted = T.mul(T.reshape(a, (n, P, 1)), T.reshape(v, (n, 1, GROUP)))
    pooled = T.matmul(Tensor(indicator), T.reshape(weighted, (n, P * GROUP)))
    unit = T.row_l2_normalize(T.reshape(pooled, (b * P, GROUP)))
    return T.reshape(unit, (b, P * GROUP)), a


def dense_readout(batch, nodes, leaves):
    _, indicator = dense_matrices(batch)
    pooled = T.matmul(T.matmul(Tensor(indicator), nodes), leaves["head.lift"])
    return T.matmul(T.relu(T.matmul(pooled, leaves["head.w1"])), leaves["head.w2"])


def dense_js_nodewise(u, r_nodes, indicator):
    b, n = indicator.shape
    scores = T.matmul(u, T.transpose(r_nodes))                     # (B, N)
    pos = T.tsum(T.mul(T.softplus(T.neg(scores)), Tensor(indicator)))
    neg = T.tsum(T.mul(T.softplus(scores), Tensor(1.0 - indicator)))
    return T.smul(pos, 1.0 / n), T.smul(neg, 1.0 / (b * n - n))


def model_params(seed):
    rng = stream_rng(seed, "init")
    params = init_gin_params(rng, D, HIDDEN, LAYERS)
    params.update(init_representor_params(rng, HIDDEN, KEY, GROUP, P))
    params.update(init_projection_head(rng, HIDDEN, 6))
    # trained-looking biases: with the zero init a node whose hidden ReLUs
    # all switch off has zero embedding, and a 1-node graph's group norm is 0
    for name in params:
        if name.endswith(("b1", "b2")):
            params[name] = rng.standard_normal(params[name].shape)
    return params


def values_and_grads(fn, params, seed):
    """Forward values of ``fn`` and the gradients of a fixed random
    weighting of them, for every parameter."""
    tape = Tape()
    leaves = {name: tape.leaf(v) for name, v in params.items()}
    outs = fn(leaves)
    rng = np.random.default_rng(seed)
    loss = Tensor(0.0)
    for out in outs:
        loss = T.add(loss, T.tsum(T.mul(out, Tensor(rng.standard_normal(out.shape)))))
    grads = backward(tape, loss)
    return [o.values for o in outs], {k: grads[leaves[k].node_id] for k in params}


def assert_same(fn, ref, params, seed):
    got, got_grads = values_and_grads(fn, params, seed)
    want, want_grads = values_and_grads(ref, params, seed)
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.max(np.abs(g - w), initial=0.0) <= TOL
    for name in params:
        assert np.max(np.abs(got_grads[name] - want_grads[name]), initial=0.0) <= TOL, name


@pytest.mark.parametrize("seed", range(6))
def test_encode_groups_and_readout_match_dense(seed):
    batch = random_batch(seed)
    params = model_params(seed)

    def indexed(leaves):
        nodes = encode_nodes(batch, leaves, LAYERS)
        groups, a = forward_groups(batch, nodes, leaves)
        return [nodes, T.concat(groups, axis=1), a, readout_projection(nodes, batch, leaves)]

    def dense(leaves):
        nodes = dense_encode(batch, leaves)
        groups, a = dense_groups(batch, nodes, leaves)
        return [nodes, groups, a, dense_readout(batch, nodes, leaves)]

    assert_same(indexed, dense, params, seed)


@pytest.mark.parametrize("seed", range(3))
def test_scaled_groups_match_dense(seed):
    # scaled scores divide by sqrt(key_dim), whatever the node width
    batch = random_batch(seed)
    params = model_params(seed)
    nodes = Tensor(np.random.default_rng(seed).standard_normal((batch.features.shape[0], HIDDEN)))

    def indexed(leaves):
        groups, a = forward_groups(batch, nodes, leaves, scale_scores=True)
        return [T.concat(groups, axis=1), a]

    assert_same(indexed, lambda lv: list(dense_groups(batch, nodes, lv, scale_scores=True)),
                params, seed)


@pytest.mark.parametrize("seed", range(6))
def test_nodewise_js_matches_dense(seed):
    batch = random_batch(seed)
    _, indicator = dense_matrices(batch)
    rng = np.random.default_rng(seed)
    b, n = batch.num_graphs, batch.features.shape[0]
    params = {f"u{k}": rng.standard_normal((b, GROUP)) for k in range(P)}
    params["r"] = rng.standard_normal((n, GROUP))

    def indexed(leaves):
        u = [leaves[f"u{k}"] for k in range(P)]
        return list(js_terms_nodewise(u, leaves["r"], batch.graph_index))

    def dense(leaves):
        terms = [dense_js_nodewise(leaves[f"u{k}"], leaves["r"], indicator) for k in range(P)]
        return [T.smul(T.add(*[t[i] for t in terms]), 1.0 / P) for i in (0, 1)]

    assert_same(indexed, dense, params, seed)


def test_edgeless_batch_matches_dense():
    # no edge at all: the neighbor sum is an index-add over an empty edge index
    rng = np.random.default_rng(9)
    batch = batch_graphs([Graph(n, rng.standard_normal((n, D)), ()) for n in (1, 2, 4)])
    params = model_params(9)
    assert_same(lambda lv: [encode_nodes(batch, lv, LAYERS)],
                lambda lv: [dense_encode(batch, lv)], params, 9)
