import numpy as np
import pytest

from groupcontrast import tensor as T
from groupcontrast.encoder import (draw_params, encode_nodes, glorot_uniform,
                                   head_layout, init_gin_params, readout_projection)
from groupcontrast.gradcheck import finite_difference_check
from groupcontrast.graphs import Graph, batch_graphs, generate_planted_motif_dataset
from groupcontrast.seeding import stream_rng
from groupcontrast.tensor import Tape, Tensor, backward


def random_graph(n, d, seed, density=0.4):
    rng = np.random.default_rng(seed)
    edges = tuple((u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < density)
    return Graph(n, rng.standard_normal((n, d)), edges)


def naive_gin_layer(h, g: Graph, w1, b1, w2, b2, eps=0.0):
    """Per-node reference: MLP((1+eps) h_v + sum over neighbors)."""
    neighbors = {v: [] for v in range(g.num_nodes)}
    for a, b in g.edges:
        neighbors[a].append(b)
        neighbors[b].append(a)
    out = np.zeros((g.num_nodes, w2.shape[1]))
    for v in range(g.num_nodes):
        z = (1.0 + eps) * h[v] + sum((h[u] for u in neighbors[v]),
                                     np.zeros_like(h[v]))
        out[v] = np.maximum(z @ w1 + b1, 0.0) @ w2 + b2
    return out


def test_gin_layer_matches_naive_reference():
    g = random_graph(6, 4, seed=0)
    rng = stream_rng(0, "init")
    params = init_gin_params(rng, 4, 5, 1)
    out = encode_nodes(batch_graphs([g]), {k: Tensor(v) for k, v in params.items()}, 1)
    ref = naive_gin_layer(g.node_features, g,
                          params["gin.0.w1"], params["gin.0.b1"],
                          params["gin.0.w2"], params["gin.0.b2"])
    assert np.allclose(out.values, ref, atol=1e-12)


def test_learnable_eps_changes_self_term():
    g = random_graph(5, 3, seed=1)
    rng = stream_rng(1, "init")
    params = {k: Tensor(v) for k, v in init_gin_params(rng, 3, 4, 1).items()}
    batch = batch_graphs([g])
    base = encode_nodes(batch, params, 1)
    bumped = encode_nodes(batch, {**params, "gin.0.eps": Tensor(np.array([0.3]))}, 1)
    ref = naive_gin_layer(g.node_features, g, *(params[f"gin.0.{name}"].values
                                                for name in ("w1", "b1", "w2", "b2")), eps=0.3)
    assert not np.allclose(base.values, bumped.values)
    assert np.allclose(bumped.values, ref, atol=1e-12)


def test_permutation_equivariance():
    g = random_graph(7, 4, seed=2)
    rng = stream_rng(2, "init")
    params = {k: Tensor(v) for k, v in init_gin_params(rng, 4, 6, 2).items()}
    perm = np.random.default_rng(3).permutation(7)
    remap = {old: new for new, old in enumerate(perm)}
    gp = Graph(7, g.node_features[perm],
               tuple((remap[u], remap[v]) for u, v in g.edges))
    out = encode_nodes(batch_graphs([g]), params, 2).values
    out_p = encode_nodes(batch_graphs([gp]), params, 2).values
    assert np.allclose(out[perm], out_p, atol=1e-12)


def test_batched_graphs_do_not_interact():
    g1 = random_graph(5, 4, seed=4)
    g2 = random_graph(6, 4, seed=5)
    rng = stream_rng(4, "init")
    params = {k: Tensor(v) for k, v in init_gin_params(rng, 4, 6, 3).items()}
    alone = encode_nodes(batch_graphs([g1]), params, 3).values
    together = encode_nodes(batch_graphs([g1, g2]), params, 3).values
    assert np.allclose(together[:5], alone, atol=1e-12)


def test_zero_layers_returns_inputs():
    g = random_graph(4, 3, seed=6)
    batch = batch_graphs([g])
    out = encode_nodes(batch, {}, 0)
    assert np.array_equal(out.values, batch.features)


def test_glorot_bounds():
    w = glorot_uniform(np.random.default_rng(0), 20, 30)
    a = np.sqrt(6.0 / 50)
    assert w.shape == (20, 30)
    assert np.all(np.abs(w) <= a)


def test_encoder_gradients_pass_oracle():
    g = random_graph(5, 3, seed=7)
    batch = batch_graphs([g])
    params = init_gin_params(stream_rng(7, "init"), 3, 4, 2)

    def fn(leaves):
        return T.tsum(T.square(encode_nodes(batch, leaves, 2)))

    assert finite_difference_check(fn, params) <= 1e-4


def test_readout_projection_shapes_and_lift():
    g1 = random_graph(5, 4, seed=8)
    g2 = random_graph(3, 4, seed=9)
    batch = batch_graphs([g1, g2])
    rng = stream_rng(8, "init")
    head = draw_params(rng, head_layout(4, 10))
    assert "head.lift" in head
    params = {k: Tensor(v) for k, v in head.items()}
    out = readout_projection(Tensor(batch.features), batch, params)
    assert out.shape == (2, 10)
    same = draw_params(rng, head_layout(10, 10))
    assert "head.lift" not in same


def test_readout_is_sum_pooling():
    g = random_graph(4, 3, seed=10)
    batch = batch_graphs([g])
    head = draw_params(stream_rng(9, "init"), head_layout(3, 6))
    params = {k: Tensor(v) for k, v in head.items()}
    out = readout_projection(Tensor(batch.features), batch, params).values
    pooled = batch.features.sum(axis=0, keepdims=True) @ head["head.lift"]
    ref = np.maximum(pooled @ head["head.w1"], 0.0) @ head["head.w2"]
    assert np.allclose(out, ref, atol=1e-12)


def test_encode_nodes_allocation_budget(op_peaks):
    # one forward and backward at the groupcl-large benchmark's batch (64
    # graphs of 40 nodes, 15.5k directed edges, width 32), plans included:
    # the neighbour sums gather each slot's rows straight from the node
    # block, so no (E, width) edge block (6 node blocks) and no flat index
    # is built. It reads 5.68 node blocks, at mlp backward, and 6.72, at
    # mlp forward, when each layer's input and neighbour sum live through
    # its mlp
    ds = generate_planted_motif_dataset(1, 64, 40, 8)
    params = init_gin_params(stream_rng(1, "init"), 8, 32, 3)
    w = np.random.default_rng(1).standard_normal((64 * 40, 32))
    block = w.nbytes

    def forward_backward(batch):
        tape = Tape()
        leaves = {name: tape.leaf(v) for name, v in params.items()}
        backward(tape, T.tsum(T.mul(encode_nodes(batch, leaves, 3), Tensor(w))))

    forward_backward(batch_graphs(list(ds.graphs)))     # first-call set-up stays out
    batch = batch_graphs(list(ds.graphs))
    peak, where = op_peaks(lambda: forward_backward(batch))
    assert peak < 6.2 * block, f"peak {peak / block:.2f} node blocks at {where}"


def test_encode_nodes_keeps_no_hidden_block(op_peaks):
    # one forward and backward of three GIN layers at the groupcl-default
    # benchmark's batch (128 graphs of 14 nodes, width 32), plans built
    # beforehand: each layer drops its input and neighbour sum before its
    # mlp runs, and the mlp keeps its input, not its (N, 32) hidden block,
    # and releases the block it recomputes within its own backward entry.
    # This reads 5.59 node blocks, at mlp backward. With the input and
    # neighbour sum alive through the mlp it read 6.66, at mlp forward; on
    # top of those, an mlp that stores its hidden block and mask read 9.85,
    # the composed matmul/add/relu chain 9.79, and one whose recompute
    # outlives its entry 12.27
    ds = generate_planted_motif_dataset(1, 128, 14, 8)
    params = init_gin_params(stream_rng(1, "init"), 8, 32, 3)
    w = np.random.default_rng(1).standard_normal((128 * 14, 32))
    block = w.nbytes
    batch = batch_graphs(list(ds.graphs))

    def forward_backward():
        tape = Tape()
        leaves = {name: tape.leaf(v) for name, v in params.items()}
        backward(tape, T.tsum(T.mul(encode_nodes(batch, leaves, 3), Tensor(w))))

    forward_backward()          # the plans and first-call set-up stay out
    peak, where = op_peaks(forward_backward)
    assert peak < 6.1 * block, f"peak {peak / block:.2f} node blocks at {where}"
