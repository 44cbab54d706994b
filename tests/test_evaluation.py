import numpy as np
import pytest

from groupcontrast.config import RunConfig
from groupcontrast.evaluation import (EmbeddingTable, count_head_params,
                                      export_attention, extract_embeddings,
                                      linear_probe, mean_offdiag_abs_cosine,
                                      query_cosine_matrix)
from groupcontrast.graphs import batch_graphs, generate_planted_motif_dataset
from groupcontrast.representor import forward_groups
from groupcontrast.tensor import ContractError, Tensor
from groupcontrast.trainer import init_model, train


DATASET = generate_planted_motif_dataset(7, 40, 14, 8)


def make_table(x, y):
    return EmbeddingTable(ids=tuple(range(len(y))), embeddings=x,
                          labels=tuple(int(v) for v in y))


def test_extract_embeddings_shape_and_determinism():
    state = init_model(RunConfig(), DATASET.feature_dim)
    t1 = extract_embeddings(state, DATASET)
    t2 = extract_embeddings(state, DATASET)
    assert t1.embeddings.shape == (40, 160)
    assert np.array_equal(t1.embeddings, t2.embeddings)
    assert t1.labels == tuple(g.label for g in DATASET.graphs)


def test_extract_embeddings_groupwise_unit_norm():
    state = init_model(RunConfig(), DATASET.feature_dim)
    emb = extract_embeddings(state, DATASET).embeddings
    for k in range(4):
        block = emb[:, k * 40:(k + 1) * 40]
        assert np.allclose(np.linalg.norm(block, axis=1), 1.0, atol=1e-9)


def test_extract_embeddings_feature_dim_mismatch():
    state = init_model(RunConfig(), 5)
    with pytest.raises(ContractError):
        extract_embeddings(state, DATASET)


@pytest.mark.parametrize("pipeline, width", [
    ("groupcl", 5), ("groupig", 5), ("graphcl-baseline", 5), ("graphcl-baseline", 160)])
def test_extract_embeddings_feature_dim_mismatch_without_gin_layers(pipeline, width):
    # with no GIN layer the width is read off the representor or the head's
    # lift, which a width equal to embed_dim (160) does not have
    state = init_model(RunConfig(pipeline=pipeline, gin_layers=0), width)
    with pytest.raises(ContractError, match=f"input width {width}"):
        extract_embeddings(state, DATASET)


def test_probe_on_linearly_separable_data():
    rng = np.random.default_rng(0)
    n = 200
    y = rng.integers(0, 2, n)
    x = rng.standard_normal((n, 8)) * 0.1
    x[:, 0] += 3.0 * (2.0 * y - 1.0)
    probe = linear_probe(make_table(x, y), split_seed=0)
    assert probe.test_accuracy == 1.0
    assert probe.confusion.sum() == 20


def test_probe_on_permuted_labels_near_chance():
    rng = np.random.default_rng(1)
    n = 200
    x = rng.standard_normal((n, 8))
    y = rng.integers(0, 2, n)
    probe = linear_probe(make_table(x, y), split_seed=0)
    assert probe.test_accuracy <= 0.8  # no signal: far from criterion-level accuracy


def test_probe_three_classes_and_confusion():
    rng = np.random.default_rng(2)
    n = 300
    y = rng.integers(0, 3, n)
    x = rng.standard_normal((n, 6)) * 0.05
    x[np.arange(n), y] += 2.0
    probe = linear_probe(make_table(x, y), split_seed=1)
    assert probe.test_accuracy == 1.0
    assert np.all(np.diag(probe.confusion) == probe.confusion.sum(axis=1))
    assert probe.per_class_accuracy == (1.0, 1.0, 1.0)


def test_probe_requires_labels_and_classes():
    x = np.zeros((10, 3))
    table = EmbeddingTable(ids=tuple(range(10)), embeddings=x,
                           labels=(None,) * 10)
    with pytest.raises(ContractError):
        linear_probe(table)
    with pytest.raises(ContractError):
        linear_probe(make_table(np.zeros((4, 3)), np.zeros(4, dtype=int)),
                     split_seed=0)


def test_probe_is_deterministic():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 5))
    y = (x[:, 0] > 0).astype(int)
    p1 = linear_probe(make_table(x, y), split_seed=2)
    p2 = linear_probe(make_table(x, y), split_seed=2)
    assert p1.test_accuracy == p2.test_accuracy
    assert p1.selected_regularization == p2.selected_regularization
    assert np.array_equal(p1.confusion, p2.confusion)


def test_query_cosine_matrix_properties():
    state = init_model(RunConfig(), DATASET.feature_dim)
    m = query_cosine_matrix(state)
    assert m.shape == (4, 4)
    assert np.array_equal(np.diag(m), np.ones(4))
    assert np.allclose(m, m.T, atol=1e-12)
    assert np.all(np.abs(m) <= 1.0 + 1e-12)


def test_query_cosine_requires_representor():
    state = init_model(RunConfig(pipeline="graphcl-baseline"), DATASET.feature_dim)
    with pytest.raises(ContractError):
        query_cosine_matrix(state)


def test_mean_offdiag_single_group_is_zero():
    state = init_model(RunConfig(num_groups=1, diversity_weight=0.0),
                       DATASET.feature_dim)
    assert mean_offdiag_abs_cosine(state) == 0.0


def test_export_attention_matches_forward():
    cfg = RunConfig(seed=0, epochs=2, batch_size=16)
    state, _ = train(cfg, DATASET)
    g = DATASET.graphs[3]
    records, top = export_attention(state, g)
    assert len(records) == g.num_nodes * 4
    assert len(top) == 4

    # recompute the attention directly
    from groupcontrast.encoder import encode_nodes
    leaves = {k: Tensor(v) for k, v in state.params.items()}
    batch = batch_graphs([g])
    nodes = encode_nodes(batch, leaves, cfg.gin_layers)
    _, att = forward_groups(batch, nodes, leaves)
    for rec in records:
        assert rec.weight == pytest.approx(att.values[rec.node, rec.group],
                                           abs=1e-12)
    for k, v in enumerate(top):
        assert v == int(att.values[:, k].argmax())


def test_count_head_params_paper_values():
    counts = count_head_params(4, 160, 100, 160)
    assert counts["groupcl_head"] == 22800
    assert counts["graphcl_head"] == 51200


def test_count_head_params_single_group():
    counts = count_head_params(1, 160, 100, 160)
    assert counts["groupcl_head"] == 1 * 100 + 160 * 100 + 160 * 160
    assert counts["graphcl_head"] == 51200


def test_count_head_params_divisibility():
    with pytest.raises(ContractError):
        count_head_params(3, 160, 100, 160)
