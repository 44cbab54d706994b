import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupcontrast import evaluation
from groupcontrast import tensor as T
from groupcontrast.config import RunConfig
from groupcontrast.evaluation import (EmbeddingTable, ProbeResult, count_head_params,
                                      export_attention, extract_embeddings,
                                      linear_probe, mean_offdiag_abs_cosine,
                                      query_cosine_matrix)
from groupcontrast.graphs import batch_graphs, generate_planted_motif_dataset
from groupcontrast.optim import adam_step, init_adam
from groupcontrast.representor import forward_groups
from groupcontrast.seeding import stream_rng
from groupcontrast.tensor import ContractError, NumericError, Tensor
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


def test_probe_rejects_single_class_train_split():
    # the one graph of class 1 is placed where the split_seed=0 permutation
    # puts the test split
    n = 20
    order = stream_rng(0, "probe").permutation(n)
    y = np.zeros(n, dtype=int)
    y[order[-1]] = 1
    table = make_table(np.random.default_rng(0).standard_normal((n, 3)), y)
    with pytest.raises(ContractError, match="probe train split holds a single class"):
        linear_probe(table, split_seed=0)


def test_probe_is_deterministic():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((100, 5))
    y = (x[:, 0] > 0).astype(int)
    p1 = linear_probe(make_table(x, y), split_seed=2)
    p2 = linear_probe(make_table(x, y), split_seed=2)
    assert p1.test_accuracy == p2.test_accuracy
    assert p1.selected_regularization == p2.selected_regularization
    assert np.array_equal(p1.confusion, p2.confusion)


@pytest.mark.parametrize("labels, embeddings, reg_grid, field", [
    ((0, 1, -1, 0, 1, 0, 1, 0, 1, 0), None, (1.0,), "labels"),
    ((), np.zeros((0, 3)), (1.0,), "embeddings"),
    (None, None, (), "reg_grid"),
    (None, None, (1.0, -1e-3), "reg_grid"),
    (None, None, (float("nan"),), "reg_grid"),
    # labels size the probe's blocks: one at or past the row count is refused
    ((0, 1, 10, 0, 1, 0, 1, 0, 1, 0), None, (1.0,), "labels: label 10 is not below 10, "),
    ((0, 1, 10**30, 0, 1, 0, 1, 0, 1, 0), None, (1.0,), f"labels: label {10**30} is not below"),
    # 1.5 and True once ran as the labels 1 and 1
    ((0, 1.5, 0, 1, 0, 1, 0, 1, 0, 1), None, (1.0,), "labels: label 1.5 is not an integer"),
    ((0, True, 0, 1, 0, 1, 0, 1, 0, 1), None, (1.0,), "labels: label True is not an integer"),
], ids=["negative-label", "empty-table", "empty-grid", "negative-reg", "nan-reg",
        "label-past-rows", "label-past-int64", "float-label", "bool-label"])
def test_probe_rejects_bad_inputs_naming_the_field(labels, embeddings, reg_grid, field):
    labels = tuple(i % 2 for i in range(10)) if labels is None else labels
    embeddings = np.ones((len(labels), 3)) if embeddings is None else embeddings
    table = EmbeddingTable(ids=tuple(range(len(labels))), embeddings=embeddings, labels=labels)
    with pytest.raises(ContractError, match=field):
        linear_probe(table, reg_grid=reg_grid)


def test_probe_takes_sparse_labels_below_the_row_count():
    # classes 0 and 5 of 20 graphs: the absent classes 1-4 get empty
    # confusion rows and accuracy 0.0, as before the label cap; class 25 is
    # past the cap
    rng = np.random.default_rng(0)
    y = np.where(np.arange(20) % 2 == 0, 0, 5)
    x = rng.standard_normal((20, 3)) + (y == 5)[:, None] * 3.0
    probe = linear_probe(make_table(x, y), split_seed=0)
    assert probe.confusion.shape == (6, 6)
    assert probe.confusion[1:5].sum() == 0 and probe.confusion.sum() == 2
    assert probe.per_class_accuracy[1:5] == (0.0,) * 4
    with pytest.raises(ContractError, match="labels: label 25 is not below 20, "):
        linear_probe(make_table(x, np.where(y == 5, 25, 0)), split_seed=0)
    # numpy integers are integers
    assert linear_probe(EmbeddingTable(ids=tuple(range(20)), embeddings=x, labels=tuple(y)),
                        split_seed=0).test_accuracy == probe.test_accuracy


@pytest.mark.parametrize("split_seed", [1.5, True, "1"])
def test_probe_rejects_non_integer_split_seed(split_seed):
    # 1.5 and True once ran the split_seed=1 probe
    x = np.arange(30.0).reshape(10, 3)
    with pytest.raises(ContractError, match="split_seed"):
        linear_probe(make_table(x, np.arange(10) % 2), split_seed=split_seed)


def test_probe_rejects_non_finite_embeddings():
    x = np.ones((10, 3))
    x[4, 1] = np.inf
    with pytest.raises(NumericError):
        linear_probe(make_table(x, np.arange(10) % 2))


def test_probe_on_huge_finite_embeddings_names_the_parameter():
    # the weight gradient squares past the float range in adam_step: a
    # silently frozen fit (test accuracy 0.0) became a typed error
    x = np.where(np.arange(60).reshape(20, 3) % 2 == 0, 1e300, -1e300)
    with pytest.raises(NumericError, match="second moment of 'w'"):
        linear_probe(make_table(x, np.arange(20) % 2))


def test_probe_tie_keeps_the_first_regularization():
    # separable data: both values reach validation accuracy 1.0
    rng = np.random.default_rng(0)
    y = rng.integers(0, 2, 200)
    x = rng.standard_normal((200, 8)) * 0.1
    x[:, 0] += 3.0 * (2.0 * y - 1.0)
    for grid in ((1e-3, 1e-2), (1e-2, 1e-3)):
        probe = linear_probe(make_table(x, y), reg_grid=grid)
        assert probe.validation_accuracy == 1.0
        assert probe.selected_regularization == grid[0]


def test_table_and_result_compare_and_hash_by_identity():
    x = np.arange(40.0).reshape(20, 2)
    table, twin = make_table(x, np.arange(20) % 2), make_table(x, np.arange(20) % 2)
    probe, probe_twin = linear_probe(table, reg_grid=(1.0,)), linear_probe(twin, reg_grid=(1.0,))
    for obj, other in ((table, twin), (probe, probe_twin)):
        assert obj == obj and obj != other
        assert len({obj, obj, other}) == 2


# -- the per-value tape fit the batched probe must reproduce bit for bit ------

def tape_fit_logistic(x, y, num_classes, reg):
    """One L2 value's probe fit, differentiated by the tape."""
    n, d = x.shape
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    params = {"w": np.zeros((d, num_classes)), "b": np.zeros(num_classes)}
    opt = init_adam(params, evaluation._PROBE_LR)
    xc = Tensor(x)
    for _ in range(evaluation._PROBE_ITERS):
        tape = T.Tape()
        w = tape.leaf(params["w"])
        bias = tape.leaf(params["b"])
        logits = T.add(T.matmul(xc, w), bias)
        shift = logits.values.max(axis=1, keepdims=True)
        z = T.add(logits, Tensor(-shift))
        lse = T.log(T.tsum(T.exp(z), axis=1))
        picked = T.tsum(T.mul(z, Tensor(onehot)), axis=1)
        ce = T.tmean(T.sub(lse, picked))
        loss = T.add(ce, T.smul(T.tsum(T.square(w)), reg / n))
        grads = T.backward(tape, loss)
        params, opt = adam_step(
            params, {"w": grads[w.node_id], "b": grads[bias.node_id]}, opt)
    return np.concatenate([params["w"], params["b"][None, :]], axis=0)


def tape_linear_probe(table, split_seed, reg_grid):
    """The probe with one tape fit per L2 value; returns the result and the
    fit of each value as a (d + 1, C) weight-and-bias block."""
    y = np.array(table.labels).astype(int)
    num_classes = int(y.max()) + 1
    n = len(table)
    order = stream_rng(split_seed, "probe").permutation(n)
    n_train, n_val = int(n * 0.8), int(n * 0.1)
    tr, va, te = order[:n_train], order[n_train:n_train + n_val], order[n_train + n_val:]
    x = table.embeddings

    def predict(wb, rows):
        return (rows @ wb[:-1] + wb[-1]).argmax(axis=1)

    fits, best = {}, None
    for reg in reg_grid:
        if reg not in fits:
            fits[reg] = tape_fit_logistic(x[tr], y[tr], num_classes, reg)
        val_acc = float((predict(fits[reg], x[va]) == y[va]).mean())
        if best is None or val_acc > best[0]:
            best = (val_acc, reg, fits[reg])
    val_acc, reg, wb = best
    pred_te = predict(wb, x[te])
    confusion = np.zeros((num_classes, num_classes), dtype=int)
    for true, pred in zip(y[te], pred_te):
        confusion[true, pred] += 1
    result = ProbeResult(
        train_accuracy=float((predict(wb, x[tr]) == y[tr]).mean()),
        validation_accuracy=val_acc,
        test_accuracy=float((pred_te == y[te]).mean()),
        per_class_accuracy=tuple(
            float(confusion[c, c] / confusion[c].sum()) if confusion[c].sum() else 0.0
            for c in range(num_classes)),
        confusion=confusion,
        selected_regularization=reg,
    )
    return result, fits


def probe_with_blocks(table, split_seed, reg_grid):
    """linear_probe, and the (R, d, C) and (R, C) blocks it fitted."""
    blocks = []
    fit = evaluation._fit_logistic

    def spy(*args):
        blocks.append(fit(*args))
        return blocks[-1]

    with mock.patch.object(evaluation, "_fit_logistic", spy):
        result = linear_probe(table, split_seed, reg_grid=reg_grid)
    (w, b), = blocks
    return result, w, b


def bits(value):
    """Exact comparison key: dtype, shape and bytes of every field."""
    if isinstance(value, ProbeResult):
        return tuple(bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    arr = np.asarray(value)
    return (type(value).__name__, arr.dtype.str, arr.shape, arr.tobytes())


def assert_matches_tape_probe(table, split_seed, reg_grid):
    result, w, b = probe_with_blocks(table, split_seed, reg_grid)
    expected, fits = tape_linear_probe(table, split_seed, reg_grid)
    assert w.shape[0] == b.shape[0] == len(reg_grid)
    for r, reg in enumerate(reg_grid):
        assert bits(w[r]) == bits(fits[reg][:-1])
        assert bits(b[r]) == bits(fits[reg][-1])
    assert bits(result) == bits(expected)


@st.composite
def probe_tables(draw):
    """Labelled tables of 10 to 120 rows, 1 to 12 columns and 2 or 3
    balanced classes, raw or group-normalised, with a grid of 1 to 7
    penalties that may repeat."""
    n, d, c = draw(st.integers(10, 120)), draw(st.integers(1, 12)), draw(st.sampled_from((2, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    y = rng.permutation(np.arange(n) % c)
    x = rng.standard_normal((n, d)) * draw(st.sampled_from((0.1, 1.0, 5.0)))
    x[np.arange(n), y % d] += draw(st.sampled_from((0.0, 0.5, 2.0)))
    if draw(st.booleans()):
        x /= np.linalg.norm(x, axis=1, keepdims=True)
    grid = tuple(draw(st.lists(st.sampled_from((0.0,) + evaluation._DEFAULT_REG_GRID),
                               min_size=1, max_size=7)))
    return make_table(x, y), draw(st.integers(0, 3)), grid


@settings(max_examples=10)
@given(probe_tables())
def test_batched_probe_matches_tape_fits_bit_for_bit(case):
    assert_matches_tape_probe(*case)


def test_batched_probe_matches_tape_fits_with_repeated_values():
    rng = np.random.default_rng(5)
    y = np.arange(60) % 3
    x = rng.standard_normal((60, 4)) + np.eye(4)[y]
    assert_matches_tape_probe(make_table(x, y), 1, (1e-1, 1e-3, 1e-1, 1e2))


def test_batched_probe_matches_tape_fits_on_trained_embeddings(trained):
    table = extract_embeddings(trained, DATASET)
    assert_matches_tape_probe(table, 0, evaluation._DEFAULT_REG_GRID)


def test_query_cosine_matrix_properties():
    state = init_model(RunConfig(), DATASET.feature_dim)
    m = query_cosine_matrix(state)
    assert m.shape == (4, 4)
    assert np.array_equal(np.diag(m), np.ones(4))
    assert np.allclose(m, m.T, atol=1e-12)
    assert np.all(np.abs(m) <= 1.0 + 1e-12)


def test_query_cosine_rejects_zero_norm_query_column():
    state = init_model(RunConfig(), DATASET.feature_dim)
    state.params["rep.q"][:, 2] = 0.0
    with pytest.raises(ContractError, match="zero-norm query column"):
        query_cosine_matrix(state)


def test_query_cosine_requires_representor():
    state = init_model(RunConfig(pipeline="graphcl-baseline"), DATASET.feature_dim)
    with pytest.raises(ContractError):
        query_cosine_matrix(state)


def test_mean_offdiag_single_group_is_zero():
    state = init_model(RunConfig(num_groups=1, diversity_weight=0.0),
                       DATASET.feature_dim)
    assert mean_offdiag_abs_cosine(state) == 0.0


@pytest.fixture(scope="module")
def trained():
    state, _ = train(RunConfig(seed=0, epochs=2, batch_size=16), DATASET)
    return state


def test_export_attention_matches_forward(trained):
    cfg, state = trained.config, trained
    g = DATASET.graphs[3]
    weights = export_attention(state, g)
    assert isinstance(weights, np.ndarray) and weights.shape == (g.num_nodes, 4)

    # recompute the attention directly
    from groupcontrast.encoder import encode_nodes
    leaves = {k: Tensor(v) for k, v in state.params.items()}
    batch = batch_graphs([g])
    nodes = encode_nodes(batch, leaves, cfg.gin_layers)
    _, att = forward_groups(batch, nodes, leaves)
    assert weights.tobytes() == att.values.tobytes()


_FORWARDS = {"embed": lambda state: extract_embeddings(state, DATASET),
             "attention": lambda state: export_attention(state, DATASET.graphs[0])}
# each forward names its phase, and an error in a GIN layer its layer
_PHASES = {"embed": "extract embeddings: ", "attention": "export attention: "}
_LAYERS = {"mlp: non-finite hidden block": "gin layer 1 of 3: "}


@pytest.mark.parametrize("forward", sorted(_FORWARDS))
@pytest.mark.parametrize("factor, message", [
    (1e308, "mlp: non-finite hidden block"),
    # the groups come out finite with norms past 1e154, which row-L2-normalize
    # once returned as rows of zeros
    (1e300, "row-L2-normalize: row 0 has a norm whose cube is not finite"),
])
def test_overflow_in_an_evaluation_forward_names_the_op(forward, factor, message):
    # a default model with gin.0.w1 scaled up; pyproject turns a
    # RuntimeWarning into an error, so none escapes
    state = init_model(RunConfig(), DATASET.feature_dim)
    state.params["gin.0.w1"] = state.params["gin.0.w1"] * factor
    where = _PHASES[forward] + _LAYERS.get(message, "")
    with pytest.raises(NumericError, match=f"^{where}{message}$"):
        _FORWARDS[forward](state)


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
