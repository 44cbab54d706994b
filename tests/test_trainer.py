import dataclasses
import gc

import numpy as np
import pytest

from groupcontrast.augment import AUGMENTATION_KINDS
from groupcontrast.config import RunConfig
from groupcontrast.graphs import (Dataset, Graph, batch_graphs,
                                  generate_planted_motif_dataset)
from groupcontrast.tensor import Tape
from groupcontrast.trainer import (CheckpointError, HISTORY_HEADER, ModelState,
                                   TrainingError, checkpoint_load,
                                   checkpoint_save, init_model,
                                   node_view_representations, train,
                                   write_history)


DATASET = generate_planted_motif_dataset(7, 40, 14, 8)
FAST = dict(epochs=3, batch_size=16)


def epoch_means(history):
    out = {}
    for row in history:
        out.setdefault(row.epoch, []).append(row.total)
    return {e: float(np.mean(v)) for e, v in out.items()}


def test_zero_epochs_returns_initial_state():
    cfg = RunConfig(epochs=0)
    state, history = train(cfg, DATASET)
    assert history == []
    assert state.epoch == 0
    assert "gin.0.w1" in state.params


def test_empty_dataset_rejected():
    from groupcontrast.graphs import Dataset
    with pytest.raises(TrainingError):
        train(RunConfig(epochs=1), Dataset((), 0, 0))


def test_training_is_deterministic():
    cfg = RunConfig(seed=5, **FAST)
    _, h1 = train(cfg, DATASET)
    _, h2 = train(cfg, DATASET)
    assert [r.total for r in h1] == [r.total for r in h2]


def test_groupcl_descends():
    cfg = RunConfig(seed=0, epochs=20, batch_size=16)
    _, history = train(cfg, DATASET)
    means = epoch_means(history)
    assert means[19] < means[0]


def test_groupig_descends():
    cfg = RunConfig(pipeline="groupig", seed=0, epochs=20, batch_size=16)
    _, history = train(cfg, DATASET)
    means = epoch_means(history)
    assert means[19] < means[0]


def test_baseline_descends():
    cfg = RunConfig(pipeline="graphcl-baseline", seed=0, epochs=20, batch_size=16)
    _, history = train(cfg, DATASET)
    means = epoch_means(history)
    assert means[19] < means[0]


def test_single_group_no_penalty_runs():
    cfg = RunConfig(num_groups=1, diversity_weight=0.0, seed=1, **FAST)
    _, history = train(cfg, DATASET)
    assert all(np.isfinite(r.total) for r in history)
    assert all(r.inter_penalty == 0.0 for r in history)


def test_param_estimator_trains_varnets():
    cfg = RunConfig(estimator="param", seed=2, **FAST)
    state, history = train(cfg, DATASET)
    assert state.var_params
    assert state.var_opt.step == len(history)
    assert all(np.isfinite(r.total) for r in history)


def test_untied_views_create_second_branch():
    cfg = RunConfig(tie_views=False, seed=3, **FAST)
    state, _ = train(cfg, DATASET)
    assert "gin_r.0.w1" in state.params
    assert "rep_r.q" in state.params


@pytest.mark.parametrize("overrides", [
    dict(), dict(pipeline="groupig", estimator="param"),
    dict(pipeline="graphcl-baseline")], ids=["groupcl", "groupig-param", "baseline"])
def test_steps_leave_no_cyclic_tapes(overrides):
    # each step's tapes must be freed by reference counting, not left for
    # the cycle collector
    cfg = RunConfig(seed=0, epochs=1, batch_size=16, **overrides)
    gc.collect()
    gc.disable()
    try:
        train(cfg, DATASET)
        alive = sum(isinstance(o, Tape) for o in gc.get_objects())
    finally:
        gc.enable()
    assert alive == 0


@pytest.mark.parametrize("kind", AUGMENTATION_KINDS)
def test_train_finishes_on_edgeless_and_single_node_graphs(kind):
    # edge-perturb and subgraph are undefined on these graphs and fall back
    # to the identity view; every batch holds both graphs
    rng = np.random.default_rng(3)
    odd = (Graph(1, rng.standard_normal((1, 8)), (), label=0),
           Graph(4, rng.standard_normal((4, 8)), (), label=1))
    dataset = Dataset(DATASET.graphs[:6] + odd, 8, 2)
    cfg = RunConfig(seed=0, epochs=2, batch_size=8, aug_kinds=kind, aug_ratio=0.5)
    _, history = train(cfg, dataset)
    assert len(history) == 2
    assert all(np.isfinite(row.total) for row in history)


def test_groupig_duplicated_views_identical():
    cfg = RunConfig(pipeline="groupig", seed=4, **FAST)
    state, _ = train(cfg, DATASET)
    batch = batch_graphs(list(DATASET.graphs[:6]))
    reps = node_view_representations(state, batch)
    assert len(reps) == cfg.num_groups
    for rep in reps[1:]:
        assert np.array_equal(rep, reps[0])


def test_history_csv_byte_identical(tmp_path):
    cfg = RunConfig(seed=6, **FAST)
    paths = []
    for name in ("a.csv", "b.csv"):
        _, history = train(cfg, DATASET)
        p = tmp_path / name
        write_history(p, history)
        paths.append(p)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert paths[0].read_text().splitlines()[0] == HISTORY_HEADER


def test_checkpoint_roundtrip_exact(tmp_path):
    cfg = RunConfig(seed=7, estimator="param", **FAST)
    state, _ = train(cfg, DATASET)
    path = tmp_path / "ck.bin"
    checkpoint_save(path, state)
    back = checkpoint_load(path)
    assert back.config == cfg
    assert back.epoch == state.epoch
    for k in state.params:
        assert np.array_equal(back.params[k], state.params[k])
        assert np.array_equal(back.opt.m[k], state.opt.m[k])
        assert np.array_equal(back.opt.v[k], state.opt.v[k])
    for k in state.var_params:
        assert np.array_equal(back.var_params[k], state.var_params[k])
    assert back.opt.step == state.opt.step
    assert back.node_dim == state.node_dim


def test_save_resume_matches_uninterrupted(tmp_path):
    full_cfg = RunConfig(seed=8, epochs=6, batch_size=16)
    full_state, full_hist = train(full_cfg, DATASET)

    half_cfg = dataclasses.replace(full_cfg, epochs=3)
    half_state, first_half = train(half_cfg, DATASET)
    path = tmp_path / "mid.bin"
    checkpoint_save(path, half_state)
    resumed = checkpoint_load(path)
    final, second_half = train(full_cfg, DATASET, state=resumed)

    for k in full_state.params:
        assert np.allclose(final.params[k], full_state.params[k], atol=1e-12)
    joined = [r.total for r in first_half] + [r.total for r in second_half]
    assert joined == [r.total for r in full_hist]


def test_checkpoint_corruption_detected(tmp_path):
    cfg = RunConfig(seed=9, epochs=1, batch_size=16)
    state, _ = train(cfg, DATASET)
    path = tmp_path / "ck.bin"
    checkpoint_save(path, state)
    raw = path.read_bytes()

    bad_magic = tmp_path / "magic.bin"
    bad_magic.write_bytes(b"XXXXXXXX" + raw[8:])
    with pytest.raises(CheckpointError):
        checkpoint_load(bad_magic)

    truncated = tmp_path / "trunc.bin"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(CheckpointError):
        checkpoint_load(truncated)

    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(raw + b"\x00" * 8)
    with pytest.raises(CheckpointError):
        checkpoint_load(trailing)


def test_init_model_head_layout_by_pipeline():
    baseline = init_model(RunConfig(pipeline="graphcl-baseline"), 8)
    assert "head.w1" in baseline.params and "rep.q" not in baseline.params
    grouped = init_model(RunConfig(), 8)
    assert "rep.q" in grouped.params and "head.w1" not in grouped.params
    assert grouped.params["rep.q"].shape == (100, 4)
    ig = init_model(RunConfig(pipeline="groupig"), 8)
    assert "nodemap.w" in ig.params


def test_small_final_batch_is_used_or_skipped():
    # 40 graphs, batch 39: the leftover single graph cannot form negatives
    cfg = RunConfig(seed=10, epochs=1, batch_size=39)
    with pytest.warns(UserWarning):
        _, history = train(cfg, DATASET)
    assert len(history) == 1
