import dataclasses
import gc
import hashlib
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupcontrast import graphs, trainer
from groupcontrast.augment import AUGMENTATION_KINDS
from groupcontrast.config import ESTIMATORS, PIPELINES, RunConfig
from groupcontrast.graphs import (Dataset, Graph, batch_graphs,
                                  generate_planted_motif_dataset)
from groupcontrast.tensor import RowSum, Tape
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


@pytest.mark.parametrize("pipeline, views", [("groupcl", 2), ("groupig", 1),
                                             ("graphcl-baseline", 2)])
def test_step_builds_each_plan_of_a_view_once(monkeypatch, pipeline, views):
    # each encoded batch builds its two row-sum plans (edges by destination,
    # nodes by graph) once, for all GIN layers forward and backward, the
    # pooling and the loss, and the plans leave no cyclic tape behind
    built = []

    class Counted(RowSum):
        __slots__ = ()

        def __init__(self, index, n):
            built.append(index)
            super().__init__(index, n)

    monkeypatch.setattr(graphs, "RowSum", Counted)
    state = init_model(RunConfig(pipeline=pipeline, seed=0, batch_size=16), DATASET.feature_dim)
    gc.collect()
    gc.disable()
    try:
        trainer._step(state, list(DATASET.graphs[:16]), 0, 0)
        alive = sum(isinstance(o, Tape) for o in gc.get_objects())
    finally:
        gc.enable()
    assert alive == 0
    assert len(built) == 2 * views
    assert len({id(index) for index in built}) == len(built)


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


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_train_finishes_on_all_zero_feature_graph(pipeline):
    # every layer maps an all-zero graph to zero, so its embeddings have no
    # direction; normalizing them must not abort the run
    zero = Graph(3, np.zeros((3, 8)), ((0, 1),), label=0)
    dataset = Dataset(DATASET.graphs[:6] + (zero,), 8, 2)
    cfg = RunConfig(pipeline=pipeline, seed=0, epochs=2, batch_size=8)
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


@st.composite
def run_configs(draw):
    """Small valid configs over every pipeline, estimator and view tying,
    with and without GIN layers and a learnable eps."""
    num_groups = draw(st.integers(1, 3))
    kinds = draw(st.lists(st.sampled_from(AUGMENTATION_KINDS), min_size=1, unique=True))
    return RunConfig(
        pipeline=draw(st.sampled_from(PIPELINES)), num_groups=num_groups,
        embed_dim=num_groups * draw(st.integers(1, 3)), key_dim=draw(st.integers(1, 4)),
        gin_layers=draw(st.integers(0, 2)), gin_hidden=draw(st.integers(1, 4)),
        diversity_weight=draw(st.floats(0.0, 10.0)),
        estimator=draw(st.sampled_from(ESTIMATORS)),
        aug_kinds=",".join(kinds), aug_ratio=draw(st.floats(0.0, 0.99)),
        learning_rate=draw(st.floats(1e-9, 1.0)), epochs=draw(st.integers(0, 100)),
        batch_size=draw(st.integers(1, 256)), seed=draw(st.integers(0, 2**32)),
        tie_views=draw(st.booleans()), scale_scores=draw(st.booleans()),
        learnable_eps=draw(st.booleans()))


_adam_headers = st.tuples(st.integers(0, 2**53), st.floats(1e-12, 1e3))


@given(config=run_configs(), feature_dim=st.integers(1, 5), epoch=st.integers(0, 2**53),
       adam=_adam_headers, var_adam=_adam_headers, seed=st.integers(0, 2**16))
def test_checkpoint_round_trip_is_bit_exact(tmp_path_factory, config, feature_dim, epoch,
                                            adam, var_adam, seed):
    # every array holds random finite bit patterns (negative zeros, subnormals,
    # extremes); arrays, config, epoch and both Adam headers come back exact
    rng = np.random.default_rng(seed)
    state = init_model(config, feature_dim)
    tables = [state.params, state.opt.m, state.opt.v, state.var_params]
    if state.var_opt is not None:
        tables += [state.var_opt.m, state.var_opt.v]
    for table in tables:
        for name, arr in table.items():
            bits = rng.integers(0, 2**64, size=arr.shape, dtype=np.uint64).view(np.float64)
            table[name] = np.where(np.isfinite(bits), bits, -0.0)
    state.epoch = epoch
    state.opt = dataclasses.replace(state.opt, step=adam[0], lr=adam[1])
    if state.var_opt is not None:
        state.var_opt = dataclasses.replace(state.var_opt, step=var_adam[0], lr=var_adam[1])
    path = tmp_path_factory.mktemp("ck") / "ck.bin"
    checkpoint_save(path, state)
    back = checkpoint_load(path)
    assert back.config == config and back.epoch == epoch
    pairs = [(back.opt, state.opt)] + ([(back.var_opt, state.var_opt)]
                                       if state.var_opt is not None else [])
    assert (back.var_opt is None) == (state.var_opt is None)
    for got, want in [(back.params, state.params), (back.var_params, state.var_params),
                      *((g.m, w.m) for g, w in pairs), *((g.v, w.v) for g, w in pairs)]:
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].shape == want[name].shape
            assert got[name].tobytes() == want[name].tobytes()
    for got, want in pairs:
        assert (got.step, got.lr) == (want.step, want.lr)


def read_checkpoint_parts(raw):
    """A checkpoint's header and its arrays by key, in file order."""
    (n,) = struct.unpack("<Q", raw[8:16])
    header = json.loads(raw[16:16 + n])
    arrays, offset = {}, 16 + n
    for key, shape in header["arrays"]:
        count = math.prod(shape)
        arrays[key] = np.frombuffer(raw, "<f8", count, offset).reshape(shape)
        offset += 8 * count
    return header, arrays


def signed(raw):
    """A version-2 file with its digest filled in: the sha256 of the file with
    the 64 hex digits after the header's opening '{"sha256":"' zeroed."""
    at = 16 + len(b'{"sha256":"')
    zeroed = raw[:at] + b"0" * 64 + raw[at + 64:]
    return raw[:at] + hashlib.sha256(zeroed).hexdigest().encode() + raw[at + 64:]


def write_checkpoint_parts(path, header, arrays):
    """Write a header and arrays as a checkpoint, signed when the header is
    of version 2, so the load checks behind the digest are reached."""
    header = dict(header, arrays=[[k, list(a.shape)] for k, a in arrays.items()])
    blob = json.dumps(header, separators=(",", ":")).encode()
    raw = (b"GCCHKPT1" + struct.pack("<Q", len(blob)) + blob
           + b"".join(np.ascontiguousarray(a, "<f8").tobytes() for a in arrays.values()))
    path.write_bytes(signed(raw) if header.get("version") == 2 else raw)


def _shrink(arrays, key):
    arrays[key] = arrays[key][:, :1]


CORRUPTIONS = {
    "config is a list": lambda h, a: h.update(config=[]),
    "no epoch": lambda h, a: h.pop("epoch"),
    "no adam": lambda h, a: h.pop("adam"),
    "no var_adam": lambda h, a: h.pop("var_adam"),
    "negative epoch": lambda h, a: h.update(epoch=-1),
    "string adam step": lambda h, a: h["adam"].update(step="3"),
    "unknown config key": lambda h, a: h["config"].update(learning_rte=0.01),
    "rejected config value": lambda h, a: h["config"].update(num_groups=0),
    "string config value": lambda h, a: h["config"].update(num_groups="4"),
    "float config int": lambda h, a: h["config"].update(num_groups=4.0),
    "config of another pipeline": lambda h, a: h["config"].update(pipeline="graphcl-baseline"),
    "missing m/": lambda h, a: a.pop("m/rep.q"),
    "missing v/": lambda h, a: a.pop("v/gin.0.b1"),
    "missing p/": lambda h, a: a.pop("p/rep.q"),
    "missing vm/": lambda h, a: a.pop("vm/var.mu.w1"),
    "missing vv/": lambda h, a: a.pop("vv/var.lv.b2"),
    "m/ shape": lambda h, a: _shrink(a, "m/rep.q"),
    "vv/ shape": lambda h, a: _shrink(a, "vv/var.mu.w2"),
    "p/, m/ and v/ shape": lambda h, a: [_shrink(a, f"{k}/rep.wv") for k in "pmv"],
    "extra parameter": lambda h, a: a.update({"p/extra": np.zeros(2), "m/extra": np.zeros(2),
                                              "v/extra": np.zeros(2)}),
    "unknown prefix": lambda h, a: a.update({"q/rep.q": np.zeros(2)}),
    "no varnets": lambda h, a: [a.pop(k) for k in list(a) if k.startswith("v") and "/var." in k],
    "var_adam for nonparam": lambda h, a: h["config"].update(estimator="nonparam"),
    "non-finite value": lambda h, a: a.update({"p/rep.q": np.full_like(a["p/rep.q"], np.nan)}),
}


def test_checkpoint_corruption_detected(tmp_path):
    cfg = RunConfig(seed=9, epochs=1, batch_size=16, estimator="param")
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

    listed = tmp_path / "list.bin"
    listed.write_bytes(raw[:8] + struct.pack("<Q", 2) + b"[]")
    with pytest.raises(CheckpointError):
        checkpoint_load(listed)

    # the parts rewritten unchanged load; each corruption raises CheckpointError
    rewritten = tmp_path / "rewritten.bin"
    write_checkpoint_parts(rewritten, *read_checkpoint_parts(raw))
    assert rewritten.read_bytes() == raw
    loaded = []
    for name, corrupt in CORRUPTIONS.items():
        header, arrays = read_checkpoint_parts(raw)
        corrupt(header, arrays)
        write_checkpoint_parts(rewritten, header, arrays)
        try:
            checkpoint_load(rewritten)
            loaded.append(name)
        except CheckpointError:
            pass
    assert loaded == []


def test_checkpoint_config_with_zero_key_dim_rejected(tmp_path):
    state = init_model(RunConfig(seed=9), 8)
    path = tmp_path / "ck.bin"
    checkpoint_save(path, state)
    header, arrays = read_checkpoint_parts(path.read_bytes())
    header["config"]["key_dim"] = 0
    write_checkpoint_parts(path, header, arrays)
    with pytest.raises(CheckpointError, match="config rejected: key_dim"):
        checkpoint_load(path)


@pytest.mark.parametrize("field, bad", [
    ("tie_views", "no"), ("seed", 1.5), ("epochs", 2.5), ("num_groups", True),
    ("learning_rate", "0.001"), ("aug_kinds", None), ("batch_size", [8]),
])
def test_checkpoint_config_of_wrong_type_rejected(tmp_path, field, bad):
    state = init_model(RunConfig(seed=9), 8)
    path = tmp_path / "ck.bin"
    checkpoint_save(path, state)
    header, arrays = read_checkpoint_parts(path.read_bytes())
    header["config"][field] = bad
    write_checkpoint_parts(path, header, arrays)
    with pytest.raises(CheckpointError, match=f"config rejected: {field} must be a "):
        checkpoint_load(path)


def test_checkpoint_with_node_dim_key_still_loads(tmp_path):
    # checkpoints written while ModelState stored node_dim carry it in the header
    state = init_model(RunConfig(seed=9), 8)
    path = tmp_path / "ck.bin"
    checkpoint_save(path, state)
    header, arrays = read_checkpoint_parts(path.read_bytes())
    write_checkpoint_parts(path, dict(header, node_dim=32), arrays)
    back = checkpoint_load(path)
    assert back.params.keys() == state.params.keys()
    assert all(np.array_equal(back.params[k], state.params[k]) for k in state.params)


_SMALL = RunConfig(estimator="param", num_groups=2, embed_dim=4, key_dim=3, gin_layers=1,
                   gin_hidden=3)


@given(data=st.data())
def test_every_flipped_bit_raises_checkpoint_error(tmp_path_factory, data):
    # in the magic, the length, the header, the digest or the float data
    path = tmp_path_factory.mktemp("flip") / "ck.bin"
    checkpoint_save(path, train(dataclasses.replace(_SMALL, epochs=1, batch_size=20),
                                Dataset(DATASET.graphs[:20], 8, 2))[0])
    raw = bytearray(path.read_bytes())
    bit = data.draw(st.integers(0, 8 * len(raw) - 1)
                    | st.integers(8 * (len(raw) - 64), 8 * len(raw) - 1))
    raw[bit // 8] ^= 1 << bit % 8
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        checkpoint_load(path)


def test_version_1_checkpoint_loads_unverified(tmp_path):
    # version 1 carries no digest, so it loads with nothing to verify
    state, _ = train(dataclasses.replace(_SMALL, epochs=1, batch_size=20),
                     Dataset(DATASET.graphs[:20], 8, 2))
    path = tmp_path / "ck.bin"
    checkpoint_save(path, state)
    header, arrays = read_checkpoint_parts(path.read_bytes())
    assert header["version"] == 2 and re.fullmatch("[0-9a-f]{64}", header.pop("sha256"))
    write_checkpoint_parts(path, dict(header, version=1), arrays)
    back = checkpoint_load(path)
    assert all(back.params[k].tobytes() == state.params[k].tobytes() for k in state.params)


@given(cut=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_every_truncation_raises_checkpoint_error(tmp_path_factory, cut):
    path = tmp_path_factory.mktemp("trunc") / "ck.bin"
    checkpoint_save(path, init_model(_SMALL, 2))
    raw = path.read_bytes()
    path.write_bytes(raw[:int(cut * len(raw))])
    with pytest.raises(CheckpointError):
        checkpoint_load(path)


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
