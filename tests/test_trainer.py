import dataclasses
import gc
import hashlib
import json
import math
import os
import platform
import re
import statistics
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from groupcontrast import graphs, trainer
from groupcontrast import tensor as T
from groupcontrast.augment import AUGMENTATION_KINDS
from groupcontrast.config import ESTIMATORS, PIPELINES, RunConfig
from groupcontrast.graphs import (Dataset, Graph, batch_graphs,
                                  generate_planted_motif_dataset)
from groupcontrast.objectives import varnet_layout, varnet_params
from groupcontrast.tensor import NumericError, RowSum, Tape
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
    # the nets sit last in the one parameter table and move with the model
    # on every step
    cfg = RunConfig(estimator="param", seed=2, **FAST)
    initial = init_model(cfg, DATASET.feature_dim)
    state, history = train(cfg, DATASET)
    names = [name for name, _, _ in varnet_layout(cfg.group_dim)]
    assert list(state.params)[-len(names):] == names
    assert list(varnet_params(state.params)) == names
    assert state.opt.step == len(history)
    for name in names:
        assert not np.array_equal(state.params[name], initial.params[name])
        assert state.opt.v[name].any()
    assert all(np.isfinite(r.total) for r in history)


def test_untied_views_create_second_branch():
    # view r reads exactly its own copies: with each gin_r.* and rep_r.*
    # array stored under its gin.* or rep.* name, view u gives the same
    # bytes; the baseline's head.* stays shared
    batch = batch_graphs(list(DATASET.graphs[:8]))
    for pipeline in ("groupcl", "graphcl-baseline"):
        cfg = RunConfig(pipeline=pipeline, tie_views=False, seed=3, **FAST)
        state, _ = train(cfg, DATASET)
        assert "gin_r.0.w1" in state.params
        assert ("rep_r.q" in state.params) == (pipeline == "groupcl")
        assert not any(name.startswith("head_r.") for name in state.params)
        swapped = dict(state.params)
        for name, value in state.params.items():
            if name.startswith(("gin_r.", "rep_r.")):
                swapped[name.replace("_r.", ".", 1)] = value
        r_groups, r_nodes = trainer.embed_view(cfg, state.params, batch, "r")
        u_groups, u_nodes = trainer.embed_view(cfg, swapped, batch, "u")
        assert r_nodes.values.tobytes() == u_nodes.values.tobytes()
        assert [g.values.tobytes() for g in r_groups] == [g.values.tobytes() for g in u_groups]
        own_u, _ = trainer.embed_view(cfg, state.params, batch, "u")
        assert own_u[0].values.tobytes() != r_groups[0].values.tobytes()


@pytest.mark.parametrize("field, value", [("diversity_weight", 0.0), ("learning_rate", 0.5),
                                          ("seed", 3), ("batch_size", 12)])
def test_resume_refuses_a_changed_config(field, value):
    # a resumed run's steps read the state's config, so any change but
    # epochs would mix two configs in one run
    first = RunConfig(seed=0, epochs=1, batch_size=16)
    state, _ = train(first, DATASET)
    changed = dataclasses.replace(first, epochs=2, **{field: value})
    with pytest.raises(TrainingError, match=f"{field}={value!r}"):
        train(changed, DATASET, state=state)
    assert state.epoch == 1


@pytest.mark.parametrize("overrides, params, name", [
    (dict(), "params", "gin.1.w1"),
    (dict(estimator="param"), "var_params", "var.mu.w1"),
    (dict(estimator="param"), "var_params", "var.lv.w1"),
    (dict(pipeline="groupig", estimator="param"), "var_params", "var.mu.w1"),
])
def test_overflow_in_a_relu_perceptron_names_the_op_and_the_step(overrides, params, name):
    # a GIN layer or a variational net whose hidden block overflows: with
    # every first-layer weight 1e308 and bias the largest float, any input
    # row of positive sum reaches inf. A RuntimeWarning would fail the test
    # under pyproject's filter. The nets' weights sit in the one table too
    cfg = RunConfig(**FAST, **overrides)
    state = init_model(cfg, DATASET.feature_dim)
    arrays = state.params
    assert (name in varnet_params(arrays)) == (params == "var_params")
    arrays[name] = np.full_like(arrays[name], 1e308)
    arrays[name[:-2] + "b1"] = np.full_like(arrays[name[:-2] + "b1"], np.finfo(float).max)
    with pytest.raises(NumericError, match=r"^epoch 0 step 0: mlp: non-finite hidden block$"):
        train(cfg, DATASET, state)


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


@pytest.mark.parametrize("estimator", ESTIMATORS)
@pytest.mark.parametrize("pipeline", PIPELINES)
def test_step_records_one_tape_and_runs_one_backward(monkeypatch, pipeline, estimator):
    # the variational nets' loss shares the step's tape and backward pass,
    # and one Adam update serves the model and the nets
    tapes, passes, updates = [], [], []

    class Counted(Tape):
        def __init__(self):
            tapes.append(self)
            super().__init__()

    def backward(tape, loss):
        passes.append(tape)
        return original(tape, loss)

    def adam_step(params, grads, opt):
        updates.append(params)
        return original_adam(params, grads, opt)

    original, original_adam = trainer.backward, trainer.adam_step
    monkeypatch.setattr(trainer, "Tape", Counted)
    monkeypatch.setattr(trainer, "backward", backward)
    monkeypatch.setattr(trainer, "adam_step", adam_step)
    state = init_model(RunConfig(pipeline=pipeline, estimator=estimator, seed=0, batch_size=16),
                       DATASET.feature_dim)
    params = state.params
    trainer._step(state, list(DATASET.graphs[:16]), 0, 0)
    assert len(tapes) == 1 and passes == tapes
    assert len(updates) == 1 and updates[0] is params
    assert state.opt.step == 1


@pytest.mark.parametrize("pipeline", PIPELINES)
def test_step_sums_all_pair_softplus_in_one_fused_op(monkeypatch, pipeline):
    # both JS estimators take their all-pairs softplus sum from the fused op,
    # so no step hands softplus a (p, B, B) score block
    fused, blocks = [], []

    def softplus_sum_of_products(a, b):
        fused.append((a.shape, b.shape))
        return original_fused(a, b)

    def softplus(a):
        blocks.append(a.values.size)
        return original_softplus(a)

    original_fused, original_softplus = T.softplus_sum_of_products, T.softplus
    monkeypatch.setattr(T, "softplus_sum_of_products", softplus_sum_of_products)
    monkeypatch.setattr(T, "softplus", softplus)
    config = RunConfig(pipeline=pipeline, seed=0, batch_size=16)
    state = init_model(config, DATASET.feature_dim)
    trainer._step(state, list(DATASET.graphs[:16]), 0, 0)
    p = 1 if pipeline == "graphcl-baseline" else config.num_groups
    assert len(fused) == 1 and blocks and p * 16 * 16 not in blocks


def test_groupig_param_step_keeps_no_gathered_or_residual_block(traced_peak):
    # one GroupIG step with the variational nets at the groupig-param
    # benchmark's batch (128 graphs of 14 nodes, 4 groups of width 40),
    # traced after a first step: forward, both losses, backward and the
    # Adam update. The own-node scores gather no (N, p, d) block and the
    # CLUB term keeps no (B, p, p, d) residual block, so the step peaks at
    # 3.61 blocks of (N, p, d). It reads 4.81 with the gathered block, 4.61
    # with the kept residual blocks and 5.82 with both
    ds = generate_planted_motif_dataset(1, 128, 14, 8)
    config = RunConfig(pipeline="groupig", estimator="param")
    state = init_model(config, ds.feature_dim)
    graphs = list(ds.graphs)
    block = 128 * 14 * config.embed_dim * 8      # (N, p, d), where p * d is embed_dim
    trainer._step(state, graphs, 0, 0)      # first-call set-up stays out of the count
    peak = traced_peak(lambda: trainer._step(state, graphs, 0, 1))
    assert peak < 4.25 * block, f"peak {peak / block:.2f} blocks"


def test_groupcl_step_frees_each_view_as_backward_passes_it(traced_peak):
    # one GroupCL step at the groupcl-large benchmark's batch (64 graphs of
    # 40 nodes), traced after a first step. Backward drops each tape entry
    # once its vjps have run, and the step holds neither the batch nor a
    # view, so view r's arrays go before the walk reaches view u's: the
    # step peaks at 10.67 blocks of (N, gin_hidden). It reads 11.34 with
    # the batch kept, 12.67 with every entry kept and 13.34 with both
    ds = generate_planted_motif_dataset(1, 64, 40, 8)
    config = RunConfig(pipeline="groupcl", batch_size=64)
    state = init_model(config, ds.feature_dim)
    graphs = list(ds.graphs)
    block = 64 * 40 * config.gin_hidden * 8
    trainer._step(state, graphs, 0, 0)      # first-call set-up stays out of the count
    peak = traced_peak(lambda: trainer._step(state, graphs, 0, 1))
    assert peak < 11.0 * block, f"peak {peak / block:.2f} blocks"


# trains GroupCL at the groupcl-large benchmark's shape (64 graphs of 40
# nodes a step) and prints the minor page faults of each step
_FAULTS_PER_STEP = """
import json, resource
from groupcontrast import trainer
from groupcontrast.config import RunConfig
from groupcontrast.graphs import generate_planted_motif_dataset

faults, step = [], trainer._STEP_FNS["groupcl"]
def counted(*args):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    out = step(*args)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return out
trainer._STEP_FNS["groupcl"] = counted
trainer.train(RunConfig(pipeline="groupcl", batch_size=64, epochs=8),
              generate_planted_motif_dataset(1, 192, 40, 8))
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap policy is glibc's")
def test_steps_fault_in_no_fresh_pages_after_warmup():
    # a fresh process, so no other test's heap history counts. With glibc's
    # default thresholds the multi-MB step temporaries were fresh mmaps, and
    # the heap top that backward frees was trimmed: about 1200-2100 faults
    # a step. Under the heap policy a step reuses the pages it already holds
    src = str(Path(trainer.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _FAULTS_PER_STEP], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    faults = json.loads(out)
    assert len(faults) == 24
    assert statistics.median(faults[6:]) < 100, faults


# trains one epoch of each pipeline, and of GroupCL with every augmentation
# kind, embeds and probes each model, and prints whether numpy.ma was imported
_IMPORTS_NUMPY_MA = """
import sys
from groupcontrast.augment import AUGMENTATION_KINDS
from groupcontrast.config import PIPELINES, RunConfig
from groupcontrast.evaluation import extract_embeddings, linear_probe
from groupcontrast.graphs import generate_planted_motif_dataset
from groupcontrast.trainer import train

dataset = generate_planted_motif_dataset(7, 40, 14, 8)
configs = [RunConfig(pipeline=pipeline, epochs=1, batch_size=16) for pipeline in PIPELINES]
configs.append(RunConfig(epochs=1, batch_size=16, aug_kinds=",".join(AUGMENTATION_KINDS)))
for config in configs:
    state, _ = train(config, dataset)
    linear_probe(extract_embeddings(state, dataset))
print("numpy.ma" in sys.modules)
"""


def test_training_and_evaluation_never_import_numpy_ma():
    # a fresh process, so no other test's imports count. The first np.unique
    # call imports numpy.ma, which adds 1.6 MB to the resident set
    src = str(Path(trainer.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    out = subprocess.run([sys.executable, "-c", _IMPORTS_NUMPY_MA], env=env, check=True,
                         capture_output=True, text=True, timeout=300).stdout
    assert out == "False\n"


def test_train_runs_where_mallopt_cannot_be_found(monkeypatch):
    # the policy only places allocations: without it a run gives the same
    # history, and a failed lookup is not an error
    config = RunConfig(**FAST)
    _, expected = train(config, DATASET)
    lookups = []

    def no_libc(name):
        lookups.append(name)
        raise OSError("no C library")

    monkeypatch.setattr(T.ctypes, "CDLL", no_libc)
    T._keep_heap.cache_clear()
    try:
        _, history = train(config, DATASET)
    finally:
        T._keep_heap.cache_clear()
    assert history == expected
    assert lookups == ([None] if platform.libc_ver()[0] == "glibc" else [])


@pytest.mark.parametrize("overrides", [dict(num_groups=1), dict(diversity_weight=0.0)])
def test_param_estimator_without_inter_term_leaves_varnets_untouched(overrides):
    # no inter-space term means no CLUB penalty: the nets get zero
    # gradients, and the shared Adam update leaves them and their moments
    # as init_model made them
    cfg = RunConfig(estimator="param", seed=2, epochs=1, batch_size=16, **overrides)
    initial = init_model(cfg, DATASET.feature_dim)
    state, history = train(cfg, DATASET)
    assert state.opt.step == len(history) > 0
    nets = varnet_params(initial.params)
    assert nets.keys() == varnet_params(state.params).keys() != set()
    for name, arr in nets.items():
        assert state.params[name].tobytes() == arr.tobytes()
        assert not state.opt.m[name].any() and not state.opt.v[name].any()


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
    assert back.params.keys() == state.params.keys()
    assert varnet_params(back.params)
    for k in state.params:
        assert np.array_equal(back.params[k], state.params[k])
        assert np.array_equal(back.opt.m[k], state.opt.m[k])
        assert np.array_equal(back.opt.v[k], state.opt.v[k])
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


@given(config=run_configs(), feature_dim=st.integers(1, 5), epoch=st.integers(0, 2**53),
       adam_step=st.integers(0, 2**53), seed=st.integers(0, 2**16))
def test_checkpoint_round_trip_is_bit_exact(tmp_path_factory, config, feature_dim, epoch,
                                            adam_step, seed):
    # every array holds random finite bit patterns (negative zeros, subnormals,
    # extremes); arrays, config, epoch and the Adam state come back exact, its
    # lr being the config's learning_rate. The nets' var_adam header, written
    # only when the config has them, repeats adam
    rng = np.random.default_rng(seed)
    state = init_model(config, feature_dim)
    tables = [state.params, state.opt.m, state.opt.v]
    for table in tables:
        for name, arr in table.items():
            bits = rng.integers(0, 2**64, size=arr.shape, dtype=np.uint64).view(np.float64)
            table[name] = np.where(np.isfinite(bits), bits, -0.0)
    state.epoch = epoch
    state.opt = dataclasses.replace(state.opt, step=adam_step)
    path = tmp_path_factory.mktemp("ck") / "ck.bin"
    checkpoint_save(path, state)
    header, _ = read_checkpoint_parts(path.read_bytes())
    assert header["var_adam"] == (header["adam"] if varnet_params(state.params) else None)
    back = checkpoint_load(path)
    assert back.config == config and back.epoch == epoch
    for got, want in zip([back.params, back.opt.m, back.opt.v], tables):
        assert got.keys() == want.keys()
        for name in want:
            assert got[name].shape == want[name].shape
            assert got[name].tobytes() == want[name].tobytes()
    assert (back.opt.step, back.opt.lr) == (adam_step, config.learning_rate)


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
    "infinite adam lr": lambda h, a: h["adam"].update(lr=math.inf),
    "adam lr not the config's": lambda h, a: h["adam"].update(lr=0.5),
    "no adam lr": lambda h, a: h["adam"].pop("lr"),
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
    "var_adam step neither 0 nor adam's": lambda h, a: h["var_adam"].update(
        step=h["adam"]["step"] + 1),
    "var_adam step 0 with an inter-space term": lambda h, a: h["var_adam"].update(step=0),
    "non-finite value": lambda h, a: a.update({"p/rep.q": np.full_like(a["p/rep.q"], np.nan)}),
    "reordered listing": lambda h, a: a.update({"p/rep.q": a.pop("p/rep.q")}),
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


@pytest.mark.parametrize("which, lr", [("adam", math.inf), ("adam", 0.5), ("var_adam", 0.5),
                                       ("var_adam", 1)])
def test_checkpoint_adam_lr_must_be_the_configs_learning_rate(tmp_path, which, lr):
    # an lr of Infinity once loaded and died on the first resumed step, and
    # one of 0.5 under learning_rate=0.001 silently trained at 0.5
    path = tmp_path / "ck.bin"
    checkpoint_save(path, init_model(RunConfig(seed=9, estimator="param"), 8))
    header, arrays = read_checkpoint_parts(path.read_bytes())
    header[which]["lr"] = lr
    write_checkpoint_parts(path, header, arrays)
    with pytest.raises(CheckpointError, match=f"{which} lr {lr!r} is not the config's "
                                              "learning_rate 0.001"):
        checkpoint_load(path)


def test_checkpoint_whose_nets_never_stepped_resumes_exactly(tmp_path):
    # when the nets kept an Adam state of their own, a config with no
    # inter-space term (one group here) saved their step as 0; such a file
    # loads into the one shared state and resumes the uninterrupted run
    full_cfg = RunConfig(estimator="param", num_groups=1, seed=8, epochs=4, batch_size=16)
    _, full_hist = train(full_cfg, DATASET)
    half_state, first_half = train(dataclasses.replace(full_cfg, epochs=2), DATASET)
    path = tmp_path / "ck.bin"
    checkpoint_save(path, half_state)
    header, arrays = read_checkpoint_parts(path.read_bytes())
    assert header["var_adam"] == header["adam"] and header["adam"]["step"] > 0
    write_checkpoint_parts(path, dict(header, var_adam=dict(header["adam"], step=0)), arrays)
    resumed = checkpoint_load(path)
    assert resumed.opt.step == half_state.opt.step
    _, second_half = train(full_cfg, DATASET, state=resumed)
    full, joined = tmp_path / "full.csv", tmp_path / "joined.csv"
    write_history(full, full_hist)
    write_history(joined, first_half + second_half)
    assert joined.read_bytes() == full.read_bytes()


def test_checkpoint_of_an_integer_learning_rate_loads(tmp_path):
    # an int passes for the float field, and the header repeats it as an int
    path = tmp_path / "ck.bin"
    checkpoint_save(path, init_model(RunConfig(seed=9, learning_rate=1), 8))
    assert checkpoint_load(path).opt.lr == 1


def test_checkpoint_of_unknown_version_rejected(tmp_path):
    path = tmp_path / "ck.bin"
    checkpoint_save(path, init_model(RunConfig(seed=9), 8))
    header, arrays = read_checkpoint_parts(path.read_bytes())
    write_checkpoint_parts(path, dict(header, version=3), arrays)
    with pytest.raises(CheckpointError, match="unsupported checkpoint version 3"):
        checkpoint_load(path)


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


def test_checkpoint_names_the_first_array_out_of_place(tmp_path):
    # every version has written the arrays in one order, so a file that
    # lists them in another is refused, not sorted back
    path = tmp_path / "ck.bin"
    checkpoint_save(path, init_model(RunConfig(seed=9), 8))
    header, arrays = read_checkpoint_parts(path.read_bytes())
    (first, a), (second, b) = list(arrays.items())[:2]
    arrays[first] = arrays.pop(first)
    write_checkpoint_parts(path, header, arrays)
    got, want = [second, list(b.shape)], [first, list(a.shape)]
    with pytest.raises(CheckpointError,
                       match=re.escape(f"array {got!r} where the stored config has {want!r}")):
        checkpoint_load(path)


def test_checkpoint_bounds_the_input_width_by_its_data(tmp_path, traced_peak):
    # a 0.25 MB file listing the input weight (and its moments) as
    # (200000, 0) once had init_model allocate 147 MB before the arrays
    # were compared
    path = tmp_path / "ck.bin"
    checkpoint_save(path, init_model(RunConfig(seed=9), 8))
    header, arrays = read_checkpoint_parts(path.read_bytes())
    del header["sha256"]
    for key in ("p/gin.0.w1", "m/gin.0.w1", "v/gin.0.w1"):
        arrays[key] = np.zeros((200000, 0))
    write_checkpoint_parts(path, dict(header, version=1), arrays)

    def refused():
        with pytest.raises(CheckpointError, match="input width 200000 exceeds the file's data"):
            checkpoint_load(path)
    assert traced_peak(refused) < 10 * 2**20


def test_checkpoint_config_sizes_are_bounded_by_the_listing(tmp_path, traced_peak):
    # a 0.25 MB file whose stored config asks for 1000-wide GIN layers is
    # refused by its listing before that config's model exists; building
    # the model first once peaked at 118 MB
    path = tmp_path / "ck.bin"
    checkpoint_save(path, init_model(RunConfig(seed=9), 8))
    header, arrays = read_checkpoint_parts(path.read_bytes())
    header["config"]["gin_hidden"] = 1000
    write_checkpoint_parts(path, header, arrays)
    got, want = ["p/gin.0.b1", [32]], ["p/gin.0.b1", [1000]]

    def refused():
        with pytest.raises(CheckpointError,
                           match=re.escape(f"array {got!r} where the stored config has {want!r}")):
            checkpoint_load(path)
    assert traced_peak(refused) < 4 * path.stat().st_size


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


def test_dataset_too_small_for_any_batch_names_the_epoch():
    with pytest.warns(UserWarning, match="epoch 0: skipping batch 0"):
        with pytest.raises(TrainingError, match="epoch 0 had no usable batch"):
            train(RunConfig(epochs=1), Dataset(DATASET.graphs[:1], 8, 2))


def test_small_final_batch_is_used_or_skipped():
    # 40 graphs, batch 39: the leftover single graph cannot form negatives
    cfg = RunConfig(seed=10, epochs=1, batch_size=39)
    with pytest.warns(UserWarning):
        _, history = train(cfg, DATASET)
    assert len(history) == 1
