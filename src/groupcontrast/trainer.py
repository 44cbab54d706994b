"""Training loops for the grouped contrastive pipelines, plus checkpointing
and history logging."""
from __future__ import annotations

import dataclasses
import json
import math
import struct
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from . import objectives as obj
from . import tensor as T
from .augment import AugmentationPolicy, sample_view
from .config import PIPELINES, RunConfig
from .encoder import (encode_nodes, glorot_uniform, init_gin_params, init_projection_head,
                      readout_projection)
from .graphs import Batch, Dataset, Graph, batch_graphs
from .optim import AdamState, adam_step, init_adam
from .representor import duplicate_rep, forward_groups, init_representor_params
from .seeding import stream_rng
from .tensor import Tape, Tensor, backward


class TrainingError(RuntimeError):
    pass


class CheckpointError(RuntimeError):
    pass


@dataclass
class HistoryRow:
    epoch: int
    step: int
    intra_positive: float
    intra_negative: float
    inter_penalty: float
    total: float


@dataclass
class ModelState:
    """All trainable parameters and optimizer state for one run."""

    config: RunConfig
    params: dict[str, np.ndarray]
    opt: AdamState
    var_params: dict[str, np.ndarray] = field(default_factory=dict)
    var_opt: AdamState | None = None
    epoch: int = 0


def init_model(config: RunConfig, feature_dim: int) -> ModelState:
    rng = stream_rng(config.seed, "init")
    # encode_nodes output width; equals the input width when L = 0
    node_dim = config.gin_hidden if config.gin_layers > 0 else feature_dim
    baseline = config.pipeline == "graphcl-baseline"

    def encoder(prefix):
        return init_gin_params(rng, feature_dim, config.gin_hidden, config.gin_layers,
                               learnable_eps=config.learnable_eps, prefix=prefix)

    def representor(prefix):
        return init_representor_params(rng, node_dim, config.key_dim, config.group_dim,
                                       config.num_groups, prefix=prefix)

    params = encoder("gin")
    params.update(init_projection_head(rng, node_dim, config.embed_dim, prefix="head")
                  if baseline else representor("rep"))
    if not config.tie_views and config.pipeline != "groupig":
        params.update(encoder("gin_r"))
        if not baseline:
            params.update(representor("rep_r"))
    if config.pipeline == "groupig":
        # linear map from node embeddings to the group width before
        # node-level discrimination
        params["nodemap.w"] = glorot_uniform(rng, node_dim, config.group_dim)
    var_params: dict[str, np.ndarray] = {}
    var_opt = None
    if config.estimator == "param" and not baseline:
        var_params = obj.init_varnet_params(rng, config.group_dim, prefix="var")
        var_opt = init_adam(var_params, config.learning_rate)
    return ModelState(
        config=config,
        params=params,
        opt=init_adam(params, config.learning_rate),
        var_params=var_params,
        var_opt=var_opt,
        epoch=0,
    )


def embed_view(
    config: RunConfig,
    leaves: Mapping[str, Tensor],
    batch: Batch,
    view: str = "u",
) -> tuple[list[Tensor], Tensor]:
    """A view's graph-level tensors and the node embeddings they pool. The
    graph-level tensors are the p group embeddings, or the baseline's one
    normalized projection. View "r" runs the second encoder when the views
    are untied."""
    branch = "_r" if view == "r" and not config.tie_views else ""
    nodes = encode_nodes(batch, leaves, config.gin_layers, prefix="gin" + branch)
    if config.pipeline == "graphcl-baseline":
        return [T.row_l2_normalize(readout_projection(nodes, batch, leaves, prefix="head"))], nodes
    groups, _ = forward_groups(
        batch, nodes, leaves, scale_scores=config.scale_scores, prefix="rep" + branch)
    return groups, nodes


def _node_view(leaves: Mapping[str, Tensor], nodes: Tensor) -> Tensor:
    """GroupIG's second view: the node embeddings mapped to the group width
    and normalized."""
    return T.row_l2_normalize(T.matmul(nodes, leaves["nodemap.w"]))


def node_view_representations(state: ModelState, batch: Batch) -> list[np.ndarray]:
    """The duplicated node-level view: p value-independent copies of the
    normalized, width-mapped node embeddings."""
    leaves = {name: Tensor(v) for name, v in state.params.items()}
    nodes = encode_nodes(batch, leaves, state.config.gin_layers)
    return duplicate_rep(_node_view(leaves, nodes).values, state.config.num_groups)


def _sample_views(cfg: RunConfig, graphs: list[Graph], epoch: int, step: int) -> tuple[Batch, Batch]:
    """The two augmented views of a step's graphs, batched as (u, r). Views
    are drawn per graph, u before r, from the step's own stream."""
    policy = AugmentationPolicy(kinds=cfg.aug_kind_list, ratio=cfg.aug_ratio)
    rng = stream_rng(cfg.seed, "augment", epoch, step)
    views_u, views_r = [], []
    for g in graphs:
        views_u.append(sample_view(g, policy, rng))
        views_r.append(sample_view(g, policy, rng))
    return batch_graphs(views_u), batch_graphs(views_r)


def _adam_update(params, opt: AdamState, tape: Tape, leaves: dict[str, Tensor], loss: Tensor):
    """Backpropagate `loss` to the leaves of `params` and take one Adam step."""
    grads = backward(tape, loss)
    return adam_step(params, {name: grads[leaf.node_id] for name, leaf in leaves.items()}, opt)


def _step(state: ModelState, graphs: list[Graph], epoch: int, step: int) -> obj.LossBreakdown:
    """One training step of any pipeline. GroupIG contrasts the groups of the
    batch with its node view; GroupCL and the baseline contrast two augmented
    views. A view of two or more groups adds the inter-space penalty and,
    with the parameterized estimator, one adversarial step on the
    variational nets with the encoder held constant."""
    cfg = state.config
    tape = Tape()
    leaves = {name: tape.leaf(v) for name, v in state.params.items()}
    if cfg.pipeline == "groupig":
        batch = batch_graphs(graphs)
        u, nodes = embed_view(cfg, leaves, batch)
        pos, neg = obj.js_terms_nodewise(u, _node_view(leaves, nodes), batch.graph_index)
    else:
        batch_u, batch_r = _sample_views(cfg, graphs, epoch, step)
        u, _ = embed_view(cfg, leaves, batch_u, "u")
        r, _ = embed_view(cfg, leaves, batch_r, "r")
        pos, neg = obj.js_terms(u, r)
    penalized = len(u) >= 2 and cfg.diversity_weight > 0
    param = penalized and cfg.estimator == "param"
    if not penalized:
        inter = Tensor(0.0)
    elif param:
        inter = obj.club_param_penalty(u, state.var_params)
    else:
        inter = obj.interspace_penalty_nonparam(u)
    loss, breakdown = obj.combine_terms(pos, neg, inter, cfg.diversity_weight)
    state.params, state.opt = _adam_update(state.params, state.opt, tape, leaves, loss)
    if param:
        tape = Tape()
        leaves = {name: tape.leaf(v) for name, v in state.var_params.items()}
        loss = obj.varnet_likelihood_loss(u, leaves)
        state.var_params, state.var_opt = _adam_update(
            state.var_params, state.var_opt, tape, leaves, loss)
    return breakdown


# `train` looks its step up here by pipeline, so a profiler can wrap one
# pipeline's entry to time its steps
_STEP_FNS = {pipeline: _step for pipeline in PIPELINES}


def train(
    config: RunConfig,
    dataset: Dataset,
    state: ModelState | None = None,
) -> tuple[ModelState, list[HistoryRow]]:
    """Run (or resume) training; the trajectory is fully determined by
    (seed, config, dataset)."""
    if len(dataset) == 0:
        raise TrainingError("dataset is empty")
    if state is None:
        state = init_model(config, dataset.feature_dim)
    step_fn = _STEP_FNS[config.pipeline]
    history: list[HistoryRow] = []
    n = len(dataset)
    for epoch in range(state.epoch, config.epochs):
        order = stream_rng(config.seed, "shuffle", epoch).permutation(n)
        ran = False
        for step, lo in enumerate(range(0, n, config.batch_size)):
            idx = order[lo:lo + config.batch_size]
            graphs = [dataset.graphs[i] for i in idx]
            if len(graphs) < 2:
                warnings.warn(f"epoch {epoch}: skipping batch {step} with <2 graphs")
                continue
            breakdown = step_fn(state, graphs, epoch, step)
            history.append(HistoryRow(
                epoch=epoch, step=step,
                intra_positive=breakdown.intra_positive,
                intra_negative=breakdown.intra_negative,
                inter_penalty=breakdown.inter_penalty,
                total=breakdown.total,
            ))
            ran = True
        if not ran:
            raise TrainingError(f"epoch {epoch} had no usable batch")
        state.epoch = epoch + 1
    return state, history


# ---------------------------------------------------------------------------
# history CSV

HISTORY_HEADER = "epoch,step,intra_pos,intra_neg,inter,total"


def write_history(path, history: list[HistoryRow]) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(HISTORY_HEADER + "\n")
        for row in history:
            f.write(f"{row.epoch},{row.step},{row.intra_positive!r},"
                    f"{row.intra_negative!r},{row.inter_penalty!r},{row.total!r}\n")


# ---------------------------------------------------------------------------
# checkpoint: versioned header, shape table, raw little-endian float64

_MAGIC = b"GCCHKPT1"


def _array_table(state: ModelState) -> list[tuple[str, np.ndarray]]:
    table = []
    for name in sorted(state.params):
        table.append((f"p/{name}", state.params[name]))
        table.append((f"m/{name}", state.opt.m[name]))
        table.append((f"v/{name}", state.opt.v[name]))
    for name in sorted(state.var_params):
        table.append((f"vp/{name}", state.var_params[name]))
        table.append((f"vm/{name}", state.var_opt.m[name]))
        table.append((f"vv/{name}", state.var_opt.v[name]))
    return table


def checkpoint_save(path, state: ModelState) -> None:
    table = _array_table(state)
    header = {
        "version": 1,
        "config": dataclasses.asdict(state.config),
        "epoch": state.epoch,
        "adam": {"step": state.opt.step, "lr": state.opt.lr},
        "var_adam": ({"step": state.var_opt.step, "lr": state.var_opt.lr}
                     if state.var_opt is not None else None),
        "arrays": [[key, list(arr.shape)] for key, arr in table],
    }
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<Q", len(blob)))
        f.write(blob)
        for _, arr in table:
            f.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def input_width(config: RunConfig, params: Mapping[str, np.ndarray]) -> int:
    """The feature width the model was initialized for, read off its first
    weights. The head's lift exists only when that width differs from
    embed_dim."""
    for name in ("gin.0.w1", "rep.wk", "head.lift"):
        if name in params and params[name].ndim == 2:
            return params[name].shape[0]
    return config.embed_dim


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckpointError(f"corrupt checkpoint: {message}")


def _read_config(entries) -> RunConfig:
    """The stored config, checked field by field as ``RunConfig`` checks it."""
    _require(isinstance(entries, dict), "config is not a mapping")
    try:
        return RunConfig(**entries)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"corrupt checkpoint: config rejected: {exc}") from exc


def _read_adam(entry, what: str, m: dict, v: dict) -> AdamState:
    _require(isinstance(entry, dict) and type(entry.get("step")) is int and entry["step"] >= 0
             and type(entry.get("lr")) is float and entry["lr"] > 0, f"bad {what} header")
    return AdamState(lr=entry["lr"], step=entry["step"], m=m, v=v)


def checkpoint_load(path) -> ModelState:
    """Read a checkpoint, checking its header, and that its arrays are the
    parameters (and Adam moments) that init_model creates for its config."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(_MAGIC) + 8 or raw[:len(_MAGIC)] != _MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (blob_len,) = struct.unpack("<Q", raw[8:16])
    _require(len(raw) >= 16 + blob_len, "truncated header")
    try:
        header = json.loads(raw[16:16 + blob_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    _require(isinstance(header, dict), "header is not a mapping")
    if header.get("version") != 1:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')!r}")
    # older checkpoints also carry node_dim; it is derived now, so it is ignored
    missing = {"config", "epoch", "adam", "var_adam", "arrays"} - header.keys()
    _require(not missing, f"header lacks {sorted(missing)}")
    config = _read_config(header["config"])
    _require(type(header["epoch"]) is int and header["epoch"] >= 0, "bad epoch")
    _require(isinstance(header["arrays"], list), "bad array table")
    offset = 16 + blob_len
    tables: dict[str, dict[str, np.ndarray]] = {k: {} for k in ("p", "m", "v", "vp", "vm", "vv")}
    for entry in header["arrays"]:
        _require(isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                 and isinstance(entry[1], list)
                 and all(type(n) is int and n >= 0 for n in entry[1]),
                 f"bad array entry {entry!r}")
        key, shape = entry
        prefix, _, name = key.partition("/")
        _require(prefix in tables and name not in tables[prefix], f"unexpected array {key!r}")
        count = math.prod(shape)
        _require(offset + count * 8 <= len(raw), f"truncated data for {key!r}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        _require(bool(np.all(np.isfinite(arr))), f"non-finite values in {key!r}")
        tables[prefix][name] = arr
        offset += count * 8
    _require(offset == len(raw), "trailing bytes")

    expected = init_model(config, input_width(config, tables["p"]))
    for prefix, got in tables.items():
        want = expected.var_params if prefix in ("vp", "vm", "vv") else expected.params
        _require(got.keys() == want.keys() and all(got[k].shape == want[k].shape for k in want),
                 f"{prefix}/ arrays do not match the parameters of the stored config")
    _require((header["var_adam"] is None) == (expected.var_opt is None), "bad var_adam header")
    opt = _read_adam(header["adam"], "adam", tables["m"], tables["v"])
    var_opt = (None if expected.var_opt is None
               else _read_adam(header["var_adam"], "var_adam", tables["vm"], tables["vv"]))
    return ModelState(
        config=config, params=tables["p"], opt=opt,
        var_params=tables["vp"], var_opt=var_opt, epoch=header["epoch"],
    )
