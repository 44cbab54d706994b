"""Training loops for the grouped contrastive pipelines, plus checkpointing
and history logging."""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import math
import struct
import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import objectives as obj
from . import tensor as T
from .augment import AugmentationPolicy, sample_view
from .config import PIPELINES, RunConfig
from .encoder import (Layout, draw_params, encode_nodes, gin_layout, head_layout,
                      readout_projection)
from .graphs import Batch, Dataset, Graph, batch_graphs
from .optim import AdamState, adam_step, init_adam
from .representor import duplicate_rep, forward_groups, representor_layout
from .seeding import stream_rng
from .tensor import NumericError, Tape, Tensor, backward


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
    epoch: int = 0


def _view_r_name(name: str) -> str:
    """The name of view r's own copy of a parameter when the views are
    untied: "gin.0.w1" -> "gin_r.0.w1"."""
    module, _, rest = name.partition(".")
    return f"{module}_r.{rest}"


def param_layout(config: RunConfig, feature_dim: int) -> Layout:
    """The layout of every trainable parameter in init_model's draw order,
    the variational nets (estimator=param) last. No array is built."""
    # encode_nodes output width; equals the input width when L = 0
    node_dim = config.gin_hidden if config.gin_layers > 0 else feature_dim
    baseline = config.pipeline == "graphcl-baseline"
    encoder = gin_layout(feature_dim, config.gin_hidden, config.gin_layers, config.learnable_eps)
    head = (head_layout(node_dim, config.embed_dim) if baseline else
            representor_layout(node_dim, config.key_dim, config.group_dim, config.num_groups))
    layout = encoder + head
    if not config.tie_views and config.pipeline != "groupig":
        # view r's own encoder and representor; the baseline's head is shared
        second = encoder if baseline else encoder + head
        layout += [(_view_r_name(name), shape, init) for name, shape, init in second]
    if config.pipeline == "groupig":
        # linear map from node embeddings to the group width before
        # node-level discrimination
        layout.append(("nodemap.w", (node_dim, config.group_dim), "glorot"))
    if config.estimator == "param" and not baseline:
        layout += obj.varnet_layout(config.group_dim)
    return layout


def init_model(config: RunConfig, feature_dim: int) -> ModelState:
    rng = stream_rng(config.seed, "init")
    params = draw_params(rng, param_layout(config, feature_dim))
    return ModelState(config=config, params=params, opt=init_adam(params, config.learning_rate))


def embed_view(
    config: RunConfig,
    params: Mapping[str, Tensor],
    batch: Batch,
    view: str = "u",
) -> tuple[list[Tensor], Tensor]:
    """A view's graph-level tensors and the node embeddings they pool. The
    graph-level tensors are the p group embeddings, or the baseline's one
    normalized projection. When the views are untied, view "r" reads each
    parameter's own copy where one exists. ``params`` may hold tape leaves
    or plain arrays, which the tape ops take as constants."""
    if view == "r" and not config.tie_views:
        params = {name: params.get(_view_r_name(name), v) for name, v in params.items()}
    nodes = encode_nodes(batch, params, config.gin_layers)
    if config.pipeline == "graphcl-baseline":
        return [T.row_l2_normalize(readout_projection(nodes, batch, params))], nodes
    groups, _ = forward_groups(batch, nodes, params, scale_scores=config.scale_scores)
    return groups, nodes


def _node_view(params: Mapping[str, Tensor], nodes: Tensor) -> Tensor:
    """GroupIG's second view: the node embeddings mapped to the group width
    and normalized."""
    return T.row_l2_normalize(T.matmul(nodes, params["nodemap.w"]))


def node_view_representations(state: ModelState, batch: Batch) -> list[np.ndarray]:
    """The duplicated node-level view: p value-independent copies of the
    normalized, width-mapped node embeddings."""
    nodes = encode_nodes(batch, state.params, state.config.gin_layers)
    return duplicate_rep(_node_view(state.params, nodes).values, state.config.num_groups)


def _step(state: ModelState, graphs: list[Graph], epoch: int, step: int) -> obj.LossBreakdown:
    """One training step of any pipeline. GroupIG contrasts the groups of the
    batch with its node view; GroupCL and the baseline contrast two augmented
    views. ``obj.total_loss`` picks the inter-space term; when it trains the
    variational nets, their loss shares the step's tape and its one backward
    pass, and they update with the model in its one Adam step."""
    cfg = state.config
    tape = Tape()
    leaves = {name: tape.leaf(v) for name, v in state.params.items()}
    batch = batch_graphs(graphs)
    if cfg.pipeline == "groupig":
        u, nodes = embed_view(cfg, leaves, batch)
        pos, neg = obj.js_terms_nodewise(u, _node_view(leaves, nodes), batch.segments)
    else:
        # both views come from the step's own stream, u's drawn before r's.
        # The step keeps neither the batch nor a view: the tape alone holds
        # what backward needs, so the walk frees view r's arrays before u's
        policy = AugmentationPolicy(kinds=cfg.aug_kind_list, ratio=cfg.aug_ratio)
        rng = stream_rng(cfg.seed, "augment", epoch, step)
        views = [sample_view(batch, policy, rng) for _ in range(2)]
        del batch
        u, r = (embed_view(cfg, leaves, views.pop(0), name)[0] for name in ("u", "r"))
        pos, neg = obj.js_terms(u, r)
    loss, breakdown, var_loss = obj.total_loss(pos, neg, u, cfg.diversity_weight,
                                               obj.varnet_params(leaves))
    grads = backward(tape, loss if var_loss is None else T.add(loss, var_loss))
    # nets without a loss get zero gradients: Adam leaves them as they are
    state.params, state.opt = adam_step(
        state.params, {name: grads[leaf.node_id] for name, leaf in leaves.items()}, state.opt)
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
    (seed, config, dataset). A resumed ``state`` must carry ``config`` up to
    ``epochs``, because its steps read the state's config."""
    T._keep_heap()
    if len(dataset) == 0:
        raise TrainingError("dataset is empty")
    if state is None:
        state = init_model(config, dataset.feature_dim)
    for f in dataclasses.fields(config):
        had, has = getattr(state.config, f.name), getattr(config, f.name)
        if f.name != "epochs" and had != has:
            raise TrainingError(f"cannot resume with {f.name}={has!r}: the state was trained "
                                f"with {f.name}={had!r}, and a resumed run may change epochs only")
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
            # every float result of a step is checked (the tape's primitives,
            # then adam_step), so numpy's own warnings would only repeat them
            try:
                with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                    breakdown = step_fn(state, graphs, epoch, step)
            except NumericError as exc:
                raise type(exc)(f"epoch {epoch} step {step}: {exc}") from exc
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
# checkpoint: magic, header length, JSON header with a shape table, raw
# little-endian float64. A version-2 header opens with the sha256 of the whole
# file, read with those 64 hex digits as zeros; version 1 carries none.

_MAGIC = b"GCCHKPT1"
_DIGEST_KEY = b'{"sha256":"'
_DIGEST = slice(16 + len(_DIGEST_KEY), 16 + len(_DIGEST_KEY) + 64)


def _digest(raw: bytes) -> bytes:
    h = hashlib.sha256(raw[:_DIGEST.start])
    h.update(b"0" * 64)
    h.update(memoryview(raw)[_DIGEST.stop:])
    return h.hexdigest().encode("ascii")


def _listing(names: Mapping[str, object]) -> list[tuple[str, str, str]]:
    """Each array's header key, kind and parameter name, in file order: a parameter
    under "p/", then its Adam moments under "m/" and "v/"; the nets last, keys led by "v"."""
    nets = obj.varnet_params(names)
    return [(f"{'v' * (name in nets)}{kind}/{name}", kind, name)
            for name in sorted(names, key=lambda name: (name in nets, name)) for kind in "pmv"]


def _array_table(state: ModelState) -> list[tuple[str, np.ndarray]]:
    """The state's arrays under their listing keys, in file order."""
    arrays = {"p": state.params, "m": state.opt.m, "v": state.opt.v}
    return [(key, arrays[kind][name]) for key, kind, name in _listing(state.params)]


def checkpoint_save(path, state: ModelState) -> None:
    table = _array_table(state)
    adam = {"step": state.opt.step, "lr": state.opt.lr}
    header = {
        "sha256": "0" * 64,
        "version": 2,
        "config": dataclasses.asdict(state.config),
        "epoch": state.epoch,
        "adam": adam,
        "var_adam": adam if obj.varnet_params(state.params) else None,
        "arrays": [[key, list(arr.shape)] for key, arr in table],
    }
    blob = json.dumps(header, separators=(",", ":")).encode("utf-8")
    raw = b"".join([_MAGIC, struct.pack("<Q", len(blob)), blob]
                   + [np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in table])
    with open(path, "wb") as f:
        f.write(raw[:_DIGEST.start] + _digest(raw) + raw[_DIGEST.stop:])


def input_width(config: RunConfig, shapes: Mapping[str, Sequence[int]]) -> int:
    """The feature width the model was initialized for, read off the shapes
    of its first weights. The head's lift exists only when that width
    differs from embed_dim."""
    for name in ("gin.0.w1", "rep.wk", "head.lift"):
        if name in shapes and len(shapes[name]) == 2:
            return shapes[name][0]
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


def _read_adam(entry, what: str, opt: AdamState) -> AdamState:
    """The Adam state at the header's step; its lr, the stored config's
    learning_rate, must be the header's."""
    _require(isinstance(entry, dict) and type(entry.get("step")) is int and entry["step"] >= 0,
             f"bad {what} header")
    lr = entry.get("lr")
    _require(type(lr) is type(opt.lr) and lr == opt.lr,
             f"{what} lr {lr!r} is not the config's learning_rate {opt.lr!r}")
    return dataclasses.replace(opt, step=entry["step"])


def checkpoint_load(path) -> ModelState:
    """Read a checkpoint into the state init_model builds for its config,
    after checking its digest (version 2; version 1 has none), its header,
    and that it lists exactly that state's arrays, in the order
    checkpoint_save writes them."""
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
    if header.get("version") == 2:
        _require(raw[16:_DIGEST.start] == _DIGEST_KEY and raw[_DIGEST] == _digest(raw),
                 "sha256 mismatch")
    elif header.get("version") != 1:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')!r}")
    # older checkpoints also carry node_dim; it is derived now, so it is ignored
    missing = {"config", "epoch", "adam", "var_adam", "arrays"} - header.keys()
    _require(not missing, f"header lacks {sorted(missing)}")
    config = _read_config(header["config"])
    _require(type(header["epoch"]) is int and header["epoch"] >= 0, "bad epoch")
    offset, total = 16 + blob_len, 0
    listing = header["arrays"]
    _require(isinstance(listing, list), "bad array table")
    for entry in listing:
        _require(isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)
                 and isinstance(entry[1], list)
                 and all(type(n) is int and n >= 0 for n in entry[1]),
                 f"bad array entry {entry!r}")
        total += 8 * math.prod(entry[1])
        _require(offset + total <= len(raw), f"truncated data for {entry[0]!r}")
    _require(offset + total == len(raw), "trailing bytes")
    # a valid file holds the input weight's `width` rows, so it bounds the width
    width = input_width(config, {key[2:]: shape for key, shape in listing if key[:2] == "p/"})
    _require(8 * width <= total, f"input width {width} exceeds the file's data")
    # the listing is checked against the stored config's layout before any
    # array exists, so it also bounds the config's own sizes by the file's
    shapes = {name: list(shape) for name, shape, _ in param_layout(config, width)}
    expected = [[key, shapes[name]] for key, _, name in _listing(shapes)]
    for got, want in itertools.zip_longest(listing, expected):
        _require(got == want, f"array {got!r} where the stored config has {want!r}")
    try:
        state = init_model(config, width)
    except MemoryError as exc:
        raise CheckpointError(f"cannot allocate the model of the stored config {config}") from exc
    for key, arr in _array_table(state):
        arr[...] = np.frombuffer(raw, dtype="<f8", count=arr.size, offset=offset).reshape(arr.shape)
        _require(bool(np.all(np.isfinite(arr))), f"non-finite values in {key!r}")
        offset += 8 * arr.size
    nets = bool(obj.varnet_params(state.params))
    _require((header["var_adam"] is None) != nets, "bad var_adam header")
    state.opt = _read_adam(header["adam"], "adam", state.opt)
    if nets:
        # var_adam once held the nets' own step: the model's, or 0 if they never trained
        step = _read_adam(header["var_adam"], "var_adam", state.opt).step
        _require(step == state.opt.step or step == 0 and not obj.has_interspace_term(
            config.num_groups, config.diversity_weight), f"var_adam step {step} is not adam's")
    state.epoch = header["epoch"]
    return state
