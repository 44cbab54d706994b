"""Training loops for the grouped contrastive pipelines, plus checkpointing
and history logging."""
from __future__ import annotations

import json
import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import objectives as obj
from . import tensor as T
from .augment import AugmentationPolicy, sample_view
from .config import RunConfig
from .encoder import encode_nodes, init_gin_params, init_projection_head, readout_projection
from .graphs import Batch, Dataset, Graph, batch_graphs
from .optim import AdamState, adam_step, init_adam
from .representor import forward_groups, init_representor_params
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
    # encode_nodes output width; equals the input width when L = 0
    node_dim: int = 0


def _encoder_prefixes(config: RunConfig, view: str) -> tuple[str, str]:
    if view == "r" and not config.tie_views:
        return "gin_r", "rep_r"
    return "gin", "rep"


def init_model(config: RunConfig, feature_dim: int) -> ModelState:
    rng = stream_rng(config.seed, "init")
    node_dim = config.gin_hidden if config.gin_layers > 0 else feature_dim
    params: dict[str, np.ndarray] = {}
    params.update(init_gin_params(
        rng, feature_dim, config.gin_hidden, config.gin_layers,
        learnable_eps=config.learnable_eps, prefix="gin"))
    if config.pipeline == "graphcl-baseline":
        params.update(init_projection_head(rng, node_dim, config.embed_dim, prefix="head"))
        if not config.tie_views:
            params.update(init_gin_params(
                rng, feature_dim, config.gin_hidden, config.gin_layers,
                learnable_eps=config.learnable_eps, prefix="gin_r"))
    else:
        params.update(init_representor_params(
            rng, node_dim, config.key_dim, config.group_dim, config.num_groups,
            prefix="rep"))
        if config.pipeline == "groupcl" and not config.tie_views:
            params.update(init_gin_params(
                rng, feature_dim, config.gin_hidden, config.gin_layers,
                learnable_eps=config.learnable_eps, prefix="gin_r"))
            params.update(init_representor_params(
                rng, node_dim, config.key_dim, config.group_dim, config.num_groups,
                prefix="rep_r"))
        if config.pipeline == "groupig":
            # linear map from node embeddings to the group width before
            # node-level discrimination
            from .encoder import glorot_uniform
            params["nodemap.w"] = glorot_uniform(rng, node_dim, config.group_dim)
    var_params: dict[str, np.ndarray] = {}
    var_opt = None
    if config.estimator == "param" and config.pipeline != "graphcl-baseline":
        var_params = obj.init_varnet_params(rng, config.group_dim, prefix="var")
        var_opt = init_adam(var_params, config.learning_rate)
    return ModelState(
        config=config,
        params=params,
        opt=init_adam(params, config.learning_rate),
        var_params=var_params,
        var_opt=var_opt,
        epoch=0,
        node_dim=node_dim,
    )


def _forward_view(
    state: ModelState,
    leaves: dict[str, Tensor],
    batch: Batch,
    view: str,
) -> tuple[list[Tensor], Tensor]:
    gin_prefix, rep_prefix = _encoder_prefixes(state.config, view)
    nodes = encode_nodes(batch, leaves, state.config.gin_layers, prefix=gin_prefix)
    return forward_groups(
        batch, nodes, leaves, scale_scores=state.config.scale_scores, prefix=rep_prefix)


def _inter_term(state: ModelState, u_groups: list[Tensor]) -> Tensor:
    cfg = state.config
    if cfg.diversity_weight == 0 or cfg.num_groups < 2:
        return Tensor(0.0)
    if cfg.estimator == "param":
        return obj.club_param_penalty(u_groups, state.var_params)
    return obj.interspace_penalty_nonparam(u_groups)


def _apply_gradients(state: ModelState, tape: Tape, leaves: dict[str, Tensor], loss: Tensor):
    grads_by_id = backward(tape, loss)
    grads = {name: grads_by_id[leaf.node_id] for name, leaf in leaves.items()}
    state.params, state.opt = adam_step(state.params, grads, state.opt)


def _varnet_update(state: ModelState, u_groups: list[Tensor]):
    """One adversarial step on the variational nets, encoder held constant."""
    tape = Tape()
    leaves = {name: tape.leaf(v) for name, v in state.var_params.items()}
    loss = obj.varnet_likelihood_loss(u_groups, leaves)
    grads_by_id = backward(tape, loss)
    grads = {name: grads_by_id[leaf.node_id] for name, leaf in leaves.items()}
    state.var_params, state.var_opt = adam_step(state.var_params, grads, state.var_opt)


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


def _step_groupcl(state: ModelState, graphs: list[Graph], epoch: int, step: int) -> obj.LossBreakdown:
    cfg = state.config
    batch_u, batch_r = _sample_views(cfg, graphs, epoch, step)
    tape = Tape()
    leaves = {name: tape.leaf(v) for name, v in state.params.items()}
    u_groups, _ = _forward_view(state, leaves, batch_u, "u")
    r_groups, _ = _forward_view(state, leaves, batch_r, "r")
    pos, neg = obj.js_terms(u_groups, r_groups)
    inter = _inter_term(state, u_groups)
    loss, breakdown = obj.combine_terms(pos, neg, inter, cfg.diversity_weight)
    _apply_gradients(state, tape, leaves, loss)
    if cfg.estimator == "param" and cfg.num_groups >= 2 and cfg.diversity_weight > 0:
        _varnet_update(state, u_groups)
    return breakdown


def node_view_representations(state: ModelState, batch: Batch) -> list[np.ndarray]:
    """The duplicated node-level view: p value-independent copies of the
    normalized, width-mapped node embeddings."""
    from .representor import duplicate_rep
    leaves = {name: Tensor(v) for name, v in state.params.items()}
    nodes = encode_nodes(batch, leaves, state.config.gin_layers, prefix="gin")
    mapped = T.row_l2_normalize(T.matmul(nodes, leaves["nodemap.w"]))
    return duplicate_rep(mapped.values, state.config.num_groups)


def _step_groupig(state: ModelState, graphs: list[Graph], epoch: int, step: int) -> obj.LossBreakdown:
    cfg = state.config
    batch = batch_graphs(graphs)
    tape = Tape()
    leaves = {name: tape.leaf(v) for name, v in state.params.items()}
    nodes = encode_nodes(batch, leaves, cfg.gin_layers, prefix="gin")
    u_groups, _ = forward_groups(
        batch, nodes, leaves, scale_scores=cfg.scale_scores, prefix="rep")
    r_nodes = T.row_l2_normalize(T.matmul(nodes, leaves["nodemap.w"]))
    pos, neg = obj.js_terms_nodewise(u_groups, r_nodes, batch.segments)
    inter = _inter_term(state, u_groups)
    loss, breakdown = obj.combine_terms(pos, neg, inter, cfg.diversity_weight)
    _apply_gradients(state, tape, leaves, loss)
    if cfg.estimator == "param" and cfg.num_groups >= 2 and cfg.diversity_weight > 0:
        _varnet_update(state, u_groups)
    return breakdown


def _step_baseline(state: ModelState, graphs: list[Graph], epoch: int, step: int) -> obj.LossBreakdown:
    cfg = state.config
    batch_u, batch_r = _sample_views(cfg, graphs, epoch, step)
    tape = Tape()
    leaves = {name: tape.leaf(v) for name, v in state.params.items()}

    def embed(batch: Batch, view: str) -> Tensor:
        gin_prefix, _ = _encoder_prefixes(cfg, view)
        nodes = encode_nodes(batch, leaves, cfg.gin_layers, prefix=gin_prefix)
        return T.row_l2_normalize(readout_projection(nodes, batch, leaves, prefix="head"))

    h_u = embed(batch_u, "u")
    h_r = embed(batch_r, "r")
    pos, neg = obj.js_terms([h_u], [h_r])
    loss, breakdown = obj.combine_terms(pos, neg, Tensor(0.0), 0.0)
    _apply_gradients(state, tape, leaves, loss)
    return breakdown


_STEP_FNS = {
    "groupcl": _step_groupcl,
    "groupig": _step_groupig,
    "graphcl-baseline": _step_baseline,
}


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
    import dataclasses as dc
    table = _array_table(state)
    header = {
        "version": 1,
        "config": dc.asdict(state.config),
        "epoch": state.epoch,
        "node_dim": state.node_dim,
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


def checkpoint_load(path) -> ModelState:
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < len(_MAGIC) + 8 or raw[:len(_MAGIC)] != _MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    (blob_len,) = struct.unpack("<Q", raw[8:16])
    if len(raw) < 16 + blob_len:
        raise CheckpointError("corrupt checkpoint: truncated header")
    try:
        header = json.loads(raw[16:16 + blob_len].decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CheckpointError(f"corrupt checkpoint header: {exc}") from exc
    if header.get("version") != 1:
        raise CheckpointError(f"unsupported checkpoint version {header.get('version')!r}")
    config = RunConfig(**header["config"])
    offset = 16 + blob_len
    arrays: dict[str, np.ndarray] = {}
    for key, shape in header["arrays"]:
        count = int(np.prod(shape)) if shape else 1
        nbytes = count * 8
        if offset + nbytes > len(raw):
            raise CheckpointError(f"corrupt checkpoint: truncated data for {key!r}")
        arrays[key] = np.frombuffer(
            raw, dtype="<f8", count=count, offset=offset).reshape(shape).copy()
        offset += nbytes
    if offset != len(raw):
        raise CheckpointError("corrupt checkpoint: trailing bytes")

    params = {k[2:]: v for k, v in arrays.items() if k.startswith("p/")}
    opt = AdamState(
        lr=header["adam"]["lr"], step=header["adam"]["step"],
        m={k[2:]: v for k, v in arrays.items() if k.startswith("m/")},
        v={k[2:]: v for k, v in arrays.items() if k.startswith("v/")},
    )
    var_params = {k[3:]: v for k, v in arrays.items() if k.startswith("vp/")}
    var_opt = None
    if header["var_adam"] is not None:
        var_opt = AdamState(
            lr=header["var_adam"]["lr"], step=header["var_adam"]["step"],
            m={k[3:]: v for k, v in arrays.items() if k.startswith("vm/")},
            v={k[3:]: v for k, v in arrays.items() if k.startswith("vv/")},
        )
    return ModelState(
        config=config, params=params, opt=opt,
        var_params=var_params, var_opt=var_opt, epoch=header["epoch"],
        node_dim=header["node_dim"],
    )
