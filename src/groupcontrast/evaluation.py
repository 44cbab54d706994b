"""Post-training evaluation: embedding extraction, linear probe, query
correlation matrix, attention export, and head parameter counting."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .encoder import encode_nodes
from .graphs import Dataset, Graph, batch_graphs
from .optim import adam_step, init_adam
from .representor import forward_groups
from .seeding import stream_rng
from .tensor import ContractError, Tensor
from .trainer import ModelState, embed_view, input_width


@dataclass(frozen=True)
class EmbeddingTable:
    ids: tuple[int, ...]
    embeddings: np.ndarray        # (num_graphs, embed_dim)
    labels: tuple[int | None, ...]

    def __len__(self):
        return len(self.ids)


@dataclass(frozen=True)
class ProbeResult:
    train_accuracy: float
    validation_accuracy: float
    test_accuracy: float
    per_class_accuracy: tuple[float, ...]
    confusion: np.ndarray         # (num_classes, num_classes), rows = true
    selected_regularization: float


def extract_embeddings(state: ModelState, dataset: Dataset) -> EmbeddingTable:
    """Deterministic forward pass without augmentation; per graph the view's
    group vectors (the baseline's one projection) are concatenated in group
    order."""
    expected = input_width(state.config, state.params)
    if dataset.feature_dim != expected:
        raise ContractError(
            f"dataset feature dim {dataset.feature_dim} does not match model input width {expected}")
    leaves = {name: Tensor(v) for name, v in state.params.items()}
    groups, _ = embed_view(state.config, leaves, batch_graphs(list(dataset.graphs)))
    embeddings = np.concatenate([g.values for g in groups], axis=1)
    return EmbeddingTable(
        ids=tuple(range(len(dataset))),
        embeddings=embeddings,
        labels=tuple(g.label for g in dataset.graphs),
    )


# ---------------------------------------------------------------------------
# linear probe: multinomial logistic regression on frozen embeddings

_DEFAULT_REG_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)
_PROBE_ITERS = 300
_PROBE_LR = 0.1


def _fit_logistic(x: np.ndarray, y: np.ndarray, num_classes: int, reg: float) -> np.ndarray:
    """Full-batch gradient training from a zero init; deterministic."""
    n, d = x.shape
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    params = {"w": np.zeros((d, num_classes)), "b": np.zeros(num_classes)}
    opt = init_adam(params, _PROBE_LR)
    xc = Tensor(x)
    for _ in range(_PROBE_ITERS):
        tape = T.Tape()
        w = tape.leaf(params["w"])
        bias = tape.leaf(params["b"])
        logits = T.add(T.matmul(xc, w), bias)
        # stable cross-entropy: shift by the (constant) row max
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


def _predict(wb: np.ndarray, x: np.ndarray) -> np.ndarray:
    logits = x @ wb[:-1] + wb[-1]
    return logits.argmax(axis=1)


def linear_probe(
    table: EmbeddingTable,
    split_seed: int = 0,
    fractions: tuple[float, float, float] = (0.8, 0.1, 0.1),
    reg_grid: tuple[float, ...] = _DEFAULT_REG_GRID,
) -> ProbeResult:
    """Train a multinomial logistic probe on frozen embeddings, sweeping the
    L2 penalty on validation accuracy; reports the test accuracy of the
    best-validation model."""
    labels = np.array([lbl for lbl in table.labels])
    if any(lbl is None for lbl in table.labels):
        raise ContractError("linear probe requires labeled graphs")
    labels = labels.astype(int)
    num_classes = int(labels.max()) + 1
    n = len(table)
    order = stream_rng(split_seed, "probe").permutation(n)
    n_train = int(n * fractions[0])
    n_val = int(n * fractions[1])
    tr = order[:n_train]
    va = order[n_train:n_train + n_val]
    te = order[n_train + n_val:]
    if min(len(tr), len(va), len(te)) == 0:
        raise ContractError("every probe split must be non-empty")
    x, y = table.embeddings, labels
    if len(set(y[tr].tolist())) < 2:
        raise ContractError("probe train split holds a single class")

    best = None
    for reg in reg_grid:
        wb = _fit_logistic(x[tr], y[tr], num_classes, reg)
        val_acc = float((_predict(wb, x[va]) == y[va]).mean())
        if best is None or val_acc > best[0]:
            best = (val_acc, reg, wb)
    val_acc, reg, wb = best
    train_acc = float((_predict(wb, x[tr]) == y[tr]).mean())
    pred_te = _predict(wb, x[te])
    test_acc = float((pred_te == y[te]).mean())
    confusion = np.zeros((num_classes, num_classes), dtype=int)
    for true, pred in zip(y[te], pred_te):
        confusion[true, pred] += 1
    per_class = tuple(
        float(confusion[c, c] / confusion[c].sum()) if confusion[c].sum() else 0.0
        for c in range(num_classes)
    )
    return ProbeResult(
        train_accuracy=train_acc,
        validation_accuracy=val_acc,
        test_accuracy=test_acc,
        per_class_accuracy=per_class,
        confusion=confusion,
        selected_regularization=reg,
    )


# ---------------------------------------------------------------------------
# diagnostics


def query_cosine_matrix(state: ModelState) -> np.ndarray:
    """Pairwise cosine similarity of the learned query columns; the diagonal
    is exactly 1."""
    if "rep.q" not in state.params:
        raise ContractError("model has no representor queries")
    q = state.params["rep.q"]
    norms = np.linalg.norm(q, axis=0)
    if np.any(norms < 1e-12):
        raise ContractError("zero-norm query column")
    qn = q / norms
    m = qn.T @ qn
    np.fill_diagonal(m, 1.0)
    return m


def mean_offdiag_abs_cosine(state: ModelState) -> float:
    m = query_cosine_matrix(state)
    p = m.shape[0]
    if p < 2:
        return 0.0
    off = np.abs(m[~np.eye(p, dtype=bool)])
    return float(off.mean())


@dataclass(frozen=True)
class AttentionRecord:
    node: int
    group: int
    weight: float


def export_attention(state: ModelState, graph: Graph) -> tuple[list[AttentionRecord], list[int]]:
    """Per-node, per-group attention weights and the argmax node per group."""
    if "rep.wk" not in state.params:
        raise ContractError("model has no representor")
    leaves = {name: Tensor(v) for name, v in state.params.items()}
    batch = batch_graphs([graph])
    nodes = encode_nodes(batch, leaves, state.config.gin_layers, prefix="gin")
    _, att = forward_groups(
        batch, nodes, leaves, scale_scores=state.config.scale_scores, prefix="rep")
    weights = att.values  # (N, p)
    records = [
        AttentionRecord(node=v, group=k, weight=float(weights[v, k]))
        for v in range(weights.shape[0])
        for k in range(weights.shape[1])
    ]
    top_nodes = [int(weights[:, k].argmax()) for k in range(weights.shape[1])]
    return records, top_nodes


def count_head_params(p: int, d_n: int, d_k: int, d_o: int) -> dict[str, int]:
    """Trainable parameter counts of the two post-encoder heads (no biases):
    queries + key/value projections vs two dense layers of width d_o."""
    if d_o % p != 0:
        raise ContractError(f"embed dim {d_o} not divisible by group count {p}")
    return {
        "groupcl_head": p * d_k + d_n * d_k + d_n * (d_o // p),
        "graphcl_head": 2 * d_o * d_o,
    }
