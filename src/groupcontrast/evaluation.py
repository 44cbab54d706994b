"""Post-training evaluation: embedding extraction, linear probe, query
correlation matrix, attention export, and head parameter counting."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import encode_nodes
from .graphs import Dataset, Graph, batch_graphs
from .optim import adam_step, init_adam
from .representor import forward_groups
from .seeding import stream_rng
from .tensor import ContractError, NumericError, Tensor
from .trainer import ModelState, embed_view, input_width


@dataclass(frozen=True, eq=False)
class EmbeddingTable:
    ids: tuple[int, ...]
    embeddings: np.ndarray        # (num_graphs, embed_dim)
    labels: tuple[int | None, ...]

    def __len__(self):
        return len(self.ids)


@dataclass(frozen=True, eq=False)
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
# train / validation / test shares of the labeled graphs
_PROBE_FRACTIONS = (0.8, 0.1, 0.1)


def _fit_logistic(x: np.ndarray, y: np.ndarray, num_classes: int,
                  reg_grid: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Fit one probe per value of ``reg_grid`` at once: full-batch Adam from a
    zero init on the mean softmax cross-entropy plus ``reg / n * |w|^2``.
    Returns the (R, d, C) weight and (R, C) bias blocks. The gradient is the
    closed form of that loss's reverse pass, in the same op order, so each
    slice is bit-identical to a fit of its value alone."""
    n, d = x.shape
    inv_n = 1.0 / n
    c = np.array([float(reg / n) for reg in reg_grid])[:, None, None]
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), y] = 1.0
    d_picked = -inv_n * onehot
    params = {"w": np.zeros((len(c), d, num_classes)), "b": np.zeros((len(c), num_classes))}
    opt = init_adam(params, _PROBE_LR)
    for _ in range(_PROBE_ITERS):
        w = params["w"]
        logits = x @ w + params["b"][:, None, :]
        # stable cross-entropy: shift by the (constant) row max, taken one
        # class column at a time (exact, and cheaper than a reduction over a
        # few classes)
        top = logits[..., 0]
        for k in range(1, num_classes):
            top = np.maximum(top, logits[..., k])
        e = np.exp(logits + -top[..., None])
        # d loss / d logits with each product formed as the tape's vjps form
        # it (-1/n at the picked logit, then (1/n)/s times exp): same bits
        dz = d_picked + (inv_n / e.sum(axis=2))[..., None] * e
        params, opt = adam_step(params, {"w": 2.0 * w * c + x.T @ dz, "b": dz.sum(axis=1)}, opt)
    return params["w"], params["b"]


def _predict(w: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (x @ w + b).argmax(axis=-1)


def linear_probe(
    table: EmbeddingTable,
    split_seed: int = 0,
    reg_grid: tuple[float, ...] = _DEFAULT_REG_GRID,
) -> ProbeResult:
    """Train a multinomial logistic probe on frozen embeddings, sweeping the
    L2 penalty on validation accuracy (the first of equal accuracies wins);
    reports the test accuracy of the best-validation model."""
    x, labels = table.embeddings, table.labels
    if x.ndim != 2 or x.shape[0] != len(labels) or not labels:
        raise ContractError(
            f"embeddings: need one row per label of a non-empty table, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericError("embeddings: non-finite values")
    if any(lbl is None for lbl in labels):
        raise ContractError("labels: linear probe requires labeled graphs")
    y = np.array(labels, dtype=int)
    if y.min() < 0:
        raise ContractError(f"labels: negative label {y.min()}")
    regs = np.array(reg_grid, dtype=np.float64)
    if regs.size == 0 or not np.all(np.isfinite(regs)) or np.any(regs < 0):
        raise ContractError(f"reg_grid: need finite values >= 0, got {tuple(reg_grid)}")
    num_classes = int(y.max()) + 1
    n = len(y)
    n_train = int(n * _PROBE_FRACTIONS[0])
    n_val = int(n * _PROBE_FRACTIONS[1])
    try:
        rng = stream_rng(split_seed, "probe")
    except TypeError as exc:
        raise ContractError(f"split_seed: {exc}") from exc
    tr, va, te = np.split(rng.permutation(n), [n_train, n_train + n_val])
    if min(len(tr), len(va), len(te)) == 0:
        raise ContractError("every probe split must be non-empty")
    if len(set(y[tr].tolist())) < 2:
        raise ContractError("probe train split holds a single class")

    w, b = _fit_logistic(x[tr], y[tr], num_classes, reg_grid)
    val_accs = (_predict(w, b[:, None, :], x[va]) == y[va]).mean(axis=1)
    best = int(np.argmax(val_accs))
    w, b = w[best], b[best]
    pred_te = _predict(w, b, x[te])
    confusion = np.zeros((num_classes, num_classes), dtype=int)
    np.add.at(confusion, (y[te], pred_te), 1)
    totals = confusion.sum(axis=1)
    return ProbeResult(
        train_accuracy=float((_predict(w, b, x[tr]) == y[tr]).mean()),
        validation_accuracy=float(val_accs[best]),
        test_accuracy=float((pred_te == y[te]).mean()),
        per_class_accuracy=tuple(
            float(confusion[c, c] / t) if t else 0.0 for c, t in enumerate(totals)),
        confusion=confusion,
        selected_regularization=reg_grid[best],
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
    for name, size in (("p", p), ("d_n", d_n), ("d_k", d_k), ("d_o", d_o)):
        if size <= 0:
            raise ContractError(f"{name} must be positive, got {size}")
    if d_o % p != 0:
        raise ContractError(f"embed dim {d_o} not divisible by group count {p}")
    return {
        "groupcl_head": p * d_k + d_n * d_k + d_n * (d_o // p),
        "graphcl_head": 2 * d_o * d_o,
    }
