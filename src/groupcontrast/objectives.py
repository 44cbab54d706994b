"""Loss terms: Jensen-Shannon intra-space MI estimator with dot-product
scores, non-parameterized and parameterized inter-space CLUB penalties,
and the combined objectives.

All losses are means over batch/groups/pairs so the diversity weight and the
learning rate stay independent of batch size and group count.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import tensor as T
from .encoder import glorot_uniform
from .tensor import ContractError, Tensor


@dataclass(frozen=True)
class LossBreakdown:
    intra_positive: float
    intra_negative: float
    inter_penalty: float
    weight: float
    total: float

    def __post_init__(self):
        expected = self.intra_positive + self.intra_negative + self.weight * self.inter_penalty
        if abs(self.total - expected) > 1e-12:
            raise ContractError("loss breakdown does not sum to total")


def _const(x) -> Tensor:
    """Detach: value-only copy with no tape attachment."""
    return Tensor(x.values if isinstance(x, Tensor) else x)


def _stack(groups: Sequence[Tensor]) -> Tensor:
    """The p (B, d) group tensors as one (B, p, d) tensor."""
    shape = groups[0].shape
    if any(g.shape != shape for g in groups):
        raise ContractError(f"group tensors carry different shapes {[g.shape for g in groups]}")
    b, d = shape
    return T.reshape(T.concat(list(groups), axis=1), (b, len(groups), d))


def _js_halves(all_sum: Tensor, own: Tensor, negatives: int) -> tuple[Tensor, Tensor]:
    """Positive and negative halves of the JS MI loss, each as a scalar mean.

    ``all_sum`` is the softplus sum over every group-partner score and
    ``own`` the positive pairs' scores; each positive has ``negatives``
    negatives. The positive half is the mean of SP(-own). The negative half
    is ``all_sum`` minus the softplus sum over the positives, so no pair mask
    is needed.
    """
    count = own.values.size
    pos_sum = T.tsum(T.softplus(T.neg(own)))
    neg_sum = T.sub(all_sum, T.tsum(T.softplus(own)))
    return T.smul(pos_sum, 1.0 / count), T.smul(neg_sum, 1.0 / (count * negatives))


def js_terms(u_groups: Sequence[Tensor], r_groups: Sequence[Tensor]) -> tuple[Tensor, Tensor]:
    """JS terms across two views: positives pair graph i's group k in view u
    with the same graph's group k in view r, negatives with every other
    graph's group k in view r.

    Entry [k, i, j] of the (p, B, B) score block scores graph i's group k in
    view u against graph j's group k in view r; the positives, its
    diagonals, are taken as the (B, p) row dot products.
    """
    u, r = _stack(u_groups), _stack(r_groups)
    if u.shape != r.shape:
        raise ContractError(f"views carry different group shapes {u.shape} vs {r.shape}")
    b = u.shape[0]
    if b < 2:
        raise ContractError("JS loss needs a batch of at least 2 graphs for negatives")
    scores = T.matmul(T.transpose(u, (1, 0, 2)), T.transpose(r, (1, 2, 0)))
    return _js_halves(T.tsum(T.softplus(scores)), T.tsum(T.mul(u, r), axis=2), b - 1)


def js_mi_loss(u_groups: Sequence[Tensor], r_groups: Sequence[Tensor]) -> Tensor:
    """Loss whose minimization maximizes the JS estimator of intra-space MI."""
    pos, neg = js_terms(u_groups, r_groups)
    return T.add(pos, neg)


def js_terms_nodewise(
    u_groups: Sequence[Tensor],
    r_nodes: Tensor,
    owner: np.ndarray,
) -> tuple[Tensor, Tensor]:
    """JS terms with node-level partners: positives pair a graph's group
    embedding with its own nodes, negatives with all other graphs' nodes.
    ``owner`` holds the graph of each node.
    """
    b = u_groups[0].shape[0]
    n, d = r_nodes.shape
    if b < 2:
        raise ContractError("node-wise JS loss needs at least 2 graphs")
    p = len(u_groups)
    u = _stack(u_groups)
    scores = T.matmul(T.reshape(u, (b * p, d)), T.transpose(r_nodes))
    # summed before u_own exists, so the (B*p, N) softplus temporaries and
    # the (N, p, d) u_own block are never held at once
    all_sum = T.tsum(T.softplus(scores))
    u_own = T.reshape(T.take_rows(T.reshape(u, (b, p * d)), owner), (n, p, d))
    own = T.matmul(u_own, T.reshape(r_nodes, (n, d, 1)))   # (N, p, 1)
    return _js_halves(all_sum, own, b - 1)


def interspace_penalty_nonparam(u_groups: Sequence[Tensor]) -> Tensor:
    """Mean over graphs and unordered group pairs of SP(dot of the two
    group embeddings); the joint term of the simplified CLUB bound. The
    pairs are the strict upper triangle of each graph's (p, p) Gram matrix."""
    p = len(u_groups)
    if p < 2:
        warnings.warn("inter-space penalty needs at least 2 groups; returning 0")
        return Tensor(0.0)
    b = u_groups[0].shape[0]
    u = _stack(u_groups)
    gram = T.matmul(u, T.transpose(u, (0, 2, 1)))          # (B, p, p)
    total = T.tsum(T.mul(T.softplus(gram), Tensor(np.triu(np.ones((p, p)), 1))))
    return T.smul(total, 1.0 / (p * (p - 1) // 2 * b))


def init_varnet_params(rng: np.random.Generator, dim: int, prefix: str = "var") -> dict[str, np.ndarray]:
    """Two two-layer MLPs (dim -> dim) producing the conditional mean and the
    per-dimension log-variance."""
    params = {}
    for net in ("mu", "lv"):
        params[f"{prefix}.{net}.w1"] = glorot_uniform(rng, dim, dim)
        params[f"{prefix}.{net}.b1"] = np.zeros(dim)
        params[f"{prefix}.{net}.w2"] = glorot_uniform(rng, dim, dim)
        params[f"{prefix}.{net}.b2"] = np.zeros(dim)
    return params


def _varnet_forward(x: Tensor, params: Mapping, net: str, prefix: str = "var") -> Tensor:
    def pick(name):
        val = params[f"{prefix}.{net}.{name}"]
        return val if isinstance(val, Tensor) else Tensor(val)

    hidden = T.relu(T.add(T.matmul(x, pick("w1")), pick("b1")))
    return T.add(T.matmul(hidden, pick("w2")), pick("b2"))


def _club_expression(
    u_groups: Sequence[Tensor],
    var_params: Mapping,
    prefix: str = "var",
) -> Tensor:
    """Mean over graphs and ordered group pairs (k != l) of
    sum_i(-lv_i - (u^(l)_i - mu_i)^2 / exp(lv_i)), where mu and lv are the
    variational nets applied to u^(k).

    The nets run once on all B * p group rows. Entry [g, k, l] of the
    (B, p, p, d) residual block is u^(l) - mu(u^(k)) for graph g; the
    diagonal k == l is masked off.
    """
    p = len(u_groups)
    if p < 2:
        raise ContractError("parameterized CLUB needs at least 2 groups")
    b, d = u_groups[0].shape
    u = _stack(u_groups)
    rows = T.reshape(u, (b * p, d))
    mu = T.reshape(_varnet_forward(rows, var_params, "mu", prefix), (b, p, 1, d))
    lv = _varnet_forward(rows, var_params, "lv", prefix)
    inv_var = T.reshape(T.exp(T.neg(lv)), (b, p, 1, d))
    resid = T.square(T.sub(T.reshape(u, (b, 1, p, d)), mu))
    off_diag = Tensor((1.0 - np.eye(p))[:, :, None])
    quad = T.tsum(T.mul(T.mul(resid, inv_var), off_diag))
    # every row's -lv enters once per partner group l != k
    total = T.add(T.smul(T.tsum(lv), p - 1), quad)
    return T.smul(total, -1.0 / (p * (p - 1) * b))


def club_param_penalty(u_groups: Sequence[Tensor], var_params: Mapping) -> Tensor:
    """Parameterized CLUB penalty; gradients reach encoder parameters only
    (the variational nets are treated as constants here)."""
    detached = {k: _const(v) for k, v in var_params.items()}
    return _club_expression(u_groups, detached)


def varnet_likelihood_loss(u_groups: Sequence[Tensor], var_params: Mapping) -> Tensor:
    """Negative conditional log-likelihood; gradients reach the variational
    nets only (embeddings are treated as constants here)."""
    detached_groups = [_const(g) for g in u_groups]
    return T.neg(_club_expression(detached_groups, var_params))


def combine_terms(pos: Tensor, neg: Tensor, inter: Tensor, weight: float) -> tuple[Tensor, LossBreakdown]:
    if weight < 0:
        raise ContractError("diversity weight must be non-negative")
    total = T.add(T.add(pos, neg), T.smul(inter, weight))
    breakdown = LossBreakdown(
        intra_positive=pos.item(),
        intra_negative=neg.item(),
        inter_penalty=inter.item(),
        weight=weight,
        total=total.item(),
    )
    return total, breakdown


def total_loss_nonparam(
    u_groups: Sequence[Tensor],
    r_groups: Sequence[Tensor],
    weight: float,
) -> tuple[Tensor, LossBreakdown]:
    pos, neg = js_terms(u_groups, r_groups)
    inter = interspace_penalty_nonparam(u_groups) if weight > 0 else Tensor(0.0)
    return combine_terms(pos, neg, inter, weight)


def total_loss_param(
    u_groups: Sequence[Tensor],
    r_groups: Sequence[Tensor],
    weight: float,
    var_params: Mapping,
) -> tuple[Tensor, LossBreakdown]:
    pos, neg = js_terms(u_groups, r_groups)
    inter = club_param_penalty(u_groups, var_params) if weight > 0 else Tensor(0.0)
    return combine_terms(pos, neg, inter, weight)
