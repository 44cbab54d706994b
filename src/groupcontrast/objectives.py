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
from .encoder import Layout, draw_params
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

    Score [k, i, j] pairs graph i's group k in view u with graph j's group
    k in view r. One fused op sums the softplus over every such score, so no
    (p, B, B) block is built; the positives, its diagonals, are taken as the
    (B, p) row dot products.
    """
    u, r = _stack(u_groups), _stack(r_groups)
    if u.shape != r.shape:
        raise ContractError(f"views carry different group shapes {u.shape} vs {r.shape}")
    b = u.shape[0]
    if b < 2:
        raise ContractError("JS loss needs a batch of at least 2 graphs for negatives")
    all_sum = T.softplus_sum_of_products(T.transpose(u, (1, 0, 2)), T.transpose(r, (1, 0, 2)))
    return _js_halves(all_sum, T.tsum(T.mul(u, r), axis=2), b - 1)


def js_mi_loss(u_groups: Sequence[Tensor], r_groups: Sequence[Tensor]) -> Tensor:
    """Loss whose minimization maximizes the JS estimator of intra-space MI."""
    pos, neg = js_terms(u_groups, r_groups)
    return T.add(pos, neg)


def js_terms_nodewise(
    u_groups: Sequence[Tensor],
    r_nodes: Tensor,
    segments: np.ndarray,
) -> tuple[Tensor, Tensor]:
    """JS terms with node-level partners: positives pair a graph's group
    embedding with its own nodes, negatives with all other graphs' nodes.
    The (B, 2) ``segments`` hold each graph's node range. One fused op sums
    the softplus over every group-node score, so no (B*p, N) block is
    built; another takes the (N, p, 1) own-node scores without gathering an
    (N, p, d) block of each node's groups.
    """
    b = u_groups[0].shape[0]
    if b < 2:
        raise ContractError("node-wise JS loss needs at least 2 graphs")
    u = _stack(u_groups)
    all_sum = T.softplus_sum_of_products(T.reshape(u, (b * len(u_groups), -1)), r_nodes)
    return _js_halves(all_sum, T.gathered_dot(u, r_nodes, segments), b - 1)


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


_VARNET = "var."  # the variational nets' parameters are named "var.<net>.<name>"


def varnet_params(params: Mapping) -> dict:
    """The entries of a parameter table that belong to the variational nets."""
    return {name: v for name, v in params.items() if name.startswith(_VARNET)}


def has_interspace_term(num_groups: int, weight: float) -> bool:
    """Whether a step's objective has an inter-space term: 2+ groups, weight > 0."""
    return num_groups >= 2 and weight > 0


def varnet_layout(dim: int) -> Layout:
    """Two two-layer MLPs (dim -> dim) producing the conditional mean and the
    per-dimension log-variance."""
    return [(f"{_VARNET}{net}.{name}", shape, init) for net in ("mu", "lv")
            for name, shape, init in (("w1", (dim, dim), "glorot"), ("b1", (dim,), "zeros"),
                                      ("w2", (dim, dim), "glorot"), ("b2", (dim,), "zeros"))]


def init_varnet_params(rng: np.random.Generator, dim: int) -> dict[str, np.ndarray]:
    return draw_params(rng, varnet_layout(dim))


def _varnet_forward(x: Tensor, params: Mapping, net: str) -> Tensor:
    return T.mlp(x, *(params[f"{_VARNET}{net}.{name}"] for name in ("w1", "b1", "w2", "b2")))


def _club_expression(u_groups: Sequence[Tensor], var_params: Mapping) -> Tensor:
    """Mean over graphs and ordered group pairs (k != l) of
    sum_i(-lv_i - (u^(l)_i - mu_i)^2 / exp(lv_i)), where mu and lv are the
    variational nets applied to u^(k).

    The nets run once on all B * p group rows. One fused op sums the
    weighted squared residuals u^(l) - mu(u^(k)) of every graph and ordered
    pair k != l without keeping their (B, p, p, d) block.
    """
    p = len(u_groups)
    if p < 2:
        raise ContractError("parameterized CLUB needs at least 2 groups")
    b, d = u_groups[0].shape
    u = _stack(u_groups)
    rows = T.reshape(u, (b * p, d))
    mu = T.reshape(_varnet_forward(rows, var_params, "mu"), (b, p, d))
    lv = _varnet_forward(rows, var_params, "lv")
    quad = T.pairwise_weighted_sq_dist(u, mu, T.reshape(T.exp(T.neg(lv)), (b, p, d)))
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


def total_loss(pos: Tensor, neg: Tensor, u_groups: Sequence[Tensor], weight: float,
               var_params: Mapping | None = None) -> tuple[Tensor, LossBreakdown, Tensor | None]:
    """The step objective pos + neg + weight * inter, its breakdown, and the
    variational nets' loss (None when they have none). The one place that
    picks the inter-space term: none below 2 groups or at weight 0, the
    parameterized CLUB penalty when ``var_params`` holds the nets, else the
    non-parameterized penalty. Each of the two losses holds the other's
    inputs constant, so one backward pass over their sum serves both."""
    inter, var_loss = Tensor(0.0), None
    if has_interspace_term(len(u_groups), weight):
        if var_params:
            inter = club_param_penalty(u_groups, var_params)
            var_loss = varnet_likelihood_loss(u_groups, var_params)
        else:
            inter = interspace_penalty_nonparam(u_groups)
    return (*combine_terms(pos, neg, inter, weight), var_loss)


def total_loss_nonparam(u_groups: Sequence[Tensor], r_groups: Sequence[Tensor],
                        weight: float) -> tuple[Tensor, LossBreakdown]:
    return total_loss(*js_terms(u_groups, r_groups), u_groups, weight)[:2]


def total_loss_param(u_groups: Sequence[Tensor], r_groups: Sequence[Tensor], weight: float,
                     var_params: Mapping) -> tuple[Tensor, LossBreakdown]:
    return total_loss(*js_terms(u_groups, r_groups), u_groups, weight, var_params)[:2]
