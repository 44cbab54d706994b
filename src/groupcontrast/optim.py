"""Adaptive-moment optimizer with bias correction."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .tensor import NumericError


class GradientContractError(ValueError):
    """Gradients do not match the parameter set."""


@dataclass
class AdamState:
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_adam(params: Mapping[str, np.ndarray], lr: float) -> AdamState:
    if lr <= 0:
        raise GradientContractError("step size must be positive")
    return AdamState(
        lr=lr,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
    )


def adam_step(
    params: Mapping[str, np.ndarray],
    grads: Mapping[str, np.ndarray],
    state: AdamState,
) -> tuple[dict[str, np.ndarray], AdamState]:
    """One bias-corrected update; returns fresh param and state dicts.

    A gradient whose square is not finite raises ``NumericError`` naming the
    parameter: an infinite second moment would silently freeze its update.
    """
    missing = set(params) - set(grads)
    if missing:
        raise GradientContractError(f"missing gradients for {sorted(missing)}")
    t = state.step + 1
    new_params: dict[str, np.ndarray] = {}
    new_m: dict[str, np.ndarray] = {}
    new_v: dict[str, np.ndarray] = {}
    # an overflowing g * g is caught below by name, not warned about
    with np.errstate(over="ignore"):
        for k, p in params.items():
            g = np.asarray(grads[k], dtype=np.float64)
            if g.shape != p.shape:
                raise GradientContractError(
                    f"gradient shape {g.shape} != param shape {p.shape} for {k!r}")
            m = state.beta1 * state.m[k] + (1.0 - state.beta1) * g
            v = state.beta2 * state.v[k] + (1.0 - state.beta2) * g * g
            # v >= 0, so its max is finite exactly when every entry is (a NaN
            # propagates)
            if not v.max(initial=0.0) < np.inf:
                raise NumericError(f"adam: second moment of {k!r} is not finite "
                                   f"(largest |gradient| {float(np.max(np.abs(g))):.3g})")
            m_hat = m / (1.0 - state.beta1**t)
            v_hat = v / (1.0 - state.beta2**t)
            new_params[k] = p - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
            new_m[k] = m
            new_v[k] = v
    next_state = AdamState(
        lr=state.lr, beta1=state.beta1, beta2=state.beta2, eps=state.eps,
        step=t, m=new_m, v=new_v,
    )
    return new_params, next_state
