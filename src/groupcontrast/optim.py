"""Adaptive-moment optimizer with bias correction."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .tensor import NumericError


# fixed moment decays and denominator floor; a checkpoint stores only the
# step count and the learning rate
_BETA1 = 0.9
_BETA2 = 0.999
_EPS = 1e-8


class GradientContractError(ValueError):
    """Gradients do not match the parameter set."""


@dataclass
class AdamState:
    lr: float
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
            m = _BETA1 * state.m[k] + (1.0 - _BETA1) * g
            v = _BETA2 * state.v[k] + (1.0 - _BETA2) * g * g
            # v >= 0, so its max is finite exactly when every entry is (a NaN
            # propagates)
            if not v.max(initial=0.0) < np.inf:
                raise NumericError(f"adam: second moment of {k!r} is not finite "
                                   f"(largest |gradient| {float(np.max(np.abs(g))):.3g})")
            m_hat = m / (1.0 - _BETA1**t)
            v_hat = v / (1.0 - _BETA2**t)
            new_params[k] = p - state.lr * m_hat / (np.sqrt(v_hat) + _EPS)
            new_m[k] = m
            new_v[k] = v
    return new_params, AdamState(lr=state.lr, step=t, m=new_m, v=new_v)
