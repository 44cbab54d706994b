import numpy as np
import pytest

from groupcontrast.optim import (AdamState, GradientContractError, adam_step,
                                 init_adam)
from groupcontrast.tensor import NumericError


def test_first_step_hand_derived():
    # with zero moment estimates the bias-corrected update collapses to
    # lr * g / (|g| + eps), so a gradient of 2 at lr 0.1 moves the param by
    # almost exactly 0.1
    params = {"w": np.array([1.0])}
    grads = {"w": np.array([2.0])}
    new, state = adam_step(params, grads, init_adam(params, 0.1))
    assert abs(new["w"][0] - 0.9) < 1e-8
    assert state.step == 1
    assert np.allclose(state.m["w"], 0.2)
    assert np.allclose(state.v["w"], 0.004)


def test_step_is_functional():
    params = {"w": np.array([1.0, 2.0])}
    opt = init_adam(params, 0.01)
    before = params["w"].copy()
    adam_step(params, {"w": np.ones(2)}, opt)
    assert np.array_equal(params["w"], before)
    assert opt.step == 0


def test_two_steps_match_reference_loop():
    rng = np.random.default_rng(0)
    params = {"w": rng.standard_normal(4)}
    g1, g2 = rng.standard_normal(4), rng.standard_normal(4)
    new, st = adam_step(params, {"w": g1}, init_adam(params, 0.05))
    new, st = adam_step(new, {"w": g2}, st)

    # straight-line reference
    b1, b2, eps = 0.9, 0.999, 1e-8
    m = np.zeros(4)
    v = np.zeros(4)
    w = params["w"].copy()
    for t, g in enumerate((g1, g2), start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        w = w - 0.05 * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
    assert np.allclose(new["w"], w, atol=1e-15)


def test_missing_gradient_rejected():
    params = {"w": np.ones(2), "b": np.ones(1)}
    opt = init_adam(params, 0.1)
    with pytest.raises(GradientContractError):
        adam_step(params, {"w": np.ones(2)}, opt)


def test_shape_mismatch_rejected():
    params = {"w": np.ones(2)}
    opt = init_adam(params, 0.1)
    with pytest.raises(GradientContractError):
        adam_step(params, {"w": np.ones(3)}, opt)


def test_nonpositive_lr_rejected():
    with pytest.raises(GradientContractError):
        init_adam({"w": np.ones(1)}, 0.0)


@pytest.mark.parametrize("bad", [1e200, np.inf, np.nan])
def test_non_finite_second_moment_names_the_parameter(bad):
    params = {"ok": np.ones(2), "big": np.ones(2)}
    grads = {"ok": np.ones(2), "big": np.array([1.0, bad])}
    with pytest.raises(NumericError, match="second moment of 'big'"):
        adam_step(params, grads, init_adam(params, 0.1))
