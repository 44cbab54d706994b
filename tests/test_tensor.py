import gc
import itertools
import math
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from groupcontrast import tensor as T
from groupcontrast.gradcheck import finite_difference_check
from groupcontrast.tensor import (ContractError, DimensionError, NumericError,
                                  Tape, Tensor, backward)


def leaf_pair(shape_a, shape_b, seed=0):
    rng = np.random.default_rng(seed)
    tape = Tape()
    a = tape.leaf(rng.standard_normal(shape_a))
    b = tape.leaf(rng.standard_normal(shape_b))
    return tape, a, b


def test_tensor_rejects_non_finite():
    with pytest.raises(NumericError):
        Tensor([1.0, np.inf])
    with pytest.raises(NumericError):
        Tensor(np.nan)


def test_constants_carry_no_tape():
    t = Tensor([[1.0, 2.0]])
    assert t.tape is None and t.node_id is None


def test_matmul_forward_and_grad():
    tape, a, b = leaf_pair((3, 4), (4, 2))
    out = T.matmul(a, b)
    assert np.allclose(out.values, a.values @ b.values)
    loss = T.tsum(out)
    grads = backward(tape, loss)
    ones = np.ones((3, 2))
    assert np.allclose(grads[a.node_id], ones @ b.values.T)
    assert np.allclose(grads[b.node_id], a.values.T @ ones)


def test_matmul_shape_error():
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
    with pytest.raises(DimensionError):
        T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))
    with pytest.raises(DimensionError):  # leading axes do not broadcast
        T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((3, 4, 5))))


def test_add_broadcast_unbroadcasts_gradient():
    tape = Tape()
    a = tape.leaf(np.arange(6.0).reshape(2, 3))
    b = tape.leaf(np.ones(3))
    loss = T.tsum(T.add(a, b))
    grads = backward(tape, loss)
    assert grads[a.node_id].shape == (2, 3)
    assert grads[b.node_id].shape == (3,)
    assert np.allclose(grads[b.node_id], 2.0)


def test_mul_gradients_swap_operands():
    tape, a, b = leaf_pair((2, 2), (2, 2))
    loss = T.tsum(T.mul(a, b))
    grads = backward(tape, loss)
    assert np.allclose(grads[a.node_id], b.values)
    assert np.allclose(grads[b.node_id], a.values)


def test_sub_neg_square_smul():
    tape = Tape()
    a = tape.leaf(np.array([2.0, -3.0]))
    loss = T.tsum(T.square(T.sub(T.smul(a, 2.0), Tensor([1.0, 1.0]))))
    # d/da sum((2a - 1)^2) = 2(2a - 1) * 2
    grads = backward(tape, loss)
    assert np.allclose(grads[a.node_id], 4.0 * (2.0 * a.values - 1.0))


def test_relu_masks_gradient():
    tape = Tape()
    a = tape.leaf(np.array([-1.0, 0.0, 2.0]))
    grads = backward(tape, T.tsum(T.relu(a)))
    assert np.allclose(grads[a.node_id], [0.0, 0.0, 1.0])


def test_softplus_stable_at_large_inputs():
    out = T.softplus(Tensor([-800.0, 0.0, 800.0]))
    assert np.allclose(out.values, [0.0, np.log(2.0), 800.0])
    assert np.all(np.isfinite(out.values))


def test_exp_log_inverse_and_log_domain():
    x = np.array([0.5, 1.5])
    assert np.allclose(T.log(T.exp(Tensor(x))).values, x)
    with pytest.raises(NumericError):
        T.log(Tensor([1.0, 0.0]))


def test_non_finite_op_output_names_the_op():
    with np.errstate(over="ignore"), pytest.raises(NumericError, match="exp: non-finite output"):
        T.exp(Tensor([1000.0]))


def test_index_add_overflow_names_the_op():
    # value-moving ops skip the finiteness pass; a sum of finite rows can
    # still overflow, so index_add keeps it
    with pytest.raises(NumericError, match="index-add: non-finite"):
        T.index_add(Tensor([[1e308], [1e308]]), T.RowSum([0, 0], 1))


def test_sum_mean_axes():
    x = np.arange(12.0).reshape(3, 4)
    assert np.allclose(T.tsum(Tensor(x), axis=0).values, x.sum(axis=0))
    assert np.allclose(T.tmean(Tensor(x), axis=1, keepdims=True).values,
                       x.mean(axis=1, keepdims=True))
    tape = Tape()
    a = tape.leaf(x)
    grads = backward(tape, T.tmean(a))
    assert np.allclose(grads[a.node_id], 1.0 / 12.0)


def test_transpose_grad():
    tape = Tape()
    a = tape.leaf(np.arange(6.0).reshape(2, 3))
    w = np.arange(6.0).reshape(3, 2)
    loss = T.tsum(T.mul(T.transpose(a), Tensor(w)))
    grads = backward(tape, loss)
    assert np.allclose(grads[a.node_id], w.T)


def test_concat_slice_roundtrip():
    tape = Tape()
    a = tape.leaf(np.ones((2, 3)))
    b = tape.leaf(2 * np.ones((2, 2)))
    cat = T.concat([a, b], axis=1)
    assert cat.shape == (2, 5)
    back = T.slice_cols(cat, 3, 5)
    assert np.allclose(back.values, b.values)
    grads = backward(tape, T.tsum(back))
    assert np.allclose(grads[a.node_id], 0.0)
    assert np.allclose(grads[b.node_id], 1.0)


def test_row_softmax_rows_sum_to_one():
    out = T.row_softmax(Tensor(np.random.default_rng(1).standard_normal((5, 4))))
    assert np.allclose(out.values.sum(axis=1), 1.0)


def test_segment_softmax_columns_sum_per_segment():
    x = np.random.default_rng(2).standard_normal((7, 3))
    segments = [(0, 3), (3, 7)]
    out = T.segment_softmax(Tensor(x), segments)
    for lo, hi in segments:
        assert np.allclose(out.values[lo:hi].sum(axis=0), 1.0)
    with pytest.raises(DimensionError):
        T.segment_softmax(Tensor(x), [(0, 0)])


def test_segment_softmax_matches_shifted_exp():
    x = np.random.default_rng(3).standard_normal((4, 2))
    out = T.segment_softmax(Tensor(x), [(0, 4)])
    e = np.exp(x - x.max(axis=0))
    assert np.allclose(out.values, e / e.sum(axis=0), atol=1e-12)


def test_row_l2_normalize_unit_norms_and_zero_row():
    x = np.random.default_rng(4).standard_normal((6, 5))
    out = T.row_l2_normalize(Tensor(x))
    assert np.allclose(np.linalg.norm(out.values, axis=1), 1.0)
    # a (near-)zero row maps to zero with zero gradient; the other rows keep
    # their values and gradients bit for bit
    g = np.random.default_rng(5).standard_normal((6, 5))

    def value_and_grad(a):
        tape = Tape()
        leaf = tape.leaf(a)
        y = T.row_l2_normalize(leaf)
        return y.values, backward(tape, T.tsum(T.mul(y, Tensor(g))))[leaf.node_id]

    zeroed = x.copy()
    zeroed[2] = 0.0
    zeroed[4] = 1e-14
    out_x, grad_x = value_and_grad(x)
    out_z, grad_z = value_and_grad(zeroed)
    assert np.all(out_z[[2, 4]] == 0.0) and np.all(grad_z[[2, 4]] == 0.0)
    kept = [0, 1, 3, 5]
    assert out_z[kept].tobytes() == out_x[kept].tobytes()
    assert grad_z[kept].tobytes() == grad_x[kept].tobytes()


@pytest.mark.parametrize("scale", [
    1e120,      # the square is finite, its cube is not: the vjp lost its projection term
    1e160,      # the square overflows: the row came out as zeros
])
def test_row_l2_normalize_refuses_a_row_whose_cubed_norm_overflows(scale):
    # pyproject turns a RuntimeWarning into an error, so none escapes
    x = np.array([[3.0, 4.0], [3.0 * scale, 4.0 * scale]])
    with pytest.raises(NumericError, match="row-L2-normalize: row 1 has a norm whose cube"):
        T.row_l2_normalize(Tensor(x))


def test_row_l2_normalize_is_exact_just_below_the_cube_threshold():
    # scaling a row by 2**338 (norm 2.8e102, cube 2.2e307) scales no
    # rounding: the value keeps its bits and the gradient is divided by the
    # scale, bit for bit; at g = (1, 0) it is (0.128, -0.096) / scale
    scale = 2.0 ** 338
    g = np.array([[1.0, 0.0]])

    def value_and_grad(row):
        tape = Tape()
        leaf = tape.leaf(np.array([row]))
        y = T.row_l2_normalize(leaf)
        return y.values, backward(tape, T.tsum(T.mul(y, Tensor(g))))[leaf.node_id]

    out, grad = value_and_grad([3.0, 4.0])
    out_s, grad_s = value_and_grad([3.0 * scale, 4.0 * scale])
    assert out_s.tobytes() == out.tobytes()
    assert (grad_s * scale).tobytes() == grad.tobytes()
    np.testing.assert_allclose(grad[0], [0.128, -0.096], rtol=1e-15)


def test_backward_requires_scalar_loss():
    tape = Tape()
    a = tape.leaf(np.ones((2, 2)))
    with pytest.raises(ContractError):
        backward(tape, T.relu(a))


def test_backward_zero_for_unused_leaf():
    tape = Tape()
    a = tape.leaf(np.ones(3))
    b = tape.leaf(np.ones(3))
    grads = backward(tape, T.tsum(a))
    assert np.allclose(grads[b.node_id], 0.0)


def test_mixed_tapes_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf(np.ones(2))
    b = t2.leaf(np.ones(2))
    with pytest.raises(ContractError):
        T.add(a, b)


def test_backward_rejects_loss_of_another_tape():
    t1, t2 = Tape(), Tape()
    loss = T.tsum(t2.leaf(np.ones(2)))
    with pytest.raises(ContractError, match="backward: loss was not produced by this tape"):
        backward(t1, loss)


def test_backward_skips_op_off_the_loss_path():
    # relu(b) is recorded but never reaches the loss: its entry gets no
    # gradient, and b a zero gradient of its own shape
    tape = Tape()
    a, b = tape.leaf(np.ones(3)), tape.leaf(np.ones((2, 2)))
    T.relu(b)
    grads = backward(tape, T.tsum(a))
    assert np.array_equal(grads[a.node_id], np.ones(3))
    assert np.array_equal(grads[b.node_id], np.zeros((2, 2)))


def test_backward_walks_a_tape_once_and_keeps_its_entry_count():
    # the walk drops each entry once its vjps have run, the fused ops' with
    # them: a second walk has nothing to walk, and the tape takes no new
    # entry, but len still counts what the forward pass recorded
    rng = np.random.default_rng(9)
    tape = Tape()
    x, w1, b1, w2, b2 = (tape.leaf(rng.standard_normal(s))
                         for s in ((5, 3), (3, 4), (4,), (4, 6), (6,)))
    h = T.mlp(x, w1, b1, w2, b2)                                  # (5, 6)
    u = T.reshape(T.slice_cols(h, 0, 4), (5, 2, 2))
    scores = T.gathered_dot(u, T.slice_cols(h, 4, 6), T.RowSum([2, 0, 2, 1, 4], 5))
    dist = T.pairwise_weighted_sq_dist(u, T.square(u), T.relu(u))
    loss = T.add(T.tsum(scores), dist)
    recorded = len(tape)
    assert recorded == 10
    backward(tape, loss)
    assert len(tape) == recorded
    with pytest.raises(ContractError, match="backward: tape already walked"):
        backward(tape, loss)
    with pytest.raises(ContractError, match="tape: already walked by backward"):
        T.relu(x)
    assert len(tape) == recorded


_MATRIX, _VECTOR, _BLOCK = Tensor(np.ones((2, 3))), Tensor(np.ones(3)), Tensor(np.ones((2, 2, 3)))


@pytest.mark.parametrize("op, message", [
    (lambda: T.add(_MATRIX, Tensor(np.ones(2))), r"add: shapes \(2, 3\) \+ \(2,\)"),
    (lambda: T.mul(_MATRIX, Tensor(np.ones(2))), r"elementwise-multiply: shapes \(2, 3\) \*"),
    (lambda: T.concat([]), "concat-along-axis: empty input list"),
    (lambda: T.segment_softmax(_VECTOR, [(0, 3)]), "segment-row-softmax: expected matrix"),
    (lambda: T.row_l2_normalize(_VECTOR), "row-L2-normalize: expected matrix"),
    (lambda: T.slice_cols(_VECTOR, 0, 1), "slice-cols: expected matrix"),
    (lambda: T.RowSum(np.zeros((2, 2), dtype=int), 2), "row-sum: index must be a vector"),
    (lambda: T.neighbour_sum(_MATRIX, T.RowSum([0, 1], 2), np.array([1, 0, 1])),
     "neighbour-sum: plan over 2 rows and 3 / 2 edges"),
    (lambda: T.softplus_sum_of_products(_MATRIX, Tensor(np.ones((2, 2)))),
     r"softplus-sum-of-products: shapes \(2, 3\) and \(2, 2\) are not"),
    (lambda: T.softplus_sum_of_products(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((3, 2, 3)))),
     r"softplus-sum-of-products: shapes \(2, 2, 3\) and \(3, 2, 3\) are not"),
    (lambda: T.softplus_sum_of_products(_MATRIX, Tensor(np.ones((1, 2, 3)))),
     r"softplus-sum-of-products: shapes \(2, 3\) and \(1, 2, 3\) are not"),
    (lambda: T.gathered_dot(_BLOCK, Tensor(np.ones((2, 2))), T.RowSum([0, 1], 2)),
     r"gathered-dot: shapes u \(2, 2, 3\) and r \(2, 2\) are not \(n, p, d\) and \(m, d\)"),
    (lambda: T.gathered_dot(_MATRIX, _MATRIX, T.RowSum([0, 1], 2)),
     r"gathered-dot: shapes u \(2, 3\) and r \(2, 3\) are not"),
    (lambda: T.gathered_dot(_BLOCK, _MATRIX, T.RowSum([0, 1, 1], 2)),
     "gathered-dot: plan of 3 rows into 2 buckets for r of 2 rows and u of 2"),
    (lambda: T.gathered_dot(_BLOCK, _MATRIX, T.RowSum([0, 1], 3)),
     "gathered-dot: plan of 2 rows into 3 buckets for r of 2 rows and u of 2"),
    (lambda: T.pairwise_weighted_sq_dist(_MATRIX, _MATRIX, _MATRIX),
     r"pairwise-weighted-sq-dist: shapes u \(2, 3\), mu \(2, 3\) and w \(2, 3\) are not"),
    (lambda: T.pairwise_weighted_sq_dist(_BLOCK, _BLOCK, Tensor(np.ones((2, 2, 1)))),
     r"pairwise-weighted-sq-dist: shapes .* w \(2, 2, 1\) are not one \(B, p, d\)"),
    (lambda: T.mlp(_MATRIX, Tensor(np.ones((2, 2))), _VECTOR, _MATRIX, _VECTOR),
     r"mlp: shapes x \(2, 3\), w1 \(2, 2\), b1 \(3,\), w2 \(2, 3\), b2 \(3,\) do not chain"),
    (lambda: T.mlp(_MATRIX, Tensor(np.ones((3, 2))), _VECTOR, _MATRIX, _VECTOR),
     r"mlp: shapes .* b1 \(3,\), w2 \(2, 3\)"),
])
def test_op_rejects_bad_shapes(op, message):
    with pytest.raises(DimensionError, match=message):
        op()


def test_fanout_accumulates():
    tape = Tape()
    a = tape.leaf(np.array([3.0]))
    loss = T.tsum(T.add(a, T.smul(a, 2.0)))
    grads = backward(tape, loss)
    assert np.allclose(grads[a.node_id], 3.0)


def test_transpose_axes_and_reshape_errors():
    x = Tensor(np.arange(24.0).reshape(2, 3, 4))
    assert np.array_equal(T.transpose(x, (2, 0, 1)).values,
                          np.transpose(x.values, (2, 0, 1)))
    with pytest.raises(DimensionError):
        T.transpose(x)
    with pytest.raises(DimensionError):
        T.transpose(x, (0, 0, 1))
    assert T.reshape(x, (6, 4)).shape == (6, 4)
    with pytest.raises(DimensionError):
        T.reshape(x, (5, 5))


def test_tape_freed_without_cycle_collector():
    # the vjps hold arrays and shapes, never tensors, so a step's tape is
    # freed by reference counting alone
    gc.disable()
    try:
        tape, a, b = leaf_pair((2, 3, 4), (4, 1))
        c = tape.leaf(np.ones(1))
        h = T.add(T.matmul(a, b), c)                              # (2, 3, 1)
        loss = T.tsum(T.mul(h, T.reshape(T.transpose(h, (1, 0, 2)), (2, 3, 1))))
        backward(tape, loss)
        ref = weakref.ref(tape)
        del tape, a, b, c, h, loss
        assert ref() is None
    finally:
        gc.enable()


# -- property gradchecks of the shape primitives -------------------------------

dims = st.integers(1, 3)


def _gradcheck(fn, **arrays):
    return finite_difference_check(lambda lv: fn(**lv), arrays)


def _array(seed, shape):
    return np.random.default_rng(seed).standard_normal(shape)


@given(batch=st.lists(dims, min_size=1, max_size=2), m=dims, k=dims, n=dims,
       seed=st.integers(0, 2**16))
def test_batched_matmul_gradcheck(batch, m, k, n, seed):
    a, b = _array(seed, (*batch, m, k)), _array(seed + 1, (*batch, k, n))
    w = _array(seed + 2, (*batch, m, n))
    err = _gradcheck(lambda a, b: T.tsum(T.mul(T.matmul(a, b), Tensor(w))), a=a, b=b)
    assert err <= 1e-6


@given(lead=dims, m=dims, k=dims, n=dims, a_ones=st.booleans(), b_2d=st.booleans(),
       seed=st.integers(0, 2**16))
def test_broadcast_matmul_gradcheck(lead, m, k, n, a_ones, b_2d, seed):
    # leading axes broadcast: (1 or L, m, k) @ (L, k, n) or @ (k, n)
    a = _array(seed, (1 if a_ones else lead, m, k))
    b = _array(seed + 1, (k, n) if b_2d else (lead, k, n))
    out_shape = np.broadcast_shapes(a.shape[:-2], b.shape[:-2]) + (m, n)
    w = _array(seed + 2, out_shape)
    out = T.matmul(Tensor(a), Tensor(b))
    assert np.allclose(out.values, a @ b)
    err = _gradcheck(lambda a, b: T.tsum(T.mul(T.matmul(a, b), Tensor(w))), a=a, b=b)
    assert err <= 1e-6


@given(shape=st.lists(dims, min_size=1, max_size=4), data=st.data(),
       seed=st.integers(0, 2**16))
def test_transpose_axes_gradcheck(shape, data, seed):
    axes = tuple(data.draw(st.permutations(range(len(shape)))))
    x = _array(seed, shape)
    w = _array(seed + 1, np.transpose(x, axes).shape)
    err = _gradcheck(lambda x: T.tsum(T.mul(T.transpose(x, axes), Tensor(w))), x=x)
    assert err <= 1e-6


@given(shape=st.lists(dims, min_size=1, max_size=4), data=st.data(),
       seed=st.integers(0, 2**16))
def test_reshape_gradcheck(shape, data, seed):
    x = _array(seed, shape)
    # a random factorization of the element count as the new shape
    target, rest = [], x.size
    while rest > 1:
        f = data.draw(st.sampled_from([d for d in range(2, rest + 1) if rest % d == 0]))
        target.append(f)
        rest //= f
    target = tuple(data.draw(st.permutations(target))) or (1,)
    w = _array(seed + 1, target)
    err = _gradcheck(lambda x: T.tsum(T.mul(T.reshape(x, target), Tensor(w))), x=x)
    assert err <= 1e-6


@given(sizes=st.lists(dims, min_size=1, max_size=4), cols=dims, seed=st.integers(0, 2**16))
def test_segment_softmax_gradcheck(sizes, cols, seed):
    ends = np.cumsum(sizes)
    segments = list(zip((ends - sizes).tolist(), ends.tolist()))
    x, w = _array(seed, (ends[-1], cols)), _array(seed + 1, (ends[-1], cols))
    out = T.segment_softmax(Tensor(x), segments)
    for lo, hi in segments:
        assert np.allclose(out.values[lo:hi].sum(axis=0), 1.0)
    err = _gradcheck(lambda x: T.tsum(T.mul(T.segment_softmax(x, segments), Tensor(w))), x=x)
    assert err <= 1e-6


@given(rows=st.integers(1, 5), cols=dims, data=st.data(), seed=st.integers(0, 2**16))
def test_row_l2_normalize_gradcheck_with_zero_rows(rows, cols, data, seed):
    # a zero row has no direction: the mask zeroes it before normalizing, so
    # its entries move nothing and must get an exact, finite zero gradient
    zero = np.array(data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows)))
    mask = Tensor(np.where(zero, 0.0, 1.0)[:, None])
    x, w = _array(seed, (rows, cols)), _array(seed + 1, (rows, cols))
    out = T.row_l2_normalize(T.mul(Tensor(x), mask)).values
    assert np.all(out[zero] == 0.0)
    assert np.allclose(np.linalg.norm(out[~zero], axis=1), 1.0)
    err = _gradcheck(lambda x: T.tsum(T.mul(T.row_l2_normalize(T.mul(x, mask)), Tensor(w))), x=x)
    assert err <= 1e-6


@given(shape=st.lists(dims, min_size=1, max_size=3), data=st.data(), seed=st.integers(0, 2**16))
def test_concat_gradcheck(shape, data, seed):
    axis = data.draw(st.integers(0, len(shape) - 1))
    widths = data.draw(st.lists(dims, min_size=1, max_size=3))
    parts = {f"a{i}": _array(seed + i, [*shape[:axis], n, *shape[axis + 1:]])
             for i, n in enumerate(widths)}
    out = T.concat([Tensor(v) for v in parts.values()], axis=axis)
    assert np.array_equal(out.values, np.concatenate(list(parts.values()), axis=axis))
    w = _array(seed + len(widths), out.shape)
    err = _gradcheck(lambda **lv: T.tsum(T.mul(T.concat(list(lv.values()), axis=axis),
                                               Tensor(w))), **parts)
    assert err <= 1e-6


@given(n=st.integers(1, 5), p=dims, d=dims, data=st.data(), seed=st.integers(0, 2**16))
def test_gathered_dot_gradcheck(n, p, d, data, seed):
    # repeated and empty index vectors included; x[index] is the gather
    index = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    plan = T.RowSum(index, n)
    u, r = _array(seed, (n, p, d)), _array(seed + 1, (len(index), d))
    out = T.gathered_dot(Tensor(u), Tensor(r), plan)
    assert np.allclose(out.values, u[np.array(index, dtype=int)] @ r[:, :, None], atol=1e-12)
    w = _array(seed + 2, out.shape)
    err = _gradcheck(lambda u, r: T.tsum(T.mul(T.gathered_dot(u, r, plan), Tensor(w))), u=u, r=r)
    assert err <= 1e-6


@given(n=st.integers(1, 5), tail=st.lists(dims, max_size=2), data=st.data(),
       seed=st.integers(0, 2**16))
def test_index_add_gradcheck(n, tail, data, seed):
    index = data.draw(st.lists(st.integers(0, n - 1), max_size=6))
    plan = T.RowSum(index, n)
    x = _array(seed, (len(index), *tail))
    out = T.index_add(Tensor(x), plan)
    ref = np.zeros((n, *tail))
    np.add.at(ref, np.array(index, dtype=int), x)
    assert out.values.tobytes() == ref.tobytes()
    w = _array(seed + 1, out.shape)
    err = _gradcheck(lambda x: T.tsum(T.mul(T.index_add(x, plan), Tensor(w))), x=x)
    assert err <= 1e-6


def test_gathered_dot_and_index_add_are_adjoint():
    # gathered_dot is linear in each input: for any y,
    # <gathered_dot(u, r), y> == <u, index_add(y ⊗ r)> == <r, u[index]ᵀ y>
    rng = np.random.default_rng(5)
    index = np.array([2, 0, 2, 3, 2])
    plan = T.RowSum(index, 4)
    u, r = rng.standard_normal((4, 2, 3)), rng.standard_normal((5, 3))
    y = rng.standard_normal((5, 2, 1))
    lhs = (T.gathered_dot(Tensor(u), Tensor(r), plan).values * y).sum()
    by_u = (u * T.index_add(Tensor(y * r[:, None, :]), plan).values).sum()
    by_r = (r * (np.swapaxes(u[index], 1, 2) @ y)[:, :, 0]).sum()
    assert lhs == pytest.approx(by_u, abs=1e-12) and lhs == pytest.approx(by_r, abs=1e-12)


def test_index_add_rejects_index_length_mismatch():
    with pytest.raises(DimensionError):
        T.index_add(Tensor(np.ones((3, 2))), T.RowSum([0, 1], 4))


@pytest.mark.parametrize("index, n, bad", [
    ([-1, 0], 2, "index -1 at row 0"),      # wrapped round in the forward pass
    ([0, 5], 3, "index 5 at row 1"),        # failed as a bare reshape error
    ([1, 2, 2, 7, -3], 2, "index 2 at row 1"),
])
def test_row_sum_rejects_out_of_range_index(index, n, bad):
    with pytest.raises(DimensionError, match=f"^row-sum: {bad} outside \\[0, {n}\\)$"):
        T.RowSum(index, n)


# slot k of a plan holds one row of every bucket of more than k rows. Each
# family draws (index, n): random indices; buckets of 9 to 40 rows beside
# empty ones; the empty index; and bucket counts past the 16-bit sort key
_PLAN_FAMILIES = {
    "random": st.integers(1, 9).flatmap(lambda n: st.tuples(
        st.lists(st.integers(0, n - 1), max_size=40), st.just(n))),
    "large-buckets": st.tuples(st.lists(st.sampled_from([0, 2]), min_size=18, max_size=40),
                               st.integers(3, 5)),
    "empty": st.tuples(st.just([]), st.integers(0, 3)),
    "wide": st.tuples(st.lists(st.sampled_from([0, 65535, 65536, 70000]), max_size=12),
                      st.sampled_from([70001, 1 << 17])),
}
# magnitudes apart by up to 1e16 and signed zeros: a sum in any other order
# than row order shows in the bits
_addends = st.floats(-1e8, 1e8, allow_nan=False) | st.sampled_from([0.0, -0.0, 1e-8, -1e-8])


@pytest.mark.parametrize("family", _PLAN_FAMILIES)
@given(width=st.integers(1, 3), data=st.data())
def test_row_sum_is_byte_equal_to_sequential_scatter_add(family, width, data):
    index, n = data.draw(_PLAN_FAMILIES[family])
    rows = data.draw(hnp.arrays(np.float64, (len(index), width), elements=_addends))
    plan = T.RowSum(index, n)
    ref = np.zeros((n, width))
    np.add.at(ref, np.array(index, dtype=np.intp), rows)
    assert sorted(plan.order.tolist()) == list(range(len(index)))
    assert _bits(plan.sum(rows)).tobytes() == _bits(ref).tobytes()


@given(nodes=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**16))
def test_neighbour_sum_matches_take_rows_then_index_add(nodes, data, seed):
    # the fused GIN aggregation over a symmetric edge list (undirected pairs
    # listed forward, then reversed, as a Batch lists them): the forward is
    # bit-equal to the composed gather and scatter, the vjp is the forward
    # applied to the gradient, and a gradcheck passes
    edge = st.tuples(st.integers(0, nodes - 1), st.integers(0, nodes - 1))
    pairs = np.array(data.draw(st.lists(edge, max_size=6)), dtype=np.intp).reshape(-1, 2)
    src = np.concatenate([pairs[:, 0], pairs[:, 1]])
    by_dst = T.RowSum(np.concatenate([pairs[:, 1], pairs[:, 0]]), nodes)
    x, w = _array(seed, (nodes, 2)), _array(seed + 1, (nodes, 2))
    tape = Tape()
    leaf = tape.leaf(x)
    y = T.neighbour_sum(leaf, by_dst, src)
    grad = backward(tape, T.tsum(T.mul(y, Tensor(w))))[leaf.node_id]
    composed = T.index_add(Tensor(x[src]), by_dst)
    assert y.values.tobytes() == composed.values.tobytes()
    assert grad.tobytes() == T.neighbour_sum(Tensor(w), by_dst, src).values.tobytes()
    err = _gradcheck(lambda x: T.tsum(T.mul(T.neighbour_sum(x, by_dst, src), Tensor(w))), x=x)
    assert err <= 1e-6


# -- softplus and the sum vjps: values, bits and gradient ownership ------------

# the plain expressions softplus is defined by; its value and stored
# logistic must reproduce them bit for bit
def _softplus_reference(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _sigmoid_reference(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


_edge_floats = st.sampled_from([0.0, -0.0, 709.0, -709.0, 710.0, -710.0, 1e308, -1e308,
                                5e-324, -5e-324])
_softplus_inputs = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=3, max_side=5),
    elements=_edge_floats | st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@given(x=_softplus_inputs, seed=st.integers(0, 2**16))
def test_softplus_values_and_gradient_bits_match_reference(x, seed):
    # weights of at most 1 / (2 size) keep the weighted sum of outputs up to
    # 1e308 finite
    w = np.random.default_rng(seed).uniform(-1.0, 1.0, x.shape) / (2 * x.size)
    tape = Tape()
    leaf = tape.leaf(x)
    out = T.softplus(leaf)
    assert np.array_equal(_bits(out.values), _bits(_softplus_reference(x)))
    grad = backward(tape, T.tsum(T.mul(out, Tensor(w))))[leaf.node_id]
    assert np.array_equal(_bits(grad), _bits(w * _sigmoid_reference(x)))


def test_softplus_gradcheck_at_large_magnitudes():
    x = np.array([-710.0, -709.0, -700.0, -40.0, -25.0, 25.0, 40.0, 700.0, 709.0, 710.0])
    assert _gradcheck(lambda x: T.tsum(T.softplus(x)), x=x) <= 1e-6


# -- the fused softplus sum over a product block --------------------------------

def _chunk_rows(rows, n, lead=()):
    """Patch the fused op's chunk to ``rows`` rows of n partners in every
    leading slice."""
    return mock.patch.object(T, "_CHUNK_BYTES", 8 * n * math.prod(lead) * rows)


@given(rows=st.integers(1, 4), m=st.integers(1, 13), n=st.integers(1, 5), d=dims,
       lead=hnp.array_shapes(min_dims=0, max_dims=3, max_side=3),
       tracked=st.sampled_from(["a", "b", "ab"]), seed=st.integers(0, 2**16))
@example(rows=3, m=1, n=4, d=2, lead=(), tracked="ab", seed=0)   # m = 1, below the chunk
@example(rows=3, m=3, n=1, d=2, lead=(), tracked="ab", seed=1)   # n = 1, one full chunk
@example(rows=3, m=7, n=4, d=3, lead=(), tracked="ab", seed=2)   # chunks of 3, 3 and 1
@example(rows=2, m=6, n=3, d=1, lead=(), tracked="ab", seed=3)   # a multiple of the chunk
@example(rows=3, m=2, n=4, d=2, lead=(4,), tracked="ab", seed=4)  # below the chunk, batched
@example(rows=3, m=7, n=2, d=3, lead=(2, 3), tracked="ab", seed=5)  # across chunks, batched
@example(rows=2, m=4, n=3, d=2, lead=(3, 1, 2), tracked="ab", seed=6)  # a multiple, 3 axes
def test_softplus_sum_of_products_matches_dense_reference(rows, m, n, d, lead, tracked, seed):
    # b's entries up to 710 give scores of either sign beyond 710, where
    # exp(|s|) overflows; values and gradients agree within 1e-12 of the
    # largest entry. A chunk row spans every leading slice
    rng = np.random.default_rng(seed)
    a, b = rng.uniform(-1.0, 1.0, (*lead, m, d)), rng.uniform(-710.0, 710.0, (*lead, n, d))
    swap = (*range(len(lead)), len(lead) + 1, len(lead))

    def run(fn):
        tape = Tape()
        x = tape.leaf(a) if "a" in tracked else Tensor(a)
        y = tape.leaf(b) if "b" in tracked else Tensor(b)
        out = fn(x, y)
        grads = backward(tape, out)
        return out.item(), [grads[t.node_id] for t in (x, y) if t.tape is not None]

    with _chunk_rows(rows, n, lead):
        value, grads = run(T.softplus_sum_of_products)
    want_value, want_grads = run(
        lambda x, y: T.tsum(T.softplus(T.matmul(x, T.transpose(y, swap)))))
    assert value == pytest.approx(want_value, rel=1e-12)
    for got, want in zip(grads, want_grads, strict=True):
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, np.abs(want).max()))


def test_softplus_sum_of_products_gradcheck_across_chunks():
    rng = np.random.default_rng(3)
    with _chunk_rows(2, 3):
        err = _gradcheck(T.softplus_sum_of_products,
                         a=rng.standard_normal((5, 2)), b=3.0 * rng.standard_normal((3, 2)))
    assert err <= 1e-6


@pytest.mark.parametrize("a, b", [
    ([[1e308, 1e308]], [[1e308, 1e308]]),      # a score of +inf
    ([[1e308, 1e308]], [[-1e308, -1e308]]),    # -inf, which adds 0 to the softplus sum
    ([[1e308, 1e308]], [[1e308, -1e308]]),     # inf - inf: nan
    ([[1e154]], [[1e154], [1e154]]),           # finite scores whose sum overflows
])
def test_softplus_sum_of_products_overflow_names_the_op(a, b):
    # pyproject turns a RuntimeWarning into an error, so none escapes
    with pytest.raises(NumericError, match="softplus-sum-of-products: non-finite"):
        T.softplus_sum_of_products(Tensor(a), Tensor(b))


def test_softplus_sum_of_products_without_a_tape_is_a_constant():
    out = T.softplus_sum_of_products(Tensor(np.ones((2, 3))), Tensor(np.ones((4, 3))))
    assert out.tape is None and out.node_id is None
    assert out.item() == pytest.approx(8 * np.log1p(np.exp(3.0)), rel=1e-15)


# -- the fused attention pooling -------------------------------------------------

def _pool_composed(a, h, plan):
    """pool_outer as the representor built it before: one (m, p, width) block."""
    (m, p), width = a.shape, h.shape[1]
    return T.index_add(T.mul(T.reshape(a, (m, p, 1)), T.reshape(h, (m, 1, width))), plan)


def _pool_run(op, av, hv, gv, plan):
    """op's value and the gradients of <op(a, h), gv> for a and h; the
    gradient reaching op is gv, bit for bit."""
    tape = Tape()
    a, h = tape.leaf(av), tape.leaf(hv)
    out = op(a, h, plan)
    grads = backward(tape, T.tsum(T.mul(out, Tensor(gv))))
    return out.values, grads[a.node_id], grads[h.node_id]


def _spread(rng, shape):
    """Magnitudes 1e-8 to 1e8 apart and signed zeros, so any change of
    product, summation order or zero sign shows in the bits."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
    return np.where(rng.random(shape) < 0.25, np.copysign(0.0, x), x)


_EPS = np.finfo(np.float64).eps


def _assert_within_rounding(got, want, ref_abs, terms):
    """Each element of got lies within ``2 * terms * eps * ref_abs`` of
    want, where terms is the largest number of products an element sums and
    ref_abs the reference chain on the inputs' absolute values: the bound
    on two sums of those products in any two orders. Zeros of either sign
    compare equal."""
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 2 * terms * _EPS * ref_abs)


def _check_pool_outer(av, hv, gv, plan):
    """pool_outer's value and both gradients against the composed chain,
    within the rounding of their sums: bucket sizes for the value, width
    for a's gradient and p for h's."""
    got = _pool_run(T.pool_outer, av, hv, gv, plan)
    want = _pool_run(_pool_composed, av, hv, gv, plan)
    ref_abs = _pool_run(_pool_composed, np.abs(av), np.abs(hv), np.abs(gv), plan)
    terms = (np.bincount(plan.index, minlength=plan.n).max(initial=0), hv.shape[1], av.shape[1])
    for x, y, ref, k in zip(got, want, ref_abs, terms, strict=True):
        _assert_within_rounding(x, y, ref, k)


@given(index=st.lists(st.integers(0, 3), max_size=12), p=st.integers(1, 9),
       width=st.integers(1, 9), seed=st.integers(0, 2**16))
@example(index=[0, 1], p=2, width=3, seed=0)            # two single-row buckets, two empty
@example(index=[0, 0, 1], p=2, width=3, seed=1)         # buckets of 2 and 1 rows
@example(index=[2, 0, 2, 1, 2, 2, 3], p=3, width=2, seed=2)  # 4 interleaved rows and three of 1
@example(index=[1, 0, 1, 1, 0, 3], p=2, width=2, seed=3)     # three sizes and an empty bucket
@example(index=[0, 2, 2], p=1, width=4, seed=4)         # one group: no sum for h
@example(index=[0, 2, 2], p=4, width=1, seed=5)         # width 1: no sum for a
def test_pool_outer_matches_composed_pooling_within_rounding(index, p, width, seed):
    # buckets of unequal size, single-row and empty buckets, signed zeros
    # and magnitudes 1e-8..1e8 apart; p and width up to 9 reach numpy's
    # 8-way pairwise summation
    rng = np.random.default_rng(seed)
    plan = T.RowSum(index, 4)
    av, hv = _spread(rng, (len(index), p)), _spread(rng, (len(index), width))
    _check_pool_outer(av, hv, _spread(rng, (4, p, width)), plan)


def test_pool_outer_memory_on_a_skewed_batch(traced_peak):
    # 127 graphs of 14 nodes and one of 400, p=4, width 32: one forward and
    # backward holds its inputs' gradients and one size class's gathered
    # rows and products. This reads 2.8 (N, 32) blocks; the chunked
    # backward read 3.4, and padding every graph to 400 rows about 27
    sizes = [14] * 127 + [400]
    m, p, width = sum(sizes), 4, 32
    plan = T.RowSum(np.repeat(np.arange(len(sizes)), sizes), len(sizes))
    rng = np.random.default_rng(0)
    av, hv = rng.standard_normal((m, p)), rng.standard_normal((m, width))
    gv = rng.standard_normal((len(sizes), p, width))

    def forward_backward():
        _pool_run(T.pool_outer, av, hv, gv, plan)

    forward_backward()          # the plan's size classes stay out of the count
    peak = traced_peak(forward_backward)
    assert peak < 4 * m * width * 8, f"peak {peak / (m * width * 8):.2f} blocks"


def test_pool_outer_gradcheck_across_chunks():
    rng = np.random.default_rng(6)
    plan = T.RowSum([1, 0, 1, 2, 1], 3)
    w = rng.standard_normal((3, 2, 3))
    with mock.patch.object(T, "_CHUNK_BYTES", 8 * 2 * 3 * 2):    # chunks of 2, 2 and 1 rows
        err = _gradcheck(lambda a, h: T.tsum(T.mul(T.pool_outer(a, h, plan), Tensor(w))),
                         a=rng.standard_normal((5, 2)), h=rng.standard_normal((5, 3)))
    assert err <= 1e-6


@pytest.mark.parametrize("a, h", [
    ([[1e200]], [[1e200]]),                    # a product of +inf
    ([[1e200], [1e200]], [[1e200], [-1e200]]), # inf - inf in one bucket: nan
    ([[1e308], [1e308]], [[1.0], [1.0]]),      # finite products whose sum overflows
])
def test_pool_outer_overflow_names_the_op(a, h):
    # pyproject turns a RuntimeWarning into an error, so none escapes
    with pytest.raises(NumericError, match="pool-outer: non-finite output"):
        T.pool_outer(Tensor(a), Tensor(h), T.RowSum([0] * len(a), 1))


@pytest.mark.parametrize("a_shape, h_shape", [
    ((3, 2), (3, 4)),       # three rows, a plan over two
    ((2, 2), (3, 4)),       # a and h disagree
    ((2,), (2, 4)),         # a is not a matrix
    ((2, 2), (2, 4, 1)),    # nor is h
])
def test_pool_outer_rejects_rows_that_do_not_match_the_plan(a_shape, h_shape):
    with pytest.raises(DimensionError, match="pool-outer: plan over 2 rows"):
        T.pool_outer(Tensor(np.ones(a_shape)), Tensor(np.ones(h_shape)), T.RowSum([0, 1], 2))


@given(shape=st.lists(dims, min_size=1, max_size=3), data=st.data(),
       mean=st.booleans(), keepdims=st.booleans())
def test_sum_and_mean_leaf_gradients_are_owned_and_writable(shape, data, mean, keepdims):
    # the vjps hand back broadcast views; backward gives every leaf its own
    # writable array of its shape, also when one array reaches two leaves
    axis = data.draw(st.none() | st.integers(0, len(shape) - 1))
    reduce = T.tmean if mean else T.tsum
    tape = Tape()
    a, b = tape.leaf(np.ones(shape)), tape.leaf(np.ones(shape))
    loss = T.tsum(reduce(T.add(a, b), axis=axis, keepdims=keepdims))
    grads = backward(tape, loss)
    ga, gb = grads[a.node_id], grads[b.node_id]
    for g in (ga, gb):
        assert g.shape == tuple(shape)
        assert g.flags.writeable and g.flags.owndata
    expected = 1.0 / (np.prod(shape) if axis is None else shape[axis]) if mean else 1.0
    assert np.all(ga == expected) and np.all(gb == expected)
    ga += 1.0
    assert np.all(gb == expected)


# -- the fused ReLU perceptron ----------------------------------------------------

_MLP_INPUTS = ("x", "w1", "b1", "w2", "b2")


def _mlp_composed(x, w1, b1, w2, b2):
    """mlp as GIN layers and the variational nets built it before."""
    return T.add(T.matmul(T.relu(T.add(T.matmul(x, w1), b1)), w2), b2)


def _mlp_run(op, arrays, gv, tracked):
    """op's value and the gradients of <op(...), gv> for the tracked inputs;
    the gradient reaching op is gv, bit for bit."""
    tape = Tape()
    ins = {k: tape.leaf(v) if k in tracked else Tensor(v) for k, v in arrays.items()}
    out = op(*(ins[k] for k in _MLP_INPUTS))
    grads = backward(tape, T.tsum(T.mul(out, Tensor(gv))))
    return [out.values] + [grads[ins[k].node_id] for k in _MLP_INPUTS if k in tracked]


def _small_integers(rng, shape):
    """Entries in {-2, -1, -0.0, 0.0, 1, 2}: sums cancel to exact zeros of
    either sign, so pre-activations land on the ReLU's kink."""
    return rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], shape)


@given(n=st.integers(0, 6), d=st.integers(1, 9), h=st.integers(1, 9), k=st.integers(1, 9),
       integers=st.booleans(), seed=st.integers(0, 2**16))
@example(n=5, d=3, h=4, k=2, integers=True, seed=0)
@example(n=0, d=2, h=3, k=2, integers=False, seed=1)    # no rows
def test_mlp_is_byte_equal_to_the_composed_chain(n, d, h, k, integers, seed):
    # signed zeros and magnitudes 1e-8..1e8 apart, or small integers whose
    # sums hit exact zeros; every subset of the inputs is tracked in turn,
    # so each vjp also runs without the others
    rng = np.random.default_rng(seed)
    draw = _small_integers if integers else _spread
    arrays = {"x": draw(rng, (n, d)), "w1": draw(rng, (d, h)), "b1": draw(rng, (h,)),
              "w2": draw(rng, (h, k)), "b2": draw(rng, (k,))}
    gv = draw(rng, (n, k))
    for size in range(len(_MLP_INPUTS) + 1):
        for tracked in itertools.combinations(_MLP_INPUTS, size):
            got = _mlp_run(T.mlp, arrays, gv, tracked)
            want = _mlp_run(_mlp_composed, arrays, gv, tracked)
            for x, y in zip(got, want, strict=True):
                assert x.shape == y.shape and _bits(x).tobytes() == _bits(y).tobytes()


def test_mlp_integer_example_reaches_the_kink_and_both_zero_signs():
    # the integer example above puts pre-activations exactly on 0, and its
    # hidden block holds 0.0 and, from negative pre-activations, -0.0
    rng = np.random.default_rng(0)
    x, w1, b1 = (_small_integers(rng, shape) for shape in ((5, 3), (3, 4), (4,)))
    pre = x @ w1 + b1
    hidden = pre * (pre > 0)
    assert np.any(pre == 0.0)
    assert np.any(_bits(hidden) == _bits(0.0)) and np.any(_bits(hidden) == _bits(-0.0))


def test_mlp_gradcheck():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((4, 2))
    err = _gradcheck(lambda x, w1, b1, w2, b2: T.tsum(T.mul(T.mlp(x, w1, b1, w2, b2), Tensor(w))),
                     x=rng.standard_normal((4, 3)), w1=rng.standard_normal((3, 5)),
                     b1=rng.standard_normal(5), w2=rng.standard_normal((5, 2)),
                     b2=rng.standard_normal(2))
    assert err <= 1e-6


@pytest.mark.parametrize("x, w1, b1, w2, message", [
    ([[1e200]], [[1e200]], [0.0], [[1.0]], "hidden block"),               # +inf
    ([[1e200]], [[-1e200]], [0.0], [[1.0]], "hidden block"),              # -inf: nan after the mask
    ([[1e200, 1e200]], [[1e200], [-1e200]], [0.0], [[1.0]], "hidden block"),  # inf - inf
    ([[1e308]], [[1.0]], [1e308], [[1.0]], "hidden block"),               # the bias overflows it
    ([[1e200]], [[1.0]], [0.0], [[1e200]], "output"),                     # the second product
])
def test_mlp_overflow_names_the_op(x, w1, b1, w2, message):
    # pyproject turns a RuntimeWarning into an error, so none escapes
    with pytest.raises(NumericError, match=f"mlp: non-finite {message}"):
        T.mlp(Tensor(x), Tensor(w1), Tensor(b1), Tensor(w2), Tensor([0.0]))


# -- the fused own-node scores ----------------------------------------------------

def _gathered_dot_composed(uv, rv, gv, plan):
    """gathered_dot's value and gradients for the output gradient gv by the
    chain it replaced, each step's forward or vjp expression in numpy: the
    gather ``u[index]``, whose vjp is ``plan.sum``, then the batched matmul
    with r as (m, d, 1)."""
    (n, p, d), m = uv.shape, len(rv)
    gathered = uv.reshape(n, p * d)[plan.index].reshape(m, p, d)
    r3 = rv.reshape(m, d, 1)
    gu = plan.sum((gv @ np.swapaxes(r3, -1, -2)).reshape(m, p * d)).reshape(n, p, d)
    return gathered @ r3, gu, (np.swapaxes(gathered, -1, -2) @ gv).reshape(m, d)


def _gathered_dot_run(uv, rv, gv, plan, tracked):
    """gathered_dot's value and the gradients of <gathered_dot(u, r), gv>
    for the tracked inputs."""
    tape = Tape()
    u = tape.leaf(uv) if "u" in tracked else Tensor(uv)
    r = tape.leaf(rv) if "r" in tracked else Tensor(rv)
    out = T.gathered_dot(u, r, plan)
    grads = backward(tape, T.tsum(T.mul(out, Tensor(gv))))
    return [out.values] + [grads[t.node_id] for t in (u, r) if t.tape is not None]


def _check_gathered_dot(uv, rv, gv, plan, tracked):
    """gathered_dot's value and tracked gradients against the composed
    chain, within the rounding of their sums: d for the scores, bucket
    sizes for u's gradient and p for r's."""
    got = _gathered_dot_run(uv, rv, gv, plan, tracked)
    want = _gathered_dot_composed(uv, rv, gv, plan)
    ref_abs = _gathered_dot_composed(np.abs(uv), np.abs(rv), np.abs(gv), plan)
    (p, d), largest = uv.shape[1:], np.bincount(plan.index, minlength=plan.n).max(initial=0)
    picked = [(0, d)] + [(i, k) for i, (name, k) in enumerate((("u", largest), ("r", p)), 1)
                         if name in tracked]
    assert len(got) == len(picked)
    for x, (i, k) in zip(got, picked):
        _assert_within_rounding(x, want[i], ref_abs[i], k)


@given(index=st.lists(st.integers(0, 3), max_size=12), p=st.integers(1, 9),
       d=st.integers(1, 9), tracked=st.sampled_from(["u", "r", "ur"]),
       seed=st.integers(0, 2**16))
@example(index=[0, 1], p=2, d=3, tracked="ur", seed=0)            # two single-row buckets
@example(index=[0, 0, 1], p=2, d=3, tracked="ur", seed=1)         # buckets of 2 and 1 rows
@example(index=[2, 0, 2, 1, 2, 2, 3], p=3, d=2, tracked="ur", seed=2)  # 4 interleaved rows
@example(index=[1, 0, 1, 1, 0, 3], p=2, d=2, tracked="ur", seed=3)     # three sizes, one empty
@example(index=[0, 2, 2], p=1, d=4, tracked="ur", seed=4)         # one group
@example(index=[], p=2, d=2, tracked="ur", seed=5)                # no rows
def test_gathered_dot_matches_gather_then_matmul_within_rounding(index, p, d, tracked, seed):
    # buckets of unequal size, single-row and empty buckets, signed zeros
    # and magnitudes 1e-8..1e8 apart; p and d up to 9 reach numpy's 8-way
    # pairwise summation
    rng = np.random.default_rng(seed)
    plan = T.RowSum(index, 4)
    uv, rv = _spread(rng, (4, p, d)), _spread(rng, (len(index), d))
    _check_gathered_dot(uv, rv, _spread(rng, (len(index), p, 1)), plan, tracked)


@st.composite
def _skewed_plans(draw):
    """A plan over buckets of many distinct sizes, empty and single-row
    ones among them, and one far larger than the rest, its rows either
    contiguous by bucket, as a batch lists a graph's nodes, or shuffled."""
    sizes = [0, 1, *draw(st.lists(st.integers(0, 9), min_size=2, max_size=10)),
             draw(st.integers(40, 120))]
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    index = np.repeat(rng.permutation(len(sizes)), sizes)
    if draw(st.booleans()):
        index = rng.permutation(index)
    return T.RowSum(index, len(sizes))


@given(plan=_skewed_plans(), p=st.integers(1, 5), width=st.integers(1, 9),
       seed=st.integers(0, 2**16))
def test_fused_ops_match_composed_chains_on_skewed_buckets(plan, p, width, seed):
    rng = np.random.default_rng(seed)
    m, n = len(plan.index), plan.n
    _check_pool_outer(_spread(rng, (m, p)), _spread(rng, (m, width)),
                      _spread(rng, (n, p, width)), plan)
    _check_gathered_dot(_spread(rng, (n, p, width)), _spread(rng, (m, width)),
                        _spread(rng, (m, p, 1)), plan, "ur")


@pytest.mark.parametrize("u, r", [
    ([[[1e200]]], [[1e200]]),                      # a product of +inf
    ([[[1e200, 1e200]]], [[1e200, -1e200]]),       # inf - inf in one score: nan
    ([[[1e308, 1e308]]], [[1.0, 1.0]]),            # finite products whose sum overflows
])
def test_gathered_dot_overflow_names_the_op(u, r):
    # pyproject turns a RuntimeWarning into an error, so none escapes
    with pytest.raises(NumericError, match="gathered-dot: non-finite output"):
        T.gathered_dot(Tensor(u), Tensor(r), T.RowSum([0], 1))


# -- the fused CLUB quadratic term ------------------------------------------------

_SQ_DIST_INPUTS = ("u", "mu", "w")


def _sq_dist_composed(u, mu, w):
    """pairwise_weighted_sq_dist as the CLUB expression built it before."""
    b, p, d = u.shape
    resid = T.square(T.sub(T.reshape(u, (b, 1, p, d)), T.reshape(mu, (b, p, 1, d))))
    weighted = T.mul(resid, T.reshape(w, (b, p, 1, d)))
    return T.tsum(T.mul(weighted, Tensor((1.0 - np.eye(p))[:, :, None])))


def _sq_dist_run(op, arrays, gv, tracked):
    """op's value and the gradients of ``op(...) * gv`` for the tracked
    inputs; the gradient reaching op is gv, bit for bit."""
    tape = Tape()
    ins = {k: tape.leaf(v) if k in tracked else Tensor(v) for k, v in arrays.items()}
    out = op(*(ins[k] for k in _SQ_DIST_INPUTS))
    grads = backward(tape, T.mul(out, Tensor(gv)))
    return [out.values] + [grads[ins[k].node_id] for k in _SQ_DIST_INPUTS if k in tracked]


@given(b=st.integers(1, 3), p=st.integers(1, 9), d=st.integers(1, 4),
       g=st.sampled_from([1.0, -1.0, 0.0, -0.0]) | st.floats(-1e8, 1e8),
       seed=st.integers(0, 2**16))
@example(b=2, p=1, d=3, g=-1.0, seed=0)     # one group: every entry masked
@example(b=1, p=3, d=1, g=-0.0, seed=1)     # a -0.0 gradient
@example(b=2, p=9, d=2, g=0.5, seed=2)      # 9 groups: an 8-way pairwise sum
def test_pairwise_weighted_sq_dist_is_byte_equal_to_the_composed_chain(b, p, d, g, seed):
    # signed zeros and magnitudes 1e-8..1e8 apart; every subset of the
    # inputs is tracked in turn, so each vjp also runs without the others
    rng = np.random.default_rng(seed)
    arrays = {name: _spread(rng, (b, p, d)) for name in _SQ_DIST_INPUTS}
    for size in range(len(_SQ_DIST_INPUTS) + 1):
        for tracked in itertools.combinations(_SQ_DIST_INPUTS, size):
            got = _sq_dist_run(T.pairwise_weighted_sq_dist, arrays, g, tracked)
            want = _sq_dist_run(_sq_dist_composed, arrays, g, tracked)
            for x, y in zip(got, want, strict=True):
                assert x.shape == y.shape and _bits(x).tobytes() == _bits(y).tobytes()


def test_pairwise_weighted_sq_dist_one_group_example_keeps_negative_zeros():
    # at one group every entry is masked: each gradient is a zero of the
    # sign the composed vjps give it, and the example above reaches -0.0
    rng = np.random.default_rng(0)
    arrays = {name: _spread(rng, (2, 1, 3)) for name in _SQ_DIST_INPUTS}
    grads = _sq_dist_run(T.pairwise_weighted_sq_dist, arrays, -1.0, _SQ_DIST_INPUTS)[1:]
    assert all(np.all(g == 0.0) for g in grads)
    assert any(np.any(_bits(g) == _bits(-0.0)) for g in grads)


def test_pairwise_weighted_sq_dist_matches_its_definition_and_gradcheck():
    rng = np.random.default_rng(11)
    u, mu, w = (rng.standard_normal((2, 3, 4)) for _ in range(3))
    want = sum((u[g, j] - mu[g, k]) ** 2 @ w[g, k]
               for g in range(2) for k in range(3) for j in range(3) if j != k)
    got = T.pairwise_weighted_sq_dist(Tensor(u), Tensor(mu), Tensor(w)).item()
    assert got == pytest.approx(want, rel=1e-12)
    assert _gradcheck(T.pairwise_weighted_sq_dist, u=u, mu=mu, w=w) <= 1e-6


@pytest.mark.parametrize("u, mu, w", [
    ([[[1e308], [0.0]]], [[[-1e308], [0.0]]], [[[1.0], [1.0]]]),   # a residual of inf
    ([[[1e200], [0.0]]], [[[0.0], [0.0]]], [[[1.0], [1.0]]]),      # its square overflows
    ([[[1e100], [0.0]]], [[[0.0], [0.0]]], [[[1.0], [1e300]]]),    # the weighting overflows
    ([[[1e200], [-1e200]]], [[[-1e200], [1e200]]], [[[1.0], [1.0]]]),  # the masked diagonal only
    ([[[1e154, 1e154], [0.0, 0.0]]], [[[0.0, 0.0], [0.0, 0.0]]],
     [[[1.0, 1.0], [1.0, 1.0]]]),                                  # two entries of 1e308
])
def test_pairwise_weighted_sq_dist_overflow_names_the_op(u, mu, w):
    # pyproject turns a RuntimeWarning into an error, so none escapes
    with pytest.raises(NumericError, match="pairwise-weighted-sq-dist: non-finite output"):
        T.pairwise_weighted_sq_dist(Tensor(u), Tensor(mu), Tensor(w))
