import gc
import weakref

import numpy as np
import pytest
from hypothesis import given
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


@given(rows=st.integers(1, 5), tail=st.lists(dims, max_size=2), data=st.data(),
       seed=st.integers(0, 2**16))
def test_take_rows_gradcheck(rows, tail, data, seed):
    # repeated and empty index vectors included
    index = data.draw(st.lists(st.integers(0, rows - 1), max_size=6))
    plan = T.RowSum(index, rows)
    x = _array(seed, (rows, *tail))
    out = T.take_rows(Tensor(x), plan)
    assert np.array_equal(out.values, x[np.array(index, dtype=int)])
    w = _array(seed + 1, out.shape)
    err = _gradcheck(lambda x: T.tsum(T.mul(T.take_rows(x, plan), Tensor(w))), x=x)
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


def test_take_rows_and_index_add_are_adjoint():
    # <take_rows(x), y> == <x, index_add(y)> for any x, y
    rng = np.random.default_rng(5)
    plan = T.RowSum([2, 0, 2, 3, 2], 4)
    x, y = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
    lhs = (T.take_rows(Tensor(x), plan).values * y).sum()
    rhs = (x * T.index_add(Tensor(y), plan).values).sum()
    assert lhs == pytest.approx(rhs, abs=1e-12)


def test_index_add_rejects_index_length_mismatch():
    with pytest.raises(DimensionError):
        T.index_add(Tensor(np.ones((3, 2))), T.RowSum([0, 1], 4))
    with pytest.raises(DimensionError, match="take-rows"):
        T.take_rows(Tensor(np.ones((3, 2))), T.RowSum([0, 1], 4))


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
    composed = T.index_add(T.take_rows(Tensor(x), T.RowSum(src, nodes)), by_dst)
    assert y.values.tobytes() == composed.values.tobytes()
    assert grad.tobytes() == T.neighbour_sum(Tensor(w), by_dst, src).values.tobytes()
    err = _gradcheck(lambda x: T.tsum(T.mul(T.neighbour_sum(x, by_dst, src), Tensor(w))), x=x)
    assert err <= 1e-6


# -- softplus and the sum vjps: values, bits and gradient ownership ------------

# the plain expressions softplus is defined by; the in-place kernel must
# reproduce them bit for bit
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
