"""Dense float64 tensors with recorded reverse-mode differentiation.

A ``Tape`` records every primitive applied to differentiable tensors during
one forward pass; ``backward`` replays it once in reverse to produce
gradients for all leaves, dropping each entry, and the forward arrays its
vjps hold, as soon as they have run. Tensors without a tape are constants
and carry no gradient.
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
from typing import Callable

import numpy as np


class DimensionError(ValueError):
    """Input shapes do not conform to a primitive's shape rules."""


class NumericError(ArithmeticError):
    """A primitive produced (or received) non-finite values."""


class ContractError(ValueError):
    """A caller violated an operation contract (e.g. non-scalar loss)."""


class Tape:
    """Single-writer record of one forward computation, walked once.
    ``len`` counts the recorded entries, also after the walk has dropped
    them."""

    def __init__(self):
        self._entries: list[tuple[int, list[tuple[int, Callable]]]] | None = []
        self._leaf_shapes: dict[int, tuple[int, ...]] = {}
        self._next = 0
        self._recorded = 0

    def _new_id(self) -> int:
        i = self._next
        self._next += 1
        return i

    def leaf(self, values) -> "Tensor":
        """Register a differentiable leaf (a trainable parameter)."""
        t = Tensor(values, tape=self, node_id=self._new_id())
        self._leaf_shapes[t.node_id] = t.values.shape
        return t

    def _record(self, out_id: int, parents: list[tuple[int, Callable]]):
        if self._entries is None:
            raise ContractError("tape: already walked by backward")
        self._entries.append((out_id, parents))
        self._recorded += 1

    def __len__(self):
        return self._recorded


class Tensor:
    """Dense real tensor, optionally attached to a computation tape."""

    __slots__ = ("values", "tape", "node_id")

    def __init__(self, values, tape: Tape | None = None, node_id: int | None = None):
        arr = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NumericError("tensor holds non-finite values")
        self.values = arr
        self.tape = tape
        self.node_id = node_id

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    def item(self) -> float:
        return float(self.values.reshape(-1)[0])

    def __repr__(self):
        kind = "leaf/op" if self.tape is not None else "const"
        return f"Tensor(shape={self.shape}, {kind})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _result(op: str, out: np.ndarray, parents: list[tuple[Tensor, Callable]],
            moves_only: bool = False) -> Tensor:
    """Wrap a primitive output, recording it when any input is differentiable.
    The output is checked for finite values here, not again in Tensor(). An
    op that only moves, selects or negates values of its (already checked)
    inputs passes ``moves_only`` and skips the check: it cannot make a
    finite value non-finite."""
    res = Tensor.__new__(Tensor)
    res.values, res.tape, res.node_id = np.asarray(out, dtype=np.float64), None, None
    if not moves_only and not np.all(np.isfinite(res.values)):
        raise NumericError(f"{op}: non-finite output")
    tracked = [(t, vjp) for t, vjp in parents if t.tape is not None]
    if not tracked:
        return res
    tape = tracked[0][0].tape
    for t, _ in tracked[1:]:
        if t.tape is not tape:
            raise ContractError(f"{op}: inputs belong to different tapes")
    res.tape, res.node_id = tape, tape._new_id()
    tape._record(res.node_id, [(t.node_id, vjp) for t, vjp in tracked])
    return res


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a gradient down to the shape of a broadcast input."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# primitives


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as in
    ``numpy.matmul``."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim < 2 or b.values.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} @ {b.shape}")
    av, bv = a.values, b.values
    try:
        out = av @ bv
    except ValueError as exc:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} @ {b.shape}") from exc
    a_shape, b_shape = a.shape, b.shape
    return _result("matmul", out, [
        (a, lambda g: _unbroadcast(g @ np.swapaxes(bv, -1, -2), a_shape)),
        (b, lambda g: _unbroadcast(np.swapaxes(av, -1, -2) @ g, b_shape)),
    ])


def add(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.values + b.values
    except ValueError as exc:
        raise DimensionError(f"add: shapes {a.shape} + {b.shape}") from exc
    # the vjps keep the shapes, not the tensors: a tensor points back to its
    # tape, so holding one would make every tape cyclic garbage
    a_shape, b_shape = a.shape, b.shape
    return _result("add", out, [
        (a, lambda g: _unbroadcast(g, a_shape)),
        (b, lambda g: _unbroadcast(g, b_shape)),
    ])


def sub(a: Tensor, b: Tensor) -> Tensor:
    return add(a, neg(b))


def mul(a: Tensor, b: Tensor) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    try:
        out = a.values * b.values
    except ValueError as exc:
        raise DimensionError(f"elementwise-multiply: shapes {a.shape} * {b.shape}") from exc
    av, bv = a.values, b.values
    a_shape, b_shape = a.shape, b.shape
    return _result("elementwise-multiply", out, [
        (a, lambda g: _unbroadcast(g * bv, a_shape)),
        (b, lambda g: _unbroadcast(g * av, b_shape)),
    ])


def smul(a: Tensor, c: float) -> Tensor:
    a = _as_tensor(a)
    c = float(c)
    return _result("scalar-multiply", c * a.values, [(a, lambda g: c * g)])


def neg(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    return _result("negate", -a.values, [(a, lambda g: -g)], moves_only=True)


def square(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    av = a.values
    return _result("square", av * av, [(a, lambda g: 2.0 * av * g)])


def transpose(a: Tensor, axes: tuple[int, ...] | None = None) -> Tensor:
    """Matrix transpose, or the axes permutation ``axes`` of any tensor."""
    a = _as_tensor(a)
    axes = (1, 0) if axes is None else tuple(axes)
    if sorted(axes) != list(range(a.values.ndim)):
        raise DimensionError(f"transpose: axes {axes} do not permute shape {a.shape}")
    inverse = tuple(np.argsort(axes))
    return _result("transpose", np.transpose(a.values, axes),
                   [(a, lambda g: np.transpose(g, inverse))], moves_only=True)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    in_shape = a.shape
    try:
        out = a.values.reshape(shape)
    except ValueError as exc:
        raise DimensionError(f"reshape: cannot reshape {in_shape} to {shape}") from exc
    return _result("reshape", out, [(a, lambda g: g.reshape(in_shape))], moves_only=True)


def relu(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    # a bool mask multiplies as 1.0/0.0, at an eighth of the memory
    mask = a.values > 0
    return _result("relu", a.values * mask, [(a, lambda g: g * mask)])


def mlp(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """``add(matmul(relu(add(matmul(x, w1), b1)), w2), b2)`` as one op, bit
    for bit, for x (n, d), weights (d, h) and (h, k) and biases (h,) and (k,).

    Each step is the ufunc of the composed chain, in place where the chain
    would allocate; the ReLU multiplies by the ``pre > 0`` mask, as ``relu``
    does, so a -0.0 keeps its sign. The op keeps x, not the (n, h) hidden
    block: the first tracked vjp of a backward pass recomputes the
    pre-activation, the mask and the hidden block, at the cost of one
    x @ w1, and takes every tracked input's gradient with the expression of
    the composed vjp. The rest hand theirs out, and the last one leaves
    nothing behind. A non-finite hidden block raises, as the composed
    matmul, add or relu would.
    """
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    xv, w1v, b1v, w2v, b2v = x.values, w1.values, b1.values, w2.values, b2.values
    if xv.ndim != 2 or w1v.ndim != 2 or w2v.ndim != 2 or xv.shape[1] != w1v.shape[0] \
            or b1v.shape != w1v.shape[1:] or w2v.shape[0] != w1v.shape[1] \
            or b2v.shape != w2v.shape[1:]:
        raise DimensionError(f"mlp: shapes x {x.shape}, w1 {w1.shape}, b1 {b1.shape}, "
                             f"w2 {w2.shape}, b2 {b2.shape} do not chain")
    # a non-finite block raises below, so numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        hidden, _ = _mlp_hidden(xv, w1v, b1v)
        if not np.isfinite(hidden.max(initial=0.0)):
            raise NumericError("mlp: non-finite hidden block")
        out = hidden @ w2v
        out += b2v
    del hidden
    # the inputs in the order the composed chain's backward reaches them
    inputs = {"b2": b2, "w2": w2, "b1": b1, "x": x, "w1": w1}
    return _result("mlp", out, _vjps_of_one_pass(
        inputs, lambda g, tracked: _mlp_grads(g, xv, w1v, b1v, w2v, tracked)))


def _vjps_of_one_pass(inputs: dict[str, Tensor], grads: Callable) -> list[tuple[Tensor, Callable]]:
    """The (input, vjp) parents of an op whose gradients come from one
    computation: ``grads(g, tracked)`` returns the gradient of each tracked
    input's name. Backward runs an entry's vjps once, one after another with
    one gradient, so the first calls grads and each takes its own; dropping
    the entry frees the rest."""
    tracked = {name for name, t in inputs.items() if t.tape is not None}
    computed: dict[str, np.ndarray] = {}

    def vjp(name):
        def take(g):
            if not computed:
                computed.update(grads(g, tracked))
            return computed[name]
        return take

    return [(t, vjp(name)) for name, t in inputs.items()]


def _mlp_hidden(xv: np.ndarray, w1v: np.ndarray, b1v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``relu(x @ w1 + b1)`` and its ``pre > 0`` mask, through one block."""
    hidden = xv @ w1v
    hidden += b1v
    mask = hidden > 0
    hidden *= mask
    return hidden, mask


def _mlp_grads(g: np.ndarray, xv: np.ndarray, w1v: np.ndarray, b1v: np.ndarray,
               w2v: np.ndarray, tracked: set[str]) -> dict[str, np.ndarray]:
    """The gradients of the tracked mlp inputs for the output gradient g,
    each by the expression of the composed chain's vjp."""
    hidden, mask = _mlp_hidden(xv, w1v, b1v)
    grads = {}
    if "b2" in tracked:
        grads["b2"] = g.sum(axis=0)
    if "w2" in tracked:
        grads["w2"] = np.swapaxes(hidden, -1, -2) @ g
    del hidden
    if tracked & {"b1", "x", "w1"}:
        gp = g @ np.swapaxes(w2v, -1, -2)
        gp *= mask
        if "b1" in tracked:
            grads["b1"] = gp.sum(axis=0)
        if "x" in tracked:
            grads["x"] = gp @ np.swapaxes(w1v, -1, -2)
        if "w1" in tracked:
            grads["w1"] = np.swapaxes(xv, -1, -2) @ gp
    return grads


def pairwise_weighted_sq_dist(u: Tensor, mu: Tensor, w: Tensor) -> Tensor:
    """The sum over g, k != l and i of ``(u[g, l, i] - mu[g, k, i])² *
    w[g, k, i]`` for blocks u, mu and w (B, p, d): ``tsum(mul(mul(square(
    sub(u as (B, 1, p, d), mu as (B, p, 1, d))), w as (B, p, 1, d)), mask))``
    bit for bit, where the (p, p, 1) mask is 0 on the diagonal k == l and 1
    off it.

    The forward forms the (B, p, p, d) block in one buffer, each step the
    ufunc of the composed chain in place, and sums it. The op keeps its
    three inputs, not the block: the first tracked vjp of a backward pass
    rebuilds the residuals and takes every tracked input's gradient with
    the expressions of the tsum, mask, w, square and sub vjps, in that
    order. The rest hand theirs out. A non-finite block raises through the
    sum, which a non-finite entry makes non-finite.
    """
    u, mu, w = (_as_tensor(t) for t in (u, mu, w))
    uv, muv, wv = u.values, mu.values, w.values
    if uv.ndim != 3 or muv.shape != uv.shape or wv.shape != uv.shape:
        raise DimensionError(f"pairwise-weighted-sq-dist: shapes u {u.shape}, mu {mu.shape} "
                             f"and w {w.shape} are not one (B, p, d)")
    mask = (1.0 - np.eye(uv.shape[1]))[:, :, None]
    with np.errstate(over="ignore", invalid="ignore"):
        block = np.subtract(uv[:, None], muv[:, :, None])
        np.multiply(block, block, out=block)
        block *= wv[:, :, None]
        block *= mask
        total = block.sum()
    return _result("pairwise-weighted-sq-dist", total, _vjps_of_one_pass(
        {"u": u, "mu": mu, "w": w},
        lambda g, tracked: _sq_dist_grads(g * mask, uv, muv, wv, tracked)))


def _sq_dist_grads(g_mask: np.ndarray, uv: np.ndarray, muv: np.ndarray, wv: np.ndarray,
                   tracked: set[str]) -> dict[str, np.ndarray]:
    """The gradients of the tracked pairwise_weighted_sq_dist inputs, where
    g_mask is the (p, p, 1) gradient of each masked entry: the composed
    chain's block gradients, each its vjp's expression, through at most
    two (B, p, p, d) blocks."""
    # the unbroadcast of a length-1 axis does not sum: a sum would turn
    # -0.0 into 0.0
    def fold(x, axis):
        return x.sum(axis=axis) if x.shape[axis] > 1 else x.squeeze(axis)

    grads = {}
    diff = np.subtract(uv[:, None], muv[:, :, None])
    if "w" in tracked:
        resid = diff * diff
        resid *= g_mask
        grads["w"] = fold(resid, 2)
        del resid
    if tracked & {"u", "mu"}:
        diff *= 2.0
        diff *= g_mask * wv[:, :, None]
        if "u" in tracked:
            grads["u"] = fold(diff, 1)
        if "mu" in tracked:
            grads["mu"] = np.negative(fold(diff, 2))
    return grads


def softplus(a: Tensor) -> Tensor:
    """Overflow-safe ``max(x, 0) + log1p(exp(-|x|))``; the vjp multiplies by
    the logistic ``0.5 * (1 + tanh(x / 2))``."""
    a = _as_tensor(a)
    x = a.values
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    sig = 0.5 * (np.tanh(0.5 * x) + 1.0)
    return _result("softplus", out, [(a, lambda g: g * sig)])


def exp(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    out = np.exp(a.values)
    return _result("exp", out, [(a, lambda g: g * out)])


def log(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    av = a.values
    if np.any(av <= 0):
        raise NumericError("log: non-positive input")
    return _result("log", np.log(av), [(a, lambda g: g / av)])


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape

    # the gradient is a read-only broadcast view, not a copy: no vjp writes
    # to its input, and backward copies what reaches a leaf
    def vjp(g):
        ge = g if axis is None or keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(ge, shape)

    return _result("sum", a.values.sum(axis=axis, keepdims=keepdims), [(a, vjp)])


# the byte budget of each of softplus_sum_of_products' three score
# buffers, whose chunk row spans every leading slice. It is 64 rows of 1792
# partners, the groupig-param benchmark's score block. The value stays
# because it fixes the order in which the op sums its chunks: another size
# moves GroupIG's bits
_CHUNK_BYTES = 64 * 1792 * 8

# glibc's mallopt parameters (malloc.h) and the heap policy set with them:
# a 32 MiB mmap threshold, glibc's largest, serves a step's multi-MB
# temporaries from the heap instead of fresh mmaps, and a 256 MiB trim
# threshold keeps the heap top that backward frees between steps; the
# process keeps that memory until it exits. Training steps faulted in
# 425-2057 fresh pages each under glibc's dynamic defaults and 0 under this
# policy on the three benchmark workloads; the trim threshold alone left
# about 1900 on groupcl-large
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@functools.cache
def _keep_heap() -> None:
    """Set the heap policy above, once per process, where the C library is
    glibc; elsewhere, or where mallopt cannot be found, do nothing."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc"):
            return
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, ValueError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


def softplus_sum_of_products(a: Tensor, b: Tensor) -> Tensor:
    """``tsum(softplus(matmul(a, swapaxes(b, -1, -2))))`` for blocks a
    (..., m, d) and b (..., n, d) with equal leading axes, without building
    the (..., m, n) score block.

    Row chunks of a, each row taken across every leading slice, pass
    through three reused buffers. Each chunk's scores s give
    ``e = exp(-|s|)`` once; the softplus is ``max(s, 0) + log1p(e)`` and
    its logistic ``exp(min(s, 0)) / (1 + e)``. The output is a scalar, so
    the vjps are ``g * (σ @ b)`` and ``g * (σᵀ @ a)``: for the inputs on a
    tape, both products are taken in the chunk loop, while the chunk is in
    cache. A non-finite score raises, as the product's own check would.
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.values.ndim < 2 or a.values.ndim != b.values.ndim \
            or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-1]:
        raise DimensionError(f"softplus-sum-of-products: shapes {a.shape} and {b.shape} "
                             "are not (..., m, d) and (..., n, d)")
    av, bv = a.values, b.values
    lead, (m, n) = av.shape[:-2], (av.shape[-2], bv.shape[-2])
    rows = max(1, min(m, _CHUNK_BYTES // (8 * max(n * math.prod(lead), 1))))
    s, e, t = (np.empty((*lead, rows, n)) for _ in range(3))
    grads = a.tape is not None or b.tape is not None
    if grads:
        ga, gb, gb_chunk = np.empty_like(av), np.zeros_like(bv), np.empty_like(bv)
    total = 0.0
    # a non-finite score raises at once; a sum that overflows is left to
    # the output's finiteness check
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, m, rows):
            ac = av[..., lo:lo + rows, :]
            k = ac.shape[-2]
            sc, ec, tc = s[..., :k, :], e[..., :k, :], t[..., :k, :]
            np.matmul(ac, np.swapaxes(bv, -1, -2), out=sc)
            np.abs(sc, out=ec)
            if not np.isfinite(ec.max(initial=0.0)):
                raise NumericError("softplus-sum-of-products: non-finite score")
            np.negative(ec, out=ec)
            np.exp(ec, out=ec)
            np.log1p(ec, out=tc)
            total += tc.sum()
            if grads:
                np.minimum(sc, 0.0, out=tc)
            np.maximum(sc, 0.0, out=sc)
            total += sc.sum()
            if grads:
                np.exp(tc, out=tc)
                ec += 1.0
                tc /= ec
                np.matmul(tc, bv, out=ga[..., lo:lo + rows, :])
                gb += np.matmul(np.swapaxes(tc, -1, -2), ac, out=gb_chunk)
    return _result("softplus-sum-of-products", total,
                   [(a, lambda g: g * ga), (b, lambda g: g * gb)])


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    shape = a.shape
    n = a.values.size if axis is None else shape[axis]

    def vjp(g):
        ge = g if axis is None or keepdims else np.expand_dims(g, axis)
        return np.broadcast_to(ge / n, shape)

    return _result("mean", a.values.mean(axis=axis, keepdims=keepdims), [(a, vjp)])


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("concat-along-axis: empty input list")
    out = np.concatenate([t.values for t in tensors], axis=axis)
    parents = []
    offset = 0
    for t in tensors:
        n = t.shape[axis]
        lo, hi = offset, offset + n

        def vjp(g, lo=lo, hi=hi):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            return g[tuple(sl)]

        parents.append((t, vjp))
        offset += n
    return _result("concat-along-axis", out, parents, moves_only=True)


def row_softmax(a: Tensor) -> Tensor:
    """Softmax along each row: the column softmax of the transpose, as one segment."""
    at = transpose(a)
    return transpose(segment_softmax(at, [(0, at.shape[0])]))


def segment_softmax(a: Tensor, segments: list[tuple[int, int]]) -> Tensor:
    """Column-wise softmax over the rows of each segment independently; the
    segments are non-empty and tile the rows in order."""
    a = _as_tensor(a)
    if a.values.ndim != 2:
        raise DimensionError(f"segment-row-softmax: expected matrix, got shape {a.shape}")
    starts, stops = np.array(segments, dtype=np.intp).reshape(-1, 2).T
    sizes = stops - starts
    if np.any(sizes <= 0) or not np.array_equal(starts, np.cumsum(sizes) - sizes) \
            or sizes.sum() != a.shape[0]:
        raise DimensionError("segment-row-softmax: segments must be non-empty and tile the rows")

    def per_row(reduce, y):
        return np.repeat(reduce.reduceat(y, starts, axis=0), sizes, axis=0)

    e = np.exp(a.values - per_row(np.maximum, a.values))
    out = e / per_row(np.add, e)
    return _result("segment-row-softmax", out,
                   [(a, lambda g: out * (g - per_row(np.add, g * out)))])


def row_l2_normalize(a: Tensor) -> Tensor:
    a = _as_tensor(a)
    if a.values.ndim != 2:
        raise DimensionError(f"row-L2-normalize: expected matrix, got shape {a.shape}")
    x = a.values
    # the vjp divides by the cubed norm: a row whose cube overflows (a norm
    # from about 5.6e102) would lose its projection term, and one whose
    # square overflows would come out as zeros
    with np.errstate(over="ignore"):
        norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
        bad = np.flatnonzero(~np.isfinite(norms**3))
    if bad.size:
        raise NumericError(f"row-L2-normalize: row {bad[0]} has a norm whose cube is not finite")
    # a row of near-zero norm has no direction: dividing it by inf maps it,
    # and its gradient, to zero
    norms[norms < 1e-12] = np.inf
    out = x / norms

    def vjp(g):
        dot = (g * x).sum(axis=1, keepdims=True)
        return g / norms - x * dot / norms**3

    return _result("row-L2-normalize", out, [(a, vjp)])


def slice_cols(a: Tensor, start: int, stop: int) -> Tensor:
    """Column slice of a matrix; supporting primitive for group extraction."""
    a = _as_tensor(a)
    if a.values.ndim != 2:
        raise DimensionError(f"slice-cols: expected matrix, got shape {a.shape}")
    shape = a.shape

    def vjp(g):
        gx = np.zeros(shape)
        gx[:, start:stop] = g
        return gx

    return _result("slice-cols", a.values[:, start:stop].copy(), [(a, vjp)], moves_only=True)


def _grouped(index: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows grouped by bucket, each bucket's in row order, by a stable
    sort, and the (n,) bucket sizes. numpy sorts a 16-bit key by radix,
    over ten times faster than a wider one."""
    grouped = np.argsort(index.astype(np.uint16) if n <= 1 << 16 else index, kind="stable")
    return grouped, np.bincount(index, minlength=n)


class RowSum:
    """Plan for summing the rows of an (m, ...) block into n rows: row i of
    the sum adds the rows j with ``index[j] == i``, the bucket of i.

    The plan groups the rows once. ``order`` lists them slot-major: slot k
    holds the k-th row, in row order, of every bucket of more than k rows,
    and the buckets are ranked largest first, so slot k fills a prefix of
    the ranked buckets. ``sum`` adds each slot to its prefix with one
    in-place add and un-ranks the result. Each bucket thus adds its rows to
    0.0 one at a time in row order, the order of a sequential scatter-add
    (``np.add.at``), so every sum keeps its bits. The slot loop runs as
    often as the largest bucket has rows. ``size_classes`` lists the
    buckets by size instead, for the ops that take one batched product per
    size.
    """

    __slots__ = ("index", "n", "order", "_slots", "_unrank", "_classes")

    def __init__(self, index, n: int):
        index = np.asarray(index, dtype=np.intp)
        if index.ndim != 1:
            raise DimensionError(f"row-sum: index must be a vector, got shape {index.shape}")
        if index.size and (index.min() < 0 or index.max() >= n):
            bad = np.flatnonzero((index < 0) | (index >= n))[0]
            raise DimensionError(f"row-sum: index {index[bad]} at row {bad} outside [0, {n})")
        grouped, counts = _grouped(index, n)
        # buckets of equal size may rank in any order
        ranked = np.argsort(-counts)
        unrank = np.empty(n, dtype=np.intp)
        unrank[ranked] = np.arange(n)
        # filled[k] buckets have more than k rows; slot k spans those rows of order
        filled = np.cumsum(np.bincount(counts)[::-1])[::-1][1:]
        offsets = np.concatenate([[0], np.cumsum(filled)])
        bucket = index[grouped]
        slot = np.arange(len(index)) - (np.cumsum(counts) - counts)[bucket]
        order = np.empty_like(grouped)
        order[offsets[slot] + unrank[bucket]] = grouped
        self.index, self.n, self.order, self._unrank = index, n, order, unrank
        self._slots = list(zip(offsets[:-1].tolist(), offsets[1:].tolist()))
        self._classes = None

    def sum(self, x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """The (n, ...) bucket sums of the block ``x[rows]``, or of ``x``
        itself without ``rows``: row j of the block goes to bucket
        ``index[j]``. Each slot gathers its own rows, so the block is never
        built."""
        out = np.zeros((self.n, *x.shape[1:]))
        # overflow to inf is left to the caller's finiteness check: a sum of
        # finite floats can overflow
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in self._slots:
                j = self.order[lo:hi]
                out[:hi - lo] += x.take(j if rows is None else rows[j], axis=0)
        return out[self._unrank]

    def size_classes(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The non-empty buckets by size s, smallest first: one pair per
        size of the (k,) ids of its k buckets and the (k, s) ids of their
        rows, each bucket's in row order. Built on first use, from a
        second grouping: a plan does not keep the first, which an edge plan
        would hold for nothing."""
        if self._classes is None:
            grouped, counts = _grouped(self.index, self.n)
            starts = np.cumsum(counts) - counts
            # np.bincount, not np.unique, lists the sizes: the first
            # np.unique call imports numpy.ma, 1.6 MB of resident memory
            per_size = np.bincount(counts)
            ends = np.cumsum(per_size)
            by_size = np.argsort(counts, kind="stable")
            self._classes = []
            for s in np.flatnonzero(per_size[1:]) + 1:
                ids = by_size[ends[s] - per_size[s]:ends[s]]
                self._classes.append((ids, grouped[starts[ids, None] + np.arange(s)]))
        return self._classes


def index_add(x: Tensor, plan: RowSum) -> Tensor:
    """(plan.n, ...) block whose row i sums the rows ``x[j]`` with
    ``plan.index[j] == i``; the adjoint of the gather ``x[plan.index]``."""
    x = _as_tensor(x)
    index = plan.index
    if index.shape != x.shape[:1]:
        raise DimensionError(f"index-add: {index.size} indices for input shape {x.shape}")
    return _result("index-add", plan.sum(x.values), [(x, lambda g: g[index])])


def pool_outer(a: Tensor, h: Tensor, plan: RowSum) -> Tensor:
    """(plan.n, p, width) block whose row i sums the outer products
    ``a[j] ⊗ h[j]`` of the rows j in bucket i: ``index_add(mul(a as (m, p, 1),
    h as (m, 1, width)), plan)`` within rounding, without the
    (m, p, width) block.

    Each size class of the plan is one batched product over its gathered
    rows: the forward is ``aᵀ h`` per bucket, the vjps ``h gᵀ`` and ``a g``.
    BLAS sums a bucket's products in its own order, not row by row.
    """
    a, h = _as_tensor(a), _as_tensor(h)
    index = plan.index
    if a.values.ndim != 2 or h.values.ndim != 2 or a.shape[0] != h.shape[0] \
            or index.shape != a.shape[:1]:
        raise DimensionError(f"pool-outer: plan over {index.size} rows for shapes "
                             f"{a.shape} and {h.shape}")
    av, hv = a.values, h.values
    out = _per_size(plan, np.zeros((plan.n, av.shape[1], hv.shape[1])), False,
                    lambda ids, rows: np.matmul(np.swapaxes(av[rows], 1, 2), hv[rows]))
    return _result("pool-outer", out, [
        (a, lambda g: _per_size(plan, np.empty_like(av), True, lambda ids, rows: np.matmul(
            hv[rows], np.swapaxes(g[ids], 1, 2)))),
        (h, lambda g: _per_size(plan, np.empty_like(hv), True,
                                lambda ids, rows: np.matmul(av[rows], g[ids]))),
    ])


def _per_size(plan: RowSum, out: np.ndarray, to_rows: bool, product: Callable) -> np.ndarray:
    """out with ``product(ids, rows)`` of each of the plan's size classes
    written to the class's rows, or to its buckets."""
    # a non-finite product is left to the output's finiteness check, or, in
    # a gradient, to Adam's
    with np.errstate(over="ignore", invalid="ignore"):
        for ids, rows in plan.size_classes():
            out[rows if to_rows else ids] = product(ids, rows)
    return out


def gathered_dot(u: Tensor, r: Tensor, plan: RowSum) -> Tensor:
    """(m, p, 1) scores ``u[plan.index[j]] @ r[j]`` of the rows of r (m, d)
    against the (p, d) blocks of u (plan.n, p, d): ``matmul(u[plan.index],
    r as (m, d, 1))`` within rounding, without the (m, p, d) gathered block.

    As in ``pool_outer``, each size class is one batched product over its
    gathered rows of r and its buckets' blocks of u: the forward is ``r uᵀ``
    per bucket, the vjps ``gᵀ r`` and ``g u``.
    """
    u, r = _as_tensor(u), _as_tensor(r)
    uv, rv, index = u.values, r.values, plan.index
    if uv.ndim != 3 or rv.ndim != 2 or uv.shape[2] != rv.shape[1]:
        raise DimensionError(f"gathered-dot: shapes u {u.shape} and r {r.shape} are not "
                             "(n, p, d) and (m, d)")
    if plan.n != uv.shape[0] or index.shape != rv.shape[:1]:
        raise DimensionError(f"gathered-dot: plan of {index.size} rows into {plan.n} buckets "
                             f"for r of {rv.shape[0]} rows and u of {uv.shape[0]}")
    out = _per_size(plan, np.empty((rv.shape[0], uv.shape[1])), True,
                    lambda ids, rows: np.matmul(rv[rows], np.swapaxes(uv[ids], 1, 2)))
    return _result("gathered-dot", out[:, :, None], [
        (u, lambda g: _per_size(plan, np.zeros_like(uv), False, lambda ids, rows: np.matmul(
            np.swapaxes(g[rows, :, 0], 1, 2), rv[rows]))),
        (r, lambda g: _per_size(plan, np.empty_like(rv), True,
                                lambda ids, rows: np.matmul(g[rows, :, 0], uv[ids]))),
    ])


def neighbour_sum(x: Tensor, by_dst: RowSum, src: np.ndarray) -> Tensor:
    """``index_add(x[src], by_dst)`` as one op: row i sums the rows
    ``x[src[e]]`` over the edges e with ``dst[e] == i``, where dst is the
    index of the plan. Precondition: the edges are symmetric, each
    (u, v) also listed as (v, u), as in a `Batch`. The sum is then its own
    adjoint, so the vjp is the same sum of the gradient. Neither direction
    builds an (E, ...) edge block."""
    x = _as_tensor(x)
    if x.values.ndim == 0 or by_dst.n != x.shape[0] or src.shape != by_dst.index.shape:
        raise DimensionError(f"neighbour-sum: plan over {by_dst.n} rows and "
                             f"{src.size} / {by_dst.index.size} edges for input shape {x.shape}")
    return _result("neighbour-sum", by_dst.sum(x.values, src),
                   [(x, lambda g: by_dst.sum(g, src))])


def backward(tape: Tape, loss: Tensor) -> dict[int, np.ndarray]:
    """Reverse pass: gradient of a scalar loss for every leaf of the tape.

    Leaves that do not influence the loss get zero gradients.
    """
    if loss.values.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss.tape is not None and loss.tape is not tape:
        raise ContractError("backward: loss was not produced by this tape")
    entries, tape._entries = tape._entries, None
    if entries is None:
        raise ContractError("backward: tape already walked")
    grads: dict[int, np.ndarray] = {}
    if loss.node_id is not None:
        grads[loss.node_id] = np.ones_like(loss.values)
    # each entry leaves the list before its vjps run, so the forward arrays
    # they hold go when the next entry replaces it
    while entries:
        out_id, parents = entries.pop()
        g = grads.pop(out_id, None)
        if g is None:
            continue
        for in_id, vjp in parents:
            gi = vjp(g)
            if in_id in grads:
                grads[in_id] = grads[in_id] + gi
            else:
                grads[in_id] = np.asarray(gi, dtype=np.float64)
    # vjps pass gradients on as views (a broadcast sum, a reshape) and may
    # hand one array to two inputs: each leaf gets an array of its own
    leaf_grads: dict[int, np.ndarray] = {}
    handed_out: set[int] = set()
    for lid, shape in tape._leaf_shapes.items():
        g = grads.get(lid)
        if g is None:
            g = np.zeros(shape)
        elif g.base is not None or not g.flags.writeable or id(g) in handed_out:
            g = np.array(g, dtype=np.float64)
        handed_out.add(id(g))
        leaf_grads[lid] = g
    return leaf_grads
