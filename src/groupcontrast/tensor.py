"""Dense float64 tensors with recorded reverse-mode differentiation.

A ``Tape`` records every primitive applied to differentiable tensors during
one forward pass; ``backward`` replays it once in reverse to produce
gradients for all leaves. Tensors without a tape are constants and carry no
gradient.
"""
from __future__ import annotations

from typing import Callable

import numpy as np


class DimensionError(ValueError):
    """Input shapes do not conform to a primitive's shape rules."""


class NumericError(ArithmeticError):
    """A primitive produced (or received) non-finite values."""


class ContractError(ValueError):
    """A caller violated an operation contract (e.g. non-scalar loss)."""


class Tape:
    """Single-writer record of one forward computation."""

    def __init__(self):
        self._entries: list[tuple[int, list[tuple[int, Callable]]]] = []
        self._leaf_shapes: dict[int, tuple[int, ...]] = {}
        self._next = 0

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
        self._entries.append((out_id, parents))

    def __len__(self):
        return len(self._entries)


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


def softplus(a: Tensor) -> Tensor:
    """Overflow-safe ``max(x, 0) + log1p(exp(-|x|))``; the vjp multiplies by
    the logistic ``0.5 * (1 + tanh(x / 2))``.

    Both are computed in place through one scratch block, which then holds
    the logistic for the vjp: on a large score block every fresh temporary
    costs page faults, not arithmetic. Each step is the ufunc the plain
    expressions apply, to the same operands (addition and multiplication
    commute exactly), so every value keeps its bits.
    """
    a = _as_tensor(a)
    x = a.values
    s = np.abs(x)
    np.negative(s, out=s)
    np.exp(s, out=s)
    np.log1p(s, out=s)
    out = np.maximum(x, 0.0)
    out += s
    sig = np.multiply(x, 0.5, out=s)
    np.tanh(sig, out=sig)
    np.add(sig, 1.0, out=sig)
    np.multiply(sig, 0.5, out=sig)
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
    norms = np.sqrt((x * x).sum(axis=1, keepdims=True))
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
    often as the largest bucket has rows.
    """

    __slots__ = ("index", "n", "order", "_slots", "_unrank")

    def __init__(self, index, n: int):
        index = np.asarray(index, dtype=np.intp)
        if index.ndim != 1:
            raise DimensionError(f"row-sum: index must be a vector, got shape {index.shape}")
        if index.size and (index.min() < 0 or index.max() >= n):
            bad = np.flatnonzero((index < 0) | (index >= n))[0]
            raise DimensionError(f"row-sum: index {index[bad]} at row {bad} outside [0, {n})")
        # a stable sort groups the rows by bucket in row order; numpy sorts
        # a 16-bit key by radix, over ten times faster than a wider one
        grouped = np.argsort(index.astype(np.uint16) if n <= 1 << 16 else index, kind="stable")
        counts = np.bincount(index, minlength=n)
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

    def sum(self, x: np.ndarray, rows: np.ndarray | None = None) -> np.ndarray:
        """The (n, ...) bucket sums of the block ``x[rows]``, or of ``x``
        itself without ``rows``: row j of the block goes to bucket
        ``index[j]``. Each slot gathers its own rows, so the block is never
        built."""
        take = self.order if rows is None else rows[self.order]
        out = np.zeros((self.n, *x.shape[1:]))
        # overflow to inf is left to the caller's finiteness check: a sum of
        # finite floats can overflow
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in self._slots:
                out[:hi - lo] += x.take(take[lo:hi], axis=0)
        return out[self._unrank]


def take_rows(x: Tensor, plan: RowSum) -> Tensor:
    """Rows ``x[plan.index]``, repeats allowed, for a plan over len(x) rows;
    the adjoint of ``index_add``."""
    x = _as_tensor(x)
    if x.values.ndim == 0 or plan.n != x.shape[0]:
        raise DimensionError(f"take-rows: plan over {plan.n} rows for input shape {x.shape}")
    return _result("take-rows", x.values[plan.index], [(x, plan.sum)], moves_only=True)


def index_add(x: Tensor, plan: RowSum) -> Tensor:
    """(plan.n, ...) block whose row i sums the rows ``x[j]`` with
    ``plan.index[j] == i``; the adjoint of ``take_rows``."""
    x = _as_tensor(x)
    index = plan.index
    if index.shape != x.shape[:1]:
        raise DimensionError(f"index-add: {index.size} indices for input shape {x.shape}")
    return _result("index-add", plan.sum(x.values), [(x, lambda g: g[index])])


def neighbour_sum(x: Tensor, by_dst: RowSum, src: np.ndarray) -> Tensor:
    """``index_add(take_rows(x, RowSum(src, n)), by_dst)`` as one op: row i
    sums the rows ``x[src[e]]`` over the edges e with ``dst[e] == i``, where
    dst is the index of the plan. Precondition: the edges are symmetric, each
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
    grads: dict[int, np.ndarray] = {}
    if loss.node_id is not None:
        grads[loss.node_id] = np.ones_like(loss.values)
    for out_id, parents in reversed(tape._entries):
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
