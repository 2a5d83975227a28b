"""Minimal reverse-mode autodiff on float64 numpy buffers.

Tensors form a dynamic computation graph; each op records its parents and
a backward rule returning per-parent gradient arrays. Every tensor takes a
number from one creation counter, and an op's output is made after its
parents, so ``backward`` runs the nodes a scalar loss reaches newest first,
a reverse topological order that needs no list of nodes. It accumulates
into ``.grad`` of the leaves only (tensors created with requires_grad, not
by an op); gradients of intermediate nodes live just long enough to reach
their parents. Inside a ``no_grad()`` block ops record nothing, so an
intermediate is freed as soon as no later op or caller holds it. The
module also carries the Adam update and a binary checkpoint container.

The pair ops read one index, built and checked once per graph: a Pairs
holds the cells of a [rows, width] grid that a pair axis stores, in
row-major order, with the NeighborTables that group them by row and by
column. pair_readout gathers and sums through it; row_sum, softmax and
log_softmax reduce each row of it through by_row, adding the row's cells
in pair order from +0.0. That is not numpy's pairwise order, so a dense
sum over the zero-filled row differs from it only by rounding (the
tests' dense oracles agree within 1e-12), not bit for bit. neighbor_mix
sums through one weighted NeighborTable of a symmetric matrix, forward
and backward alike. A NeighborTable sums a block of snapshots at a time,
one gather and one fused sum over its slots, whose inner loop never runs
along the slots: each target adds in slot order however the blocks fall.

Four ops fuse a chain of primitives into one tape node: conv1d
(correlation, reshape, add), pair_readout (two gathers, add, add, relu,
reduce_sum), dense_relu (matmul, add, relu) and sum_squares (mul,
reduce_sum and add per tensor); tests/unfused_oracle.py builds each
chain, with the primitives this module lacks: take, a bias-free
correlation and reshape. A fused op keeps the composition's bits: it
makes the same products and sums in the same order, in its output and
in every gradient, and only saves the intermediate nodes and buffers.
The rules of matmul, mul, sub, pair_readout and dense_relu compute a
parent's gradient only if the parent requires one, so constants such as
the labels cost no backward pass.
"""

from __future__ import annotations

import contextlib
import heapq
import itertools
import json
import math
import struct
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataError, DimensionError, reading

CHECKPOINT_MAGIC = b"OPRLTR1"
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8

_creation_counter = itertools.count()  # Tensor._created, in creation order


class Tensor:
    """A float64 array node in the computation graph."""

    __slots__ = (
        "data", "grad", "requires_grad", "_parents", "_backward_fn", "_created"
    )

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable] = None
        self._created = next(_creation_counter)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def item(self) -> float:
        if self.data.size != 1:
            raise DimensionError(
                f"item: tensor has {self.data.size} elements, expected 1"
            )
        return float(self.data.reshape(()))


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


_recording = True  # off inside no_grad()


@contextlib.contextmanager
def no_grad():
    """Within the block, ops record no parents and no backward rule, so
    their outputs require no gradient and backward from them does nothing.
    The outputs' data are the same; recording is back as it was on exit,
    also when the block raises."""
    global _recording
    previous, _recording = _recording, False
    try:
        yield
    finally:
        _recording = previous


def _node(data, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    if not _recording:
        return out
    for p in parents:
        if p.requires_grad:
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
            break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _broadcast_op(op: str, ufunc, a: Tensor, b: Tensor) -> np.ndarray:
    """ufunc over both operands' data; shapes that do not broadcast raise."""
    try:
        return ufunc(a.data, b.data)
    except ValueError:
        raise DimensionError(
            f"{op}: shapes {a.shape} and {b.shape} do not broadcast"
        ) from None


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(_broadcast_op("add", np.add, a, b), (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        return (
            _unbroadcast(g, a.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return _node(_broadcast_op("sub", np.subtract, a, b), (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g):
        return (
            _unbroadcast(g * b.data, a.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.shape) if b.requires_grad else None,
        )

    return _node(_broadcast_op("mul", np.multiply, a, b), (a, b), bw)


def _check_matmul(op: str, a: Tensor, b: Tensor) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"{op}: operands must be at least 2-D, got {a.shape} and "
            f"{b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"{op}: inner dimensions differ, {a.shape} vs {b.shape}"
        )


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_matmul("matmul", a, b)

    def bw(g):
        return _matmul_grads(a, b, g)

    return _node(a.data @ b.data, (a, b), bw)


def _matmul_grads(a: Tensor, b: Tensor, g: np.ndarray):
    """The gradients of a @ b for the upstream g, each only if its operand
    requires one."""
    ga = gb = None
    if a.requires_grad:
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape)
    if b.requires_grad:
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)
    return ga, gb


def dense_relu(x, w, b) -> Tensor:
    """relu(x @ w + b), a graph round's dense layer, as one node.

    The forward adds b and clamps in place on the matmul's buffer; the
    backward masks g where the output is positive and hands that to the
    bias and to the matmul rule. The products and sums are those of
    matmul, add and relu, in the same order, so every bit is kept.
    """
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    _check_matmul("dense_relu", x, w)
    if b.shape != w.shape[-1:]:
        raise DimensionError(
            f"dense_relu: bias {b.shape} for weights {w.shape}"
        )
    out = x.data @ w.data
    out += b.data
    np.maximum(out, 0.0, out=out)

    def bw(g):
        g = g * (out > 0.0)
        gb = _unbroadcast(g, b.shape) if b.requires_grad else None
        return (*_matmul_grads(x, w, g), gb)

    return _node(out, (x, w, b), bw)


GATHER_BYTES = 1 << 18  # most bytes of terms one block of snapshots gathers


class NeighborTable:
    """Entries grouped by the target each lands on, in entry order.

    index[e] in [0, size) is the target of entry e. slots is [K, width],
    slot-major: column t lists the sources of the entries that land on
    t, in increasing entry order, padded with -1, which reads the zero
    that sum appends after the last source; K is the most entries any
    target has. width is size, or 2 for a one-target table, whose spare
    column is all padding. A source is the entry's own position unless
    sources gives one per entry. weights, when given, scales each entry
    (padding scales by 0).
    """

    __slots__ = ("size", "slots", "weights", "_broadcast")

    def __init__(self, index, size: int, sources=None, weights=None):
        index = np.asarray(index, dtype=np.intp)
        if index.ndim != 1:
            raise DimensionError(f"index must be 1-D, got shape {index.shape}")
        if index.size and (index.min() < 0 or index.max() >= size):
            raise DimensionError(f"index out of range [0, {size})")
        counts = np.bincount(index, minlength=size)
        order = np.argsort(index, kind="stable")
        rank = np.arange(order.size) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        slot = (rank, index[order])
        self.size = size
        width = max(size, 2)
        self.slots = np.full((counts.max(initial=0), width), -1, np.intp)
        self.slots[slot] = order if sources is None else sources[order]
        self.weights = None
        self._broadcast = {}  # weights as [K, width, *tail], per tail
        if weights is not None:
            self.weights = np.zeros(self.slots.shape)
            self.weights[slot] = weights[order]

    def sum(
        self, values: np.ndarray, axis: int, padded: bool = False
    ) -> np.ndarray:
        """Per target, the sum over its entries of (weight times) the
        source's slice of values along axis; axis becomes length size.

        Each target's terms are added in entry order to a +0.0 start.
        Padding reads a zero appended after the last source, so it adds
        +0.0, which changes no such sum; a caller that builds values can
        leave that zero slice at the end of axis itself and pass padded,
        which saves copying values. The axes before axis are one axis of
        snapshots, summed in blocks of as many as fit GATHER_BYTES of
        terms [block, K, width, *tail], at least one: one np.take gathers
        a block into a reused buffer, and one np.einsum with the weights
        (np.add.reduce from +0.0 without) sums its K slots into that
        block of the output. Either loops innermost along a slot's width
        * tail terms, two or more (hence the spare column), so each output
        adds its terms slot by slot, in slot order; with one term numpy
        would loop along the slots, adding them pairwise or unrolled.
        """
        axis = axis % values.ndim
        lead, tail = values.shape[:axis], values.shape[axis + 1 :]
        if not padded:
            zero = np.zeros(lead + (1,) + tail)
            values = np.concatenate([values, zero], axis)
        weights = self._broadcast.get(tail)
        if weights is None and self.weights is not None:
            w = self.weights.reshape(self.slots.shape + (1,) * len(tail))
            weights = np.broadcast_to(w, self.slots.shape + tail).copy()
            self._broadcast[tail] = weights
        count, shape = math.prod(lead), self.slots.shape + tail
        values = values.reshape((count,) + values.shape[axis:])
        out = np.empty((count,) + shape[1:])
        block = max(1, GATHER_BYTES // max(8 * math.prod(shape), 1))
        buffer = np.empty((min(block, count),) + shape)
        for lo in range(0, count, block):
            part, at = values[lo : lo + block], out[lo : lo + block]
            terms = buffer[: len(part)]
            # "wrap" reads -1 as "raise" would, without buffering out
            np.take(part, self.slots, 1, out=terms, mode="wrap")
            if weights is None:
                np.add.reduce(terms, 1, out=at, initial=0.0)
            else:
                np.einsum("bk...,k...->b...", terms, weights, out=at)
        return out[:, : self.size].reshape(lead + (self.size,) + tail)


class Pairs:
    """The cells of a [rows, width] grid that a pair axis holds, at
    distinct, increasing row-major flat positions, checked once here.

    src and dst are each cell's row and column; by_row and by_col are
    NeighborTables over the rows and the columns that list, per row (per
    column), the pair axis entries that lie in it, in increasing order.
    """

    __slots__ = ("shape", "positions", "src", "dst", "by_row", "by_col")

    def __init__(self, positions, shape):
        self.positions = cells = np.asarray(positions, dtype=np.intp)
        self.shape = rows, width = tuple(shape)
        if cells.ndim != 1 or np.any(np.diff(cells) <= 0):
            raise DimensionError(
                "pairs: positions must be 1-D, distinct and increasing"
            )
        if cells.size and (cells[0] < 0 or cells[-1] >= rows * width):
            raise DimensionError(
                f"pairs: positions out of range [0, {rows * width})"
            )
        self.src, self.dst = np.divmod(self.positions, width)
        self.by_row = NeighborTable(self.src, rows)
        self.by_col = NeighborTable(self.dst, width)


def neighbor_mix(table: NeighborTable, x) -> Tensor:
    """Mix vertex features with a constant symmetric matrix w:
    out[..., i, :] = sum_j w[i, j] * x[..., j, :].

    table lists the nonzeros of w by row, with their weights (a weighted
    NeighborTable over the row indices with the column indices as
    sources), built once per graph. w must be symmetric: column i of w
    then lists the same terms as row i, in the same order, so the
    backward, w.T @ g, sums g through the same table, in blocks of
    snapshots. Each row adds its j terms in increasing order from +0.0,
    as np.einsum("ij,...jd->...id") does when the feature width d is
    above 1 (at d = 1 it reorders); dropping zero terms cannot change
    such a sum, so the bits match the dense einsum's.
    """
    x = as_tensor(x)
    n = table.size
    if x.ndim < 2 or x.shape[-2] != n:
        raise DimensionError(
            f"neighbor_mix: vertex axis {x.shape} does not match "
            f"{(n, n)} weights"
        )

    def bw(g):
        return (table.sum(g, -2),)

    return _node(table.sum(x.data, -2), (x,), bw)


def conv1d(x: np.ndarray, w, b) -> Tensor:
    """Valid-mode correlation over the last axis of the constant array x,
    plus b per channel: x [..., L], w [channels, k], b [channels], out
    [..., channels, L - k + 1]. The windows are an as_strided view with
    sliding_window_view's shape and strides, built without its checks. b
    adds in place, and its gradient is add's for b viewed as [1, ...,
    channels, 1]: the bits of correlation, reshape and add."""
    x, w, b = np.asarray(x, dtype=np.float64), as_tensor(w), as_tensor(b)
    if w.ndim != 2:
        raise DimensionError(f"conv1d: kernel must be 2-D, got {w.shape}")
    length = x.shape[-1]
    channels, k = w.shape
    if b.shape != (channels,):
        raise DimensionError(f"conv1d: bias {b.shape} for kernel {w.shape}")
    if length < k:
        raise DimensionError(
            f"conv1d: input length {length} shorter than kernel {k}"
        )
    positions = length - k + 1
    view = x.shape[:-1] + (positions, k), x.strides + x.strides[-1:]
    windows = np.lib.stride_tricks.as_strided(x, *view, writeable=False)
    out = np.einsum("...pk,mk->...mp", windows, w.data)
    bias_shape = (1,) * (out.ndim - 2) + (channels, 1)
    out += b.data.reshape(bias_shape)

    def bw(g):
        flat_win = windows.reshape(-1, positions, k)
        flat_g = g.reshape(-1, channels, positions)
        gb = _unbroadcast(g, bias_shape).reshape(channels)
        return np.einsum("bpk,bmp->mk", flat_win, flat_g), gb

    return _node(out, (w, b), bw)


def concat(parts: Sequence, axis: int = -1) -> Tensor:
    tensors = [as_tensor(p) for p in parts]
    if not tensors:
        raise DimensionError("concat: needs at least one tensor")
    sizes = [t.shape[axis] for t in tensors]

    def bw(g):
        return tuple(
            piece
            for piece in np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        )

    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise DimensionError(f"concat: {exc}") from None
    return _node(data, tensors, bw)


def pair_readout(q, item, bias, pairs: Pairs) -> Tensor:
    """Per pair e, the sum over d of relu(q[..., src[e], d] + item[...,
    dst[e], d] + bias[d]): [..., pairs] from [..., vertices, d] features,
    where pairs, over a [vertices, vertices] grid, gives each pair's
    query src and candidate dst.

    Two gathers, add, add, relu and reduce_sum(-1) as one node. The
    forward adds the candidate rows, the bias and the clamp in place into
    the gathered query rows; the backward masks g once, into a buffer that
    ends with the zero slice NeighborTable.sum pads with, and sums it into
    each side through the pairs' by_row and by_col tables, in pair order
    from +0.0 as the np.add.at of tests/unfused_oracle.py's take does. The
    terms and their order are the composition's, so every bit is kept.
    """
    q, item, bias = as_tensor(q), as_tensor(item), as_tensor(bias)
    if (
        q.ndim < 2 or item.shape != q.shape or bias.shape != q.shape[-1:]
        or pairs.shape != q.shape[-2:-1] * 2
    ):
        raise DimensionError(
            f"pair_readout: features {q.shape} and {item.shape}, bias "
            f"{bias.shape}, pairs over a {pairs.shape} grid"
        )
    pre = np.take(q.data, pairs.src, axis=-2)
    pre += np.take(item.data, pairs.dst, axis=-2)
    pre += bias.data
    np.maximum(pre, 0.0, out=pre)

    def bw(g):
        # the masked g, then the zero slice the table sums pad with
        *lead, count, d = pre.shape
        buffer = np.empty((*lead, count + 1, d))
        buffer[..., -1, :] = 0.0
        g = np.multiply(g[..., None], pre > 0.0, out=buffer[..., :-1, :])
        return (
            pairs.by_row.sum(buffer, -2, True) if q.requires_grad else None,
            pairs.by_col.sum(buffer, -2, True) if item.requires_grad else None,
            _unbroadcast(g, bias.shape) if bias.requires_grad else None,
        )

    return _node(pre.sum(-1), (q, item, bias), bw)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def bw(g):
        return (g * (x.data > 0.0),)

    return _node(out, (x,), bw)


def _check_cells(op: str, x: Tensor, pairs: Pairs) -> None:
    if x.shape[-1:] != pairs.src.shape:
        raise DimensionError(
            f"{op}: {pairs.src.size} pairs do not match the last axis of "
            f"{x.shape}"
        )


def row_max(values: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per entry of the last axis, the largest entry of its row; rows gives
    each entry's row and must not decrease."""
    starts = np.flatnonzero(np.diff(rows, prepend=-1))
    peaks = np.maximum.reduceat(values, starts, axis=-1)
    return np.repeat(peaks, np.diff(starts, append=rows.size), axis=-1)


def row_sum(x, pairs: Pairs) -> Tensor:
    """Per row of the pairs' [rows, width] grid, the sum of its cells,
    [..., rows].

    The last axis of x holds the cells of pairs; the other cells are zero.
    Each row adds its cells in pair order to a +0.0 start, through the
    pairs' by_row table, so an empty row or one of only -0.0 cells sums to
    +0.0.
    """
    x = as_tensor(x)
    _check_cells("row_sum", x, pairs)

    def bw(g):
        return (g[..., pairs.src],)

    return _node(pairs.by_row.sum(x.data, -1), (x,), bw)


def softmax(x, pairs: Pairs) -> Tensor:
    """Softmax along each row of a grid laid out as in row_sum, over the
    cells x holds; the others count as -inf, so the output holds the
    same cells. The row max is exact and the row sums run as row_sum's,
    forward and backward, so a dense softmax over the grid with the other
    cells filled far below every cell differs only by their rounding."""
    x = as_tensor(x)
    _check_cells("softmax", x, pairs)
    rows = pairs.src
    e = np.exp(x.data - row_max(x.data, rows))
    out = e / pairs.by_row.sum(e, -1)[..., rows]

    def bw(g):
        inner = pairs.by_row.sum(g * out, -1)[..., rows]
        return (out * (g - inner),)

    return _node(out, (x,), bw)


def log_softmax(x, pairs: Pairs) -> Tensor:
    """Log of softmax(x, pairs), as shifted cells minus the log of their
    row's sum of exponentials."""
    x = as_tensor(x)
    _check_cells("log_softmax", x, pairs)
    rows = pairs.src
    shifted = x.data - row_max(x.data, rows)
    lse = np.log(pairs.by_row.sum(np.exp(shifted), -1)[..., rows])
    out = shifted - lse

    def bw(g):
        return (g - np.exp(out) * pairs.by_row.sum(g, -1)[..., rows],)

    return _node(out, (x,), bw)


def masked_fill(x, mask: np.ndarray, value: float) -> Tensor:
    """Replace entries where mask is True with a constant."""
    x = as_tensor(x)
    mask = np.asarray(mask, dtype=np.bool_)
    try:
        out = np.where(mask, float(value), x.data)
    except ValueError:
        raise DimensionError(
            f"masked_fill: mask {mask.shape} does not broadcast with "
            f"{x.shape}"
        ) from None

    def bw(g):
        return (_unbroadcast(np.where(mask, 0.0, g), x.shape),)

    return _node(out, (x,), bw)


def reduce_sum(x, axis=None) -> Tensor:
    x = as_tensor(x)
    kept = x.data.sum(axis=axis, keepdims=True)

    def bw(g):
        return (np.broadcast_to(np.reshape(g, kept.shape), x.shape).copy(),)

    return _node(kept.squeeze(axis), (x,), bw)


def sum_squares(tensors: Sequence[Tensor]) -> Tensor:
    """The sum over tensors of reduce_sum(mul(p, p)), added left to right,
    as one node. Its parents list each tensor twice and its backward hands
    each copy g * p, as mul(p, p) does, so every leaf's gradient adds the
    same terms in the same order as that chain's."""
    tensors = [as_tensor(p) for p in tensors]
    # from 0, which adds nothing to a sum of squares
    total = sum((p.data * p.data).sum() for p in tensors)

    def bw(g):
        return tuple(grad for p in tensors for grad in [g * p.data] * 2)

    return _node(total, [p for p in tensors for _ in range(2)], bw)


def reduce_mean(x, axis=None) -> Tensor:
    x = as_tensor(x)
    count = x.data.size if axis is None else x.shape[axis]
    # what ndarray.mean computes: the same add.reduce, divided in place
    out = np.add.reduce(x.data, axis=axis)
    out /= count

    def bw(g):
        g = np.asarray(g)
        if axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape) / count,)

    return _node(out, (x,), bw)


# ---------------------------------------------------------------------------
# backward engine
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d leaf into the .grad of every leaf.

    A leaf is a tensor that requires gradients and was not made by an op;
    each gets its own .grad array, and repeated calls without zeroing keep
    adding. Intermediate nodes keep .grad as None. Nodes run newest first
    by creation number: an op's output is newer than its parents, so a
    node runs after all of its consumers, and its pass gradient, dropped
    once handed on, sums their terms newest consumer first. The dict of
    pass gradients holds the nodes reached and not yet run.
    """
    if loss.data.size != 1:
        raise DimensionError(
            f"backward: loss must be a scalar, got shape {loss.shape}"
        )
    if not loss.requires_grad:
        # constant graph: nothing depends on any parameter
        return

    pass_grads: dict[Tensor, np.ndarray] = {loss: np.ones_like(loss.data)}
    newest_first = [(-loss._created, loss)]
    while newest_first:
        node = heapq.heappop(newest_first)[1]
        g = pass_grads.pop(node)
        if node._backward_fn is None:
            # ops may hand one array to several parents, so copy
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            held = pass_grads.get(parent)
            if held is None:
                heapq.heappush(newest_first, (-parent._created, parent))
            pass_grads[parent] = pg if held is None else held + pg


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class AdamState:
    """Per-parameter Adam moments, aligned by position with the params;
    only the learning rate is set, the decays and epsilon are ADAM_*."""

    def __init__(self, params: Sequence[Tensor], learning_rate: float):
        self.learning_rate = learning_rate
        self.step_count = 0
        self.first_moment = [np.zeros_like(p.data) for p in params]
        self.second_moment = [np.zeros_like(p.data) for p in params]


def adam_step(params: Sequence[Tensor], state: AdamState) -> None:
    """One bias-corrected Adam update in place; gradients are then cleared."""
    if len(params) != len(state.first_moment):
        raise DimensionError(
            f"adam_step: {len(params)} params but state tracks "
            f"{len(state.first_moment)}"
        )
    state.step_count += 1
    t = state.step_count
    for i, p in enumerate(params):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.first_moment[i]
        v = state.second_moment[i]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m / (1.0 - ADAM_BETA1**t)
        v_hat = v / (1.0 - ADAM_BETA2**t)
        p.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
        p.grad = None


# ---------------------------------------------------------------------------
# checkpoint container
# ---------------------------------------------------------------------------


def save_checkpoint(path, entries: dict, manifest: dict) -> None:
    """Write named float64 arrays plus a JSON manifest.

    Layout: magic, manifest length + bytes, entry count, then per entry
    name, rank, dims, and raw little-endian float64 data. Serialization is
    deterministic for identical inputs.
    """
    blob = bytearray(CHECKPOINT_MAGIC)
    manifest_bytes = json.dumps(
        manifest, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")
    blob += struct.pack("<I", len(manifest_bytes))
    blob += manifest_bytes
    blob += struct.pack("<I", len(entries))
    for name, array in entries.items():
        # asarray keeps 0-d shapes; ascontiguousarray would promote to 1-d
        arr = np.asarray(array, dtype="<f8", order="C")
        name_bytes = name.encode("utf-8")
        blob += struct.pack("<H", len(name_bytes))
        blob += name_bytes
        blob += struct.pack("<B", arr.ndim)
        for dim in arr.shape:
            blob += struct.pack("<I", dim)
        blob += arr.tobytes()
    Path(path).write_bytes(bytes(blob))


def load_checkpoint(path) -> tuple[dict, dict]:
    """Read back (entries, manifest) from a checkpoint file."""
    with reading(path):
        raw = Path(path).read_bytes()
        if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
            raise DataError("not a model checkpoint (bad magic)")
        offset = len(CHECKPOINT_MAGIC)

        def take(fmt):
            nonlocal offset
            size = struct.calcsize(fmt)
            if offset + size > len(raw):
                raise DataError("truncated checkpoint")
            values = struct.unpack_from(fmt, raw, offset)
            offset += size
            return values

        (manifest_len,) = take("<I")
        manifest = json.loads(raw[offset : offset + manifest_len].decode())
        if not isinstance(manifest, dict):
            raise DataError("checkpoint manifest is not an object")
        offset += manifest_len
        (count,) = take("<I")
        entries = {}
        for _ in range(count):
            (name_len,) = take("<H")
            name = raw[offset : offset + name_len].decode()
            if name in entries:
                raise DataError(f"checkpoint repeats tensor {name!r}")
            offset += name_len
            (ndim,) = take("<B")
            shape = tuple(take("<I")[0] for _ in range(ndim))
            size = math.prod(shape)
            nbytes = size * 8
            if offset + nbytes > len(raw):
                raise DataError("truncated checkpoint")
            entries[name] = (
                np.frombuffer(raw, dtype="<f8", count=size, offset=offset)
                .reshape(shape)
                .astype(np.float64)
            )
            offset += nbytes
        if offset != len(raw):
            raise DataError("trailing bytes after the last tensor")
    return entries, manifest
