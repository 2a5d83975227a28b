"""The chains of primitive ops that tensor's fused ops stand for.

tensor.pair_readout, tensor.dense_relu, tensor.sum_squares and
tensor.conv1d each record one tape node where the model or the loss once
recorded a chain of them. These are those chains, built from the
primitive ops; the fused ops must match them bit for bit, in the output
and in every gradient. Three primitives here are ops that tensor no
longer has: the gather take, the bias-free convolution correlate and
reshape. The readout's chain gathers with the plain src and dst indices
of its Pairs through take, so its gradients come from take's np.add.at,
where the fused op sums through the Pairs' tables; the convolution's
chain adds its bias through reshape and add.
"""

import numpy as np

from parkrank import tensor as T
from parkrank.errors import DimensionError


def take(x, index, axis: int) -> T.Tensor:
    """Gather entries along one axis, like np.take with the integer
    index; indices may repeat. The backward adds the gathered gradient
    back with np.add.at, unbuffered and in index order from +0.0, so
    repeats add up to the bits of a dense sum.
    """
    x = T.as_tensor(x)
    axis = axis % x.ndim
    try:
        out = np.take(x.data, index, axis=axis)
    except IndexError:
        raise DimensionError(
            f"take: index out of range for axis {axis} of {x.shape}"
        ) from None

    def bw(g):
        gx = np.zeros(x.shape)
        np.add.at(gx, (slice(None),) * axis + (index,), g)
        return (gx,)

    return T._node(out, (x,), bw)


def correlate(x: np.ndarray, w) -> T.Tensor:
    """Valid-mode correlation over the last axis of the constant array x:
    tensor.conv1d without its bias. x: [..., L]; w: [channels, k]; out:
    [..., channels, L - k + 1]. Only w gets a gradient."""
    x, w = np.asarray(x, dtype=np.float64), T.as_tensor(w)
    length = x.shape[-1]
    channels, k = w.shape
    positions = length - k + 1
    view = x.shape[:-1] + (positions, k), x.strides + x.strides[-1:]
    windows = np.lib.stride_tricks.as_strided(x, *view, writeable=False)
    out = np.einsum("...pk,mk->...mp", windows, w.data)

    def bw(g):
        flat_win = windows.reshape(-1, positions, k)
        flat_g = g.reshape(-1, channels, positions)
        return (np.einsum("bpk,bmp->mk", flat_win, flat_g),)

    return T._node(out, (w,), bw)


def reshape(x, shape) -> T.Tensor:
    x = T.as_tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise DimensionError(
            f"reshape: cannot view {x.shape} as {tuple(shape)}"
        ) from None

    def bw(g):
        return (g.reshape(x.shape),)

    return T._node(data, (x,), bw)


def conv1d(x, w, b) -> T.Tensor:
    """correlate, reshape the bias to [1, ..., channels, 1] and add."""
    out = correlate(x, w)
    shape = (1,) * (out.ndim - 2) + (b.shape[0], 1)
    return T.add(out, reshape(b, shape))


def pair_readout(q, item, bias, pairs) -> T.Tensor:
    """take, take, add, add bias, relu and reduce_sum(-1)."""
    pair = T.add(take(q, pairs.src, -2), take(item, pairs.dst, -2))
    return T.reduce_sum(T.relu(T.add(pair, bias)), axis=-1)


def dense_relu(x, w, b) -> T.Tensor:
    """matmul, add bias and relu."""
    return T.relu(T.add(T.matmul(x, w), b))


def sum_squares(tensors) -> T.Tensor:
    """reduce_sum(mul(p, p)) per tensor, added left to right: with the
    coefficient's mul and the add onto the loss, 49 nodes for the 16
    tensors of the criterion-8 model."""
    total = None
    for p in tensors:
        sq = T.reduce_sum(T.mul(p, p))
        total = sq if total is None else T.add(total, sq)
    return total
