"""The chains of primitive ops that tensor's fused ops stand for.

tensor.pair_readout, tensor.dense_relu and tensor.sum_squares each record
one tape node where the model or the loss once recorded a chain of them.
These are those chains, built from the primitive ops; the fused ops must
match them bit for bit, in the output and in every gradient. The
readout's chain gathers with the plain src and dst indices of its Pairs
through take, the one op here that tensor does not have, so its
gradients come from take's np.add.at, where the fused op sums through
the Pairs' tables.
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
