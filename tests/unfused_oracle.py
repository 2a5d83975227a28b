"""The chains of primitive ops that tensor's fused ops stand for.

tensor.pair_readout and tensor.dense_relu each record one tape node where
the model once recorded a chain of them. These are those chains, built
from the primitive ops; the fused ops must match them bit for bit, in the
output and in every gradient.
"""

from parkrank import tensor as T


def pair_readout(q, item, bias, src_table, dst_table) -> T.Tensor:
    """take, take, add, add bias, relu and reduce_sum(-1)."""
    pair = T.add(T.take(q, src_table, -2), T.take(item, dst_table, -2))
    return T.reduce_sum(T.relu(T.add(pair, bias)), axis=-1)


def dense_relu(x, w, b) -> T.Tensor:
    """matmul, add bias and relu."""
    return T.relu(T.add(T.matmul(x, w), b))
