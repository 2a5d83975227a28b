"""Minimal reverse-mode autodiff on float64 numpy buffers.

Tensors form a dynamic computation graph; each op records its parents and
a backward rule returning per-parent gradient arrays. ``backward`` runs a
topological sweep from a scalar loss and accumulates into ``.grad`` of the
leaves only (tensors created with requires_grad, not by an op); gradients
of intermediate nodes live just long enough to reach their parents. The
module also carries the Adam update and a binary checkpoint container.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DataError, DimensionError

CHECKPOINT_MAGIC = b"OPRLTR1"


class Tensor:
    """A float64 array node in the computation graph."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._backward_fn: Optional[Callable] = None

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

    def __repr__(self) -> str:
        return (
            f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"
        )


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _node(data, parents: Sequence[Tensor], backward_fn) -> Tensor:
    out = Tensor(data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward_fn = backward_fn
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


def _check_broadcast(op: str, a: Tensor, b: Tensor) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise DimensionError(
            f"{op}: shapes {a.shape} and {b.shape} do not broadcast"
        ) from None


# ---------------------------------------------------------------------------
# ops
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("add", a, b)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _node(a.data + b.data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("sub", a, b)

    def bw(g):
        return _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)

    return _node(a.data - b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    _check_broadcast("mul", a, b)

    def bw(g):
        return (
            _unbroadcast(g * b.data, a.shape),
            _unbroadcast(g * a.data, b.shape),
        )

    return _node(a.data * b.data, (a, b), bw)


def scale(a, factor: float) -> Tensor:
    a = as_tensor(a)
    factor = float(factor)

    def bw(g):
        return (g * factor,)

    return _node(a.data * factor, (a,), bw)


def matmul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul: operands must be at least 2-D, got {a.shape} and "
            f"{b.shape}"
        )
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul: inner dimensions differ, {a.shape} vs {b.shape}"
        )

    def bw(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)

    return _node(a.data @ b.data, (a, b), bw)


def neighbor_mix(weights: np.ndarray, x) -> Tensor:
    """Mix vertex features with a constant square matrix:
    out[..., i, :] = sum_j weights[i, j] * x[..., j, :]."""
    x = as_tensor(x)
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 2 or weights.shape[0] != weights.shape[1]:
        raise DimensionError(
            f"neighbor_mix: weights must be square, got {weights.shape}"
        )
    if x.ndim < 2 or x.shape[-2] != weights.shape[0]:
        raise DimensionError(
            f"neighbor_mix: vertex axis {x.shape} does not match "
            f"{weights.shape}"
        )

    def bw(g):
        return (np.einsum("ji,...jd->...id", weights, g),)

    return _node(np.einsum("ij,...jd->...id", weights, x.data), (x,), bw)


def conv1d(x, w) -> Tensor:
    """Valid-mode correlation over the last axis of x.

    x: [..., L]; w: [channels, k]; out: [..., channels, L - k + 1].
    """
    x, w = as_tensor(x), as_tensor(w)
    if w.ndim != 2:
        raise DimensionError(f"conv1d: kernel must be 2-D, got {w.shape}")
    length = x.shape[-1]
    channels, k = w.shape
    if length < k:
        raise DimensionError(
            f"conv1d: input length {length} shorter than kernel {k}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(x.data, k, axis=-1)
    out = np.einsum("...pk,mk->...mp", windows, w.data)
    positions = length - k + 1

    def bw(g):
        flat_win = windows.reshape(-1, positions, k)
        flat_g = g.reshape(-1, channels, positions)
        gw = np.einsum("bpk,bmp->mk", flat_win, flat_g)
        gx = np.zeros_like(x.data)
        for q in range(k):
            gx[..., q : q + positions] += np.einsum(
                "...mp,m->...p", g, w.data[:, q]
            )
        return gx, gw

    return _node(out, (x, w), bw)


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


def take(x, index: np.ndarray, axis: int) -> Tensor:
    """Gather entries along one axis, like np.take; indices may repeat."""
    x = as_tensor(x)
    index = np.asarray(index, dtype=np.intp)
    axis = axis % x.ndim

    def bw(g):
        gx = np.zeros_like(x.data)
        # unbuffered, in index order: repeats add up like a dense sum
        np.add.at(gx, (slice(None),) * axis + (index,), g)
        return (gx,)

    return _node(np.take(x.data, index, axis=axis), (x,), bw)


def scatter(x, index: np.ndarray, size: int) -> Tensor:
    """Place the last axis of x at distinct positions of a zero last axis
    of length size: out[..., index[e]] = x[..., e]."""
    x = as_tensor(x)
    index = np.asarray(index, dtype=np.intp)
    if index.shape != x.shape[-1:]:
        raise DimensionError(
            f"scatter: indices {index.shape} do not match the last axis of "
            f"{x.shape}"
        )
    out = np.zeros(x.shape[:-1] + (size,))
    out[..., index] = x.data

    def bw(g):
        return (g[..., index],)

    return _node(out, (x,), bw)


def relu(x) -> Tensor:
    x = as_tensor(x)
    out = np.maximum(x.data, 0.0)

    def bw(g):
        return (g * (x.data > 0.0),)

    return _node(out, (x,), bw)


def softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bw(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _node(out, (x,), bw)


def log_softmax(x, axis: int = -1) -> Tensor:
    x = as_tensor(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse

    def bw(g):
        return (g - np.exp(out) * g.sum(axis=axis, keepdims=True),)

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


def reduce_sum(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape).copy(),)

    return _node(out, (x,), bw)


def reduce_mean(x, axis=None, keepdims: bool = False) -> Tensor:
    x = as_tensor(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    count = x.data.size if axis is None else x.shape[axis]

    def bw(g):
        g = np.asarray(g)
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape) / count,)

    return _node(out, (x,), bw)


def reshape(x, shape) -> Tensor:
    x = as_tensor(x)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise DimensionError(
            f"reshape: cannot view {x.shape} as {tuple(shape)}"
        ) from None

    def bw(g):
        return (g.reshape(x.shape),)

    return _node(data, (x,), bw)


# ---------------------------------------------------------------------------
# backward engine
# ---------------------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Accumulate d loss / d leaf into the .grad of every leaf.

    A leaf is a tensor that requires gradients and was not made by an op;
    each gets its own .grad array. Intermediate nodes keep .grad as None:
    their pass gradient is dropped once handed to their parents. Repeated
    calls without zeroing keep adding, matching gradient accumulation
    over several forward passes.
    """
    if loss.data.size != 1:
        raise DimensionError(
            f"backward: loss must be a scalar, got shape {loss.shape}"
        )
    if not loss.requires_grad:
        # constant graph: nothing depends on any parameter
        return

    topo: list[Tensor] = []
    visited: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))

    pass_grads: dict[int, np.ndarray] = {
        id(loss): np.ones_like(loss.data)
    }
    for node in reversed(topo):
        g = pass_grads.pop(id(node), None)
        if g is None:
            continue
        if node._backward_fn is None:
            # ops may hand one array to several parents, so copy
            node.grad = g.copy() if node.grad is None else node.grad + g
            continue
        for parent, pg in zip(node._parents, node._backward_fn(g)):
            if pg is None or not parent.requires_grad:
                continue
            held = pass_grads.get(id(parent))
            pass_grads[id(parent)] = pg if held is None else held + pg


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------


class AdamState:
    """Per-parameter Adam moments, aligned by position with the params."""

    def __init__(
        self,
        params: Sequence[Tensor],
        learning_rate: float = 0.002,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
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
    b1, b2 = state.beta1, state.beta2
    for i, p in enumerate(params):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = state.first_moment[i]
        v = state.second_moment[i]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / (1.0 - b1**t)
        v_hat = v / (1.0 - b2**t)
        p.data -= state.learning_rate * m_hat / (np.sqrt(v_hat) + state.epsilon)
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
    raw = Path(path).read_bytes()
    if raw[: len(CHECKPOINT_MAGIC)] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a model checkpoint (bad magic)")
    offset = len(CHECKPOINT_MAGIC)

    def take(fmt):
        nonlocal offset
        size = struct.calcsize(fmt)
        if offset + size > len(raw):
            raise DataError(f"{path}: truncated checkpoint")
        values = struct.unpack_from(fmt, raw, offset)
        offset += size
        return values

    (manifest_len,) = take("<I")
    try:
        manifest = json.loads(
            raw[offset : offset + manifest_len].decode("utf-8")
        )
    except ValueError:
        raise DataError(f"{path}: checkpoint manifest is not JSON") from None
    if not isinstance(manifest, dict):
        raise DataError(f"{path}: checkpoint manifest is not an object")
    offset += manifest_len
    (count,) = take("<I")
    entries = {}
    for _ in range(count):
        (name_len,) = take("<H")
        try:
            name = raw[offset : offset + name_len].decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: bad tensor name bytes") from None
        offset += name_len
        (ndim,) = take("<B")
        shape = tuple(take("<I")[0] for _ in range(ndim))
        size = int(np.prod(shape)) if shape else 1
        nbytes = size * 8
        if offset + nbytes > len(raw):
            raise DataError(f"{path}: truncated checkpoint")
        entries[name] = (
            np.frombuffer(raw, dtype="<f8", count=size, offset=offset)
            .reshape(shape)
            .astype(np.float64)
        )
        offset += nbytes
    return entries, manifest
