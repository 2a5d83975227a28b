"""Event-then-graph ranking network.

Per vertex, the newest turnover events enter as signed durations (vacant
positive, occupied negative), squashed by tanh so the sign gates the
magnitude. A 1-D convolution with bias, ReLU, and mean-pooling summarizes
them into an event embedding. Graph iterations then mix embeddings over
the symmetric-normalized adjacency, each round re-concatenating the event
embedding as a residual. A pairwise readout scores only the allowed
(query, candidate) pairs, each candidate in the query's own neighborhood,
over an edge list, and multiplies each by a learnable mask weight. The
scores are scattered into a [batch, query, candidate] matrix whose entries
outside the neighborhoods are structural zeros, so only reachable
candidates can score.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, DimensionError
from .ingest import SpatialGraph

SCORE_ACTIVATIONS = ("relu", "softmax")
# pre-activation fill for masked softmax entries; -inf would poison grads
MASK_FILL = -1e30


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    alpha: events read per vertex; beta: graph mixing rounds;
    conv_channels and embed_dim size the event and vertex embeddings.
    score_activation picks the final squash; sigmoid is excluded because it
    maps the masked zeros to 0.5 and breaks the structural-zero contract.
    """

    alpha: int = 2
    beta: int = 3
    conv_channels: int = 16
    embed_dim: int = 16
    kernel_len: int = 2
    score_activation: str = "relu"

    def __post_init__(self):
        if self.alpha < 1:
            raise ConfigError("alpha must be at least 1")
        if self.beta < 1:
            raise ConfigError("beta must be at least 1")
        if self.conv_channels < 1 or self.embed_dim < 1:
            raise ConfigError("embedding widths must be at least 1")
        if self.kernel_len < 1:
            raise ConfigError("kernel_len must be at least 1")
        if self.kernel_len > self.alpha:
            raise ConfigError(
                f"kernel_len {self.kernel_len} exceeds alpha {self.alpha}"
            )
        if self.score_activation not in SCORE_ACTIVATIONS:
            raise ConfigError(
                f"score_activation must be one of {SCORE_ACTIVATIONS}, "
                f"got {self.score_activation!r}"
            )


def normalized_adjacency(spatial: SpatialGraph) -> np.ndarray:
    """Symmetric normalization of adjacency plus self-loops."""
    a = spatial.allowed_mask().astype(np.float64)
    inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return a * inv_sqrt[:, None] * inv_sqrt[None, :]


def _glorot(rng, fan_in: int, fan_out: int, shape) -> np.ndarray:
    std = np.sqrt(2.0 / (fan_in + fan_out))
    return rng.normal(0.0, std, size=shape)


class ModelParams:
    """All learnable tensors plus the constants derived from the graph."""

    def __init__(self, config: ModelConfig, spatial: SpatialGraph, rng):
        self.config = config
        self.num_vertices = spatial.num_vertices
        self.allowed = spatial.allowed_mask()
        # allowed pairs in row-major order: by query, then by candidate
        self.src, self.dst = np.nonzero(self.allowed)
        self.pair_index = self.src * self.num_vertices + self.dst
        self.adj_norm = normalized_adjacency(spatial)
        a, d, m = config.alpha, config.embed_dim, config.conv_channels
        k = config.kernel_len

        def tensor_of(arr):
            return T.Tensor(arr, requires_grad=True)

        self._tensors: dict[str, T.Tensor] = {}
        self._tensors["conv.weight"] = tensor_of(_glorot(rng, k, m, (m, k)))
        self._tensors["conv.bias"] = tensor_of(np.zeros(m))
        self._tensors["gcn.input"] = tensor_of(_glorot(rng, 2, d, (2, d)))
        for step in range(1, config.beta + 1):
            self._tensors[f"gcn.mix.{step}"] = tensor_of(
                _glorot(rng, d, d, (d, d))
            )
            self._tensors[f"gcn.weight.{step}"] = tensor_of(
                _glorot(rng, d + m, d, (d + m, d))
            )
            self._tensors[f"gcn.bias.{step}"] = tensor_of(np.zeros(d))
        self._tensors["readout.query"] = tensor_of(
            _glorot(rng, a + 1, d, (a + 1, d))
        )
        self._tensors["readout.item"] = tensor_of(_glorot(rng, d, d, (d, d)))
        self._tensors["readout.bias"] = tensor_of(np.zeros(d))
        # only allowed positions are read; the rest stay zero, so the
        # checkpoint keeps its dense [n, n] layout
        self._tensors["mask.weights"] = tensor_of(
            self.allowed.astype(np.float64)
        )

    @property
    def named(self) -> dict[str, T.Tensor]:
        return dict(self._tensors)

    @property
    def tensors(self) -> list[T.Tensor]:
        return list(self._tensors.values())

    def get(self, name: str) -> T.Tensor:
        return self._tensors[name]

    def snapshot(self) -> dict[str, np.ndarray]:
        return {k: v.data.copy() for k, v in self._tensors.items()}

    def restore(self, snapshot: dict[str, np.ndarray]) -> None:
        for name, arr in snapshot.items():
            self._tensors[name].data = arr.copy()

    def save(self, path, extra_manifest: dict | None = None) -> None:
        manifest = {
            "kind": "parkrank-model",
            "alpha": self.config.alpha,
            "beta": self.config.beta,
            "conv_channels": self.config.conv_channels,
            "embed_dim": self.config.embed_dim,
            "kernel_len": self.config.kernel_len,
            "score_activation": self.config.score_activation,
            "num_vertices": self.num_vertices,
            "sign_convention": "vacant=+1,occupied=-1",
        }
        if extra_manifest:
            manifest.update(extra_manifest)
        T.save_checkpoint(
            path, {k: v.data for k, v in self._tensors.items()}, manifest
        )

    @classmethod
    def load(cls, path, spatial: SpatialGraph) -> tuple["ModelParams", dict]:
        entries, manifest = T.load_checkpoint(path)
        try:
            config = ModelConfig(
                alpha=int(manifest["alpha"]),
                beta=int(manifest["beta"]),
                conv_channels=int(manifest["conv_channels"]),
                embed_dim=int(manifest["embed_dim"]),
                kernel_len=int(manifest["kernel_len"]),
                score_activation=str(manifest["score_activation"]),
            )
            num_vertices = int(manifest["num_vertices"])
        except (KeyError, TypeError, ValueError, ConfigError) as exc:
            raise DataError(
                f"{path}: checkpoint manifest has a missing, mistyped or "
                f"invalid model field: {exc}"
            ) from None
        if num_vertices != spatial.num_vertices:
            raise DataError(
                f"checkpoint was trained on {num_vertices} "
                f"vertices but the graph has {spatial.num_vertices}"
            )
        params = cls(config, spatial, np.random.default_rng(0))
        for name, t in params._tensors.items():
            if name not in entries:
                raise DataError(f"checkpoint is missing tensor {name!r}")
            if entries[name].shape != t.data.shape:
                raise DataError(
                    f"checkpoint tensor {name!r} has shape "
                    f"{entries[name].shape}, expected {t.data.shape}"
                )
            t.data = entries[name].copy()
        return params, manifest


def _dropout(x: T.Tensor, rate: float, rng) -> T.Tensor:
    keep = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return T.mul(x, T.Tensor(keep))


def real_time_features(
    current_signed: np.ndarray, states_now: np.ndarray
) -> np.ndarray:
    """Per-vertex pair (state sign, tanh of signed current duration)."""
    sign = np.where(states_now, -1.0, 1.0)
    return np.stack([sign, np.tanh(current_signed)], axis=-1)


def event_embed(
    params: ModelParams,
    windows: np.ndarray,
    dropout_rate: float = 0.0,
    rng=None,
) -> T.Tensor:
    """Per-vertex event embedding, [batch, vertices, conv_channels].

    Signed durations pass through tanh, so the sign gates the magnitude
    and zero padding stays exactly zero; then a 1-D convolution with bias,
    ReLU, and mean-pooling over positions.
    """
    gated = np.tanh(windows)
    conv = T.conv1d(T.Tensor(gated), params.get("conv.weight"))
    conv = T.add(
        conv,
        T.reshape(
            params.get("conv.bias"), (1, 1, params.config.conv_channels, 1)
        ),
    )
    h = T.reduce_mean(T.relu(conv), axis=-1)
    if dropout_rate > 0.0:
        h = _dropout(h, dropout_rate, rng)
    return h


def graph_rounds(
    params: ModelParams,
    real_time: np.ndarray,
    h,
    dropout_rate: float = 0.0,
    rng=None,
) -> T.Tensor:
    """Vertex embeddings after beta rounds over the normalized adjacency.

    real_time: [batch, vertices, 2] from real_time_features; h: the event
    embedding, re-concatenated as a residual every round.
    """
    z = T.matmul(T.Tensor(real_time), params.get("gcn.input"))
    for step in range(1, params.config.beta + 1):
        mixed = T.matmul(
            T.neighbor_mix(params.adj_norm, z), params.get(f"gcn.mix.{step}")
        )
        stacked = T.concat([mixed, h], axis=-1)
        z = T.relu(
            T.add(
                T.matmul(stacked, params.get(f"gcn.weight.{step}")),
                params.get(f"gcn.bias.{step}"),
            )
        )
        if dropout_rate > 0.0:
            z = _dropout(z, dropout_rate, rng)
    return z


def forward_scores(
    params: ModelParams,
    windows: np.ndarray,
    current_signed: np.ndarray,
    states_now: np.ndarray,
    training: bool = False,
    dropout_rate: float = 0.0,
    rng=None,
) -> T.Tensor:
    """Score the allowed (query, candidate) pairs of a batch of snapshots.

    windows: [batch, vertices, alpha] signed durations;
    current_signed: [batch, vertices]; states_now: [batch, vertices] bool.
    Returns a [batch, vertices, vertices] tensor, query along axis 1. The
    readout runs over the edge list (params.src, params.dst) only; its
    scores are scattered into the matrix, so every pair outside
    params.allowed holds an exact zero before the activation.
    """
    if windows.ndim != 3:
        raise DimensionError(
            f"forward_scores: windows must be 3-D, got {windows.shape}"
        )
    cfg = params.config
    n = params.num_vertices
    if windows.shape[1] != n or windows.shape[2] != cfg.alpha:
        raise DimensionError(
            f"forward_scores: windows {windows.shape} do not match "
            f"{n} vertices and alpha {cfg.alpha}"
        )
    batch = windows.shape[0]
    use_dropout = training and dropout_rate > 0.0
    if use_dropout and rng is None:
        raise ConfigError("dropout during training needs an rng")
    rate = dropout_rate if use_dropout else 0.0

    h = event_embed(params, windows, rate, rng)
    z = graph_rounds(
        params, real_time_features(current_signed, states_now), h, rate, rng
    )

    # pairwise readout over the allowed pairs: query features against
    # candidate embeddings, [batch, pairs, embed_dim]
    query_feat = np.concatenate(
        [np.tanh(windows), np.tanh(current_signed)[..., None]], -1
    )
    q = T.matmul(T.Tensor(query_feat), params.get("readout.query"))
    item = T.matmul(z, params.get("readout.item"))
    pair = T.add(T.take(q, params.src, 1), T.take(item, params.dst, 1))
    pair = T.relu(T.add(pair, params.get("readout.bias")))
    raw = T.reduce_sum(pair, axis=-1)

    mask = T.take(
        T.reshape(params.get("mask.weights"), (n * n,)), params.pair_index, 0
    )
    pre = T.reshape(
        T.scatter(T.mul(raw, mask), params.pair_index, n * n), (batch, n, n)
    )
    if cfg.score_activation == "relu":
        return T.relu(pre)
    pre = T.masked_fill(pre, ~params.allowed, MASK_FILL)
    return T.softmax(pre, axis=-1)


def rank_candidates(scores: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """Order candidates along the last axis: score descending, ties by hop
    then by index. Leading axes rank row by row; hops broadcast to the
    scores' shape, so one [n, n] hop table serves a [batch, n, n] batch.
    """
    hops = np.broadcast_to(hops, scores.shape)
    ids = np.broadcast_to(np.arange(scores.shape[-1]), scores.shape)
    return np.lexsort((ids, hops, -scores))


def recommend_top_n(
    scores_row: np.ndarray, query: int, spatial: SpatialGraph, n: int
) -> list[int]:
    """Top n candidate indices for one query row.

    Ties break toward fewer hops from the query, then lower index; n is
    truncated to the number of vertices.
    """
    if n < 1:
        raise ConfigError("n must be at least 1")
    scores_row = np.asarray(scores_row, dtype=np.float64)
    if scores_row.shape != (spatial.num_vertices,):
        raise DimensionError(
            f"recommend_top_n: row has shape {scores_row.shape}, expected "
            f"({spatial.num_vertices},)"
        )
    order = rank_candidates(scores_row, spatial.hop_distances(query))
    return [int(i) for i in order[: min(n, spatial.num_vertices)]]
