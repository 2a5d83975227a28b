"""Event-then-graph ranking network.

Per vertex, the newest turnover events enter as signed durations (vacant
positive, occupied negative), squashed by tanh so the sign gates the
magnitude. A 1-D convolution with bias, ReLU, and mean-pooling summarizes
them into an event embedding. Graph iterations then mix embeddings over
the symmetric-normalized adjacency, each round re-concatenating the event
embedding as a residual before one tensor.dense_relu layer. A pairwise
readout, one tensor.pair_readout node, scores only the allowed (query,
candidate) pairs, each candidate in the query's own neighborhood, over an
edge list, and multiplies each by its own learnable mask weight; the activation
runs on that list too, so training stays on it through the loss, and
eval and validation rank each query's slots (evaluate.rank_pair_scores). Only
recommend places the scores into a [batch, query, candidate] matrix
(forward_scores) whose entries outside the neighborhoods are structural
zeros, so only reachable candidates can score.

Both fused ops keep the bits of the primitive ops they stand for
(tests/unfused_oracle.py holds those chains), so the scores, gradients
and checkpoints are those of the unfused model.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .errors import ConfigError, DataError, DimensionError
from .ingest import SpatialGraph, json_is

SCORE_ACTIVATIONS = ("relu", "softmax")
RANK_BLOCK = 128  # snapshots per edge_scores call when a split is ranked


@dataclass(frozen=True)
class ModelConfig:
    """Architecture hyperparameters.

    alpha: events read per vertex; beta: graph mixing rounds;
    conv_channels and embed_dim size the event and vertex embeddings.
    score_activation picks the final squash of each pair's score: relu, or
    a softmax over each query's pairs. There are no defaults here:
    train.TrainConfig holds them.
    """

    alpha: int
    beta: int
    conv_channels: int
    embed_dim: int
    kernel_len: int
    score_activation: str

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


def normalized_adjacency(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The symmetric-normalized adjacency plus self-loops on the allowed
    pairs (src, dst), one weight per pair: 1 / sqrt(deg src * deg dst),
    where a vertex's degree counts its pairs, itself included."""
    inv_sqrt = 1.0 / np.sqrt(np.bincount(src))
    return inv_sqrt[src] * inv_sqrt[dst]


def param_shapes(config: ModelConfig, pairs: int):
    """The learnable tensors' (name, shape) pairs over a graph of pairs
    allowed (query, candidate) pairs, in the order ModelParams draws them
    and checkpoints store them; mask.weights holds one weight per pair, in
    SpatialGraph.allowed_pairs order. Lazy, so a checkpoint claiming a
    huge beta fails at its first missing tensor."""
    a, d, m = config.alpha, config.embed_dim, config.conv_channels
    yield "conv.weight", (m, config.kernel_len)
    yield "conv.bias", (m,)
    yield "gcn.input", (2, d)
    for step in range(1, config.beta + 1):
        yield f"gcn.mix.{step}", (d, d)
        yield f"gcn.weight.{step}", (d + m, d)
        yield f"gcn.bias.{step}", (d,)
    yield "readout.query", (a + 1, d)
    yield "readout.item", (d, d)
    yield "readout.bias", (d,)
    yield "mask.weights", (pairs,)


def check_weights(
    entries: dict, manifest: dict, config: ModelConfig, spatial: SpatialGraph
) -> None:
    """Raise a DataError, naming the first problem in layout order, unless
    a checkpoint fits the model of config on the graph spatial: the
    manifest's top-level model fields and vertex count equal them in type
    and value (JSON 3.0 or true is not 3 or 1), and the tensors are
    exactly those of param_shapes over the graph's allowed pairs, each of
    its shape and finite."""
    n = spatial.num_vertices
    saved = manifest.get("num_vertices")
    if not json_is(int, saved) or saved != n:
        raise DataError(
            f"checkpoint was trained on {saved!r} vertices but the graph "
            f"has {n}"
        )
    for key, value in asdict(config).items():
        saved = manifest.get(key)
        if not json_is(type(value), saved) or saved != value:
            raise DataError(
                f"training settings give {key} {value!r} but the model "
                f"was saved with {saved!r}"
            )
    names = set()
    for name, shape in param_shapes(config, len(spatial.allowed_pairs()[0])):
        names.add(name)
        if name not in entries:
            raise DataError(f"checkpoint is missing tensor {name!r}")
        if entries[name].shape != shape:
            raise DataError(
                f"checkpoint tensor {name!r} has shape "
                f"{entries[name].shape}, expected {shape}"
            )
        if not np.isfinite(entries[name]).all():
            raise DataError(f"checkpoint tensor {name!r} is not finite")
    for name in entries:
        if name not in names:
            raise DataError(f"checkpoint holds unknown tensor {name!r}")


class ModelParams:
    """All learnable tensors plus the constants derived from the graph,
    built once here from its allowed pairs: allowed, the [n, n] candidate
    mask; pairs, the tensor.Pairs index of the allowed (query, candidate)
    cells of the [n, n] grid, row-major; and mix_table, the weighted
    neighbour table of the normalized adjacency over those pairs, which
    neighbor_mix sums through both ways since the graph is undirected.

    The tensors follow param_shapes: biases start at zero, mask.weights
    (one per pair) at one, the rest Glorot normal, drawn from rng in order.
    """

    def __init__(self, config: ModelConfig, spatial: SpatialGraph, rng):
        self.config = config
        self.num_vertices = n = spatial.num_vertices
        self.allowed = spatial.allowed_mask()
        src, dst = spatial.allowed_pairs()
        self.pairs = T.Pairs(src * n + dst, (n, n))
        self.mix_table = T.NeighborTable(
            src, n, dst, normalized_adjacency(src, dst)
        )
        self._tensors: dict[str, T.Tensor] = {}
        for name, shape in param_shapes(config, len(src)):
            if name == "mask.weights":
                init = np.ones(shape)
            elif len(shape) == 1:
                init = np.zeros(shape)
            else:
                init = rng.normal(0.0, np.sqrt(2.0 / sum(shape)), size=shape)
            self._tensors[name] = T.Tensor(init, requires_grad=True)

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
            **asdict(self.config),
            "num_vertices": self.num_vertices,
            "sign_convention": "vacant=+1,occupied=-1",
        }
        if extra_manifest:
            manifest.update(extra_manifest)
        T.save_checkpoint(
            path, {k: v.data for k, v in self._tensors.items()}, manifest
        )


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
    conv = T.conv1d(
        np.tanh(windows), params.get("conv.weight"), params.get("conv.bias")
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
            T.neighbor_mix(params.mix_table, z), params.get(f"gcn.mix.{step}")
        )
        z = T.dense_relu(
            T.concat([mixed, h], axis=-1),
            params.get(f"gcn.weight.{step}"),
            params.get(f"gcn.bias.{step}"),
        )
        if dropout_rate > 0.0:
            z = _dropout(z, dropout_rate, rng)
    return z


def edge_scores(
    params: ModelParams,
    windows: np.ndarray,
    current_signed: np.ndarray,
    states_now: np.ndarray,
    dropout_rate: float = 0.0,
    rng=None,
) -> T.Tensor:
    """Score the allowed (query, candidate) pairs of a batch of snapshots.

    windows: [batch, vertices, alpha] signed durations;
    current_signed: [batch, vertices]; states_now: [batch, vertices] bool.
    Returns [batch, pairs] over the edge list params.pairs,
    after the activation; softmax normalizes over each query's pairs.
    A positive dropout_rate (training) drops activations with rng.
    """
    if windows.ndim != 3:
        raise DimensionError(
            f"edge_scores: windows must be 3-D, got {windows.shape}"
        )
    cfg = params.config
    n = params.num_vertices
    if windows.shape[1] != n or windows.shape[2] != cfg.alpha:
        raise DimensionError(
            f"edge_scores: windows {windows.shape} do not match "
            f"{n} vertices and alpha {cfg.alpha}"
        )
    if dropout_rate > 0.0 and rng is None:
        raise ConfigError("dropout during training needs an rng")

    h = event_embed(params, windows, dropout_rate, rng)
    real_time = real_time_features(current_signed, states_now)
    z = graph_rounds(params, real_time, h, dropout_rate, rng)

    # pairwise readout over the allowed pairs: query features against
    # candidate embeddings, [batch, pairs, embed_dim]
    query_feat = np.concatenate(
        [np.tanh(windows), np.tanh(current_signed)[..., None]], -1
    )
    q = T.matmul(T.Tensor(query_feat), params.get("readout.query"))
    item = T.matmul(z, params.get("readout.item"))
    raw = T.pair_readout(q, item, params.get("readout.bias"), params.pairs)
    pre = T.mul(raw, params.get("mask.weights"))
    if cfg.score_activation == "relu":
        return T.relu(pre)
    return T.softmax(pre, params.pairs)


def forward_scores(params: ModelParams, *args, **kwargs) -> T.Tensor:
    """edge_scores (same arguments) placed into a [batch, query,
    candidate] tensor, 0 outside params.allowed: a constant view for
    recommend's ranking, through which no gradient flows back to the
    parameters.

    edge_scores runs under tensor.no_grad(), so it builds no tape that
    would keep its intermediates alive until the scores are dropped;
    training calls edge_scores itself and keeps its tape."""
    n = params.num_vertices
    with T.no_grad():
        scores = edge_scores(params, *args, **kwargs).data
    dense = np.zeros((len(scores), n * n))
    dense[:, params.pairs.positions] = scores
    return T.Tensor(dense.reshape(-1, n, n))


def rank_candidates(scores: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """Order one row of candidates: score descending, ties by hop then by
    index."""
    return np.lexsort((np.arange(len(scores)), hops, -scores))


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
