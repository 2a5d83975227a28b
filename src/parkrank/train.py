"""Listwise training over event windows with chronological splits.

The dataset is a sequence of snapshots, one per interval: event windows
and current run ages feed the scorer, and labels grade every allowed
(query, candidate) pair by whether the candidate is vacant at the
arrival horizon, how long it stays vacant, and how close it is.

Training keeps labels, scores and the loss on the edge list of allowed
pairs, [batch, pairs]. Each per-query sum goes through tensor.row_sum,
which adds the query's pairs in pair order from +0.0, so no zero-filled
[batch, query * candidate] buffer is built. The same computation over
dense [batch, query, candidate] arrays sums in numpy's pairwise order
instead, and the loss and its gradients agree with it within 1e-12. The
L2 penalty is one tensor.sum_squares node, with the bits of the
per-tensor chain of mul, reduce_sum and add.

Eval and validation stay on the edge list too: a split's pair scores,
or a baseline's vertex scores, rank each query's neighborhood, and the
pairs' labels pack into one evaluate.Candidates batch, with the bits of
the whole-row rankings and [query, candidate] labels they replace.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from . import evaluate
from . import model
from . import tensor as T
from .errors import ConfigError, DataError, TrainingDiverged
from .esgraph import RunTable
from .ingest import OccupancyMatrix, SpatialGraph, json_is

SPLIT_FRACS = (0.8, 0.1, 0.1)


@dataclass(frozen=True)
class TrainConfig:
    alpha: int = 6
    beta: int = 2
    conv_channels: int = 8
    embed_dim: int = 16
    kernel_len: int = 3
    score_activation: str = "relu"
    horizon_intervals: int = 4
    prox_weight: float = 0.5
    dur_weight: float = 0.5
    duration_cap: int = 12
    softmax_weight: float = 0.1
    l2_coeff: float = 1e-6
    dropout_rate: float = 0.0
    batch_size: int = 128
    iterations: int = 1000
    learning_rate: float = 0.002
    eval_every: int = 25
    select_best_val: bool = True
    rng_seed: int = 0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            # NaN passes every comparison below, so test it first
            if f.type is float and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.horizon_intervals < 1:
            raise ConfigError("horizon_intervals must be at least 1")
        if self.duration_cap < 1:
            raise ConfigError("duration_cap must be at least 1")
        if self.prox_weight < 0 or self.dur_weight < 0:
            raise ConfigError("label weights must be non-negative")
        if self.prox_weight + self.dur_weight == 0:
            raise ConfigError("at least one label weight must be positive")
        if self.softmax_weight < 0:
            raise ConfigError("softmax_weight must be non-negative")
        if self.l2_coeff < 0:
            raise ConfigError("l2_coeff must be non-negative")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError("dropout_rate must lie in [0, 1)")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be at least 1")
        if self.iterations < 1:
            raise ConfigError("iterations must be at least 1")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be positive")
        if self.eval_every < 1:
            raise ConfigError("eval_every must be at least 1")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be non-negative")

    def model_config(self) -> model.ModelConfig:
        return model.ModelConfig(
            **{f.name: getattr(self, f.name) for f in fields(model.ModelConfig)}
        )

    def to_manifest(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_manifest(cls, payload: dict) -> "TrainConfig":
        if not isinstance(payload, dict):
            raise DataError("training settings are not a JSON object")
        known = {f.name: f.type for f in fields(cls)}
        extra = set(payload) - set(known)
        if extra:
            raise ConfigError(f"unknown training fields: {sorted(extra)}")
        # a default in place of a lost setting would change the model
        missing = set(known) - set(payload)
        if missing:
            raise ConfigError(f"missing training fields: {sorted(missing)}")
        for name, value in payload.items():
            if not json_is(known[name], value):
                raise DataError(f"training field {name} has value {value!r}")
        return cls(**payload)


@dataclass
class Dataset:
    """Precomputed per-interval snapshots plus a chronological split.

    All arrays share the leading axis with ``times`` (absolute interval
    indices). ``vacant_future`` and ``remaining_future`` describe the
    horizon column the labels grade against.
    """

    times: np.ndarray
    windows: np.ndarray
    current_signed: np.ndarray
    vacant_future: np.ndarray
    remaining_future: np.ndarray
    horizon: int
    train_idx: np.ndarray
    val_idx: np.ndarray
    test_idx: np.ndarray

    @property
    def num_vertices(self) -> int:
        return self.windows.shape[1]

    def train_end_time(self) -> int:
        """First interval after the training range, for history baselines."""
        return int(self.times[self.train_idx[-1]]) + 1


def split_sizes(num_usable: int) -> tuple[int, int, int]:
    n_train = int(num_usable * SPLIT_FRACS[0])
    n_val = int(num_usable * SPLIT_FRACS[1])
    n_test = num_usable - n_train - n_val
    return n_train, n_val, n_test


def build_dataset(
    matrix: OccupancyMatrix, cfg: TrainConfig
) -> Dataset:
    states = matrix.states
    num_intervals = states.shape[1]
    first = 1
    last = num_intervals - cfg.horizon_intervals
    if last - first < 3:
        raise DataError(
            f"{num_intervals} intervals leave fewer than 3 usable "
            f"snapshots at horizon {cfg.horizon_intervals}"
        )
    times = np.arange(first, last, dtype=np.int64)
    table = RunTable(states)
    window = table.window_at(times, cfg.alpha)
    remaining = table.remaining_run_lengths(times + cfg.horizon_intervals)
    vacant_future = ~states[:, times + cfg.horizon_intervals].T

    n_train, n_val, _ = split_sizes(len(times))
    if n_train < 1 or n_val < 1:
        raise DataError("dataset too small to split")
    idx = np.arange(len(times))
    return Dataset(
        times=times,
        windows=window.signed_durations,
        current_signed=window.current_signed_duration,
        vacant_future=vacant_future,
        remaining_future=remaining,
        horizon=cfg.horizon_intervals,
        train_idx=idx[:n_train],
        val_idx=idx[n_train : n_train + n_val],
        test_idx=idx[n_train + n_val :],
    )


def edge_labels(
    spatial: SpatialGraph,
    vacant_future: np.ndarray,
    remaining_future: np.ndarray,
    prox_weight: float,
    dur_weight: float,
    duration_cap: int,
) -> np.ndarray:
    """Relevance grades of the allowed (query, candidate) pairs, [..., pairs]
    in the order of spatial.allowed_pairs(), for [..., vertices] inputs.

    A candidate scores only if it is vacant at the horizon; grade =
    proximity term + capped vacancy duration term, then each query's
    grades are scaled to peak at 1.
    """
    vacant = np.asarray(vacant_future, dtype=bool)
    rem = np.asarray(remaining_future, dtype=np.float64)
    if vacant.shape != rem.shape:
        raise DataError("vacancy and duration arrays must align")
    src, dst = spatial.allowed_pairs()
    # an allowed pair is a vertex itself (0 hops) or a neighbour (1 hop)
    prox = prox_weight / (1.0 + (src != dst))
    dur = dur_weight * np.minimum(rem, duration_cap) / duration_cap
    y = (prox + dur[..., dst]) * vacant[..., dst]
    peak = T.row_max(y, src)
    return np.divide(y, peak, out=np.zeros_like(y), where=peak > 0)


def make_labels(spatial: SpatialGraph, *args) -> np.ndarray:
    """edge_labels (same arguments) scattered into [..., query, candidate]
    grades; pairs outside the neighborhoods grade 0. For callers that
    grade whole ranking rows; eval and training read edge_labels."""
    y = edge_labels(spatial, *args)
    n = spatial.num_vertices
    src, dst = spatial.allowed_pairs()
    dense = np.zeros(y.shape[:-1] + (n, n))
    dense[..., src, dst] = y
    return dense


def squared_error(labels, scores, pairs: T.Pairs) -> T.Tensor:
    """Per-query sum of squared score errors, averaged over queries.

    labels and scores ([..., pairs]) hold the cells of pairs' [queries,
    candidates] grid; see tensor.row_sum.
    """
    diff = T.sub(T.Tensor(np.asarray(labels, dtype=np.float64)), scores)
    return T.reduce_mean(T.row_sum(T.mul(diff, diff), pairs))


def listwise_nll(labels, scores, pairs: T.Pairs) -> T.Tensor:
    """Negative label-weighted log-softmax over each query's pairs, laid
    out as in squared_error; other candidates take no part."""
    logp = T.log_softmax(scores, pairs)
    weighted = T.row_sum(T.mul(T.Tensor(labels), logp), pairs)
    return T.mul(T.reduce_mean(weighted), -1.0)


def training_loss(
    labels,
    scores,
    params: model.ModelParams,
    penalty: T.Tensor,
    softmax_weight: float,
    l2_coeff: float,
) -> T.Tensor:
    """Squared error plus weighted listwise NLL and L2 penalty (the
    T.sum_squares node of params.tensors, built before scores; see
    train_loop) over the per-pair labels and scores ([batch, pairs])."""
    total = squared_error(labels, scores, params.pairs)
    if softmax_weight > 0:
        nll = listwise_nll(labels, scores, params.pairs)
        total = T.add(total, T.mul(nll, softmax_weight))
    if l2_coeff > 0:
        total = T.add(total, T.mul(penalty, l2_coeff))
    return total


def _label_args(dataset: Dataset, idx, cfg: TrainConfig):
    return (
        dataset.vacant_future[idx],
        dataset.remaining_future[idx],
        cfg.prox_weight,
        cfg.dur_weight,
        cfg.duration_cap,
    )


def _inputs(dataset: Dataset, idx):
    # the current run's signed age is negative while occupied
    current = dataset.current_signed[idx]
    return dataset.windows[idx], current, current < 0


def _candidates(dataset: Dataset, spatial: SpatialGraph, idx, cfg, ranked):
    """One batch of the (snapshot, query) pairs of idx from the
    (order, position) of every query's slots, [B * n, K] each."""
    times = dataset.times[idx]
    labels = edge_labels(spatial, *_label_args(dataset, idx, cfg))
    return evaluate.pack_pairs(
        spatial, ranked, labels, times, times + dataset.horizon
    )


def split_results(
    params: model.ModelParams,
    dataset: Dataset,
    spatial: SpatialGraph,
    split_idx: np.ndarray,
    cfg: TrainConfig,
) -> list[evaluate.Candidates]:
    """Rank every query of a split with the model as one batch. The
    scorer runs RANK_BLOCK snapshots at a time on the edge list, under
    tensor.no_grad(); one sort then ranks every query's neighborhood."""
    scores = np.empty((len(split_idx), len(params.pairs.positions)))
    with T.no_grad():
        for lo in range(0, len(split_idx), model.RANK_BLOCK):
            idx = split_idx[lo : lo + model.RANK_BLOCK]
            scores[lo : lo + len(idx)] = model.edge_scores(
                params, *_inputs(dataset, idx)
            ).data
    ranked = evaluate.rank_pair_scores(spatial, scores)
    return [_candidates(dataset, spatial, split_idx, cfg, ranked)]


def baseline_split_results(
    predictor: str,
    matrix: OccupancyMatrix,
    dataset: Dataset,
    spatial: SpatialGraph,
    split_idx: np.ndarray,
    cfg: TrainConfig,
) -> list[evaluate.Candidates]:
    """Same queries and labels as the model path, ranked by a baseline
    that scores and ranks the whole split in one call."""
    times, train_end = dataset.times[split_idx], dataset.train_end_time()
    ranked = evaluate.baseline_predict_then_recommend(
        matrix, spatial, times, predictor, train_end
    )
    return [_candidates(dataset, spatial, split_idx, cfg, ranked)]


def split_ndcg(
    params: model.ModelParams,
    dataset: Dataset,
    spatial: SpatialGraph,
    split_idx: np.ndarray,
    cfg: TrainConfig,
) -> float:
    """Mean NDCG@1 over all queries of a split, used for model selection."""
    (batch,) = split_results(params, dataset, spatial, split_idx, cfg)
    ndcg = evaluate.rank_metrics(batch, (1,))["ndcg"][1]
    # summed in query order: np.sum's pairwise order would move the low bits
    return float(np.add.accumulate(ndcg)[-1]) / len(ndcg)


@dataclass
class TrainResult:
    params: model.ModelParams
    dataset: Dataset
    log: list[tuple[int, float, float]]
    best_val_ndcg1: float
    best_step: int


def train_loop(
    matrix: OccupancyMatrix,
    spatial: SpatialGraph,
    cfg: TrainConfig,
    dataset: Dataset | None = None,
) -> TrainResult:
    """Minibatch Adam over shuffled training snapshots.

    Keeps the parameter snapshot with the best validation NDCG@1 and
    restores it before returning unless select_best_val is off, in
    which case the final-step parameters stand. Log rows are
    (step, train_loss, val_ndcg1) at every evaluation point.
    """
    if dataset is None:
        dataset = build_dataset(matrix, cfg)
    if spatial.num_vertices != dataset.num_vertices:
        raise DataError("graph and dataset disagree on vertex count")
    seeds = np.random.SeedSequence(cfg.rng_seed).spawn(3)
    init_rng = np.random.default_rng(seeds[0])
    shuffle_rng = np.random.default_rng(seeds[1])
    dropout_rng = np.random.default_rng(seeds[2])

    params = model.ModelParams(cfg.model_config(), spatial, init_rng)
    opt = T.AdamState(params.tensors, learning_rate=cfg.learning_rate)

    train_idx = dataset.train_idx
    order = shuffle_rng.permutation(train_idx)
    cursor = 0
    log: list[tuple[int, float, float]] = []
    best_val, best_step, best_snap = -1.0, 0, params.snapshot()

    for step in range(1, cfg.iterations + 1):
        if cursor + cfg.batch_size > len(order):
            order = shuffle_rng.permutation(train_idx)
            cursor = 0
        batch = order[cursor : cursor + cfg.batch_size]
        cursor += cfg.batch_size

        # built before the forward, so that backward (newest first) adds
        # its g * p terms after the model's, the checkpoints' recorded order
        penalty = T.sum_squares(params.tensors)
        scores = model.edge_scores(
            params, *_inputs(dataset, batch), cfg.dropout_rate, dropout_rng
        )
        labels = edge_labels(spatial, *_label_args(dataset, batch, cfg))
        loss = training_loss(
            labels, scores, params, penalty, cfg.softmax_weight, cfg.l2_coeff
        )
        loss_val = loss.item()
        if not np.isfinite(loss_val):
            raise TrainingDiverged(f"loss became {loss_val} at step {step}")
        T.backward(loss)
        T.adam_step(params.tensors, opt)
        del penalty, scores, loss  # free this step's graph

        if step % cfg.eval_every == 0 or step == cfg.iterations:
            val = split_ndcg(params, dataset, spatial, dataset.val_idx, cfg)
            log.append((step, loss_val, val))
            if val > best_val:
                best_val, best_step, best_snap = val, step, params.snapshot()

    if cfg.select_best_val:
        params.restore(best_snap)
    return TrainResult(
        params=params,
        dataset=dataset,
        log=log,
        best_val_ndcg1=best_val,
        best_step=best_step,
    )
