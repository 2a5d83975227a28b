"""Listwise training over event windows with chronological splits.

The dataset is a sequence of snapshots, one per interval: event windows
and current run ages feed the scorer, and labels grade every allowed
(query, candidate) pair by whether the candidate is vacant at the
arrival horizon, how long it stays vacant, and how close it is.
"""

from dataclasses import dataclass, fields

import numpy as np

from . import evaluate
from . import model
from . import tensor as T
from .errors import ConfigError, DataError, TrainingDiverged
from .esgraph import RunTable
from .ingest import OccupancyMatrix, SpatialGraph

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

    def model_config(self) -> model.ModelConfig:
        return model.ModelConfig(
            alpha=self.alpha,
            beta=self.beta,
            conv_channels=self.conv_channels,
            embed_dim=self.embed_dim,
            kernel_len=self.kernel_len,
            score_activation=self.score_activation,
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
        for name, value in payload.items():
            kind = (int, float) if known[name] is float else known[name]
            if not isinstance(value, kind):
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
    states_now: np.ndarray
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
    num_locs, num_intervals = states.shape
    first = 1
    last = num_intervals - cfg.horizon_intervals
    if last - first < 3:
        raise DataError(
            f"{num_intervals} intervals leave fewer than 3 usable "
            f"snapshots at horizon {cfg.horizon_intervals}"
        )
    times = np.arange(first, last, dtype=np.int64)
    table = RunTable(states)

    windows = np.empty((len(times), num_locs, cfg.alpha))
    current = np.empty((len(times), num_locs))
    remaining = np.empty((len(times), num_locs), dtype=np.int64)
    for i, t in enumerate(times):
        win = table.window_at(int(t), cfg.alpha)
        windows[i] = win.signed_durations
        current[i] = win.current_signed_duration
        remaining[i] = table.remaining_run_lengths(int(t) + cfg.horizon_intervals)
    states_now = states[:, times].T.copy()
    vacant_future = ~states[:, times + cfg.horizon_intervals].T

    n_train, n_val, _ = split_sizes(len(times))
    if n_train < 1 or n_val < 1:
        raise DataError("dataset too small to split")
    idx = np.arange(len(times))
    return Dataset(
        times=times,
        windows=windows,
        current_signed=current,
        states_now=states_now,
        vacant_future=vacant_future,
        remaining_future=remaining,
        horizon=cfg.horizon_intervals,
        train_idx=idx[:n_train],
        val_idx=idx[n_train : n_train + n_val],
        test_idx=idx[n_train + n_val :],
    )


def make_labels(
    spatial: SpatialGraph,
    vacant_future: np.ndarray,
    remaining_future: np.ndarray,
    prox_weight: float,
    dur_weight: float,
    duration_cap: int,
) -> np.ndarray:
    """Relevance grades for every (query, candidate) pair.

    A candidate scores only if it is recommendable from the query and
    vacant at the horizon; grade = proximity term + capped vacancy
    duration term, then each query row is scaled to peak at 1.
    """
    vacant = np.atleast_2d(np.asarray(vacant_future, dtype=bool))
    rem = np.atleast_2d(np.asarray(remaining_future, dtype=np.float64))
    if vacant.shape != rem.shape:
        raise DataError("vacancy and duration arrays must align")
    allowed = spatial.allowed_mask()
    hops = spatial.all_hop_distances()
    prox_term = np.where(allowed, prox_weight / (1.0 + hops), 0.0)
    dur = dur_weight * np.minimum(rem, duration_cap) / duration_cap
    y = prox_term[np.newaxis] + np.where(allowed[np.newaxis], dur[:, np.newaxis, :], 0.0)
    y = y * vacant[:, np.newaxis, :]
    peak = y.max(axis=-1, keepdims=True)
    y = np.divide(y, peak, out=np.zeros_like(y), where=peak > 0)
    if np.asarray(vacant_future).ndim == 1:
        return y[0]
    return y


def squared_error(labels, scores) -> T.Tensor:
    """Per-query sum of squared score errors, averaged over queries."""
    s = scores if isinstance(scores, T.Tensor) else T.Tensor(scores)
    diff = T.sub(T.Tensor(np.asarray(labels, dtype=np.float64)), s)
    return T.reduce_mean(T.reduce_sum(T.mul(diff, diff), axis=-1))


def listwise_nll(labels, scores, allowed: np.ndarray | None = None) -> T.Tensor:
    """Negative label-weighted log-softmax over each candidate row.

    Blocked pairs are pushed out before the softmax and their log
    probabilities zeroed afterwards so they contribute nothing.
    """
    s = scores if isinstance(scores, T.Tensor) else T.Tensor(scores)
    y = np.asarray(labels, dtype=np.float64)
    if allowed is not None:
        blocked = ~np.broadcast_to(allowed, s.shape)
        s = T.masked_fill(s, blocked, model.MASK_FILL)
    logp = T.log_softmax(s, axis=-1)
    if allowed is not None:
        logp = T.masked_fill(logp, blocked, 0.0)
    weighted = T.reduce_sum(T.mul(T.Tensor(y), logp), axis=-1)
    return T.scale(T.reduce_mean(weighted), -1.0)


def training_loss(
    labels,
    scores,
    params: model.ModelParams | None = None,
    softmax_weight: float = 0.0,
    l2_coeff: float = 0.0,
    allowed: np.ndarray | None = None,
) -> T.Tensor:
    total = squared_error(labels, scores)
    if softmax_weight > 0:
        total = T.add(
            total, T.scale(listwise_nll(labels, scores, allowed), softmax_weight)
        )
    if params is not None and l2_coeff > 0:
        penalty = None
        for p in params.tensors:
            sq = T.reduce_sum(T.mul(p, p))
            penalty = sq if penalty is None else T.add(penalty, sq)
        total = T.add(total, T.scale(penalty, l2_coeff))
    return total


def _batch_labels(dataset: Dataset, spatial: SpatialGraph, idx, cfg: TrainConfig):
    return make_labels(
        spatial,
        dataset.vacant_future[idx],
        dataset.remaining_future[idx],
        cfg.prox_weight,
        cfg.dur_weight,
        cfg.duration_cap,
    )


def _forward_batch(params, dataset: Dataset, idx, training=False, rate=0.0, rng=None):
    return model.forward_scores(
        params,
        dataset.windows[idx],
        dataset.current_signed[idx],
        dataset.states_now[idx],
        training=training,
        dropout_rate=rate,
        rng=rng,
    )


def split_results(
    params: model.ModelParams,
    dataset: Dataset,
    spatial: SpatialGraph,
    split_idx: np.ndarray,
    cfg: TrainConfig,
    chunk: int = 128,
) -> list[evaluate.RankedQueryResult]:
    """Rank every query at every snapshot of a split with the model."""
    allowed = spatial.allowed_mask()
    hops = spatial.all_hop_distances()
    results = []
    for lo in range(0, len(split_idx), chunk):
        idx = split_idx[lo : lo + chunk]
        scores = _forward_batch(params, dataset, idx).data
        labels = _batch_labels(dataset, spatial, idx, cfg)
        for b, i in enumerate(idx):
            t = int(dataset.times[i])
            for q in range(dataset.num_vertices):
                ranking = model.rank_candidates(scores[b, q], hops[q])
                results.append(
                    evaluate.make_result(
                        q,
                        t,
                        t + dataset.horizon,
                        ranking,
                        labels[b, q],
                        np.flatnonzero(allowed[q]),
                    )
                )
    return results


def baseline_split_results(
    predictor: str,
    matrix: OccupancyMatrix,
    dataset: Dataset,
    spatial: SpatialGraph,
    split_idx: np.ndarray,
    cfg: TrainConfig,
) -> list[evaluate.RankedQueryResult]:
    """Same queries and labels as the model path, ranked by a baseline."""
    allowed = spatial.allowed_mask()
    train_end = dataset.train_end_time()
    labels = _batch_labels(dataset, spatial, split_idx, cfg)
    results = []
    for b, i in enumerate(split_idx):
        t = int(dataset.times[i])
        rankings = evaluate.baseline_predict_then_recommend(
            matrix, spatial, t, predictor, train_end=train_end
        )
        for q in range(dataset.num_vertices):
            results.append(
                evaluate.make_result(
                    q,
                    t,
                    t + dataset.horizon,
                    rankings[q],
                    labels[b, q],
                    np.flatnonzero(allowed[q]),
                )
            )
    return results


def split_ndcg(
    params: model.ModelParams,
    dataset: Dataset,
    spatial: SpatialGraph,
    split_idx: np.ndarray,
    cfg: TrainConfig,
    n: int = 1,
) -> float:
    """Mean NDCG over all queries of a split, used for model selection."""
    hops = spatial.all_hop_distances()
    total, count = 0.0, 0
    for lo in range(0, len(split_idx), 128):
        idx = split_idx[lo : lo + 128]
        scores = _forward_batch(params, dataset, idx).data
        labels = _batch_labels(dataset, spatial, idx, cfg)
        for b in range(len(idx)):
            for q in range(dataset.num_vertices):
                ranking = model.rank_candidates(scores[b, q], hops[q])
                total += evaluate.ndcg_at(ranking, labels[b, q], n)
                count += 1
    return total / count


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
    allowed = spatial.allowed_mask()

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

        scores = _forward_batch(
            params, dataset, batch, True, cfg.dropout_rate, dropout_rng
        )
        labels = _batch_labels(dataset, spatial, batch, cfg)
        loss = training_loss(
            labels, scores, params, cfg.softmax_weight, cfg.l2_coeff, allowed
        )
        loss_val = loss.item()
        if not np.isfinite(loss_val):
            raise TrainingDiverged(f"loss became {loss_val} at step {step}")
        T.backward(loss)
        T.adam_step(params.tensors, opt)

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
