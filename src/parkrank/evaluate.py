"""Ranking and waiting-time evaluation, baselines, scenario slicing.

Ranked queries travel as ``Candidates`` batches of arrays, one row per
query, each packed to the query's neighborhood (itself plus its spatial
neighbors): [Q, K] arrays, K the largest neighborhood, hold each
candidate's id, its rank position in the query's ranking of all n
vertices, and its label, in rank order. ``summarize``, ``awtp_rnwtr``
and ``slice_scenarios`` take a list of one pack, or of dense
``QueryResults`` batches of whole [Q, n] ranking rows, as
``make_result`` builds: those are joined and packed once per call, so
every metric reads a pack.

Ranking quality uses NDCG with linear gain and MAP with labels binarized
at y > 0. Waiting-time quality simulates following the recommendations:
the achieved waiting time of a top-n list is the best waiting time among
its candidates, averaged over queries (AWTP); its ratio to the oracle
ranking's value (RNWTR) is 1.0 for a perfect ranking. Both restrict
candidates to the query's neighborhood, where labels live. A baseline's
time or a wait's horizon outside the matrix raises the DataError of
``ingest.check_times``, the one interval check.

The bits match a computation over the whole row. ``rank_metrics``
grades every list size in one pass over a pack's slots as [Q] columns:
DCG terms sit at their rank positions, zero elsewhere, and the ideal
terms are the packed labels sorted once and zero-padded (labels are
non-negative and zero outside the neighborhood), in the same layout.
Fewer than 8 terms add column by column to +0.0, as numpy's row sum adds
them, and 8 or more along rows, in its pairwise order. MAP's running sum
only skips +0.0 terms, and the wait columns hold the same integers.
``ndcg_at`` and ``map_at`` pack their rows and run the same code.

The model and the baselines rank on the edge list of allowed pairs and
never build a ranking row. Each query's candidates sit in slots ordered
by (hop, id): the query itself, then its neighbors by id. One stable
sort along the slots orders them by score, ties by (hop, id), as
model.rank_candidates orders a whole row, and that slot order is a
ranked split: ``pack_pairs`` takes each slot's vertex and label through
it. The rank position in the whole row follows from counting on the
sorted slots, because every vertex outside the neighborhood lies 2 or
more hops away and so after every candidate it ties with
(``rank_pair_scores``, ``rank_vertex_scores``).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import ConfigError, DataError
from .ingest import (
    OccupancyMatrix, SpatialGraph, check_times, json_text, write_csv
)

DEFAULT_MAX_WAIT = 24
RANK_NS = (1, 5)
WAIT_NS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class Candidates:
    """Q ranked queries packed to their neighborhoods: [Q] vertex and
    times, [Q, K] the rest.

    Row q lists its query's candidates best first: vertex holds their
    ids, position their rank positions in the query's ranking of all
    num_vertices vertices, labels their grades. K is the largest
    neighborhood, at least 1; padding slots hold vertex -1, position
    num_vertices and label 0.
    """

    query_vertex: np.ndarray
    query_time: np.ndarray
    horizon_time: np.ndarray
    vertex: np.ndarray
    position: np.ndarray
    labels: np.ndarray
    num_vertices: int

    def __len__(self) -> int:
        return len(self.query_time)


@dataclass(frozen=True)
class QueryResults:
    """Q ranked queries as whole rows: [Q] vertex and times, [Q, n] the
    rest; the input form of make_result.

    Each ranking row is a permutation of all vertex ids, best first. The
    neighborhood mask marks the query's candidates (itself plus spatial
    neighbors); labels must be zero outside it, which packing checks.
    """

    query_vertex: np.ndarray
    query_time: np.ndarray
    horizon_time: np.ndarray
    ranking: np.ndarray
    labels: np.ndarray
    neighborhood: np.ndarray

    def __post_init__(self):
        ids = np.arange(self.ranking.shape[-1])
        if (np.sort(self.ranking, axis=-1) != ids).any():
            raise DataError("ranking must be a permutation of vertex ids")
        if self.labels.shape != self.ranking.shape:
            raise DataError("label row length must match ranking length")

    def __len__(self) -> int:
        return len(self.query_time)


def make_result(
    query_vertex: int,
    query_time: int,
    horizon_time: int,
    ranking,
    labels,
    neighborhood,
) -> QueryResults:
    """A one-row batch, for consumers that take a sequence of batches.

    neighborhood lists the query's candidate vertex ids.
    """
    ranking = np.asarray(ranking, dtype=np.int64)[np.newaxis]
    hood = np.isin(np.arange(ranking.shape[1]), neighborhood)
    return QueryResults(
        query_vertex=np.array([query_vertex], dtype=np.int64),
        query_time=np.array([query_time], dtype=np.int64),
        horizon_time=np.array([horizon_time], dtype=np.int64),
        ranking=ranking,
        labels=np.asarray(labels, dtype=np.float64)[np.newaxis],
        neighborhood=hood[np.newaxis],
    )


Batches = Sequence[Candidates] | Sequence[QueryResults]


def _concat(results: Batches, check_labels: bool = True) -> Candidates:
    """All rows of a non-empty sequence of batches as one pack: a lone
    pack passes through, and dense batches are joined and packed once;
    check_labels off skips the packing's label check, for consumers that
    read no labels. Packs of different widths are not joined."""
    if len(results) == 1 and isinstance(results[0], Candidates):
        return results[0]
    if not all(isinstance(b, QueryResults) for b in results):
        raise DataError("pass one Candidates pack or only dense batches")
    vertex, time, horizon, ranking, labels, hood = (
        np.concatenate([getattr(b, f.name) for b in results])
        for f in fields(QueryResults)
    )
    return _pack_rows(
        ranking, hood, labels, check_labels, vertex, time, horizon
    )


# ---------------------------------------------------------------------------
# packing
# ---------------------------------------------------------------------------


def _pack_rows(
    ranking, mask, labels, check_labels, query_vertex, query_time,
    horizon_time,
) -> Candidates:
    """The candidates each row of a [Q, n] vertex mask marks, in the rank
    order of the [Q, n] rankings, with their [Q, n] labels."""
    length = ranking.shape[-1]
    # nonzero walks row by row, so each row's candidates come in rank order
    rows, position = np.nonzero(np.take_along_axis(mask, ranking, axis=-1))
    counts = np.bincount(rows, minlength=len(ranking))
    slots = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    shape = (len(ranking), max(1, int(counts.max(initial=0))))

    def spread(values, fill):
        out = np.full(shape, fill, dtype=values.dtype)
        out[rows, slots] = values
        return out

    vertex = ranking[rows, position]
    packed = spread(labels[rows, vertex], 0.0)
    if check_labels:
        if np.count_nonzero(packed) != np.count_nonzero(labels):
            outside = np.count_nonzero(labels, axis=-1) != np.count_nonzero(
                packed, axis=-1
            )
            raise DataError(
                f"query {int(np.argmax(outside))} has a nonzero label "
                "outside its neighborhood"
            )
        if (packed < 0.0).any():
            raise DataError("labels must be non-negative")
    return Candidates(
        query_vertex, query_time, horizon_time, spread(vertex, -1),
        spread(position, length), packed, length,
    )


def _slots(spatial: SpatialGraph, values: np.ndarray, fill) -> np.ndarray:
    """[S * n, K], of fill's dtype: [S, pairs] values of the allowed pairs
    laid into each snapshot's [n, K] pair_slots, fill elsewhere."""
    _, width, cell = spatial.pair_slots()
    out = np.full((len(values), spatial.num_vertices * width), fill)
    out[:, cell] = values
    return out.reshape(-1, width)


def _sort(spatial: SpatialGraph, keys: np.ndarray):
    """(order, sorted keys) along the [S * n, K] slots of [S, pairs] keys:
    one stable sort, so ties keep (hop, id) order; NaN keys sort after
    every number and padding after them."""
    pad = np.nan if keys.dtype.kind == "f" else np.iinfo(keys.dtype).max
    grid = _slots(spatial, keys, pad)
    order = np.argsort(grid, axis=-1, kind="stable")
    return order, np.take_along_axis(grid, order, axis=-1)


def rank_pair_scores(spatial: SpatialGraph, scores: np.ndarray):
    """(order, position) under [S, pairs] scores in the order of
    spatial.allowed_pairs(), such as model.edge_scores gives.

    Row s * n + q of each [S * n, K] array serves query q of snapshot s:
    order sorts its slots best first, and position holds each sorted
    slot's place in model.rank_candidates of the query's whole row: the
    pair scores, 0 elsewhere. The n - K_q vertices outside a
    neighborhood of K_q read that 0 at 2 or more hops, so they come
    after each candidate whose score is 0 or more and before each
    negative or NaN one.
    """
    size, width, _ = spatial.pair_slots()
    order, ranked = _sort(spatial, -np.asarray(scores, dtype=np.float64))
    outside = np.tile(spatial.num_vertices - size, len(scores))[:, np.newaxis]
    return order, np.arange(width) + outside * ~(ranked <= 0.0)


def rank_vertex_scores(spatial: SpatialGraph, scores: np.ndarray):
    """(order, position) as rank_pair_scores gives them, for [S, n] scores
    of each vertex shared by every query's row, as the baselines score.

    Every score gets a dense descending rank r from np.unique, shared by
    all rows: -0.0 and +0.0 tie, and so do NaNs, after every number, as
    they do in lexsort. A candidate's position counts the vertices of its
    snapshot with a lower r, by one sort and a searchsorted over every
    snapshot at once, plus the candidates before it in its neighborhood
    with an equal r: a tied vertex outside the neighborhood lies 2 or
    more hops away, so after it.
    """
    dst = spatial.allowed_pairs()[1]
    r = np.unique(-scores, return_inverse=True)[1].reshape(scores.shape)
    # ranks lie below r.size, so offsetting snapshot s by s * r.size
    # keeps the snapshots apart in one sorted array
    offset = r.size * np.arange(len(r))[:, np.newaxis]
    lower = np.searchsorted(np.sort(r + offset, axis=None), r + offset)
    lower -= spatial.num_vertices * np.arange(len(r))[:, np.newaxis]
    order, ranked = _sort(spatial, r[:, dst])
    # each sorted slot's distance from the first of its tie group
    step = np.ones(ranked.shape, dtype=bool)
    step[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    place = np.arange(ranked.shape[1])
    ties = place - np.maximum.accumulate(np.where(step, place, 0), axis=-1)
    below = np.take_along_axis(_slots(spatial, lower[:, dst], 0), order, -1)
    return order, below + ties


def pack_pairs(
    spatial: SpatialGraph,
    ranked,
    labels: np.ndarray,
    query_time: np.ndarray,
    horizon_time: np.ndarray,
) -> Candidates:
    """One batch of every query of S snapshots, snapshot-major, from the
    [S * n, K] (order, position) that rank_pair_scores or
    rank_vertex_scores give and the [S, pairs] labels of the allowed
    pairs: the slots' vertices and labels are taken in each row's order."""
    order, position = ranked
    n = spatial.num_vertices
    dst = np.broadcast_to(spatial.allowed_pairs()[1], labels.shape)
    vertex = np.take_along_axis(_slots(spatial, dst, -1), order, -1)
    return Candidates(
        query_vertex=np.tile(np.arange(n), len(query_time)),
        query_time=np.repeat(query_time, n),
        horizon_time=np.repeat(horizon_time, n),
        vertex=vertex,
        position=np.where(vertex < 0, n, position),
        labels=np.take_along_axis(_slots(spatial, labels, 0.0), order, -1),
        num_vertices=n,
    )


# ---------------------------------------------------------------------------
# ranking metrics
# ---------------------------------------------------------------------------


def rank_metrics(batch: Candidates, ns) -> dict[str, dict[int, np.ndarray]]:
    """{"ndcg": {n: [Q] NDCG at n}, "map": {n: [Q] MAP at n}} of each query
    of a pack for each list size n of ns, in one pass over its slot
    columns, each a [Q] row once the pack is slot-major; see ndcg_at."""
    if min(ns, default=1) < 1:
        raise ConfigError("n must be at least 1")
    labels = np.ascontiguousarray(batch.labels.T)
    position = np.ascontiguousarray(batch.position.T)
    widest = min(max(ns, default=0), batch.num_vertices)
    top = min(len(labels), widest)
    # per rank position below widest, the DCG term of the label there, or
    # zero, and the ideal term of the labels sorted, zero-padded; slot s
    # holds position s or a later one, so only the slots below widest count
    gains = np.zeros((widest, 2, len(batch)))
    places = np.arange(widest)[:, np.newaxis]
    for s in range(top):
        np.copyto(gains[s:, 0], labels[s], where=position[s] == places[s:])
    gains[:top, 1] = np.sort(batch.labels, axis=-1).T[::-1][:top]
    gains *= 1.0 / np.log2(np.arange(2.0, widest + 2))[:, None, None]
    # a hit ranks before n, and so does every relevant slot before it, so
    # its precision is the same at every n
    relevant = labels[: max(ns, default=0)] > 0.0
    count = relevant * 1.0
    for s in range(1, len(count)):
        count[s] += count[s - 1]
    precision = relevant * count / (position[: len(count)] + 1.0)
    found = np.count_nonzero(labels > 0.0, axis=0)
    ndcg, mean_ap = {}, {}
    for n in ns:
        terms = gains[: min(n, batch.num_vertices)]
        # numpy's row sum: fewer than 8 terms one by one, as sum() adds
        # them, 8 or more pairwise; a perfect ranking reads exactly 1.0
        dcg, idcg = sum(terms, 0.0) if len(terms) < 8 else (
            np.ascontiguousarray(terms.transpose(1, 2, 0)).sum(axis=-1))
        ndcg[n] = np.divide(dcg, idcg, out=np.ones_like(dcg), where=idcg != 0)
        # the hit terms in rank order; a slot at or past n ranks no hit
        ap = sum(precision[:n] * (position[:n] < n), 0.0)
        mean_ap[n] = np.divide(
            ap, np.minimum(found, n), out=np.zeros_like(ap), where=found > 0
        )
    return {"ndcg": ndcg, "map": mean_ap}


def _row_metric(metric, ranking, labels, n):
    """rank_metrics' named metric over the rows along the last axis of
    same-shape ranking and labels, packed to each row's nonzero labels."""
    ranking = np.asarray(ranking, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.float64)
    if ranking.shape != labels.shape or ranking.ndim < 1:
        raise DataError("ranking and labels must have the same shape")
    rows = (-1, ranking.shape[-1])
    label_rows = labels.reshape(rows)
    untimed = np.zeros(len(label_rows), dtype=np.int64)
    pack = _pack_rows(
        ranking.reshape(rows), label_rows != 0.0, label_rows, True,
        untimed, untimed, untimed,
    )
    out = rank_metrics(pack, (n,))[metric][n].reshape(ranking.shape[:-1])
    return float(out) if out.ndim == 0 else out


def ndcg_at(ranking, labels, n: int):
    """Discounted cumulative gain at n over the ideal ordering.

    Linear gain; rank i contributes labels[ranking[i]] / log2(i + 2).
    Returns 1.0 when the ideal is zero (an all-zero label row ranks
    perfectly by convention). Rows lie along the last axis; each ranking
    row is a permutation of its label row's indices, and labels are
    non-negative. Each row is packed to its nonzero labels and graded by
    rank_metrics, with the bits of whole rows. One row gives a float.
    """
    return _row_metric("ndcg", ranking, labels, n)


def map_at(ranking, labels, n: int):
    """Mean average precision at n with labels binarized at y > 0.

    The AP denominator is min(number of relevant items, n); a row with no
    relevant items scores 0. Rows lie along the last axis and are graded
    as in ndcg_at; one row gives a float.
    """
    return _row_metric("map", ranking, labels, n)


# ---------------------------------------------------------------------------
# waiting-time metrics
# ---------------------------------------------------------------------------


def _best_waits(batch: Candidates, matrix: OccupancyMatrix, max_wait: int):
    """[Q, K] running minima of the capped waits at each query's horizon.

    Column j is the best wait among the first j + 1 ranked candidates in
    the query's neighborhood; the last column covers the whole of it.
    """
    if max_wait < 1:
        raise ConfigError("max_wait must be at least 1")
    check_times(batch.horizon_time, matrix.num_intervals, "horizon")
    ranked = batch.position.T < batch.num_vertices
    if not ranked[0].all():
        raise DataError("every query needs a non-empty neighborhood")
    # next-vacant distances look only forward, so the table can start at
    # the earliest horizon and still hold the whole-matrix integers; an
    # empty batch starts past the last column
    start = batch.horizon_time.min(initial=matrix.num_intervals)
    waits = np.minimum(
        kernels.next_vacant_steps(matrix.states[:, start:]), max_wait
    )
    at = batch.horizon_time - start
    waits = np.where(ranked, waits[batch.vertex.T, at], max_wait)
    for j in range(1, len(waits)):
        np.minimum(waits[j - 1], waits[j], out=waits[j])
    return waits.T


def _wait_scores(best: np.ndarray, n: int) -> tuple[float, float, float]:
    """(achieved, ideal, ratio) at list size n from _best_waits rows."""
    if n < 1:
        raise ConfigError("n must be at least 1")
    awtp = float(best[:, min(n, best.shape[1]) - 1].sum()) / len(best)
    iawtp = float(best[:, -1].sum()) / len(best)
    return awtp, iawtp, 1.0 if awtp == 0.0 else iawtp / awtp


def awtp_rnwtr(
    results: Batches,
    matrix: OccupancyMatrix,
    n: int,
    max_wait: int = DEFAULT_MAX_WAIT,
) -> tuple[float, float, float]:
    """(achieved, ideal, ratio) waiting-time performance at list size n.

    Per query, the achieved value is the smallest waiting time among the
    first n ranked candidates inside the query's neighborhood; the ideal
    value uses the oracle ordering of the same candidates. The ratio is
    ideal / achieved, taken as 1.0 when the achieved value is 0. Waits
    read no labels, so dense batches are packed without checking them.
    """
    if not sum(map(len, results)):
        raise DataError("no query results to evaluate")
    best = _best_waits(_concat(results, check_labels=False), matrix, max_wait)
    return _wait_scores(best, n)


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def _clock(matrix: OccupancyMatrix, times: np.ndarray):
    """(day, minute of the day) of interval indices on the wall clock,
    days counted from the matrix's first."""
    start = matrix.start_time
    minutes = start.hour * 60 + start.minute + times * matrix.interval_minutes
    return np.divmod(minutes, 24 * 60)


def persistence_scores(
    matrix: OccupancyMatrix, t: int | np.ndarray, train_end: int | None = None
) -> np.ndarray:
    """1.0 where vacant at t, else 0.0; [n] at an int t, [S, n] at S times."""
    vacant = ~matrix.states.T[check_times(t, matrix.num_intervals)]
    return vacant.astype(np.float64)


def historical_mean_scores(
    matrix: OccupancyMatrix, t: int | np.ndarray, train_end: int
) -> np.ndarray:
    """Vacancy frequency at t's time of day over the training range.

    Buckets are wall-clock time-of-day slots, minute of the day // the
    interval, so an interval that does not divide a day leaves the last
    slot short. One [buckets, n] table holds each bucket's vacancy count
    over its training columns divided by their number; a bucket with no
    training column falls back, for every location at once, to each
    location's overall training vacancy rate. [n] at an int t, [S, n] at
    a 1-D array of S times.
    """
    times = check_times(t, matrix.num_intervals)
    if not 1 <= train_end <= matrix.num_intervals:
        raise DataError(f"train_end must lie in [1, {matrix.num_intervals}]")
    step = matrix.interval_minutes
    per_day = -(-24 * 60 // step)
    days, minute = _clock(matrix, np.arange(train_end))
    buckets = minute // step
    vacant = ~matrix.states[:, :train_end]
    # the training columns laid over whole days: one day's columns are step
    # minutes apart, so each falls in its own bucket
    laid = np.zeros((days[-1] + 1, per_day, len(vacant)), dtype=bool)
    laid[days, buckets] = vacant.T
    counts = laid.sum(axis=0)
    size = np.bincount(buckets, minlength=per_day)[:, np.newaxis]
    # 0/1 counts add up exactly, so each entry has the bits of a bucket mean
    means = np.where(size > 0, counts / np.maximum(size, 1), vacant.mean(axis=1))
    return means[_clock(matrix, times)[1] // step]


_PREDICTORS: dict[str, Callable] = {
    "persistence": persistence_scores,
    "historical_mean": historical_mean_scores,
}
BASELINE_NAMES = tuple(_PREDICTORS)


def baseline_predict_then_recommend(
    matrix: OccupancyMatrix,
    spatial: SpatialGraph,
    t: int | np.ndarray,
    predictor: str,
    train_end: int,
):
    """Per-query candidate rankings from a per-vertex availability score.

    The predictor scores each vertex once per time; every query then ranks
    all vertices by that score, breaking ties toward fewer hops and lower
    index. The result is the (order, position) of every query's slots, as
    rank_vertex_scores gives them: [n, K] each at an int t, [S * n, K]
    at a 1-D array of S times, such as a whole split, scored and ranked
    in one call.
    """
    if predictor not in _PREDICTORS:
        raise ConfigError(
            f"unknown predictor {predictor!r}; expected one of "
            f"{BASELINE_NAMES}"
        )
    scores = _PREDICTORS[predictor](matrix, t, train_end)
    return rank_vertex_scores(spatial, np.atleast_2d(scores))


# ---------------------------------------------------------------------------
# aggregation and scenario slicing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MetricsReport:
    """Aggregated metrics for one model on one scenario slice."""

    model: str
    scenario: str
    num_queries: int
    ndcg: dict[int, tuple[float, float]]
    mean_ap: dict[int, tuple[float, float]]
    awtp: dict[int, float]
    iawtp: float
    rnwtr: dict[int, float]

    def as_dict(self) -> dict:
        def pack(stats):
            return {
                str(k): {"mean": m, "std": s} for k, (m, s) in stats.items()
            }

        return {
            "model": self.model,
            "scenario": self.scenario,
            "num_queries": self.num_queries,
            "ndcg": pack(self.ndcg),
            "map": pack(self.mean_ap),
            "awtp": {str(k): v for k, v in self.awtp.items()},
            "iawtp": self.iawtp,
            "rnwtr": {str(k): v for k, v in self.rnwtr.items()},
        }

    def csv_row(self) -> list:
        """The metrics.csv row; an empty scenario reads 0.0 in each metric."""
        cells = [self.model, self.scenario, self.num_queries]
        for stats in (self.ndcg, self.mean_ap):
            for n in RANK_NS:
                cells += stats.get(n, (0.0, 0.0))
        cells += [self.awtp.get(n, 0.0) for n in WAIT_NS]
        cells.append(self.iawtp)
        return cells + [self.rnwtr.get(n, 0.0) for n in WAIT_NS]

    def plot_rows(self) -> list[tuple[str, str, str, float, float]]:
        cells = [(f"ndcg@{k}", *v) for k, v in sorted(self.ndcg.items())]
        cells += [(f"map@{k}", *v) for k, v in sorted(self.mean_ap.items())]
        cells += [(f"awtp@{k}", v, 0.0) for k, v in sorted(self.awtp.items())]
        cells.append(("iawtp", self.iawtp, 0.0))
        cells += [(f"rnwtr@{k}", v, 0.0) for k, v in sorted(self.rnwtr.items())]
        return [(self.model, m, self.scenario, v, s) for m, v, s in cells]


def empty_report(model: str, scenario: str) -> MetricsReport:
    return MetricsReport(model, scenario, 0, {}, {}, {}, 0.0, {})


def _reports(batch, matrix, model_name, masks, max_wait):
    """One report per named [Q] mask of one pack at the RANK_NS and
    WAIT_NS list sizes; per-query values are computed once, and so is the
    report of every mask that selects all Q."""
    graded = rank_metrics(batch, RANK_NS)
    best = _best_waits(batch, matrix, max_wait)
    out = {}
    whole = None
    for name, mask in masks.items():
        if not mask.any():
            out[name] = empty_report(model_name, name)
            continue
        if whole is not None and mask.all():
            out[name] = replace(whole, scenario=name)
            continue
        sliced = best[mask]
        waits = {n: _wait_scores(sliced, n) for n in WAIT_NS}
        out[name] = MetricsReport(
            model=model_name,
            scenario=name,
            num_queries=int(mask.sum()),
            ndcg={n: _mean_std(v[mask]) for n, v in graded["ndcg"].items()},
            mean_ap={n: _mean_std(v[mask]) for n, v in graded["map"].items()},
            awtp={n: w[0] for n, w in waits.items()},
            iawtp=waits[WAIT_NS[-1]][1],
            rnwtr={n: w[2] for n, w in waits.items()},
        )
        if mask.all():
            whole = out[name]
    return out


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std())


def summarize(
    results: Batches,
    matrix: OccupancyMatrix,
    model_name: str,
) -> MetricsReport:
    """Aggregate per-query metrics into one report (means and stds) of
    the scenario "all"."""
    return slice_scenarios(results, matrix, model_name)["all"]


SCENARIOS = ("workday", "weekend", "daytime", "nighttime")


def scenario_masks(matrix: OccupancyMatrix, times) -> dict[str, np.ndarray]:
    """Scenario membership of interval indices; daytime is 07:00-18:59."""
    days, minute = _clock(matrix, np.asarray(times, dtype=np.int64))
    weekday = (matrix.start_time.weekday() + days) % 7
    hour = minute // 60
    day = (7 <= hour) & (hour < 19)
    return {
        "workday": weekday < 5,
        "weekend": weekday >= 5,
        "daytime": day,
        "nighttime": ~day,
    }


def slice_scenarios(
    results: Batches,
    matrix: OccupancyMatrix,
    model_name: str,
    max_wait: int = DEFAULT_MAX_WAIT,
) -> dict[str, MetricsReport]:
    """Reports per scenario plus the unsliced whole under key "all".

    Scenario membership is decided by the query time. Empty slices yield
    a zero-query report rather than an error.
    """
    if not results:
        return {k: empty_report(model_name, k) for k in ("all", *SCENARIOS)}
    batch = _concat(results)
    masks = {"all": np.ones(len(batch), dtype=bool)}
    masks.update(scenario_masks(matrix, batch.query_time))
    return _reports(batch, matrix, model_name, masks, max_wait)


METRICS_CSV_COLUMNS = (
    "model", "scenario", "num_queries",
    *(f"{metric}{n}{part}" for metric in ("ndcg", "map")
      for n in RANK_NS for part in ("", "_std")),
    *(f"awtp{n}" for n in WAIT_NS), "iawtp",
    *(f"rnwtr{n}" for n in WAIT_NS),
)


def _in_order(reports: dict[str, dict[str, MetricsReport]]) -> list:
    return [reports[m][s] for m in sorted(reports) for s in sorted(reports[m])]


def reports_to_json(reports: dict[str, dict[str, MetricsReport]]) -> str:
    """Nested {model: {scenario: report}} as deterministic JSON."""
    return json_text({
        model: {scenario: r.as_dict() for scenario, r in by_scenario.items()}
        for model, by_scenario in reports.items()
    })


def reports_to_plot_rows(
    reports: dict[str, dict[str, MetricsReport]]
) -> list[tuple[str, str, str, float, float]]:
    return [row for report in _in_order(reports) for row in report.plot_rows()]


def write_reports(out, reports: dict[str, dict[str, MetricsReport]]) -> None:
    """Write metrics.json, metrics.csv and plot_data.csv into directory out."""
    (out / "metrics.json").write_text(reports_to_json(reports))
    rows = [report.csv_row() for report in _in_order(reports)]
    write_csv(out / "metrics.csv", METRICS_CSV_COLUMNS, rows)
    write_csv(
        out / "plot_data.csv", ("model", "metric", "scenario", "value", "std"),
        reports_to_plot_rows(reports),
    )
