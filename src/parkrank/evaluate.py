"""Ranking and waiting-time evaluation, baselines, scenario slicing.

Ranked queries travel as ``QueryResults`` batches of arrays, one row per
query. ``summarize``, ``awtp_rnwtr`` and ``slice_scenarios`` take a
sequence of batches, concatenated once per call.

Ranking quality uses NDCG with linear gain and MAP with labels binarized
at y > 0. Waiting-time quality simulates following the recommendations:
the achieved waiting time of a top-n list is the best waiting time among
its candidates, averaged over queries (AWTP); its ratio to the oracle
ranking's value (RNWTR) is 1.0 for a perfect ranking. Both restrict
candidates to the query's neighborhood, where labels live.

A neighborhood holds a few vertices against the n of a ranking row, so
each batch is packed once into [Q, K] arrays, K the largest
neighborhood, holding each candidate's rank position, label and capped
wait in rank order (``_Pack``); the metrics run on the pack, not on
[Q, n]. The bits
match a computation over the whole row: DCG terms go back to their rank
positions in a zero buffer before the same row sum, the ideal ordering
is the packed labels sorted and zero-padded (labels are non-negative and
zero outside the neighborhood), MAP's running sum only skips +0.0 terms,
and the wait columns hold the same integers. ``ndcg_at`` and ``map_at``
pack the nonzero labels of their rows and run the same code.

The persistence and historical-mean baselines rank by a per-vertex
availability score. Each is scored once per split and ranked by one
sort of integer keys packing (score rank, hop, id), in the order
model.rank_candidates defines (``_rank_by_vertex_score``).
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, fields
from typing import Callable, Sequence

import numpy as np

from . import kernels
from .errors import ConfigError, DataError
from .ingest import OccupancyMatrix, SpatialGraph, json_text, write_csv

DEFAULT_MAX_WAIT = 24
RANK_NS = (1, 5)
WAIT_NS = (1, 2, 3, 4, 5)

BASELINE_NAMES = ("persistence", "historical_mean")


@dataclass(frozen=True)
class QueryResults:
    """Q ranked queries as arrays: [Q] vertex and times, [Q, n] the rest.

    Each ranking row is a permutation of all vertex ids, best first. The
    neighborhood mask marks the query's candidates (itself plus spatial
    neighbors); labels must be zero outside it, which the ranking
    metrics check. Consumers take a sequence of batches. checked skips
    the permutation check, for rows taken from batches that passed it.
    """

    query_vertex: np.ndarray
    query_time: np.ndarray
    horizon_time: np.ndarray
    ranking: np.ndarray
    labels: np.ndarray
    neighborhood: np.ndarray
    checked: InitVar[bool] = False

    def __post_init__(self, checked: bool):
        ids = np.arange(self.ranking.shape[-1])
        if not checked and (np.sort(self.ranking, axis=-1) != ids).any():
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


def _concat(results: Sequence[QueryResults]) -> QueryResults:
    """All rows of a non-empty sequence of batches as one batch."""
    if len(results) == 1:
        return results[0]
    names = [f.name for f in fields(QueryResults)]
    return QueryResults(
        *(np.concatenate([getattr(b, k) for b in results]) for k in names),
        checked=True,
    )


# ---------------------------------------------------------------------------
# the candidate pack
# ---------------------------------------------------------------------------


class _Pack:
    """The candidates each row of a [Q, n] vertex mask marks, in the rank
    order of the [Q, n] rankings, packed into [Q, K] arrays.

    K is the largest candidate count (at least 1). position holds each
    candidate's rank position; padding slots sit at position n. rows,
    slots and vertex place each packed candidate.
    """

    def __init__(self, ranking: np.ndarray, mask: np.ndarray):
        self.length = ranking.shape[-1]
        # nonzero walks row by row, so each row's candidates come in rank order
        self.rows, position = np.nonzero(
            np.take_along_axis(mask, ranking, axis=-1)
        )
        self.counts = np.bincount(self.rows, minlength=len(ranking))
        starts = np.cumsum(self.counts) - self.counts
        self.slots = np.arange(len(self.rows)) - starts[self.rows]
        self.shape = (len(ranking), max(1, int(self.counts.max(initial=0))))
        self.vertex = ranking[self.rows, position]
        self.position = self.spread(position, self.length)

    def spread(self, values: np.ndarray, fill) -> np.ndarray:
        """[Q, K] with the per-candidate values in place, fill elsewhere."""
        out = np.full(self.shape, fill, dtype=values.dtype)
        out[self.rows, self.slots] = values
        return out

    def labels(self, labels: np.ndarray) -> np.ndarray:
        """[Q, K] packed labels, 0 in padding. Every nonzero label must be
        packed and none may be negative, or the metrics would differ from
        the same metrics over whole rows."""
        packed = self.spread(labels[self.rows, self.vertex], 0.0)
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
        return packed


# ---------------------------------------------------------------------------
# ranking metrics
# ---------------------------------------------------------------------------


def _ndcg(pack: _Pack, label: np.ndarray, n: int) -> np.ndarray:
    """[Q] NDCG at n from packed labels; see ndcg_at."""
    if n < 1:
        raise ConfigError("n must be at least 1")
    width = min(n, pack.length)
    discounts = (1.0 / np.log2(np.arange(2, n + 2, dtype=np.float64)))[:width]
    rows, slots = np.nonzero(pack.position < width)
    at = pack.position[rows, slots]
    # each gain at its rank position, zero elsewhere, as over the whole row
    gains = np.zeros((len(label), width))
    gains[rows, at] = label[rows, slots] * discounts[at]
    dcg = gains.sum(axis=-1)
    top = np.sort(label, axis=-1)[:, ::-1][:, :width]
    ideal = np.zeros((len(label), width))
    ideal[:, : top.shape[1]] = top
    idcg = (ideal * discounts).sum(axis=-1)
    return np.divide(dcg, idcg, out=np.ones_like(dcg), where=idcg != 0.0)


def _map(pack: _Pack, label: np.ndarray, n: int) -> np.ndarray:
    """[Q] MAP at n from packed labels; see map_at."""
    if n < 1:
        raise ConfigError("n must be at least 1")
    relevant = label > 0.0
    hits = relevant & (pack.position < n)
    precision = np.cumsum(hits, axis=-1) / (pack.position + 1)
    # a running sum adds the hit terms in rank order, as a scalar loop would
    ap = np.cumsum(np.where(hits, precision, 0.0), axis=-1)[:, -1]
    denom = np.minimum(relevant.sum(axis=-1), n)
    return np.divide(ap, denom, out=np.zeros_like(ap), where=denom > 0)


def _row_metric(metric, ranking, labels, n):
    """metric over the rows along the last axis of same-shape ranking and
    labels, on the pack of each row's nonzero labels."""
    ranking = np.asarray(ranking, dtype=np.int64)
    labels = np.asarray(labels, dtype=np.float64)
    if ranking.shape != labels.shape or ranking.ndim < 1:
        raise DataError("ranking and labels must have the same shape")
    rows = (-1, ranking.shape[-1])
    label_rows = labels.reshape(rows)
    pack = _Pack(ranking.reshape(rows), label_rows != 0.0)
    out = metric(pack, pack.labels(label_rows), n).reshape(ranking.shape[:-1])
    return float(out) if out.ndim == 0 else out


def ndcg_at(ranking, labels, n: int):
    """Discounted cumulative gain at n over the ideal ordering.

    Linear gain; rank i contributes labels[ranking[i]] / log2(i + 2).
    Returns 1.0 when the ideal is zero (an all-zero label row ranks
    perfectly by convention). Rows lie along the last axis; each ranking
    row is a permutation of its label row's indices, and labels are
    non-negative. One row gives a float.
    """
    return _row_metric(_ndcg, ranking, labels, n)


def map_at(ranking, labels, n: int):
    """Mean average precision at n with labels binarized at y > 0.

    The AP denominator is min(number of relevant items, n); a row with no
    relevant items scores 0. Rows lie along the last axis, as in ndcg_at;
    one row gives a float.
    """
    return _row_metric(_map, ranking, labels, n)


# ---------------------------------------------------------------------------
# waiting-time metrics
# ---------------------------------------------------------------------------


def _best_waits(
    pack: _Pack, horizon_time: np.ndarray, matrix: OccupancyMatrix,
    max_wait: int,
):
    """[Q, K] running minima of the capped waits at each query's horizon.

    Column j is the best wait among the first j + 1 ranked candidates in
    the query's neighborhood; the last column covers the whole of it.
    """
    if max_wait < 1:
        raise ConfigError("max_wait must be at least 1")
    if not pack.counts.all():
        raise DataError("every query needs a non-empty neighborhood")
    # next-vacant distances look only forward, so the table can start at
    # the earliest horizon and still hold the whole-matrix integers; an
    # empty batch starts past the last column
    start = horizon_time.min(initial=matrix.num_intervals)
    waits = np.minimum(
        kernels.next_vacant_steps(matrix.states[:, start:]), max_wait
    )
    at = horizon_time[pack.rows] - start
    ranked = pack.spread(waits[pack.vertex, at], max_wait)
    return np.minimum.accumulate(ranked, axis=-1)


def _wait_scores(best: np.ndarray, n: int) -> tuple[float, float, float]:
    """(achieved, ideal, ratio) at list size n from _best_waits rows."""
    if n < 1:
        raise ConfigError("n must be at least 1")
    awtp = float(best[:, min(n, best.shape[1]) - 1].sum()) / len(best)
    iawtp = float(best[:, -1].sum()) / len(best)
    return awtp, iawtp, 1.0 if awtp == 0.0 else iawtp / awtp


def awtp_rnwtr(
    results: Sequence[QueryResults],
    matrix: OccupancyMatrix,
    n: int,
    max_wait: int = DEFAULT_MAX_WAIT,
) -> tuple[float, float, float]:
    """(achieved, ideal, ratio) waiting-time performance at list size n.

    Per query, the achieved value is the smallest waiting time among the
    first n ranked candidates inside the query's neighborhood; the ideal
    value uses the oracle ordering of the same candidates. The ratio is
    ideal / achieved, taken as 1.0 when the achieved value is 0.
    """
    if not sum(map(len, results)):
        raise DataError("no query results to evaluate")
    batch = _concat(results)
    pack = _Pack(batch.ranking, batch.neighborhood)
    best = _best_waits(pack, batch.horizon_time, matrix, max_wait)
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


def _check_times(matrix: OccupancyMatrix, t) -> np.ndarray:
    times = np.asarray(t)
    if ((times < 0) | (times >= matrix.num_intervals)).any():
        raise DataError(f"time must lie in [0, {matrix.num_intervals}), got {t}")
    return times


def persistence_scores(
    matrix: OccupancyMatrix, t: int | np.ndarray, train_end: int | None = None
) -> np.ndarray:
    """1.0 where vacant at t, else 0.0; [n] at an int t, [S, n] at S times."""
    return (~matrix.states.T[_check_times(matrix, t)]).astype(np.float64)


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
    times = _check_times(matrix, t)
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


def _rank_by_vertex_score(scores: np.ndarray, hops: np.ndarray) -> np.ndarray:
    """model.rank_candidates of every query's row of one shared score.

    scores is [..., n], one score per vertex per snapshot; hops is the
    [n, n] hop table. The result is [..., n, n]: row q of a snapshot
    orders the candidates by score descending, then by hops[q], then by
    index, the bits that rank_candidates gives for the score row
    broadcast to every query.

    Every score gets a dense descending rank, shared by all rows, from
    np.unique: -0.0 and +0.0 tie, and so do NaNs, after every number, as
    they do in lexsort. Each (snapshot, query, candidate) then packs
    (score rank, hop, id) into one integer key, high bits to low, so one
    in-place integer sort of the keys orders each row as the lexsort
    would; masking off the high bits leaves the candidate ids. The key
    array is the output, so no second [..., n, n] array is made.
    """
    n = hops.shape[-1]
    rank = np.unique(-scores, return_inverse=True)[1].reshape(scores.shape)
    # ranks span all S * n scores and hops reach n + 1 (unreachable), so a
    # key is below 4 * S * n**2 * (n + 1): an int64 holds it while the
    # [S, n, n] keys fit in memory (S * n**2 < 2**40) and n < 2**20
    id_bits = (n - 1).bit_length()
    hop_bits = int(hops.max(initial=0)).bit_length()
    lead = (rank << (hop_bits + id_bits)) | np.arange(n)
    keys = np.empty(scores.shape[:-1] + hops.shape, dtype=np.intp)
    np.add(lead[..., np.newaxis, :], hops << id_bits, out=keys)
    keys.sort(axis=-1)
    keys &= (1 << id_bits) - 1
    return keys


def baseline_predict_then_recommend(
    matrix: OccupancyMatrix,
    spatial: SpatialGraph,
    t: int | np.ndarray,
    predictor: str,
    train_end: int | None = None,
) -> np.ndarray:
    """Per-query candidate rankings from a per-vertex availability score.

    The predictor scores each vertex once per time; every query then ranks
    all vertices by that score, breaking ties toward fewer hops and lower
    index, through _rank_by_vertex_score. An int t gives [n, n], one
    ranking row per query vertex; a 1-D array of S times, such as a whole
    split, is scored and ranked in one call into [S, n, n].
    """
    if predictor not in _PREDICTORS:
        raise ConfigError(
            f"unknown predictor {predictor!r}; expected one of "
            f"{BASELINE_NAMES}"
        )
    if predictor == "historical_mean" and train_end is None:
        raise ConfigError("historical_mean needs the training range")
    scores = _PREDICTORS[predictor](matrix, t, train_end)
    return _rank_by_vertex_score(scores, spatial.all_hop_distances())


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


def _reports(batch, matrix, model_name, masks, rank_ns, wait_ns, max_wait):
    """One report per named [Q] mask; per-query values are computed once,
    from one pack of the queries' neighborhoods."""
    pack = _Pack(batch.ranking, batch.neighborhood)
    label = pack.labels(batch.labels)
    ndcg = {n: _ndcg(pack, label, n) for n in rank_ns}
    mean_ap = {n: _map(pack, label, n) for n in rank_ns}
    best = _best_waits(pack, batch.horizon_time, matrix, max_wait)
    out = {}
    for name, mask in masks.items():
        if not mask.any():
            out[name] = empty_report(model_name, name)
            continue
        sliced = best[mask]
        waits = {n: _wait_scores(sliced, n) for n in wait_ns}
        out[name] = MetricsReport(
            model=model_name,
            scenario=name,
            num_queries=int(mask.sum()),
            ndcg={n: _mean_std(v[mask]) for n, v in ndcg.items()},
            mean_ap={n: _mean_std(v[mask]) for n, v in mean_ap.items()},
            awtp={n: w[0] for n, w in waits.items()},
            iawtp=waits[wait_ns[-1]][1] if wait_ns else 0.0,
            rnwtr={n: w[2] for n, w in waits.items()},
        )
    return out


def _mean_std(values: np.ndarray) -> tuple[float, float]:
    return float(values.mean()), float(values.std())


def summarize(
    results: Sequence[QueryResults],
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
    results: Sequence[QueryResults],
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
    return _reports(
        batch, matrix, model_name, masks, RANK_NS, WAIT_NS, max_wait
    )


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
