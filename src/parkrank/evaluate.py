"""Ranking and waiting-time evaluation, baselines, scenario slicing.

Ranking quality uses NDCG with linear gain and MAP with labels binarized
at y > 0. Waiting-time quality simulates following the recommendations:
the achieved waiting time of a top-n list is the best waiting time among
its candidates, averaged over queries (AWTP); its ratio to the oracle
ranking's value (RNWTR) is 1.0 for a perfect ranking. Both restrict
candidates to the query's neighborhood, where labels live.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import kernels, model
from .errors import ConfigError, DataError
from .ingest import OccupancyMatrix, SpatialGraph

DEFAULT_MAX_WAIT = 24
WAIT_NS = (1, 2, 3, 4, 5)

BASELINE_NAMES = ("persistence", "historical_mean")


@dataclass(frozen=True)
class RankedQueryResult:
    """One query's predicted ranking with its ground-truth label row.

    ranking is a permutation of all vertex ids, best first. neighborhood
    lists the query's candidate set (itself plus spatial neighbors) in
    index order; labels are zero outside it by construction.
    """

    query_vertex: int
    query_time: int
    horizon_time: int
    ranking: tuple[int, ...]
    labels: np.ndarray
    neighborhood: tuple[int, ...]

    def __post_init__(self):
        if sorted(self.ranking) != list(range(len(self.ranking))):
            raise DataError("ranking must be a permutation of vertex ids")
        if len(self.labels) != len(self.ranking):
            raise DataError("label row length must match ranking length")


def make_result(
    query_vertex: int,
    query_time: int,
    horizon_time: int,
    ranking,
    labels,
    neighborhood,
) -> RankedQueryResult:
    return RankedQueryResult(
        query_vertex=int(query_vertex),
        query_time=int(query_time),
        horizon_time=int(horizon_time),
        ranking=tuple(int(i) for i in ranking),
        labels=np.asarray(labels, dtype=np.float64),
        neighborhood=tuple(int(i) for i in neighborhood),
    )


# ---------------------------------------------------------------------------
# ranking metrics
# ---------------------------------------------------------------------------


def ndcg_at(ranking, labels, n: int) -> float:
    """Discounted cumulative gain at n over the ideal ordering.

    Linear gain; rank i contributes labels[ranking[i]] / log2(i + 2).
    Returns 1.0 when the ideal is zero (an all-zero label row ranks
    perfectly by convention).
    """
    if n < 1:
        raise ConfigError("n must be at least 1")
    labels = np.asarray(labels, dtype=np.float64)
    ranking = np.asarray(ranking, dtype=np.int64)
    discounts = 1.0 / np.log2(np.arange(2, n + 2, dtype=np.float64))
    gains = labels[ranking[:n]]
    dcg = float((gains * discounts[: gains.size]).sum())
    ideal = np.sort(labels)[::-1][:n]
    idcg = float((ideal * discounts[: ideal.size]).sum())
    if idcg == 0.0:
        return 1.0
    return dcg / idcg


def map_at(ranking, labels, n: int) -> float:
    """Mean average precision at n with labels binarized at y > 0.

    The AP denominator is min(number of relevant items, n); a row with no
    relevant items scores 0.
    """
    if n < 1:
        raise ConfigError("n must be at least 1")
    labels = np.asarray(labels, dtype=np.float64)
    ranking = np.asarray(ranking, dtype=np.int64)
    relevant = labels > 0.0
    total = int(relevant.sum())
    if total == 0:
        return 0.0
    hits = 0
    ap = 0.0
    for i in range(min(n, ranking.size)):
        if relevant[ranking[i]]:
            hits += 1
            ap += hits / (i + 1)
    return ap / min(total, n)


# ---------------------------------------------------------------------------
# waiting-time metrics
# ---------------------------------------------------------------------------


def waiting_time(
    matrix: OccupancyMatrix,
    vertex: int,
    arrival_time: int,
    max_wait: int = DEFAULT_MAX_WAIT,
) -> int:
    """Intervals a driver waits at vertex from arrival_time until vacant.

    0 when already vacant; capped at max_wait, which is also the value
    when the vertex never becomes vacant in range.
    """
    if not (0 <= arrival_time < matrix.num_intervals):
        raise DataError("arrival_time out of range")
    row = matrix.states[vertex, arrival_time:]
    vacant = np.flatnonzero(~row)
    wait = int(vacant[0]) if vacant.size else int(kernels.NEVER_VACANT)
    return min(wait, max_wait)


def _wait_table(matrix: OccupancyMatrix, max_wait: int) -> np.ndarray:
    return np.minimum(kernels.next_vacant_steps(matrix.states), max_wait)


def awtp_rnwtr(
    results: Sequence[RankedQueryResult],
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
    if n < 1:
        raise ConfigError("n must be at least 1")
    if not results:
        raise DataError("no query results to evaluate")
    waits = _wait_table(matrix, max_wait)
    achieved_total = 0.0
    ideal_total = 0.0
    for res in results:
        hood = set(res.neighborhood)
        in_hood = [v for v in res.ranking if v in hood]
        top = in_hood[: min(n, len(in_hood))]
        t = res.horizon_time
        achieved_total += min(waits[v, t] for v in top)
        ideal_total += min(waits[v, t] for v in res.neighborhood)
    awtp = achieved_total / len(results)
    iawtp = ideal_total / len(results)
    rnwtr = 1.0 if awtp == 0.0 else iawtp / awtp
    return awtp, iawtp, rnwtr


# ---------------------------------------------------------------------------
# baselines
# ---------------------------------------------------------------------------


def persistence_scores(
    matrix: OccupancyMatrix, t: int, train_end: int | None = None
) -> np.ndarray:
    """1.0 for vertices vacant at t, else 0.0."""
    return (~matrix.states[:, t]).astype(np.float64)


def historical_mean_scores(
    matrix: OccupancyMatrix, t: int, train_end: int
) -> np.ndarray:
    """Vacancy frequency at this time of day over the training range.

    Buckets are absolute time-of-day slots. A bucket with no training
    samples for a location falls back to that location's overall training
    vacancy rate.
    """
    if train_end < 1:
        raise DataError("train_end must leave at least one training interval")
    per_day = max(1, round(24 * 60 / matrix.interval_minutes))
    offset = (
        matrix.start_time.hour * 60 + matrix.start_time.minute
    ) // matrix.interval_minutes
    bucket = (offset + t) % per_day
    train_times = np.arange(train_end)
    in_bucket = (offset + train_times) % per_day == bucket
    vacant = ~matrix.states[:, :train_end]
    if in_bucket.any():
        return vacant[:, in_bucket].mean(axis=1)
    return vacant.mean(axis=1)


_PREDICTORS: dict[str, Callable] = {
    "persistence": persistence_scores,
    "historical_mean": historical_mean_scores,
}


def baseline_predict_then_recommend(
    matrix: OccupancyMatrix,
    spatial: SpatialGraph,
    t: int,
    predictor: str,
    train_end: int | None = None,
) -> np.ndarray:
    """Per-query candidate rankings from a per-vertex availability score.

    The predictor scores each vertex once; every query then ranks all
    vertices by that score, breaking ties toward fewer hops and lower
    index. Returns an integer matrix, one ranking row per query vertex.
    """
    if predictor not in _PREDICTORS:
        raise ConfigError(
            f"unknown predictor {predictor!r}; expected one of "
            f"{BASELINE_NAMES}"
        )
    if predictor == "historical_mean" and train_end is None:
        raise ConfigError("historical_mean needs the training range")
    scores = _PREDICTORS[predictor](matrix, t, train_end)
    hops = spatial.all_hop_distances()
    return model.rank_candidates(np.broadcast_to(scores, hops.shape), hops)


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

    def plot_rows(self) -> list[tuple[str, str, str, float, float]]:
        rows = []
        for k, (mean, std) in sorted(self.ndcg.items()):
            rows.append((self.model, f"ndcg@{k}", self.scenario, mean, std))
        for k, (mean, std) in sorted(self.mean_ap.items()):
            rows.append((self.model, f"map@{k}", self.scenario, mean, std))
        for k in sorted(self.awtp):
            rows.append((self.model, f"awtp@{k}", self.scenario, self.awtp[k], 0.0))
        rows.append((self.model, "iawtp", self.scenario, self.iawtp, 0.0))
        for k in sorted(self.rnwtr):
            rows.append(
                (self.model, f"rnwtr@{k}", self.scenario, self.rnwtr[k], 0.0)
            )
        return rows


def empty_report(model: str, scenario: str) -> MetricsReport:
    return MetricsReport(
        model=model,
        scenario=scenario,
        num_queries=0,
        ndcg={},
        mean_ap={},
        awtp={},
        iawtp=0.0,
        rnwtr={},
    )


def summarize(
    results: Sequence[RankedQueryResult],
    matrix: OccupancyMatrix,
    model_name: str,
    scenario: str = "all",
    rank_ns: tuple[int, ...] = (1, 5),
    wait_ns: tuple[int, ...] = WAIT_NS,
    max_wait: int = DEFAULT_MAX_WAIT,
) -> MetricsReport:
    """Aggregate per-query metrics into one report (means and stds)."""
    if not results:
        return empty_report(model_name, scenario)
    ndcg: dict[int, tuple[float, float]] = {}
    mean_ap: dict[int, tuple[float, float]] = {}
    for n in rank_ns:
        vals = np.array(
            [ndcg_at(r.ranking, r.labels, n) for r in results]
        )
        ndcg[n] = (float(vals.mean()), float(vals.std()))
        vals = np.array([map_at(r.ranking, r.labels, n) for r in results])
        mean_ap[n] = (float(vals.mean()), float(vals.std()))
    awtp: dict[int, float] = {}
    rnwtr: dict[int, float] = {}
    iawtp = 0.0
    for n in wait_ns:
        a, i, r = awtp_rnwtr(results, matrix, n, max_wait)
        awtp[n] = a
        rnwtr[n] = r
        iawtp = i
    return MetricsReport(
        model=model_name,
        scenario=scenario,
        num_queries=len(results),
        ndcg=ndcg,
        mean_ap=mean_ap,
        awtp=awtp,
        iawtp=iawtp,
        rnwtr=rnwtr,
    )


@dataclass(frozen=True)
class Calendar:
    """Maps interval indices to weekday and hour of day."""

    start_hour: int
    start_minute: int
    start_weekday: int
    interval_minutes: int

    @classmethod
    def of(cls, matrix: OccupancyMatrix) -> "Calendar":
        return cls(
            start_hour=matrix.start_time.hour,
            start_minute=matrix.start_time.minute,
            start_weekday=matrix.start_time.weekday(),
            interval_minutes=matrix.interval_minutes,
        )

    def minute_of_day(self, t: int) -> int:
        total = (
            self.start_hour * 60
            + self.start_minute
            + t * self.interval_minutes
        )
        return total % (24 * 60)

    def hour(self, t: int) -> int:
        return self.minute_of_day(t) // 60

    def weekday(self, t: int) -> int:
        total = (
            self.start_hour * 60
            + self.start_minute
            + t * self.interval_minutes
        )
        return (self.start_weekday + total // (24 * 60)) % 7


SCENARIOS = ("workday", "weekend", "daytime", "nighttime")


def scenario_of(calendar: Calendar, t: int) -> dict[str, bool]:
    """Scenario membership for a query time; daytime is 07:00-18:59."""
    weekday = calendar.weekday(t)
    hour = calendar.hour(t)
    day = 7 <= hour < 19
    return {
        "workday": weekday < 5,
        "weekend": weekday >= 5,
        "daytime": day,
        "nighttime": not day,
    }


def slice_scenarios(
    results: Sequence[RankedQueryResult],
    matrix: OccupancyMatrix,
    model_name: str,
    rank_ns: tuple[int, ...] = (1, 5),
    max_wait: int = DEFAULT_MAX_WAIT,
) -> dict[str, MetricsReport]:
    """Reports per scenario plus the unsliced whole under key "all".

    Scenario membership is decided by the query time. Empty slices yield
    a zero-query report rather than an error.
    """
    calendar = Calendar.of(matrix)
    out = {
        "all": summarize(
            results, matrix, model_name, "all", rank_ns, max_wait=max_wait
        )
    }
    for name in SCENARIOS:
        subset = [
            r
            for r in results
            if scenario_of(calendar, r.query_time)[name]
        ]
        out[name] = (
            summarize(subset, matrix, model_name, name, rank_ns, max_wait=max_wait)
            if subset
            else empty_report(model_name, name)
        )
    return out


def reports_to_json(reports: dict[str, dict[str, MetricsReport]]) -> str:
    """Nested {model: {scenario: report}} as deterministic JSON."""
    payload = {
        model: {
            scenario: report.as_dict()
            for scenario, report in sorted(by_scenario.items())
        }
        for model, by_scenario in sorted(reports.items())
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def reports_to_plot_rows(
    reports: dict[str, dict[str, MetricsReport]]
) -> list[tuple[str, str, str, float, float]]:
    rows = []
    for model in sorted(reports):
        for scenario in sorted(reports[model]):
            rows.extend(reports[model][scenario].plot_rows())
    return rows
