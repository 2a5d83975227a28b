"""Per-snapshot baselines and report slicing, as oracles for the batched code.

Each baseline here scores one time per call and ranks one [n, n] table
per snapshot, and the report loop computes every metric over whole
[Q, n] rows (tests/dense_oracle.py) and slices the wait table once per
list size. The production code scores and ranks a whole split per call
on the edge list, computes the metrics on the neighborhood pack and
slices once per scenario; tests compare the two by bytes.
"""

import numpy as np

import dense_oracle
from parkrank import evaluate


def persistence_scores(matrix, t, train_end=None):
    return (~matrix.states[:, t]).astype(np.float64)


def historical_mean_scores(matrix, t, train_end):
    """The vacancy rate over the training columns that share t's
    wall-clock time-of-day bucket, minute of the day // interval."""
    start = matrix.start_time.hour * 60 + matrix.start_time.minute
    step = matrix.interval_minutes

    def bucket(i):
        return (start + i * step) % (24 * 60) // step

    in_bucket = bucket(np.arange(train_end)) == bucket(t)
    vacant = ~matrix.states[:, :train_end]
    if in_bucket.any():
        return vacant[:, in_bucket].mean(axis=1)
    return vacant.mean(axis=1)


PREDICTORS = {
    "persistence": persistence_scores,
    "historical_mean": historical_mean_scores,
}


def predict_then_recommend(matrix, spatial, t, predictor, train_end=None):
    """[n, n] rankings at one time."""
    scores = PREDICTORS[predictor](matrix, t, train_end)
    hops = spatial.all_hop_distances()
    return dense_oracle.rank_rows(np.broadcast_to(scores, hops.shape), hops)


def baseline_split_results(predictor, matrix, dataset, spatial, split_idx, cfg):
    """train.baseline_split_results with one baseline call per snapshot."""
    train_end = dataset.train_end_time()
    rankings = np.stack(
        [
            predict_then_recommend(
                matrix, spatial, int(dataset.times[i]), predictor, train_end
            )
            for i in split_idx
        ]
    )
    return [dense_oracle.query_results(dataset, spatial, split_idx, cfg, rankings)]


def reports(batch, matrix, model_name, masks, rank_ns, wait_ns, max_wait):
    """evaluate._reports over whole rows, slicing the wait table once per
    list size."""
    ndcg = {n: dense_oracle.ndcg_at(batch.ranking, batch.labels, n) for n in rank_ns}
    mean_ap = {n: dense_oracle.map_at(batch.ranking, batch.labels, n) for n in rank_ns}
    best = dense_oracle.best_waits(batch, matrix, max_wait)
    out = {}
    for name, mask in masks.items():
        if not mask.any():
            out[name] = evaluate.empty_report(model_name, name)
            continue
        waits = {n: evaluate._wait_scores(best[mask], n) for n in wait_ns}
        out[name] = evaluate.MetricsReport(
            model=model_name,
            scenario=name,
            num_queries=int(mask.sum()),
            ndcg={n: evaluate._mean_std(v[mask]) for n, v in ndcg.items()},
            mean_ap={n: evaluate._mean_std(v[mask]) for n, v in mean_ap.items()},
            awtp={n: w[0] for n, w in waits.items()},
            iawtp=waits[wait_ns[-1]][1] if wait_ns else 0.0,
            rnwtr={n: w[2] for n, w in waits.items()},
        )
    return out


def slice_scenarios(results, matrix, model_name, max_wait=evaluate.DEFAULT_MAX_WAIT):
    """evaluate.slice_scenarios over one dense batch of whole rows."""
    (batch,) = results
    masks = {"all": np.ones(len(batch), dtype=bool)}
    masks.update(evaluate.scenario_masks(matrix, batch.query_time))
    return reports(
        batch, matrix, model_name, masks, evaluate.RANK_NS, evaluate.WAIT_NS,
        max_wait,
    )
