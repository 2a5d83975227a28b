"""Metric definitions: end-to-end gates and per-layer trace numbers.

Every workload reports every end-to-end metric under the same name, so the
regression gate compares like with like per workload. What the names mean
on each workload (train step, ranked eval query, recommend query) is in
``workloads.py``; "scaled" times are wall times scaled to a fixed machine
speed by ``reference.Probe``. Per-layer names follow one rule, read by ``layer_value``:

- ``<span>.calls`` / ``<span>.s``: calls and self seconds in the timed
  phase, per workload operation (one training step, one ranked eval query,
  one recommend query);
- ``<span>.setup_calls`` / ``<span>.setup_s``: the same per set-up;
- ``<span>.ms_per_call``: self milliseconds per call over the whole traced
  run, set-up included.

Each per-layer entry names the end-to-end metric and workload it should
move. Where a layer does no work on a workload the prediction there is no
change, and its value reads 0.
"""

import statistics

# name, unit, better, bound (share of the parent's median), meaning
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "median of the set-ups in a run (synth, data-dir write and read, "
     "dataset or RunTable build, checkpoint load), scaled"),
    ("op_p50_ms", "ms", "lower", 0.25,
     "median time of one operation (train step, ranked eval query, or "
     "recommend query), scaled"),
    ("op_tail_ms", "ms", "lower", 0.25,
     "p99 of recommend queries; on train and eval, whose runs hold fewer "
     "than 11 operations, the slowest operation; scaled"),
    ("ndcg1", "ratio", "higher", 0.15,
     "NDCG@1 of the model: best validation (train), test split (eval), "
     "the first recommend answers (recommend)"),
    ("rnwtr5", "ratio", "higher", 0.05,
     "relative no-wait trip ratio at list size 5 on the same queries as "
     "ndcg1"),
    ("peak_rss_mb", "MB", "lower", 0.15,
     "peak resident set of the benchmark process after the timed phase"),
)

ALL = "every workload"
TRAIN = "c8-train"
EVAL = "c8-eval"
REC = "city120-recommend"
SETUP_ALL = f"setup_s on {ALL}"
FWD = (f"op_p50_ms (train_step_ms) on {TRAIN}; "
       f"op_p50_ms (recommend_p50_ms) on {REC}")
EVAL_QPS = f"op_p50_ms (eval_qps) on {EVAL}"

# name, unit, better, the end-to-end metric and workload it should move
LAYERS = (
    ("ingest.synth_generate.setup_s", "s/setup", "lower", SETUP_ALL),
    ("ingest.build_adjacency.setup_s", "s/setup", "lower", SETUP_ALL),
    ("ingest.load_matrix.setup_s", "s/setup", "lower", SETUP_ALL),
    ("ingest.load_graph.setup_s", "s/setup", "lower", SETUP_ALL),
    ("cli.write_data_dir.setup_s", "s/setup", "lower", SETUP_ALL),
    ("cli.load_data_dir.setup_s", "s/setup", "lower", SETUP_ALL),
    ("cli.load_checkpoint_bundle.setup_s", "s/setup", "lower",
     f"setup_s on {EVAL} and {REC}"),
    ("tensor.load_checkpoint.setup_s", "s/setup", "lower",
     f"setup_s on {EVAL} and {REC}"),
    ("train.build_dataset.setup_s", "s/setup", "lower",
     f"setup_s on {TRAIN} and {EVAL}"),
    ("esgraph.RunTable.__init__.setup_s", "s/setup", "lower", SETUP_ALL),
    ("esgraph.RunTable.window_at.setup_calls", "calls/setup", "lower",
     f"setup_s on {TRAIN} and {EVAL} (one call per snapshot)"),
    ("esgraph.RunTable.window_at.setup_s", "s/setup", "lower",
     f"setup_s on {TRAIN} and {EVAL}"),
    ("esgraph.RunTable.remaining_run_lengths.setup_s", "s/setup", "lower",
     f"setup_s on {TRAIN} and {EVAL}"),
    ("kernels.encode_runs.setup_s", "s/setup", "lower", SETUP_ALL),
    ("kernels.markov_occupancy.setup_s", "s/setup", "lower", SETUP_ALL),
    ("kernels.extract_windows.setup_calls", "calls/setup", "lower",
     f"setup_s on {TRAIN} and {EVAL} (one call per snapshot)"),
    ("kernels.extract_windows.setup_s", "s/setup", "lower",
     f"setup_s on {TRAIN} and {EVAL}"),
    ("ingest.all_hop_distances.calls", "calls/op", "lower",
     f"{EVAL_QPS} most; op_p50_ms on {TRAIN} (about 4% of a step)"),
    ("ingest.all_hop_distances.s", "s/op", "lower",
     f"{EVAL_QPS} most; op_p50_ms on {TRAIN} (about 4% of a step)"),
    ("ingest.hop_distances.calls", "calls/op", "lower",
     f"{EVAL_QPS}; op_p50_ms (recommend_p50_ms) on {REC}, one BFS a query"),
    ("ingest.hop_distances.s", "s/op", "lower",
     f"{EVAL_QPS}; op_p50_ms (recommend_p50_ms) on {REC}, one BFS a query"),
    ("kernels.extract_windows.calls", "calls/op", "lower",
     f"op_p50_ms (recommend_p50_ms) on {REC}, one call per query"),
    ("kernels.extract_windows.s", "s/op", "lower",
     f"op_p50_ms (recommend_p50_ms) on {REC}"),
    ("kernels.next_vacant_steps.calls", "calls/op", "lower",
     f"{EVAL_QPS}: the wait table is rebuilt in every awtp_rnwtr call"),
    ("kernels.next_vacant_steps.s", "s/op", "lower", EVAL_QPS),
    ("esgraph.RunTable.window_at.calls", "calls/op", "lower",
     f"op_p50_ms (recommend_p50_ms) on {REC}"),
    ("esgraph.RunTable.window_at.s", "s/op", "lower",
     f"op_p50_ms (recommend_p50_ms) on {REC}"),
    ("tensor.backward.s", "s/op", "lower",
     f"op_p50_ms (train_step_ms) and peak_rss_mb on {TRAIN}; "
     "no change elsewhere"),
    ("tensor.adam_step.s", "s/op", "lower",
     f"op_p50_ms (train_step_ms) and peak_rss_mb on {TRAIN}; "
     "no change elsewhere"),
    ("tensor.conv1d.s", "s/op", "lower", FWD),
    ("tensor.neighbor_mix.s", "s/op", "lower", FWD),
    ("tensor.matmul.s", "s/op", "lower", FWD),
    ("tensor.add.s", "s/op", "lower", FWD),
    ("tensor.relu.s", "s/op", "lower", FWD),
    ("tensor.reduce_sum.s", "s/op", "lower", FWD),
    ("tensor.log_softmax.s", "s/op", "lower", FWD),
    ("tensor.masked_fill.s", "s/op", "lower", FWD),
    ("model.forward_scores.calls", "calls/op", "lower", FWD),
    ("model.forward_scores.s", "s/op", "lower", FWD),
    ("model.rank_candidates.calls", "calls/op", "lower",
     f"{EVAL_QPS}; {FWD}"),
    ("model.rank_candidates.s", "s/op", "lower", f"{EVAL_QPS}; {FWD}"),
    ("model.recommend_top_n.s", "s/op", "lower",
     f"op_p50_ms (recommend_p50_ms) on {REC}"),
    ("model.scored_pairs", "pairs/op", "lower",
     f"op_p50_ms and peak_rss_mb, largest on {REC}"),
    ("model.allowed_pairs", "pairs/op", "lower",
     f"op_p50_ms and peak_rss_mb, largest on {REC}"),
    ("model.pair_useful_ratio", "ratio", "higher",
     f"op_p50_ms and peak_rss_mb, largest on {REC}"),
    ("model.pair_tensor_bytes", "bytes", "lower",
     f"peak_rss_mb on {TRAIN}; op_p50_ms on {REC}"),
    ("train.make_labels.calls", "calls/op", "lower",
     f"op_p50_ms (train_step_ms) on {TRAIN}"),
    ("train.make_labels.s", "s/op", "lower",
     f"op_p50_ms (train_step_ms) on {TRAIN}"),
    ("train.training_loss.s", "s/op", "lower",
     f"op_p50_ms (train_step_ms) on {TRAIN}"),
    ("train.split_ndcg.calls", "calls/op", "lower",
     f"op_p50_ms (train_step_ms) on {TRAIN}, val every 100 steps"),
    ("train.split_ndcg.s", "s/op", "lower",
     f"op_p50_ms (train_step_ms) on {TRAIN}"),
    ("train.train_loop.s", "s/op", "lower",
     f"op_p50_ms (train_step_ms) on {TRAIN}"),
    ("train.split_results.s", "s/op", "lower", EVAL_QPS),
    ("train.baseline_split_results.s", "s/op", "lower", EVAL_QPS),
    ("evaluate.slice_scenarios.s", "s/op", "lower", EVAL_QPS),
    ("evaluate.summarize.calls", "calls/op", "lower", EVAL_QPS),
    ("evaluate.summarize.s", "s/op", "lower", EVAL_QPS),
    ("evaluate.awtp_rnwtr.calls", "calls/op", "lower", EVAL_QPS),
    ("evaluate.awtp_rnwtr.s", "s/op", "lower", EVAL_QPS),
    ("evaluate.ndcg_at.calls", "calls/op", "lower",
     f"{EVAL_QPS}; on {TRAIN} only through split_ndcg"),
    ("evaluate.ndcg_at.s", "s/op", "lower", EVAL_QPS),
    ("evaluate.map_at.calls", "calls/op", "lower", EVAL_QPS),
    ("evaluate.map_at.s", "s/op", "lower", EVAL_QPS),
    ("evaluate.make_result.calls", "calls/op", "lower", EVAL_QPS),
    ("evaluate.make_result.s", "s/op", "lower", EVAL_QPS),
    ("evaluate.baseline_predict_then_recommend.calls", "calls/op", "lower",
     EVAL_QPS),
    ("evaluate.baseline_predict_then_recommend.s", "s/op", "lower",
     EVAL_QPS),
    ("kernels.encode_runs.ms_per_call", "ms/call", "lower", SETUP_ALL),
    ("kernels.extract_windows.ms_per_call", "ms/call", "lower",
     f"setup_s on {TRAIN} and {EVAL}; op_p50_ms on {REC}"),
    ("kernels.markov_occupancy.ms_per_call", "ms/call", "lower", SETUP_ALL),
    ("kernels.next_vacant_steps.ms_per_call", "ms/call", "lower", EVAL_QPS),
    ("trace.overhead_ms", "ms/op", "lower",
     "none: traced minus untraced op_p50_ms (wall), paired operations"),
    ("trace.overhead_share", "ratio", "lower",
     "none: trace.overhead_ms over the untraced op_p50_ms"),
)


def median(values) -> float:
    return float(statistics.median(values))


def p99(values) -> float:
    """Nearest-rank 99th percentile; at 1000 samples ten lie beyond it."""
    ordered = sorted(values)
    rank = max(1, -(-99 * len(ordered) // 100))
    return float(ordered[rank - 1])


def layer_value(name, stats, setups, units, counters, overhead):
    """Value of one per-layer metric from the traced run's aggregates.

    stats: phase -> span -> [calls, self_s]; setups and units are
    the set-up count and the operations done in the traced timed phase.
    """
    if name.startswith("trace."):
        return overhead[name]
    if name.startswith("model.") and name.count(".") == 1:
        c = counters["timed"]
        key = name.split(".", 1)[1]
        if key == "pair_useful_ratio":
            scored = c["scored_pairs"]
            return c["allowed_pairs"] / scored if scored else 0.0
        if key == "pair_tensor_bytes":
            return float(c[key])
        return c[key] / units
    span, _, kind = name.rpartition(".")
    timed_calls, timed_s = stats["timed"].get(span, (0, 0.0))
    setup_calls, setup_s = stats["setup"].get(span, (0, 0.0))
    if kind == "calls":
        return timed_calls / units
    if kind == "s":
        return timed_s / units
    if kind == "setup_calls":
        return setup_calls / setups
    if kind == "setup_s":
        return setup_s / setups
    if kind == "ms_per_call":
        calls = timed_calls + setup_calls
        return 1e3 * (timed_s + setup_s) / calls if calls else 0.0
    raise KeyError(name)
