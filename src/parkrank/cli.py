"""Command line entry points.

Subcommands cover the whole pipeline: build a data directory (synth or
ingest), train a scorer, evaluate it against baselines, recommend for a
single query, and benchmark the event-graph representation. Options
resolve as flag, then config file, then the OPR_SEED environment
variable for seeds, then the built-in default. All outputs are
deterministic: no timestamps, sorted keys, repr-precision floats.
"""

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import esgraph, evaluate, ingest, model, train
from .errors import ConfigError, DataError, ParkrankError, ParseError

log = logging.getLogger("parkrank")

MATRIX_FILE = "matrix.csv"
GRAPH_FILE = "graph.json"
LOCATIONS_FILE = "locations.csv"


def read_config(path, allowed_keys) -> dict[str, str]:
    """Parse a key=value options file; # starts a comment."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"config file not found: {path}")
    options: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key=value", line=lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in allowed_keys:
            raise ConfigError(f"unknown config key: {key}")
        if not value:
            raise ParseError(f"empty value for {key}", line=lineno)
        options[key] = value
    return options


def _env_seed() -> int:
    raw = os.environ.get("OPR_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"OPR_SEED must be an integer, got {raw!r}")


class Resolver:
    """Layered option lookup: flag beats config file beats default."""

    def __init__(self, args, spec: dict):
        self.args = args
        self.spec = spec
        config_path = getattr(args, "config", None)
        self.file_options = (
            read_config(config_path, set(spec)) if config_path else {}
        )

    def __getitem__(self, key: str):
        cast, default = self.spec[key]
        flag = getattr(self.args, key, None)
        if flag is not None:
            return flag
        if key in self.file_options:
            raw = self.file_options[key]
            try:
                return cast(raw)
            except ValueError:
                raise ConfigError(f"bad value for {key}: {raw!r}")
        if key == "seed":
            return _env_seed()
        return default


def _add_option_flags(sub, spec: dict) -> None:
    for key, (cast, _default) in spec.items():
        sub.add_argument(f"--{key.replace('_', '-')}", type=cast, default=None)


def _ensure_dir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_data_dir(out, locations, matrix, graph) -> None:
    out = _ensure_dir(out)
    ingest.save_locations(locations, out / LOCATIONS_FILE)
    ingest.save_matrix(matrix, out / MATRIX_FILE)
    ingest.save_graph(graph, out / GRAPH_FILE)


def load_data_dir(data) -> tuple[ingest.OccupancyMatrix, ingest.SpatialGraph]:
    data = Path(data)
    matrix = ingest.load_matrix(data / MATRIX_FILE)
    graph = ingest.load_graph(data / GRAPH_FILE)
    if [v.meter_id for v in graph.vertices] != matrix.meter_ids:
        raise DataError(
            f"{data / GRAPH_FILE} and {data / MATRIX_FILE} list different "
            "meters"
        )
    return matrix, graph


SYNTH_SPEC = {
    "seed": (int, 0),
    "locations": (int, 30),
    "intervals": (int, 2016),
    "spacing": (float, 40.0),
    "base_rate": (float, 0.45),
    "correlation": (float, 0.5),
    "adjacency_m": (float, ingest.DEFAULT_ADJACENCY_M),
}


def cmd_synth(args) -> int:
    opts = Resolver(args, SYNTH_SPEC)
    cfg = ingest.SynthConfig(
        num_locations=opts["locations"],
        num_intervals=opts["intervals"],
        grid_spacing_m=opts["spacing"],
        base_occupancy_rate=opts["base_rate"],
        spatial_correlation=opts["correlation"],
        rng_seed=opts["seed"],
    )
    locations, matrix = ingest.synth_generate(cfg)
    graph = ingest.build_adjacency(locations, opts["adjacency_m"])
    write_data_dir(args.out, locations, matrix, graph)
    log.info(
        "wrote %d locations x %d intervals to %s",
        matrix.num_locations,
        matrix.num_intervals,
        args.out,
    )
    return 0


INGEST_SPEC = {
    "interval_minutes": (int, ingest.DEFAULT_INTERVAL_MINUTES),
    "full_ratio": (float, ingest.DEFAULT_FULL_LOADED_RATIO),
    "adjacency_m": (float, ingest.DEFAULT_ADJACENCY_M),
}


def cmd_ingest(args) -> int:
    opts = Resolver(args, INGEST_SPEC)
    records = Path(args.records)
    if not records.exists():
        raise DataError(f"records file not found: {records}")
    try:
        with records.open(newline="") as fh:
            if args.kind == "space":
                matrix = ingest.parse_space_records(
                    fh, interval_minutes=opts["interval_minutes"]
                )
            else:
                matrix = ingest.parse_street_records(
                    fh,
                    full_loaded_ratio=opts["full_ratio"],
                    interval_minutes=opts["interval_minutes"],
                )
    except UnicodeDecodeError:
        raise DataError(f"{records}: undecodable bytes") from None
    except DataError as exc:
        raise exc.in_file(records) from None
    by_id = {loc.meter_id: loc for loc in ingest.load_locations(args.locations)}
    missing = [mid for mid in matrix.meter_ids if mid not in by_id]
    if missing:
        raise DataError(f"no coordinates for meters: {missing[:5]}")
    locations = [by_id[mid] for mid in matrix.meter_ids]
    graph = ingest.build_adjacency(locations, opts["adjacency_m"])
    write_data_dir(args.out, locations, matrix, graph)
    if matrix.dropped_meters:
        log.info("dropped sparse meters: %s", ",".join(matrix.dropped_meters))
    log.info(
        "ingested %d meters x %d intervals to %s",
        matrix.num_locations,
        matrix.num_intervals,
        args.out,
    )
    return 0


TRAIN_SPEC = {
    "seed": (int, 0),
    "alpha": (int, 6),
    "beta": (int, 2),
    "conv_channels": (int, 8),
    "embed_dim": (int, 16),
    "kernel_len": (int, 3),
    "score_activation": (str, "relu"),
    "horizon_intervals": (int, 4),
    "prox_weight": (float, 0.5),
    "dur_weight": (float, 0.5),
    "duration_cap": (int, 12),
    "softmax_weight": (float, 0.1),
    "l2_coeff": (float, 1e-6),
    "dropout_rate": (float, 0.0),
    "batch_size": (int, 128),
    "iterations": (int, 1000),
    "learning_rate": (float, 0.002),
    "eval_every": (int, 25),
}


def train_config_from(opts) -> train.TrainConfig:
    return train.TrainConfig(
        alpha=opts["alpha"],
        beta=opts["beta"],
        conv_channels=opts["conv_channels"],
        embed_dim=opts["embed_dim"],
        kernel_len=opts["kernel_len"],
        score_activation=opts["score_activation"],
        horizon_intervals=opts["horizon_intervals"],
        prox_weight=opts["prox_weight"],
        dur_weight=opts["dur_weight"],
        duration_cap=opts["duration_cap"],
        softmax_weight=opts["softmax_weight"],
        l2_coeff=opts["l2_coeff"],
        dropout_rate=opts["dropout_rate"],
        batch_size=opts["batch_size"],
        iterations=opts["iterations"],
        learning_rate=opts["learning_rate"],
        eval_every=opts["eval_every"],
        rng_seed=opts["seed"],
    )


def write_train_log(path, rows) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "train_loss", "val_ndcg1"])
        for step, loss, val in rows:
            writer.writerow([step, repr(loss), repr(val)])


def cmd_train(args) -> int:
    matrix, graph = load_data_dir(args.data)
    cfg = train_config_from(Resolver(args, TRAIN_SPEC))
    result = train.train_loop(matrix, graph, cfg)
    out = _ensure_dir(args.out)
    result.params.save(out / "checkpoint.bin", {"train": cfg.to_manifest()})
    write_train_log(out / "train_log.csv", result.log)
    log.info(
        "best val ndcg@1 %.4f at step %d; checkpoint in %s",
        result.best_val_ndcg1,
        result.best_step,
        out,
    )
    return 0


def load_checkpoint_bundle(checkpoint, graph):
    params, manifest = model.ModelParams.load(checkpoint, graph)
    if "train" not in manifest:
        raise DataError(f"{checkpoint}: checkpoint lacks training settings")
    try:
        cfg = train.TrainConfig.from_manifest(manifest["train"])
    except DataError as exc:
        raise DataError(f"{checkpoint}: {exc}") from None
    return params, cfg


EVAL_SPEC = {
    "split": (str, "test"),
    "max_wait": (int, evaluate.DEFAULT_MAX_WAIT),
}

EVAL_CSV_COLUMNS = (
    "model,scenario,num_queries,ndcg1,ndcg1_std,ndcg5,ndcg5_std,"
    "map1,map1_std,map5,map5_std,awtp1,awtp2,awtp3,awtp4,awtp5,"
    "iawtp,rnwtr1,rnwtr2,rnwtr3,rnwtr4,rnwtr5"
)


def _report_csv_row(report) -> list[str]:
    cells = [report.model, report.scenario, str(report.num_queries)]
    for n in (1, 5):
        mean, std = report.ndcg.get(n, (0.0, 0.0))
        cells += [repr(mean), repr(std)]
    for n in (1, 5):
        mean, std = report.mean_ap.get(n, (0.0, 0.0))
        cells += [repr(mean), repr(std)]
    for n in evaluate.WAIT_NS:
        cells.append(repr(report.awtp.get(n, 0.0)))
    cells.append(repr(report.iawtp))
    for n in evaluate.WAIT_NS:
        cells.append(repr(report.rnwtr.get(n, 0.0)))
    return cells


def write_metric_files(out, reports) -> None:
    out = _ensure_dir(out)
    (out / "metrics.json").write_text(evaluate.reports_to_json(reports))
    with (out / "metrics.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(EVAL_CSV_COLUMNS.split(","))
        for name in sorted(reports):
            for scenario in sorted(reports[name]):
                writer.writerow(_report_csv_row(reports[name][scenario]))
    with (out / "plot_data.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "metric", "scenario", "value", "std"])
        for row in evaluate.reports_to_plot_rows(reports):
            writer.writerow(
                [row[0], row[1], row[2], repr(row[3]), repr(row[4])]
            )


def cmd_eval(args) -> int:
    opts = Resolver(args, EVAL_SPEC)
    matrix, graph = load_data_dir(args.data)
    params, cfg = load_checkpoint_bundle(args.checkpoint, graph)
    dataset = train.build_dataset(matrix, cfg)
    split = opts["split"]
    try:
        split_idx = {
            "train": dataset.train_idx,
            "val": dataset.val_idx,
            "test": dataset.test_idx,
        }[split]
    except KeyError:
        raise ConfigError(f"split must be train, val, or test, got {split!r}")

    reports: dict[str, dict[str, evaluate.MetricsReport]] = {}
    results = train.split_results(params, dataset, graph, split_idx, cfg)
    reports["model"] = evaluate.slice_scenarios(
        results, matrix, "model", max_wait=opts["max_wait"]
    )
    for name in evaluate.BASELINE_NAMES:
        base = train.baseline_split_results(
            name, matrix, dataset, graph, split_idx, cfg
        )
        reports[name] = evaluate.slice_scenarios(
            base, matrix, name, max_wait=opts["max_wait"]
        )
    write_metric_files(args.out, reports)
    overall = reports["model"]["all"]
    log.info(
        "%s split: %d queries, model ndcg@1 %.4f",
        split,
        overall.num_queries,
        overall.ndcg[1][0],
    )
    return 0


RECOMMEND_SPEC = {"top": (int, 5)}


def cmd_recommend(args) -> int:
    opts = Resolver(args, RECOMMEND_SPEC)
    matrix, graph = load_data_dir(args.data)
    params, cfg = load_checkpoint_bundle(args.checkpoint, graph)
    if args.query not in matrix.location_index:
        raise DataError(f"unknown meter id: {args.query}")
    if not 0 <= args.time < matrix.num_intervals:
        raise DataError(
            f"time must lie in [0, {matrix.num_intervals}), got {args.time}"
        )
    q = matrix.location_index[args.query]
    table = esgraph.RunTable(matrix.states)
    window = table.window_at(args.time, cfg.alpha)
    scores = model.forward_scores(
        params,
        window.signed_durations[np.newaxis],
        window.current_signed_duration[np.newaxis],
        matrix.states[:, args.time][np.newaxis],
    ).data[0]
    order = model.recommend_top_n(scores[q], q, graph, opts["top"])
    ids = matrix.meter_ids
    for v in order:
        print(f"{ids[v]}\t{scores[q, v]:.6f}")
    return 0


BENCH_SPEC = {"alpha": (int, 6), "points": (int, 12)}


def cmd_bench(args) -> int:
    opts = Resolver(args, BENCH_SPEC)
    matrix, _graph = load_data_dir(args.data)
    report = esgraph.bench_complexity(matrix, opts["alpha"])
    curve = esgraph.complexity_curve(matrix, opts["points"])
    out = _ensure_dir(args.out)
    (out / "complexity.json").write_text(
        json.dumps(report.as_dict(), indent=2, sort_keys=True) + "\n"
    )
    with (out / "complexity_curve.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["prefix_len", "cell_count", "event_node_count"])
        for row in curve:
            writer.writerow(list(row))
    log.info(
        "event graph holds %d nodes versus %d cells",
        report.esgraph_nodes,
        report.stgraph_cells,
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkrank",
        description="On-street parking recommendation pipeline.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="generate a synthetic data directory")
    synth.add_argument("--out", required=True)
    synth.add_argument("--config")
    _add_option_flags(synth, SYNTH_SPEC)
    synth.set_defaults(func=cmd_synth)

    ing = subs.add_parser("ingest", help="build a data directory from records")
    ing.add_argument("--records", required=True)
    ing.add_argument("--locations", required=True)
    ing.add_argument("--kind", choices=("space", "street"), required=True)
    ing.add_argument("--out", required=True)
    ing.add_argument("--config")
    _add_option_flags(ing, INGEST_SPEC)
    ing.set_defaults(func=cmd_ingest)

    tr = subs.add_parser("train", help="train a scorer on a data directory")
    tr.add_argument("--data", required=True)
    tr.add_argument("--out", required=True)
    tr.add_argument("--config")
    _add_option_flags(tr, TRAIN_SPEC)
    tr.set_defaults(func=cmd_train)

    ev = subs.add_parser("eval", help="score a checkpoint against baselines")
    ev.add_argument("--data", required=True)
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--config")
    _add_option_flags(ev, EVAL_SPEC)
    ev.set_defaults(func=cmd_eval)

    rec = subs.add_parser("recommend", help="rank spots for one query")
    rec.add_argument("--data", required=True)
    rec.add_argument("--checkpoint", required=True)
    rec.add_argument("--query", required=True, help="meter id of the driver")
    rec.add_argument("--time", type=int, required=True, help="interval index")
    rec.add_argument("--config")
    _add_option_flags(rec, RECOMMEND_SPEC)
    rec.set_defaults(func=cmd_recommend)

    bench = subs.add_parser("bench", help="measure event-graph compression")
    bench.add_argument("--data", required=True)
    bench.add_argument("--out", required=True)
    bench.add_argument("--config")
    _add_option_flags(bench, BENCH_SPEC)
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParkrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
