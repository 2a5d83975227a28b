"""Command line entry points.

Subcommands cover the whole pipeline: build a data directory (synth or
ingest), train a scorer, evaluate it against baselines, recommend for a
single query, and benchmark the event-graph representation. Options
resolve once, before the command runs, as flag, then config file, then
the OPR_SEED environment variable for seeds, then the built-in default;
one cast per option reads every source's text. All outputs are
deterministic: no timestamps, sorted keys, repr-precision floats.
"""

import argparse
import logging
import os
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import esgraph, evaluate, ingest, model, train
from . import tensor as T
from .errors import ConfigError, DataError, ParkrankError, ParseError, reading

log = logging.getLogger("parkrank")

MATRIX_FILE = "matrix.csv"
GRAPH_FILE = "graph.json"
LOCATIONS_FILE = "locations.csv"


def read_config(path, allowed_keys) -> dict[str, str]:
    """Parse a key=value options file; # starts a comment."""
    options: dict[str, str] = {}
    with reading(path):
        for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ParseError("expected key=value", line=lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in allowed_keys:
                raise ConfigError(
                    f"{path}: line {lineno}: unknown config key: {key}"
                )
            if not value:
                raise ParseError(f"empty value for {key}", line=lineno)
            if key in options:
                raise ParseError(f"repeated config key: {key}", line=lineno)
            options[key] = value
    return options


def int64(text: str) -> int:
    """The cast of every integer spec option: an int that fits in int64."""
    value = int(text)
    bounds = np.iinfo(np.int64)
    if not bounds.min <= value <= bounds.max:
        raise ValueError(f"{value} lies outside int64")
    return value


def resolve(args, spec: dict) -> dict:
    """Every option's value: the spec's cast of its first text found, by
    flag, then config file, then OPR_SEED for the seed, else the default.
    Text the cast rejects is a ConfigError naming where it came from."""
    path = args.config
    file_options = read_config(path, set(spec)) if path else {}
    opts = {}
    for key, (cast, default) in spec.items():
        env = os.environ.get("OPR_SEED") if key == "seed" else None
        texts = (
            (f"--{key.replace('_', '-')}", getattr(args, key)),
            (path, file_options.get(key)),
            ("OPR_SEED", env),
        )
        found = [(source, text) for source, text in texts if text is not None]
        if not found:
            opts[key] = default
            continue
        source, text = found[0]
        try:
            opts[key] = cast(text)
        except ValueError:
            raise ConfigError(
                f"{source}: bad value for {key}: {text!r}"
            ) from None
    return opts


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
    "seed": (int64, 0),
    "locations": (int64, 30),
    "intervals": (int64, 2016),
    "spacing": (float, ingest.SynthConfig.grid_spacing_m),
    "base_rate": (float, ingest.SynthConfig.base_occupancy_rate),
    "correlation": (float, ingest.SynthConfig.spatial_correlation),
    "adjacency_m": (float, ingest.DEFAULT_ADJACENCY_M),
}


def cmd_synth(args, opts) -> int:
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
    "interval_minutes": (int64, ingest.DEFAULT_INTERVAL_MINUTES),
    "full_ratio": (float, ingest.DEFAULT_FULL_LOADED_RATIO),
    "adjacency_m": (float, ingest.DEFAULT_ADJACENCY_M),
}


def cmd_ingest(args, opts) -> int:
    with reading(args.records), open(args.records, newline="") as fh:
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
    by_id = {loc.meter_id: loc for loc in ingest.load_locations(args.locations)}
    missing = [mid for mid in matrix.meter_ids if mid not in by_id]
    if missing:
        raise DataError(f"no coordinates for meters: {missing[:5]}")
    locations = [by_id[mid] for mid in matrix.meter_ids]
    graph = ingest.build_adjacency(locations, opts["adjacency_m"])
    write_data_dir(args.out, locations, matrix, graph)
    log.info(
        "ingested %d meters x %d intervals to %s",
        matrix.num_locations,
        matrix.num_intervals,
        args.out,
    )
    return 0


# every training field is an option, except rng_seed, which the shared
# "seed" option (flag, config file, then OPR_SEED) sets, and
# select_best_val, which the CLI always leaves on
TRAIN_SPEC = {
    "seed": (int64, 0),
    **{
        f.name: (int64 if f.type is int else f.type, f.default)
        for f in fields(train.TrainConfig)
        if f.name not in ("rng_seed", "select_best_val")
    },
}


def cmd_train(args, opts) -> int:
    matrix, graph = load_data_dir(args.data)
    cfg = train.TrainConfig(
        **{key: opts[key] for key in TRAIN_SPEC if key != "seed"},
        rng_seed=opts["seed"],
    )
    result = train.train_loop(matrix, graph, cfg)
    out = _ensure_dir(args.out)
    result.params.save(out / "checkpoint.bin", {"train": cfg.to_manifest()})
    ingest.write_csv(
        out / "train_log.csv", ("step", "train_loss", "val_ndcg1"), result.log
    )
    log.info(
        "best val ndcg@1 %.4f at step %d; checkpoint in %s",
        result.best_val_ndcg1,
        result.best_step,
        out,
    )
    return 0


def load_checkpoint_bundle(checkpoint, graph):
    # the one reader of a checkpoint: its training settings give the model,
    # which its manifest and tensors must fit (model.check_weights) before
    # the model is built; errors name the file
    entries, manifest = T.load_checkpoint(checkpoint)
    with reading(checkpoint):
        try:
            cfg = train.TrainConfig.from_manifest(manifest.get("train"))
            config = cfg.model_config()
        except ConfigError as exc:
            raise DataError(str(exc)) from None
        model.check_weights(entries, manifest, config, graph)
    params = model.ModelParams(config, graph, np.random.default_rng(0))
    params.restore(entries)
    return params, cfg


EVAL_SPEC = {
    "split": (str, "test"),
    "max_wait": (int64, evaluate.DEFAULT_MAX_WAIT),
}


def cmd_eval(args, opts) -> int:
    matrix, graph = load_data_dir(args.data)
    params, cfg = load_checkpoint_bundle(args.checkpoint, graph)
    dataset = train.build_dataset(matrix, cfg)
    split = opts["split"]
    if split not in ("train", "val", "test"):
        raise ConfigError(f"split must be train, val, or test, got {split!r}")
    split_idx = getattr(dataset, f"{split}_idx")

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
    evaluate.write_reports(_ensure_dir(args.out), reports)
    overall = reports["model"]["all"]
    log.info(
        "%s split: %d queries, model ndcg@1 %.4f",
        split,
        overall.num_queries,
        overall.ndcg[1][0],
    )
    return 0


RECOMMEND_SPEC = {"top": (int64, 5)}


def cmd_recommend(args, opts) -> int:
    matrix, graph = load_data_dir(args.data)
    params, cfg = load_checkpoint_bundle(args.checkpoint, graph)
    if args.query not in matrix.location_index:
        raise DataError(f"unknown meter id: {args.query}")
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


BENCH_SPEC = {"alpha": (int64, train.TrainConfig.alpha), "points": (int64, 12)}


def cmd_bench(args, opts) -> int:
    matrix, _graph = load_data_dir(args.data)
    report = esgraph.bench_complexity(matrix, opts["alpha"])
    curve = esgraph.complexity_curve(matrix, opts["points"])
    out = _ensure_dir(args.out)
    ingest.write_json(out / "complexity.json", asdict(report))
    ingest.write_csv(
        out / "complexity_curve.csv",
        ("prefix_len", "cell_count", "event_node_count"),
        curve,
    )
    log.info(
        "event graph holds %d nodes versus %d cells",
        report.esgraph_nodes,
        report.stgraph_cells,
    )
    return 0


# name: (handler, help, required flags, option spec); every command also
# takes --config, a key=value file of its options
COMMANDS = {
    "synth": (cmd_synth, "generate a synthetic data directory",
              ("out",), SYNTH_SPEC),
    "ingest": (cmd_ingest, "build a data directory from records",
               ("records", "locations", "kind", "out"), INGEST_SPEC),
    "train": (cmd_train, "train a scorer on a data directory",
              ("data", "out"), TRAIN_SPEC),
    "eval": (cmd_eval, "score a checkpoint against baselines",
             ("data", "checkpoint", "out"), EVAL_SPEC),
    "recommend": (cmd_recommend, "rank spots for one query",
                  ("data", "checkpoint", "query", "time"), RECOMMEND_SPEC),
    "bench": (cmd_bench, "measure event-graph compression",
              ("data", "out"), BENCH_SPEC),
}

# further argparse settings of some required flags
FLAG_ARGS = {
    "kind": {"choices": ("space", "street")},
    "query": {"help": "meter id of the driver"},
    "time": {"type": int, "help": "interval index"},
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parkrank",
        description="On-street parking recommendation pipeline.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, help_text, required, spec) in COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        for flag in required:
            sub.add_argument(
                f"--{flag}", required=True, **FLAG_ARGS.get(flag, {})
            )
        sub.add_argument("--config")
        for key in spec:
            sub.add_argument(f"--{key.replace('_', '-')}")
    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
    handler, _help, _required, spec = COMMANDS[args.command]
    try:
        return handler(args, resolve(args, spec))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ParkrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        # a size inside int64 can still be past what memory holds
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
