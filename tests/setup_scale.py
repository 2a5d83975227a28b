"""Time graph and model set-up at city scale and print the wall times, in
seconds, as JSON: for 400, 800 and 1200 synthetic meters (288 intervals,
one synthetic day, unless --intervals says otherwise; grid spacing 40 m,
adjacency threshold 50 m), the time of ``synth_generate``, of
``build_adjacency``, of ``allowed_mask()`` plus ``all_hop_distances()`` on
the new graph, of ``ModelParams`` at the criterion-8 model settings on
a fresh copy of that graph (so it pays for the candidate mask and pairs as
a set-up does), and of ``cli.write_data_dir`` and ``cli.load_data_dir``
on that city in a temporary directory. Then, as "crowded", the time and
edge count of ``build_adjacency`` for 3000 meters 10 m apart at the 50 m
threshold (about 110k edges), where each adjacency cube holds about 15
meters, as dense blocks do.

    python3 tests/setup_scale.py > after.json
    python3 tests/setup_scale.py /path/to/other/checkout/src > before.json
    python3 tests/setup_scale.py --intervals 2016 > week.json

The optional argument is the src/ directory to import parkrank from; by
default it is the one next to this file. BLAS runs on one thread, as in
perfbench. pytest does not collect this script.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

SIZES = (400, 800, 1200)


def timed(fn, *args):
    """(fn(*args), wall seconds)."""
    start = time.perf_counter()
    out = fn(*args)
    return out, round(time.perf_counter() - start, 4)


def scale_point(cli, ingest, model, train, n: int, intervals: int) -> dict:
    (locations, matrix), synth_s = timed(
        ingest.synth_generate,
        ingest.SynthConfig(num_locations=n, num_intervals=intervals),
    )
    graph, adjacency_s = timed(ingest.build_adjacency, locations)
    _, tables_s = timed(
        lambda: (graph.allowed_mask(), graph.all_hop_distances())
    )
    cfg = train.TrainConfig(alpha=2, beta=3, kernel_len=2, horizon_intervals=4)
    fresh = ingest.SpatialGraph(graph.vertices, graph.edges)
    _, params_s = timed(
        model.ModelParams, cfg.model_config(), fresh, np.random.default_rng(0)
    )
    with tempfile.TemporaryDirectory() as data:
        _, write_s = timed(cli.write_data_dir, data, locations, matrix, graph)
        _, load_s = timed(cli.load_data_dir, data)
    return {
        "synth_generate": synth_s,
        "build_adjacency": adjacency_s,
        "allowed_mask+all_hop_distances": tables_s,
        "ModelParams": params_s,
        "write_data_dir": write_s,
        "load_data_dir": load_s,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description="Time set-up at city scale.")
    parser.add_argument(
        "src", nargs="?", type=Path,
        default=Path(__file__).resolve().parents[1] / "src",
        help="the src/ directory to import parkrank from",
    )
    parser.add_argument(
        "--intervals", type=int, default=288,
        help="synthetic intervals per meter (default 288, one day)",
    )
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    cli, ingest, model, train = (
        importlib.import_module(f"parkrank.{mod}")
        for mod in ("cli", "ingest", "model", "train")
    )
    times = {
        n: scale_point(cli, ingest, model, train, n, args.intervals)
        for n in SIZES
    }
    crowded = ingest.synth_locations(ingest.SynthConfig(
        num_locations=3000, num_intervals=1, grid_spacing_m=10.0
    ))
    graph, adjacency_s = timed(ingest.build_adjacency, crowded)
    times["crowded"] = {
        "build_adjacency": adjacency_s, "edges": len(graph.edges)
    }
    print(json.dumps(times, indent=1))


if __name__ == "__main__":
    main()
