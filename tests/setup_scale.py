"""Time graph and model set-up at city scale and print the wall times, in
seconds, as JSON: for 400, 800 and 1200 synthetic meters (one synthetic day
of intervals, grid spacing 40 m, adjacency threshold 50 m), the time of
``synth_generate``, of ``build_adjacency``, of ``allowed_mask()`` plus
``all_hop_distances()`` on the new graph, and of ``ModelParams`` at the
criterion-8 model settings on a fresh copy of that graph (so it pays for
the candidate mask and pairs as a set-up does).

    python3 tests/setup_scale.py > after.json
    python3 tests/setup_scale.py /path/to/other/checkout/src > before.json

The optional argument is the src/ directory to import parkrank from; by
default it is the one next to this file. BLAS runs on one thread, as in
perfbench. pytest does not collect this script.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import importlib
import json
import sys
import time
from pathlib import Path

import numpy as np

SIZES = (400, 800, 1200)
INTERVALS = 288  # one day of five-minute intervals


def timed(fn, *args):
    """(fn(*args), wall seconds)."""
    start = time.perf_counter()
    out = fn(*args)
    return out, round(time.perf_counter() - start, 4)


def scale_point(ingest, model, train, n: int) -> dict[str, float]:
    (locations, _), synth_s = timed(ingest.synth_generate, ingest.SynthConfig(
        num_locations=n, num_intervals=INTERVALS
    ))
    graph, adjacency_s = timed(ingest.build_adjacency, locations)
    _, tables_s = timed(
        lambda: (graph.allowed_mask(), graph.all_hop_distances())
    )
    cfg = train.TrainConfig(alpha=2, beta=3, kernel_len=2, horizon_intervals=4)
    fresh = ingest.SpatialGraph(graph.vertices, graph.edges)
    _, params_s = timed(
        model.ModelParams, cfg.model_config(), fresh, np.random.default_rng(0)
    )
    return {
        "synth_generate": synth_s,
        "build_adjacency": adjacency_s,
        "allowed_mask+all_hop_distances": tables_s,
        "ModelParams": params_s,
    }


def main() -> None:
    here = Path(__file__).resolve().parents[1] / "src"
    src = Path(sys.argv[1]) if len(sys.argv) > 1 else here
    sys.path.insert(0, str(src.resolve()))
    ingest, model, train = (
        importlib.import_module(f"parkrank.{mod}")
        for mod in ("ingest", "model", "train")
    )
    print(json.dumps(
        {n: scale_point(ingest, model, train, n) for n in SIZES}, indent=1
    ))


if __name__ == "__main__":
    main()
