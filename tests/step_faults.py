"""Train at the criterion-8 shape as the CLI does, in a fresh process per
source tree, and print what the steps cost the operating system.

    python3 tests/step_faults.py src
    python3 tests/step_faults.py src /path/to/other/checkout/src
    python3 tests/step_faults.py src --steps 100
    python3 tests/step_faults.py src OTHER_SRC --meters 1200 \
        --intervals 2016 --steps 3

For each src/ directory given, a child process imports parkrank from it
and runs synth_generate (30 meters x 5000 intervals unless --meters and
--intervals give another shape; data seed 8), build_adjacency,
build_dataset and train_loop with the perfbench c8-train settings, then
saves the checkpoint as ``parkrank train`` does. It prints
one line per tree: the wall time of train_loop, the minor page faults
(ru_minflt) and system seconds (ru_stime) it took, the process's peak
RSS (ru_maxrss) and the sha256 of checkpoint.bin. Equal digests mean both
trees trained to the same checkpoint bytes.

tests/paired_steps.py runs two trees in one process, on one heap that
each tree's set-up warms for the other, so it cannot show what a
single CLI run pays in page faults. BLAS runs on one thread, as in
perfbench. pytest does not collect this script.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path


def child(src: Path, steps: int, meters: int, intervals: int) -> dict:
    """Train in this process with parkrank from src; return the costs."""
    sys.path.insert(0, str(src.resolve()))
    from parkrank import ingest, train

    locations, matrix = ingest.synth_generate(ingest.SynthConfig(
        num_locations=meters, num_intervals=intervals, rng_seed=8
    ))
    graph = ingest.build_adjacency(locations)
    cfg = train.TrainConfig(
        alpha=2, beta=3, kernel_len=2, horizon_intervals=4,
        batch_size=128, iterations=steps, eval_every=100,
        softmax_weight=0.1, rng_seed=0,
    )
    dataset = train.build_dataset(matrix, cfg)
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    result = train.train_loop(matrix, graph, cfg, dataset)
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "checkpoint.bin"
        result.params.save(path, {"train": cfg.to_manifest()})
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
    return {
        "wall_s": wall,
        "minflt": after.ru_minflt - before.ru_minflt,
        "stime_s": after.ru_stime - before.ru_stime,
        "maxrss_mb": after.ru_maxrss / 1024,  # Linux reports KiB
        "sha256": digest,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("src", type=Path, nargs="+", help="src/ directories")
    parser.add_argument("--steps", type=int, default=400)
    parser.add_argument("--meters", type=int, default=30)
    parser.add_argument("--intervals", type=int, default=5000)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(
            child(args.src[0], args.steps, args.meters, args.intervals)
        ))
        return
    digests = set()
    for src in args.src:
        out = subprocess.run(
            [sys.executable, __file__, str(src), "--steps", str(args.steps),
             "--meters", str(args.meters), "--intervals",
             str(args.intervals), "--child"],
            check=True, capture_output=True, text=True,
        ).stdout
        row = json.loads(out.splitlines()[-1])
        digests.add(row["sha256"])
        print(f"{src}: {args.steps} steps in {row['wall_s']:.2f} s, "
              f"minflt {row['minflt']}, stime {row['stime_s']:.3f} s, "
              f"maxrss {row['maxrss_mb']:.1f} MB, "
              f"checkpoint sha256 {row['sha256']}")
    if len(args.src) > 1:
        print("checkpoints " + ("equal" if len(digests) == 1 else "DIFFER"))


if __name__ == "__main__":
    main()
