"""Time criterion-8 training steps, eval passes, recommend queries or
synthetic data sets of two parkrank source trees in one process,
alternating them, and print each tree's median time, the paired ratio
and a digest of what each tree computed.

    python3 tests/paired_steps.py /path/to/other/checkout/src
    python3 tests/paired_steps.py /path/to/other/src --pairs 12 --steps 50
    python3 tests/paired_steps.py /path/to/other/src --meters 400 --intervals 2016
    python3 tests/paired_steps.py /path/to/other/src --eval --pairs 41
    python3 tests/paired_steps.py /path/to/other/src --eval --meters 120 --intervals 2016
    python3 tests/paired_steps.py /path/to/other/src --recommend --pairs 16
    python3 tests/paired_steps.py /path/to/other/src --synth --meters 120 --intervals 2016

This tree's src/ loads as the package ``parkrank``, the other as
``parkrank_other``. Each pair runs ``train.train_loop`` once per tree with
the perfbench c8-train settings and one val pass at the last step, on the
criterion-8 shape (30 meters x 5000 intervals) unless --meters and
--intervals give another. The order flips from pair to pair, so slow drift
of a shared machine lands on both trees alike. The ratio is this tree's
ms/step over the other's, per pair, then the median over pairs; below 1
means this tree is faster. Equal digests mean both trees trained to the
same parameter bytes.

With --eval, each tree first trains a 25-step checkpoint (the perfbench
c8-eval fixture's settings), and each pair then times one pass of the
eval command's library path over the test split per tree: the model's
split_results and both baselines' baseline_split_results, each through
slice_scenarios. The digest is the sha256 of the pass's reports_to_json,
so equal digests mean byte-identical metrics.json content.

With --recommend, each tree builds the seeded initial weights of the
perfbench city120-recommend fixture, on 120 meters x 2016 intervals
unless --meters and --intervals give another shape, and each pair times
--queries one-query ops per tree, the perfbench city120-recommend op:
RunTable.window_at, forward_scores at B=1 and recommend_top_n for the
top 5. Both trees answer the same seeded (meter, time) queries; the time
is ms per query, and the digest is the sha256 of every answer's score
row and top list, so equal digests mean the same answers.

With --synth, each pair times one ``ingest.synth_generate`` per tree on
the criterion-8 shape unless --meters and --intervals give another, and
the digest is the sha256 of its occupancy ``states``, so equal digests
mean byte-identical matrices.

When the two digests differ, the last line reads DIFFER and the script
exits 1, so a script or CI step can gate on it. BLAS runs on one thread,
as in perfbench. pytest does not collect this script.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import dataclasses
import hashlib
import importlib
import importlib.util
import statistics
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1] / "src"
DATA_SEED = 8
CHECKPOINT_STEPS = 25  # the perfbench c8-eval fixture's training steps
QUERY_SEED = 5  # draws the --recommend queries
RECOMMEND_TOP = 5  # the answer size of the perfbench recommend op


def load_tree(src: Path, name: str):
    """The parkrank package under src, imported as name, with its modules."""
    root = src.resolve() / "parkrank"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)]
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return {mod: importlib.import_module(f"{name}.{mod}")
            for mod in ("esgraph", "evaluate", "ingest", "model", "train")}


class Tree:
    """One source tree's inputs, built with its own modules."""

    def __init__(self, src: Path, name: str, args):
        mods = load_tree(src, name)
        self.name, self.train = name, mods["train"]
        self.evaluate, self.model = mods["evaluate"], mods["model"]
        self.ingest = ingest = mods["ingest"]
        n, intervals, steps = args.meters, args.intervals, args.steps
        self.synth_cfg = ingest.SynthConfig(
            num_locations=n, num_intervals=intervals, rng_seed=DATA_SEED
        )
        self.ms_per_step: list[float] = []
        self.digest = ""
        if args.synth:
            self.run = self.synth
            return
        locations, self.matrix = ingest.synth_generate(self.synth_cfg)
        self.graph = ingest.build_adjacency(locations)
        self.cfg = self.train.TrainConfig(
            alpha=2, beta=3, kernel_len=2, horizon_intervals=4,
            batch_size=128, iterations=steps, eval_every=steps,
            softmax_weight=0.1, rng_seed=0,
        )
        if args.recommend:
            self.params = self.model.ModelParams(
                self.cfg.model_config(), self.graph,
                np.random.default_rng(self.cfg.rng_seed),
            )
            self.table = mods["esgraph"].RunTable(self.matrix.states)
            rng = np.random.default_rng(QUERY_SEED)
            last = intervals - self.cfg.horizon_intervals
            self.queries = list(zip(
                rng.integers(0, n, args.queries).tolist(),
                rng.integers(1, last, args.queries).tolist(),
            ))
            self.run = self.recommend_queries
            return
        self.dataset = self.train.build_dataset(self.matrix, self.cfg)
        self.run = self.train_steps
        if args.eval:
            self.cfg = dataclasses.replace(
                self.cfg, iterations=CHECKPOINT_STEPS, eval_every=100
            )
            self.params = self.train.train_loop(
                self.matrix, self.graph, self.cfg, self.dataset
            ).params
            self.run = self.eval_pass

    def train_steps(self) -> None:
        start = time.perf_counter()
        result = self.train.train_loop(
            self.matrix, self.graph, self.cfg, self.dataset
        )
        elapsed = time.perf_counter() - start
        self.ms_per_step.append(1e3 * elapsed / self.cfg.iterations)
        h = hashlib.sha256()
        for key, array in sorted(result.params.snapshot().items()):
            h.update(key.encode())
            h.update(array.tobytes())
        self.digest = h.hexdigest()

    def eval_pass(self) -> None:
        train, evaluate = self.train, self.evaluate
        matrix, graph, dataset = self.matrix, self.graph, self.dataset
        test = dataset.test_idx
        start = time.perf_counter()
        results = train.split_results(
            self.params, dataset, graph, test, self.cfg
        )
        reports = {"model": evaluate.slice_scenarios(results, matrix, "model")}
        for name in evaluate.BASELINE_NAMES:
            base = train.baseline_split_results(
                name, matrix, dataset, graph, test, self.cfg
            )
            reports[name] = evaluate.slice_scenarios(base, matrix, name)
        self.ms_per_step.append(1e3 * (time.perf_counter() - start))
        text = evaluate.reports_to_json(reports)
        self.digest = hashlib.sha256(text.encode()).hexdigest()

    def synth(self) -> None:
        start = time.perf_counter()
        _, matrix = self.ingest.synth_generate(self.synth_cfg)
        self.ms_per_step.append(1e3 * (time.perf_counter() - start))
        self.digest = hashlib.sha256(matrix.states.tobytes()).hexdigest()

    def recommend_queries(self) -> None:
        model, params, graph = self.model, self.params, self.graph
        states, alpha = self.matrix.states, self.cfg.alpha
        answers = []
        start = time.perf_counter()
        for q, t in self.queries:
            window = self.table.window_at(t, alpha)
            scores = model.forward_scores(
                params,
                window.signed_durations[np.newaxis],
                window.current_signed_duration[np.newaxis],
                states[:, t][np.newaxis],
            ).data[0]
            top = model.recommend_top_n(scores[q], q, graph, RECOMMEND_TOP)
            # a copy, so the [n, n] scores of each query can go
            answers.append((scores[q].copy(), top))
        elapsed = time.perf_counter() - start
        self.ms_per_step.append(1e3 * elapsed / len(self.queries))
        h = hashlib.sha256()
        for row, top in answers:
            h.update(row.tobytes())
            h.update(repr(top).encode())
        self.digest = h.hexdigest()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("other", type=Path, help="src/ of the other tree")
    parser.add_argument("--pairs", type=int, default=24)
    parser.add_argument("--steps", type=int, default=100)
    # criterion 8's shape by default, city120's with --recommend
    parser.add_argument("--meters", type=int)
    parser.add_argument("--intervals", type=int)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--eval", action="store_true",
                      help="time eval passes instead of training steps")
    mode.add_argument("--recommend", action="store_true",
                      help="time recommend queries instead of training steps")
    mode.add_argument("--synth", action="store_true",
                      help="time synth_generate instead of training steps")
    parser.add_argument("--queries", type=int, default=3000,
                        help="queries per tree in each --recommend pair")
    args = parser.parse_args()
    if args.pairs < 2:
        # the ratio's quartiles need two pairs
        parser.error(f"--pairs must be at least 2, got {args.pairs}")
    if args.queries < 1:
        parser.error(f"--queries must be at least 1, got {args.queries}")
    shape = (120, 2016) if args.recommend else (30, 5000)
    args.meters = args.meters or shape[0]
    args.intervals = args.intervals or shape[1]
    this = Tree(HERE, "parkrank", args)
    other = Tree(args.other, "parkrank_other", args)
    this.run()  # warm both trees' caches before timing
    other.run()
    this.ms_per_step.clear()
    other.ms_per_step.clear()
    for pair in range(args.pairs):
        for tree in (this, other) if pair % 2 == 0 else (other, this):
            tree.run()
    ratios = [a / b for a, b in zip(this.ms_per_step, other.ms_per_step)]
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    if args.recommend:
        unit, what = "ms/query", "answers"
        each = f"{args.queries} queries"
    elif args.eval:
        unit, what, each = "ms/pass", "reports", "one eval pass"
    elif args.synth:
        unit, what, each = "ms/call", "states", "one synth_generate"
    else:
        unit, what, each = "ms/step", "params", f"{args.steps} steps"
    for tree in (this, other):
        print(f"{tree.name}: median {statistics.median(tree.ms_per_step):.3f}"
              f" {unit}, {what} sha256 {tree.digest}")
    print(f"paired ratio this/other: median {median:.3f} "
          f"[quartiles {q1:.3f}, {q3:.3f}] over {args.pairs} pairs, "
          f"{each} each")
    print(what + (" equal" if this.digest == other.digest else " DIFFER"))
    if this.digest != other.digest:
        sys.exit(1)


if __name__ == "__main__":
    main()
