"""The three workloads: why each exists, its set-up, one operation, checks.

Each workload is one process with one client in a closed loop; parkrank
has no server or queue, so nothing waits and waiting time is n/a. Inputs
come from the workload seed only: the synthetic city uses data seed
``seed % DIGEST_SEEDS`` (so every seed has a recorded input digest) and the
recommend queries use the seed itself.

- ``c8-train``: forward, backward, labels and Adam do almost all the work;
  eval, baselines and recommend do none apart from the periodic
  ``split_ndcg`` on val. One operation is one training step, timed as
  ``train_loop`` wall time over its steps with the val pass amortised in.
- ``c8-eval``: ranking, baselines and metric aggregation dominate; the
  forward pass is a few percent; backward and Adam do nothing. One
  operation is one ranked-and-scored query, summed over the model and both
  baselines, timed as passes of the eval command's library path over the
  whole test split, at least two a run.
- ``city120-recommend``: reads the model the way a driver-facing caller
  does, at B=1 and a city where only 3.9% of the dense pairs scored are
  allowed (14% at n=30). One operation is one query. Training at n=120 is
  left out: one step costs about 2.5 s and 2.65 GB.
"""

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np

import metrics
from parkrank import cli, esgraph, evaluate, ingest, model, train

HERE = Path(__file__).resolve().parent
DIGEST_FILE = HERE / "digests.json"
DIGEST_SEEDS = 64

# meters x intervals; c9 is the criterion-9 shape the smoke test runs at
SHAPES = {"c8": (30, 5000), "city120": (120, 2016), "c9": (9, 150)}

TRAIN_STEPS = 100  # one val pass per op, as criterion 8's eval_every
CHECKPOINT_STEPS = 25  # training steps behind the c8-eval checkpoint
RECOMMEND_TOP = 5
RECOMMEND_MIN_QUERIES = 5000  # spans more host drift; >= 1000 for p99
QUALITY_QUERIES = 1000  # recommend answers graded for ndcg1 and rnwtr5
QUERY_POOL = 20_000


def train_config(iterations: int) -> train.TrainConfig:
    """Criterion 8's training settings."""
    return train.TrainConfig(
        alpha=2, beta=3, kernel_len=2, horizon_intervals=4,
        batch_size=128, iterations=iterations, eval_every=100,
        softmax_weight=0.1, rng_seed=0,
    )


def synth_inputs(shape: str, data_seed: int):
    n, intervals = SHAPES[shape]
    cfg = ingest.SynthConfig(
        num_locations=n, num_intervals=intervals, rng_seed=data_seed
    )
    locations, matrix = ingest.synth_generate(cfg)
    return locations, matrix, ingest.build_adjacency(locations)


def input_digest(matrix, graph) -> str:
    """sha256 over the occupancy matrix bytes and the graph edges."""
    h = hashlib.sha256()
    h.update(json.dumps(list(matrix.states.shape)).encode())
    h.update(matrix.states.astype(np.uint8).tobytes())
    h.update(json.dumps(sorted(graph.edges)).encode())
    return h.hexdigest()


def recorded_digest(shape: str, data_seed: int) -> str | None:
    table = json.loads(DIGEST_FILE.read_text())
    return table.get(shape, {}).get(str(data_seed))


class Workload:
    name = ""
    why = ""
    shape = "c8"
    checkpoint_steps: int | None = None
    min_ops = 1  # operations every untraced run completes, however slow
    # user-facing names of the gated metrics on this workload
    labels: dict[str, tuple[str, str]] = {}

    def __init__(self, seed: int, shape: str, work: Path):
        self.seed = seed
        self.shape = shape
        self.data_seed = seed % DIGEST_SEEDS
        self.work = work
        self.data_dir = work / "data"
        self.checkpoint = work / "checkpoint.bin"

    def prepare(self) -> None:
        """Untimed fixtures: the checkpoint, made in a child process so its
        training memory stays out of this process's peak."""
        if self.checkpoint_steps is None:
            return
        fixture_dir = self.work / "fixture"
        locations, matrix, graph = synth_inputs(self.shape, self.data_seed)
        cli.write_data_dir(fixture_dir, locations, matrix, graph)
        subprocess.run(
            [sys.executable, str(HERE / "fixture.py"), str(fixture_dir),
             str(self.checkpoint), str(self.checkpoint_steps)],
            check=True, timeout=170, stdout=subprocess.DEVNULL,
        )

    def load_inputs(self) -> dict:
        """The set-up every workload shares: synth, write, read back."""
        locations, matrix, graph = synth_inputs(self.shape, self.data_seed)
        cli.write_data_dir(self.data_dir, locations, matrix, graph)
        loaded, loaded_graph = cli.load_data_dir(self.data_dir)
        return {
            "generated": (matrix, graph),
            "matrix": loaded,
            "graph": loaded_graph,
        }

    def setup_failures(self, state) -> list[str]:
        matrix, graph = state["generated"]
        out = []
        want = recorded_digest(self.shape, self.data_seed)
        got = input_digest(matrix, graph)
        if want != got:
            out.append(
                f"input digest for {self.shape} data seed {self.data_seed} "
                f"is {got}, recorded {want}"
            )
        if not state["matrix"].equals(matrix):
            out.append("matrix changed in the data-dir round trip")
        if state["graph"].edges != graph.edges:
            out.append("graph edges changed in the data-dir round trip")
        return out

    def tail(self, samples) -> float:
        return max(samples)


class C8Train(Workload):
    name = "c8-train"
    why = ("criterion-8 training: forward, backward, labels and Adam do "
           "almost all the work; eval, baselines and recommend do none but "
           "the val pass every 100 steps")
    labels = {
        "op_p50_ms": ("train_step_ms", "ms"),
        "op_tail_ms": ("train_step_max_ms", "ms"),
        "ndcg1": ("val_ndcg1", "ratio"),
        "rnwtr5": ("val_rnwtr5", "ratio"),
    }

    def setup(self) -> dict:
        state = self.load_inputs()
        state["cfg"] = train_config(TRAIN_STEPS)
        state["dataset"] = train.build_dataset(state["matrix"], state["cfg"])
        return state

    def op(self, state, i):
        result = train.train_loop(
            state["matrix"], state["graph"], state["cfg"], state["dataset"]
        )
        return state["cfg"].iterations, result

    def check(self, state, i, result) -> list[str]:
        out = []
        losses = [loss for _, loss, _ in result.log]
        if not losses or not all(math.isfinite(x) for x in losses):
            out.append(f"training loss not finite: {losses}")
        val = result.best_val_ndcg1
        if not 0.0 <= val <= 1.0:
            out.append(f"val ndcg@1 {val} outside [0, 1]")
        first = state.setdefault("val_ndcg1", val)
        if val != first:
            out.append(f"train_loop not deterministic: {val} != {first}")
        state["params"] = result.params
        return out

    def quality(self, state):
        ds = state["dataset"]
        results = train.split_results(
            state["params"], ds, state["graph"], ds.val_idx, state["cfg"]
        )
        _, _, rnwtr5 = evaluate.awtp_rnwtr(results, state["matrix"], 5)
        return {"ndcg1": state["val_ndcg1"], "rnwtr5": rnwtr5}, []


class C8Eval(Workload):
    name = "c8-eval"
    why = ("the eval command over the criterion-8 test split: ranking, "
           "both baselines and metric aggregation dominate, forward is "
           "~3%, backward and Adam do nothing")
    checkpoint_steps = CHECKPOINT_STEPS
    min_ops = 2  # two passes average over more of the host's drift
    labels = {
        "op_p50_ms": ("eval_query_ms", "ms"),
        "op_tail_ms": ("eval_query_max_ms", "ms"),
        "ndcg1": ("test_ndcg1", "ratio"),
        "rnwtr5": ("test_rnwtr5", "ratio"),
    }

    def setup(self) -> dict:
        state = self.load_inputs()
        params, cfg = cli.load_checkpoint_bundle(self.checkpoint, state["graph"])
        state.update(
            params=params,
            cfg=cfg,
            dataset=train.build_dataset(state["matrix"], cfg),
        )
        return state

    def op(self, state, i):
        """The eval command's library path over the whole test split."""
        matrix, graph = state["matrix"], state["graph"]
        dataset, cfg = state["dataset"], state["cfg"]
        test = dataset.test_idx
        results = train.split_results(state["params"], dataset, graph, test, cfg)
        reports = {"model": evaluate.slice_scenarios(results, matrix, "model")}
        for name in evaluate.BASELINE_NAMES:
            base = train.baseline_split_results(
                name, matrix, dataset, graph, test, cfg
            )
            reports[name] = evaluate.slice_scenarios(base, matrix, name)
        return len(reports) * len(test) * matrix.num_locations, reports

    def check(self, state, i, reports) -> list[str]:
        want = len(state["dataset"].test_idx) * state["matrix"].num_locations
        out = []
        for name, by_scenario in reports.items():
            counts = {k: r.num_queries for k, r in by_scenario.items()}
            if counts["all"] != want:
                out.append(f"{name}: {counts['all']} queries, want {want}")
            for a, b in (("workday", "weekend"), ("daytime", "nighttime")):
                if counts[a] + counts[b] != want:
                    out.append(f"{name}: {a}+{b} slices miss queries")
            ndcg = by_scenario["all"].ndcg[1][0]
            if not 0.0 <= ndcg <= 1.0:
                out.append(f"{name}: ndcg@1 {ndcg} outside [0, 1]")
        state["model_report"] = reports["model"]["all"]
        return out

    def quality(self, state):
        report = state["model_report"]
        return {"ndcg1": report.ndcg[1][0], "rnwtr5": report.rnwtr[5]}, []


class City120Recommend(Workload):
    name = "city120-recommend"
    why = ("driver-facing queries at B=1 on 120 meters, no training; only "
           "3.9% of the dense pairs scored are allowed, against 14% at "
           "n=30")
    shape = "city120"
    checkpoint_steps = 0  # seeded initial weights: training n=120 is too big
    min_ops = RECOMMEND_MIN_QUERIES
    labels = {
        "op_p50_ms": ("recommend_p50_ms", "ms"),
        "op_tail_ms": ("recommend_p99_ms", "ms"),
        "ndcg1": ("recommend_ndcg1", "ratio"),
        "rnwtr5": ("recommend_rnwtr5", "ratio"),
    }

    def prepare(self) -> None:
        super().prepare()
        n, intervals = SHAPES[self.shape]
        horizon = train_config(1).horizon_intervals
        rng = np.random.default_rng(self.seed)
        meters = rng.integers(0, n, QUERY_POOL)
        times = rng.integers(1, intervals - horizon, QUERY_POOL)
        self.queries = [(int(q), int(t)) for q, t in zip(meters, times)]

    def setup(self) -> dict:
        state = self.load_inputs()
        params, cfg = cli.load_checkpoint_bundle(self.checkpoint, state["graph"])
        state.update(
            params=params,
            cfg=cfg,
            table=esgraph.RunTable(state["matrix"].states),
            answers=[],
        )
        return state

    def tail(self, samples) -> float:
        return metrics.p99(samples)

    def op(self, state, i):
        """What the recommend command does once its inputs are loaded."""
        q, t = self.queries[i % len(self.queries)]
        window = state["table"].window_at(t, state["cfg"].alpha)
        scores = model.forward_scores(
            state["params"],
            window.signed_durations[np.newaxis],
            window.current_signed_duration[np.newaxis],
            state["matrix"].states[:, t][np.newaxis],
        ).data[0]
        top = model.recommend_top_n(scores[q], q, state["graph"], RECOMMEND_TOP)
        return 1, (q, t, scores[q], top)

    def check(self, state, i, result) -> list[str]:
        q, t, row, top = result
        n = state["matrix"].num_locations
        out = []
        if (
            len(top) != min(RECOMMEND_TOP, n)
            or len(set(top)) != len(top)
            or not all(isinstance(v, int) and 0 <= v < n for v in top)
        ):
            out.append(f"query ({q}, {t}): bad answer {top}")
        if not np.isfinite(row).all():
            out.append(f"query ({q}, {t}): scores not finite")
        if i == len(state["answers"]) < QUALITY_QUERIES:
            state["answers"].append((q, t, row.copy(), top))
        return out

    def quality(self, state):
        """Grade the first answers with the training labels and eval metrics."""
        matrix, graph, cfg = state["matrix"], state["graph"], state["cfg"]
        hops = graph.all_hop_distances()
        allowed = graph.allowed_mask()
        h = cfg.horizon_intervals
        answers = state["answers"]
        results, out = [], []
        for lo in range(0, len(answers), 64):
            part = answers[lo : lo + 64]
            arrive = [t + h for _, t, _, _ in part]
            labels = train.make_labels(
                graph,
                ~matrix.states[:, arrive].T,
                np.stack([state["table"].remaining_run_lengths(a) for a in arrive]),
                cfg.prox_weight,
                cfg.dur_weight,
                cfg.duration_cap,
            )
            for b, (q, t, row, top) in enumerate(part):
                ranking = model.rank_candidates(row, hops[q])
                if [int(v) for v in ranking[: len(top)]] != top:
                    out.append(f"query ({q}, {t}): answer is not the ranking head")
                results.append(
                    evaluate.make_result(
                        q, t, t + h, ranking, labels[b, q], np.flatnonzero(allowed[q])
                    )
                )
        ndcg1 = float(np.mean([evaluate.ndcg_at(r.ranking, r.labels, 1) for r in results]))
        _, _, rnwtr5 = evaluate.awtp_rnwtr(results, matrix, 5)
        return {"ndcg1": ndcg1, "rnwtr5": rnwtr5}, out


WORKLOADS = {w.name: w for w in (C8Train, C8Eval, City120Recommend)}
