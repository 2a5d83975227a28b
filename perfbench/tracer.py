"""Spans around parkrank's public functions, installed from outside.

The tracer replaces the module or class attribute each caller looks up at
call time (``kernels.encode_runs``, ``SpatialGraph.hop_distances``, ...)
with a timing wrapper, and puts the original back afterwards. Nothing
inside ``src/parkrank`` changes. Work runs in one thread, so one stack of
open spans gives each span's self time: its duration minus the time its
child spans cover. Spans are aggregated per phase and name as
(calls, self seconds).
"""

import functools
import importlib
import time
from collections import defaultdict

# (owner path under parkrank, attribute) for every traced function.
TARGETS = (
    ("ingest", "synth_generate"),
    ("ingest", "build_adjacency"),
    ("ingest", "load_matrix"),
    ("ingest", "load_graph"),
    ("ingest.SpatialGraph", "all_hop_distances"),
    ("ingest.SpatialGraph", "hop_distances"),
    ("kernels", "encode_runs"),
    ("kernels", "extract_windows"),
    ("kernels", "markov_occupancy"),
    ("kernels", "next_vacant_steps"),
    ("esgraph.RunTable", "__init__"),
    ("esgraph.RunTable", "window_at"),
    ("esgraph.RunTable", "remaining_run_lengths"),
    ("tensor", "conv1d"),
    ("tensor", "neighbor_mix"),
    ("tensor", "matmul"),
    ("tensor", "add"),
    ("tensor", "relu"),
    ("tensor", "reduce_sum"),
    ("tensor", "log_softmax"),
    ("tensor", "masked_fill"),
    ("tensor", "backward"),
    ("tensor", "adam_step"),
    ("tensor", "load_checkpoint"),
    ("model", "forward_scores"),
    ("model", "rank_candidates"),
    ("model", "recommend_top_n"),
    ("train", "build_dataset"),
    ("train", "make_labels"),
    ("train", "training_loss"),
    ("train", "split_ndcg"),
    ("train", "split_results"),
    ("train", "baseline_split_results"),
    ("train", "train_loop"),
    ("evaluate", "slice_scenarios"),
    ("evaluate", "summarize"),
    ("evaluate", "awtp_rnwtr"),
    ("evaluate", "ndcg_at"),
    ("evaluate", "map_at"),
    ("evaluate", "make_result"),
    ("evaluate", "baseline_predict_then_recommend"),
    ("cli", "write_data_dir"),
    ("cli", "load_data_dir"),
    ("cli", "load_checkpoint_bundle"),
)

MARK = "_perfbench_span"


def resolve(parkrank, owner_path: str):
    module, _, cls = owner_path.partition(".")
    owner = importlib.import_module(f"{parkrank.__name__}.{module}")
    return getattr(owner, cls) if cls else owner


# Graph methods are reported under their module, as callers think of them.
SHORT_NAMES = {
    "ingest.SpatialGraph.all_hop_distances": "ingest.all_hop_distances",
    "ingest.SpatialGraph.hop_distances": "ingest.hop_distances",
}


def span_name(owner_path: str, attr: str) -> str:
    full = f"{owner_path}.{attr}"
    return SHORT_NAMES.get(full, full)


def _count_pairs(tracer, args, kwargs):
    """Pair-tensor sizes of one forward_scores call, from its shapes."""
    params, windows = args[0], args[1]
    batch = windows.shape[0]
    n = params.num_vertices
    c = tracer.counters[tracer.phase]
    c["scored_pairs"] += batch * n * n
    c["allowed_pairs"] += batch * int(params.allowed.sum())
    size = batch * n * n * params.config.embed_dim * 8
    c["pair_tensor_bytes"] = max(c["pair_tensor_bytes"], size)


HOOKS = {"model.forward_scores": _count_pairs}


class Tracer:
    def __init__(self, parkrank):
        self.parkrank = parkrank
        self.phase = "setup"
        self.units = 0  # workload operations done while installed, after set-up
        # phase -> span name -> [calls, self_s]
        self.stats = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        self.counters = defaultdict(lambda: defaultdict(int))
        self._open: list[float] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        tracer = self
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if hook is not None:
                hook(tracer, args, kwargs)
            tracer._open.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = tracer._open.pop()
                if tracer._open:
                    tracer._open[-1] += dur
                rec = tracer.stats[tracer.phase][name]
                rec[0] += 1
                rec[1] += dur - child

        setattr(span, MARK, name)
        return span

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for owner_path, attr in TARGETS:
            owner = resolve(self.parkrank, owner_path)
            original = owner.__dict__[attr]
            name = span_name(owner_path, attr)
            setattr(owner, attr, self._wrap(name, original))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)


def snapshot(parkrank) -> dict:
    """Current object behind every traced attribute."""
    return {
        span_name(o, a): resolve(parkrank, o).__dict__[a] for o, a in TARGETS
    }


def wrapped_now(parkrank, originals: dict) -> list[str]:
    """Names whose attribute is not the original object or is a span."""
    now = snapshot(parkrank)
    return sorted(
        name
        for name, obj in now.items()
        if obj is not originals[name] or hasattr(obj, MARK)
    )
