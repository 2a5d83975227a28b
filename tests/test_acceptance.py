"""Shipping gate: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines. Thresholds and fixed seeds are frozen here on purpose; loosening
them is a release decision, not a refactor.
"""

import itertools
import math
import time
from datetime import datetime

import numpy as np

from gradcheck import grad_check
from parkrank import cli, esgraph, evaluate, ingest, model, train
from parkrank import tensor as T


def _verdict(flag: bool, text: str) -> None:
    print(f"[{'PASS' if flag else 'FAIL'}] {text}")
    assert flag, text


def matrix_of(states, start=datetime(2022, 8, 1)):
    states = np.asarray(states, dtype=bool)
    return ingest.OccupancyMatrix(
        states=states,
        interval_minutes=5,
        start_time=start,
        location_index={f"m{i:03d}": i for i in range(states.shape[0])},
    )


def grid_world(n, seed=0, intervals=1):
    locs = ingest.synth_locations(
        ingest.SynthConfig(num_locations=n, num_intervals=intervals,
                           rng_seed=seed)
    )
    return locs, ingest.build_adjacency(locs)


def test_criterion_1_contraction_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    for _ in range(1000):
        length = int(rng.integers(1, 501))
        seq = rng.random(length) < rng.uniform(0.2, 0.8)
        path = esgraph.contract_path(seq)
        groups = [(k, len(list(g))) for k, g in itertools.groupby(seq)]
        assert path.events == tuple(groups[:-1])
        assert (path.current_state, path.current_duration) == groups[-1]
        assert np.array_equal(path.expand(), seq)
    elapsed = time.perf_counter() - t0
    _verdict(
        elapsed < 5.0,
        f"criterion 1: contraction equals the run-length oracle and "
        f"round-trips on 1000 sequences in {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_complexity_bounds():
    alpha = 4
    constant = matrix_of(np.ones((10, 1000), dtype=bool))
    rep_const = esgraph.bench_complexity(constant, alpha)
    assert rep_const.esgraph_nodes == 10
    assert rep_const.esgraph_edges == 0

    cols = (np.arange(1000)[None, :] + np.arange(10)[:, None]) % 2
    alternating = matrix_of(cols.astype(bool))
    rep_alt = esgraph.bench_complexity(alternating, alpha)
    assert rep_alt.esgraph_nodes == 10_000

    rng = np.random.default_rng(1002)
    random_mat = matrix_of(rng.random((10, 1000)) < 0.5)
    rep_rand = esgraph.bench_complexity(random_mat, alpha)
    switches = (random_mat.states[:, 1:] != random_mat.states[:, :-1]).sum()
    independent_runs = int(switches) + 10
    assert rep_rand.esgraph_nodes == independent_runs
    assert rep_rand.esgraph_nodes <= rep_rand.stgraph_cells

    for rep in (rep_const, rep_alt, rep_rand):
        assert rep.task2_steps_es == alpha * 10
        assert rep.task2_steps_st >= rep.task2_steps_es
    _verdict(
        True,
        "criterion 2: event-graph node counts match the independent run "
        "counter with fixed-alpha reads against spanned raw cells",
    )


def test_criterion_3_gradient_correctness():
    locs, graph = grid_world(6)
    allowed = graph.allowed_mask()
    cfg = model.ModelConfig(
        alpha=3, beta=2, conv_channels=4, embed_dim=4, kernel_len=2,
        score_activation="relu",
    )
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        params = model.ModelParams(cfg, graph, rng)
        # nonzero event durations keep pre-activations off exact hinges
        signs = rng.choice([-1.0, 1.0], (2, 6, 3))
        windows = rng.integers(1, 7, (2, 6, 3)) * signs
        current = rng.integers(1, 5, (2, 6)).astype(np.float64)
        states = rng.random((2, 6)) < 0.5
        current = np.where(states, -current, current)
        labels = train.make_labels(
            graph,
            rng.random((2, 6)) < 0.5,
            rng.integers(1, 15, (2, 6)),
            0.5, 0.5, 12,
        )

        def build():
            scores = model.forward_scores(params, windows, current, states)
            return train.training_loss(
                labels, scores, params, 0.3, 1e-4, allowed
            )

        worst = max(
            worst, grad_check(build, params.tensors, kink_filter=True)
        )
    _verdict(
        worst < 1e-4,
        f"criterion 3: full-model analytic gradients match finite "
        f"differences, max relative error {worst:.2e} (< 1e-4) on 5 seeds",
    )


def test_criterion_4_gcn_oracle_and_equivariance():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 21))
        locs = [
            ingest.MeterLocation(
                f"v{i:02d}",
                22.28 + float(rng.uniform(0, 0.0015)),
                114.16 + float(rng.uniform(0, 0.0015)),
            )
            for i in range(n)
        ]
        graph = ingest.build_adjacency(locs, float(rng.uniform(30, 90)))
        norm = model.normalized_adjacency(graph)
        z = rng.standard_normal((n, 5))
        mix = rng.standard_normal((5, 3))

        adj = graph.adjacency_matrix() + np.eye(n)
        inv_sqrt = 1.0 / np.sqrt(adj.sum(axis=1))
        oracle = np.zeros((n, 5))
        for i in range(n):
            for j in range(n):
                oracle[i] += inv_sqrt[i] * adj[i, j] * inv_sqrt[j] * z[j]
        oracle = oracle @ mix

        got = T.matmul(T.neighbor_mix(norm, T.Tensor(z)), T.Tensor(mix)).data
        worst = max(worst, float(np.abs(got - oracle).max()))
    assert worst < 1e-10

    locs, graph = grid_world(7)
    cfg = model.ModelConfig(
        alpha=3, beta=2, conv_channels=4, embed_dim=4, kernel_len=2,
        score_activation="relu",
    )
    rng = np.random.default_rng(1044)
    params = model.ModelParams(cfg, graph, rng)
    signs = rng.choice([-1.0, 1.0], (1, 7, 3))
    windows = rng.integers(1, 7, (1, 7, 3)) * signs
    current = rng.integers(1, 5, (1, 7)).astype(np.float64)
    states = rng.random((1, 7)) < 0.5
    current = np.where(states, -current, current)
    scores = model.forward_scores(params, windows, current, states).data[0]

    for _ in range(20):
        perm = rng.permutation(7)
        locs_p = [locs[v] for v in perm]
        graph_p = ingest.build_adjacency(locs_p)
        params_p = model.ModelParams(cfg, graph_p, np.random.default_rng(0))
        for name, t in params.named.items():
            if name == "mask.weights":
                params_p.get(name).data = t.data[perm][:, perm].copy()
            else:
                params_p.get(name).data = t.data.copy()
        scores_p = model.forward_scores(
            params_p, windows[:, perm], current[:, perm], states[:, perm]
        ).data[0]
        assert np.allclose(
            scores_p, scores[perm][:, perm], rtol=0.0, atol=1e-10
        )
    _verdict(
        True,
        f"criterion 4: neighbor mixing matches the dense normalized "
        f"adjacency oracle (max |diff| {worst:.1e} < 1e-10) and scoring "
        f"is permutation-equivariant on 20 relabelings",
    )


def _dcg_reference(gains):
    return sum(g / math.log2(i + 1) for i, g in enumerate(gains, start=1))


def _ap_reference(flags, n):
    hits, total = 0, 0.0
    for i, flag in enumerate(flags[:n], start=1):
        if flag:
            hits += 1
            total += hits / i
    denom = min(sum(flags), n)
    return total / denom if denom else 0.0


def _waiting_time(matrix, vertex, t, max_wait=evaluate.DEFAULT_MAX_WAIT):
    """Intervals from t until vertex is first vacant, capped at max_wait."""
    vacant = np.flatnonzero(~matrix.states[vertex, t:])
    return min(int(vacant[0]), max_wait) if vacant.size else max_wait


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng(1005)
    for _ in range(1000):
        size = int(rng.integers(2, 12))
        labels = rng.random(size) * (rng.random(size) < 0.6)
        ranking = rng.permutation(size)
        n = int(rng.integers(1, size + 1))
        gains = labels[ranking[:n]]
        ideal = np.sort(labels)[::-1][:n]
        idcg = _dcg_reference(ideal)
        ndcg_ref = 1.0 if idcg == 0 else _dcg_reference(gains) / idcg
        assert abs(evaluate.ndcg_at(ranking, labels, n) - ndcg_ref) < 1e-12
        flags = [bool(labels[i] > 0) for i in ranking]
        assert abs(evaluate.map_at(ranking, labels, n) - _ap_reference(flags, n)) < 1e-12

    # an oracle ranking (true waits ascending) is scored perfect
    states = rng.random((8, 80)) < 0.55
    states[0, :] = False  # one always-vacant spot keeps every query rankable
    mat = matrix_of(states)
    results = []
    for t in range(0, 60, 3):
        waits = np.array(
            [_waiting_time(mat, v, t) for v in range(8)], dtype=float
        )
        labels = np.maximum(0.0, 1.0 - waits / 3.0)
        ranking = np.lexsort((np.arange(8), -labels))
        results.append(
            evaluate.make_result(0, t, t, ranking, labels, tuple(range(8)))
        )
    report = evaluate.summarize(results, mat, "oracle")
    assert report.ndcg[1] == (1.0, 0.0)
    assert report.ndcg[5] == (1.0, 0.0)
    assert report.mean_ap[1][0] == 1.0 and report.mean_ap[5][0] == 1.0
    for n in evaluate.WAIT_NS:
        assert report.rnwtr[n] == 1.0

    # rankings ignore any strictly increasing rescoring
    for _ in range(50):
        scores = rng.standard_normal(9)
        hops = rng.integers(0, 4, 9)
        base = model.rank_candidates(scores, hops)
        for transform in (lambda x: 3.0 * x + 2.0, np.tanh):
            assert np.array_equal(
                base, model.rank_candidates(transform(scores), hops)
            )
    _verdict(
        True,
        "criterion 5: rank metrics match brute-force references to 1e-12, "
        "oracle rankings score 1.0, and monotone rescoring changes nothing",
    )


def test_criterion_6_loss_sanity():
    rng = np.random.default_rng(1006)
    y = rng.random((3, 5, 5))
    zero = train.training_loss(y, y.copy()).item()
    assert zero == 0.0
    closed = train.listwise_nll([1.0, 0.0], [10.0, -10.0]).item()
    expected = math.log1p(math.exp(-20.0))
    assert abs(closed - expected) < 1e-12
    _verdict(
        True,
        "criterion 6: perfect scores cost exactly zero and the listwise "
        "closed form matches log(1+e^-20) within 1e-12",
    )


def test_criterion_7_overfit():
    cfg_s = ingest.SynthConfig(num_locations=6, num_intervals=28, rng_seed=21)
    locations, matrix = ingest.synth_generate(cfg_s)
    graph = ingest.build_adjacency(locations)
    cfg = train.TrainConfig(
        alpha=4, beta=2, conv_channels=8, embed_dim=16, kernel_len=2,
        score_activation="softmax", horizon_intervals=2, batch_size=20,
        iterations=2000, eval_every=500, learning_rate=0.01,
        softmax_weight=0.5, l2_coeff=0.0, select_best_val=False, rng_seed=0,
    )
    t0 = time.perf_counter()
    dataset = train.build_dataset(matrix, cfg)
    assert len(dataset.train_idx) == 20
    result = train.train_loop(matrix, graph, cfg, dataset=dataset)
    ndcg = train.split_ndcg(
        result.params, dataset, graph, dataset.train_idx, cfg
    )
    elapsed = time.perf_counter() - t0
    _verdict(
        ndcg >= 0.95 and elapsed < 120.0,
        f"criterion 7: 20-sample overfit reaches training NDCG@1 "
        f"{ndcg:.4f} (>= 0.95) within 2000 steps in {elapsed:.1f}s (< 2min)",
    )


def test_criterion_8_beats_persistence():
    t0 = time.perf_counter()
    cfg_s = ingest.SynthConfig(
        num_locations=30, num_intervals=5000, spatial_correlation=0.5,
        rng_seed=8,
    )
    locations, matrix = ingest.synth_generate(cfg_s)
    graph = ingest.build_adjacency(locations)
    cfg = train.TrainConfig(
        alpha=2, beta=3, kernel_len=2, horizon_intervals=4,
        batch_size=128, iterations=2000, eval_every=100,
        softmax_weight=0.1, rng_seed=0,
    )
    result = train.train_loop(matrix, graph, cfg)
    dataset = result.dataset

    model_res = train.split_results(
        result.params, dataset, graph, dataset.test_idx, cfg
    )
    report_model = evaluate.summarize(model_res, matrix, "model")
    pers_res = train.baseline_split_results(
        "persistence", matrix, dataset, graph, dataset.test_idx, cfg
    )
    report_pers = evaluate.summarize(pers_res, matrix, "persistence")
    elapsed = time.perf_counter() - t0

    gap = report_model.ndcg[1][0] - report_pers.ndcg[1][0]
    rnwtr_ok = report_model.rnwtr[5] >= report_pers.rnwtr[5]
    _verdict(
        gap >= 0.05 and rnwtr_ok and elapsed < 600.0,
        f"criterion 8: test NDCG@1 {report_model.ndcg[1][0]:.4f} beats "
        f"persistence {report_pers.ndcg[1][0]:.4f} by {gap:.4f} (>= 0.05) "
        f"and RNWTR@5 {report_model.rnwtr[5]:.3f} >= "
        f"{report_pers.rnwtr[5]:.3f}, in {elapsed:.0f}s (< 10min)",
    )


def test_criterion_9_determinism(tmp_path):
    data = tmp_path / "data"
    assert cli.main([
        "synth", "--out", str(data), "--locations", "9",
        "--intervals", "150", "--seed", "4",
    ]) == 0
    flags = [
        "--alpha", "3", "--beta", "1", "--conv-channels", "3",
        "--embed-dim", "4", "--kernel-len", "2", "--horizon-intervals", "2",
        "--batch-size", "8", "--iterations", "6", "--eval-every", "3",
        "--seed", "1",
    ]
    for name in ("run_a", "run_b"):
        assert cli.main([
            "train", "--data", str(data), "--out", str(tmp_path / name),
            *flags,
        ]) == 0
    ck_a = (tmp_path / "run_a" / "checkpoint.bin").read_bytes()
    ck_b = (tmp_path / "run_b" / "checkpoint.bin").read_bytes()
    assert ck_a == ck_b
    log_a = (tmp_path / "run_a" / "train_log.csv").read_bytes()
    assert log_a == (tmp_path / "run_b" / "train_log.csv").read_bytes()

    for name in ("m_a", "m_b"):
        assert cli.main([
            "eval", "--data", str(data),
            "--checkpoint", str(tmp_path / "run_a" / "checkpoint.bin"),
            "--out", str(tmp_path / name),
        ]) == 0
    for out in ("metrics.json", "metrics.csv", "plot_data.csv"):
        assert (tmp_path / "m_a" / out).read_bytes() == (
            tmp_path / "m_b" / out
        ).read_bytes()
    _verdict(
        True,
        "criterion 9: repeated train and eval runs produce byte-identical "
        "checkpoints, logs, and metric reports",
    )


def test_criterion_10_label_ordering():
    rng = np.random.default_rng(1010)
    cap = 12
    violations = 0
    checked = 0
    for _ in range(500):
        n = int(rng.integers(4, 10))
        _, graph = grid_world(n)
        hops = graph.all_hop_distances()
        allowed = graph.allowed_mask()
        vacant = rng.random(n) < 0.6
        remaining = rng.integers(1, 21, n)
        y = train.make_labels(graph, vacant, remaining, 0.5, 0.5, cap)
        capped = np.minimum(remaining, cap)
        for q in range(n):
            cands = np.flatnonzero(allowed[q])
            for a in cands:
                for b in cands:
                    if a == b:
                        continue
                    if vacant[a] and not vacant[b]:
                        checked += 1
                        violations += not (y[q, a] > y[q, b])
                    elif vacant[a] and vacant[b]:
                        if (
                            capped[a] == capped[b]
                            and hops[q, a] < hops[q, b]
                        ):
                            checked += 1
                            violations += not (y[q, a] > y[q, b])
                        elif (
                            hops[q, a] == hops[q, b]
                            and capped[a] > capped[b]
                        ):
                            checked += 1
                            violations += not (y[q, a] > y[q, b])
    _verdict(
        violations == 0 and checked > 5000,
        f"criterion 10: label ordering holds on 500 instances "
        f"({checked} ordered pairs, {violations} violations)",
    )
