"""Metric tests against independently coded textbook references."""

import csv
import dataclasses
import math
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import baseline_oracle
import dense_oracle
from parkrank import evaluate, ingest, model
from parkrank.errors import ConfigError, DataError


def _dcg_reference(gains):
    """Textbook DCG: sum gain_i / log2(i + 1) with ranks starting at 1."""
    return sum(g / math.log2(i + 1) for i, g in enumerate(gains, start=1))


def _ap_reference(flags, n):
    """Average precision at n over binary relevance flags in rank order."""
    hits, total = 0, 0.0
    for i, flag in enumerate(flags[:n], start=1):
        if flag:
            hits += 1
            total += hits / i
    denom = min(sum(flags), n)
    return total / denom if denom else 0.0


def matrix_of(states):
    states = np.asarray(states, dtype=bool)
    return ingest.OccupancyMatrix(
        states=states,
        interval_minutes=5,
        start_time=ingest.SYNTH_START,
        location_index={f"m{i:03d}": i for i in range(states.shape[0])},
    )


def waiting_time(matrix, vertex, arrival_time, max_wait=evaluate.DEFAULT_MAX_WAIT):
    """Intervals spent waiting at vertex from arrival_time until vacant.

    0 when already vacant; capped at max_wait, which is also the value
    when the vertex never becomes vacant in range.
    """
    vacant = np.flatnonzero(~matrix.states[vertex, arrival_time:])
    return min(int(vacant[0]), max_wait) if vacant.size else max_wait


def table_wait(matrix, vertex, t, max_wait=evaluate.DEFAULT_MAX_WAIT):
    """The wait the metrics read: AWTP@1 with vertex as the only candidate."""
    n = matrix.num_locations
    res = evaluate.make_result(vertex, t, t, range(n), np.zeros(n), [vertex])
    return evaluate.awtp_rnwtr([res], matrix, 1, max_wait)[0]


class TestNdcg:
    def test_reversed_pair_at_1_is_zero(self):
        assert evaluate.ndcg_at([1, 0], [1.0, 0.0], 1) == 0.0

    def test_reversed_pair_at_2(self):
        # relevant item at rank 2: DCG = 1/log2(3), IDCG = 1
        expected = 1.0 / math.log2(3.0)
        got = evaluate.ndcg_at([1, 0], [1.0, 0.0], 2)
        assert abs(got - expected) < 1e-12

    def test_perfect_ranking_is_one(self):
        labels = [0.3, 0.9, 0.0, 0.5]
        ranking = [1, 3, 0, 2]
        assert evaluate.ndcg_at(ranking, labels, 4) == pytest.approx(1.0)

    def test_all_zero_labels_score_one(self):
        assert evaluate.ndcg_at([0, 1, 2], [0.0, 0.0, 0.0], 2) == 1.0

    def test_matches_reference_on_random_rows(self):
        rng = np.random.default_rng(0)
        rows = [
            (rng.permutation(8), rng.random(8) * (rng.random(8) < 0.6))
            for _ in range(50)
        ]
        for ranking, labels in rows:
            for n in (1, 3, 8):
                gains = labels[ranking[:n]]
                ideal = np.sort(labels)[::-1][:n]
                idcg = _dcg_reference(ideal)
                expected = (
                    1.0 if idcg == 0 else _dcg_reference(gains) / idcg
                )
                got = evaluate.ndcg_at(ranking, labels, n)
                assert abs(got - expected) < 1e-12
        # the same rows as one [Q, n] batch give the 1-D values exactly
        rankings, labels = (np.stack(col) for col in zip(*rows))
        for n in (1, 3, 5, 8, 12):
            batch = evaluate.ndcg_at(rankings, labels, n)
            assert batch.shape == (50,)
            for q in range(50):
                assert batch[q] == evaluate.ndcg_at(rankings[q], labels[q], n)

    def test_rank_invariance_under_monotone_scores(self):
        rng = np.random.default_rng(1)
        scores = rng.random(10)
        hops = rng.integers(0, 4, 10)
        # a [batch, query, candidate] block with many score ties, ranked
        # against one [query, candidate] hop table
        batch = rng.integers(0, 3, (4, 10, 10)) / 2.0
        table = rng.integers(0, 4, (10, 10))
        for s, h, rank in ((scores, hops, model.rank_candidates),
                           (batch, table, dense_oracle.rank_rows)):
            base = rank(s, h)
            shifted = rank(3.0 * s + 7.0, h)
            assert np.array_equal(base, shifted)
        for b in range(4):
            for q in range(10):
                row = batch[b, q]
                expected = sorted(
                    range(10), key=lambda i: (-row[i], table[q, i], i)
                )
                assert base[b, q].tolist() == expected
                assert np.array_equal(
                    base[b, q], model.rank_candidates(row, table[q])
                )


class TestMap:
    def test_single_relevant_at_rank_two(self):
        # AP@5 with one relevant item placed second: (1/2) / 1
        labels = [0.0, 0.7, 0.0, 0.0, 0.0]
        ranking = [4, 1, 0, 2, 3]
        assert evaluate.map_at(ranking, labels, 5) == pytest.approx(0.5)

    def test_no_relevant_scores_zero(self):
        assert evaluate.map_at([0, 1], [0.0, 0.0], 2) == 0.0

    def test_matches_reference_on_random_rows(self):
        rng = np.random.default_rng(2)
        rows = []
        for _ in range(50):
            labels = rng.random(9) * (rng.random(9) < 0.5)
            ranking = rng.permutation(9)
            rows.append((ranking, labels))
            for n in (1, 4, 9):
                flags = [bool(labels[i] > 0) for i in ranking]
                expected = _ap_reference(flags, n)
                assert abs(evaluate.map_at(ranking, labels, n) - expected) < 1e-12
        # the same rows as one [Q, n] batch give the 1-D values exactly
        rankings, labels = (np.stack(col) for col in zip(*rows))
        for n in (1, 4, 5, 9, 12):
            batch = evaluate.map_at(rankings, labels, n)
            assert batch.shape == (50,)
            for q in range(50):
                assert batch[q] == evaluate.map_at(rankings[q], labels[q], n)

    def test_denominator_capped_by_n(self):
        # three relevant items but n=1: a hit at rank 1 gives full credit
        labels = [1.0, 1.0, 1.0, 0.0]
        assert evaluate.map_at([0, 1, 2, 3], labels, 1) == 1.0


class TestWaitingTime:
    """The oracle above, and the wait table the metrics read, agree."""

    def test_worked_example(self):
        mat = matrix_of([[1, 1, 0, 0]])
        assert waiting_time(mat, 0, 0) == 2
        assert table_wait(mat, 0, 0) == 2

    def test_already_vacant(self):
        mat = matrix_of([[0, 1]])
        assert waiting_time(mat, 0, 0) == 0
        assert table_wait(mat, 0, 0) == 0

    def test_never_vacant_capped(self):
        mat = matrix_of([np.ones(40, dtype=bool)])
        assert waiting_time(mat, 0, 0) == 24
        assert waiting_time(mat, 0, 0, max_wait=7) == 7
        assert table_wait(mat, 0, 0) == 24
        assert table_wait(mat, 0, 0, max_wait=7) == 7

    def test_long_wait_capped_too(self):
        states = np.ones((1, 40), dtype=bool)
        states[0, 30] = False
        mat = matrix_of(states)
        assert waiting_time(mat, 0, 0) == 24
        assert table_wait(mat, 0, 0) == 24


def result_of(query, t, horizon_t, ranking, labels, hood):
    return evaluate.make_result(query, t, horizon_t, ranking, labels, hood)


class TestAwtpRnwtr:
    def test_min_over_list_example(self):
        # top-1 waits 2, top-2 waits 0: n=2 achieves 0
        states = np.array([[1, 1, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1]], dtype=bool)
        mat = matrix_of(states)
        res = result_of(0, 0, 0, [0, 1, 2], [0.5, 1.0, 0.0], (0, 1, 2))
        awtp1, _, _ = evaluate.awtp_rnwtr([res], mat, 1)
        awtp2, iawtp, rnwtr2 = evaluate.awtp_rnwtr([res], mat, 2)
        assert awtp1 == 2.0
        assert awtp2 == 0.0
        assert iawtp == 0.0
        assert rnwtr2 == 1.0

    def test_ratio_of_ideal_to_achieved(self):
        states = np.array([[1, 1, 0, 0], [0, 1, 1, 1]], dtype=bool)
        mat = matrix_of(states)
        # ranking puts the waiting spot first; oracle would pick vertex 1
        res = result_of(0, 0, 0, [0, 1], [1.0, 0.5], (0, 1))
        awtp, iawtp, rnwtr = evaluate.awtp_rnwtr([res], mat, 1)
        assert awtp == 2.0
        assert iawtp == 0.0
        assert rnwtr == 0.0

    def test_candidates_outside_neighborhood_ignored(self):
        states = np.array([[1, 1, 1, 1], [0, 0, 0, 0], [1, 0, 0, 0]], dtype=bool)
        mat = matrix_of(states)
        # vertex 1 is vacant but not in the neighborhood; best inside is 2
        res = result_of(0, 0, 0, [1, 2, 0], [0.0, 0.5, 0.0], (0, 2))
        awtp, iawtp, _ = evaluate.awtp_rnwtr([res], mat, 1)
        assert awtp == 1.0
        assert iawtp == 1.0
        empty = result_of(0, 0, 0, [1, 2, 0], [0.0, 0.0, 0.0], ())
        with pytest.raises(DataError, match="neighborhood"):
            evaluate.awtp_rnwtr([res, empty], mat, 1)

    @pytest.mark.parametrize("horizon", [-1, 4])
    def test_horizon_outside_matrix_rejected(self, horizon):
        # a negative horizon once read the matrix from its end, and one
        # past it raised a bare IndexError
        mat = matrix_of(np.zeros((2, 4), dtype=bool))
        res = result_of(0, 0, 0, [0, 1], [1.0, 0.5], (0, 1))
        bad = result_of(1, 0, horizon, [1, 0], [1.0, 0.5], (0, 1))
        message = rf"^horizon must lie in \[0, 4\), got {horizon}$"
        with pytest.raises(DataError, match=message):
            evaluate.awtp_rnwtr([res, bad], mat, 1)
        with pytest.raises(DataError, match=message):
            evaluate.summarize([res, bad], mat, "m")

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_property_ideal_bounds_achieved(self, seed):
        rng = np.random.default_rng(seed)
        states = rng.random((6, 30)) < 0.6
        mat = matrix_of(states)
        results, rows = [], []
        for q in range(6):
            hood = tuple(sorted(set([q]) | set(
                int(v) for v in rng.choice(6, size=2)
            )))
            ranking = rng.permutation(6)
            labels = np.zeros(6)
            for v in hood:
                labels[v] = rng.random()
            results.append(result_of(q, 3, 7, ranking, labels, hood))
            rows.append(([v for v in ranking if v in hood], hood))
        for n in (1, 3, 5):
            awtp, iawtp, rnwtr = evaluate.awtp_rnwtr(results, mat, n)
            assert iawtp <= awtp + 1e-12
            assert 0.0 <= rnwtr <= 1.0 + 1e-12
            # the per-query loop the wait table replaces, on the oracle
            top = [min(waiting_time(mat, v, 7) for v in r[:n]) for r, _ in rows]
            best = [min(waiting_time(mat, v, 7) for v in h) for _, h in rows]
            assert (awtp, iawtp) == (sum(top) / 6, sum(best) / 6)
        # larger lists never hurt
        a1 = evaluate.awtp_rnwtr(results, mat, 1)[0]
        a5 = evaluate.awtp_rnwtr(results, mat, 5)[0]
        assert a5 <= a1 + 1e-12


def baseline_pack(mat, graph, t, predictor, train_end=None):
    """The pack of a baseline's rankings at int t or 1-D times, labels 0."""
    ranked = evaluate.baseline_predict_then_recommend(
        mat, graph, t, predictor, train_end
    )
    times = np.atleast_1d(t)
    labels = np.zeros((len(times), len(graph.allowed_pairs()[0])))
    return evaluate.pack_pairs(graph, ranked, labels, times, times)


def dense_pack(graph, times, rankings, labels=None):
    """The pack of [S, n, n] whole-row rankings of every query of
    S snapshots, with [S, n, n] labels (0 by default)."""
    n = graph.num_vertices
    if labels is None:
        labels = np.zeros(rankings.shape)
    times = np.repeat(times, n)
    return evaluate._concat([evaluate.QueryResults(
        query_vertex=np.tile(np.arange(n), len(rankings)),
        query_time=times,
        horizon_time=times,
        ranking=rankings.reshape(-1, n),
        labels=labels.reshape(-1, n),
        neighborhood=np.tile(graph.allowed_mask(), (len(rankings), 1)),
    )])


class TestBaselines:
    def test_persistence_prefers_vacant_now(self):
        states = np.array(
            [[1, 1], [0, 0], [0, 1], [1, 0]], dtype=bool
        )
        mat = matrix_of(states)
        locs = ingest.synth_locations(
            ingest.SynthConfig(num_locations=4, num_intervals=1)
        )
        graph = ingest.build_adjacency(locs)  # a square: 0-1, 0-2, 1-3, 2-3
        pack = baseline_pack(mat, graph, 0, "persistence")
        # vacant at t=0: vertices 1, 2; occupied: 0, 3. Query 0's whole
        # ranking starts 1, 2, then 0 and 3 tie and 0 is nearer
        assert pack.vertex[0].tolist() == [1, 2, 0]
        assert pack.position[0].tolist() == [0, 1, 2]

    def test_persistence_ties_break_by_hop(self):
        states = np.zeros((4, 2), dtype=bool)  # everyone vacant
        mat = matrix_of(states)
        locs = [
            ingest.MeterLocation(f"m{i}", 22.28, 114.16 + i * 0.0003)
            for i in range(4)
        ]
        graph = ingest.build_adjacency(locs, 35.0)  # chain
        pack = baseline_pack(mat, graph, 0, "persistence")
        # query 2's whole ranking is 2, 1, 3, 0; 0 lies outside its
        # neighborhood, so the pack ends in padding at position 4
        assert pack.vertex[2].tolist() == [2, 1, 3]
        assert pack.position[2].tolist() == [0, 1, 2]
        assert pack.vertex[0].tolist() == [0, 1, -1]
        assert pack.position[0].tolist() == [0, 1, 4]

    def test_historical_mean_uses_training_range_only(self):
        # location 0 vacant every morning in training, occupied later;
        # location 1 the reverse
        day = 288
        states = np.zeros((2, 3 * day), dtype=bool)
        states[0, 2 * day :] = True  # test-range flip must not leak
        states[1, : 2 * day] = True
        mat = matrix_of(states)
        scores = evaluate.historical_mean_scores(mat, 2 * day + 5, 2 * day)
        assert scores[0] == 1.0
        assert scores[1] == 0.0

    def test_historical_mean_buckets_by_wall_clock(self):
        # each bucket is minute of the day // interval; 7 minutes do not
        # divide a day, so counting intervals from the start drifts off
        # the clock by 2 minutes a day
        start, step, train_end = datetime(2022, 8, 1, 23, 55), 7, 9 * 206
        states = np.random.default_rng(7).random((3, 10 * 206)) < 0.5
        mat = ingest.OccupancyMatrix(
            states=states,
            interval_minutes=step,
            start_time=start,
            location_index={f"m{i}": i for i in range(3)},
        )

        def bucket(t):
            when = start + timedelta(minutes=step * t)
            return (when.hour * 60 + when.minute) // step

        in_training = [bucket(t) for t in range(train_end)]
        for t in (train_end + 3, train_end + 150, 40):
            same = [b == bucket(t) for b in in_training]
            want = (~states[:, :train_end][:, same]).mean(axis=1)
            got = evaluate.historical_mean_scores(mat, t, train_end)
            assert got.tobytes() == want.tobytes()

    def test_unknown_predictor_rejected(self):
        mat = matrix_of(np.zeros((2, 10), dtype=bool))
        locs = ingest.synth_locations(
            ingest.SynthConfig(num_locations=2, num_intervals=1)
        )
        graph = ingest.build_adjacency(locs)
        with pytest.raises(ConfigError, match="unknown predictor"):
            evaluate.baseline_predict_then_recommend(mat, graph, 0, "magic", 10)


# few distinct values, so rows tie often, -0.0 against +0.0, and NaN
TIED_SCORES = st.sampled_from(
    [-1.5, -0.0, 0.0, 0.25, 1.0, np.inf, -np.inf, np.nan]
)


class TestSharedScoreRanking:
    """dense_oracle.rank_by_vertex_score, the whole-row oracle of the
    baselines' rankings, against dense_oracle.rank_rows over the score row
    broadcast to every query, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_broadcast_rank_candidates(self, data):
        n = data.draw(st.integers(1, 10), label="n")
        snapshots = data.draw(st.integers(1, 4), label="snapshots")
        scores = data.draw(
            hnp.arrays(
                np.float64,
                (snapshots, n),
                elements=st.one_of(TIED_SCORES, st.floats()),
            ),
            label="scores",
        )
        # n + 1 is the unreachable hop
        hops = data.draw(
            hnp.arrays(np.int64, (n, n), elements=st.integers(0, n + 1)),
            label="hops",
        )
        rows = np.broadcast_to(scores[:, np.newaxis, :], (snapshots, n, n))
        want = dense_oracle.rank_rows(rows, hops)
        got = dense_oracle.rank_by_vertex_score(scores, hops)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        # one score row, as an int t gives, ranks to [n, n]
        got = dense_oracle.rank_by_vertex_score(scores[0], hops)
        assert got.shape == (n, n)
        assert got.tobytes() == want[0].tobytes()


@st.composite
def hood_graphs(draw):
    """A graph on up to 16 vertices whose neighborhoods hold up to 13
    candidates: random edges, optionally a hub on vertex 0, no vertex of
    more than 12 neighbors."""
    n = draw(st.integers(1, 16), label="n")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), max_size=40)) if pairs else []
    if n > 1 and draw(st.booleans(), label="hub"):
        chosen = [(0, j) for j in range(1, n)] + chosen
    edges, degree = set(), np.zeros(n, dtype=int)
    for i, j in chosen:
        if (i, j) not in edges and max(degree[i], degree[j]) < 12:
            edges.add((i, j))
            degree[[i, j]] += 1
    vertices = tuple(ingest.MeterLocation(f"m{i}", 0.0, 0.0) for i in range(n))
    return ingest.SpatialGraph(vertices, frozenset(edges))


class TestEdgeListPack:
    """rank_pair_scores and rank_vertex_scores packed by pack_pairs against
    the dense oracle, dense_oracle.rank_rows of whole rows packed by
    evaluate._concat, byte for byte, on scores with ties, -0.0 against
    +0.0, negatives, infinities and NaN."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_both_scorers_match_dense_rows(self, data):
        graph = data.draw(hood_graphs(), label="graph")
        n = graph.num_vertices
        src, dst = graph.allowed_pairs()
        snapshots = data.draw(st.integers(1, 3), label="snapshots")
        scores = st.one_of(TIED_SCORES, st.floats())
        labels = data.draw(hnp.arrays(
            np.float64, (snapshots, len(src)),
            elements=st.sampled_from([0.0, 0.25, 1.0]),
        ), label="labels")
        times = np.arange(snapshots) * 3 + 1
        dense_labels = np.zeros((snapshots, n, n))
        dense_labels[:, src, dst] = labels
        hops = graph.all_hop_distances()

        pair = data.draw(hnp.arrays(
            np.float64, (snapshots, len(src)), elements=scores
        ), label="pair scores")
        rows = np.zeros((snapshots, n, n))
        rows[:, src, dst] = pair
        got = evaluate.pack_pairs(
            graph, evaluate.rank_pair_scores(graph, pair), labels, times,
            times,
        )
        want = dense_pack(
            graph, times, dense_oracle.rank_rows(rows, hops), dense_labels
        )
        dense_oracle.assert_same_pack(got, want)
        assert got.vertex.shape[1] == max(1, np.bincount(src).max())

        vertex = data.draw(hnp.arrays(
            np.float64, (snapshots, n), elements=scores
        ), label="vertex scores")
        got = evaluate.pack_pairs(
            graph, evaluate.rank_vertex_scores(graph, vertex), labels, times,
            times,
        )
        want = dense_pack(
            graph, times, dense_oracle.rank_by_vertex_score(vertex, hops),
            dense_labels,
        )
        dense_oracle.assert_same_pack(got, want)


def synth_graph(num_locations):
    locs = ingest.synth_locations(
        ingest.SynthConfig(num_locations=num_locations, num_intervals=1)
    )
    return ingest.build_adjacency(locs)


class TestBatchedBaselines:
    """A whole split scored and ranked per call, against one call per time."""

    @pytest.mark.parametrize(
        "interval, start, num_intervals, train_end",
        [
            (5, ingest.SYNTH_START, 3 * 288 + 40, 2 * 288 + 7),
            (15, datetime(2022, 8, 3, 13, 35), 300, 200),
            (5, datetime(2022, 8, 6, 21, 40), 150, 100),  # under one day
            # 7 minutes do not divide a day: 206 intervals span 1442 minutes
            (7, datetime(2022, 8, 3, 23, 51), 6 * 206 + 30, 5 * 206),
        ],
        ids=["5min-multiday", "15min-afternoon", "short-train-range",
             "7min-multiday"],
    )
    @pytest.mark.parametrize("predictor", evaluate.BASELINE_NAMES)
    def test_bits_match_per_snapshot_loop(
        self, predictor, interval, start, num_intervals, train_end
    ):
        rng = np.random.default_rng(interval + num_intervals)
        mat = ingest.OccupancyMatrix(
            states=rng.random((9, num_intervals)) < 0.4,
            interval_minutes=interval,
            start_time=start,
            location_index={f"m{i:03d}": i for i in range(9)},
        )
        graph = synth_graph(9)
        times = np.arange(num_intervals)  # more than two ranking blocks
        scores = evaluate._PREDICTORS[predictor](mat, times, train_end)
        want = np.stack(
            [
                baseline_oracle.PREDICTORS[predictor](mat, int(t), train_end)
                for t in times
            ]
        )
        assert scores.tobytes() == want.tobytes()
        got = baseline_pack(mat, graph, times, predictor, train_end)
        rankings = np.stack(
            [
                baseline_oracle.predict_then_recommend(
                    mat, graph, int(t), predictor, train_end
                )
                for t in times
            ]
        )
        dense_oracle.assert_same_pack(got, dense_pack(graph, times, rankings))

    @pytest.mark.parametrize("predictor", evaluate.BASELINE_NAMES)
    def test_scalar_and_array_shapes(self, predictor):
        mat = matrix_of(np.random.default_rng(0).random((4, 30)) < 0.5)
        graph = synth_graph(4)
        score = evaluate._PREDICTORS[predictor]
        width = graph.pair_slots()[1]
        want = dense_pack(graph, [3], baseline_oracle.predict_then_recommend(
            mat, graph, 3, predictor, 20
        )[np.newaxis])
        for t in (3, np.int64(3)):
            assert score(mat, t, 20).shape == (4,)
            ranked = evaluate.baseline_predict_then_recommend(
                mat, graph, t, predictor, 20
            )
            assert [a.shape for a in ranked] == [(4, width), (4, width)]
            got = baseline_pack(mat, graph, t, predictor, 20)
            dense_oracle.assert_same_pack(got, want)
        times = np.array([3, 29, 0])
        assert score(mat, times, 20).shape == (3, 4)
        ranked = evaluate.baseline_predict_then_recommend(
            mat, graph, times, predictor, 20
        )
        assert [a.shape for a in ranked] == [(12, width), (12, width)]
        for s, t in enumerate(times):
            one = evaluate.baseline_predict_then_recommend(
                mat, graph, int(t), predictor, 20
            )
            for a, b in zip(ranked, one):
                assert np.array_equal(a[s * 4 : (s + 1) * 4], b)

    @pytest.mark.parametrize("predictor", evaluate.BASELINE_NAMES)
    @pytest.mark.parametrize("t", [-1, 30, np.array([0, 30]), np.array([-2, 4])])
    def test_time_outside_matrix_rejected(self, predictor, t):
        mat = matrix_of(np.zeros((2, 30), dtype=bool))
        graph = synth_graph(2)
        times = np.atleast_1d(t)
        first = times[(times < 0) | (times >= 30)][0]
        with pytest.raises(
            DataError, match=rf"^time must lie in \[0, 30\), got {first}$"
        ):
            evaluate._PREDICTORS[predictor](mat, t, 20)
        with pytest.raises(DataError, match=r"\[0, 30\)"):
            evaluate.baseline_predict_then_recommend(
                mat, graph, t, predictor, 20
            )

    @pytest.mark.parametrize("train_end", [0, -3, 31])
    def test_train_end_outside_matrix_rejected(self, train_end):
        mat = matrix_of(np.zeros((2, 30), dtype=bool))
        with pytest.raises(DataError, match=r"train_end must lie in \[1, 30\]"):
            evaluate.historical_mean_scores(mat, 5, train_end)

    def test_train_end_may_cover_the_matrix(self):
        mat = matrix_of(np.zeros((2, 30), dtype=bool))  # always vacant
        assert evaluate.historical_mean_scores(mat, 29, 30).tolist() == [1.0, 1.0]


class TestCalendarScenarios:
    def masks(self, times):
        mat = matrix_of(np.zeros((1, 10), dtype=bool))  # starts Monday 00:00
        return evaluate.scenario_masks(mat, np.array(times))

    def test_daytime_boundary(self):
        # 06:55 is nighttime, 07:00 flips to daytime; 18:55 is daytime,
        # 19:00 is nighttime
        masks = self.masks([83, 84, 227, 228])
        assert masks["nighttime"].tolist() == [True, False, False, True]
        assert masks["daytime"].tolist() == [False, True, True, False]

    def test_weekday_weekend(self):
        # Monday 00:00, Saturday 00:00, Sunday 23:55, next Monday 00:00
        masks = self.masks([0, 5 * 288, 7 * 288 - 1, 7 * 288])
        assert masks["workday"].tolist() == [True, False, False, True]
        assert masks["weekend"].tolist() == [False, True, True, False]

    def test_empty_slice_flagged_not_error(self):
        states = np.zeros((2, 300), dtype=bool)
        mat = matrix_of(states)
        res = result_of(0, 10, 14, [0, 1], [1.0, 0.0], (0, 1))
        reports = evaluate.slice_scenarios([res], mat, "model")
        assert reports["weekend"].num_queries == 0
        assert reports["workday"].num_queries == 1
        assert reports["all"].num_queries == 1


class TestSummarize:
    def test_report_fields_and_json(self):
        states = np.array([[0, 0, 1, 1], [1, 0, 0, 0]], dtype=bool)
        mat = matrix_of(states)
        res = [
            result_of(0, 0, 1, [0, 1], [1.0, 0.2], (0, 1)),
            result_of(1, 1, 2, [1, 0], [0.3, 0.8], (0, 1)),
        ]
        report = evaluate.summarize(res, mat, "model")
        assert report.num_queries == 2
        assert set(report.ndcg) == {1, 5}
        assert set(report.awtp) == {1, 2, 3, 4, 5}
        text = evaluate.reports_to_json({"model": {"all": report}})
        assert '"model"' in text
        rows = evaluate.reports_to_plot_rows({"model": {"all": report}})
        assert ("model", "ndcg@1", "all") == rows[0][:3]

    def test_empty_scenario_rows(self, tmp_path):
        mat = matrix_of(np.zeros((2, 300), dtype=bool))
        res = result_of(0, 10, 14, [0, 1], [1.0, 0.0], (0, 1))
        reports = {"model": evaluate.slice_scenarios([res], mat, "model")}
        evaluate.write_reports(tmp_path, reports)
        with (tmp_path / "metrics.csv").open(newline="") as fh:
            header, *rows = csv.reader(fh)
        assert tuple(header) == evaluate.METRICS_CSV_COLUMNS
        by_scenario = {row[1]: row for row in rows}
        assert by_scenario["weekend"][:3] == ["model", "weekend", "0"]
        assert by_scenario["weekend"][3:] == ["0.0"] * (len(header) - 3)
        assert by_scenario["all"][2] == "1"
        with (tmp_path / "plot_data.csv").open(newline="") as fh:
            plot = [row for row in csv.reader(fh) if row[2] == "weekend"]
        assert plot == [["model", "iawtp", "weekend", "0.0", "0.0"]]

    def test_result_validation(self):
        with pytest.raises(DataError, match="permutation"):
            result_of(0, 0, 1, [0, 0], [1.0, 0.0], (0,))

    def test_direct_construction_rejects_non_permutation(self):
        def batch(ranking):
            ranking = np.array(ranking, dtype=np.int64)
            times = np.zeros(len(ranking), dtype=np.int64)
            return evaluate.QueryResults(
                times, times, times + 1, ranking,
                np.zeros(ranking.shape), np.ones(ranking.shape, dtype=bool),
            )

        assert len(batch([[1, 0, 2], [2, 0, 1]])) == 2
        for bad in ([[1, 1, 2]], [[0, 1, 3]], [[0, 1, 2], [2, 2, 0]]):
            with pytest.raises(DataError, match="permutation"):
                batch(bad)
        with pytest.raises(DataError, match="permutation"):
            evaluate.make_result(0, 0, 1, [2, 0, 2], [0.0, 1.0, 0.5], (0,))

    def test_concat_keeps_rows_without_recheck(self, monkeypatch):
        states = np.array([[0, 0, 1, 1], [1, 0, 0, 0]], dtype=bool)
        res = [
            result_of(0, 0, 1, [0, 1], [1.0, 0.2], (0, 1)),
            result_of(1, 1, 2, [1, 0], [0.3, 0.8], (0, 1)),
        ]
        want = evaluate.summarize(res, matrix_of(states), "model")
        sorts, real_sort = [], np.sort

        def counting_sort(*args, **kwargs):
            sorts.append(args[0].shape)
            return real_sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        batch = evaluate._concat(res)
        assert sorts == []
        assert isinstance(batch, evaluate.Candidates)
        assert batch.vertex.tolist() == [[0, 1], [1, 0]]
        assert batch.position.tolist() == [[0, 1], [0, 1]]
        monkeypatch.undo()
        got = evaluate.summarize([batch], matrix_of(states), "model")
        assert got == want

    def test_concat_takes_one_pack_or_dense_batches(self):
        wide, mat = random_batch(5, queries=30, largest=8)
        narrow, _ = random_batch(6, queries=20, largest=3)
        pack = evaluate._concat([wide])
        assert evaluate._concat([pack]) is pack
        joined = evaluate._concat([wide, narrow])
        assert joined.vertex.shape == (50, 8)
        for field in ("vertex", "position", "labels"):
            got, want = getattr(joined, field)[:30], getattr(pack, field)
            assert np.array_equal(got, want)
        for mixed in ([pack, pack], [wide, pack], [pack, narrow]):
            with pytest.raises(DataError, match="one Candidates pack"):
                evaluate._concat(mixed)
            with pytest.raises(DataError, match="one Candidates pack"):
                evaluate.summarize(mixed, mat, "m")

    def test_masks_selecting_every_query_reuse_the_whole(self, monkeypatch):
        # 40 intervals from a Monday midnight: every query is a workday
        # and a nighttime one, none a weekend or daytime one
        batch, mat = random_batch(7, intervals=40)
        every = {"workday": np.ones(len(batch), dtype=bool)}
        alone = evaluate._reports(
            evaluate._concat([batch]), mat, "m", every, 20
        )["workday"]
        calls = []
        for name in ("_mean_std", "_wait_scores"):
            real = getattr(evaluate, name)

            def spy(*a, real=real, name=name):
                calls.append(name)
                return real(*a)

            monkeypatch.setattr(evaluate, name, spy)
        reports = evaluate.slice_scenarios([batch], mat, "m", max_wait=20)
        # one report's worth of work, for "all"
        assert calls.count("_mean_std") == 2 * len(evaluate.RANK_NS)
        assert calls.count("_wait_scores") == len(evaluate.WAIT_NS)
        assert reports["workday"] == alone
        for name in ("workday", "nighttime"):
            want = dataclasses.replace(reports["all"], scenario=name)
            assert reports[name] == want
        for name in ("weekend", "daytime"):
            assert reports[name].num_queries == 0


def random_batch(seed, queries=200, width=8, largest=8, intervals=40):
    """Rankings from scores with ties; neighborhoods of 1 to largest
    vertices, the largest size always among them; labels nonzero only
    inside, every fifth row all zero."""
    rng = np.random.default_rng(seed)
    scores = rng.integers(0, 3, (queries, width)) / 2.0
    ranking = dense_oracle.rank_rows(scores, rng.integers(0, 3, (queries, width)))
    sizes = rng.integers(1, largest + 1, queries)
    sizes[0] = largest
    hood = np.zeros((queries, width), dtype=bool)
    for q, size in enumerate(sizes):
        hood[q, rng.choice(width, size, replace=False)] = True
    grades = rng.random((queries, width)) * (rng.random((queries, width)) < 0.7)
    labels = np.where(hood, grades, 0.0)
    labels[::5] = 0.0
    times = rng.integers(0, intervals, queries)
    batch = evaluate.QueryResults(
        query_vertex=rng.integers(0, width, queries),
        query_time=times,
        horizon_time=times,
        ranking=ranking,
        labels=labels,
        neighborhood=hood,
    )
    return batch, matrix_of(rng.random((width, intervals)) < 0.6)


class TestNeighborhoodPack:
    """The pack's metrics against the same metrics over whole [Q, n] rows
    (tests/dense_oracle.py), by bytes."""

    # 12 and 16 lie beyond the rows of 8; from 8 terms up numpy's row sum
    # goes pairwise
    LIST_SIZES = (1, 3, 5, 8, 12, 16)
    # (row width, largest neighborhood); 16 wide holds up to 13 candidates
    SHAPES = pytest.mark.parametrize(
        "width, largest", [(8, 8), (8, 5), (8, 1), (16, 13)],
        ids=["whole-row", "5", "1", "wide"],
    )

    @SHAPES
    @pytest.mark.parametrize("seed", [0, 1])
    def test_row_metrics_match_dense(self, seed, width, largest):
        batch, _ = random_batch(seed, width=width, largest=largest)
        for n in self.LIST_SIZES:
            for metric in ("ndcg_at", "map_at"):
                got = getattr(evaluate, metric)(batch.ranking, batch.labels, n)
                want = getattr(dense_oracle, metric)(
                    batch.ranking, batch.labels, n
                )
                assert got.tobytes() == want.tobytes(), (metric, n)
                # one row gives a float, same bits; rows 0 and 5 are zero
                for q in (0, 5, *range(1, len(batch), 7)):
                    row = getattr(evaluate, metric)(
                        batch.ranking[q], batch.labels[q], n
                    )
                    assert isinstance(row, float)
                    assert np.float64(row).tobytes() == want[q].tobytes()

    @pytest.mark.parametrize("max_wait", [1, 3])
    @SHAPES
    @pytest.mark.parametrize("seed", [2, 3])
    def test_reports_match_dense(
        self, monkeypatch, seed, width, largest, max_wait
    ):
        batch, mat = random_batch(seed, width=width, largest=largest)
        rng = np.random.default_rng(seed)
        masks = {
            "all": np.ones(len(batch), dtype=bool),
            "some": rng.random(len(batch)) < 0.3,
            "none": np.zeros(len(batch), dtype=bool),
        }
        wait_ns = (1, 2, 5, 8, 12)
        monkeypatch.setattr(evaluate, "RANK_NS", self.LIST_SIZES)
        monkeypatch.setattr(evaluate, "WAIT_NS", wait_ns)
        got = evaluate._reports(
            evaluate._concat([batch]), mat, "m", masks, max_wait
        )
        want = baseline_oracle.reports(
            batch, mat, "m", masks, self.LIST_SIZES, wait_ns, max_wait
        )
        assert evaluate.reports_to_json({"m": got}) == evaluate.reports_to_json(
            {"m": want}
        )
        assert evaluate.reports_to_plot_rows(
            {"m": got}
        ) == evaluate.reports_to_plot_rows({"m": want})
        # the packed wait columns hold the dense columns' integers; past
        # the largest neighborhood the dense ones repeat the last
        best = evaluate._best_waits(evaluate._concat([batch]), mat, max_wait)
        dense = dense_oracle.best_waits(batch, mat, max_wait)
        width = best.shape[1]
        assert width == largest
        assert best.dtype == dense.dtype
        assert np.array_equal(best, dense[:, :width])
        assert (dense[:, width - 1 :] == dense[:, -1:]).all()
        for n in (1, 2, 5, 12):
            assert evaluate.awtp_rnwtr([batch], mat, n, max_wait) == (
                evaluate._wait_scores(dense, n)
            )

    def test_one_label_sort_per_pack(self, monkeypatch):
        batch, mat = random_batch(6, width=16, largest=13)
        pack = evaluate._concat([batch])
        sorts, real_sort = [], np.sort

        def counting_sort(*args, **kwargs):
            sorts.append(args[0].shape)
            return real_sort(*args, **kwargs)

        monkeypatch.setattr(np, "sort", counting_sort)
        for ns in ((1,), (1, 5), tuple(range(1, 17))):
            monkeypatch.setattr(evaluate, "RANK_NS", ns)
            sorts.clear()
            reports = evaluate.slice_scenarios([pack], mat, "m")
            assert sorts == [pack.labels.shape]
            assert tuple(reports["all"].ndcg) == ns
            assert tuple(reports["all"].mean_ap) == ns

    def test_label_outside_neighborhood_rejected(self):
        batch, mat = random_batch(4)
        labels = batch.labels.copy()
        outside = np.flatnonzero(~batch.neighborhood[7])[0]
        labels[7, outside] = 0.25
        bad = evaluate.QueryResults(
            batch.query_vertex, batch.query_time, batch.horizon_time,
            batch.ranking, labels, batch.neighborhood,
        )
        for score in (evaluate.summarize, evaluate.slice_scenarios):
            with pytest.raises(DataError, match="query 7 has a nonzero label"):
                score([bad], mat, "model")
        # waits read no labels, so the waiting-time metric still scores it
        assert evaluate.awtp_rnwtr([bad], mat, 1) == evaluate.awtp_rnwtr(
            [batch], mat, 1
        )

    def test_row_metrics_reject_bad_labels(self):
        for metric in (evaluate.ndcg_at, evaluate.map_at):
            with pytest.raises(DataError, match="non-negative"):
                metric([0, 1], [0.5, -0.5], 1)
            with pytest.raises(DataError, match="same shape"):
                metric([0, 1, 2], [0.5, 0.0], 1)
            with pytest.raises(ConfigError, match="at least 1"):
                metric([0, 1], [0.5, 0.0], 0)
