"""Event-graph tests: contraction oracle, windows, complexity accounting."""

import json
from itertools import groupby
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkrank import cli, esgraph, ingest, kernels
from parkrank.errors import ConfigError, DataError
from window_oracle import extract_windows as formula_windows


def rle_oracle(seq):
    return [(bool(v), len(list(g))) for v, g in groupby(seq)]


def contract_oracle(seq):
    """Reference contraction: groupby runs, last run becomes current."""
    runs = rle_oracle(seq)
    events = tuple(runs[:-1])
    state, duration = runs[-1]
    return events, state, duration


def small_matrix(seed=0, rows=8, cols=120, p=0.5):
    rng = np.random.default_rng(seed)
    return rng.random((rows, cols)) < p


def full_window(bits, reference_time=None):
    """RunTable window of one row with alpha = the prefix length, so it
    holds every completed event up to reference_time (default: the last
    interval)."""
    table = esgraph.RunTable(np.array([bits], dtype=bool))
    if reference_time is None:
        reference_time = len(bits) - 1
    return table.window_at(reference_time, alpha=reference_time + 1)


def rebuild_rows(window):
    """Cells each row's window covers, from its signed durations plus the
    current run; occupied runs are negative."""
    rows = []
    for signed, current in zip(
        window.signed_durations, window.current_signed_duration
    ):
        runs = np.append(signed[signed != 0], current)
        rows.append(np.repeat(runs < 0, np.abs(runs).astype(int)))
    return rows


class TestContractPath:
    """A one-row run table read with alpha = the prefix length is the
    contraction of that prefix."""

    def test_mixed_sequence(self):
        window = full_window([0, 0, 1, 1, 1, 0])
        assert window.signed_durations[0].tolist() == [0, 0, 0, 0, 2.0, -3.0]
        assert window.current_signed_duration[0] == 1.0

    def test_constant_sequence_has_no_events(self):
        window = full_window([1, 1, 1, 1])
        assert not window.signed_durations.any()
        assert window.current_signed_duration[0] == -4.0

    def test_single_element(self):
        window = full_window([0])
        assert window.signed_durations[0].tolist() == [0]
        assert window.current_signed_duration[0] == 1.0

    def test_reference_time_truncates(self):
        window = full_window([0, 0, 1, 1, 1, 0], reference_time=3)
        assert window.signed_durations[0].tolist() == [0, 0, 0, 2.0]
        assert window.current_signed_duration[0] == -2.0

    def test_empty_sequence_rejected(self):
        with pytest.raises(DataError, match="empty"):
            esgraph.RunTable(np.zeros((1, 0), dtype=bool))

    def test_reference_time_out_of_range(self):
        table = esgraph.RunTable(np.array([[0, 1]], dtype=bool))
        message = r"^time must lie in \[0, 2\), got 2$"
        with pytest.raises(DataError, match=message):
            table.window_at(2, alpha=2)

    @given(st.lists(st.booleans(), min_size=1, max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_property_matches_oracle_and_round_trips(self, bits):
        table = esgraph.RunTable(np.array([bits], dtype=bool))
        window = table.window_at(len(bits) - 1, alpha=len(bits))
        events, state, duration = contract_oracle(bits)
        signed = window.signed_durations[0]
        padding = len(bits) - len(events)
        assert not signed[:padding].any()
        assert signed[padding:].tolist() == [
            -float(d) if s else float(d) for s, d in events
        ]
        assert window.current_signed_duration[0] == (
            -duration if state else duration
        )
        assert np.array_equal(
            rebuild_rows(window)[0], np.array(bits, dtype=bool)
        )
        remaining = [
            left for _, d in rle_oracle(bits) for left in range(d, 0, -1)
        ]
        assert [
            int(table.remaining_run_lengths(t)[0]) for t in range(len(bits))
        ] == remaining

    @given(st.lists(st.booleans(), min_size=1, max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_property_node_count_bounded_by_length(self, bits):
        table = esgraph.RunTable(np.array([bits], dtype=bool))
        window = table.window_at(len(bits) - 1, alpha=len(bits))
        num_events = int(np.count_nonzero(window.signed_durations))
        assert table.counts[0] == num_events + 1
        assert num_events + 1 <= len(bits)
        covered = np.abs(window.signed_durations).sum() + abs(
            window.current_signed_duration[0]
        )
        assert covered == len(bits)


def random_windows():
    """window_at output on random matrices of varied density, at several
    reference times and window sizes."""
    for seed, p in ((20, 0.5), (21, 0.2), (22, 0.9)):
        table = esgraph.RunTable(small_matrix(seed=seed, rows=10, p=p))
        for rt in (0, 7, 63, 119):
            for alpha in (1, 4, 120):
                yield table.window_at(rt, alpha)


class TestEventPathValidation:
    """Structural invariants of every event window."""

    def test_adjacent_events_must_alternate(self):
        for window in random_windows():
            for signed in window.signed_durations:
                events = signed[signed != 0]
                assert np.all(np.sign(events[1:]) != np.sign(events[:-1]))

    def test_newest_event_differs_from_current(self):
        for window in random_windows():
            newest = window.signed_durations[:, -1]
            current = window.current_signed_duration
            had_event = newest != 0
            assert np.all(
                np.sign(newest[had_event]) != np.sign(current[had_event])
            )

    def test_positive_durations(self):
        for window in random_windows():
            signed = window.signed_durations
            assert np.all(np.abs(window.current_signed_duration) >= 1)
            assert np.all(np.abs(signed[signed != 0]) >= 1)
            # zero padding sits only on the oldest side
            seen_event = np.logical_or.accumulate(signed != 0, axis=1)
            assert np.all(signed[seen_event] != 0)


def graph_for(matrix):
    locs = ingest.synth_locations(
        ingest.SynthConfig(
            num_locations=matrix.shape[0], num_intervals=1
        )
    )
    return ingest.build_adjacency(locs)


def matrix_of(states):
    return ingest.OccupancyMatrix(
        states=states,
        interval_minutes=5,
        start_time=ingest.SYNTH_START,
        location_index={f"m{i:03d}": i for i in range(states.shape[0])},
    )


def window_oracle(states, reference_time, alpha):
    """Slow windowing: contract each row's prefix with the groupby oracle,
    then copy its newest alpha events into the right-aligned slots of a
    zero row."""
    n = states.shape[0]
    signed = np.zeros((n, alpha), dtype=np.float64)
    current = np.empty(n, dtype=np.float64)
    for i in range(n):
        events, cur_state, cur_duration = contract_oracle(
            states[i, : reference_time + 1].tolist()
        )
        newest = events[-alpha:]
        for slot, (state, duration) in zip(
            range(alpha - len(newest), alpha), newest
        ):
            signed[i, slot] = -float(duration) if state else float(duration)
        current[i] = -float(cur_duration) if cur_state else float(cur_duration)
    return signed, current


class TestMergeEsgraph:
    """Pairing a matrix with its spatial graph: cli.load_data_dir checks
    that both list the same meters, and RunTable serves every row's
    window at one reference time."""

    def test_paths_share_reference_time(self):
        states = small_matrix()
        window = esgraph.RunTable(states).window_at(57, alpha=58)
        assert [len(row) for row in rebuild_rows(window)] == [58] * 8
        assert (window.current_signed_duration < 0).tolist() == (
            states[:, 57].tolist()
        )

    def test_rows_truncated_to_reference_time(self):
        states = small_matrix(seed=2)
        rt = 40
        window = esgraph.RunTable(states).window_at(rt, alpha=rt + 1)
        for i, row in enumerate(rebuild_rows(window)):
            assert np.array_equal(row, states[i, : rt + 1])

    def test_size_mismatch_rejected(self, tmp_path):
        states = small_matrix()
        wrong = graph_for(small_matrix(rows=5))
        cli.write_data_dir(
            tmp_path, list(wrong.vertices), matrix_of(states), wrong
        )
        with pytest.raises(DataError, match="different meters"):
            cli.load_data_dir(tmp_path)

    def test_id_mismatch_rejected(self, tmp_path):
        states = small_matrix(rows=3)
        locs = [
            ingest.MeterLocation("x0", 22.30, 114.17),
            ingest.MeterLocation("x1", 22.30, 114.1704),
            ingest.MeterLocation("x2", 22.30, 114.1708),
        ]
        graph = ingest.build_adjacency(locs)
        cli.write_data_dir(tmp_path, locs, matrix_of(states), graph)
        with pytest.raises(DataError, match="graph.json"):
            cli.load_data_dir(tmp_path)

    def test_reference_time_bounds(self):
        table = esgraph.RunTable(small_matrix())
        with pytest.raises(DataError):
            table.window_at(120, 2)


class TestWindowEvents:
    def test_zero_padding_oldest_side(self):
        # vacant 2, occupied 3, then vacant at the reference interval
        states = np.array([[0, 0, 1, 1, 1, 0]], dtype=bool)
        window = esgraph.RunTable(states).window_at(5, alpha=5)
        assert window.signed_durations[0].tolist() == [0, 0, 0, 2.0, -3.0]
        assert window.current_signed_duration[0] == 1.0

    def test_keeps_newest_events(self):
        states = np.array([[0, 1, 0, 1, 0, 1]], dtype=bool)
        window = esgraph.RunTable(states).window_at(5, alpha=2)
        assert window.signed_durations[0].tolist() == [-1.0, 1.0]
        assert window.current_signed_duration[0] == -1.0

    def test_alpha_must_be_positive(self):
        table = esgraph.RunTable(small_matrix(rows=2))
        with pytest.raises(ConfigError):
            table.window_at(10, alpha=0)

    def test_matches_run_table_fast_path(self):
        states = small_matrix(seed=5, rows=6, cols=90)
        table = esgraph.RunTable(states)
        for rt in (0, 3, 44, 89):
            for alpha in (1, 3, 6):
                slow_signed, slow_current = window_oracle(states, rt, alpha)
                fast = table.window_at(rt, alpha)
                assert np.array_equal(slow_signed, fast.signed_durations)
                assert np.array_equal(
                    slow_current, fast.current_signed_duration
                )


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


class TestRunTable:
    def test_remaining_run_lengths(self):
        states = np.array([[0, 0, 1, 1, 1, 0]], dtype=bool)
        table = esgraph.RunTable(states)
        # at t=2 the occupied run has 3 intervals left including t
        assert table.remaining_run_lengths(2)[0] == 3
        assert table.remaining_run_lengths(4)[0] == 1
        assert table.remaining_run_lengths(5)[0] == 1

    def test_time_array_matches_one_time_per_call(self):
        for seed, p in ((30, 0.5), (31, 0.15), (32, 0.85)):
            table = esgraph.RunTable(small_matrix(seed=seed, rows=7, p=p))
            times = np.random.default_rng(seed).integers(0, 120, size=40)
            times[:2] = (0, 119)
            for alpha in (1, 2, 5, 120):
                batch = table.window_at(times, alpha)
                one = [table.window_at(int(t), alpha) for t in times]
                assert same_bytes(
                    batch.signed_durations,
                    np.stack([w.signed_durations for w in one]),
                )
                assert same_bytes(
                    batch.current_signed_duration,
                    np.stack([w.current_signed_duration for w in one]),
                )
            assert same_bytes(
                table.remaining_run_lengths(times),
                np.stack([table.remaining_run_lengths(int(t)) for t in times]),
            )

    @given(
        st.integers(1, 6), st.integers(1, 60),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.integers(0, 2**32 - 1), st.integers(1, 6), st.data(),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_windows_match_oracle(self, rows, cols, p, seed, alpha, data):
        rng = np.random.default_rng(seed)
        states = rng.random((rows, cols)) < p
        # row 0 is one run, so it has fewer than alpha completed runs
        states[0] = states[0, 0]
        table = esgraph.RunTable(states)
        times = st.integers(0, cols - 1)
        scalar = data.draw(times)
        array = np.array(
            data.draw(st.lists(times, min_size=1, max_size=12)), dtype=np.int64
        ).reshape(data.draw(st.sampled_from([(-1,), (1, -1), (-1, 1)])))
        with mock.patch.object(
            kernels, "preceding_runs", wraps=kernels.preceding_runs
        ) as build:
            for t in (scalar, array):
                window = table.window_at(t, alpha)
                signed, current = formula_windows(
                    table.starts, table.lengths, table.run_states,
                    table.run_of, t, alpha,
                )
                assert same_bytes(window.signed_durations, signed)
                assert same_bytes(window.current_signed_duration, current)
        # the second call with the same alpha reads the first one's table
        assert build.call_count == 1

    @pytest.mark.parametrize(
        "times",
        [-1, 6, [0, 6, 2], [3, -1]],
        ids=["minus-one", "num-intervals", "array-past-end", "array-negative"],
    )
    def test_reference_time_out_of_range(self, times):
        table = esgraph.RunTable(np.array([[0, 0, 1, 1, 1, 0]], dtype=bool))
        flat = np.ravel(times)
        first = flat[(flat < 0) | (flat >= 6)][0]
        message = rf"^time must lie in \[0, 6\), got {first}$"
        with pytest.raises(DataError, match=message):
            table.remaining_run_lengths(np.array(times))
        with pytest.raises(DataError, match=message):
            table.window_at(np.array(times), alpha=2)


class TestBenchComplexity:
    def test_alternating_matrix_hits_cell_bound(self):
        states = np.tile([True, False], (10, 500))
        report = esgraph.bench_complexity(matrix_of(states), alpha=2)
        assert report.stgraph_cells == 10 * 1000
        assert report.esgraph_nodes == 10 * 1000
        assert report.esgraph_edges == 10 * 999

    def test_constant_matrix_collapses(self):
        states = np.ones((10, 1000), dtype=bool)
        report = esgraph.bench_complexity(matrix_of(states), alpha=2)
        assert report.esgraph_nodes == 10
        assert report.esgraph_edges == 0
        assert report.task2_steps_st == 10 * 1000

    def test_node_count_matches_oracle(self):
        states = small_matrix(seed=9, rows=12, cols=333)
        report = esgraph.bench_complexity(matrix_of(states), alpha=3)
        expected = sum(len(rle_oracle(row.tolist())) for row in states)
        assert report.esgraph_nodes == expected
        assert report.esgraph_edges == expected - 12

    def test_task2_event_graph_touch_is_exact(self):
        states = small_matrix(seed=10, rows=9, cols=200)
        for alpha in (1, 2, 5):
            report = esgraph.bench_complexity(matrix_of(states), alpha)
            assert report.task2_steps_es == 9 * alpha

    def test_task2_cell_grid_spans_same_events(self):
        # vacant 2, occupied 3, vacant 1: alpha=2 must span all 6 cells
        states = np.array([[0, 0, 1, 1, 1, 0]], dtype=bool)
        report = esgraph.bench_complexity(matrix_of(states), alpha=2)
        assert report.task2_steps_st == 6
        report1 = esgraph.bench_complexity(matrix_of(states), alpha=1)
        assert report1.task2_steps_st == 4

    def test_task2_cell_grid_matches_oracle(self):
        for seed, p in ((40, 0.5), (41, 0.1), (42, 0.9)):
            states = small_matrix(seed=seed, rows=9, cols=150, p=p)
            for alpha in (1, 2, 3, 4):
                report = esgraph.bench_complexity(matrix_of(states), alpha)
                # cells of the newest alpha completed runs plus the current
                expected = sum(
                    sum(d for _, d in rle_oracle(row.tolist())[-alpha - 1 :])
                    for row in states
                )
                assert report.task2_steps_st == expected

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=80),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_nodes_never_exceed_cells(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        states = rng.random((rows, cols)) < 0.5
        report = esgraph.bench_complexity(matrix_of(states), alpha=2)
        assert report.esgraph_nodes <= report.stgraph_cells
        assert report.task1_steps_es <= report.task1_steps_st

    def test_report_round_trips_through_dict(self, tmp_path):
        states = small_matrix(seed=11)
        graph = graph_for(states)
        data, out = tmp_path / "data", tmp_path / "bench"
        cli.write_data_dir(data, list(graph.vertices), matrix_of(states), graph)
        assert cli.main(
            ["bench", "--data", str(data), "--out", str(out), "--alpha", "2"]
        ) == 0
        payload = json.loads((out / "complexity.json").read_text())
        report = esgraph.bench_complexity(matrix_of(states), alpha=2)
        assert esgraph.ComplexityReport(**payload) == report

    def test_curve_counts_runs_of_every_prefix(self):
        for seed in (7, 8, 9):
            states = small_matrix(seed=seed, rows=5, cols=60)
            # 60 points over 60 intervals: every prefix length the rounded
            # geometric spacing reaches, 1 and 60 among them
            curve = esgraph.complexity_curve(matrix_of(states), 60)
            assert curve[0][0] == 1 and curve[-1][0] == 60
            counts = [nodes for _, _, nodes in curve]
            assert all(b >= a for a, b in zip(counts, counts[1:]))
            for p, cells, nodes in curve:
                assert cells == 5 * p
                want = sum(len(rle_oracle(row[:p])) for row in states)
                assert nodes == want
            runs = esgraph.RunTable(states).counts
            assert runs.tolist() == [len(rle_oracle(row)) for row in states]
            assert counts[-1] == runs.sum()

    def test_curve_monotone_and_bounded(self):
        states = small_matrix(seed=12, rows=6, cols=400)
        curve = esgraph.complexity_curve(matrix_of(states), 12)
        es_counts = [es for _, _, es in curve]
        assert all(b >= a for a, b in zip(es_counts, es_counts[1:]))
        assert all(es <= st_ for _, st_, es in curve)
        assert curve[-1][0] == 400
