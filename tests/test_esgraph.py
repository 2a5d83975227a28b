"""Event-graph tests: contraction oracle, windows, complexity accounting."""

from itertools import groupby

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parkrank import cli, esgraph, ingest
from parkrank.errors import ConfigError, DataError


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


class TestContractPath:
    def test_mixed_sequence(self):
        path = esgraph.contract_path([0, 0, 1, 1, 1, 0])
        assert path.events == ((False, 2), (True, 3))
        assert path.current_state is False
        assert path.current_duration == 1
        assert path.reference_time == 5

    def test_constant_sequence_has_no_events(self):
        path = esgraph.contract_path([1, 1, 1, 1])
        assert path.events == ()
        assert path.current_state is True
        assert path.current_duration == 4

    def test_single_element(self):
        path = esgraph.contract_path([0])
        assert path.events == ()
        assert path.current_duration == 1

    def test_reference_time_truncates(self):
        path = esgraph.contract_path([0, 0, 1, 1, 1, 0], reference_time=3)
        assert path.events == ((False, 2),)
        assert path.current_state is True
        assert path.current_duration == 2

    def test_empty_sequence_rejected(self):
        with pytest.raises(DataError, match="empty"):
            esgraph.contract_path([])

    def test_reference_time_out_of_range(self):
        with pytest.raises(DataError):
            esgraph.contract_path([0, 1], reference_time=2)

    @given(st.lists(st.booleans(), min_size=1, max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_property_matches_oracle_and_round_trips(self, bits):
        path = esgraph.contract_path(bits)
        events, state, duration = contract_oracle(bits)
        assert path.events == events
        assert path.current_state == state
        assert path.current_duration == duration
        assert np.array_equal(path.expand(), np.array(bits, dtype=bool))

    @given(st.lists(st.booleans(), min_size=1, max_size=120))
    @settings(max_examples=80, deadline=None)
    def test_property_node_count_bounded_by_length(self, bits):
        path = esgraph.contract_path(bits)
        assert path.num_events + 1 <= len(bits)
        assert path.total_length == len(bits)


class TestEventPathValidation:
    def test_adjacent_events_must_alternate(self):
        with pytest.raises(DataError, match="alternate"):
            esgraph.EventPath(
                events=((True, 2), (True, 1)),
                current_state=False,
                current_duration=1,
                reference_time=3,
            )

    def test_newest_event_differs_from_current(self):
        with pytest.raises(DataError, match="differ"):
            esgraph.EventPath(
                events=((True, 2),),
                current_state=True,
                current_duration=1,
                reference_time=2,
            )

    def test_positive_durations(self):
        with pytest.raises(DataError):
            esgraph.EventPath(
                events=((True, 0),),
                current_state=False,
                current_duration=1,
                reference_time=0,
            )


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
    that both list the same meters, and RunTable serves every row's path
    at one reference time."""

    def test_paths_share_reference_time(self):
        states = small_matrix()
        table = esgraph.RunTable(states)
        paths = [table.path_at(i, 57) for i in range(states.shape[0])]
        assert all(p.reference_time == 57 for p in paths)
        assert [p.current_state for p in paths] == states[:, 57].tolist()

    def test_rows_truncated_to_reference_time(self):
        states = small_matrix(seed=2)
        rt = 40
        table = esgraph.RunTable(states)
        for i in range(states.shape[0]):
            path = table.path_at(i, rt)
            assert np.array_equal(path.expand(), states[i, : rt + 1])

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


class TestRunTable:
    def test_remaining_run_lengths(self):
        states = np.array([[0, 0, 1, 1, 1, 0]], dtype=bool)
        table = esgraph.RunTable(states)
        # at t=2 the occupied run has 3 intervals left including t
        assert table.remaining_run_lengths(2)[0] == 3
        assert table.remaining_run_lengths(4)[0] == 1
        assert table.remaining_run_lengths(5)[0] == 1

    def test_runs_in_prefix_monotone(self):
        states = small_matrix(seed=7, rows=5, cols=60)
        table = esgraph.RunTable(states)
        counts = [table.runs_in_prefix(p) for p in range(1, 61)]
        assert all(b >= a for a, b in zip(counts, counts[1:]))
        assert counts[-1] == table.total_runs


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

    def test_report_round_trips_through_dict(self):
        states = small_matrix(seed=11)
        report = esgraph.bench_complexity(matrix_of(states), alpha=2)
        assert esgraph.ComplexityReport.from_dict(report.as_dict()) == report

    def test_curve_monotone_and_bounded(self):
        states = small_matrix(seed=12, rows=6, cols=400)
        curve = esgraph.complexity_curve(matrix_of(states))
        es_counts = [es for _, _, es in curve]
        assert all(b >= a for a, b in zip(es_counts, es_counts[1:]))
        assert all(es <= st_ for _, st_, es in curve)
        assert curve[-1][0] == 400
