"""Ingestion tests: parsers, adjacency, synthetic generator, round-trips."""

import csv
import io
import json
import math
import re
from datetime import datetime

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_oracle
import matrix_oracle
from dense_oracle import adjacency
from parkrank import ingest, model
from parkrank.errors import (
    ConfigError,
    DataError,
    EmptyDatasetError,
    ParkrankError,
    ParseError,
)


def space_lines(records):
    return ["meter_id,timestamp,state"] + [
        f"{m},{ts},{s}" for m, ts, s in records
    ]


class TestHaversine:
    def test_frozen_reference_value(self):
        # 0.001 deg of longitude at latitude 22.28; value frozen from an
        # independent spherical law-of-cosines computation.
        a = ingest.MeterLocation("a", 22.28, 114.16)
        b = ingest.MeterLocation("b", 22.28, 114.161)
        assert abs(ingest.haversine_distance(a, b) - 102.893) < 0.5

    def test_zero_distance(self):
        a = ingest.MeterLocation("a", 22.28, 114.16)
        assert ingest.haversine_distance(a, a) == 0.0

    def test_symmetry(self):
        a = ingest.MeterLocation("a", 22.30, 114.17)
        b = ingest.MeterLocation("b", 22.31, 114.18)
        assert ingest.haversine_distance(a, b) == pytest.approx(
            ingest.haversine_distance(b, a)
        )


class TestBuildAdjacency:
    def test_threshold_is_strict(self):
        # ~39.96 m apart: inside a 50 m threshold, outside 39 m
        lon_step = 40.0 / (111320.0 * math.cos(math.radians(22.28)))
        locs = [
            ingest.MeterLocation("a", 22.28, 114.16),
            ingest.MeterLocation("b", 22.28, 114.16 + lon_step),
        ]
        assert ingest.build_adjacency(locs, 50.0).edges == {(0, 1)}
        assert ingest.build_adjacency(locs, 39.0).edges == frozenset()

    def test_duplicate_ids_rejected(self):
        locs = [
            ingest.MeterLocation("a", 22.28, 114.16),
            ingest.MeterLocation("a", 22.29, 114.16),
        ]
        with pytest.raises(DataError, match="duplicate"):
            ingest.build_adjacency(locs)

    def test_neighbors_sorted_symmetric(self):
        locs = ingest.synth_locations(
            ingest.SynthConfig(num_locations=9, num_intervals=1)
        )
        graph = ingest.build_adjacency(locs, 50.0)
        adj = adjacency(graph)
        for i in range(9):
            for j in np.flatnonzero(adj[i]):
                assert i in np.flatnonzero(adj[j])
        assert np.array_equal(adj, adj.T)
        assert not adj.diagonal().any()

    def test_hop_distances_bfs(self):
        locs = [
            ingest.MeterLocation(f"m{i}", 22.28, 114.16 + i * 0.0003)
            for i in range(4)
        ]
        # chain graph: consecutive pairs ~31 m apart
        graph = ingest.build_adjacency(locs, 35.0)
        hops = graph.hop_distances(0)
        assert hops.tolist() == [0, 1, 2, 3]

    @pytest.mark.parametrize("source", [-1, 2, 7])
    def test_vertex_outside_graph_rejected(self, source):
        # an index of -1 once read the last vertex's hops, and 2 raised
        # numpy's IndexError
        locs = [
            ingest.MeterLocation("a", 22.28, 114.16),
            ingest.MeterLocation("b", 22.28, 114.1603),
        ]
        graph = ingest.build_adjacency(locs, 50.0)
        message = rf"^vertex must lie in \[0, 2\), got {source}$"
        with pytest.raises(DataError, match=message):
            graph.hop_distances(source)
        with pytest.raises(DataError, match=message):
            model.recommend_top_n(np.zeros(2), source, graph, 2)

    @pytest.mark.parametrize("source", [True, 1.5, np.float64(1.0)])
    def test_non_integer_vertex_rejected(self, source):
        # True once read the whole hop table with a leading axis of 1, and
        # 1.5 raised numpy's IndexError
        locs = [
            ingest.MeterLocation("a", 22.28, 114.16),
            ingest.MeterLocation("b", 22.28, 114.1603),
        ]
        graph = ingest.build_adjacency(locs, 50.0)
        message = rf"^vertex must be an integer, got {source}$"
        with pytest.raises(DataError, match=message):
            graph.hop_distances(source)
        with pytest.raises(DataError, match=message):
            model.recommend_top_n(np.zeros(2), source, graph, 2)

    def test_vertex_must_be_scalar(self):
        # a 0-d array once read a writeable copy of the row, a list the
        # rows of each entry, and recommend_top_n raised numpy's
        # ValueError on that list
        locs = [
            ingest.MeterLocation("a", 22.28, 114.16),
            ingest.MeterLocation("b", 22.28, 114.1603),
        ]
        graph = ingest.build_adjacency(locs, 50.0)
        row = graph.hop_distances(np.array(1))
        assert row.tolist() == graph.hop_distances(1).tolist()
        assert not row.flags.writeable
        for source in ([0, 1], np.array([1])):
            says = f"vertex must be a single integer, got {source}"
            with pytest.raises(DataError, match=f"^{re.escape(says)}$"):
                graph.hop_distances(source)
            with pytest.raises(DataError, match=f"^{re.escape(says)}$"):
                model.recommend_top_n(np.zeros(2), source, graph, 2)

    def test_unreachable_sentinel(self):
        locs = [
            ingest.MeterLocation("a", 22.28, 114.16),
            ingest.MeterLocation("b", 22.50, 114.50),
        ]
        graph = ingest.build_adjacency(locs, 50.0)
        assert graph.hop_distances(0)[1] == 3  # n + 1

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_edges_match_all_pairs(self, data):
        locs, threshold_m = data.draw(stressed_locations())
        want = {
            (i, j)
            for i in range(len(locs))
            for j in range(i + 1, len(locs))
            if ingest.haversine_distance(locs[i], locs[j]) < threshold_m
        }
        assert ingest.build_adjacency(locs, threshold_m).edges == want


@st.composite
def stressed_locations(draw):
    """(locations, threshold_m): 0-30 draws, each one location with a
    unit-vector coordinate on an adjacency cube's face, within one
    threshold of a pole, across +-180 degrees of longitude, repeating an
    earlier location, about one threshold from an earlier one, or anywhere;
    or a crowd of 2-6 (an earlier location repeated, the rest within a
    fifth of a threshold of it), so most of a crowd shares one cube.
    Thresholds from 0.5 m to 2e7 m."""
    threshold_m = draw(st.one_of(
        st.sampled_from([0.5, 50.0, 2e7]),
        st.floats(math.log10(0.5), math.log10(2e7)).map(lambda e: 10.0**e),
    ))
    # the cubes' side on the unit sphere, as build_adjacency sizes it
    side = (
        threshold_m / ingest.EARTH_RADIUS_M * ingest.CELL_SLACK
        + ingest.CELL_MIN_RAD
    )
    near = math.degrees(threshold_m / ingest.EARTH_RADIUS_M)
    unit = st.floats(-1.0, 1.0)
    points = []
    for _ in range(draw(st.integers(0, 30))):
        kind = draw(st.sampled_from(
            ["face", "pole", "dateline", "repeat", "near", "crowd", "any"]
        ))
        if kind == "face":
            # x, y or z = cos(lat) cos(lon), cos(lat) sin(lon) or sin(lat)
            # lands on a multiple of the side
            axis = draw(st.integers(0, 2))
            c = draw(st.integers(-int(1.0 / side), int(1.0 / side))) * side
            if axis == 2:
                lat, lon = math.degrees(math.asin(c)), draw(unit) * 180.0
            else:
                lat = draw(unit) * math.degrees(math.acos(abs(c)))
                r = min(max(c / math.cos(math.radians(lat)), -1.0), 1.0)
                lon = math.degrees(math.acos(r))  # cos(lon) = r, so x = c
                # sin(90 - lon) = r, so y = c; a sign flip gives -c
                lon = math.copysign(90.0 - lon if axis else lon, draw(unit))
        elif kind == "pole":
            lat = math.copysign(90.0 - abs(draw(unit)) * near, draw(unit))
            lon = draw(unit) * 180.0
        elif kind == "dateline":
            lat = draw(unit) * 60.0
            lon = math.copysign(180.0 - abs(draw(unit)) * near, draw(unit))
        elif kind in ("repeat", "near", "crowd") and points:
            lat, lon = points[draw(st.integers(0, len(points) - 1))]
            stretch = max(math.cos(math.radians(lat)), 1e-9)
            if kind == "crowd":
                for _ in range(draw(st.integers(1, 5))):
                    points.append((
                        np.clip(lat + draw(unit) * near / 8.0, -90.0, 90.0),
                        np.clip(lon + draw(unit) * near / 8.0 / stretch,
                                -180.0, 180.0),
                    ))
            elif kind == "near":
                # mostly along one axis, so chains of these cross faces
                dlat, dlon = draw(st.sampled_from(
                    [(unit, st.just(0.0)), (st.just(0.0), unit), (unit, unit)]
                ))
                lat += draw(dlat) * near
                lon += draw(dlon) * near / stretch
        else:
            lat, lon = draw(unit) * 90.0, draw(unit) * 180.0
        points.append((np.clip(lat, -90.0, 90.0), np.clip(lon, -180.0, 180.0)))
    locs = [
        ingest.MeterLocation(f"m{i}", lat, lon)
        for i, (lat, lon) in enumerate(points)
    ]
    return locs, threshold_m


def bfs_oracle(graph, source):
    """Hop counts from one source by a plain level-by-level BFS."""
    n = graph.num_vertices
    adj = adjacency(graph)
    hops = np.full(n, n + 1, dtype=np.int64)
    hops[source] = 0
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in np.flatnonzero(adj[v]):
                if hops[w] > n:
                    hops[w] = d
                    nxt.append(int(w))
        frontier = nxt
    return hops


def random_graph(rng, n, threshold_m):
    # scattered over roughly 200 m x 200 m, so 50 m leaves several islands
    locs = [
        ingest.MeterLocation(
            f"m{i}", 22.28 + rng.random() * 0.002, 114.16 + rng.random() * 0.002
        )
        for i in range(n)
    ]
    return ingest.build_adjacency(locs, threshold_m)


def assert_tables_match_oracles(graph):
    """The candidate mask and hop table equal the dense-adjacency and
    per-source BFS oracles byte for byte, read-only, one object each."""
    n = graph.num_vertices
    want_allowed = adjacency(graph) | np.eye(n, dtype=bool)
    want_hops = np.array(
        [bfs_oracle(graph, s) for s in range(n)], dtype=np.int64
    ).reshape(n, n)
    for get, want in ((graph.allowed_mask, want_allowed),
                      (graph.all_hop_distances, want_hops)):
        got = get()
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert get() is got
        assert not got.flags.writeable


@st.composite
def edge_sets(draw):
    """(n, edges) over 0-40 vertices: random edges (isolated vertices
    included), a path of diameter n - 1, a star, two components or the
    complete graph, with the vertices relabeled at random."""
    n = draw(st.integers(0, 40))
    shape = draw(st.sampled_from(["random", "path", "star", "two", "complete"]))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if shape == "random" and pairs:
        edges = draw(st.sets(st.sampled_from(pairs), max_size=3 * n))
    elif shape == "path":
        edges = {(i, i + 1) for i in range(n - 1)}
    elif shape == "star":
        edges = {(0, j) for j in range(1, n)}
    elif shape == "two":  # two paths, split at n // 2
        edges = {(i, i + 1) for i in range(n - 1) if i + 1 != n // 2}
    elif shape == "complete":
        edges = set(pairs)
    else:
        edges = set()
    label = draw(st.permutations(range(n)))
    return n, frozenset(
        (min(label[i], label[j]), max(label[i], label[j])) for i, j in edges
    )


class TestDerivedArrays:
    @pytest.mark.parametrize(
        "n, threshold_m, layout",
        # one vertex, no edges (1 cm), islands, connected, complete; then
        # synth grids whose last grid row is partial (11 x 11 holds 120)
        [
            pytest.param(n, t, "random", id=f"{n}-{t}")
            for n, t in ((1, 50.0), (6, 0.01), (12, 50.0), (25, 50.0),
                         (25, 90.0), (40, 300.0))
        ] + [
            pytest.param(120, t, "grid", id=f"grid-120-{t}")
            for t in (50.0, 85.0)
        ],
    )
    def test_hop_table_matches_per_source_bfs(self, n, threshold_m, layout):
        rng = np.random.default_rng(n)
        if layout == "grid":
            graphs = [ingest.build_adjacency(ingest.synth_locations(
                ingest.SynthConfig(num_locations=n, num_intervals=1)
            ), threshold_m)]
        else:
            graphs = [random_graph(rng, n, threshold_m) for _ in range(3)]
        for graph in graphs:
            table = graph.all_hop_distances()
            assert table.dtype == np.int64
            assert table.shape == (n, n)
            for s in range(n):
                assert np.array_equal(table[s], bfs_oracle(graph, s))
                assert np.array_equal(graph.hop_distances(s), table[s])

    @given(edge_sets())
    @settings(max_examples=120, deadline=None)
    def test_edge_list_tables_match_oracles(self, graph_edges):
        n, edges = graph_edges
        vertices = tuple(
            ingest.MeterLocation(f"m{i}", 22.3, 114.17) for i in range(n)
        )
        assert_tables_match_oracles(ingest.SpatialGraph(vertices, edges))

    @given(edge_sets())
    @example((1, frozenset()))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_hop_table_matches_dense_frontier_bfs(self, graph_edges):
        # islands, chains, stars, two components and complete graphs, and
        # one vertex: the sparse-frontier table has the dense BFS's bytes
        n, edges = graph_edges
        vertices = tuple(
            ingest.MeterLocation(f"m{i}", 22.3, 114.17) for i in range(n)
        )
        graph = ingest.SpatialGraph(vertices, edges)
        got, want = graph.all_hop_distances(), dense_oracle.hop_table(graph)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_read_only_and_computed_once(self):
        graph = random_graph(np.random.default_rng(3), 10, 90.0)
        for get in (graph.allowed_mask, graph.all_hop_distances):
            arr = get()
            assert get() is arr
            with pytest.raises(ValueError):
                arr[0, 0] = arr[0, 1]
        pairs = graph.allowed_pairs()
        assert all(a is b for a, b in zip(graph.allowed_pairs(), pairs))
        assert all(np.array_equal(a, b) for a, b in zip(
            pairs, np.nonzero(graph.allowed_mask())
        ))
        for index in pairs:
            with pytest.raises(ValueError):
                index[0] = 1
        with pytest.raises(ValueError):
            graph.hop_distances(0)[0] = 1

    def test_pair_slots_order_by_hop_then_id(self):
        n = 12
        graph = random_graph(np.random.default_rng(6), n, 90.0)
        size, width, cell = graph.pair_slots()
        assert graph.pair_slots()[2] is cell
        for arr in (size, cell):
            with pytest.raises(ValueError):
                arr[0] = 1
        assert width == size.max() > 1
        grid = np.full(n * width, -1)
        grid[cell] = graph.allowed_pairs()[1]
        hops = graph.all_hop_distances()
        for q, row in enumerate(grid.reshape(n, width)):
            hood = np.flatnonzero(graph.allowed_mask()[q])
            want = sorted(hood, key=lambda v: (hops[q, v], v))
            assert row.tolist() == want + [-1] * (width - size[q])

    def test_allowed_mask_adds_self(self):
        graph = random_graph(np.random.default_rng(4), 10, 90.0)
        expected = adjacency(graph) | np.eye(10, dtype=bool)
        assert np.array_equal(graph.allowed_mask(), expected)

    def test_construction_builds_no_hop_table(self, tmp_path):
        graph = random_graph(np.random.default_rng(5), 8, 90.0)
        ingest.save_graph(graph, tmp_path / "graph.json")
        loaded = ingest.load_graph(tmp_path / "graph.json")
        for g in (graph, loaded):
            assert "_hops" not in vars(g)

    def test_equality_and_hash_ignore_caches(self):
        rng = np.random.default_rng(6)
        graph = random_graph(rng, 8, 90.0)
        twin = ingest.SpatialGraph(graph.vertices, graph.edges)
        graph.all_hop_distances()
        graph.allowed_mask()
        assert graph == twin
        assert hash(graph) == hash(twin)
        twin.all_hop_distances()
        assert graph == twin
        assert hash(graph) == hash(twin)


class TestParseSpaceRecords:
    def test_basic_grid(self):
        lines = space_lines(
            [
                ("m1", "2022-01-01T00:00", 1),
                ("m1", "2022-01-01T00:05", 0),
                ("m2", "2022-01-01T00:00", 0),
                ("m2", "2022-01-01T00:05", 1),
            ]
        )
        mat = ingest.parse_space_records(lines)
        assert mat.num_locations == 2
        assert mat.num_intervals == 2
        assert mat.states[mat.location_index["m1"]].tolist() == [True, False]
        assert mat.states[mat.location_index["m2"]].tolist() == [False, True]
        assert mat.start_time == datetime(2022, 1, 1, 0, 0)

    def test_gap_carried_forward(self):
        lines = space_lines(
            [
                ("m1", "2022-01-01T00:00", 1),
                ("m1", "2022-01-01T00:10", 0),  # 00:05 missing
                ("m1", "2022-01-01T00:15", 0),
                ("m1", "2022-01-01T00:20", 0),
                ("m1", "2022-01-01T00:25", 0),
                ("m1", "2022-01-01T00:30", 0),
                ("m1", "2022-01-01T00:35", 0),
                ("m1", "2022-01-01T00:40", 0),
                ("m1", "2022-01-01T00:45", 0),
                ("m1", "2022-01-01T00:50", 0),
            ]
        )
        mat = ingest.parse_space_records(lines)
        # one gap over 11 cells is under the 10% drop rule, filled from 00:00
        assert mat.states[0].tolist()[:3] == [True, True, False]

    def test_excess_missing_dropped_and_reported(self):
        lines = space_lines(
            [
                ("bad", "2022-01-01T00:00", 1),
                ("good", "2022-01-01T00:00", 0),
                ("good", "2022-01-01T00:05", 0),
                ("good", "2022-01-01T00:10", 1),
                ("good", "2022-01-01T00:15", 0),
                ("good", "2022-01-01T00:20", 0),
                ("good", "2022-01-01T00:25", 0),
                ("good", "2022-01-01T00:30", 1),
                ("good", "2022-01-01T00:35", 0),
                ("good", "2022-01-01T00:40", 0),
                ("good", "2022-01-01T00:45", 0),
            ]
        )
        mat = ingest.parse_space_records(lines)
        assert mat.dropped_meters == ("bad",)
        assert list(mat.location_index) == ["good"]

    def test_invalid_state_named_in_error(self):
        lines = space_lines([("m1", "2022-01-01T00:00", 2)])
        with pytest.raises(ParseError, match="invalid state"):
            ingest.parse_space_records(lines)

    def test_invalid_timestamp_has_line_number(self):
        lines = space_lines(
            [("m1", "2022-01-01T00:00", 1), ("m1", "not-a-time", 0)]
        )
        with pytest.raises(ParseError, match="line 3"):
            ingest.parse_space_records(lines)

    def test_missing_column_named(self):
        with pytest.raises(ParseError, match="state"):
            ingest.parse_space_records(["meter_id,timestamp", "m1,2022-01-01"])

    @pytest.mark.parametrize(
        "layout, record, message",
        [
            ("space", ",not-a-time,2", "empty meter_id"),
            ("space", "m1,not-a-time,2", "invalid timestamp"),
            ("space", "m1,2022-01-01T00:00,2", "invalid state '2'"),
            ("street", ",not-a-time,x,0", "empty street_id"),
            ("street", "s1,not-a-time,x,0", "invalid timestamp"),
            ("street", "s1,2022-01-01T00:00,x,0", "counts must be integers"),
            ("street", "s1,2022-01-01T00:00,1,0", "capacity must be positive"),
        ],
    )
    def test_checks_run_id_then_timestamp_then_state(
        self, layout, record, message
    ):
        # both layouts share one record loop: each bad line reports the
        # first of its faults in this order
        header = {
            "space": "meter_id,timestamp,state",
            "street": "street_id,timestamp,occupied_count,capacity",
        }[layout]
        parse = getattr(ingest, f"parse_{layout}_records")
        with pytest.raises(ParseError, match=f"line 2: {message}"):
            parse([header, record])

    def test_empty_input(self):
        with pytest.raises(EmptyDatasetError):
            ingest.parse_space_records([])
        with pytest.raises(EmptyDatasetError):
            ingest.parse_space_records(["meter_id,timestamp,state"])


class TestParseStreetRecords:
    def header(self):
        return "street_id,timestamp,occupied_count,capacity"

    def test_full_loaded_ratio_strict(self):
        lines = [
            self.header(),
            "s1,2022-01-01T00:00,10,10",  # ratio 1.0 > 0.9 -> occupied
            "s2,2022-01-01T00:00,9,10",  # ratio 0.9, not strictly greater
            "s3,2022-01-01T00:00,10,11",  # ratio 0.909... > 0.9
        ]
        mat = ingest.parse_street_records(lines)
        states = {m: bool(mat.states[i, 0]) for m, i in mat.location_index.items()}
        assert states == {"s1": True, "s2": False, "s3": True}

    def test_zero_capacity_rejected_with_line(self):
        lines = [self.header(), "s1,2022-01-01T00:00,0,0"]
        with pytest.raises(ParseError, match="line 2.*capacity"):
            ingest.parse_street_records(lines)

    def test_negative_count_rejected(self):
        lines = [self.header(), "s1,2022-01-01T00:00,-1,10"]
        with pytest.raises(ParseError, match="non-negative"):
            ingest.parse_street_records(lines)

    @pytest.mark.parametrize(
        "counts", ["1_0,1_1", "\u0661,\u0662", "3,+4", "3,4.0", "3,--4", "3,"]
    )
    def test_counts_only_ascii_digits(self, counts):
        lines = [self.header(), "s1,2022-01-01T00:00,1,2",
                 f"s1,2022-01-01T00:05,{counts}"]
        with pytest.raises(ParseError, match="line 3: counts must be integers"):
            ingest.parse_street_records(lines)

    def test_counts_padding_stripped(self):
        lines = [self.header(), "s1,2022-01-01T00:00, 10 ,\t11 "]
        mat = ingest.parse_street_records(lines)
        assert mat.states.tolist() == [[True]]


class TestSynthGenerate:
    def test_shapes_and_determinism(self):
        cfg = ingest.SynthConfig(num_locations=12, num_intervals=300, rng_seed=7)
        locs_a, mat_a = ingest.synth_generate(cfg)
        locs_b, mat_b = ingest.synth_generate(cfg)
        assert len(locs_a) == 12
        assert mat_a.states.shape == (12, 300)
        assert np.array_equal(mat_a.states, mat_b.states)
        assert locs_a == locs_b

    def test_seed_changes_output(self):
        cfg_a = ingest.SynthConfig(num_locations=12, num_intervals=300, rng_seed=1)
        cfg_b = ingest.SynthConfig(num_locations=12, num_intervals=300, rng_seed=2)
        _, mat_a = ingest.synth_generate(cfg_a)
        _, mat_b = ingest.synth_generate(cfg_b)
        assert not np.array_equal(mat_a.states, mat_b.states)

    def test_base_rate_zero_all_vacant(self):
        cfg = ingest.SynthConfig(
            num_locations=6, num_intervals=200, base_occupancy_rate=0.0
        )
        _, mat = ingest.synth_generate(cfg)
        assert not mat.states.any()

    def test_mean_tracks_base_rate(self):
        cfg = ingest.SynthConfig(
            num_locations=25, num_intervals=4000, base_occupancy_rate=0.45
        )
        _, mat = ingest.synth_generate(cfg)
        assert abs(mat.states.mean() - 0.45) < 0.10

    def test_grid_has_edges_at_default_threshold(self):
        cfg = ingest.SynthConfig(num_locations=9, num_intervals=1)
        locs, _ = ingest.synth_generate(cfg)
        graph = ingest.build_adjacency(locs)
        assert len(graph.edges) > 0
        # 40 m spacing keeps diagonals (~56.6 m) out of a 50 m threshold
        assert (0, 4) not in graph.edges
        assert (0, 1) in graph.edges

    def test_spatial_correlation_raises_neighbor_agreement(self):
        base = dict(num_locations=16, num_intervals=4000, rng_seed=3)
        _, low = ingest.synth_generate(
            ingest.SynthConfig(spatial_correlation=0.0, **base)
        )
        _, high = ingest.synth_generate(
            ingest.SynthConfig(spatial_correlation=0.9, **base)
        )

        def neighbor_corr(mat):
            locs = ingest.synth_locations(
                ingest.SynthConfig(num_locations=16, num_intervals=1)
            )
            graph = ingest.build_adjacency(locs)
            vals = []
            x = mat.states.astype(float)
            for i, j in graph.edges:
                vals.append(np.corrcoef(x[i], x[j])[0, 1])
            return float(np.mean(vals))

        assert neighbor_corr(high) > neighbor_corr(low) + 0.05

    @pytest.mark.parametrize("m", [1, 2, 3, 5, 7, 10, 31, 120])
    def test_generator_neighbours_are_grid_steps(self, monkeypatch, m):
        seen = []
        markov = ingest.kernels.markov_occupancy

        def spy(init_u, step_u, sin_mod, neighbors, *rest):
            seen.append(neighbors)
            return markov(init_u, step_u, sin_mod, neighbors, *rest)

        monkeypatch.setattr(ingest.kernels, "markov_occupancy", spy)
        ingest.synth_generate(ingest.SynthConfig(num_locations=m, num_intervals=2))
        # the grid is filled row by row, so m < side * side leaves the
        # last row partial
        side = math.ceil(math.sqrt(m))
        want = np.zeros((m, m))
        for i in range(m):
            r, c = divmod(i, side)
            for rr, cc in ((r + 1, c), (r - 1, c), (r, c + 1), (r, c - 1)):
                if 0 <= rr < side and 0 <= cc < side and rr * side + cc < m:
                    want[i, rr * side + cc] = 1.0
        assert len(seen) == 1
        # an [m, K] table padded with m, no neighbour listed twice
        table = seen[0]
        assert table.dtype == np.int64 and table.shape == (m, 4)
        got = dense_oracle.neighbor_matrix(table)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    @given(
        st.integers(1, 40), st.integers(1, 80),
        st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        st.floats(0.0, 1.0), st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_states_match_dense_chain(self, m, intervals, base, corr, seed):
        # m in [1, 40] leaves the last grid row partial for most m
        cfg = ingest.SynthConfig(
            num_locations=m, num_intervals=intervals, rng_seed=seed,
            base_occupancy_rate=base, spatial_correlation=corr,
        )
        got = ingest.synth_generate(cfg)[1].states
        want = dense_oracle.synth_states(cfg)
        assert got.shape == want.shape == (m, intervals)
        assert got.tobytes() == want.tobytes()

    def test_invalid_config(self):
        with pytest.raises(ConfigError):
            ingest.SynthConfig(num_locations=0, num_intervals=10)
        with pytest.raises(ConfigError):
            ingest.SynthConfig(
                num_locations=1, num_intervals=10, base_occupancy_rate=1.5
            )


class TestRoundTrips:
    def test_matrix_round_trip(self, tmp_path):
        cfg = ingest.SynthConfig(num_locations=5, num_intervals=40, rng_seed=9)
        _, mat = ingest.synth_generate(cfg)
        path = tmp_path / "matrix.csv"
        ingest.save_matrix(mat, path)
        loaded = ingest.load_matrix(path)
        assert loaded.equals(mat)

    def test_matrix_round_trip_quoted_ids(self, tmp_path):
        # ids with a comma or a quote must be quoted in the CSV header
        ids = ["a,b", 'say "hi"', "plain", " padded "]
        states = np.random.default_rng(3).random((4, 7)) < 0.5
        mat = ingest.OccupancyMatrix(
            states=states,
            interval_minutes=5,
            start_time=datetime(2022, 8, 1, 7, 55),
            location_index={m: i for i, m in enumerate(ids)},
        )
        path = tmp_path / "matrix.csv"
        ingest.save_matrix(mat, path)
        header = path.read_bytes().split(b"\r\n")[0]
        assert header == b'"a,b","say ""hi""",plain, padded '
        assert ingest.load_matrix(path).equals(mat)

    def test_graph_round_trip(self, tmp_path):
        locs = ingest.synth_locations(
            ingest.SynthConfig(num_locations=7, num_intervals=1)
        )
        graph = ingest.build_adjacency(locs)
        path = tmp_path / "graph.json"
        ingest.save_graph(graph, path)
        loaded = ingest.load_graph(path)
        assert loaded == graph

    def test_locations_round_trip(self, tmp_path):
        locs = ingest.synth_locations(
            ingest.SynthConfig(num_locations=4, num_intervals=1)
        )
        path = tmp_path / "locations.csv"
        ingest.save_locations(locs, path)
        assert ingest.load_locations(path) == locs

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["m1", "m2", "m3"]),
                st.integers(min_value=0, max_value=11),
                st.booleans(),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_property_parse_then_save_load_idempotent(self, tmp_path_factory, obs):
        # ensure each meter covers the full grid to dodge the drop rule
        seen = {}
        for meter, idx, state in obs:
            seen[(meter, idx)] = state
        meters = {m for m, _ in seen}
        max_idx = max(i for _, i in seen)
        for m in meters:
            for i in range(max_idx + 1):
                seen.setdefault((m, i), False)
        records = [
            (m, f"2022-01-01T{i // 12:02d}:{(i % 12) * 5:02d}", int(s))
            for (m, i), s in sorted(seen.items())
        ]
        mat = ingest.parse_space_records(space_lines(records))
        tmp = tmp_path_factory.mktemp("roundtrip") / "m.csv"
        ingest.save_matrix(mat, tmp)
        assert ingest.load_matrix(tmp).equals(mat)


# what a mutation writes into a graph.json field or list
JSON_VALUES = st.one_of(
    st.integers(-2, 9), st.integers(), st.floats(), st.booleans(), st.none(),
    st.text(max_size=3), st.lists(st.integers(-1, 9), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
# edge lists over the 7 vertices of the fuzzed graph: any short lists of
# endpoints, or valid pairs (a subset of the complete graph)
EDGE_LISTS = st.lists(st.lists(st.integers(-1, 8), max_size=3), max_size=12)
VALID_EDGE_LISTS = st.lists(
    st.sampled_from([[i, j] for i in range(7) for j in range(i + 1, 7)]),
    max_size=21,
)


def mutated_graph_bytes(draw, payload):
    """The bytes of payload (a saved graph.json) with one drawn mutation:
    an edge endpoint, a vertex field, a whole list (a valid edge list
    among them), or a single byte."""
    kind = draw(st.sampled_from(["edge", "vertex", "list", "edges", "byte"]))
    if kind == "edge":
        edge = draw(st.sampled_from(payload["edges"]))
        edge[draw(st.integers(0, 1))] = draw(
            st.one_of(st.integers(0, 6), JSON_VALUES)
        )
    elif kind == "vertex":
        vertex = draw(st.sampled_from(payload["vertices"]))
        key = draw(st.sampled_from(["meter_id", "lat", "lon"]))
        if draw(st.booleans()):
            vertex[key] = draw(st.one_of(st.floats(-200, 200), JSON_VALUES))
        else:
            del vertex[key]
    elif kind == "list":
        key = draw(st.sampled_from(["vertices", "edges"]))
        payload[key] = draw(st.one_of(
            EDGE_LISTS if key == "edges" else st.just([]), JSON_VALUES
        ))
    elif kind == "edges":
        payload["edges"] = draw(VALID_EDGE_LISTS)
    data = bytearray(ingest.json_text(payload).encode())
    if kind == "byte":
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


def mutated_matrix_bytes(draw, body: bytes, sidecar: bytes):
    """A saved matrix.csv and its sidecar with one drawn mutation: up to
    three cells, a header field, a sidecar field (set to any JSON value,
    or dropped), a single byte of either file, or none. Its line ends are
    drawn too: all "\r\n" (as saved), all "\n" or mixed, and the last
    one may be dropped."""
    kind = draw(st.sampled_from(["cell", "header", "sidecar", "byte", "ends"]))
    lines = body.decode().split("\r\n")
    text = st.text(max_size=4)
    if kind == "cell":
        for _ in range(draw(st.integers(1, 3))):
            row = draw(st.integers(1, len(lines) - 2))
            cells = lines[row].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.one_of(
                st.sampled_from(["0", "1", "", "2", "01", " 1"]), text
            ))
            lines[row] = ",".join(cells)
    elif kind == "header":
        ids = lines[0].split(",")
        ids[draw(st.integers(0, len(ids) - 1))] = draw(
            st.one_of(st.sampled_from(ids), text)
        )
        lines[0] = ",".join(ids)
    elif kind == "sidecar":
        payload = json.loads(sidecar)
        key = draw(st.sampled_from(sorted(payload)))
        if draw(st.booleans()):
            payload[key] = draw(st.one_of(
                st.integers(-2, 10**20), text,
                st.sampled_from(["2022-08-01", "2022-08-01T00:00:00+05:30",
                                 "2022-08-01 07:30:15.25", "22-8-1"]),
                JSON_VALUES,
            ))
        else:
            del payload[key]
        sidecar = ingest.json_text(payload).encode()
    style = draw(st.sampled_from([["\r\n"], ["\n"], ["\r\n", "\n"]]))
    ends = [draw(st.sampled_from(style)) for _ in lines[1:]]
    if draw(st.booleans()):
        ends[-1] = ""
    body = "".join(map("".join, zip(lines, [*ends, ""]))).encode()
    if kind == "byte":
        files = [bytearray(body), bytearray(sidecar)]
        target = files[draw(st.integers(0, 1))]
        target[draw(st.integers(0, len(target) - 1))] = draw(
            st.integers(0, 255)
        )
        body, sidecar = map(bytes, files)
    return body, sidecar


def load_outcome(load, path):
    """What load(path) gives: the matrix's states, ids and times, or the
    error's class, message and line."""
    try:
        m = load(path)
    except ParkrankError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return (m.states.shape, m.states.tobytes(), m.location_index,
            m.interval_minutes, m.start_time)


def stray_bytes_as_cells(data: bytes) -> bytes:
    """data with each quote and lone "\r" after the header record made a
    "?": load_matrix takes either for a byte that is no cell, so the csv
    record loop must fail on this file where load_matrix fails on data."""
    try:
        text = data.decode()
        lines = io.StringIO(text, newline="")
        next(csv.reader(lines), None)
    except (UnicodeDecodeError, csv.Error):
        return data  # the file, or its header, fails in both loaders alike
    head = lines.tell()
    return (text[:head] + re.sub(r'"|\r(?!\n)', "?", text[head:])).encode()


def write_matrix_body(directory, body: str):
    """directory/matrix.csv holding body, next to a valid sidecar."""
    path = directory / "matrix.csv"
    path.write_bytes(body.encode())
    ingest.write_json(directory / "matrix.meta.json", {
        "interval_minutes": 5, "start_time": "2022-08-01T00:00:00",
    })
    return path


def mutated_locations_bytes(draw, body: bytes) -> bytes:
    """A saved locations.csv with one drawn mutation: a cell (an id, or a
    coordinate out of range, not finite or not a number), a header field,
    a line dropped, repeated or added, or a single byte."""
    kind = draw(st.sampled_from(["cell", "header", "line", "byte"]))
    lines = body.decode().split("\r\n")
    text = st.text(max_size=6)
    coordinate = st.sampled_from(
        ["nan", "inf", "-inf", "1e400", "-90", "90.0", "-180.5", "181", "",
         " 22.3", "22,3", "0x10", "1_0", "-0.0"]
    )
    if kind == "cell":
        row = draw(st.integers(1, len(lines) - 2))
        cells = lines[row].split(",")
        column = draw(st.integers(0, 2))
        cells[column] = draw(
            st.one_of(text, st.sampled_from(["m0", "m1", '"m,2"', " "]))
            if column == 0 else st.one_of(coordinate, text)
        )
        lines[row] = ",".join(cells)
    elif kind == "header":
        names = lines[0].split(",")
        names[draw(st.integers(0, 2))] = draw(
            st.one_of(st.sampled_from(["meter_id", "lat", "lon", " lat"]), text)
        )
        lines[0] = ",".join(names)
    elif kind == "line":
        row = draw(st.integers(1, len(lines) - 2))
        action = draw(st.sampled_from(["drop", "repeat", "add"]))
        if action == "drop":
            del lines[row]
        elif action == "repeat":
            lines.insert(row, lines[row])
        else:
            lines.insert(row, ",".join(draw(st.lists(text, max_size=4))))
    data = bytearray("\r\n".join(lines).encode())
    if kind == "byte":
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


class TestHostileFiles:
    """What the standard parsers raise on hostile content (an over-long
    CSV field, an infinite integer) becomes a DataError naming the file."""

    @pytest.fixture(scope="class")
    def grid_graph_text(self, tmp_path_factory):
        # a 7-meter grid at 50 m: a partial last row, so vertex 6 has one
        # neighbour and the hop table has more than one level
        path = tmp_path_factory.mktemp("grid") / "graph.json"
        ingest.save_graph(ingest.build_adjacency(ingest.synth_locations(
            ingest.SynthConfig(num_locations=7, num_intervals=1)
        )), path)
        return path.read_text()

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_mutated_graph_loads_or_raises(
        self, tmp_path_factory, grid_graph_text, data
    ):
        path = tmp_path_factory.getbasetemp() / "fuzzed-graph.json"
        payload = json.loads(grid_graph_text)
        path.write_bytes(mutated_graph_bytes(data.draw, payload))
        try:
            graph = ingest.load_graph(path)
        except ParkrankError:
            return
        assert_tables_match_oracles(graph)

    @pytest.fixture(scope="class")
    def saved_matrix(self, tmp_path_factory):
        """The bytes of a saved 3-meter, 6-interval matrix.csv and of its
        sidecar."""
        path = tmp_path_factory.mktemp("matrix") / "matrix.csv"
        cfg = ingest.SynthConfig(num_locations=3, num_intervals=6)
        ingest.save_matrix(ingest.synth_generate(cfg)[1], path)
        sidecar = path.with_name("matrix.meta.json")
        return path.read_bytes(), sidecar.read_bytes()

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_mutated_matrix_loads_or_raises(
        self, tmp_path_factory, saved_matrix, data
    ):
        path = tmp_path_factory.getbasetemp() / "fuzzed" / "matrix.csv"
        path.parent.mkdir(exist_ok=True)
        body, sidecar = mutated_matrix_bytes(data.draw, *saved_matrix)
        path.write_bytes(body)
        path.with_name("matrix.meta.json").write_bytes(sidecar)
        try:
            matrix = ingest.load_matrix(path)
        except ParkrankError:
            return
        again = path.with_name("again.csv")
        ingest.save_matrix(matrix, again)
        assert ingest.load_matrix(again).equals(matrix)

    @pytest.fixture(scope="class")
    def saved_matrices(self, tmp_path_factory):
        """The bytes of saved matrix.csv files and their sidecars: 0, 1
        and 3 meters, and 4 whose ids the header must quote."""
        path = tmp_path_factory.mktemp("matrices") / "matrix.csv"
        rng = np.random.default_rng(5)
        saved = []
        for ids, intervals in [
            ([], 3), (["m0"], 4), (["m0", "m1", "m2"], 6),
            (["a,b", 'say "hi"', "plain", " padded "], 5),
        ]:
            ingest.save_matrix(ingest.OccupancyMatrix(
                states=rng.random((len(ids), intervals)) < 0.5,
                interval_minutes=5,
                start_time=datetime(2022, 8, 1),
                location_index={m: i for i, m in enumerate(ids)},
            ), path)
            sidecar = path.with_name("matrix.meta.json")
            saved.append((path.read_bytes(), sidecar.read_bytes()))
        return saved

    @given(st.data())
    @settings(max_examples=500, deadline=None, derandomize=True)
    def test_matrix_matches_record_loop(
        self, tmp_path_factory, saved_matrices, data
    ):
        path = tmp_path_factory.getbasetemp() / "oracle" / "matrix.csv"
        path.parent.mkdir(exist_ok=True)
        saved = data.draw(st.sampled_from(saved_matrices))
        body, sidecar = mutated_matrix_bytes(data.draw, *saved)
        path.with_name("matrix.meta.json").write_bytes(sidecar)
        path.write_bytes(body)
        got = load_outcome(ingest.load_matrix, path)
        path.write_bytes(stray_bytes_as_cells(body))
        assert got == load_outcome(matrix_oracle.load_matrix, path)

    @pytest.mark.parametrize("body, line, message", [
        ('a,b\r\n0,1\r\n"1",0\r\n', 3, "cells must be 0 or 1"),
        ('a,b\n0,1\n1,"0"', 3, "cells must be 0 or 1"),
        ("a,b\r\n0,1\r\n1,1\r", 3, "cells must be 0 or 1"),
        # the lone "\r" joins two rows into one line
        ("a,b\r\n0,1\r1,1\r\n0,0\r\n", 2, "row width does not match header"),
    ])
    def test_matrix_quoted_cell_or_lone_cr_rejected(
        self, tmp_path, body, line, message
    ):
        path = write_matrix_body(tmp_path, body)
        assert matrix_oracle.load_matrix(path).num_locations == 2
        with pytest.raises(
            ParseError, match=f"matrix.csv: line {line}: {message}"
        ):
            ingest.load_matrix(path)

    @pytest.mark.parametrize("body, message", [
        # the later bad row's bytes lie further from "0,0"
        ("a,b\r\n0,1\r\n0,2\r\n0,x\r\n", "cells must be 0 or 1"),
        ("a,b\r\n0,1\r\n2,0\n0,\n", "cells must be 0 or 1"),
        ("a,b\n1,0\n0,1,\n,\n", "row width does not match header"),
    ])
    def test_matrix_first_bad_row_raises(self, tmp_path, body, message):
        path = write_matrix_body(tmp_path, body)
        want = (ParseError, f"{path}: line 3: {message}", 3)
        assert load_outcome(matrix_oracle.load_matrix, path) == want
        assert load_outcome(ingest.load_matrix, path) == want

    @pytest.fixture(scope="class")
    def saved_locations(self, tmp_path_factory):
        """The bytes of a saved 4-meter locations.csv."""
        path = tmp_path_factory.mktemp("locations") / "locations.csv"
        ingest.save_locations(ingest.synth_locations(
            ingest.SynthConfig(num_locations=4, num_intervals=1)
        ), path)
        return path.read_bytes()

    @given(st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_mutated_locations_load_or_raise(
        self, tmp_path_factory, saved_locations, data
    ):
        path = tmp_path_factory.getbasetemp() / "fuzzed-locations.csv"
        path.write_bytes(mutated_locations_bytes(data.draw, saved_locations))
        try:
            locations = ingest.load_locations(path)
        except ParkrankError:
            return
        again = path.with_name("again-locations.csv")
        ingest.save_locations(locations, again)
        assert ingest.load_locations(again) == locations

    def test_matrix_long_field(self, tmp_path):
        cfg = ingest.SynthConfig(num_locations=3, num_intervals=5)
        path = tmp_path / "matrix.csv"
        ingest.save_matrix(ingest.synth_generate(cfg)[1], path)
        path.write_text("0" * 200_000 + path.read_text()[1:])
        with pytest.raises(DataError, match="matrix.csv: .*field limit"):
            ingest.load_matrix(path)

    def test_graph_infinite_edge(self, tmp_path):
        path = tmp_path / "graph.json"
        path.write_text('{"vertices": [], "edges": [[0, 1e400]]}')
        with pytest.raises(DataError, match="graph.json: .*infinity"):
            ingest.load_graph(path)

    @pytest.mark.parametrize(
        "edge", ["[0, 1.7]", "[false, true]", '["0", 1]', "[0, 1.0]"]
    )
    def test_graph_edge_endpoints_must_be_json_integers(self, tmp_path, edge):
        path = tmp_path / "graph.json"
        vertices = (
            '[{"meter_id": "a", "lat": 22.3, "lon": 114.1}, '
            '{"meter_id": "b", "lat": 22.3, "lon": 114.2}]'
        )
        path.write_text(f'{{"vertices": {vertices}, "edges": [[0, 1]]}}')
        assert ingest.load_graph(path).edges == {(0, 1)}
        path.write_text(f'{{"vertices": {vertices}, "edges": [{edge}]}}')
        with pytest.raises(
            DataError, match="graph.json: edge endpoints must be integers"
        ):
            ingest.load_graph(path)

    @pytest.mark.parametrize(
        "lat, lon",
        [("true", "114.1"), ("22.3", '"114.17"'), ("null", "114.1"),
         ('"22"', "false"), ("[22.3]", "114.1")],
    )
    def test_graph_coordinates_must_be_json_numbers(self, tmp_path, lat, lon):
        path = tmp_path / "graph.json"
        second = '{"meter_id": "b", "lat": 22, "lon": 114.2}'  # int is fine
        path.write_text(
            f'{{"vertices": [{{"meter_id": "a", "lat": 22.3, "lon": 114.1}}, '
            f'{second}], "edges": [[0, 1]]}}'
        )
        assert ingest.load_graph(path).vertices[1].lat == 22.0
        path.write_text(
            f'{{"vertices": [{{"meter_id": "a", "lat": {lat}, "lon": {lon}}}, '
            f'{second}], "edges": [[0, 1]]}}'
        )
        with pytest.raises(
            DataError, match="graph.json: vertex coordinates must be numbers"
        ):
            ingest.load_graph(path)

    def test_locations_long_field(self, tmp_path):
        path = tmp_path / "locations.csv"
        path.write_text(f"meter_id,lat,lon\n{'m' * 200_000},22.3,114.1\n")
        with pytest.raises(DataError, match="locations.csv: .*field limit"):
            ingest.load_locations(path)

    def test_blank_location_row_skipped(self, tmp_path):
        path = tmp_path / "locations.csv"
        path.write_text("meter_id,lat,lon\n,,\nm1,22.3,114.1\n \t, ,\n")
        assert ingest.load_locations(path) == [
            ingest.MeterLocation("m1", 22.3, 114.1)
        ]

    @pytest.mark.parametrize("value", ["2.7", "true", "5.0", '"5"'])
    def test_matrix_interval_must_be_json_integer(self, tmp_path, value):
        cfg = ingest.SynthConfig(num_locations=3, num_intervals=5)
        path = tmp_path / "matrix.csv"
        ingest.save_matrix(ingest.synth_generate(cfg)[1], path)
        meta = tmp_path / "matrix.meta.json"
        key = '"interval_minutes": '
        meta.write_text(meta.read_text().replace(key + "5", key + value))
        with pytest.raises(
            DataError, match="matrix.meta.json: interval_minutes must be an int"
        ):
            ingest.load_matrix(path)

    def test_locations_duplicate_id_names_line(self, tmp_path):
        path = tmp_path / "locations.csv"
        path.write_text(
            "meter_id,lat,lon\nm1,22.3,114.1\nm2,22.3,114.2\nm1,22.4,114.1\n"
        )
        with pytest.raises(
            ParseError, match="locations.csv: line 4: duplicate meter_id 'm1'"
        ):
            ingest.load_locations(path)
