"""Occupancy ingestion: records to matrices, locations to a spatial graph.

Two record layouts are supported. Space records carry one 0/1 state per
meter per timestamp; street records carry (occupied_count, capacity) per
street segment and are binarized with a full-loaded ratio rule. Both are
snapped to a fixed interval grid, gap-filled by carrying the last
observation forward, and meters missing more than MISSING_DROP_FRAC of
the grid are dropped. Each loader parses its file inside errors.reading,
so any read or parse failure is a DataError that names the file once.
Every output file, here and in the other modules, is written through
write_json or write_csv, which fix its format.
"""

from __future__ import annotations

import csv
import functools
import itertools
import json
import logging
import math
import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

from . import kernels
from .errors import (
    ConfigError, DataError, EmptyDatasetError, ParseError, reading
)

log = logging.getLogger(__name__)

EARTH_RADIUS_M = 6_371_000.0
DEFAULT_INTERVAL_MINUTES = 5
DEFAULT_ADJACENCY_M = 50.0
DEFAULT_FULL_LOADED_RATIO = 0.90
MISSING_DROP_FRAC = 0.10

# Synthetic generator anchor: a Monday midnight, so scenario slices over a
# couple of weeks contain both workdays and weekends.
SYNTH_START = datetime(2022, 8, 1, 0, 0)
SYNTH_BASE_LAT = 22.30
SYNTH_BASE_LON = 114.17

# Turnover dynamics of the generator. The switch hazard rises with the age
# of the current run (stale spots turn over sooner), which keeps run
# lengths short and gives the event history predictive value beyond the
# current state alone.
TURNOVER_RATE = 0.30
HAZARD_BASE = 0.55
HAZARD_SLOPE = 0.30
HAZARD_MAX = 2.2
SWITCH_CAP = 0.95
DIURNAL_AMP_FRAC = 0.5


@dataclass(frozen=True)
class MeterLocation:
    """One metered parking space with WGS84 coordinates."""

    meter_id: str
    lat: float
    lon: float

    def __post_init__(self):
        if not self.meter_id:
            raise DataError("meter_id must be non-empty")
        if not (-90.0 <= self.lat <= 90.0):
            raise DataError(f"latitude {self.lat!r} outside [-90, 90]")
        if not (-180.0 <= self.lon <= 180.0):
            raise DataError(f"longitude {self.lon!r} outside [-180, 180]")


@dataclass
class OccupancyMatrix:
    """Boolean occupancy per location per interval; True means occupied.

    Rows follow ``location_index`` order. ``dropped_meters`` lists ids
    removed by the missing-data rule during parsing.
    """

    states: np.ndarray
    interval_minutes: int
    start_time: datetime
    location_index: dict[str, int]
    dropped_meters: tuple[str, ...] = ()

    def __post_init__(self):
        self.states = np.ascontiguousarray(self.states, dtype=np.bool_)
        if self.states.ndim != 2:
            raise DataError("states must be a 2-D matrix")
        m, n = self.states.shape
        if self.interval_minutes <= 0:
            raise DataError("interval_minutes must be positive")
        try:  # the last interval a datetime, so clock products fit int64
            step = timedelta(minutes=self.interval_minutes)
            self.start_time + step * max(n - 1, 0)
        except OverflowError:
            raise DataError(
                f"the last of {n} intervals of {self.interval_minutes} "
                f"minutes from {self.start_time} is past the calendar"
            ) from None
        if len(self.location_index) != m:
            raise DataError(
                "location_index size does not match the number of rows"
            )

    @property
    def num_locations(self) -> int:
        return self.states.shape[0]

    @property
    def num_intervals(self) -> int:
        return self.states.shape[1]

    @property
    def meter_ids(self) -> list[str]:
        return list(self.location_index)

    def equals(self, other: "OccupancyMatrix") -> bool:
        return (
            np.array_equal(self.states, other.states)
            and self.interval_minutes == other.interval_minutes
            and self.start_time == other.start_time
            and self.location_index == other.location_index
        )


def check_times(times, num_intervals: int, name: str = "time") -> np.ndarray:
    """times as an array, each an interval of an [n, num_intervals]
    matrix; else a DataError names the first entry of a non-integer dtype
    (bool too) or the first entry outside. The run table, both baselines,
    the waiting-time metric and recommend read their times through it, and
    SpatialGraph.hop_distances its vertex."""
    t = np.asarray(times)
    if t.size and t.dtype.kind not in "iu":
        raise DataError(f"{name} must be an integer, got {t.ravel()[0]}")
    if t.min(initial=0) < 0 or t.max(initial=0) >= num_intervals:
        raise DataError(
            f"{name} must lie in [0, {num_intervals}), got "
            f"{t.ravel()[np.argmax((t < 0) | (t >= num_intervals))]}"
        )
    return t


@dataclass(frozen=True)
class SpatialGraph:
    """Proximity graph over meter locations.

    Edges are unordered index pairs stored as (i, j) with i < j. The
    candidate mask, allowed pairs, their slot layout and the hop table all
    derive from this edge list on first use, once per instance, and are returned read-only. The
    hop table stays lazy because graph construction runs in every set-up,
    which must not pay for a BFS.
    """

    vertices: tuple[MeterLocation, ...]
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        n = len(self.vertices)
        for i, j in self.edges:
            if not (0 <= i < j < n):
                raise DataError(f"edge ({i}, {j}) is not a valid ordered pair")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @functools.cached_property
    def _allowed(self) -> np.ndarray:
        mask = np.eye(self.num_vertices, dtype=np.bool_)
        i, j = np.array(sorted(self.edges), dtype=np.int64).reshape(-1, 2).T
        mask[np.r_[i, j], np.r_[j, i]] = True
        mask.flags.writeable = False
        return mask

    @functools.cached_property
    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        pairs = np.nonzero(self._allowed)
        for index in pairs:
            index.flags.writeable = False
        return pairs

    @functools.cached_property
    def _slots(self) -> tuple[np.ndarray, int, np.ndarray]:
        src, dst = self._pairs
        size = np.bincount(src, minlength=self.num_vertices)
        width = int(size.max(initial=1))
        # the pairs run row-major, so q's own pair moves to the front and
        # its neighbors below q one slot up
        slot = np.arange(len(src)) - (np.cumsum(size) - size)[src]
        slot += dst < src
        slot[src == dst] = 0
        cell = src * width + slot
        for array in (size, cell):
            array.flags.writeable = False
        return size, width, cell

    @functools.cached_property
    def _hops(self) -> np.ndarray:
        # BFS from every source at once over the cells source * n + vertex:
        # each level expands its cells over their vertex's pair slots (the
        # padding is the vertex itself, reached at depth 0), and a bool mark
        # drops repeats and reached cells, so each cell expands once: O(n E)
        n = self.num_vertices
        _, width, cell = self._slots
        table = np.repeat(np.arange(n), width)
        table[cell] = self._pairs[1]
        table = table.reshape(n, width)
        hops = np.full(n * n, n + 1, dtype=np.int64)
        mark = np.zeros(n * n, dtype=np.bool_)
        frontier = np.arange(n) * (n + 1)
        depth = 0
        while frontier.size:
            hops[frontier] = depth
            depth += 1
            vertex = frontier % n
            cells = (frontier - vertex)[:, np.newaxis] + table[vertex]
            mark[cells[hops[cells] > n]] = True
            frontier = np.flatnonzero(mark)
            mark[frontier] = False
        hops = hops.reshape(n, n)
        hops.flags.writeable = False
        return hops

    def allowed_mask(self) -> np.ndarray:
        """Candidate mask per query: its neighbors plus the vertex itself."""
        return self._allowed

    def allowed_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(query, candidate) indices of the allowed pairs, row-major."""
        return self._pairs

    def pair_slots(self) -> tuple[np.ndarray, int, np.ndarray]:
        """The allowed pairs laid out as [n, K] slots, K the largest
        neighborhood: row q holds q's candidates in (hop, id) order, itself
        first and then its neighbors by id; the rest are padding. Gives
        ([n] neighborhood sizes, K, [pairs] flat cell of each pair)."""
        return self._slots

    def hop_distances(self, source: int) -> np.ndarray:
        """BFS hop counts from source; unreachable vertices get n + 1."""
        if check_times(source, self.num_vertices, "vertex").ndim:
            raise DataError(f"vertex must be a single integer, got {source}")
        return self._hops[int(source)]

    def all_hop_distances(self) -> np.ndarray:
        return self._hops


@dataclass(frozen=True)
class SynthConfig:
    """Settings for the synthetic occupancy generator; its diurnal period
    is one day of the DEFAULT_INTERVAL_MINUTES intervals it stamps."""

    num_locations: int
    num_intervals: int
    grid_spacing_m: float = 40.0
    base_occupancy_rate: float = 0.45
    spatial_correlation: float = 0.5
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_locations < 1:
            raise ConfigError("num_locations must be at least 1")
        if self.num_intervals < 1:
            raise ConfigError("num_intervals must be at least 1")
        if not 0.0 < self.grid_spacing_m < math.inf:
            raise ConfigError("grid_spacing_m must be finite and positive")
        if not (0.0 <= self.base_occupancy_rate <= 1.0):
            raise ConfigError("base_occupancy_rate must be within [0, 1]")
        if not (0.0 <= self.spatial_correlation <= 1.0):
            raise ConfigError("spatial_correlation must be within [0, 1]")
        if self.rng_seed < 0:
            raise ConfigError("rng_seed must be non-negative")


def haversine_distance(a: MeterLocation, b: MeterLocation) -> float:
    """Great-circle distance between two locations in meters."""
    phi1 = math.radians(a.lat)
    phi2 = math.radians(b.lat)
    dphi = math.radians(b.lat - a.lat)
    dlmb = math.radians(b.lon - a.lon)
    h = (
        math.sin(dphi / 2.0) ** 2
        + math.cos(phi1) * math.cos(phi2) * math.sin(dlmb / 2.0) ** 2
    )
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


# The adjacency cubes are CELL_SLACK times wider than the chord bound needs,
# plus CELL_MIN_RAD, both far above the rounding in the unit vectors and in
# haversine_distance, so no pair the scalar distance keeps is dropped.
CELL_SLACK = 1.01
CELL_MIN_RAD = 1e-12

# the 13 of a cube's 26 neighbours that come after it, so each pair of
# cubes is visited once
FORWARD = [d for d in itertools.product((-1, 0, 1), repeat=3) if d > (0, 0, 0)]


def build_adjacency(
    locations: list[MeterLocation], threshold_m: float = DEFAULT_ADJACENCY_M
) -> SpatialGraph:
    """Connect every pair of locations closer than threshold_m meters.

    Only pairs in the same or adjacent cubes are measured. Each location
    maps to its unit vector, in cubes reach = threshold_m / EARTH_RADIUS_M
    wide: a chord is never longer than its arc, so a pair closer than
    R * reach differs by less than reach on every axis. This holds at the
    poles and across +-180 degrees alike. haversine_distance measures each
    such pair, lower index first, as an all-pairs loop would, so the edges
    are the same.
    """
    if not 0.0 < threshold_m < math.inf:
        raise ConfigError(
            f"threshold_m must be finite and positive, got {threshold_m!r}"
        )
    seen: set[str] = set()
    for loc in locations:
        if loc.meter_id in seen:
            raise DataError(f"duplicate meter_id {loc.meter_id!r}")
        seen.add(loc.meter_id)
    lat = np.radians([loc.lat for loc in locations]).reshape(-1, 1)
    lon = np.radians([loc.lon for loc in locations]).reshape(-1, 1)
    unit = np.hstack([np.cos(lat) * np.cos(lon), np.cos(lat) * np.sin(lon),
                      np.sin(lat)])
    reach = threshold_m / EARTH_RADIUS_M * CELL_SLACK + CELL_MIN_RAD
    cubes: dict[tuple[int, ...], list[int]] = {}
    for i, cube in enumerate(np.floor(unit / reach).astype(np.int64).tolist()):
        cubes.setdefault(tuple(cube), []).append(i)
    edges = set()
    for (x, y, z), here in cubes.items():
        there = [j for dx, dy, dz in FORWARD
                 for j in cubes.get((x + dx, y + dy, z + dz), ())]
        # each pair is tested as it comes: a stored list of pair tuples
        # wakes the garbage collector, which then costs more than the search
        for i, j in itertools.chain(itertools.combinations(here, 2),
                                    itertools.product(here, there)):
            if i > j:
                i, j = j, i
            if haversine_distance(locations[i], locations[j]) < threshold_m:
                edges.add((i, j))
    return SpatialGraph(vertices=tuple(locations), edges=frozenset(edges))


# ---------------------------------------------------------------------------
# record parsing
# ---------------------------------------------------------------------------


def _parse_timestamp(text: str, line: int) -> datetime:
    raw = text.strip()
    try:
        ts = datetime.fromisoformat(raw.replace("Z", "+00:00"))
    except ValueError:
        raise ParseError(f"invalid timestamp {raw!r}", line=line) from None
    if ts.tzinfo is not None:
        ts = ts.astimezone(timezone.utc).replace(tzinfo=None)
    return ts


def _records(rows, required: tuple[str, ...]):
    """Yield (line, {column: cell}) for each record of a CSV whose header
    row names the required columns; all-blank rows are skipped."""
    reader = csv.reader(rows)
    header = next(reader, None)
    if header is None:
        raise EmptyDatasetError("empty dataset: no header row")
    names = [h.strip() for h in header]
    for col in required:
        if col not in names:
            raise ParseError(f"missing column {col!r} in header", line=1)
    positions = {col: names.index(col) for col in required}
    width = max(positions.values())
    for record in reader:
        if all(not cell.strip() for cell in record):
            continue
        if len(record) <= width:
            raise ParseError("too few fields", line=reader.line_num)
        yield reader.line_num, {c: record[i] for c, i in positions.items()}


def _matrix_from_observations(
    observations: dict[str, list[tuple[datetime, bool]]], interval_minutes: int
) -> OccupancyMatrix:
    """Snap (timestamp, state) observations to a grid and gap-fill."""
    if interval_minutes < 1:
        raise ConfigError(
            f"interval_minutes must be at least 1, got {interval_minutes}"
        )
    if not observations:
        raise EmptyDatasetError("empty dataset: no records")
    start = min(ts for obs in observations.values() for ts, _ in obs)
    step_s = interval_minutes * 60.0
    # interval -> state per meter; a later record for the same cell wins
    cells = {
        meter: {
            int(round((ts - start).total_seconds() / step_s)): state
            for ts, state in obs
        }
        for meter, obs in observations.items()
    }
    num_intervals = 1 + max(max(by_idx) for by_idx in cells.values())

    kept: dict[str, np.ndarray] = {}
    dropped: list[str] = []
    for meter, by_idx in cells.items():
        missing = num_intervals - len(by_idx)
        if missing / num_intervals > MISSING_DROP_FRAC:
            dropped.append(meter)
            continue
        obs_idx, states = zip(*sorted(by_idx.items()))
        # carry forward; positions before the first observation borrow it
        src = np.searchsorted(obs_idx, np.arange(num_intervals), "right") - 1
        kept[meter] = np.array(states, dtype=np.bool_)[np.maximum(src, 0)]

    if dropped:
        log.warning(
            "dropped %d meters over the %.0f%% missing-data rule: %s",
            len(dropped),
            MISSING_DROP_FRAC * 100,
            ", ".join(dropped),
        )
    if not kept:
        raise EmptyDatasetError(
            "empty dataset: every meter exceeded the missing-data limit"
        )
    states = np.stack([kept[m] for m in kept])
    return OccupancyMatrix(
        states=states,
        interval_minutes=interval_minutes,
        start_time=start,
        location_index={m: i for i, m in enumerate(kept)},
        dropped_meters=tuple(dropped),
    )


def _parse_records(rows, columns, state_of, interval_minutes):
    """The record loop of both layouts: columns[0] holds the id, and
    state_of(record, line) reads the state once the id and time pass."""
    observations: dict[str, list[tuple[datetime, bool]]] = {}
    for line, rec in _records(rows, columns):
        key = rec[columns[0]].strip()
        if not key:
            raise ParseError(f"empty {columns[0]}", line=line)
        ts = _parse_timestamp(rec["timestamp"], line)
        observations.setdefault(key, []).append((ts, state_of(rec, line)))
    return _matrix_from_observations(observations, interval_minutes)


def _space_state(rec, line) -> bool:
    state_text = rec["state"].strip()
    if state_text not in ("0", "1"):
        raise ParseError(f"invalid state {state_text!r}", line=line)
    return state_text == "1"


def parse_space_records(
    rows,
    interval_minutes: int = DEFAULT_INTERVAL_MINUTES,
) -> OccupancyMatrix:
    """Parse per-space CSV records: meter_id, timestamp, state(0/1)."""
    return _parse_records(
        rows, ("meter_id", "timestamp", "state"), _space_state,
        interval_minutes,
    )


def parse_street_records(
    rows,
    full_loaded_ratio: float = DEFAULT_FULL_LOADED_RATIO,
    interval_minutes: int = DEFAULT_INTERVAL_MINUTES,
) -> OccupancyMatrix:
    """Parse per-street CSV records: street_id, timestamp, occupied_count,
    capacity. A street counts as occupied when occupied/capacity exceeds
    the full-loaded ratio (strictly), which must lie in [0, 1].
    """
    if not 0.0 <= full_loaded_ratio <= 1.0:
        raise ConfigError(
            f"full_loaded_ratio must lie in [0, 1], got {full_loaded_ratio!r}"
        )

    def street_state(rec, line) -> bool:
        # ASCII digits and a sign: int() also takes "1_0" and "\u0661"
        counts = [rec[k].strip() for k in ("occupied_count", "capacity")]
        digits = [c.removeprefix("-") for c in counts]
        if not all(d.isascii() and d.isdigit() for d in digits):
            raise ParseError("counts must be integers", line=line)
        occupied, capacity = map(int, counts)
        if capacity <= 0:
            raise ParseError(
                f"capacity must be positive, got {capacity}", line=line
            )
        if occupied < 0:
            raise ParseError(
                f"occupied_count must be non-negative, got {occupied}",
                line=line,
            )
        return occupied / capacity > full_loaded_ratio

    return _parse_records(
        rows, ("street_id", "timestamp", "occupied_count", "capacity"),
        street_state, interval_minutes,
    )


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


def synth_locations(cfg: SynthConfig) -> list[MeterLocation]:
    """Locations on a square grid spaced grid_spacing_m apart."""
    side = math.ceil(math.sqrt(cfg.num_locations))
    dlat = cfg.grid_spacing_m / 111_320.0
    dlon = cfg.grid_spacing_m / (
        111_320.0 * math.cos(math.radians(SYNTH_BASE_LAT))
    )
    out = []
    for i in range(cfg.num_locations):
        r, c = divmod(i, side)
        out.append(
            MeterLocation(
                meter_id=f"m{i:03d}",
                lat=SYNTH_BASE_LAT + r * dlat,
                lon=SYNTH_BASE_LON + c * dlon,
            )
        )
    return out


def synth_generate(cfg: SynthConfig) -> tuple[list[MeterLocation], OccupancyMatrix]:
    """Generate grid locations plus a correlated occupancy matrix.

    Occupancy follows a two-state switching chain whose target rate blends
    a diurnal sinusoid with the neighbor mean of the previous interval at
    strength ``spatial_correlation``; the switch hazard rises with run age.
    """
    locations = synth_locations(cfg)
    side = math.ceil(math.sqrt(cfg.num_locations))
    m = cfg.num_locations
    # generator neighbours: the grid cells one step up, down, left or
    # right, padded with m; the last grid row may be partial
    r, c = np.divmod(np.arange(m), side)
    rr = np.stack([r - 1, r + 1, r, r], axis=1)
    cc = np.stack([c, c, c - 1, c + 1], axis=1)
    cell = rr * side + cc
    inside = (0 <= cc) & (cc < side) & (0 <= cell) & (cell < m)
    neighbors = np.where(inside, cell, m)

    base = cfg.base_occupancy_rate
    amp = DIURNAL_AMP_FRAC * min(base, 1.0 - base)
    period = 24 * 60 // DEFAULT_INTERVAL_MINUTES
    phase = 2.0 * np.pi * (np.arange(cfg.num_intervals) % period) / period
    sin_mod = amp * np.sin(phase)

    rng = np.random.default_rng(cfg.rng_seed)
    init_u = rng.random(m)
    step_u = rng.random((cfg.num_intervals - 1, m))
    states = kernels.markov_occupancy(
        init_u,
        step_u,
        sin_mod,
        neighbors,
        base,
        cfg.spatial_correlation,
        TURNOVER_RATE,
        HAZARD_BASE,
        HAZARD_SLOPE,
        HAZARD_MAX,
        SWITCH_CAP,
    )
    matrix = OccupancyMatrix(
        states=states,
        interval_minutes=DEFAULT_INTERVAL_MINUTES,
        start_time=SYNTH_START,
        location_index={loc.meter_id: i for i, loc in enumerate(locations)},
    )
    return locations, matrix


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _meta_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".meta.json")


def json_text(payload) -> str:
    """payload as every JSON output holds it: sorted keys, indent 2."""
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def json_is(kind: type, *values) -> bool:
    """Whether each JSON value reads as kind: true is no int, an int a float."""
    kinds = (int, float) if kind is float else (kind,)
    return all(type(v) in kinds for v in values)


def write_json(path, payload) -> None:
    Path(path).write_text(json_text(payload))


def write_csv(path, header, rows) -> None:
    """Rows under a header, in the csv module's dialect (floats as repr)."""
    with Path(path).open("w", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])


def save_matrix(matrix: OccupancyMatrix, csv_path) -> None:
    """Write the matrix as CSV (one row per interval) plus a JSON sidecar;
    the body is encoded in one pass, the reverse of load_matrix."""
    csv_path = Path(csv_path)
    write_csv(csv_path, matrix.meter_ids, ())  # the dialect quotes ids
    n, t = matrix.states.shape
    # each row: n digits between commas (none if n is 0), then the
    # dialect's "\r\n"
    body = np.full((t, max(2 * n + 1, 2)), ord(","), dtype=np.uint8)
    body[:, : 2 * n : 2] = np.where(matrix.states.T, ord("1"), ord("0"))
    body[:, -2:] = (ord("\r"), ord("\n"))
    with csv_path.open("ab") as fh:
        fh.write(body.tobytes())
    write_json(_meta_path(csv_path), {
        "interval_minutes": matrix.interval_minutes,
        "start_time": matrix.start_time.isoformat(),
    })


# a line as a file opened with newline="" yields it
LINE = re.compile(r"[^\r\n]*(?:\r\n|\r|\n)|[^\r\n]+")
# a quote or a lone "\r" in a row is a byte like any other that is no cell
STRAY = str.maketrans('"\r', "??")


def load_matrix(csv_path) -> OccupancyMatrix:
    """The matrix save_matrix wrote: a header of meter ids in the csv
    dialect, then one row per interval of n 0/1 cells between commas, each
    ending in "\r\n" or "\n" (the last may have none). The rows are read
    in one numpy pass, and the first bad one raises."""
    csv_path = Path(csv_path)
    with reading(csv_path), csv_path.open(newline="") as fh:
        raw = fh.buffer.read()
        text = raw.decode(fh.encoding)
        # the header through csv, which unquotes ids
        reader = csv.reader(m.group() for m in LINE.finditer(text))
        meter_ids = next(reader, None)
        if meter_ids is None:
            raise EmptyDatasetError("empty file")
        index = {m: i for i, m in enumerate(meter_ids)}
        dup = [m for i, m in enumerate(meter_ids) if index[m] != i]
        if dup:
            raise DataError(f"duplicate meter id {dup[0]!r}")
        head = 0  # where the header's last line ends
        for _ in range(reader.line_num):
            head = LINE.match(text, head).end()
        body = np.frombuffer(
            raw, dtype=np.uint8, offset=len(text[:head].encode(fh.encoding))
        )
        cells = _matrix_rows(
            body, len(meter_ids), reader.line_num, fh.encoding
        )
    meta_path = _meta_path(csv_path)
    with reading(meta_path):
        meta = json.loads(meta_path.read_text())
        interval_minutes = meta["interval_minutes"]
        if not json_is(int, interval_minutes):
            raise DataError(
                f"interval_minutes must be an integer, got {interval_minutes!r}"
            )
        return OccupancyMatrix(
            states=(cells[:, ::2] == ord("1")).T,
            interval_minutes=interval_minutes,
            start_time=datetime.fromisoformat(meta["start_time"]),
            location_index=index,
        )


def _matrix_rows(body, n: int, header_lines: int, encoding) -> np.ndarray:
    """The rows of a matrix body (uint8) as [rows, 2n - 1] bytes: the cells
    with commas between them. Else a ParseError names the first bad row
    by its line, counted after header_lines, with the error a csv loop
    gives there: its width first, then its cells."""
    ends = np.r_[np.flatnonzero(body == ord("\n")), body.size]
    starts = np.r_[0, ends[:-1] + 1]
    # the body's end closes a last row with no line end, and no row after
    # a final line end
    count = starts.size - int(starts[-1] == body.size)
    starts, ends = starts[:count], ends[:count]
    if not count:
        raise EmptyDatasetError("no interval rows")
    # a "\r" just before a "\n" is part of the line end
    cr = (ends > starts) & (ends < body.size) & (body[ends - 1] == ord("\r"))
    stops = ends - cr
    width = max(2 * n - 1, 0)
    # the rows before the first of another width, gathered from the
    # windows of width bytes at each offset; no window read runs past the
    # body, since each of these rows lies inside it
    regular = int(np.argmax(np.r_[stops - starts != width, True]))
    windows = np.lib.stride_tricks.as_strided(
        body, (body.size, width), (1, 1), writeable=False
    )
    cells = windows[starts[:regular]]
    # a valid row XORed with "0,0,...,0" is 0 or 1 at each cell and 0 at
    # each comma
    zeros = np.full(width, ord(","), dtype=np.uint8)
    zeros[::2] = ord("0")
    bad = ((cells ^ zeros) > (np.arange(width) % 2 == 0)).any(axis=1)
    first = int(np.argmax(np.r_[bad, True]))  # regular if every row passed
    if first < count:
        # csv splits the row and minds its field size limit
        raise ParseError(
            "row width does not match header"
            if len(next(csv.reader([
                body[starts[first]: stops[first]].tobytes().decode(encoding)
                .translate(STRAY)
            ]))) != n
            else "cells must be 0 or 1",
            line=header_lines + 1 + first,
        )
    return cells


def save_graph(graph: SpatialGraph, path) -> None:
    write_json(path, {
        "vertices": [
            {"meter_id": v.meter_id, "lat": v.lat, "lon": v.lon}
            for v in graph.vertices
        ],
        "edges": sorted(map(list, graph.edges)),
    })


def load_graph(path) -> SpatialGraph:
    with reading(path):
        payload = json.loads(Path(path).read_text())
        bad = [
            v for v in payload["vertices"]
            if not json_is(float, v["lat"], v["lon"])
        ]
        if bad:
            raise DataError(f"vertex coordinates must be numbers: {bad[0]}")
        vertices = tuple(
            MeterLocation(v["meter_id"], float(v["lat"]), float(v["lon"]))
            for v in payload["vertices"]
        )
        edges = frozenset((int(i), int(j)) for i, j in payload["edges"])
        # after int(), which reports 1e400 as infinity
        bad = [e for e in payload["edges"] if not json_is(int, *e)]
        if bad:
            raise DataError(f"edge endpoints must be integers: {bad[0]}")
        return SpatialGraph(vertices=vertices, edges=edges)


def save_locations(locations: list[MeterLocation], path) -> None:
    write_csv(path, ("meter_id", "lat", "lon"),
              ((v.meter_id, v.lat, v.lon) for v in locations))


def load_locations(path) -> list[MeterLocation]:
    """The located meters of a meter_id,lat,lon CSV, in file order; a
    meter_id listed twice is an error naming its second line."""
    with reading(path), Path(path).open(newline="") as fh:
        by_id: dict[str, MeterLocation] = {}
        for line, rec in _records(fh, ("meter_id", "lat", "lon")):
            meter = rec["meter_id"]
            if meter in by_id:
                raise ParseError(f"duplicate meter_id {meter!r}", line=line)
            try:
                lat = float(rec["lat"])
                lon = float(rec["lon"])
            except ValueError:
                raise ParseError("invalid coordinate", line=line) from None
            by_id[meter] = MeterLocation(meter, lat, lon)
        if not by_id:
            raise EmptyDatasetError("locations file has no rows")
    return list(by_id.values())
