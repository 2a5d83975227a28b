"""Occupancy ingestion: records to matrices, locations to a spatial graph.

Two record layouts are supported. Space records carry one 0/1 state per
meter per timestamp; street records carry (occupied_count, capacity) per
street segment and are binarized with a full-loaded ratio rule. Both are
snapped to a fixed interval grid, gap-filled by carrying the last
observation forward, and meters missing more than a configurable fraction
of the grid are dropped.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import kernels
from .errors import ConfigError, DataError, EmptyDatasetError, ParseError

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
        if self.interval_minutes <= 0:
            raise DataError("interval_minutes must be positive")
        if len(self.location_index) != self.states.shape[0]:
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


@dataclass(frozen=True)
class SpatialGraph:
    """Proximity graph over meter locations.

    Edges are unordered index pairs stored as (i, j) with i < j. The
    adjacency, candidate mask and hop table are derived on first use, once
    per instance, and returned read-only. The hop table stays lazy because
    graph construction runs in every set-up, which must not pay for a BFS.
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
    def _adjacency(self) -> np.ndarray:
        n = self.num_vertices
        adj = np.zeros((n, n), dtype=np.bool_)
        for i, j in self.edges:
            adj[i, j] = True
            adj[j, i] = True
        adj.flags.writeable = False
        return adj

    @functools.cached_property
    def _allowed(self) -> np.ndarray:
        mask = self._adjacency | np.eye(self.num_vertices, dtype=np.bool_)
        mask.flags.writeable = False
        return mask

    @functools.cached_property
    def _hops(self) -> np.ndarray:
        # BFS from every source at once: frontier row s holds the vertices
        # first reached from s at the current depth
        n = self.num_vertices
        frontier = np.eye(n, dtype=np.bool_)
        hops = np.where(frontier, 0, n + 1).astype(np.int64)
        depth = 0
        while frontier.any():
            depth += 1
            frontier = (frontier @ self._adjacency) & (hops > n)
            hops[frontier] = depth
        hops.flags.writeable = False
        return hops

    def adjacency_matrix(self) -> np.ndarray:
        return self._adjacency

    def allowed_mask(self) -> np.ndarray:
        """Candidate mask per query: its neighbors plus the vertex itself."""
        return self._allowed

    def hop_distances(self, source: int) -> np.ndarray:
        """BFS hop counts from source; unreachable vertices get n + 1."""
        return self._hops[source]

    def all_hop_distances(self) -> np.ndarray:
        return self._hops


@dataclass(frozen=True)
class SynthConfig:
    """Settings for the synthetic occupancy generator."""

    num_locations: int
    num_intervals: int
    grid_spacing_m: float = 40.0
    base_occupancy_rate: float = 0.45
    spatial_correlation: float = 0.5
    daily_period_intervals: int = 288
    rng_seed: int = 0

    def __post_init__(self):
        if self.num_locations < 1:
            raise ConfigError("num_locations must be at least 1")
        if self.num_intervals < 1:
            raise ConfigError("num_intervals must be at least 1")
        if self.grid_spacing_m <= 0:
            raise ConfigError("grid_spacing_m must be positive")
        if not (0.0 <= self.base_occupancy_rate <= 1.0):
            raise ConfigError("base_occupancy_rate must be within [0, 1]")
        if not (0.0 <= self.spatial_correlation <= 1.0):
            raise ConfigError("spatial_correlation must be within [0, 1]")
        if self.daily_period_intervals < 1:
            raise ConfigError("daily_period_intervals must be at least 1")


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


def build_adjacency(
    locations: list[MeterLocation], threshold_m: float = DEFAULT_ADJACENCY_M
) -> SpatialGraph:
    """Connect every pair of locations closer than threshold_m meters."""
    if threshold_m <= 0:
        raise ConfigError("threshold_m must be positive")
    seen: set[str] = set()
    for loc in locations:
        if loc.meter_id in seen:
            raise DataError(f"duplicate meter_id {loc.meter_id!r}")
        seen.add(loc.meter_id)
    edges = set()
    for i in range(len(locations)):
        for j in range(i + 1, len(locations)):
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


def _read_header(reader, required: tuple[str, ...]) -> dict[str, int]:
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyDatasetError("empty dataset: no header row") from None
    names = [h.strip() for h in header]
    positions = {}
    for col in required:
        if col not in names:
            raise ParseError(f"missing column {col!r} in header", line=1)
        positions[col] = names.index(col)
    return positions


def _grid_from_observations(
    observations: dict[str, list[tuple[datetime, bool]]],
    interval_minutes: int,
    missing_drop_frac: float,
) -> OccupancyMatrix:
    """Snap (timestamp, state) observations to a grid and gap-fill."""
    start = min(ts for obs in observations.values() for ts, _ in obs)
    step_s = interval_minutes * 60.0
    max_idx = 0
    indexed: dict[str, list[tuple[int, bool]]] = {}
    for meter, obs in observations.items():
        cells = []
        for ts, state in obs:
            idx = int(round((ts - start).total_seconds() / step_s))
            cells.append((idx, state))
            max_idx = max(max_idx, idx)
        indexed[meter] = cells
    num_intervals = max_idx + 1

    kept: dict[str, np.ndarray] = {}
    dropped: list[str] = []
    for meter, cells in indexed.items():
        row = np.zeros(num_intervals, dtype=np.bool_)
        seen = np.zeros(num_intervals, dtype=np.bool_)
        for idx, state in cells:
            row[idx] = state
            seen[idx] = True
        missing = num_intervals - int(seen.sum())
        if missing / num_intervals > missing_drop_frac:
            dropped.append(meter)
            continue
        if missing:
            obs_idx = np.flatnonzero(seen)
            # carry forward; positions before the first observation borrow it
            src = obs_idx[
                np.clip(
                    np.searchsorted(obs_idx, np.arange(num_intervals), "right")
                    - 1,
                    0,
                    obs_idx.size - 1,
                )
            ]
            row = row[src]
        kept[meter] = row

    if dropped:
        log.warning(
            "dropped %d meters over the %.0f%% missing-data rule: %s",
            len(dropped),
            missing_drop_frac * 100,
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


def parse_space_records(
    rows,
    interval_minutes: int = DEFAULT_INTERVAL_MINUTES,
    missing_drop_frac: float = MISSING_DROP_FRAC,
) -> OccupancyMatrix:
    """Parse per-space CSV records: meter_id, timestamp, state(0/1)."""
    reader = csv.reader(rows)
    cols = _read_header(reader, ("meter_id", "timestamp", "state"))
    observations: dict[str, list[tuple[datetime, bool]]] = {}
    for record in reader:
        if not record or all(not cell.strip() for cell in record):
            continue
        line = reader.line_num
        if len(record) <= max(cols.values()):
            raise ParseError("too few fields", line=line)
        meter = record[cols["meter_id"]].strip()
        if not meter:
            raise ParseError("empty meter_id", line=line)
        ts = _parse_timestamp(record[cols["timestamp"]], line)
        state_text = record[cols["state"]].strip()
        if state_text not in ("0", "1"):
            raise ParseError(f"invalid state {state_text!r}", line=line)
        observations.setdefault(meter, []).append((ts, state_text == "1"))
    if not observations:
        raise EmptyDatasetError("empty dataset: no records")
    return _grid_from_observations(
        observations, interval_minutes, missing_drop_frac
    )


def parse_street_records(
    rows,
    full_loaded_ratio: float = DEFAULT_FULL_LOADED_RATIO,
    interval_minutes: int = DEFAULT_INTERVAL_MINUTES,
    missing_drop_frac: float = MISSING_DROP_FRAC,
) -> OccupancyMatrix:
    """Parse per-street CSV records: street_id, timestamp, occupied_count,
    capacity. A street counts as occupied when occupied/capacity exceeds
    the full-loaded ratio (strictly).
    """
    reader = csv.reader(rows)
    cols = _read_header(
        reader, ("street_id", "timestamp", "occupied_count", "capacity")
    )
    observations: dict[str, list[tuple[datetime, bool]]] = {}
    for record in reader:
        if not record or all(not cell.strip() for cell in record):
            continue
        line = reader.line_num
        if len(record) <= max(cols.values()):
            raise ParseError("too few fields", line=line)
        street = record[cols["street_id"]].strip()
        if not street:
            raise ParseError("empty street_id", line=line)
        ts = _parse_timestamp(record[cols["timestamp"]], line)
        try:
            occupied = int(record[cols["occupied_count"]])
            capacity = int(record[cols["capacity"]])
        except ValueError:
            raise ParseError("counts must be integers", line=line) from None
        if capacity <= 0:
            raise ParseError(
                f"capacity must be positive, got {capacity}", line=line
            )
        if occupied < 0:
            raise ParseError(
                f"occupied_count must be non-negative, got {occupied}",
                line=line,
            )
        state = occupied / capacity > full_loaded_ratio
        observations.setdefault(street, []).append((ts, state))
    if not observations:
        raise EmptyDatasetError("empty dataset: no records")
    return _grid_from_observations(
        observations, interval_minutes, missing_drop_frac
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
    adj = np.zeros((m, m), dtype=np.float64)
    for i in range(m):
        r, c = divmod(i, side)
        for dr, dc in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            rr, cc = r + dr, c + dc
            j = rr * side + cc
            if 0 <= rr < side and 0 <= cc < side and j < m:
                adj[i, j] = 1.0

    base = cfg.base_occupancy_rate
    amp = DIURNAL_AMP_FRAC * min(base, 1.0 - base)
    period = cfg.daily_period_intervals
    phase = 2.0 * np.pi * (np.arange(cfg.num_intervals) % period) / period
    sin_mod = amp * np.sin(phase)

    rng = np.random.default_rng(cfg.rng_seed)
    init_u = rng.random(m)
    step_u = rng.random((max(cfg.num_intervals - 1, 0), m))
    if cfg.num_intervals == 1:
        states = (init_u < base)[:, None]
    else:
        states = kernels.markov_occupancy(
            init_u,
            step_u,
            sin_mod,
            adj,
            adj.sum(axis=1),
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


MATRIX_CELLS = frozenset(("0", "1"))


def _meta_path(csv_path: Path) -> Path:
    return csv_path.with_name(csv_path.stem + ".meta.json")


def save_matrix(matrix: OccupancyMatrix, csv_path) -> None:
    """Write the matrix as CSV (one row per interval) plus a JSON sidecar."""
    csv_path = Path(csv_path)
    with csv_path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(matrix.meter_ids)
        for t in range(matrix.num_intervals):
            writer.writerow(
                ["1" if v else "0" for v in matrix.states[:, t]]
            )
    meta = {
        "interval_minutes": matrix.interval_minutes,
        "start_time": matrix.start_time.isoformat(),
    }
    _meta_path(csv_path).write_text(
        json.dumps(meta, sort_keys=True, indent=2) + "\n"
    )


def load_matrix(csv_path) -> OccupancyMatrix:
    csv_path = Path(csv_path)
    meta_path = _meta_path(csv_path)
    if not csv_path.exists():
        raise DataError(f"matrix file not found: {csv_path}")
    if not meta_path.exists():
        raise DataError(f"matrix sidecar not found: {meta_path}")
    try:
        meta = json.loads(meta_path.read_text())
        interval_minutes = int(meta["interval_minutes"])
        start_time = datetime.fromisoformat(meta["start_time"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{meta_path}: bad matrix sidecar: {exc}") from None
    try:
        with csv_path.open(newline="") as fh:
            reader = csv.reader(fh)
            try:
                meter_ids = next(reader)
            except StopIteration:
                raise EmptyDatasetError("empty matrix file") from None
            rows = []  # one "0"/"1" string per interval
            for record in reader:
                if len(record) != len(meter_ids):
                    raise ParseError(
                        f"row width does not match header in {csv_path}",
                        line=reader.line_num,
                    )
                if not set(record) <= MATRIX_CELLS:
                    raise ParseError(
                        f"cells must be 0 or 1 in {csv_path}",
                        line=reader.line_num,
                    )
                rows.append("".join(record))
    except UnicodeDecodeError:
        raise DataError(f"{csv_path}: undecodable bytes") from None
    if not rows:
        raise EmptyDatasetError("matrix file has no interval rows")
    cells = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    states = (cells.reshape(len(rows), len(meter_ids)) == ord("1")).T
    return OccupancyMatrix(
        states=states,
        interval_minutes=interval_minutes,
        start_time=start_time,
        location_index={m: i for i, m in enumerate(meter_ids)},
    )


def save_graph(graph: SpatialGraph, path) -> None:
    payload = {
        "vertices": [
            {"meter_id": v.meter_id, "lat": v.lat, "lon": v.lon}
            for v in graph.vertices
        ],
        "edges": sorted([list(e) for e in graph.edges]),
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def load_graph(path) -> SpatialGraph:
    path = Path(path)
    if not path.exists():
        raise DataError(f"graph file not found: {path}")
    try:
        payload = json.loads(path.read_text())
        vertices = tuple(
            MeterLocation(v["meter_id"], float(v["lat"]), float(v["lon"]))
            for v in payload["vertices"]
        )
        edges = frozenset((int(i), int(j)) for i, j in payload["edges"])
        return SpatialGraph(vertices=vertices, edges=edges)
    except (KeyError, TypeError, ValueError, DataError) as exc:
        raise DataError(f"{path}: bad graph file: {exc}") from None


def save_locations(locations: list[MeterLocation], path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["meter_id", "lat", "lon"])
        for loc in locations:
            writer.writerow([loc.meter_id, repr(loc.lat), repr(loc.lon)])


def load_locations(path) -> list[MeterLocation]:
    path = Path(path)
    if not path.exists():
        raise DataError(f"locations file not found: {path}")
    try:
        with path.open(newline="") as fh:
            reader = csv.reader(fh)
            cols = _read_header(reader, ("meter_id", "lat", "lon"))
            out = []
            for record in reader:
                if not record:
                    continue
                line = reader.line_num
                try:
                    lat = float(record[cols["lat"]])
                    lon = float(record[cols["lon"]])
                except (ValueError, IndexError):
                    raise ParseError("invalid coordinate", line=line) from None
                out.append(MeterLocation(record[cols["meter_id"]], lat, lon))
    except UnicodeDecodeError:
        raise DataError(f"{path}: undecodable bytes") from None
    except DataError as exc:
        raise exc.in_file(path) from None
    if not out:
        raise EmptyDatasetError(f"{path}: locations file has no rows")
    return out
