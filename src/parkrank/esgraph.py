"""Turnover-event graph: occupancy rows contracted into event paths.

A row of the occupancy matrix is a path of per-interval cells. Contracting
every maximal constant run into a single node turns it into an event path:
the completed runs become (state, duration) turnover events and the final
run becomes the current state with its age. ``RunTable`` holds these
paths for every meter at once and serves the newest events at any
reference interval, so downstream consumers read at most a fixed number of
events per vertex instead of scanning raw cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .errors import ConfigError, DataError
from .ingest import OccupancyMatrix


@dataclass(frozen=True)
class EventPath:
    """Contracted history of one location up to a reference interval.

    ``events`` holds completed runs oldest first as (state, duration);
    consecutive events always alternate state, durations are positive, and
    the newest event's state differs from ``current_state``.
    """

    events: tuple[tuple[bool, int], ...]
    current_state: bool
    current_duration: int
    reference_time: int

    def __post_init__(self):
        if self.current_duration < 1:
            raise DataError("current_duration must be at least 1")
        if self.reference_time < 0:
            raise DataError("reference_time must be non-negative")
        prev: Optional[bool] = None
        for state, duration in self.events:
            if duration < 1:
                raise DataError("event durations must be positive")
            if prev is not None and state == prev:
                raise DataError("adjacent events must alternate state")
            prev = state
        if prev is not None and prev == self.current_state:
            raise DataError("newest event must differ from current state")

    @property
    def num_events(self) -> int:
        return len(self.events)

    @property
    def total_length(self) -> int:
        return sum(d for _, d in self.events) + self.current_duration

    def expand(self) -> np.ndarray:
        """Reconstruct the raw boolean sequence this path was built from."""
        parts = [
            np.full(duration, state, dtype=np.bool_)
            for state, duration in self.events
        ]
        parts.append(
            np.full(self.current_duration, self.current_state, dtype=np.bool_)
        )
        return np.concatenate(parts)


@dataclass(frozen=True)
class EventWindow:
    """Newest events per vertex as signed durations, vacant positive.

    ``signed_durations[i]`` lists up to ``alpha`` completed events of
    vertex i oldest first, zero-padded on the oldest side;
    ``current_signed_duration[i]`` is the signed age of the ongoing run.
    """

    signed_durations: np.ndarray
    current_signed_duration: np.ndarray
    alpha: int

    def __post_init__(self):
        if self.signed_durations.shape != (
            self.current_signed_duration.shape[0],
            self.alpha,
        ):
            raise DataError("window shape does not match alpha")

    @property
    def num_vertices(self) -> int:
        return self.signed_durations.shape[0]


@dataclass(frozen=True)
class ComplexityReport:
    """Size and touch counts of the event graph versus the raw cell grid.

    Task 1 is a full-history scan; task 2 reads a fixed number of newest
    events per vertex. Step counts are the entries each representation has
    to touch.
    """

    num_locations: int
    num_intervals: int
    alpha: int
    stgraph_cells: int
    esgraph_nodes: int
    esgraph_edges: int
    task1_steps_st: int
    task1_steps_es: int
    task2_steps_st: int
    task2_steps_es: int

    def as_dict(self) -> dict:
        return {
            "num_locations": self.num_locations,
            "num_intervals": self.num_intervals,
            "alpha": self.alpha,
            "stgraph_cells": self.stgraph_cells,
            "esgraph_nodes": self.esgraph_nodes,
            "esgraph_edges": self.esgraph_edges,
            "task1_steps_st": self.task1_steps_st,
            "task1_steps_es": self.task1_steps_es,
            "task2_steps_st": self.task2_steps_st,
            "task2_steps_es": self.task2_steps_es,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ComplexityReport":
        return cls(**{k: int(payload[k]) for k in cls.__dataclass_fields__})


class RunTable:
    """Run decomposition of a whole occupancy matrix, for fast windowing.

    Wraps the padded run arrays from the kernel layer and serves event
    paths, event windows, and remaining-run queries for any reference
    column without rescanning raw cells.
    """

    def __init__(self, states: np.ndarray):
        states = np.ascontiguousarray(states, dtype=np.bool_)
        if states.ndim != 2 or states.size == 0:
            raise DataError("run table needs a non-empty 2-D matrix")
        self.states = states
        (
            self.counts,
            self.starts,
            self.lengths,
            self.run_states,
            self.run_of,
        ) = kernels.encode_runs(states)

    @property
    def num_locations(self) -> int:
        return self.states.shape[0]

    @property
    def num_intervals(self) -> int:
        return self.states.shape[1]

    @property
    def total_runs(self) -> int:
        return int(self.counts.sum())

    def runs_in_prefix(self, prefix_len: int) -> int:
        """Total maximal runs over all rows restricted to the first
        prefix_len columns."""
        if not (1 <= prefix_len <= self.num_intervals):
            raise DataError("prefix length out of range")
        return int((self.run_of[:, prefix_len - 1] + 1).sum())

    def path_at(self, row: int, reference_time: int) -> EventPath:
        r = int(self.run_of[row, reference_time])
        events = tuple(
            (bool(self.run_states[row, k]), int(self.lengths[row, k]))
            for k in range(r)
        )
        return EventPath(
            events=events,
            current_state=bool(self.run_states[row, r]),
            current_duration=int(reference_time - self.starts[row, r] + 1),
            reference_time=int(reference_time),
        )

    def window_at(self, reference_time: int, alpha: int) -> EventWindow:
        if alpha < 1:
            raise ConfigError("alpha must be at least 1")
        if not (0 <= reference_time < self.num_intervals):
            raise DataError("reference_time out of range")
        signed, current = kernels.extract_windows(
            self.starts,
            self.lengths,
            self.run_states,
            self.run_of,
            reference_time,
            alpha,
        )
        return EventWindow(
            signed_durations=signed,
            current_signed_duration=current,
            alpha=alpha,
        )

    def remaining_run_lengths(self, reference_time: int) -> np.ndarray:
        """Intervals from reference_time to the end of each row's current
        run, inclusive of reference_time."""
        r = self.run_of[:, reference_time]
        start = np.take_along_axis(self.starts, r[:, None], axis=1)[:, 0]
        length = np.take_along_axis(self.lengths, r[:, None], axis=1)[:, 0]
        return start + length - reference_time


def contract_path(sequence, reference_time: int | None = None) -> EventPath:
    """Contract a raw boolean sequence into its event path.

    Each maximal constant run except the last becomes one turnover event;
    the last run becomes the current state with its age. When
    reference_time is given the sequence is truncated to [0, reference_time]
    first; by default the whole sequence is used.
    """
    seq = np.asarray(sequence, dtype=np.bool_).ravel()
    if seq.size == 0:
        raise DataError("cannot contract an empty sequence")
    if reference_time is None:
        reference_time = seq.size - 1
    if not (0 <= reference_time < seq.size):
        raise DataError("reference_time out of range")
    table = RunTable(seq[np.newaxis, : reference_time + 1])
    return table.path_at(0, reference_time)


def bench_complexity(matrix: OccupancyMatrix, alpha: int) -> ComplexityReport:
    """Count representation sizes and per-task touch counts at the latest
    reference time."""
    if alpha < 1:
        raise ConfigError("alpha must be at least 1")
    table = RunTable(matrix.states)
    m = matrix.num_locations
    n = matrix.num_intervals
    nodes = table.total_runs
    edges = int((table.counts - 1).sum())

    # task 2: the cell grid must span the same events it reads
    last = n - 1
    r = table.run_of[:, last]
    cur_start = np.take_along_axis(table.starts, r[:, None], axis=1)[:, 0]
    spanned = (last - cur_start + 1).astype(np.int64)
    for i in range(m):
        completed = int(r[i])
        take = min(alpha, completed)
        if take:
            spanned[i] += int(
                table.lengths[i, completed - take : completed].sum()
            )
    return ComplexityReport(
        num_locations=m,
        num_intervals=n,
        alpha=alpha,
        stgraph_cells=m * n,
        esgraph_nodes=nodes,
        esgraph_edges=edges,
        task1_steps_st=m * n,
        task1_steps_es=nodes,
        task2_steps_st=int(spanned.sum()),
        task2_steps_es=m * alpha,
    )


def complexity_curve(
    matrix: OccupancyMatrix, num_points: int = 12
) -> list[tuple[int, int, int]]:
    """(prefix_len, cell_count, event_node_count) at growing history sizes."""
    table = RunTable(matrix.states)
    n = matrix.num_intervals
    lens = np.unique(
        np.geomspace(1, n, num=min(num_points, n)).round().astype(int)
    )
    out = []
    for prefix in lens:
        p = int(prefix)
        out.append(
            (p, matrix.num_locations * p, table.runs_in_prefix(p))
        )
    return out
