"""Turnover-event graph: occupancy rows contracted into run tables.

A row of the occupancy matrix is a path of per-interval cells. Contracting
every maximal constant run into a single node turns it into turnover
events: the completed runs become (state, duration) events and the final
run becomes the current state with its age. ``RunTable`` holds the runs of
every meter at once and stores each event once: for a window size alpha
it builds, on first use, one table of every run's newest alpha completed
predecessors. A snapshot at any reference interval indexes that table by
the run holding the interval, and adds the run's age, to serve an
``EventWindow``; downstream consumers read at most a fixed number of
events per vertex instead of scanning raw cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import kernels
from .errors import ConfigError, DataError
from .ingest import OccupancyMatrix, check_times


class EventWindow(NamedTuple):
    """Newest events per vertex as signed durations, vacant positive.

    ``signed_durations[..., i, :]`` lists vertex i's newest completed
    events, alpha of them on the last axis, oldest first and zero-padded
    on the oldest side; ``current_signed_duration[..., i]`` is the signed
    age of the ongoing run; leading axes follow the reference times.
    """

    signed_durations: np.ndarray
    current_signed_duration: np.ndarray


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


class RunTable:
    """Run decomposition of a whole occupancy matrix, for fast windowing.

    Wraps the padded run arrays from the kernel layer and serves event
    windows and remaining-run queries without rescanning raw cells. A
    reference time is an int or an int array; an array adds its shape in
    front of each answer. Every reference time passes
    ``ingest.check_times``, which rejects any other with a DataError.
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
        self.ends = self.starts + self.lengths
        # alpha -> kernels.preceding_runs table, built on first use
        self._preceding: dict[int, np.ndarray] = {}

    @property
    def num_intervals(self) -> int:
        return self.states.shape[1]

    def _current_run(self, reference_time):
        """(row, run) index of the run holding each row's reference time."""
        t = check_times(reference_time, self.num_intervals)
        return np.arange(self.run_of.shape[0]), self.run_of.T[t]

    def window_at(self, reference_time, alpha: int) -> EventWindow:
        if alpha < 1:
            raise ConfigError("alpha must be at least 1")
        if alpha not in self._preceding:
            self._preceding[alpha] = kernels.preceding_runs(
                self.lengths, self.run_states, alpha
            )
        # inline, so the kernel frees the run once it has the flat index
        return EventWindow(*kernels.extract_windows(
            self._preceding[alpha], self.starts, self.run_states,
            self._current_run(reference_time)[1], reference_time,
        ))

    def remaining_run_lengths(self, reference_time) -> np.ndarray:
        """Intervals from reference_time to the end of each row's current
        run, inclusive of reference_time."""
        return (
            self.ends[self._current_run(reference_time)]
            - np.asarray(reference_time)[..., np.newaxis]
        )


def bench_complexity(matrix: OccupancyMatrix, alpha: int) -> ComplexityReport:
    """Count representation sizes and per-task touch counts at the latest
    reference time."""
    if alpha < 1:
        raise ConfigError("alpha must be at least 1")
    table = RunTable(matrix.states)
    m = matrix.num_locations
    n = matrix.num_intervals
    nodes = int(table.counts.sum())
    edges = int((table.counts - 1).sum())

    # task 2: the cell grid must span the same events it reads: the newest
    # alpha completed runs plus the current one, all contiguous
    rows, r = table._current_run(n - 1)
    spanned = n - table.starts[rows, r - np.minimum(alpha, r)]
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
    matrix: OccupancyMatrix, num_points: int
) -> list[tuple[int, int, int]]:
    """(prefix_len, cell_count, event_node_count) at growing history sizes;
    a prefix's node count is the runs up to the one holding its last cell."""
    if num_points < 1:
        raise ConfigError("num_points must be at least 1")
    table = RunTable(matrix.states)
    n = matrix.num_intervals
    lens = np.unique(
        np.geomspace(1, n, num=min(num_points, n)).round().astype(int)
    )
    _, run = table._current_run(lens - 1)
    cells = (matrix.num_locations * lens).tolist()
    return list(zip(lens.tolist(), cells, (run + 1).sum(-1).tolist()))
