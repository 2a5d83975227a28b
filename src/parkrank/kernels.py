"""Numeric kernels behind run encoding, windowing and the synthetic chain.

Each kernel is plain numpy over a whole matrix: run-length decomposition
of occupancy rows, a per-run table of signed-duration event windows and
the gather that reads it at one or many reference columns, next-vacant
distances, and the two-state occupancy chain of the synthetic generator,
the only one that loops (over its time steps). The chain reads each
row's neighbors from an [rows, K] table, so a step costs O(rows * K),
not a dense [rows, rows] product, and gathers its switch probabilities
from a table of the same float ops per block of steps. Every stochastic
input is pre-drawn with numpy's Generator by the caller, so each kernel
is a pure function of its arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NUMBA_ACTIVE",
    "encode_runs",
    "extract_windows",
    "markov_occupancy",
    "next_vacant_steps",
    "preceding_runs",
]

# Always False: there is no compiled path; perfbench/bootstrap.py reports it.
NUMBA_ACTIVE = False

# Sentinel for "no vacant interval in range"; larger than any real distance.
NEVER_VACANT = np.int64(2**31)

# about the most bytes of tables and uniforms in a markov_occupancy block
BLOCK_BYTES = 20 << 10


def encode_runs(states):
    """Run-length decomposition of every row of a boolean matrix.

    Returns ``(counts, starts, lengths, run_states, run_of)`` where row i
    has ``counts[i]`` maximal runs, described left to right by the padded
    ``[rows, max_runs]`` arrays, and ``run_of[i, t]`` is the index of the
    run containing column t.
    """
    states = np.ascontiguousarray(states, dtype=np.bool_)
    rows, cols = states.shape
    change = states[:, 1:] != states[:, :-1]
    counts = np.count_nonzero(change, axis=1) + 1
    slots = np.arange(counts.max())
    valid = slots < counts[:, np.newaxis]
    # padded starts sit at cols, so the gaps give 0 for every padded length
    starts = np.full(valid.shape, cols, dtype=np.int64)
    starts[:, 0] = 0
    starts[:, 1:][valid[:, 1:]] = np.flatnonzero(change) % (cols - 1) + 1
    lengths = np.diff(starts, axis=1, append=cols)
    starts[~valid] = 0
    run_states = np.take_along_axis(states, starts, axis=1) & valid
    run_of = np.repeat(np.tile(slots, rows), lengths.ravel()).reshape(rows, cols)
    return counts, starts, lengths, run_states, run_of


def preceding_runs(lengths, run_states, alpha):
    """Each run's newest ``alpha`` predecessors as signed durations.

    ``table[i, r, :]`` holds runs ``r - alpha .. r - 1`` of row i as
    sign * duration (vacant +, occupied -), oldest first, zero where the
    index falls before the row's first run: a ``[rows, max_runs, alpha]``
    table, one entry per run.
    """
    rows, runs = lengths.shape
    padded = np.zeros((rows, alpha + runs))
    padded[:, alpha:] = np.where(run_states, -1.0, 1.0) * lengths.astype(
        np.float64
    )
    window = np.lib.stride_tricks.sliding_window_view(padded, alpha, axis=1)
    return np.ascontiguousarray(window[:, :runs])


def extract_windows(preceding, starts, run_states, run, t):
    """Signed-duration event windows for every row at reference column t.

    ``run[..., i]`` is the index of row i's run holding t. Returns
    ``(signed, current_signed)``: ``signed[..., i, :]`` is that run's
    ``preceding_runs`` entry, its newest completed runs, and
    ``current_signed[..., i]`` its signed age. An int array t adds its
    shape in front of both.
    """
    rows, runs = starts.shape
    # flat index of each row's run into the [rows, max_runs] arrays
    run = run + np.arange(0, rows * runs, runs)
    age = np.asarray(t)[..., np.newaxis] - np.take(starts, run) + 1
    current_signed = np.where(np.take(run_states, run), -1.0, 1.0)
    current_signed *= age
    signed = np.take(preceding.reshape(rows * runs, -1), run, axis=0)
    return signed, current_signed


def markov_occupancy(
    init_u,
    step_u,
    sin_mod,
    neighbors,
    base,
    gamma,
    rho0,
    hazard_base,
    hazard_slope,
    hazard_max,
    switch_cap,
):
    """Two-state occupancy chain with diurnal and neighbor modulation.

    All randomness comes from the pre-drawn uniforms ``init_u`` [rows] and
    ``step_u`` [steps-1, rows]; ``sin_mod[t]`` is the precomputed diurnal
    term (amplitude included). ``neighbors`` [rows, K] lists each row's
    neighbor rows, padded with ``rows``; at each step a row's target rate
    moves toward the occupied share of its neighbors at strength
    ``gamma``. The switch hazard grows with the age of the current run,
    so stale runs end sooner than fresh ones.

    A row's switch probability before the hazard depends only on the
    step, its state and its (neighbor, occupied neighbor) counts. Each
    block of steps tabulates it for every such triple, ``clip(pull +
    diurnal[t], 0, 1)`` when vacant and ``1 -`` that when occupied, by
    the float ops and operand order of a per-row step, so every entry
    has that step's bits. A step keys each row's entry by one exact
    integer dot over the neighbor table extended with the row itself
    and its count's offset. ``u < min(q, cap)`` holds exactly when ``u <
    cap`` and ``u < q``, so a block's uniforms not below ``switch_cap``
    become +inf and q needs no cap. A block holds about BLOCK_BYTES of
    tables and uniforms: the output is the only [rows, steps] array.
    """
    rows = init_u.shape[0]
    steps = step_u.shape[0] + 1
    occ = np.empty((rows, steps), dtype=np.bool_)
    width = neighbors.shape[1] + 1
    count = np.arange(width)[:, np.newaxis]
    mean = np.where(count > 0, np.arange(width) / np.maximum(count, 1.0), base)
    # pull[c * width + k]: the neighbor term of c neighbors, k occupied
    pull = (gamma * (mean - base)).ravel()
    # the state, then the padding (always vacant) and each count's offset
    state = np.r_[init_u < base, 0, np.arange(0, pull.size, width)]
    prev = state[:rows]
    occ[:, 0] = prev
    # key = state * width**2 + count * width + occupied, slot-major so
    # the dot reads contiguous rows
    extended = np.vstack(
        [neighbors.T, np.arange(rows), (neighbors < rows).sum(1) + rows + 1]
    )
    weights = np.r_[np.ones(width - 1, dtype=np.int64), pull.size, 1]
    # at step t a run that started at step s is t - s steps old, and
    # its hazard is by_start[steps - 1 - t + s]
    by_start = rho0 * np.minimum(
        hazard_max,
        hazard_base + hazard_slope * np.arange(steps - 1, -1, -1.0),
    )
    start = np.zeros(rows, dtype=np.int64)
    block = max(1, BLOCK_BYTES // (8 * (rows + 2 * pull.size)))
    table = np.empty((block, 2 * pull.size))
    uniforms = np.empty((block, rows))
    for lo in range(1, steps, block):
        hi = min(lo + block, steps)
        p = pull + (base + sin_mod[lo:hi, np.newaxis])
        np.maximum(p, 0.0, out=p)
        np.minimum(p, 1.0, out=p)
        table[: hi - lo, : pull.size] = p
        # an occupied row switches toward vacancy
        table[: hi - lo, pull.size :] = np.subtract(1.0, p, out=p)
        del p  # it would outlive the block's steps
        u = uniforms[: hi - lo]
        np.copyto(u, step_u[lo - 1 : hi - 1])
        np.putmask(u, ~(u < switch_cap), np.inf)
        for t, table_t, u_t in zip(range(lo, hi), table, u):
            q = table_t[weights @ state[extended]]
            q *= by_start[steps - 1 - t :][start]
            switch = u_t < q
            prev ^= switch
            np.putmask(start, switch, t)
            occ[:, t] = prev
    return occ


def next_vacant_steps(states):
    """Distance (in intervals) from each cell to the next vacant interval.

    ``steps[i, t]`` is 0 when row i is vacant at t, otherwise the number of
    intervals until its first vacant column at or after t, or NEVER_VACANT
    when the row stays occupied through the end.
    """
    states = np.asarray(states, dtype=np.bool_)
    t = np.arange(states.shape[1], dtype=np.int64)
    # next vacant column at or after t; occupied cells point so far past the
    # end that a row with no vacancy ahead caps at NEVER_VACANT
    never = t.size + NEVER_VACANT
    nxt = np.minimum.accumulate(np.where(states, never, t)[:, ::-1], axis=1)
    return np.minimum(nxt[:, ::-1] - t, NEVER_VACANT)
