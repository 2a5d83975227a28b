"""Numeric kernels behind run encoding, windowing and the synthetic chain.

Each kernel is plain numpy over a whole matrix, looping in Python at most
over rows or time steps: run-length decomposition of occupancy rows,
signed-duration event windows at a reference column, the two-state
occupancy chain of the synthetic generator, and next-vacant distances.
Every stochastic input is pre-drawn with numpy's Generator by the caller,
so each kernel is a pure function of its arguments.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "NUMBA_ACTIVE",
    "encode_runs",
    "extract_windows",
    "markov_occupancy",
    "next_vacant_steps",
]

# Always False: there is no compiled path; perfbench/bootstrap.py reports it.
NUMBA_ACTIVE = False

# Sentinel for "no vacant interval in range"; larger than any real distance.
NEVER_VACANT = np.int64(2**31)


def encode_runs(states):
    """Run-length decomposition of every row of a boolean matrix.

    Returns ``(counts, starts, lengths, run_states, run_of)`` where row i
    has ``counts[i]`` maximal runs, described left to right by the padded
    ``[rows, max_runs]`` arrays, and ``run_of[i, t]`` is the index of the
    run containing column t.
    """
    states = np.ascontiguousarray(states, dtype=np.bool_)
    rows, cols = states.shape
    counts = np.empty(rows, dtype=np.int64)
    starts_per_row = []
    for i in range(rows):
        row = states[i]
        boundaries = np.flatnonzero(row[1:] != row[:-1]) + 1
        starts = np.concatenate((np.zeros(1, dtype=np.int64), boundaries))
        starts_per_row.append(starts)
        counts[i] = starts.size
    max_runs = int(counts.max())
    starts_out = np.zeros((rows, max_runs), dtype=np.int64)
    lengths_out = np.zeros((rows, max_runs), dtype=np.int64)
    states_out = np.zeros((rows, max_runs), dtype=np.bool_)
    run_of = np.empty((rows, cols), dtype=np.int64)
    for i in range(rows):
        starts = starts_per_row[i]
        k = int(counts[i])
        ends = np.concatenate((starts[1:], np.array([cols], dtype=np.int64)))
        starts_out[i, :k] = starts
        lengths_out[i, :k] = ends - starts
        states_out[i, :k] = states[i, starts]
        run_of[i] = np.repeat(np.arange(k, dtype=np.int64), lengths_out[i, :k])
    return counts, starts_out, lengths_out, states_out, run_of


def extract_windows(starts, lengths, run_states, run_of, t, alpha):
    """Signed-duration event windows for every row at reference column t.

    Returns ``(signed, current_signed)``: ``signed[i]`` holds the newest
    ``alpha`` completed runs of row i as sign * duration (vacant +, occupied
    -), oldest first, zero-padded on the oldest side when fewer exist;
    ``current_signed[i]`` is the signed age of the run containing t.
    """
    rows = starts.shape[0]
    cur = run_of[:, t]
    cur_start = np.take_along_axis(starts, cur[:, None], axis=1)[:, 0]
    cur_state = np.take_along_axis(run_states, cur[:, None], axis=1)[:, 0]
    cur_sign = np.where(cur_state, -1.0, 1.0)
    current_signed = cur_sign * (t - cur_start + 1).astype(np.float64)

    idx = cur[:, None] - alpha + np.arange(alpha, dtype=np.int64)[None, :]
    valid = idx >= 0
    safe = np.maximum(idx, 0)
    ev_len = np.take_along_axis(lengths, safe, axis=1).astype(np.float64)
    ev_state = np.take_along_axis(run_states, safe, axis=1)
    ev_sign = np.where(ev_state, -1.0, 1.0)
    signed = np.where(valid, ev_sign * ev_len, 0.0)
    assert signed.shape == (rows, alpha)
    return signed, current_signed


def markov_occupancy(
    init_u,
    step_u,
    sin_mod,
    neighbor_w,
    neighbor_cnt,
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
    term (amplitude included). The switch hazard grows with the age of the
    current run, so stale runs end sooner than fresh ones.
    """
    rows = init_u.shape[0]
    steps = step_u.shape[0] + 1
    occ = np.empty((rows, steps), dtype=np.bool_)
    occ[:, 0] = init_u < base
    prev = occ[:, 0].astype(np.float64)
    age = np.ones(rows, dtype=np.float64)
    for t in range(1, steps):
        nbr_sum = neighbor_w @ prev
        nbr_mean = np.where(
            neighbor_cnt > 0.0, nbr_sum / np.maximum(neighbor_cnt, 1.0), base
        )
        p_occ = base + sin_mod[t] + gamma * (nbr_mean - base)
        p_occ = np.minimum(np.maximum(p_occ, 0.0), 1.0)
        hazard = rho0 * np.minimum(hazard_max, hazard_base + hazard_slope * age)
        q = np.where(prev == 1.0, hazard * (1.0 - p_occ), hazard * p_occ)
        q = np.minimum(q, switch_cap)
        switch = step_u[t - 1] < q
        cur = np.where(switch, 1.0 - prev, prev)
        age = np.where(switch, 1.0, age + 1.0)
        occ[:, t] = cur == 1.0
        prev = cur
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
