"""The event-window formula that RunTable.window_at once computed per call.

It rebuilt every window straight from the run arrays of
kernels.encode_runs: the run holding t, the alpha run indices before it,
each gathered and signed, with zeros where the index falls before the
row's first run. window_at now gathers windows from one per-run table
(kernels.preceding_runs); its output must match this formula byte for
byte.
"""

import numpy as np


def extract_windows(starts, lengths, run_states, run_of, t, alpha):
    """(signed, current_signed) at reference column t, as
    kernels.extract_windows documents them."""
    rows = np.arange(starts.shape[0])
    cur = run_of.T[t]
    cur_sign = np.where(run_states[rows, cur], -1.0, 1.0)
    age = np.asarray(t)[..., np.newaxis] - starts[rows, cur] + 1
    current_signed = cur_sign * age.astype(np.float64)

    idx = cur[..., np.newaxis] - alpha + np.arange(alpha, dtype=np.int64)
    safe = (rows[:, np.newaxis], np.maximum(idx, 0))
    ev_len = lengths[safe].astype(np.float64)
    ev_sign = np.where(run_states[safe], -1.0, 1.0)
    signed = np.where(idx >= 0, ev_sign * ev_len, 0.0)
    return signed, current_signed
