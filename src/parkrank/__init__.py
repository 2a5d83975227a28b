"""Turnover-event graph pipeline for ranked on-street parking recommendations.

The package turns per-interval occupancy matrices into turnover-event
graphs, trains a listwise ranking model on top of them, and benchmarks the
result against predict-then-recommend baselines.
"""

import ctypes

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    EmptyDatasetError,
    ParkrankError,
    ParseError,
    TrainingDiverged,
)

__all__ = [
    "ConfigError",
    "DataError",
    "DimensionError",
    "EmptyDatasetError",
    "ParkrankError",
    "ParseError",
    "TrainingDiverged",
    "__version__",
]


# Pin glibc's malloc at the thresholds its own dynamic rule reaches after
# one 32 MiB free: blocks under 32 MiB come from the heap, and the heap's
# free top goes back to the system only past 64 MiB. Left dynamic, both
# stay at their 128 KiB start unless some earlier large free raised them,
# and each training step then maps, faults in and trims its arrays
# afresh: about 900 page faults and 2 ms of system time a step at the
# criterion-8 shape (tests/step_faults.py). Where there is no glibc
# mallopt this does nothing.
try:
    _mallopt = ctypes.CDLL(None).mallopt
except (AttributeError, OSError, TypeError):
    pass
else:
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    del _mallopt
