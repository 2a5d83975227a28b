"""Machine-speed probe: a fixed block of work timed throughout a run.

The host this benchmark runs on is shared, and its speed drifts by a third
or more over seconds to minutes, which no amount of work inside one run
averages out. So the gated times are scaled. While a ``Probe`` is active, a
wall-clock timer interrupts the benchmark every ``EVERY_S`` and times one
fixed block of work in the main thread, between two Python bytecodes of
whatever runs. An operation's wall time, minus the probes inside it, is
cut at those probes. Each piece is multiplied by ``NOMINAL_MS`` over the
mean of the two probes around it. The result is the time the operation
would take on a machine where a block takes ``NOMINAL_MS``. A code change
that makes an operation faster moves the scaled time by the same share.
The probe never calls parkrank.

The block mixes the kinds of work parkrank does: a memory-bound pass over
an array larger than a core's L2 cache, small BLAS and transcendental
calls, a sort, and interpreter-bound Python that builds small frozen
records the way the ranking and evaluation code does.
"""

import bisect
import signal
import time
from dataclasses import dataclass

import numpy as np

# About one block on a 2-core x86 VM; any fixed value works, as it only
# sets the scale of the gated times.
NOMINAL_MS = 1.5
EVERY_S = 0.1


@dataclass(frozen=True)
class _Row:
    index: int
    items: tuple[int, ...]
    weight: float


class Probe:
    """Probe timings, and the scaling of an interval's wall time by them."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.big = rng.random(1 << 19)  # 4 MiB, past a core's L2 cache
        self.scratch = np.empty_like(self.big)
        self.small = rng.random((64, 30, 16))
        self.weight = rng.random((16, 16))
        self.keys = rng.random(120)
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _block(self) -> float:
        np.subtract(self.big, 0.5, out=self.scratch)
        s = float(np.maximum(self.scratch, 0.0, out=self.scratch).sum())
        s += float(np.tanh(self.small @ self.weight).sum())
        s += float(np.lexsort((np.arange(120), self.keys))[0])
        rows = [
            _Row(i, tuple(int(k) for k in range(i % 30)), i * 0.5)
            for i in range(120)
        ]
        s += sum(len(r.items) for r in sorted(rows, key=lambda r: -r.weight))
        return s

    def measure(self, *_signal) -> None:
        t0 = time.perf_counter()
        self._block()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())

    def ms(self) -> list[float]:
        return [1e3 * (b - a) for a, b in zip(self.starts, self.ends)]

    def __enter__(self):
        self.measure()
        self._previous = signal.signal(signal.SIGALRM, self.measure)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.measure()

    def times(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, scaled) seconds of [t0, t1] without the probes inside it.

        Probes never straddle t0 or t1: both are read outside the signal
        handler, and a probe before t0 and one after t1 always exist.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        edges = [t0]
        for k in range(lo, hi):
            edges += (self.starts[k], self.ends[k])
        edges.append(t1)
        wall = scaled = 0.0
        for j in range(hi - lo + 1):
            piece = edges[2 * j + 1] - edges[2 * j]
            before, after = lo + j - 1, lo + j
            block = (self.ends[before] - self.starts[before]
                     + self.ends[after] - self.starts[after]) / 2
            wall += piece
            scaled += piece * NOMINAL_MS / (1e3 * block)
        return wall, scaled
