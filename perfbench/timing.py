"""Machine-speed reference for scaling wall times.

Raw wall time on a small shared virtual machine drifts by tens of percent,
and no hardware counters are available.  The ratio of an op's time to a fixed
kernel timed right next to it drifts much less, so every reported time is
``raw * nominal_ms / reference_ms``: the time the op would take on a machine
where the kernel takes exactly ``nominal_ms``.  The kernels run no worldsheet
code, so a change to the program moves the scaled times exactly as it moves
the raw ones.

The machine has fast and slow phases, and they do not speed up all work
alike.  From the slow to the fast phase, interpreter-bound work (small numpy
calls from Python loops, pure-Python graph walks) took about half the time,
streaming over arrays larger than the cache about three quarters.  So there
are three kernels.  Each workload's ops are scaled by the one whose timings
tracked them best, and set-up, mostly imports, by the interpreter kernel.
"""

from __future__ import annotations

import statistics
import time
from collections import deque

import numpy as np

# The small and interpreter kernels are this many equal units, so one unit
# can be timed on its own and scaled up.
UNITS = 4


class Reference:
    """One of three fixed kernels, timed on demand; every timing is recorded.

    ``small``: many small-array numpy calls from a Python loop, as in the
    finite-difference gradient; in UNITS equal units.
    ``interpreter``: the same calls and pure-Python breadth-first searches
    over a fixed graph, as in the causal queries; in UNITS equal units.
    ``mixed``: the same small-array calls, plus mid-size tensor contractions
    that stay in cache (the per-node geometry) and streaming passes over
    arrays larger than the cache (the dense graph build).
    The inputs are fixed and do not depend on the workload seed.
    """

    # Roughly what each kernel takes on the 2-core machine the benchmark was
    # written on, in its slower phase, so scaled times read close to raw ones.
    NOMINAL_MS = {"small": 4.0, "interpreter": 10.0, "mixed": 12.0}

    REPS = 3

    def __init__(self, kind: str):
        rng = np.random.default_rng(20200301)
        self.kind = kind
        self.nominal_ms = self.NOMINAL_MS[kind]
        self._kernel = {"small": self._small_kernel, "interpreter": self._interpreter, "mixed": self._mixed}[kind]
        # Only the kernel's own inputs, so they add little to the peak RSS.
        self._small = rng.standard_normal((21, 2, 3))
        self._signs = np.array([-1.0, 1.0, 1.0])
        if kind == "interpreter":
            self._adjacency = [[int(j) for j in rng.integers(0, 3000, 3)] for _ in range(3000)]
        if kind == "mixed":
            self._mid = rng.standard_normal((4913, 3, 4))
            self._big = rng.standard_normal((2, 250_000))
        self.samples_ms: list[float] = []

    def _small_calls(self, count: int = 240) -> float:
        acc = 0.0
        a = self._small
        for _ in range(count):
            g = np.einsum("...ja,...ka,a->...jk", a, a, self._signs)
            acc += float(np.abs(g).max())
        return acc

    def _walk(self, root: int) -> int:
        seen = {root}
        queue = deque([root])
        while queue:
            for j in self._adjacency[queue.popleft()]:
                if j not in seen:
                    seen.add(j)
                    queue.append(j)
        return len(seen)

    def _small_kernel(self, units: int = UNITS) -> float:
        return self._small_calls(60 * units)

    def _interpreter(self, units: int = UNITS) -> float:
        acc = 0.0
        for root in range(units):
            acc += self._small_calls(60) + self._walk(root)
        return acc

    def _mixed(self) -> float:
        acc = self._small_calls()
        m = self._mid
        for _ in range(2):
            acc += float(np.einsum("...ja,...ka->...", m, m).sum())
        x, y = self._big
        for _ in range(3):
            acc += float(np.sum(np.sqrt(x * x + y * y) <= 1.0))
        return acc

    def measure(self) -> float:
        """Median of REPS timings of the kernel, in ms; recorded."""
        times = []
        for _ in range(self.REPS):
            t0 = time.perf_counter()
            self._kernel()
            times.append((time.perf_counter() - t0) * 1e3)
        ms = statistics.median(times)
        self.samples_ms.append(ms)
        return ms

    def measure_unit(self) -> float:
        """One unit of the small or interpreter kernel, timed once, in full-kernel ms.

        Short enough to take often inside a long op; recorded.
        """
        t0 = time.perf_counter()
        self._kernel(units=1)
        ms = (time.perf_counter() - t0) * 1e3 * UNITS
        self.samples_ms.append(ms)
        return ms

    def scale(self, raw_ms: float, reference_ms: float) -> float:
        """Raw time expressed on the nominal machine."""
        return raw_ms * self.nominal_ms / reference_ms
