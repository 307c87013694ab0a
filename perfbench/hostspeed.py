"""Host speed, measured during the run, so that a shared host's drift cancels.

On a shared host other tenants slow the CPU itself (CPU time rises with wall
time) for stretches of tens of seconds to minutes, so one command's wall time
moves by up to 2x between repeats and the mean over a 40 s run moves by up to
a quarter between runs. The benchmark times one fixed reference task, which
does not use the program, again and again between the timed commands or
segments; the run's host factor is the mean reference time over
``REFERENCE_S``. The end-to-end times are the mean measured times divided by
that factor: seconds at the host speed at which the reference takes
``REFERENCE_S``. A change to the program moves them as it moves wall time; a
slower host moves the reference with them.

The reference mixes what the program spends its time on: per-line parsing of
``timestamp,value`` text in Python (ingest) and numpy sorting, differencing
and histograms over a sensor block (kernel and fidelity). It is single
threaded and built from a fixed seed, so every run times the same work.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Mean time of one reference unit on a 2-core x86-64 host (Python 3.11,
# numpy 2.4) in a quiet stretch; only the scale of the reported seconds
# depends on it.
REFERENCE_S = 0.06


class HostSpeed:
    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        values = rng.standard_normal(60_000).tolist()
        self.lines = [f"{k * 1000},{v!r}" for k, v in enumerate(values)]
        self.block = rng.standard_normal((128, 6144))
        self.samples: list[float] = []

    def _unit(self) -> float:
        total = 0.0
        for line in self.lines:
            stamp, value = line.split(",")
            total += float(value) if int(stamp) >= 0 else 0.0
        ordered = np.sort(self.block, axis=1)
        steps = np.cumsum(np.diff(ordered, axis=1), axis=1)
        counts = np.histogram(steps, bins=64)[0]
        return total + float(counts[0])

    def sample(self, units: int = 1) -> None:
        """Time ``units`` reference units, one sample each."""
        for _ in range(units):
            started = time.perf_counter()
            self._unit()
            self.samples.append(time.perf_counter() - started)

    def factor(self) -> float:
        """Mean reference time over REFERENCE_S: above 1 on a slower host."""
        return statistics.fmean(self.samples) / REFERENCE_S
