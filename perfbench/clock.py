"""Wall time of rarl calls, normalised to the machine's current speed.

On a shared two-core VM the speed of the whole machine drifts by 30-50% over
tens of seconds, in steps, and the drift moves CPU time as much as wall time
(no steal is reported). Run-to-run spreads of raw wall time were 0.17-0.26
(IQR over median), too wide for a regression bound. The drift is common to all
code, so the benchmark measures it: a fixed reference kernel (small numpy
operations driven from a Python loop, the regime rarl runs in) is timed
before the first call and after every call, and each call's wall time is
scaled by ``REFERENCE_S`` over the mean of the two reference times around it.
On 15-second blocks this cut the spread of job times from 0.29-0.35 to
0.035-0.08. The reference kernel uses no rarl code, so a change to rarl moves
the call times and not the scale.

Planner calls run for seconds, long enough for the speed to change inside
them. Under ``sampling`` a call is cut into segments of about ``SEGMENT_S``:
the support-solve entry points, which every long call reaches at least once
per sweep or iteration, close the running segment once it is that long, and
the reference kernel is timed between segments, outside them.

Set-up time is mostly imports, whose speed tracks the compute kernel poorly
(set-up normalised by it spread 0.06 over 20-second blocks and its medians
moved 20-25% between two sets of ten runs). Its reference is a fresh
interpreter importing the numpy and scipy modules rarl imports, which cut the
spread over the same blocks from 0.08 raw to 0.03.
"""

from __future__ import annotations

import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

# Median of ``reference_seconds`` on the 2-core Xeon the benchmark was defined
# on; normalised seconds read as seconds on that machine at its usual speed.
REFERENCE_S = 0.0048
# Median of ``import_reference_seconds`` on the same machine.
IMPORT_REFERENCE_S = 0.70
_IMPORTS = "import time; t0 = time.perf_counter(); import numpy, scipy.optimize, scipy.sparse; print(time.perf_counter() - t0)"
SEGMENT_S = 0.5
_REF_ROWS = np.random.default_rng(0).random((20, 17))
_REF_V = np.random.default_rng(1).random(17)


def _reference_pass() -> float:
    t0 = time.perf_counter()
    for i in range(500):  # results are discarded: only the time counts
        ordered = np.sort(_REF_ROWS, axis=1)
        float((_REF_ROWS @ _REF_V).max()) + np.cumsum(ordered, axis=1)[i % 20, 3]
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Median time of three passes of the fixed reference kernel (one pass spreads 0.35 IQR/median)."""
    return sorted(_reference_pass() for _ in range(3))[1]


def import_reference_seconds() -> float:
    """Time a fresh interpreter takes to import numpy, scipy.optimize and scipy.sparse."""
    done = subprocess.run([sys.executable, "-c", _IMPORTS], capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def normalised(seconds: float, ref_before: float, ref_after: float, reference: float = REFERENCE_S) -> float:
    """``seconds`` at reference speed, given reference times just before and after them."""
    return seconds * 2.0 * reference / (ref_before + ref_after)


class Clock:
    """Accumulates the raw and the normalised wall time of the calls made through it."""

    def __init__(self):
        self._ref = reference_seconds()
        self._start = None  # start of the running segment, inside a call
        self.wall = 0.0  # raw seconds inside calls
        self.norm = 0.0  # the same seconds, normalised to reference speed

    def _close_segment(self) -> None:
        dt = time.perf_counter() - self._start
        ref = reference_seconds()
        self.wall += dt
        self.norm += normalised(dt, self._ref, ref)
        self._ref = ref

    def call(self, fn, *args, **kwargs):
        self._start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close_segment()
            self._start = None

    def tick(self) -> None:
        """Inside a call: close the running segment once it is ``SEGMENT_S`` long."""
        if self._start is not None and time.perf_counter() - self._start >= SEGMENT_S:
            self._close_segment()
            self._start = time.perf_counter()


@contextmanager
def sampling(clock: Clock, classes):
    """Make the classes' ``support_batch`` and ``worst_row`` tick ``clock``; restore on exit."""
    saved = [(cls, name, cls.__dict__[name]) for cls in classes for name in ("support_batch", "worst_row")]

    def ticking(original):
        def method(*args, **kwargs):
            clock.tick()
            return original(*args, **kwargs)

        return method

    try:
        for cls, name, original in saved:
            setattr(cls, name, ticking(original))
        yield clock
    finally:
        for cls, name, original in saved:
            setattr(cls, name, original)
