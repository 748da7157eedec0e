"""The host's speed, sampled while a workload runs.

The benchmark shares a few cores of a busy host.  Other tenants slow
the simulator by up to 1.8x, in stretches from a fraction of a second
to about a minute, and process CPU time slows with wall time, so no
choice of repetitions within a run can tell a slower program from a
slower host.  Both slow down together, though: a fixed reference kernel
timed at the same moments as the workload slows by about as much.

:class:`HostSpeed` runs the kernel from a ``SIGALRM`` handler every
``INTERVAL_S`` of wall time while a repetition runs, so the kernel
samples exactly the stretches the workload ran in.  Its
:meth:`HostSpeed.clock` leaves out the seconds spent in the handler,
and :meth:`HostSpeed.speed` is the host's speed over the repetition as
a share of a quiet reference host.  Multiplying a measured time by it
gives *reference-host seconds*: what the same work would have taken on
the quiet host.

The kernel mixes what the simulator spends its time on: a binary heap
of events, dict updates, and small NumPy gathers and reductions.  It
touches only its own arrays and no random stream, so the sampled run's
simulated outputs are unchanged (the benchmark checks ``sim_digest`` on
every repetition).  On a shared 2-vCPU Xeon running at 0.39-0.72 of the
reference speed, it cut the repetition-to-repetition variation of
``hops_per_s`` (coefficient of variation over 30 repetitions per
workload) from 7.5-15% to 3.0-5.9%; rate and measured speed moved
together with an exponent of 0.78-1.22 across the four workloads.
"""

from __future__ import annotations

import heapq
import signal
import time

import numpy as np

__all__ = ["HostSpeed", "kernel", "INTERVAL_S", "REF_S"]

#: Wall seconds between two kernel samples.  Each sample takes about
#: 0.25-0.45 ms, so the sampler costs 2.5-4.5% of a repetition.
INTERVAL_S = 0.01
#: Mean seconds per kernel sample, taken from inside a running workload,
#: on a quiet 2-vCPU Xeon at 2.1 GHz (Python 3.11, NumPy 2.4): the
#: reference host that ``speed() == 1`` stands for.
REF_S = 2.4e-4

_rng = np.random.default_rng(0)
_TABLE = _rng.integers(0, 4096, 4096)
_INDEX = _rng.integers(0, 4096, 256)


def kernel() -> int:
    """A fixed amount of simulator-like work; returns a checksum."""
    heap: list[int] = []
    tally: dict[int, int] = {}
    s = 0
    for i in range(400):
        heapq.heappush(heap, (i * 7919) % 1009)
        tally[i & 63] = tally.get((i * 5) & 63, 0) + i
    while heap:
        s += heapq.heappop(heap)
    for _ in range(20):
        s += int(_TABLE[_INDEX].sum()) + int(np.add(_INDEX, 1).max())
    return s


class HostSpeed:
    """Sample :func:`kernel` every ``INTERVAL_S`` while the context is open."""

    def __init__(self):
        #: Seconds spent inside the sampler, left out of :meth:`clock`.
        self.spent = 0.0
        #: Summed seconds of the kernel samples, and their number.
        self.ref_s = 0.0
        self.samples = 0
        self._running = False
        self._saved = signal.SIG_DFL

    def clock(self) -> float:
        """``time.perf_counter`` without the sampler's own seconds."""
        return time.perf_counter() - self.spent

    def speed(self) -> float:
        """Host speed over the samples so far, as a share of the
        reference host's (1.0 when nothing was sampled)."""
        return REF_S * self.samples / self.ref_s if self.samples else 1.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.ref_s += t1 - t0
        self.samples += 1
        self.spent += time.perf_counter() - t0

    def __enter__(self) -> "HostSpeed":
        if self._running:
            raise RuntimeError("sampler already running")
        # None: the previous handler was not set from Python.
        self._saved = signal.signal(signal.SIGALRM, self._tick) or signal.SIG_DFL
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        # Disarm before restoring the handler: a SIGALRM under the
        # default disposition would kill the process.
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved)
        self._running = False
