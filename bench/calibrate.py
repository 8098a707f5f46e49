"""Rescaling times by the machine's speed, sampled while they run.

On a host shared with other tenants the same operation can run half again
as slowly for minutes at a time, and no run short enough for the time
budget averages that out.  So while the benchmark times something, a
``SpeedProbe`` interrupts it every ``PERIOD_S`` seconds (``SIGALRM``) and
times one slice of a fixed reference kernel.  The probe's own time is
taken out of the measured interval, and the rest is rescaled to the speed
at which a slice takes ``NOMINAL_S``.  The kernel uses no library code,
so every change to the library still moves the rescaled times in full.

The kernel does what the library's hot loops do, in plain Python:
fraction-free elimination of a 16 x 16 matrix of integers modulo 5^48,
with one small object per entry.  The garbage collector is off while it
runs, so its time does not depend on how much memory the library holds.
"""

from __future__ import annotations

import gc
import signal
import time

PERIOD_S = 0.5
SLICE_REPS = 12
# A slice's time on the baseline machine.  It only sets the scale of the
# rescaled times; changing it would rescale every recorded figure.
NOMINAL_S = 0.01
MODULUS = 5 ** 48
SIZE = 16


class _Cell:
    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c


def _eliminate(seed):
    rows = [[_Cell(((i * 7919 + j * 104729 + seed) ** 3) % MODULUS)
             for j in range(SIZE)] for i in range(SIZE)]
    for k in range(SIZE):
        rk = rows[k]
        piv = rk[k].c or 1
        for i in range(k + 1, SIZE):
            ri = rows[i]
            f = ri[k].c
            if f:
                for j in range(k, SIZE):
                    ri[j] = _Cell((ri[j].c * piv - f * rk[j].c) % MODULUS)
    return rows[SIZE - 1][SIZE - 1].c


class SpeedProbe:
    """Samples the reference kernel while timed code runs.

    Use as a context manager around the whole measurement, and time each
    interval with ``start`` and ``stop``.
    """

    def __init__(self):
        self.samples = []
        self.stolen = 0.0
        self._busy = False
        self._old = None

    def sample(self, *_signal_args):
        """Time one slice of the kernel (also the SIGALRM handler, which
        skips its turn when it interrupts a slice)."""
        if self._busy:
            return
        self._busy = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for rep in range(SLICE_REPS):
                _eliminate(rep)
            dt = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
            self._busy = False
        self.samples.append(dt)
        self.stolen += dt

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def start(self):
        return (time.perf_counter(), self.stolen, len(self.samples))

    def stop(self, mark):
        """Wall time since ``mark`` without the probe's share, and that
        time rescaled by the slices sampled meanwhile (one more is taken
        now, so there is always one)."""
        t0, stolen0, n0 = mark
        wall = time.perf_counter() - t0 - (self.stolen - stolen0)
        self.sample()
        slices = self.samples[n0:]
        return wall, wall * NOMINAL_S * len(slices) / sum(slices)
