"""Host-speed calibration: fixed dense work, timed between the segments of a run.

On a shared host the speed of one core drifts by tens of percent over seconds
to minutes, and a run's wall times drift with it.  A burst is the
propagator's kind of work, done by this file and never by the program: at the
workload's Hilbert-space dimension, ``eigh`` of a fixed real symmetric
``a + g b`` and one step of a state in its eigenbasis, for a fixed set of
``g``.  Every timed segment of a run (a pass, or a batch of set-ups) is
followed by a burst, and its wall time is scaled by the reference burst time
over the mean of the bursts on either side of it.  The scaled time is the
segment's time on a host where a burst takes its reference time.  Program
changes leave the bursts alone, so scaled times compare commits; the raw wall
times stay in the run record.
"""

from __future__ import annotations

import time

import numpy as np

# Per dimension: eigh calls in one burst, and the median burst time with
# OpenBLAS on one thread on a shared 2-vCPU x86-64 virtual machine.  The
# reference times only set the scale of the reported seconds.
BURSTS = {16: (256, 0.020), 64: (512, 0.300), 256: (32, 0.340), 1024: (1, 0.330)}


class Calibration:
    def __init__(self, dim: int) -> None:
        if dim not in BURSTS:
            raise ValueError(f"no calibration burst for dimension {dim}")
        eigh_calls, self.reference_s = BURSTS[dim]
        rng = np.random.default_rng(dim)
        a, b = rng.normal(size=(2, dim, dim))
        self._a, self._b = a + a.T, b + b.T
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        self._psi = psi / np.linalg.norm(psi)
        self._g = np.linspace(0.0, 1.0, eigh_calls)
        self.burst()  # warm-up, not kept
        self.bursts = [self.burst()]

    def burst(self) -> float:
        """Seconds one burst takes now."""
        t0 = time.perf_counter()
        psi = self._psi
        for g in self._g:
            w, q = np.linalg.eigh(self._a + g * self._b)
            amp = (q.T @ psi.real) + 1j * (q.T @ psi.imag)
            amp *= np.exp(-1e-3j * w)
            psi = (q @ amp.real) + 1j * (q @ amp.imag)
        return time.perf_counter() - t0

    def rebase(self) -> None:
        """A fresh burst, so the next segment is bracketed by adjacent bursts."""
        self.bursts.append(self.burst())

    def timed(self, segment):
        """``segment()``, then a burst; returns its result and the factor that
        scales its wall time to the reference host."""
        before = self.bursts[-1]
        out = segment()
        self.rebase()
        return out, 2.0 * self.reference_s / (before + self.bursts[-1])
