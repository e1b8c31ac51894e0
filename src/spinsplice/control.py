"""Control schedules g(t) for bond cutting and stitching, with frozen noise.

A cut drives the bond coupling from 1 to 0 over [0, duration], a stitch from
0 to 1; before and after, g holds its start and end value.  Polynomials with
pinned endpoints and a linear ramp plus a sine series drive their own way;
trains of rectangular pulses drive either.  ``ControlSchedule(kind, duration,
params, direction)`` builds every schedule, and ``dataclasses.replace``
derives one at another duration or params.  ``apply_noise`` adds one seeded
realization of rectangular apparatus noise: offset k is added to g on
[k window, (k + 1) window) inside [0, duration).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

# The direction each schedule kind drives; pulse trains drive either.
DIRECTIONS = {"polynomial_cut": "cut", "sine_cut": "cut", "pulse": None, "polynomial_stitch": "stitch"}
KINDS = tuple(DIRECTIONS)


def _horner_from_one(coeffs: tuple[float, ...], x: np.ndarray | float):
    """Evaluate 1 + c1*x + c2*x**2 + ... for the given coefficient tuple."""
    acc = 0.0 * x
    for c in reversed(coeffs):
        acc = (acc + c) * x
    return 1.0 + acc


@dataclass(frozen=True)
class ControlSchedule:
    kind: str
    duration: float
    params: tuple[float, ...]
    direction: str
    window: float = 0.0  # noise window length; 0 for a clean schedule
    offsets: tuple[float, ...] = ()  # one frozen noise offset per window

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if not 0 < self.duration < np.inf:
            raise ValueError(f"duration must be positive and finite, got {self.duration}")
        if self.direction not in ("cut", "stitch"):
            raise ValueError(f"direction must be 'cut' or 'stitch', got {self.direction!r}")
        if DIRECTIONS[self.kind] not in (None, self.direction):
            raise ValueError(
                f"{self.kind} schedules have direction {DIRECTIONS[self.kind]!r}, got {self.direction!r}"
            )
        if self.kind == "pulse" and not self.params:
            raise ValueError("pulse schedules need at least one amplitude")
        if self.offsets and not self.window > 0:
            raise ValueError(f"noise offsets need a positive window, got {self.window}")
        object.__setattr__(self, "params", tuple(map(float, self.params)))
        object.__setattr__(self, "offsets", tuple(map(float, self.offsets)))
        for field in ("params", "offsets"):
            if not np.isfinite(getattr(self, field)).all():
                raise ValueError(f"{field} must be finite, got {getattr(self, field)}")

    def _full_poly_coeffs(self) -> tuple[float, ...]:
        # leading coefficient is derived so the drive hits its far endpoint
        return (-(1.0 + float(sum(self.params))),) + self.params

    def value(self, t: float) -> float:
        """g(t), including the plateaus before 0 and after the duration."""
        return float(self.values(np.asarray([t], dtype=float))[0])

    def values(self, times: np.ndarray) -> np.ndarray:
        """Vectorized g(t) over an array of times."""
        t = np.asarray(times, dtype=float)
        T = self.duration
        start, end = (1.0, 0.0) if self.direction == "cut" else (0.0, 1.0)
        # the drive and the indices read the time clipped to [0, T], so that a
        # plateau time far past a tiny pulse width, noise window or duration
        # overflows nothing; the plateaus are masked in from t itself
        tc = np.clip(t, 0.0, T)
        if self.kind == "pulse":
            dt = T / len(self.params)  # 0 at the smallest T: then [0, T) is all the first pulse
            idx = np.clip((tc // dt).astype(int), 0, len(self.params) - 1) if dt > 0 else 0
            inside = np.asarray(self.params)[idx]
        elif self.kind == "polynomial_cut":
            inside = _horner_from_one(self._full_poly_coeffs(), tc / T)
        elif self.kind == "polynomial_stitch":
            inside = _horner_from_one(self._full_poly_coeffs(), (T - tc) / T)
        else:  # sine_cut
            x = tc / T
            inside = 1.0 - x
            for n, b in enumerate(self.params, start=1):
                inside = inside + b * np.sin(n * np.pi * x)
        clean = np.where(t < 0.0, start, np.where(t >= T, end, inside)).astype(float)
        if not self.offsets:
            return clean
        idx = np.clip((tc // self.window).astype(int), 0, len(self.offsets) - 1)
        bump = np.asarray(self.offsets)[idx]
        return np.where((t >= 0.0) & (t < T), clean + bump, clean)

    def breakpoints(self) -> np.ndarray:
        """Times where g may jump, sorted: the pulse edges k duration / K for
        k = 1 .. K - 1, and the noise window edges k window for k = 1 ..
        len(offsets) - 1, those below the duration."""
        K = len(self.params) if self.kind == "pulse" else 1
        edges = np.concatenate([np.arange(1, K) * (self.duration / K), np.arange(1, len(self.offsets)) * self.window])
        return np.sort(edges[edges < self.duration], kind="stable")

    @property
    def piecewise_constant(self) -> bool:
        return self.kind == "pulse"

    def to_dict(self) -> dict:
        """Wire format used by config files and manifests: the clean
        schedule.  A noise realization is recorded by its seed in the
        manifest, not by its offsets."""
        return {
            "kind": self.kind,
            "T": self.duration,
            "params": list(self.params),
            "direction": self.direction,
        }


def polynomial_cut(duration: float, params: Sequence[float] = ()) -> ControlSchedule:
    return ControlSchedule("polynomial_cut", float(duration), tuple(params), "cut")


def sine_cut(duration: float, params: Sequence[float]) -> ControlSchedule:
    return ControlSchedule("sine_cut", float(duration), tuple(params), "cut")


def pulse_train(duration: float, amplitudes: Sequence[float], direction: str = "cut") -> ControlSchedule:
    return ControlSchedule("pulse", float(duration), tuple(amplitudes), direction)


def polynomial_stitch(duration: float, params: Sequence[float] = ()) -> ControlSchedule:
    return ControlSchedule("polynomial_stitch", float(duration), tuple(params), "stitch")


def linear_baseline(duration: float, direction: str = "cut") -> ControlSchedule:
    """The zero-free-parameter ramp whose fidelity defines the baseline."""
    if direction == "cut":
        return polynomial_cut(duration)
    return polynomial_stitch(duration)


def noise_window_count(duration: float, window: float) -> int:
    """Number of aligned noise windows needed to cover [0, duration)."""
    return max(int(np.ceil(duration / window - 1e-9)), 1)


def apply_noise(schedule: ControlSchedule, window: float, strength: float, seed: int) -> ControlSchedule:
    """Freeze one seeded noise realization on top of a clean schedule.

    Windows of length ``window`` are aligned to t = 0; within window k the
    control picks up strength * (1/2 - r_k), with r_k uniform on [0, 1) from
    ``numpy.random.default_rng(seed)``.
    """
    if schedule.offsets:
        raise ValueError("schedule already carries a noise realization")
    if not window > 0:
        raise ValueError(f"noise window must be positive, got {window}")
    if not 0 <= strength < np.inf:
        raise ValueError(f"noise strength must be finite and >= 0, got {strength}")
    if not 0 <= int(seed) < 2**64:
        raise ValueError("seed must fit in an unsigned 64-bit integer")
    r = np.random.default_rng(int(seed)).random(noise_window_count(schedule.duration, window))
    return replace(schedule, window=float(window), offsets=tuple(strength * (0.5 - rk) for rk in r))
