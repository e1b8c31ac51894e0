"""Control schedules g(t) for bond cutting and stitching, plus apparatus noise.

A cut drives the bond coupling from 1 to 0 over [0, duration]; a stitch drives
it from 0 to 1.  Outside [0, duration] every schedule sits on its process
plateau (cut: 1 before, 0 after; stitch: the mirror).  Three families are
provided: polynomials with pinned endpoints, a linear ramp plus a sine series,
and trains of rectangular pulses with free amplitudes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

KINDS = ("polynomial_cut", "sine_cut", "pulse", "polynomial_stitch")


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

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        if self.duration <= 0:
            raise ValueError(f"duration must be positive, got {self.duration}")
        if self.direction not in ("cut", "stitch"):
            raise ValueError(f"direction must be 'cut' or 'stitch', got {self.direction!r}")
        if self.kind == "polynomial_cut" and self.direction != "cut":
            raise ValueError("polynomial_cut schedules have direction 'cut'")
        if self.kind == "sine_cut" and self.direction != "cut":
            raise ValueError("sine_cut schedules have direction 'cut'")
        if self.kind == "polynomial_stitch" and self.direction != "stitch":
            raise ValueError("polynomial_stitch schedules have direction 'stitch'")
        if self.kind == "pulse" and not self.params:
            raise ValueError("pulse schedules need at least one amplitude")
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))

    # -- plateau values outside the drive window ---------------------------
    @property
    def start_value(self) -> float:
        return 1.0 if self.direction == "cut" else 0.0

    @property
    def end_value(self) -> float:
        return 0.0 if self.direction == "cut" else 1.0

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
        if self.kind == "pulse":
            dt = T / len(self.params)
            idx = np.clip((t // dt).astype(int), 0, len(self.params) - 1)
            inside = np.asarray(self.params)[idx]
        elif self.kind == "polynomial_cut":
            inside = _horner_from_one(self._full_poly_coeffs(), t / T)
        elif self.kind == "polynomial_stitch":
            inside = _horner_from_one(self._full_poly_coeffs(), (T - t) / T)
        else:  # sine_cut
            x = t / T
            inside = 1.0 - x
            for n, b in enumerate(self.params, start=1):
                inside = inside + b * np.sin(n * np.pi * x)
        out = np.where(t < 0.0, self.start_value, np.where(t >= T, self.end_value, inside))
        return out.astype(float)

    def breakpoints(self) -> tuple[float, ...]:
        """Interior times where g jumps; empty for smooth schedules."""
        if self.kind != "pulse":
            return ()
        dt = self.duration / len(self.params)
        return tuple(k * dt for k in range(1, len(self.params)))

    @property
    def piecewise_constant(self) -> bool:
        return self.kind == "pulse"

    def to_dict(self) -> dict:
        """Wire format used by config files and manifests."""
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


def make_schedule(
    kind: str,
    duration: float,
    params: Sequence[float] = (),
    direction: str | None = None,
) -> ControlSchedule:
    """Schedule factory used by config files; direction is required for pulses."""
    if kind == "pulse":
        return pulse_train(duration, params, direction or "cut")
    implied = "stitch" if kind == "polynomial_stitch" else "cut"
    if direction is not None and direction != implied:
        raise ValueError(f"schedule kind {kind!r} implies direction {implied!r}, got {direction!r}")
    return ControlSchedule(kind, float(duration), tuple(params), implied)


@dataclass(frozen=True)
class NoiseSpec:
    """Rectangular apparatus noise: per-window offsets of random strength.

    Windows of length ``window`` are aligned to t = 0; within window k the
    control picks up strength * (1/2 - r_k) with r_k uniform on [0, 1) from a
    deterministic seeded generator.
    """

    window: float
    strength: float
    seed: int

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ValueError(f"noise window must be positive, got {self.window}")
        if self.strength < 0:
            raise ValueError(f"noise strength must be >= 0, got {self.strength}")
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")


@dataclass(frozen=True)
class NoisySchedule:
    """A schedule with a frozen noise realization added on [0, duration)."""

    base: ControlSchedule
    noise: NoiseSpec
    offsets: tuple[float, ...]

    @property
    def duration(self) -> float:
        return self.base.duration

    @property
    def direction(self) -> str:
        return self.base.direction

    @property
    def piecewise_constant(self) -> bool:
        return self.base.piecewise_constant

    def value(self, t: float) -> float:
        return float(self.values(np.asarray([t], dtype=float))[0])

    def values(self, times: np.ndarray) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        base = self.base.values(t)
        idx = np.clip((t // self.noise.window).astype(int), 0, len(self.offsets) - 1)
        bump = np.asarray(self.offsets)[idx]
        return np.where((t >= 0.0) & (t < self.duration), base + bump, base)

    def breakpoints(self) -> tuple[float, ...]:
        edges = set(self.base.breakpoints())
        k = 1
        while k * self.noise.window < self.duration - 1e-12 * self.duration:
            edges.add(k * self.noise.window)
            k += 1
        return tuple(sorted(edges))


def noise_window_count(duration: float, window: float) -> int:
    """Number of aligned noise windows needed to cover [0, duration)."""
    ratio = duration / window
    n = int(np.ceil(ratio - 1e-9))
    return max(n, 1)


def apply_noise(schedule: ControlSchedule, noise: NoiseSpec) -> NoisySchedule:
    """Freeze one seeded noise realization on top of a schedule."""
    n = noise_window_count(schedule.duration, noise.window)
    r = np.random.default_rng(int(noise.seed)).random(n)
    offsets = tuple(noise.strength * (0.5 - rk) for rk in r)
    return NoisySchedule(schedule, noise, offsets)
