"""The benchmark workloads: set-up, one measured pass, and accuracy anchors.

Every parameter a pass feeds the program is drawn fresh from (seed, pass
index), so no timed pass evaluates a schedule twice: the per-g spectrum cache
in ``StepPropagator`` serves only what real optimizer traffic would repeat.
Calls go through module attributes (``runner.execute``, not a bound name) so
that a traced run sees them.
"""

from __future__ import annotations

import contextlib
import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import spinsplice.optimize as optimize
import spinsplice.process as process
import spinsplice.runner as runner
from spinsplice.chain import ChainSpec
from spinsplice.control import polynomial_cut, pulse_train

UNIT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class Scale:
    """Problem sizes.  FULL is the benchmark; TINY only exercises the harness."""

    small: int  # spins of the ring6 / open6 chains
    medium: int  # spins of the ring8 chain
    large: int  # spins of the ring10 chain
    n_steps: int
    bfgs_iterations: int
    landscape_resolution: int
    noise_realizations: int
    evolve_steps: int  # steps of each evolve_ring8 trajectory and evaluation
    pulses: int


FULL = Scale(small=6, medium=8, large=10, n_steps=300, bfgs_iterations=1,
             landscape_resolution=3, noise_realizations=2, evolve_steps=60, pulses=9)
TINY = Scale(small=4, medium=4, large=4, n_steps=12, bfgs_iterations=1,
             landscape_resolution=2, noise_realizations=2, evolve_steps=6, pulses=3)


class Miss(Exception):
    """A result outside its invariant or away from its reference value."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Miss(message)


def in_unit(f: float) -> bool:
    return -UNIT_TOLERANCE <= f <= 1.0 + UNIT_TOLERANCE


class Ledger:
    """Counts operations; one that raises or misses a check counts as failed.
    The first MAX_MISSES failures are kept with their messages."""

    MAX_MISSES = 50

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.misses: list[str] = []

    @contextlib.contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # a failed operation is counted, never fatal
            self.failed += 1
            if len(self.misses) < self.MAX_MISSES:
                self.misses.append(f"{name}: {type(exc).__name__}: {exc}")

    def merge(self, attempted: int, failed: int, misses: list[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        self.misses += misses[: self.MAX_MISSES - len(self.misses)]


def _ring(n: int) -> ChainSpec:
    return ChainSpec(n, "ring", 1.0, 2.0)


def _execute(config: dict):
    with contextlib.redirect_stdout(io.StringIO()):
        return runner.execute(runner.parse_config(config))


def _ramp(k: int) -> np.ndarray:
    return 1.0 - (np.arange(k) + 0.5) / k


class Workload:
    name = ""

    def __init__(self, scale: Scale, out_dir: Path) -> None:
        self.scale = scale
        self.out_dir = out_dir

    def chains(self) -> dict[str, ChainSpec]:
        raise NotImplementedError

    def dim(self) -> int:
        """Hilbert-space dimension of the workload's largest chain."""
        return 2 ** max(spec.n_spins for spec in self.chains().values())

    def setup(self) -> dict:
        """Cold ``prepare_process`` for every chain the workload uses."""
        return {key: process.prepare_process(spec, "cut") for key, spec in self.chains().items()}

    def run_pass(self, ctx: dict, index: int, rng: np.random.Generator, ledger: Ledger) -> int:
        """One measured pass; returns the fidelity evaluations it completed."""
        raise NotImplementedError

    def anchors(self, ctx: dict) -> dict:
        """Seed-independent results, by name, as zero-argument callables."""
        raise NotImplementedError


class OptimizeRing6(Workload):
    """BFGS through runner.execute at the Table-1 durations, from seeded starts."""

    name = "optimize_ring6"
    DURATIONS = (0.3, 0.6, 0.9)
    TABLE1 = {0.3: (122.8, -82.0), 0.6: (54.3, -36.3), 0.9: (20.0, -13.5)}

    def chains(self):
        return {"ring": _ring(self.scale.small)}

    def run_pass(self, ctx, index, rng, ledger):
        duration = self.DURATIONS[index % len(self.DURATIONS)]
        start = rng.uniform(-2.0, 2.0, 2)
        config = {
            "mode": "optimize",
            "chain": {"n_spins": self.scale.small, "topology": "ring", "exchange": 1.0, "field": 2.0},
            "process": "cut",
            "schedule": {"kind": "polynomial_cut", "T": duration, "params": start.tolist()},
            "n_steps": self.scale.n_steps,
            "optimizer": {"max_iterations": self.scale.bfgs_iterations},
            "out_dir": str(self.out_dir),
        }
        evals = 0
        with ledger.op(f"optimize T={duration}"):
            report = _execute(config)["report"]
            evals = report.evaluations
            expect(all(in_unit(v) for _, v in report.trace), "BFGS trace value outside [0, 1]")
            expect(report.final_value >= report.initial_value, "BFGS final below initial")
        return evals

    def anchors(self, ctx):
        ring, steps = ctx["ring"], self.scale.n_steps
        return {
            f"table1_T{t}": (lambda t=t, p=p: ring.fidelity(polynomial_cut(t, p), steps))
            for t, p in self.TABLE1.items()
        }


class ScanRing6(Workload):
    """A jittered fig8 landscape, then fig7-window noise ensembles on open6."""

    name = "scan_ring6"
    DURATION = 0.6
    AXES = ((0, -30.0, 140.0), (1, -100.0, 30.0))  # fig8 polynomial axes
    NOISE_PARAMS = (34.9, -23.4)  # fig7 / noise_open6.json schedule
    NOISE_STRENGTHS = (0.0, 1.2)

    def chains(self):
        return {"ring": _ring(self.scale.small), "open": ChainSpec(self.scale.small, "open", 1.0, 2.0)}

    def _noise(self, ctx, params, window, realizations, strengths, seed):
        return runner.noise_study(ctx["open"], polynomial_cut(self.DURATION, params), strengths,
                                  window, realizations, seed, self.scale.n_steps)

    def run_pass(self, ctx, index, rng, ledger):
        res = self.scale.landscape_resolution
        jitter = rng.uniform(0.0, 1.0, 2)
        axes = tuple(
            optimize.LandscapeAxis(i, lo + j * (hi - lo) / (res - 1), hi + j * (hi - lo) / (res - 1), res)
            for (i, lo, hi), j in zip(self.AXES, jitter)
        )
        spec = process.ObjectiveSpec(chain=ctx["ring"].chain, kind="polynomial_cut",
                                     duration=self.DURATION, n_free_params=2, n_steps=self.scale.n_steps)
        evals = 0
        with ledger.op("landscape"):
            objective, _ = process.build_objective(spec, ctx["ring"])
            grid = optimize.scan_landscape(objective, axes, workers=1)
            evals += grid.values.size
            expect(all(in_unit(f) for f in grid.values.ravel()), "landscape cell outside [0, 1]")

        realizations = self.scale.noise_realizations
        for window in (self.DURATION / 60, self.DURATION / 6):  # fig7 high and low windows
            params = np.asarray(self.NOISE_PARAMS) + rng.normal(0.0, 1.0, 2)
            with ledger.op(f"noise window={window:g}"):
                rows, _ = self._noise(ctx, params, window, realizations, self.NOISE_STRENGTHS,
                                      int(rng.integers(2**32)))
                evals += 1 + realizations * sum(1 for dg in self.NOISE_STRENGTHS if dg != 0.0)
                expect(all(in_unit(r["mean_fc"]) and r["std_fc"] >= 0.0 for r in rows),
                       "noise row outside its bounds")
                expect(rows[0]["dg"] == 0.0 and rows[0]["std_fc"] == 0.0, "dg = 0 row has spread")
        return evals

    def anchors(self, ctx):
        objective, _ = process.build_objective(
            process.ObjectiveSpec(chain=ctx["ring"].chain, kind="polynomial_cut",
                                  duration=self.DURATION, n_free_params=2, n_steps=self.scale.n_steps),
            ctx["ring"])
        return {
            "landscape_origin": lambda: objective(np.zeros(2)),
            "published_point": lambda: objective(np.array([54.3, -36.3])),
            "noise_dg0": lambda: self._noise(ctx, self.NOISE_PARAMS, self.DURATION / 60, 2,
                                             (0.0,), 0)[0][0]["mean_fc"],
        }


class EvolveRing8(Workload):
    """A recorded trajectory through runner.execute, then one final-state evaluation."""

    name = "evolve_ring8"
    DURATION = 0.6
    CENTER = np.array([54.3, -36.3])

    def chains(self):
        return {"ring": _ring(self.scale.medium)}

    def run_pass(self, ctx, index, rng, ledger):
        evals = 0
        config = {
            "mode": "evolve",
            "chain": {"n_spins": self.scale.medium, "topology": "ring", "exchange": 1.0, "field": 2.0},
            "process": "cut",
            "schedule": {"kind": "polynomial_cut", "T": self.DURATION,
                         "params": (self.CENTER + rng.normal(0.0, 5.0, 2)).tolist()},
            "n_steps": self.scale.evolve_steps,
            "out_dir": str(self.out_dir),
        }
        with ledger.op("trajectory"):
            out = _execute(config)
            evals += 1
            with open(out["files"][0], newline="") as fh:
                rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
            expect(all(in_unit(r["f_c"]) and in_unit(r["f_g"]) for r in rows), "trajectory f outside [0, 1]")
            # f_G <= f_C is a theorem once the chain is split (g = 0): the final sample
            expect(rows[-1]["g"] == 0.0 and rows[-1]["f_g"] <= rows[-1]["f_c"] + UNIT_TOLERANCE,
                   "final f_G above f_C")
            expect(abs(rows[-1]["f_c"] - out["f_c"]) <= 1e-12, "trajectory CSV disagrees with the returned f_C")
        with ledger.op("fidelity"):
            f = ctx["ring"].fidelity(polynomial_cut(self.DURATION, self.CENTER + rng.normal(0.0, 5.0, 2)),
                                     self.scale.evolve_steps)
            evals += 1
            expect(in_unit(f), "fidelity outside [0, 1]")
        return evals

    def anchors(self, ctx):
        return {"ring8_point": lambda: ctx["ring"].fidelity(
            polynomial_cut(self.DURATION, self.CENTER), self.scale.n_steps)}


class PulseRing10(Workload):
    """One K-pulse train with seeded amplitudes per pass."""

    name = "pulse_ring10"
    DURATION = 0.6

    def chains(self):
        return {"ring": _ring(self.scale.large)}

    def run_pass(self, ctx, index, rng, ledger):
        amplitudes = _ramp(self.scale.pulses) + rng.uniform(-0.5, 0.5, self.scale.pulses)
        evals = 0
        with ledger.op("pulse fidelity"):
            f = ctx["ring"].fidelity(pulse_train(self.DURATION, amplitudes), self.scale.n_steps)
            evals += 1
            expect(in_unit(f), "fidelity outside [0, 1]")
        return evals

    def anchors(self, ctx):
        return {"ring10_ramp_pulses": lambda: ctx["ring"].fidelity(
            pulse_train(self.DURATION, _ramp(self.scale.pulses)), self.scale.n_steps)}


WORKLOADS = {w.name: w for w in (OptimizeRing6, ScanRing6, EvolveRing8, PulseRing10)}
