"""Experiment harness: declarative run configs, output files, and manifests.

A config file (JSON) describes exactly one experiment mode:

    evolve     one schedule, full trajectory CSV
    optimize   BFGS maximization of the final fidelity over schedule parameters
    sweep      baseline and optimized fidelity over a list of durations
    landscape  fidelity over a 2-D grid of two schedule parameters
    noise      mean/std of the fidelity under seeded control noise
    two_spin   detach a two-spin block: linear baseline vs pulse control

One field table (``SCHEMA``) checks a raw config and normalizes it; the
normalized dict is what a run uses and what its manifest echoes.  ``execute``
gives every run one lifecycle: it checks the output directory, prepares the
run's one process, runs the mode on it, and writes the mode's outputs plus a
manifest (config echo, code version, checksums, seeds, health) there;
outputs are bit-reproducible from the manifest.

The optimize, landscape and sweep modes share one BFGS path, ``_maximize``:
one step machine per duration and start, all in one ``lockstep``, so every
round is one ``fidelities`` call.

Every CSV and JSON file a run or a ``reproduce`` target writes goes through
``write_csv`` or ``write_json``: this module alone owns the output format.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._version import __version__
from .chain import DEFAULT_SPIN_CAP, ChainSpec, cut_components
from .control import DIRECTIONS, KINDS, ControlSchedule, apply_noise, linear_baseline, noise_window_count
from .dynamics import integration_grid
from .optimize import (
    DEFAULT_GRADIENT_STEP,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    LandscapeAxis,
    OptimizationReport,
    best_of,
    bfgs_steps,
    lockstep,
    scan_landscape,
)
from .process import DEFAULT_TIME_STEPS, prepare_process

MODES = ("evolve", "optimize", "sweep", "landscape", "noise", "two_spin")

# Bounds on what a config may ask for, so that no input can request
# unbounded work or memory.  README "Command line" lists them.
MAX_MAGNITUDE = 1e6  # every real-valued field
MAX_STEPS = 100_000  # n_steps, and noise windows per schedule (T / window)
MAX_PARAMS = 100  # schedule.params entries
MAX_NOISE_WINDOWS = 1_000_000  # noise windows over all noisy realizations of a run
MAX_RESOLUTION = 100  # landscape points per axis
MAX_REALIZATIONS = 10_000  # noise realizations per strength
MAX_ITERATIONS = 10_000  # optimizer.max_iterations
MAX_PER_AXIS = 10  # multi-start points per free parameter
MAX_STARTS = 1_000  # BFGS runs: per_axis ** n_free starts, times a sweep's durations
MAX_STRENGTHS = 100  # noise.strengths entries
MAX_CALL_VALUES = 50_000_000  # a fidelities call: schedules x (2^N + grid points); a recorded evolve: samples x 2^N


class ConfigError(ValueError):
    """A run config failed validation; the message names the offending field."""


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

# check(value, path) returns the normalized value or raises ConfigError
Check = Callable[[object, str], object]
REQUIRED = object()


class Field(NamedTuple):
    """A config field: its check (type and bounds), its default, and the modes
    that allow it (empty: all).  An unset field takes its default; a default
    of None leaves it unset, REQUIRED makes it an error."""

    check: Check
    default: object = REQUIRED
    modes: tuple[str, ...] = ()


def real(lo: float = -MAX_MAGNITUDE, hi: float = MAX_MAGNITUDE, above: bool = False) -> Check:
    """A finite float in [lo, hi], or in (lo, hi] when ``above``."""

    def check(value, path):
        # finite bounds also reject nan and +-inf
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not lo <= value <= hi or (above and value == lo)):
            raise ConfigError(
                f"{path}: must be a finite number in {'(' if above else '['}{lo:g}, {hi:g}], "
                f"got {value!r}"
            )
        return float(value)

    return check


def integer(lo: int, hi: float = math.inf) -> Check:
    """An int in [lo, hi]; bools are rejected."""

    def check(value, path):
        if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
            raise ConfigError(f"{path}: must be an integer in [{lo}, {hi}], got {value!r}")
        return value

    return check


def choice(*options) -> Check:
    def check(value, path):
        if not any(type(value) is type(o) and value == o for o in options):
            raise ConfigError(f"{path}: must be one of {list(options)}, got {value!r}")
        return value

    return check


def items(item: Check, min_len: int = 1, max_len: float = math.inf) -> Check:
    """A list of min_len..max_len entries, each checked by ``item``."""

    def check(value, path):
        if not isinstance(value, (list, tuple)) or not min_len <= len(value) <= max_len:
            size = (min_len if min_len == max_len else f"at least {min_len}" if max_len == math.inf
                    else f"{min_len} to {max_len}")
            got = f"{len(value)} entries" if isinstance(value, (list, tuple)) else repr(value)
            raise ConfigError(f"{path}: must be a list of {size} entries, got {got}")
        return [item(v, f"{path}[{k}]") for k, v in enumerate(value)]

    return check


def path_string(value, path):
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: must be a non-empty path string, got {value!r}")
    return value


def section(fields: dict[str, Field]) -> Check:
    return lambda value, path: check_fields(fields, value, path + ".")


def check_fields(fields: dict[str, Field], data, prefix: str = "", mode: str | None = None) -> dict:
    """Check a raw object against a field table; return it normalized.

    Missing and null fields are unset.  Defaults are checked like input.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"{prefix.rstrip('.') or 'config'}: expected an object, got {data!r}")
    unknown = sorted(set(data) - set(fields))
    if unknown:
        raise ConfigError(f"{prefix}{unknown[0]}: unknown config key")
    out = {}
    for name, field in fields.items():
        path, value = prefix + name, data.get(name)
        if field.modes and mode not in field.modes:
            if value is not None:
                raise ConfigError(f"{path}: section not allowed in mode '{mode}'")
            continue
        if value is None:
            if field.default is REQUIRED:
                raise ConfigError(f"{path}: required")
            if field.default is None:
                continue
            value = field.default
        out[name] = field.check(value, path)
    return out


POSITIVE = real(0.0, above=True)

CHAIN = {
    "n_spins": Field(integer(2, DEFAULT_SPIN_CAP)),
    "topology": Field(choice("open", "ring"), "open"),
    "exchange": Field(real(), 1.0),
    "field": Field(real()),
    "cut_bonds": Field(items(items(integer(1, DEFAULT_SPIN_CAP), 2, 2)), None),
}
SCHEDULE = {
    "kind": Field(choice(*KINDS), "polynomial_cut"),
    "T": Field(POSITIVE),
    "params": Field(items(real(), 0, MAX_PARAMS), []),
    "direction": Field(choice("cut", "stitch"), None),
}
MULTI_START = {
    "per_axis": Field(integer(1, MAX_PER_AXIS), 3),
    "lower": Field(real(), -1.0),
    "upper": Field(real(), 1.0),
}
OPTIMIZER = {
    "grad_step": Field(POSITIVE, DEFAULT_GRADIENT_STEP),
    "tolerance": Field(real(0.0), DEFAULT_TOLERANCE),
    "max_iterations": Field(integer(0, MAX_ITERATIONS), DEFAULT_MAX_ITERATIONS),
    "multi_start": Field(section(MULTI_START), None),
}
LANDSCAPE_AXIS = {
    "param_index": Field(integer(0)),
    "min": Field(real()),
    "max": Field(real()),
    "resolution": Field(integer(2, MAX_RESOLUTION)),
}
NOISE = {
    "strengths": Field(items(real(0.0), 1, MAX_STRENGTHS)),
    "window": Field(POSITIVE),
    "realizations": Field(integer(2, MAX_REALIZATIONS), 50),
    "seed": Field(integer(0, 2**64 - 1), 20240901),
}
SCHEMA = {
    "mode": Field(choice(*MODES)),
    "chain": Field(section(CHAIN)),
    "process": Field(choice("cut", "stitch"), "cut"),
    "schedule": Field(section(SCHEDULE)),
    "target": Field(choice("cut", "ground"), None),
    "n_steps": Field(integer(1, MAX_STEPS), DEFAULT_TIME_STEPS),
    "optimizer": Field(section(OPTIMIZER), {}, ("optimize", "sweep", "landscape")),
    "sweep": Field(section({
        "times": Field(items(POSITIVE)),
        "optimize": Field(choice(True, False), True),
    }), REQUIRED, ("sweep",)),
    "landscape": Field(section({
        "axes": Field(items(section(LANDSCAPE_AXIS), 2, 2)),
    }), REQUIRED, ("landscape",)),
    "noise": Field(section(NOISE), REQUIRED, ("noise",)),
    "out_dir": Field(path_string, "runs"),
}

TWO_SPIN_DEFAULTS = {
    "chain": {
        "n_spins": 5,
        "topology": "open",
        "exchange": 1.0,
        "field": 2.1,
        "cut_bonds": [[2, 3]],
    },
    "schedule": {"kind": "pulse", "T": 0.6, "params": [-5.4, 4.1]},
}


@dataclass(frozen=True)
class RunConfig:
    """A validated run: the normalized config dict plus the chain and schedule
    built from it.  Top-level fields read as attributes (``config.n_steps``)."""

    data: dict
    chain: ChainSpec
    schedule: ControlSchedule

    def __getattr__(self, name: str):
        try:
            return self.__dict__["data"][name]
        except KeyError:
            raise AttributeError(name) from None

    @property
    def out_dir(self) -> Path:
        return Path(self.data["out_dir"])


def parse_config(data: dict, mode: str | None = None) -> RunConfig:
    """Validate a config dict into a RunConfig; every error names its field."""
    if not isinstance(data, dict):
        raise ConfigError("config: expected a JSON object")
    data = dict(data)
    if mode is not None:
        data.setdefault("mode", mode)
    run_mode = SCHEMA["mode"].check(data.get("mode"), "mode")
    if run_mode == "two_spin":
        for key, value in TWO_SPIN_DEFAULTS.items():
            if data.get(key) is None:
                data[key] = value
    cfg = check_fields(SCHEMA, data, "", run_mode)

    # rules that span fields
    process = cfg["process"]
    cfg.setdefault("target", "cut" if process == "cut" else "ground")
    if run_mode == "two_spin":  # it scores f_C of a detached block
        for key in ("process", "target"):
            if cfg[key] != "cut":
                raise ConfigError(f"{key}: mode 'two_spin' scores a cut, got {cfg[key]!r}")
    # past the schema, a chain without its cut bonds can fail only on a ring's size
    uncut = {key: value for key, value in cfg["chain"].items() if key != "cut_bonds"}
    for path, fields in (("chain.n_spins", uncut), ("chain.cut_bonds", cfg["chain"])):
        try:
            chain = ChainSpec(**fields)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    try:
        block, _ = cut_components(chain)
    except ValueError as exc:
        raise ConfigError(f"chain.cut_bonds: {exc}") from exc
    if run_mode == "two_spin" and len(block) != 2:
        raise ConfigError(
            f"chain.cut_bonds: mode 'two_spin' detaches a two-spin block, got sites {list(block)}"
        )
    cfg["chain"]["cut_bonds"] = sorted(list(bond) for bond in chain.cut_bonds)
    sched = cfg["schedule"]
    try:
        schedule = ControlSchedule(sched["kind"], sched["T"], sched["params"],
                                   sched.get("direction") or DIRECTIONS[sched["kind"]] or process)
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc
    if schedule.direction != process:
        raise ConfigError(
            f"schedule.direction: schedule is a {schedule.direction!r} drive but the "
            f"process is {process!r}"
        )
    sched["direction"] = process
    n_free = len(schedule.params)

    # the schedules of each fidelities call the run makes, by the field that sets their number
    calls = {"n_steps": 2 if run_mode == "two_spin" else 1}
    durations = len(cfg["sweep"]["times"]) if run_mode == "sweep" else 1
    windows = 0  # noise windows per schedule
    n_starts = 1
    if run_mode in ("optimize", "landscape") or (run_mode == "sweep" and cfg["sweep"]["optimize"]):
        if n_free == 0:
            raise ConfigError(f"schedule.params: mode '{run_mode}' needs at least one free parameter")
        starts = cfg["optimizer"].get("multi_start")
        if starts:
            n_starts = starts["per_axis"] ** n_free
            if n_starts > MAX_STARTS:
                raise ConfigError(
                    f"optimizer.multi_start.per_axis: {starts['per_axis']} points on each of "
                    f"{n_free} parameters exceed {MAX_STARTS} starts"
                )
        # a BFGS round: every run's point and its 2n gradient points
        field = "sweep.times" if run_mode == "sweep" else "optimizer.multi_start"
        calls[field] = durations * n_starts * (2 * n_free + 1)
    if run_mode == "sweep":
        if durations * n_starts > MAX_STARTS:
            raise ConfigError(
                f"sweep.times: {durations} durations of {n_starts} starts each exceed {MAX_STARTS} runs"
            )
        calls.setdefault("sweep.times", durations)  # the baselines, when nothing is optimized
    if run_mode == "landscape":
        axes = cfg["landscape"]["axes"]
        for k, axis in enumerate(axes):
            if axis["param_index"] >= n_free:
                raise ConfigError(
                    f"landscape.axes[{k}].param_index: references parameter "
                    f"{axis['param_index']} but the schedule has {n_free} free parameters"
                )
            if axis["max"] <= axis["min"]:
                raise ConfigError(f"landscape.axes[{k}].max: must exceed min")
        if axes[0]["param_index"] == axes[1]["param_index"]:
            raise ConfigError("landscape.axes: the two axes must vary different parameters")
        calls["landscape.axes"] = axes[0]["resolution"] * axes[1]["resolution"]
    if run_mode == "noise":
        noise = cfg["noise"]
        if schedule.duration / noise["window"] > MAX_STEPS:
            raise ConfigError(f"noise.window: T / window exceeds {MAX_STEPS} noise windows")
        noisy = sum(1 for dg in noise["strengths"] if dg != 0.0) * noise["realizations"]
        windows = noise_window_count(schedule.duration, noise["window"])
        if noisy * windows > MAX_NOISE_WINDOWS:
            raise ConfigError(
                f"noise: {noisy} noisy realizations of {windows} windows each exceed "
                f"{MAX_NOISE_WINDOWS} noise windows"
            )
        calls["noise"] = 1 + noisy
    if run_mode == "evolve":  # a recorded run reads the full-space state at every grid point
        samples = integration_grid(schedule, cfg["n_steps"]).size
        if samples * 2 ** chain.n_spins > MAX_CALL_VALUES:
            raise ConfigError(
                f"n_steps: a recorded evolve of {samples} samples of {2 ** chain.n_spins} values each "
                f"exceeds {MAX_CALL_VALUES} values"
            )
    # each schedule of a call holds a 2^N state and a grid of its steps, noise windows and pulse edges
    size = 2 ** chain.n_spins + cfg["n_steps"] + 1 + windows + len(schedule.breakpoints())
    for name, columns in calls.items():
        if columns * size > MAX_CALL_VALUES:
            raise ConfigError(
                f"{name}: one fidelities call of {columns} schedules of {size} values each "
                f"exceeds {MAX_CALL_VALUES} values"
            )
    return RunConfig(cfg, chain, schedule)


def read_config(path: str | Path):
    """The raw JSON value of a config file, for ``parse_config`` to check."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config: file not found: {path}")
    try:
        return json.loads(path.read_text())
    except (ValueError, RecursionError) as exc:  # invalid JSON, undecodable bytes or too deeply nested
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# outputs and manifests
# ---------------------------------------------------------------------------

def ensure_writable(out_dir: Path) -> None:
    """Fail with an I/O error before any computation if we cannot write outputs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write_probe"
    probe.write_bytes(b"")
    probe.unlink()


def write_csv(path: Path, header, rows, preamble=()) -> Path:
    """Write ``# `` preamble lines, the header and one line per row.  Floats
    (numpy's included) are written as ``%.15e``, every other cell with str."""
    with path.open("w") as fh:
        for line in preamble:
            fh.write(f"# {line}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.15e}" if isinstance(x, float) else str(x) for x in row) + "\n")
    return path


def write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_manifest(out_dir: Path, config: dict, outputs: list[Path],
                   seeds: dict | None, started: float, health: dict | None = None) -> Path:
    manifest = {
        "version": __version__,
        "config": config,
        "wall_clock_seconds": time.time() - started,
        "outputs": {p.name: _sha256(p) for p in outputs},
        "seeds": seeds or {},
    }
    if health is not None:
        manifest["health"] = health
    return write_json(out_dir / "manifest.json", manifest)


def _starts(config: RunConfig) -> list[np.ndarray]:
    """Where BFGS starts: the schedule's params, or the multi-start grid that
    replaces them."""
    ms = config.optimizer.get("multi_start")
    params = config.schedule.params
    if not ms:
        return [np.asarray(params, dtype=float)]
    n_free = len(params)
    axes = [np.linspace(ms["lower"], ms["upper"], ms["per_axis"])] * n_free
    return [np.asarray(p) for p in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, n_free)]


def _schedule(config: RunConfig, duration: float, params) -> ControlSchedule:
    """The config's schedule at another duration and params (as a tuple: ``ControlSchedule`` tests it for emptiness)."""
    return replace(config.schedule, duration=duration, params=tuple(params))


def _maximize(config: RunConfig, process, durations) -> tuple[list[OptimizationReport], dict]:
    """BFGS at each duration from every start, all runs in one ``lockstep``,
    so each round is one ``fidelities`` call.  Returns the best report per
    duration (ties go to the earliest start) and the health counts."""
    starts = _starts(config)
    options = {k: v for k, v in config.optimizer.items() if k != "multi_start"}

    def evaluate(requests):
        schedules = [_schedule(config, durations[k // len(starts)], col) for k, points in requests for col in points.T]
        return process.fidelities(schedules, config.n_steps, config.target)

    reports = lockstep(evaluate, [bfgs_steps(x0, **options) for _ in durations for x0 in starts])
    best = [best_of(reports[i:i + len(starts)]) for i in range(0, len(reports), len(starts))]
    return best, {"rounds": max((r.rounds for r in reports), default=0),
                  "evaluations": sum(r.evaluations for r in reports)}


# ---------------------------------------------------------------------------
# experiment modes
# ---------------------------------------------------------------------------

TRAJECTORY_COLUMNS = ("t", "g", "f_c", "f_g", "purity_A", "entropy_A", "entropy_B", "gap")


def run_evolve(config: RunConfig, process) -> dict:
    psi, record = process.run(config.schedule, config.n_steps)
    traj = write_csv(config.out_dir / "trajectory.csv", TRAJECTORY_COLUMNS, zip(
        record.times, record.g_values, record.f_c, record.f_g,
        record.purity_a, record.entropy_a, record.entropy_a, record.gap,
    ))
    prop = process.propagator
    health = {
        "block_dims": [int(prop.blocks[k].size) for k in prop.occupied(process.psi0)],
        "norm_error": abs(float(np.linalg.norm(psi)) - 1.0),
        "min_gap": float(record.gap.min()),
        "degenerate_samples": int(record.degenerate_flags.sum()),
        "max_norm_dt": record.max_norm_dt,
        "taylor_matvecs": record.taylor_matvecs,
        "value_blocks": record.value_blocks,
        "vector_blocks": record.vector_blocks,
    }
    f_c, f_g = float(record.f_c[-1]), float(record.f_g[-1])
    print(f"final f_C = {f_c:.3f}  f_G = {f_g:.3f}")
    return {"f_c": f_c, "f_g": f_g, "files": [traj], "health": health}


def run_optimize(config: RunConfig, process) -> dict:
    (report,), health = _maximize(config, process, [config.schedule.duration])
    path = write_json(config.out_dir / "optimization.json", report.to_dict())
    print(
        f"optimized fidelity = {report.final_value:.3f} (baseline {report.initial_value:.3f}) "
        f"params = {np.round(report.final_params, 3).tolist()} [{report.status}]"
    )
    return {"report": report, "files": [path], "health": health}


def run_sweep(config: RunConfig, process) -> dict:
    """Baseline and optimized fidelity at each duration.  The baselines are one
    ``fidelities`` call; the optimizations are one ``_maximize`` over every
    duration."""
    n_free = len(config.schedule.params)
    times = config.sweep["times"]
    baselines = process.fidelities([linear_baseline(d, config.process) for d in times],
                                   config.n_steps, config.target)
    if config.sweep["optimize"]:
        best, health = _maximize(config, process, times)
        rows = [(d, float(fb), r.final_value, r.final_params, r.status) for d, fb, r in zip(times, baselines, best)]
    else:
        health = {"rounds": 0, "evaluations": 0}
        rows = [(d, float(fb), float(fb), (0.0,) * n_free, "baseline") for d, fb in zip(times, baselines)]
    header = ["T", "f_baseline", "f_opt"] + [f"param_{k + 1}" for k in range(n_free)] + ["status"]
    path = write_csv(config.out_dir / "sweep.csv", header,
                     ((d, fb, fo, *params, status) for d, fb, fo, params, status in rows))
    for duration, fb, fo, _, status in rows:
        print(f"T = {duration:g}: baseline {fb:.3f} optimized {fo:.3f} [{status}]")
    return {"rows": rows, "files": [path], "health": health}


def run_landscape(config: RunConfig, process) -> dict:
    """Scan the fidelity over the two axes around the schedule's params, in one
    ``fidelities`` call, then maximize it from there; the optimum and the grid
    maximum go to optimum.json."""
    duration = config.schedule.duration
    axes = tuple(LandscapeAxis(ax["param_index"], ax["min"], ax["max"], ax["resolution"])
                 for ax in config.landscape["axes"])
    grid = scan_landscape(
        lambda points: process.fidelities([_schedule(config, duration, col) for col in points.T],
                                          config.n_steps, config.target),
        axes, base_params=config.schedule.params)
    (report,), health = _maximize(config, process, [duration])
    preamble = [f"axis{k + 1}: param_index={ax.param_index} min={ax.lower:.15e} "
                f"max={ax.upper:.15e} resolution={ax.resolution}" for k, ax in enumerate(axes)]
    preamble.append(f"base_params: {list(grid.base_params)}")
    p1, p2 = np.meshgrid(axes[0].grid(), axes[1].grid(), indexing="ij")
    grid_path = write_csv(config.out_dir / "landscape.csv", ("p1", "p2", "fidelity"),
                          zip(p1.ravel(), p2.ravel(), grid.values.ravel()), preamble)
    marker = {
        "optimum_params": list(report.final_params),
        "optimum_value": report.final_value,
        "status": report.status,
        "grid_max": dict(zip(("p1", "p2", "value"), grid.max_point())),
    }
    marker_path = write_json(config.out_dir / "optimum.json", marker)
    print(
        f"landscape max {marker['grid_max']['value']:.3f} at "
        f"({marker['grid_max']['p1']:.3g}, {marker['grid_max']['p2']:.3g}); "
        f"optimizer reached {report.final_value:.3f}"
    )
    return {"grid": grid, "report": report, "files": [grid_path, marker_path], "health": health}


def noise_study(process, schedule, strengths, window, realizations, master_seed,
                n_steps=DEFAULT_TIME_STEPS, target="cut"):
    """Mean/std of the final fidelity per noise strength, under derived seeds.

    Child seeds are drawn once, in a fixed order, from the master seed.  The
    clean schedule (for a zero strength) and every realization are scored in
    one ``fidelities`` call.  Returns the summary rows plus one {seed, dt, dg}
    record per realization for the run manifest.
    """
    rng = np.random.default_rng(int(master_seed))
    child_seeds = rng.integers(0, 2**63, size=(len(strengths), realizations))
    draws = [{"seed": int(seed), "dt": window, "dg": dg}
             for dg, seeds in zip(strengths, child_seeds) for seed in seeds]
    clean = [schedule] if 0.0 in strengths else []
    noisy = [apply_noise(schedule, window, dg, int(seed))
             for dg, seeds in zip(strengths, child_seeds) if dg != 0.0 for seed in seeds]
    values = process.fidelities(clean + noisy, n_steps, target)
    realized = iter(values[len(clean):].reshape(-1, realizations))
    rows = []
    for dg in strengths:
        if dg == 0.0:
            mean, std = float(values[0]), 0.0
        else:
            vals = next(realized)
            mean, std = float(vals.mean()), float(vals.std())
        rows.append({"dg": dg, "dt": window, "mean_fc": mean, "std_fc": std, "M": realizations})
    return rows, draws


def run_noise(config: RunConfig, process) -> dict:
    noise = config.noise
    rows, draws = noise_study(
        process, config.schedule, noise["strengths"], noise["window"], noise["realizations"],
        noise["seed"], config.n_steps, config.target,
    )
    header = ("dg", "dt", "mean_fc", "std_fc", "M")
    path = write_csv(config.out_dir / "noise.csv", header, ([row[c] for c in header] for row in rows))
    for row in rows:
        print(f"dg = {row['dg']:g}: mean f = {row['mean_fc']:.3f} +- {row['std_fc']:.3f}")
    return {"rows": rows, "files": [path], "seeds": {"master": noise["seed"], "realizations": draws}}


def run_two_spin(config: RunConfig, process) -> dict:
    """Detach a block from the chain: linear baseline vs the configured pulse,
    scored in one ``fidelities`` call."""
    baseline, controlled = map(float, process.fidelities(
        [linear_baseline(config.schedule.duration, "cut"), config.schedule], config.n_steps, "cut"))
    result = {
        "block_sites": list(process.a_sites),
        "duration": config.schedule.duration,
        "baseline_f_c": baseline,
        "controlled_f_c": controlled,
        "schedule": config.schedule.to_dict(),
    }
    path = write_json(config.out_dir / "two_spin.json", result)
    print(f"block {process.a_sites}: baseline f_C = {baseline:.3f}, controlled f_C = {controlled:.3f}")
    return {"result": result, "files": [path]}


RUNNERS = {
    "evolve": run_evolve,
    "optimize": run_optimize,
    "sweep": run_sweep,
    "landscape": run_landscape,
    "noise": run_noise,
    "two_spin": run_two_spin,
}


def execute(config: RunConfig) -> dict:
    """Run one config: check that its out_dir is writable before any
    computation, prepare its process, run its mode on it, and write the
    manifest of the files, seeds and health the mode returns."""
    started = time.time()
    ensure_writable(config.out_dir)
    result = RUNNERS[config.mode](config, prepare_process(config.chain, config.process))
    write_manifest(config.out_dir, config.data, result["files"], result.get("seeds"), started,
                   result.get("health"))
    return result
