"""Experiment harness: declarative run configs, output files, and manifests.

A config file (JSON) describes exactly one experiment mode:

    evolve     one schedule, full trajectory CSV
    optimize   BFGS maximization of the final fidelity over schedule parameters
    sweep      baseline and optimized fidelity over a list of durations
    landscape  fidelity over a 2-D grid of two schedule parameters
    noise      mean/std of the fidelity under seeded control noise
    two_spin   detach a two-spin block: linear baseline vs pulse control

One field table (``SCHEMA``) checks a raw config and normalizes it; the
normalized dict is what a run uses and what its manifest echoes.  Every run
writes its outputs plus a manifest (config echo, code version, checksums,
seeds) into the output directory; outputs are bit-reproducible from the
manifest.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ._version import __version__
from .chain import DEFAULT_SPIN_CAP, ChainSpec
from .control import KINDS, ControlSchedule, NoiseSpec, apply_noise, make_schedule
from .optimize import (
    DEFAULT_GRADIENT_STEP,
    DEFAULT_MAX_ITERATIONS,
    DEFAULT_TOLERANCE,
    LandscapeAxis,
    bfgs_maximize,
    multi_start_maximize,
    scan_landscape,
)
from .parallel import map_ordered
from .process import DEFAULT_TIME_STEPS, ObjectiveSpec, build_objective, prepare_process

MODES = ("evolve", "optimize", "sweep", "landscape", "noise", "two_spin")

# Bounds on what a config may ask for, so that no input can request
# unbounded work or memory.  README "Command line" lists them.
MAX_MAGNITUDE = 1e6  # every real-valued field
MAX_STEPS = 100_000  # n_steps, and noise windows per schedule (T / window)
MAX_WORKERS = 64
MAX_RESOLUTION = 100  # landscape points per axis
MAX_REALIZATIONS = 10_000  # noise realizations per strength
MAX_ITERATIONS = 10_000  # optimizer.max_iterations
MAX_PER_AXIS = 10  # multi-start points per free parameter
MAX_STARTS = 1_000  # multi-start points in all: per_axis ** n_free


class ConfigError(ValueError):
    """A run config failed validation; the message names the offending field."""


def _fmt(x: float) -> str:
    return f"{x:.15e}"


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
            size = min_len if min_len == max_len else f"at least {min_len}"
            raise ConfigError(f"{path}: must be a list of {size} entries, got {value!r}")
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
    "field": Field(real(), 0.0),
    "cut_bonds": Field(items(items(integer(1, DEFAULT_SPIN_CAP), 2, 2)), None),
}
SCHEDULE = {
    "kind": Field(choice(*KINDS), "polynomial_cut"),
    "T": Field(POSITIVE),
    "params": Field(items(real(), 0), []),
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
    "strengths": Field(items(real(0.0))),
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
    "workers": Field(integer(1, MAX_WORKERS), 1),
}

TWO_SPIN_DEFAULTS = {
    "chain": {
        "n_spins": 5,
        "topology": "open",
        "exchange": 1.0,
        "field": 2.1,
        "cut_bonds": [[2, 3]],
    },
    "schedule": {"kind": "pulse", "T": 0.6, "params": [-5.4, 4.1], "direction": "cut"},
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

    def to_dict(self) -> dict:
        return copy.deepcopy(self.data)


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
    sched = data.get("schedule")
    if isinstance(sched, dict) and "T" not in sched and "duration" in sched:
        data["schedule"] = {("T" if k == "duration" else k): v for k, v in sched.items()}
    cfg = check_fields(SCHEMA, data, "", run_mode)

    # rules that span fields
    process = cfg["process"]
    cfg.setdefault("target", "cut" if process == "cut" else "ground")
    try:
        chain = ChainSpec(**cfg["chain"])
    except ValueError as exc:
        raise ConfigError(f"chain: {exc}") from exc
    cfg["chain"]["cut_bonds"] = sorted(list(bond) for bond in chain.cut_bonds)
    sched = cfg["schedule"]
    try:
        schedule = make_schedule(
            sched["kind"], sched["T"], sched["params"],
            sched.get("direction") or (process if sched["kind"] == "pulse" else None),
        )
    except ValueError as exc:
        raise ConfigError(f"schedule: {exc}") from exc
    if schedule.direction != process:
        raise ConfigError(
            f"schedule.direction: schedule is a {schedule.direction!r} drive but the "
            f"process is {process!r}"
        )
    sched["direction"] = schedule.direction
    n_free = len(schedule.params)

    if run_mode in ("optimize", "landscape") or (run_mode == "sweep" and cfg["sweep"]["optimize"]):
        if n_free == 0:
            raise ConfigError(f"schedule.params: mode '{run_mode}' needs at least one free parameter")
        starts = cfg["optimizer"].get("multi_start")
        if starts and starts["per_axis"] ** n_free > MAX_STARTS:
            raise ConfigError(
                f"optimizer.multi_start.per_axis: {starts['per_axis']} points on each of "
                f"{n_free} parameters exceed {MAX_STARTS} starts"
            )
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
    if run_mode == "noise" and schedule.duration / cfg["noise"]["window"] > MAX_STEPS:
        raise ConfigError(f"noise.window: T / window exceeds {MAX_STEPS} noise windows")
    return RunConfig(cfg, chain, schedule)


def read_config(path: str | Path):
    """The raw JSON value of a config file, for ``parse_config`` to check."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config: file not found: {path}")
    try:
        return json.loads(path.read_text())
    except ValueError as exc:  # invalid JSON or undecodable bytes
        raise ConfigError(f"config: invalid JSON in {path}: {exc}") from exc


def load_config(path: str | Path, mode: str | None = None) -> RunConfig:
    return parse_config(read_config(path), mode)


# ---------------------------------------------------------------------------
# outputs and manifests
# ---------------------------------------------------------------------------

def ensure_writable(out_dir: Path) -> None:
    """Fail with an I/O error before any computation if we cannot write outputs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write_probe"
    probe.write_bytes(b"")
    probe.unlink()


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
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def _optimize_from(config: RunConfig, objective, n_free: int, x0=None):
    """Shared BFGS invocation honouring optimizer options, incl. multi-start."""
    kwargs = dict(config.optimizer, workers=config.workers)
    ms = kwargs.pop("multi_start", None)
    if ms:
        axes = [np.linspace(ms["lower"], ms["upper"], ms["per_axis"])] * n_free
        starts = [np.asarray(p) for p in np.stack(np.meshgrid(*axes), axis=-1).reshape(-1, n_free)]
        best, _ = multi_start_maximize(objective, starts, **kwargs)
        return best
    start = np.zeros(n_free) if x0 is None else np.asarray(x0, dtype=float)
    return bfgs_maximize(objective, start, **kwargs)


# ---------------------------------------------------------------------------
# experiment modes
# ---------------------------------------------------------------------------

def run_evolve(config: RunConfig) -> dict:
    started = time.time()
    out = config.out_dir
    ensure_writable(out)
    process = prepare_process(config.chain, config.process)
    psi, record = process.run(config.schedule, config.n_steps)
    traj = out / "trajectory.csv"
    with traj.open("w") as fh:
        record.to_csv(fh)
    prop = process.propagator
    health = {
        "block_dims": [int(prop.blocks[k].size) for k in prop.occupied(process.psi0)],
        "norm_error": abs(float(np.linalg.norm(psi)) - 1.0),
        "min_gap": float(record.gap.min()),
        "degenerate_samples": int(record.degenerate_flags.sum()),
    }
    write_manifest(out, config.data, [traj], None, started, health)
    f_c, f_g = record.final_cut_fidelity(), record.final_ground_fidelity()
    print(f"final f_C = {f_c:.3f}  f_G = {f_g:.3f}")
    return {"f_c": f_c, "f_g": f_g, "files": [traj]}


def run_optimize(config: RunConfig) -> dict:
    started = time.time()
    out = config.out_dir
    ensure_writable(out)
    spec = ObjectiveSpec(
        chain=config.chain,
        kind=config.schedule.kind,
        duration=config.schedule.duration,
        n_free_params=len(config.schedule.params),
        target=config.target,
        n_steps=config.n_steps,
        direction=config.process,
    )
    objective, _ = build_objective(spec)
    report = _optimize_from(config, objective, spec.n_free_params, x0=config.schedule.params)
    path = out / "optimization.json"
    path.write_text(json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n")
    write_manifest(out, config.data, [path], None, started)
    print(
        f"optimized fidelity = {report.final_value:.3f} (baseline {report.initial_value:.3f}) "
        f"params = {np.round(report.final_params, 3).tolist()} [{report.status}]"
    )
    return {"report": report, "files": [path]}


def run_sweep(config: RunConfig) -> dict:
    started = time.time()
    out = config.out_dir
    ensure_writable(out)
    template = config.schedule
    n_free = len(template.params)
    process = prepare_process(config.chain, config.process)
    rows = []
    for duration in config.sweep["times"]:
        baseline = process.baseline_fidelity(duration, config.n_steps, config.target)
        if config.sweep["optimize"]:
            spec = ObjectiveSpec(
                chain=config.chain, kind=template.kind, duration=duration,
                n_free_params=n_free, target=config.target,
                n_steps=config.n_steps, direction=config.process,
            )
            objective, _ = build_objective(spec, process)
            report = _optimize_from(config, objective, n_free)
            rows.append((duration, baseline, report.final_value, report.final_params, report.status))
        else:
            rows.append((duration, baseline, baseline, (0.0,) * n_free, "baseline"))
    path = out / "sweep.csv"
    with path.open("w") as fh:
        headers = ["T", "f_baseline", "f_opt"] + [f"param_{k + 1}" for k in range(n_free)] + ["status"]
        fh.write(",".join(headers) + "\n")
        for duration, fb, fo, params, status in rows:
            cells = [_fmt(duration), _fmt(fb), _fmt(fo), *(_fmt(p) for p in params), status]
            fh.write(",".join(cells) + "\n")
    write_manifest(out, config.data, [path], None, started)
    for duration, fb, fo, _, status in rows:
        print(f"T = {duration:g}: baseline {fb:.3f} optimized {fo:.3f} [{status}]")
    return {"rows": rows, "files": [path]}


def run_landscape(config: RunConfig) -> dict:
    started = time.time()
    out = config.out_dir
    ensure_writable(out)
    spec = ObjectiveSpec(
        chain=config.chain,
        kind=config.schedule.kind,
        duration=config.schedule.duration,
        n_free_params=len(config.schedule.params),
        target=config.target,
        n_steps=config.n_steps,
        direction=config.process,
    )
    objective, _ = build_objective(spec)
    axes = tuple(LandscapeAxis(ax["param_index"], ax["min"], ax["max"], ax["resolution"])
                 for ax in config.landscape["axes"])
    grid = scan_landscape(objective, axes, base_params=config.schedule.params,
                          workers=config.workers)
    report = _optimize_from(config, objective, spec.n_free_params, x0=config.schedule.params)
    grid_path = out / "landscape.csv"
    with grid_path.open("w") as fh:
        grid.to_csv(fh)
    marker = {
        "optimum_params": list(report.final_params),
        "optimum_value": report.final_value,
        "status": report.status,
        "grid_max": dict(zip(("p1", "p2", "value"), grid.max_point())),
    }
    marker_path = out / "optimum.json"
    marker_path.write_text(json.dumps(marker, indent=2, sort_keys=True) + "\n")
    write_manifest(out, config.data, [grid_path, marker_path], None, started)
    print(
        f"landscape max {marker['grid_max']['value']:.3f} at "
        f"({marker['grid_max']['p1']:.3g}, {marker['grid_max']['p2']:.3g}); "
        f"optimizer reached {report.final_value:.3f}"
    )
    return {"grid": grid, "report": report, "files": [grid_path, marker_path]}


def noise_study(process, schedule, strengths, window, realizations, master_seed,
                n_steps=DEFAULT_TIME_STEPS, target="cut", workers=1):
    """Mean/std of the final fidelity per noise strength, under derived seeds.

    Child seeds are drawn once, in a fixed order, from the master seed, so the
    study is reproducible regardless of worker count.  Returns the summary rows
    plus one {seed, dt, dg} record per realization for the run manifest.
    """
    rng = np.random.default_rng(int(master_seed))
    child_seeds = rng.integers(0, 2**63, size=(len(strengths), realizations))
    rows = []
    draws = []
    for i, dg in enumerate(strengths):
        draws.extend(
            {"seed": int(seed), "dt": window, "dg": dg} for seed in child_seeds[i]
        )
        if dg == 0.0:
            val = process.fidelity(schedule, n_steps, target)
            rows.append({"dg": dg, "dt": window, "mean_fc": val, "std_fc": 0.0,
                         "M": realizations})
            continue

        def one(seed, _dg=dg):
            noisy = apply_noise(schedule, NoiseSpec(window=window, strength=_dg, seed=int(seed)))
            return process.fidelity(noisy, n_steps, target)

        vals = np.asarray(map_ordered(one, child_seeds[i], workers), dtype=float)
        rows.append({"dg": dg, "dt": window, "mean_fc": float(vals.mean()),
                     "std_fc": float(vals.std()), "M": realizations})
    return rows, draws


def write_noise_csv(path: Path, rows: list[dict]) -> None:
    """Write noise_study summary rows as ``dg,dt,mean_fc,std_fc,M``."""
    with path.open("w") as fh:
        fh.write("dg,dt,mean_fc,std_fc,M\n")
        for row in rows:
            fh.write(
                f"{_fmt(row['dg'])},{_fmt(row['dt'])},{_fmt(row['mean_fc'])},"
                f"{_fmt(row['std_fc'])},{row['M']}\n"
            )


def run_noise(config: RunConfig) -> dict:
    started = time.time()
    out = config.out_dir
    ensure_writable(out)
    process = prepare_process(config.chain, config.process)
    noise = config.noise
    rows, draws = noise_study(
        process, config.schedule, noise["strengths"], noise["window"], noise["realizations"],
        noise["seed"], config.n_steps, config.target, config.workers,
    )
    path = out / "noise.csv"
    write_noise_csv(path, rows)
    seeds = {"master": noise["seed"], "realizations": draws}
    write_manifest(out, config.data, [path], seeds, started)
    for row in rows:
        print(f"dg = {row['dg']:g}: mean f = {row['mean_fc']:.3f} +- {row['std_fc']:.3f}")
    return {"rows": rows, "files": [path]}


def run_two_spin(config: RunConfig) -> dict:
    """Detach a block from the chain: linear baseline vs the configured pulse."""
    started = time.time()
    out = config.out_dir
    ensure_writable(out)
    process = prepare_process(config.chain, config.process)
    baseline = process.baseline_fidelity(config.schedule.duration, config.n_steps, "cut")
    controlled = process.fidelity(config.schedule, config.n_steps, "cut")
    result = {
        "block_sites": list(process.a_sites),
        "duration": config.schedule.duration,
        "baseline_f_c": baseline,
        "controlled_f_c": controlled,
        "schedule": config.schedule.to_dict(),
    }
    path = out / "two_spin.json"
    path.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    write_manifest(out, config.data, [path], None, started)
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
    return RUNNERS[config.mode](config)
