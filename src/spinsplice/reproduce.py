"""Reproduction pipelines for the published tables and figures.

Each pipeline writes plot-ready CSV files, a manifest, and a small gnuplot
script into its own subdirectory.  They are batch jobs; the heavier ones
(fig3 in particular) optimize dozens of schedules and take minutes.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from .chain import ChainSpec
from .optimize import LandscapeAxis, bfgs_maximize
from .process import DEFAULT_TIME_STEPS, ObjectiveSpec, build_objective, prepare_process
from .runner import (
    NOISE,
    SCHEMA,
    ConfigError,
    RunConfig,
    check_fields,
    ensure_writable,
    landscape_with_optimum,
    noise_study,
    parse_config,
    run_sweep,
    write_manifest,
    write_noise_csv,
)

RING6 = dict(n_spins=6, topology="ring", exchange=1.0, field=2.0)
RING7 = dict(n_spins=7, topology="ring", exchange=1.0, field=2.0)
OPEN6 = dict(n_spins=6, topology="open", exchange=1.0, field=2.0)
OPEN7 = dict(n_spins=7, topology="open", exchange=1.0, field=2.0)
RING7_STITCH = dict(n_spins=7, topology="ring", exchange=1.0, field=2.2)

TABLE1_TIMES = (0.3, 0.6, 0.9, 2.0)
FIDELITY_SWEEP_TIMES = (0.01, 0.1, 0.3, 0.6, 0.9, 1.2, 1.6, 2.0)
STITCH_TIMES = (0.3, 0.6, 0.9, 1.2, 1.6, 2.0)
NOISE_STRENGTHS = (0.0, 0.4, 0.8, 1.2, 1.6, 2.0)
DEFAULT_MASTER_SEED = NOISE["seed"].default

# pipeline arguments are checked by the run-config fields they stand for
PIPELINE_ARGS = {key: SCHEMA[key] for key in ("out_dir", "n_steps")}
PIPELINE_ARGS["seed"] = NOISE["seed"]


def _gp(path: Path, lines: list[str]) -> Path:
    path.write_text("set datafile separator ','\n" + "\n".join(lines) + "\n")
    return path


def _sweep_config(chain: dict, times, out: Path, n_steps: int,
                  process: str = "cut", kind: str = "polynomial_cut") -> RunConfig:
    return parse_config({
        "mode": "sweep",
        "chain": chain,
        "process": process,
        "schedule": {"kind": kind, "T": 1.0, "params": [0.0, 0.0]},
        "sweep": {"times": list(times)},
        "n_steps": n_steps,
        "out_dir": str(out),
    })


def reproduce_table1(out_dir: Path, n_steps: int) -> dict:
    out = out_dir / "table1"
    config = _sweep_config(RING6, TABLE1_TIMES, out, n_steps)
    result = run_sweep(config)
    gp = _gp(out / "table1.gp", [
        "set xlabel 'T'",
        "set ylabel 'fidelity'",
        "plot 'sweep.csv' skip 1 using 1:2 with linespoints title 'f_C0', \\",
        "     'sweep.csv' skip 1 using 1:3 with linespoints title 'f_C'",
    ])
    result["files"].append(gp)
    return result


def reproduce_fig3(out_dir: Path, n_steps: int) -> dict:
    panels = [
        ("ring_n6", RING6), ("ring_n7", RING7),
        ("open_n6", OPEN6), ("open_n7", OPEN7),
    ]
    files = []
    for name, chain in panels:
        out = out_dir / "fig3" / name
        result = run_sweep(_sweep_config(chain, FIDELITY_SWEEP_TIMES, out, n_steps))
        files.extend(result["files"])
    gp = _gp(out_dir / "fig3" / "fig3.gp", [
        "set xlabel 'T'",
        "set ylabel 'fidelity'",
    ] + [
        f"# panel {name}: plot '{name}/sweep.csv' skip 1 using 1:2 title 'f_C0', "
        f"'{name}/sweep.csv' skip 1 using 1:3 title 'f_C'"
        for name, _ in panels
    ])
    files.append(gp)
    return {"files": files}


def reproduce_fig6(out_dir: Path, n_steps: int) -> dict:
    panels = [("ring_n6", RING6), ("ring_n7", RING7_STITCH)]
    files = []
    for name, chain in panels:
        out = out_dir / "fig6" / name
        config = _sweep_config(chain, STITCH_TIMES, out, n_steps, "stitch", "polynomial_stitch")
        result = run_sweep(config)
        files.extend(result["files"])
    gp = _gp(out_dir / "fig6" / "fig6.gp", [
        "set xlabel 'T'",
        "set ylabel 'f_G'",
    ] + [
        f"# panel {name}: plot '{name}/sweep.csv' skip 1 using 1:2 title 'f_G0', "
        f"'{name}/sweep.csv' skip 1 using 1:3 title 'f_G'"
        for name, _ in panels
    ])
    files.append(gp)
    return {"files": files}


def reproduce_fig7(out_dir: Path, n_steps: int, seed: int = DEFAULT_MASTER_SEED) -> dict:
    """Noise robustness on the optimized cut of the open chain at T = 0.6."""
    started = time.time()
    out = out_dir / "fig7"
    ensure_writable(out)
    duration = 0.6
    chain = ChainSpec(**OPEN6)
    spec = ObjectiveSpec(chain=chain, kind="polynomial_cut", duration=duration,
                         n_free_params=2, n_steps=n_steps)
    objective, process = build_objective(spec)
    report = bfgs_maximize(objective, np.zeros(2))
    schedule = spec.schedule_for(report.final_params)

    all_rows = []
    seeds = {"master": seed, "realizations": []}
    # high-frequency windows first, then low-frequency
    for label, window in (("high", duration / 60), ("low", duration / 6)):
        rows, draws = noise_study(
            process, schedule, NOISE_STRENGTHS, window,
            realizations=50, master_seed=seed, n_steps=n_steps,
        )
        seeds["realizations"].extend(draws)
        all_rows.extend(rows)

    path = out / "noise.csv"
    write_noise_csv(path, all_rows)
    opt_path = out / "optimized_schedule.json"
    opt_path.write_text(json.dumps(
        {"schedule": schedule.to_dict(), "fidelity": report.final_value},
        indent=2, sort_keys=True) + "\n")
    gp = _gp(out / "fig7.gp", [
        "set xlabel 'noise strength'",
        "set ylabel 'mean f_C'",
        "plot 'noise.csv' skip 1 using 1:3:4 with yerrorlines title 'f_C'",
    ])
    manifest = write_manifest(out, {"pipeline": "fig7", "n_steps": n_steps},
                              [path, opt_path], seeds, started)
    return {"files": [path, opt_path, gp, manifest]}


def reproduce_fig8(out_dir: Path, n_steps: int) -> dict:
    """Fidelity landscapes at T = 0.6 for the polynomial and sine controls."""
    started = time.time()
    out = out_dir / "fig8"
    ensure_writable(out)
    chain = ChainSpec(**RING6)
    duration = 0.6
    jobs = [
        ("polynomial", "polynomial_cut",
         (LandscapeAxis(0, -30.0, 140.0, 35), LandscapeAxis(1, -100.0, 30.0, 35))),
        ("sine", "sine_cut",
         (LandscapeAxis(0, -1.0, 1.0, 35), LandscapeAxis(1, -1.0, 0.5, 35))),
    ]
    files = []
    optima = {}
    for name, kind, axes in jobs:
        spec = ObjectiveSpec(chain=chain, kind=kind, duration=duration,
                             n_free_params=2, n_steps=n_steps)
        objective, _ = build_objective(spec)
        path = out / f"landscape_{name}.csv"
        _, report, grid_max = landscape_with_optimum(
            path, objective, axes, lambda f: bfgs_maximize(f, np.zeros(2)))
        optima[name] = {"params": list(report.final_params), "value": report.final_value,
                        "grid_max": grid_max}
        files.append(path)
    opt_path = out / "optima.json"
    opt_path.write_text(json.dumps(optima, indent=2, sort_keys=True) + "\n")
    gp = _gp(out / "fig8.gp", [
        "set view map",
        "set xlabel 'parameter 1'",
        "set ylabel 'parameter 2'",
        "splot 'landscape_polynomial.csv' skip 4 using 1:2:3 with points palette title 'f_C'",
    ])
    manifest = write_manifest(out, {"pipeline": "fig8", "n_steps": n_steps},
                              files + [opt_path], None, started)
    return {"files": files + [opt_path, gp, manifest], "optima": optima}


def _ramp_start(n_pulses: int) -> np.ndarray:
    # midpoint discretization of the linear ramp: a sensible pulse seed
    return 1.0 - (np.arange(n_pulses) + 0.5) / n_pulses


def reproduce_fig9(out_dir: Path, n_steps: int) -> dict:
    """Optimal pulse-train shapes (K = 2 and K = 9) next to the polynomial ones."""
    started = time.time()
    out = out_dir / "fig9"
    ensure_writable(out)
    chain = ChainSpec(**RING6)
    durations = (0.3, 0.6, 0.9)
    summary_rows = []
    files = []
    process = prepare_process(chain, "cut")
    for n_pulses in (2, 9):
        for duration in durations:
            pulse_spec = ObjectiveSpec(chain=chain, kind="pulse", duration=duration,
                                       n_free_params=n_pulses, n_steps=n_steps)
            pulse_obj, _ = build_objective(pulse_spec, process)
            pulse_report = bfgs_maximize(pulse_obj, _ramp_start(n_pulses))
            poly_spec = ObjectiveSpec(chain=chain, kind="polynomial_cut", duration=duration,
                                      n_free_params=2, n_steps=n_steps)
            poly_obj, _ = build_objective(poly_spec, process)
            poly_report = bfgs_maximize(poly_obj, np.zeros(2))
            baseline = process.baseline_fidelity(duration, n_steps)

            pulse_schedule = pulse_spec.schedule_for(pulse_report.final_params)
            poly_schedule = poly_spec.schedule_for(poly_report.final_params)
            ts = np.linspace(0.0, duration, 201)
            shape = out / f"shape_k{n_pulses}_T{duration:g}.csv"
            with shape.open("w") as fh:
                fh.write("t,g_pulse,g_polynomial\n")
                gp_vals = pulse_schedule.values(ts)
                gq_vals = poly_schedule.values(ts)
                for t, a, b in zip(ts, gp_vals, gq_vals):
                    fh.write(f"{t:.15e},{a:.15e},{b:.15e}\n")
            files.append(shape)
            summary_rows.append((n_pulses, duration, baseline,
                                 pulse_report.final_value, poly_report.final_value))
    summary = out / "summary.csv"
    with summary.open("w") as fh:
        fh.write("K,T,f_c0,f_pulse,f_polynomial\n")
        for k, duration, fb, fp, fq in summary_rows:
            fh.write(f"{k},{duration:.15e},{fb:.15e},{fp:.15e},{fq:.15e}\n")
    files.append(summary)
    gp = _gp(out / "fig9.gp", [
        "set xlabel 't'",
        "set ylabel 'g(t)'",
        "plot 'shape_k2_T0.6.csv' skip 1 using 1:2 with steps title 'pulse', \\",
        "     'shape_k2_T0.6.csv' skip 1 using 1:3 with lines title 'polynomial'",
    ])
    manifest = write_manifest(out, {"pipeline": "fig9", "n_steps": n_steps},
                              files, None, started)
    return {"files": files + [gp, manifest]}


PIPELINES = {
    "table1": reproduce_table1,
    "fig3": reproduce_fig3,
    "fig6": reproduce_fig6,
    "fig7": reproduce_fig7,
    "fig8": reproduce_fig8,
    "fig9": reproduce_fig9,
}


def reproduce(name: str, out_dir: str | Path = "runs",
              n_steps: int = DEFAULT_TIME_STEPS, seed=None) -> dict:
    """Run one pipeline; ``seed`` is the master seed of fig7, the only one
    that draws random numbers, and an error for every other target."""
    if name not in PIPELINES:
        raise ConfigError(f"reproduce: unknown target {name!r}; choose from {sorted(PIPELINES)}")
    if seed is not None and name != "fig7":
        raise ConfigError(f"seed: reproduce {name} draws no random numbers")
    args = check_fields(PIPELINE_ARGS, {"out_dir": str(out_dir), "n_steps": n_steps, "seed": seed})
    out, n_steps = Path(args["out_dir"]), args["n_steps"]
    if name == "fig7":
        return reproduce_fig7(out, n_steps, args["seed"])
    return PIPELINES[name](out, n_steps)
