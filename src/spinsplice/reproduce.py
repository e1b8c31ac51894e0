"""Reproduction pipelines for the published tables and figures.

Each target is a list of run configs, every one executed by
``runner.execute`` into its own subdirectory of ``<out>/<target>/``, so
every manifest a target writes replays like any other run.  A target adds
a small gnuplot script, and fig9 the pulse-shape CSVs computed from its
sweeps' rows.  They are batch jobs; the heavier ones (fig3 and fig6)
optimize dozens of schedules, each sweep's runs in lockstep.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .control import polynomial_cut, pulse_train
from .process import DEFAULT_TIME_STEPS
from .runner import NOISE, SCHEMA, ConfigError, check_fields, execute, parse_config, write_csv

RING6 = dict(n_spins=6, topology="ring", exchange=1.0, field=2.0)
RING7 = dict(n_spins=7, topology="ring", exchange=1.0, field=2.0)
OPEN6 = dict(n_spins=6, topology="open", exchange=1.0, field=2.0)
OPEN7 = dict(n_spins=7, topology="open", exchange=1.0, field=2.0)
RING7_STITCH = dict(n_spins=7, topology="ring", exchange=1.0, field=2.2)

TABLE1_TIMES = (0.3, 0.6, 0.9, 2.0)
FIDELITY_SWEEP_TIMES = (0.01, 0.1, 0.3, 0.6, 0.9, 1.2, 1.6, 2.0)
STITCH_TIMES = (0.3, 0.6, 0.9, 1.2, 1.6, 2.0)
NOISE_STRENGTHS = (0.0, 0.4, 0.8, 1.2, 1.6, 2.0)
SHAPE_TIMES = (0.3, 0.6, 0.9)
DEFAULT_MASTER_SEED = NOISE["seed"].default

# pipeline arguments are checked by the run-config fields they stand for
PIPELINE_ARGS = {key: SCHEMA[key] for key in ("out_dir", "n_steps")}
PIPELINE_ARGS["seed"] = NOISE["seed"]


def _gp(path: Path, lines: list[str]) -> None:
    path.write_text("set datafile separator ','\n" + "\n".join(lines) + "\n")


def _run(out: Path, n_steps: int, **fields) -> dict:
    return execute(parse_config({**fields, "n_steps": n_steps, "out_dir": str(out)}))


def _sweep(out: Path, n_steps: int, chain: dict, times, process: str = "cut",
           kind: str = "polynomial_cut", params=(0.0, 0.0)) -> dict:
    return _run(out, n_steps, mode="sweep", chain=chain, process=process,
                schedule={"kind": kind, "T": 1.0, "params": list(params)},
                sweep={"times": list(times)})


def reproduce_table1(out_dir: Path, n_steps: int) -> None:
    out = out_dir / "table1"
    _sweep(out, n_steps, RING6, TABLE1_TIMES)
    _gp(out / "table1.gp", [
        "set xlabel 'T'",
        "set ylabel 'fidelity'",
        "plot 'sweep.csv' skip 1 using 1:2 with linespoints title 'f_C0', \\",
        "     'sweep.csv' skip 1 using 1:3 with linespoints title 'f_C'",
    ])


def reproduce_fig3(out_dir: Path, n_steps: int) -> None:
    panels = [
        ("ring_n6", RING6), ("ring_n7", RING7),
        ("open_n6", OPEN6), ("open_n7", OPEN7),
    ]
    for name, chain in panels:
        _sweep(out_dir / "fig3" / name, n_steps, chain, FIDELITY_SWEEP_TIMES)
    _gp(out_dir / "fig3" / "fig3.gp", [
        "set xlabel 'T'",
        "set ylabel 'fidelity'",
    ] + [
        f"# panel {name}: plot '{name}/sweep.csv' skip 1 using 1:2 title 'f_C0', "
        f"'{name}/sweep.csv' skip 1 using 1:3 title 'f_C'"
        for name, _ in panels
    ])


def reproduce_fig6(out_dir: Path, n_steps: int) -> None:
    panels = [("ring_n6", RING6), ("ring_n7", RING7_STITCH)]
    for name, chain in panels:
        _sweep(out_dir / "fig6" / name, n_steps, chain, STITCH_TIMES, "stitch", "polynomial_stitch")
    _gp(out_dir / "fig6" / "fig6.gp", [
        "set xlabel 'T'",
        "set ylabel 'f_G'",
    ] + [
        f"# panel {name}: plot '{name}/sweep.csv' skip 1 using 1:2 title 'f_G0', "
        f"'{name}/sweep.csv' skip 1 using 1:3 title 'f_G'"
        for name, _ in panels
    ])


def reproduce_fig7(out_dir: Path, n_steps: int, seed: int = DEFAULT_MASTER_SEED) -> None:
    """Noise robustness on the optimized cut of the open chain at T = 0.6:
    high-frequency (T/60) and then low-frequency (T/6) noise windows."""
    out = out_dir / "fig7"
    duration = 0.6
    start = {"kind": "polynomial_cut", "T": duration, "params": [0.0, 0.0]}
    optimized = _run(out / "optimize", n_steps, mode="optimize", chain=OPEN6, schedule=start)
    schedule = dict(start, params=list(optimized["report"].final_params))
    for label, window in (("high", duration / 60), ("low", duration / 6)):
        noise = {"strengths": list(NOISE_STRENGTHS), "window": window, "realizations": 50,
                 "seed": seed}
        _run(out / label, n_steps, mode="noise", chain=OPEN6, schedule=schedule, noise=noise)
    _gp(out / "fig7.gp", [
        "set xlabel 'noise strength'",
        "set ylabel 'mean f_C'",
        "plot 'high/noise.csv' skip 1 using 1:3:4 with yerrorlines title 'f_C, window T/60', \\",
        "     'low/noise.csv' skip 1 using 1:3:4 with yerrorlines title 'f_C, window T/6'",
    ])


def reproduce_fig8(out_dir: Path, n_steps: int) -> None:
    """Fidelity landscapes at T = 0.6 for the polynomial and sine controls."""
    out = out_dir / "fig8"
    jobs = [
        ("polynomial", "polynomial_cut", ((-30.0, 140.0), (-100.0, 30.0))),
        ("sine", "sine_cut", ((-1.0, 1.0), (-1.0, 0.5))),
    ]
    for name, kind, ranges in jobs:
        axes = [{"param_index": k, "min": lo, "max": hi, "resolution": 35}
                for k, (lo, hi) in enumerate(ranges)]
        _run(out / name, n_steps, mode="landscape", chain=RING6,
             schedule={"kind": kind, "T": 0.6, "params": [0.0, 0.0]}, landscape={"axes": axes})
    _gp(out / "fig8.gp", [
        "set view map",
        "set xlabel 'parameter 1'",
        "set ylabel 'parameter 2'",
        "splot 'polynomial/landscape.csv' skip 4 using 1:2:3 with points palette title 'f_C'",
    ])


def _ramp_start(n_pulses: int) -> list[float]:
    # midpoint discretization of the linear ramp: a sensible pulse seed
    return (1.0 - (np.arange(n_pulses) + 0.5) / n_pulses).tolist()


def reproduce_fig9(out_dir: Path, n_steps: int) -> None:
    """Optimal pulse-train shapes (K = 2 and K = 9) next to the polynomial ones."""
    out = out_dir / "fig9"
    polynomial = _sweep(out / "polynomial", n_steps, RING6, SHAPE_TIMES)
    for n_pulses in (2, 9):
        pulse = _sweep(out / f"k{n_pulses}", n_steps, RING6, SHAPE_TIMES,
                       kind="pulse", params=_ramp_start(n_pulses))
        for pulse_row, poly_row in zip(pulse["rows"], polynomial["rows"]):
            duration = pulse_row[0]
            t = np.linspace(0.0, duration, 201)
            g_pulse = pulse_train(duration, pulse_row[3]).values(t)
            g_poly = polynomial_cut(duration, poly_row[3]).values(t)
            write_csv(out / f"shape_k{n_pulses}_T{duration:g}.csv", ("t", "g_pulse", "g_polynomial"),
                      zip(t, g_pulse, g_poly))
    _gp(out / "fig9.gp", [
        "set xlabel 't'",
        "set ylabel 'g(t)'",
        "plot 'shape_k2_T0.6.csv' skip 1 using 1:2 with steps title 'pulse', \\",
        "     'shape_k2_T0.6.csv' skip 1 using 1:3 with lines title 'polynomial'",
    ])


PIPELINES = {
    "table1": reproduce_table1,
    "fig3": reproduce_fig3,
    "fig6": reproduce_fig6,
    "fig7": reproduce_fig7,
    "fig8": reproduce_fig8,
    "fig9": reproduce_fig9,
}


def reproduce(name: str, out_dir: str | Path = "runs",
              n_steps: int = DEFAULT_TIME_STEPS, seed=None) -> None:
    """Run one pipeline; ``seed`` is the master seed of fig7, the only one
    that draws random numbers, and an error for every other target."""
    if name not in PIPELINES:
        raise ConfigError(f"reproduce: unknown target {name!r}; choose from {sorted(PIPELINES)}")
    if seed is not None and name != "fig7":
        raise ConfigError(f"seed: reproduce {name} draws no random numbers")
    args = check_fields(PIPELINE_ARGS, {"out_dir": str(out_dir), "n_steps": n_steps, "seed": seed})
    out, n_steps = Path(args["out_dir"]), args["n_steps"]
    if name == "fig7":
        reproduce_fig7(out, n_steps, args["seed"])
    else:
        PIPELINES[name](out, n_steps)
