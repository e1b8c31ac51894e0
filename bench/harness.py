"""Runs one workload: set-up, measured passes, accuracy checks.

Untraced (``trace=False``) the result carries the end-to-end metrics, measured
in PROCESSES fresh processes that each run this file with a job on stdin, with
times scaled to a reference host by ``calibration``; traced it carries the
per-layer metrics from ``spans.layer_metrics``, measured in the calling
process.  Either way every pass result is checked for its invariants and every
anchor against its stored reference value, and a miss or an exception counts
as a failed operation.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from calibration import Calibration
from run import THREAD_VARS
from spans import Tracer, layer_metrics
from workloads import FULL, WORKLOADS, Ledger, Scale, expect

ACCURACY = 1e-4  # ROADMAP accuracy gate against the exact propagator
# set-up repeats: untraced, one cold set-up, then a batch after every measured
# pass, so the median samples the whole run; traced, one batch up front
SETUP_FIRST_SECONDS = 0.5
SETUP_BETWEEN_SECONDS = 0.25
SETUP_MAX_REPEATS = 200
TRACED_PASSES = 2
# An untraced run is split over this many fresh processes, one after another,
# so its medians draw on several processes: on a shared host a process's speed
# can differ from the next one's for its whole life.
PROCESSES = 3
PASS_INDEX_STRIDE = 10_000  # process k draws passes k * stride, k * stride + 1, ...
PROCESS_TIMEOUT_S = 150
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def provenance(root: Path, seed: int) -> dict:
    return {
        "git_sha": _git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def _setup(workload, min_seconds: float) -> tuple[dict, list[float]]:
    """Repeat the cold set-up for ``min_seconds``, at least once."""
    times: list[float] = []
    while not times or (sum(times) < min_seconds and len(times) < SETUP_MAX_REPEATS):
        t0 = time.perf_counter()
        ctx = workload.setup()
        times.append(time.perf_counter() - t0)
    return ctx, times


def _check_anchors(workload, ctx, reference: dict, ledger: Ledger) -> None:
    expected = reference.get(workload.name, {})
    for name, compute in workload.anchors(ctx).items():
        with ledger.op(f"anchor {name}"):
            expect(name in expected, "no stored reference")
            value = compute()
            expect(abs(value - expected[name]) <= ACCURACY,
                   f"{value:.10f} differs from the reference {expected[name]:.10f}")


def _timed_pass(workload, ctx, seed: int, index: int, ledger: Ledger) -> tuple[int, float]:
    """(evaluations, seconds) of pass ``index``, its inputs drawn from (seed, index)."""
    rng = np.random.default_rng([seed, index])
    t0 = time.perf_counter()
    evals = workload.run_pass(ctx, index, rng, ledger)
    return evals, time.perf_counter() - t0


def _peak_rss_mb() -> float:
    """This process's high-water resident memory (VmHWM), in MiB.  Unlike
    ru_maxrss it leaves out the parent's memory, which a child spawned by
    vfork inherits as its starting maximum."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def _measure(name: str, seed: int, seconds: float, part: int, scale: Scale, reference: dict,
             out_dir: Path, check_anchors: bool) -> dict:
    """One process's share of an untraced run.

    Every timed segment (the first set-up, each pass, each later batch of
    set-ups) is followed by a calibration burst, which gives the factor that
    scales its wall time to the reference host.  The process that checks the
    anchors does so after its first pass and then reads its peak memory, so
    that figure rests on a fixed sequence of work.
    """
    start = time.perf_counter()
    workload = WORKLOADS[name](scale, out_dir / "runs" / name)
    ledger = Ledger()
    calibration = Calibration(workload.dim())
    (ctx, times), factor = calibration.timed(lambda: _setup(workload, 0.0))  # one cold set-up
    setups = [(t, factor) for t in times]
    passes: list[tuple[int, float, float]] = []  # (evaluations, wall seconds, factor)
    rounds: list[float] = []  # wall seconds of each pass with what follows it
    rss_mb = None
    # whole rounds, stopping at the round end nearest to `seconds`
    while not rounds or time.perf_counter() - start + statistics.median(rounds) / 2 < seconds:
        t0 = time.perf_counter()
        (evals, wall), factor = calibration.timed(
            lambda: _timed_pass(workload, ctx, seed, part * PASS_INDEX_STRIDE + len(passes), ledger))
        passes.append((evals, wall, factor))
        if check_anchors and rss_mb is None:
            t_anchors = time.perf_counter()
            _check_anchors(workload, ctx, reference, ledger)
            rss_mb = _peak_rss_mb()
            calibration.rebase()
            t0 += time.perf_counter() - t_anchors  # the anchors are not part of a round
        (_, times), factor = calibration.timed(lambda: _setup(workload, SETUP_BETWEEN_SECONDS))
        setups += [(t, factor) for t in times]
        rounds.append(time.perf_counter() - t0)
    return {"passes": passes, "setups": setups, "bursts": calibration.bursts, "ledger": vars(ledger),
            "measured_s": time.perf_counter() - start, "rss_mb": rss_mb}


def _untraced(name: str, seed: int, seconds: float, scale: Scale, reference: dict, out_dir: Path):
    # the child imports what this process imported, from the same places
    paths = [str(Path(sys.modules["spinsplice"].__file__).parents[1]), str(Path(__file__).resolve().parent)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    parts = []
    for k in range(PROCESSES):
        # each process gets an equal share of what the earlier ones left
        share = (seconds - sum(part["measured_s"] for part in parts)) / (PROCESSES - k)
        job = {"name": name, "seed": seed, "seconds": share, "part": k,
               "scale": dataclasses.asdict(scale), "reference": reference, "out_dir": str(out_dir),
               "check_anchors": k == 0}
        child = subprocess.run([sys.executable, str(Path(__file__).resolve())], input=json.dumps(job),
                               stdout=subprocess.PIPE, text=True, env=env, timeout=PROCESS_TIMEOUT_S, check=True)
        parts.append(json.loads(child.stdout.splitlines()[-1]))
    passes = [(n, wall, wall * factor) for part in parts for n, wall, factor in part["passes"]]
    setups = [(t, t * factor) for part in parts for t, factor in part["setups"]]
    ledger = Ledger()
    for part in parts:
        ledger.merge(**part["ledger"])
    metrics = {
        "run_s": (statistics.median(t for _, _, t in passes), "s"),
        "setup_s": (statistics.median(t for _, t in setups), "s"),
        "evals_per_s": (statistics.median(n / t for n, _, t in passes), "1/s"),
        "peak_rss_mb": (parts[0]["rss_mb"], "MiB"),
    }
    record = {
        "pass_evaluations": [n for n, _, _ in passes],
        "pass_seconds": [wall for _, wall, _ in passes],
        "pass_seconds_scaled": [t for _, _, t in passes],
        "setup_seconds": [wall for wall, _ in setups],
        "setup_seconds_scaled": [t for _, t in setups],
        "calibration_bursts": [part["bursts"] for part in parts],
        "wall_medians": {"run_s": statistics.median(wall for _, wall, _ in passes),
                         "setup_s": statistics.median(wall for wall, _ in setups)},
    }
    return metrics, ledger, record


def _traced(name: str, seed: int, scale: Scale, reference: dict, out_dir: Path):
    workload = WORKLOADS[name](scale, out_dir / "runs" / name)
    ledger = Ledger()
    tracer = Tracer()
    with tracer:
        ctx, setup_times = _setup(workload, SETUP_FIRST_SECONDS)
    passes = [_timed_pass(workload, ctx, seed, 0, ledger)]  # untraced: the overhead baseline
    with tracer:
        for index in range(1, TRACED_PASSES + 1):
            tracer.run_id = f"pass-{index}"
            passes.append(_timed_pass(workload, ctx, seed, index, ledger))
    _check_anchors(workload, ctx, reference, ledger)
    metrics = layer_metrics(tracer, [f"pass-{i}" for i in range(1, TRACED_PASSES + 1)])
    metrics["trace.overhead_s"] = (statistics.median(t for _, t in passes[1:]) - passes[0][1], "s")
    record = {"pass_evaluations": [n for n, _ in passes], "pass_seconds": [t for _, t in passes],
              "setup_seconds": setup_times}
    return metrics, ledger, record, tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
                 scale: Scale = FULL, reference: dict | None = None) -> dict:
    """Run one workload; returns the result line and the run's details."""
    reference = load_reference() if reference is None else reference
    tracer = None
    if trace:
        metrics, ledger, record, tracer = _traced(name, seed, scale, reference, out_dir)
    else:
        metrics, ledger, record = _untraced(name, seed, seconds, scale, reference, out_dir)
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    work = {"passes": len(record["pass_evaluations"]), "evaluations": sum(record["pass_evaluations"]),
            "n_steps": scale.n_steps}
    if tracer is not None:
        work.update({k: metrics[k][0] for k in ("dynamics.steps", "dynamics.eigh_calls", "dynamics.eigh_max_dim")})
    return {
        "result": result,
        "workload": name,
        "failed_frac": ledger.failed / ledger.attempted,
        "misses": ledger.misses,
        "work": work,
        **record,
        "untraced_targets": sorted(tracer.missing) if tracer is not None else [],
        "spans": tracer.to_json() if tracer is not None else None,
    }


if __name__ == "__main__":
    # one process's share of an untraced run: job JSON on stdin, result JSON on stdout
    job = json.loads(sys.stdin.read())
    part = _measure(job["name"], job["seed"], job["seconds"], job["part"], Scale(**job["scale"]),
                    job["reference"], Path(job["out_dir"]), job["check_anchors"])
    print(json.dumps(part))
