"""spinsplice benchmark: one workload per invocation, result JSON on the last line.

    python3 bench/run.py --workload pulse_ring10 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Run from the repository root.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones; ``all`` runs every workload, each in a fresh
process.  Details (provenance, work counts, spans) go to ``.bench_out/``.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("optimize_ring6", "scan_ring6", "evolve_ring8", "pulse_ring10")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 170


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def prepare_environment() -> None:
    """One BLAS thread, set before numpy loads; imports from src/ and bench/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]


def run_all(args: argparse.Namespace) -> int:
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, timeout=CHILD_TIMEOUT_S).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "spinsplice" / "__init__.py").is_file():
        print(f"bench: no spinsplice sources under {SRC}", file=sys.stderr)
        return 2
    prepare_environment()
    import spinsplice

    if Path(spinsplice.__file__).resolve().parent != SRC / "spinsplice":
        print(f"bench: imported spinsplice from {spinsplice.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import harness

    details = harness.run_workload(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    details["provenance"] = harness.provenance(ROOT, args.seed)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(details, indent=1) + "\n")

    result = details["result"]
    for target in details["untraced_targets"]:
        print(f"bench: {target} not found; its spans are missing", file=sys.stderr)
    for miss in details["misses"]:
        print(f"FAILED {miss}")
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    for name, value in details.get("wall_medians", {}).items():
        print(f"{args.workload} {name} unscaled wall median = {value:.6g} s")
    print(f"{args.workload} failed_frac = {details['failed_frac']:.6g} "
          f"({result['failed']} of {result['attempted']} operations); details in {path}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
