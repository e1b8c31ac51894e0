"""Recompute bench/reference.json: the anchor fidelities every run is checked against.

    python3 bench/make_reference.py

Run it only on a commit whose propagator is the exact eigh-per-step one, and
commit the result; a faster propagator must then match it within 1e-4.
"""

from __future__ import annotations

import json
import sys

from run import BENCH_DIR, OUT_DIR, prepare_environment


def compute_reference(scale) -> dict:
    from workloads import WORKLOADS

    reference = {}
    for name, cls in WORKLOADS.items():
        workload = cls(scale, OUT_DIR / "runs" / name)
        ctx = workload.setup()
        reference[name] = {key: compute() for key, compute in workload.anchors(ctx).items()}
    return reference


def main() -> int:
    prepare_environment()
    from workloads import FULL

    path = BENCH_DIR / "reference.json"
    path.write_text(json.dumps(compute_reference(FULL), indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
