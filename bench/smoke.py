"""Self-test of the benchmark at tiny sizes (4 spins, a dozen steps), in seconds.

    python3 bench/smoke.py

For every workload it checks that an untraced run emits exactly the
end-to-end metrics and a traced run exactly the per-layer metrics that
BENCHMARK.json names, with no failed operation; that a traced run's eigh count
repeats exactly; and that a deliberately wrong reference value is counted as
a failed operation instead of crashing the run.  Exits 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import sys

from run import ROOT, WORKLOAD_NAMES, prepare_environment


def main() -> int:
    prepare_environment()
    from harness import run_workload
    from make_reference import compute_reference
    from workloads import TINY, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    out_dir = ROOT / ".bench_out" / "smoke"
    reference = compute_reference(TINY)
    problems = []
    if not set(WORKLOADS) == set(WORKLOAD_NAMES) == {w["name"] for w in spec["workloads"]}:
        problems.append("workload names differ between workloads.py, run.py and BENCHMARK.json")

    def run(name, trace, ref=reference):
        return run_workload(name, seed=3, seconds=0.05, trace=trace, out_dir=out_dir, scale=TINY, reference=ref)

    for name in WORKLOADS:
        plain, traced = run(name, False), run(name, True)
        for label, details, expected in (("untraced", plain, end_to_end), ("traced", traced, per_layer)):
            result = details["result"]
            if set(result["metrics"]) != expected:
                problems.append(f"{name} {label}: metrics differ by {sorted(set(result['metrics']) ^ expected)}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{name} {label}: failed operations {details['misses']}")
        eigh = traced["result"]["metrics"]["dynamics.eigh_calls"]["value"]
        if eigh <= 0 or run(name, True)["result"]["metrics"]["dynamics.eigh_calls"]["value"] != eigh:
            problems.append(f"{name}: eigh count {eigh} is zero or does not repeat")

        wrong = copy.deepcopy(reference)
        anchor = next(iter(wrong[name]))
        wrong[name][anchor] += 0.01
        result = run(name, False, wrong)["result"]
        if result["correct"] or result["failed"] != 1:
            problems.append(f"{name}: a wrong reference for {anchor} was not counted as one failure")

    for line in problems:
        print(f"FAIL {line}")
    print(f"smoke: {len(WORKLOADS)} workloads, {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
