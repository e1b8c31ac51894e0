"""The benchmark (bench/) calls the package and wraps its functions by name.

A traced name that no longer resolves is skipped by the tracer
(bench/spans.py), and the per-layer metric fed by it reads 0 without any
error; a workload call that raises (bench/workloads.py) is counted as a
failed operation, not raised.  These checks make such a change fail here
instead.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import numpy as np

import spinsplice

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def resolve(module_name, attr):
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return owner


def test_every_traced_target_is_a_package_callable():
    spans = load_bench("spans")
    assert spans.TARGETS
    for module_name, attr, span_name, _ in spans.TARGETS:
        assert module_name.startswith("spinsplice.")
        assert callable(resolve(module_name, attr)), f"{span_name}: {module_name}.{attr} is gone"


def test_keywords_read_by_span_attributes():
    # the objective factory is wrapped separately, and the propagate span
    # tells recorded runs apart by the ``probe`` argument
    assert callable(resolve("spinsplice.process", "build_objective"))
    assert "probe" in inspect.signature(spinsplice.dynamics.propagate).parameters


def test_workloads_run_without_failures_at_tiny_scale(tmp_path):
    workloads = load_bench("workloads")
    ledger = workloads.Ledger()
    for name, workload_class in workloads.WORKLOADS.items():
        workload = workload_class(workloads.TINY, tmp_path / name)
        ctx = workload.setup()
        assert workload.run_pass(ctx, 0, np.random.default_rng(0), ledger) > 0, name
        for anchor, compute in workload.anchors(ctx).items():
            with ledger.op(f"{name} anchor {anchor}"):
                workloads.expect(workloads.in_unit(compute()), "anchor outside [0, 1]")
    assert ledger.failed == 0, ledger.misses
