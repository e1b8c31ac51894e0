"""The benchmark's tracer (bench/spans.py) wraps package functions by name.

A traced name that no longer resolves is skipped by the tracer, and the
per-layer metric fed by it reads 0 without any error; these checks make such
a rename fail here instead.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import spinsplice

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
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
    spans = load_spans()
    assert spans.TARGETS
    for module_name, attr, span_name, _ in spans.TARGETS:
        assert module_name.startswith("spinsplice.")
        assert callable(resolve(module_name, attr)), f"{span_name}: {module_name}.{attr} is gone"


def test_keywords_read_by_span_attributes():
    # the objective factory is wrapped separately, and the propagate span
    # tells recorded runs apart by the ``probe`` argument
    assert callable(resolve("spinsplice.process", "build_objective"))
    assert "probe" in inspect.signature(spinsplice.dynamics.propagate).parameters
