"""Spans around calls into spinsplice's public functions, recorded from outside.

The tracer rebinds each traced function wherever the package has bound it (a
``from .x import y`` binding counts), so calls made inside the package are seen
too, and nothing under ``src/`` knows it is traced.  ``numpy.linalg.eigh`` is
wrapped as a counter, not a span: it runs thousands of times per pass.
Per-layer metrics are derived from the spans by ``layer_metrics``.
"""

from __future__ import annotations

import functools
import inspect
import math
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span
    run_id: str
    index: int
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _steps(fn, args, kwargs, result) -> dict:
    return {"steps": len(result) - 1}


def _recorded(fn, args, kwargs, result) -> dict:
    return {"recorded": _arguments(fn, args, kwargs).get("probe") is not None}


def _dim(fn, args, kwargs, result) -> dict:
    return {"dim": int(np.shape(next(iter(_arguments(fn, args, kwargs).values())))[0])}


def _bfgs(fn, args, kwargs, result) -> dict:
    return {"iterations": int(result.iterations), "evaluations": int(result.evaluations)}


def _cells(fn, args, kwargs, result) -> dict:
    return {"cells": int(np.size(result.values))}


def _realizations(fn, args, kwargs, result) -> dict:
    a = _arguments(fn, args, kwargs)
    n_noisy = sum(1 for dg in a["strengths"] if dg != 0.0)
    return {"realizations": n_noisy * int(a["realizations"])}


# (module, attribute, span name, attribute extractor).  ChainProcess methods
# are patched on the class, functions at every module-level binding.
TARGETS = (
    ("spinsplice.chain", "assemble_hamiltonian", "chain.assemble", None),
    ("spinsplice.chain", "ground_state", "chain.ground_state", _dim),
    ("spinsplice.process", "prepare_process", "process.prepare", None),
    ("spinsplice.process", "ChainProcess.fidelity", "process.fidelity", None),
    ("spinsplice.process", "ChainProcess.run", "dynamics.record", None),
    ("spinsplice.dynamics", "propagate", "dynamics.propagate", _recorded),
    ("spinsplice.dynamics", "integration_grid", "dynamics.integration_grid", _steps),
    ("spinsplice.dynamics", "reduce_density", "dynamics.reduce_density", None),
    ("spinsplice.dynamics", "cut_fidelity", "dynamics.cut_fidelity", None),
    ("spinsplice.optimize", "finite_difference_gradient", "optimize.gradient", None),
    ("spinsplice.optimize", "bfgs_maximize", "optimize.bfgs", _bfgs),
    ("spinsplice.optimize", "scan_landscape", "optimize.landscape", _cells),
    ("spinsplice.runner", "noise_study", "runner.noise_study", _realizations),
    ("spinsplice.runner", "execute", "runner.execute", None),
    ("spinsplice.runner", "write_manifest", "runner.manifest", None),
)
OBJECTIVE_SPAN = "optimize.eval"


class Tracer:
    """Records spans in memory while installed; ``run_id`` tags each span."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = "setup"
        self.eigh_calls: dict[str, int] = defaultdict(int)
        self.eigh_max_dim: dict[str, int] = defaultdict(int)
        self.missing: set[str] = set()  # targets the package no longer has
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _traced(self, name, fn, extract=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None, self.run_id, len(self.spans))
            self._stack.append(span.index)
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if extract is not None:
                span.attrs.update(extract(fn, args, kwargs, result))
            return result

        return wrapper

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name == "spinsplice" or name.startswith("spinsplice."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, key, replacement)

    def install(self) -> None:
        for module_name, attr, span_name, extract in TARGETS:
            home = sys.modules.get(module_name)
            owner_name, _, name = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, name, None)
            if original is None:
                self.missing.add(f"{module_name}.{attr}")
            elif isinstance(owner, type):
                self._set(owner, name, self._traced(span_name, original, extract))
            else:
                self._rebind(original, self._traced(span_name, original, extract))

        # every objective built, by the package or the benchmark, gets eval spans
        build = sys.modules["spinsplice.process"].build_objective

        @functools.wraps(build)
        def build_objective(*args, **kwargs):
            objective, process = build(*args, **kwargs)
            return self._traced(OBJECTIVE_SPAN, objective), process

        self._rebind(build, build_objective)

        eigh = np.linalg.eigh

        @functools.wraps(eigh)
        def counted_eigh(a, *args, **kwargs):
            self.eigh_calls[self.run_id] += 1
            self.eigh_max_dim[self.run_id] = max(self.eigh_max_dim[self.run_id], int(np.shape(a)[-1]))
            return eigh(a, *args, **kwargs)

        self._set(np.linalg, "eigh", counted_eigh)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def to_json(self) -> list[dict]:
        return [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
             "run_id": s.run_id, **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans
        ]


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def _percentile(xs, q: float) -> float:
    """Nearest-rank percentile; 0 without samples."""
    if not xs:
        return 0.0
    ordered = sorted(xs)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_metrics(tracer: Tracer, pass_ids) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, by name, as (value, unit).  A layer the workload
    never calls reads 0.  Times are per call (median unless named _p90),
    counts are totals over the traced passes."""
    spans = tracer.spans
    children: dict[int, list[Span]] = defaultdict(list)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
    def kids(span: Span, *names: str) -> list[Span]:
        return [c for c in children[span.index] if c.name in names]

    def times(name: str, scale: float = 1.0) -> list[float]:
        return [s.duration * scale for s in by_name[name]]

    ground = by_name["chain.ground_state"]
    full_dim = max((s.attrs["dim"] for s in ground), default=0)
    final_props = [s for s in by_name["dynamics.propagate"] if not s.attrs["recorded"]]
    steps = sum(g.attrs["steps"] for p in final_props for g in kids(p, "dynamics.integration_grid"))
    observe = [
        sum(c.duration for c in kids(f, "dynamics.reduce_density", "dynamics.cut_fidelity"))
        for f in by_name["process.fidelity"]
    ]
    bfgs = by_name["optimize.bfgs"]
    iterations = sum(s.attrs["iterations"] for s in bfgs)
    line_search = sum(len(kids(s, OBJECTIVE_SPAN)) - 1 for s in bfgs)
    landscape = by_name["optimize.landscape"]
    fidelity_ms = times("process.fidelity", 1e3)
    eval_ms = times(OBJECTIVE_SPAN, 1e3)
    pass_ids = set(pass_ids)

    return {
        "chain.assemble_ms": (_median(times("chain.assemble", 1e3)), "ms"),
        "chain.ground_state_ms": (_median([s.duration * 1e3 for s in ground if s.attrs["dim"] == full_dim]), "ms"),
        "process.prepare_s": (_median(times("process.prepare")), "s"),
        "process.fidelity_ms_p50": (_median(fidelity_ms), "ms"),
        "process.fidelity_ms_p90": (_percentile(fidelity_ms, 90), "ms"),
        "process.fidelity_n": (len(fidelity_ms), "count"),
        "dynamics.propagate_ms": (_median([s.duration * 1e3 for s in final_props]), "ms"),
        "dynamics.steps": (steps, "count"),
        "dynamics.step_us": (sum(s.duration for s in final_props) / steps * 1e6 if steps else 0.0, "us"),
        "dynamics.observe_ms": (_median([x * 1e3 for x in observe]), "ms"),
        "dynamics.record_s": (_median(times("dynamics.record")), "s"),
        "dynamics.eigh_calls": (sum(n for r, n in tracer.eigh_calls.items() if r in pass_ids), "count"),
        "dynamics.eigh_max_dim": (max((d for r, d in tracer.eigh_max_dim.items() if r in pass_ids), default=0), "count"),
        "optimize.gradient_ms": (_median(times("optimize.gradient", 1e3)), "ms"),
        "optimize.bfgs_s": (_median(times("optimize.bfgs")), "s"),
        "optimize.bfgs_iterations": (iterations, "count"),
        "optimize.bfgs_evals": (sum(s.attrs["evaluations"] for s in bfgs), "count"),
        "optimize.line_search_evals": (line_search, "count"),
        "optimize.accepted_ratio": (iterations / line_search if line_search else 0.0, "ratio"),
        "optimize.eval_ms_p50": (_median(eval_ms), "ms"),
        "optimize.eval_ms_p90": (_percentile(eval_ms, 90), "ms"),
        "optimize.eval_n": (len(eval_ms), "count"),
        "optimize.landscape_s": (_median(times("optimize.landscape")), "s"),
        "optimize.landscape_cells": (sum(s.attrs["cells"] for s in landscape), "count"),
        "optimize.landscape_self_ms": (
            _median([(s.duration - sum(c.duration for c in kids(s, OBJECTIVE_SPAN))) * 1e3 for s in landscape]), "ms"),
        "runner.noise_study_s": (_median(times("runner.noise_study")), "s"),
        "runner.realizations": (sum(s.attrs["realizations"] for s in by_name["runner.noise_study"]), "count"),
        "runner.execute_s": (_median(times("runner.execute")), "s"),
        "runner.manifest_ms": (_median(times("runner.manifest", 1e3)), "ms"),
    }
