"""Quasi-Newton fidelity maximization and 2-D landscape scans.

The maximizer runs BFGS on the negated objective with central finite
differences (default step 0.1 in parameter space), an Armijo backtracking line
search that halves the step, and a curvature safeguard on the inverse-Hessian
update (Nocedal & Wright, *Numerical Optimization*, 2nd ed., ch. 3 and 6).  It
is fully deterministic: identical inputs yield identical traces.  The module
does no file I/O: ``runner`` writes reports and grids.

Objectives take parameters along the first axis: a batch ``(n, B)`` gives an
array of ``B`` values, one per column, and any other result shape raises
``ValueError``.  Every evaluation is a batch.  A landscape sends its whole grid
in one call and a gradient its 2n points, so a batching objective
propagates them together.

BFGS is written as a step machine (``bfgs_steps``): a generator that yields
the points it needs and is sent their values.  Each request is one point
followed by its 2n central-difference points, so the start and every
line-search trial arrive with their gradient.  ``lockstep`` drives several
machines at once and merges the requests of all live machines into one
objective call per round, and ``best_of`` picks the best of several runs.
``bfgs_maximize`` is the library entry: one machine on one objective.  The
runner (``runner._maximize``) drives one machine per duration and start of
every optimize, landscape and sweep run.  With ``ChainProcess.fidelities`` a
machine's results are bitwise its lone run's on step-factor blocks (d <= 23),
and within round-off on larger ones, whose steps share a Taylor plan per batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

DEFAULT_GRADIENT_STEP = 0.1
DEFAULT_TOLERANCE = 1e-4
DEFAULT_MAX_ITERATIONS = 200
ARMIJO_C1 = 1e-4
MAX_HALVINGS = 30
CURVATURE_FLOOR = 1e-10
SCALE_BOUNDS = (1e-3, 1e3)


def _batch_values(objective, points: np.ndarray) -> np.ndarray:
    """The objective's values at the columns of ``points`` (n, B), from one
    call that must return shape (B,)."""
    values = np.asarray(objective(points), dtype=float)
    if values.shape != points.shape[1:]:
        raise ValueError(
            f"an objective called with parameters of shape {points.shape} must return "
            f"shape {points.shape[1:]}, one value per column, got {values.shape}"
        )
    return values


def _stencil(x: np.ndarray, step: float) -> np.ndarray:
    """The 2n central-difference points around x as columns, +step before
    -step for each coordinate."""
    return x[:, None] + np.kron(np.eye(x.size), [step, -step])


def _central(values: np.ndarray, step: float) -> np.ndarray:
    """The gradient from the values at ``_stencil``'s points."""
    return (values[0::2] - values[1::2]) / (2.0 * step)


def finite_difference_gradient(objective, x: np.ndarray,
                               step: float = DEFAULT_GRADIENT_STEP) -> np.ndarray:
    """Central-difference gradient; exact on quadratics.  The 2*dim points go
    to the objective as one batch, +step before -step for each coordinate."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=float)
    return _central(_batch_values(objective, _stencil(x, step)), step)


@dataclass
class OptimizationReport:
    """One BFGS run.  ``evaluations`` counts the points it sent to the
    objective, ``rounds`` the objective calls it took part in (one per
    request), and ``halvings`` the line-search step halvings."""

    initial_params: tuple[float, ...]
    final_params: tuple[float, ...]
    initial_value: float
    final_value: float
    iterations: int
    gradient_inf_norm: float
    line_search_failures: int
    status: str
    evaluations: int
    rounds: int
    halvings: int
    trace: list[tuple[tuple[float, ...], float]] = field(default_factory=list)

    def to_dict(self) -> dict:
        """Every field, in order: tuples as lists, trace points as
        ``{params, value}`` records."""
        out = {f.name: list(v) if isinstance(v := getattr(self, f.name), tuple) else v for f in fields(self)}
        out["trace"] = [{"params": list(p), "value": v} for p, v in self.trace]
        return out


def bfgs_steps(
    x0,
    grad_step: float = DEFAULT_GRADIENT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
):
    """BFGS from x0 as a step machine: a generator that yields (n, 2n + 1)
    point batches, is sent their 2n + 1 values, and returns the
    ``OptimizationReport``.  Each batch is one point, the start or a
    line-search trial, followed by its ``_stencil`` points.

    Accepted iterates never decrease the objective.  A run is "converged"
    once the gradient infinity norm is at most ``tolerance``, "stalled" after
    a line search fails 30 straight halvings, and "max_iterations" otherwise.
    The report is read off the trace of accepted points, start to result.
    """
    if grad_step <= 0:
        raise ValueError(f"step must be positive, got {grad_step}")
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    rounds = halvings = 0

    def probe(point: np.ndarray):
        """The value at point and the gradient of the minimized -objective."""
        nonlocal rounds
        values = yield np.concatenate([point[:, None], _stencil(point, grad_step)], axis=1)
        rounds += 1
        return float(values[0]), -_central(values[1:], grad_step)

    def as_point(arr: np.ndarray) -> tuple[float, ...]:
        return tuple(float(v) for v in arr)

    f_x, g = yield from probe(x)
    trace = [(as_point(x), f_x)]
    g_inf = float(np.abs(g).max())

    eye = np.eye(x.size)
    scale = float(np.clip(1.0 / g_inf, *SCALE_BOUNDS)) if g_inf > 0 else 1.0
    h_inv = eye * scale

    stalled = False
    while len(trace) <= max_iterations and g_inf > tolerance:
        p = -(h_inv @ g)
        slope = float(g @ p)
        if slope >= 0.0:
            # safeguard: fall back to scaled steepest descent
            h_inv = eye * scale
            p = -scale * g
            slope = float(g @ p)
        alpha = 1.0
        for _ in range(MAX_HALVINGS):
            x_new = x + alpha * p
            f_new, g_new = yield from probe(x_new)
            if -f_new <= -f_x + ARMIJO_C1 * alpha * slope:
                break
            alpha *= 0.5
            halvings += 1
        else:
            stalled = True
            break
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > CURVATURE_FLOOR:
            rho = 1.0 / sy
            left = eye - rho * np.outer(s, y)
            h_inv = left @ h_inv @ left.T + rho * np.outer(s, s)
        x, f_x, g = x_new, f_new, g_new
        g_inf = float(np.abs(g).max())
        trace.append((as_point(x), f_x))

    return OptimizationReport(
        initial_params=trace[0][0],
        final_params=trace[-1][0],
        initial_value=trace[0][1],
        final_value=trace[-1][1],
        iterations=len(trace) - 1,
        gradient_inf_norm=g_inf,
        line_search_failures=int(stalled),
        status="stalled" if stalled else "converged" if g_inf <= tolerance else "max_iterations",
        evaluations=rounds * (2 * x.size + 1),
        rounds=rounds,
        halvings=halvings,
        trace=trace,
    )


def lockstep(evaluate, machines) -> list[OptimizationReport]:
    """Drive step machines together until every one has returned.

    Each round makes one ``evaluate`` call with the ``(k, points)`` requests
    of the live machines, k being a machine's position in ``machines``;
    it must return one flat array of their values, the requests' columns in
    order.  Returns the reports in machine order; as every machine is live
    from the first round, the rounds made are the largest report ``rounds``.
    """
    machines = list(machines)
    reports: list[OptimizationReport | None] = [None] * len(machines)
    requests = {k: next(machine) for k, machine in enumerate(machines)}
    while requests:
        live = list(requests.items())
        values = evaluate(live)
        requests = {}
        edges = np.cumsum([points.shape[1] for _, points in live])[:-1]
        for (k, _), chunk in zip(live, np.split(values, edges)):
            try:
                requests[k] = machines[k].send(chunk)
            except StopIteration as done:
                reports[k] = done.value
    return reports


def best_of(reports: list[OptimizationReport]) -> OptimizationReport:
    """The report with the highest final value; ties go to the earliest."""
    return max(reports, key=lambda r: r.final_value)


def bfgs_maximize(
    objective,
    x0,
    grad_step: float = DEFAULT_GRADIENT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> OptimizationReport:
    """Maximize the objective from x0 with one ``bfgs_steps`` machine.

    The objective is always called with a batch: the start, and then each
    line-search trial, as one (n, 2n + 1) array of the point followed by its
    2n gradient points, and must return their 2n + 1 values in column order
    (see the module docstring).  So every call brings a value and its
    gradient, and a run makes one call per trial.
    """
    # one machine: each round holds its one request
    (report,) = lockstep(lambda requests: _batch_values(objective, requests[0][1]),
                         [bfgs_steps(x0, grad_step, tolerance, max_iterations)])
    return report


@dataclass(frozen=True)
class LandscapeAxis:
    param_index: int
    lower: float
    upper: float
    resolution: int

    def __post_init__(self) -> None:
        if self.resolution < 2:
            raise ValueError(f"resolution must be >= 2, got {self.resolution}")
        if not self.upper > self.lower:
            raise ValueError(f"axis range is empty: [{self.lower}, {self.upper}]")
        if self.param_index < 0:
            raise ValueError(f"param_index must be >= 0, got {self.param_index}")

    def grid(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.resolution)


@dataclass
class LandscapeGrid:
    axes: tuple[LandscapeAxis, LandscapeAxis]
    base_params: tuple[float, ...]
    values: np.ndarray  # shape (axes[0].resolution, axes[1].resolution)

    def max_point(self) -> tuple[float, float, float]:
        """(p1, p2, value) of the grid maximum."""
        i, j = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return (
            float(self.axes[0].grid()[i]),
            float(self.axes[1].grid()[j]),
            float(self.values[i, j]),
        )


def scan_landscape(
    objective,
    axes: tuple[LandscapeAxis, LandscapeAxis],
    base_params=None,
    *,
    workers: int = 1,
) -> LandscapeGrid:
    """Evaluate the objective over the full 2-D grid in one call, the cells
    as columns in row-major order.

    ``workers`` accepts only 1 and does nothing: the benchmark's landscape
    pass (``bench/workloads.py``) still passes ``workers=1``, and the
    parameter goes once that call drops it.
    """
    if workers != 1:
        raise ValueError(f"workers must be 1 (the grid is evaluated in one call), got {workers!r}")
    ax1, ax2 = axes
    if ax1.param_index == ax2.param_index:
        raise ValueError("landscape axes must vary two different parameters")
    n_params = max(ax1.param_index, ax2.param_index) + 1
    if base_params is None:
        base = np.zeros(n_params)
    else:
        base = np.asarray(base_params, dtype=float)
        if base.size < n_params:
            raise ValueError(
                f"base_params has {base.size} entries but axes reference parameter "
                f"{n_params - 1}"
            )
    p1, p2 = np.meshgrid(ax1.grid(), ax2.grid(), indexing="ij")
    points = np.repeat(base[:, None], p1.size, axis=1)
    points[ax1.param_index] = p1.ravel()
    points[ax2.param_index] = p2.ravel()
    values = _batch_values(objective, points).reshape(p1.shape)
    return LandscapeGrid(axes=(ax1, ax2), base_params=tuple(float(b) for b in base),
                         values=values)
