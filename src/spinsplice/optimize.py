"""Quasi-Newton fidelity maximization and 2-D landscape scans.

The maximizer runs BFGS on the negated objective with central finite
differences (default step 0.1 in parameter space), an Armijo backtracking line
search that halves the step, and a curvature safeguard on the inverse-Hessian
update.  It is fully deterministic: identical inputs yield identical traces.  The
module does no file I/O: ``runner`` writes reports and grids.

Objectives take parameters along the first axis: a point ``(n,)`` gives one
value, and a batch ``(n, B)`` gives an array of ``B`` values, one per column;
any other result shape raises ``ValueError``.  A gradient evaluates its 2n points
and a landscape its whole grid in one call, so a batching objective (see
``process.build_objective``) propagates them together; BFGS line searches
and multi-start runs evaluate one point at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


def finite_difference_gradient(objective, x: np.ndarray,
                               step: float = DEFAULT_GRADIENT_STEP) -> np.ndarray:
    """Central-difference gradient; exact on quadratics.  The 2*dim points go
    to the objective as one batch, +step before -step for each coordinate."""
    if step <= 0:
        raise ValueError(f"step must be positive, got {step}")
    x = np.asarray(x, dtype=float)
    values = _batch_values(objective, x[:, None] + np.kron(np.eye(x.size), [step, -step]))
    return (values[0::2] - values[1::2]) / (2.0 * step)


@dataclass
class OptimizationReport:
    initial_params: tuple[float, ...]
    final_params: tuple[float, ...]
    initial_value: float
    final_value: float
    iterations: int
    gradient_inf_norm: float
    line_search_failures: int
    status: str
    evaluations: int
    trace: list[tuple[tuple[float, ...], float]] = field(default_factory=list)
    inverse_hessian: np.ndarray | None = None  # diagnostic; not serialized

    def to_dict(self) -> dict:
        return {
            "initial_params": list(self.initial_params),
            "final_params": list(self.final_params),
            "initial_value": self.initial_value,
            "final_value": self.final_value,
            "iterations": self.iterations,
            "gradient_inf_norm": self.gradient_inf_norm,
            "line_search_failures": self.line_search_failures,
            "status": self.status,
            "evaluations": self.evaluations,
            "trace": [{"params": list(p), "value": v} for p, v in self.trace],
        }


def bfgs_maximize(
    objective,
    x0,
    grad_step: float = DEFAULT_GRADIENT_STEP,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> OptimizationReport:
    """Maximize the objective from x0; accepted iterates never decrease it.

    The objective is called with one point of shape (n,), where it returns
    a float, and with the 2n gradient points as one (n, 2n) array, where it
    returns their 2n values in column order (see the module docstring).
    Terminates when the gradient infinity norm drops below the tolerance, the
    iteration budget runs out, or a line search fails 30 straight halvings
    (status "stalled", returning the best accepted point so far).
    """
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    if not np.all(np.isfinite(x)):
        raise ValueError("x0 must be finite")
    evals = 0

    def value(point: np.ndarray) -> float:
        nonlocal evals
        evals += 1
        return float(objective(point))

    def gradient(point: np.ndarray) -> np.ndarray:
        nonlocal evals
        evals += 2 * point.size
        return finite_difference_gradient(objective, point, grad_step)

    def as_point(arr: np.ndarray) -> tuple[float, ...]:
        return tuple(float(v) for v in arr)

    f_x = value(x)
    initial_value = f_x
    trace = [(as_point(x), f_x)]
    g = -gradient(x)  # gradient of the minimized -objective
    g_inf = float(np.abs(g).max())

    dim = x.size
    eye = np.eye(dim)
    scale = float(np.clip(1.0 / g_inf, *SCALE_BOUNDS)) if g_inf > 0 else 1.0
    h_inv = eye * scale

    iterations = 0
    failures = 0
    status = "converged" if g_inf < tolerance else "max_iterations"
    while iterations < max_iterations and g_inf >= tolerance:
        p = -(h_inv @ g)
        slope = float(g @ p)
        if slope >= 0.0:
            # safeguard: fall back to scaled steepest descent
            h_inv = eye * scale
            p = -scale * g
            slope = float(g @ p)
        alpha = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            x_new = x + alpha * p
            f_new = value(x_new)
            if -f_new <= -f_x + ARMIJO_C1 * alpha * slope:
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            failures += 1
            status = "stalled"
            break
        g_new = -gradient(x_new)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > CURVATURE_FLOOR:
            rho = 1.0 / sy
            left = eye - rho * np.outer(s, y)
            h_inv = left @ h_inv @ left.T + rho * np.outer(s, s)
        x, f_x, g = x_new, f_new, g_new
        g_inf = float(np.abs(g).max())
        iterations += 1
        trace.append((as_point(x), f_x))
        if g_inf < tolerance:
            status = "converged"

    return OptimizationReport(
        initial_params=trace[0][0],
        final_params=as_point(x),
        initial_value=initial_value,
        final_value=f_x,
        iterations=iterations,
        gradient_inf_norm=g_inf,
        line_search_failures=failures,
        status=status,
        evaluations=evals,
        trace=trace,
        inverse_hessian=h_inv,
    )


def multi_start_maximize(objective, starts, **options) -> tuple[OptimizationReport, list[OptimizationReport]]:
    """Run the maximizer from several starts; ties break on the earliest start."""
    reports = [bfgs_maximize(objective, s, **options) for s in starts]
    best = max(reports, key=lambda r: r.final_value)
    return best, reports


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
