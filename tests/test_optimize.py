import numpy as np
import pytest

from spinsplice.chain import ChainSpec
from spinsplice.optimize import (
    LandscapeAxis,
    OptimizationReport,
    best_of,
    bfgs_maximize,
    bfgs_steps,
    finite_difference_gradient,
    lockstep,
    scan_landscape,
)
from spinsplice.process import ObjectiveSpec, build_objective, prepare_process
from spinsplice.runner import execute, parse_config

from oracles import CountingObjective, cell_size


def negated_quadratic(x):
    return -((x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2)


def cusp(x):
    return -(x[0] + 10.1 * abs(x[0]))


def double_well(x):
    return -((x[0] ** 2 - 1.0) ** 2) + 0.1 * x[0]


def multi_start(objective, starts, **options):
    """BFGS from every start in lockstep on one objective: each round's
    requests in one (n, B) call.  Returns the reports in start order."""
    shared = lambda requests: objective(np.hstack([points for _, points in requests]))
    reports, _ = lockstep(shared, [bfgs_steps(x0, **options) for x0 in starts])
    return reports


# Results of the one-point-per-call BFGS that the step machine replaced: the
# same arithmetic on the same values must give them bit for bit.
# (objective, x0, options) -> (status, iterations, trace)
PINNED = {
    "quadratic": (
        negated_quadratic, (0.0, 0.0), {},
        ("converged", 2,
         [((0.0, 0.0), -5.0), ((0.4999999999999989, -1.0), -1.250000000000001),
          ((0.9999999999999991, -2.0), -7.888609052210118e-31)]),
    ),
    "cusp": (cusp, (0.0,), {}, ("stalled", 0, [((0.0,), -0.0)])),
    "linear": (
        lambda x: x[0], (0.0,), {"max_iterations": 3},
        ("max_iterations", 3,
         [((0.0,), 0.0), ((1.0,), 1.0), ((2.0,), 2.0), ((3.000000000000001,), 3.000000000000001)]),
    ),
    "double_well_left": (
        double_well, (-2.0,), {},
        ("stalled", 3,
         [((-2.0,), -9.2), ((-1.0,), -0.1), ((-0.9941763727121464,), -0.09955250693579801),
          ((-0.9824346836590044,), -0.0994560464811028)]),
    ),
    "double_well_right": (
        double_well, (2.0,), {},
        ("stalled", 3,
         [((2.0,), -8.8), ((1.0,), 0.1), ((1.002495840266223,), 0.10022460492474236),
          ((1.0074349672705907,), 0.10052073473562062)]),
    ),
}


class TestFiniteDifferenceGradient:
    def test_constant_function(self):
        g = finite_difference_gradient(lambda x: np.full(np.shape(x)[1:], 3.5), np.zeros(3), 0.1)
        assert np.abs(g).max() == 0.0

    def test_exact_on_quadratics(self):
        g = finite_difference_gradient(
            lambda x: (x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2, np.zeros(2), 0.1
        )
        assert g == pytest.approx([-2.0, 4.0], abs=1e-12)

    def test_richardson_ratio(self):
        # quartic error term scales as h^2, so halving h divides it by four
        quartic = lambda x: x[0] ** 4
        err_h = finite_difference_gradient(quartic, np.array([1.0]), 0.1)[0] - 4.0
        err_h2 = finite_difference_gradient(quartic, np.array([1.0]), 0.05)[0] - 4.0
        assert err_h / err_h2 == pytest.approx(4.0, abs=1e-6)

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            finite_difference_gradient(lambda x: 0.0, np.zeros(1), 0.0)


class TestBfgsMaximize:
    def test_quadratic_recovered_quickly(self):
        report = bfgs_maximize(negated_quadratic, np.zeros(2), tolerance=1e-8)
        assert report.status == "converged"
        assert report.iterations <= 10
        assert report.final_params == pytest.approx((1.0, -2.0), abs=1e-6)

    def test_trace_is_monotone(self):
        report = bfgs_maximize(negated_quadratic, np.zeros(2))
        values = [v for _, v in report.trace]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert report.final_value >= report.initial_value - 1e-12

    def test_deterministic_traces(self):
        a = bfgs_maximize(negated_quadratic, np.zeros(2))
        b = bfgs_maximize(negated_quadratic, np.zeros(2))
        assert a.trace == b.trace
        assert a.final_params == b.final_params
        assert a.evaluations == b.evaluations

    def test_stall_returns_best_so_far(self):
        # the finite-difference slope points along a direction in which the
        # objective strictly decreases, so every halving fails
        report = bfgs_maximize(cusp, np.array([0.0]))
        assert report.status == "stalled"
        assert report.line_search_failures == 1
        assert report.final_params == (0.0,)
        assert report.final_value == report.initial_value
        # the start and 30 trials, each a point with its 2 gradient points
        assert (report.rounds, report.halvings, report.evaluations) == (31, 30, 93)

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_pinned_results(self, name):
        objective, x0, options, (status, iterations, trace) = PINNED[name]
        report = bfgs_maximize(objective, np.array(x0), **options)
        assert report.status == status
        assert report.iterations == iterations
        assert report.trace == trace
        assert report.final_params == trace[-1][0]
        assert report.final_value == trace[-1][1]

    def test_iteration_budget(self):
        report = bfgs_maximize(lambda x: x[0], np.zeros(1), max_iterations=3)
        assert report.status == "max_iterations"
        assert report.iterations == 3
        assert report.final_value > report.initial_value

    def test_rejects_nonfinite_start(self):
        with pytest.raises(ValueError, match="finite"):
            bfgs_maximize(negated_quadratic, np.array([np.nan, 0.0]))

    def test_report_serializes(self):
        report = bfgs_maximize(negated_quadratic, np.zeros(2))
        data = report.to_dict()
        assert data["status"] == "converged"
        assert len(data["trace"]) == report.iterations + 1
        # one round for the start, one per accepted trial, one per halving
        assert data["rounds"] == 1 + report.iterations + data["halvings"]
        assert data["evaluations"] == 5 * data["rounds"]

    def test_hand_built_report_to_dict(self):
        report = OptimizationReport(
            initial_params=(0.0, 1.0), final_params=(0.5, -0.25), initial_value=0.125,
            final_value=0.875, iterations=1, gradient_inf_norm=2e-5, line_search_failures=0,
            status="converged", evaluations=15, rounds=3, halvings=1,
            trace=[((0.0, 1.0), 0.125), ((0.5, -0.25), 0.875)],
        )
        data = report.to_dict()
        assert list(data) == [
            "initial_params", "final_params", "initial_value", "final_value", "iterations",
            "gradient_inf_norm", "line_search_failures", "status", "evaluations", "rounds",
            "halvings", "trace",
        ]
        assert data == {
            "initial_params": [0.0, 1.0], "final_params": [0.5, -0.25], "initial_value": 0.125,
            "final_value": 0.875, "iterations": 1, "gradient_inf_norm": 2e-5,
            "line_search_failures": 0, "status": "converged", "evaluations": 15, "rounds": 3,
            "halvings": 1,
            "trace": [{"params": [0.0, 1.0], "value": 0.125}, {"params": [0.5, -0.25], "value": 0.875}],
        }
        assert all(type(data[key]) is list for key in ("initial_params", "final_params"))
        assert all(type(point["params"]) is list for point in data["trace"])

    def test_multi_start_picks_best(self):
        reports = multi_start(double_well, [np.array([-2.0]), np.array([2.0])])
        best = best_of(reports)
        assert len(reports) == 2
        assert best.final_value == max(r.final_value for r in reports)
        assert best.final_params[0] == pytest.approx(1.0, abs=0.1)


class TestLockstep:
    def test_one_call_per_round(self):
        # a start with p3 = 0 converges in p1 alone; the others climb in p3
        # until the budget, so machines leave at different rounds
        objective = CountingObjective()
        starts = [np.array([0.3, -0.2, 0.7]), np.array([1.0, 0.5, 0.0]), np.array([-0.4, 0.1, -1.5])]
        reports = multi_start(objective, starts, max_iterations=6)
        assert len({r.rounds for r in reports}) > 1
        live = [sum(r.rounds > k for r in reports) for k in range(max(r.rounds for r in reports))]
        assert objective.shapes == [(3, 7 * n) for n in live]
        assert sum(r.evaluations for r in reports) == sum(shape[1] for shape in objective.shapes)

    def test_multi_start_equals_separate_runs(self):
        ring6 = prepare_process(ChainSpec(6, "ring", 1.0, 2.0), "cut")
        spec = ObjectiveSpec(chain=ring6.chain, kind="polynomial_cut", duration=0.6,
                             n_free_params=2, n_steps=120)
        objective, _ = build_objective(spec, ring6)
        starts = [np.zeros(2), np.array([1.0, -1.0]), np.array([54.0, -36.0])]
        together = multi_start(objective, starts)
        assert len({r.iterations for r in together}) > 1
        for start, report in zip(starts, together):
            alone = bfgs_maximize(objective, start)
            assert (report.iterations, report.status) == (alone.iterations, alone.status)
            assert abs(report.final_value - alone.final_value) <= 1e-12
            assert np.abs(np.subtract(report.final_params, alone.final_params)).max() <= 1e-6


class TestLandscape:
    def test_constant_objective(self):
        axes = (LandscapeAxis(0, -1.0, 1.0, 5), LandscapeAxis(1, -1.0, 1.0, 5))
        grid = scan_landscape(lambda p: np.full(np.shape(p)[1:], 0.75), axes)
        assert grid.values.shape == (5, 5)
        assert np.all(grid.values == 0.75)

    def test_quadratic_peak_located(self):
        axes = (LandscapeAxis(0, -1.0, 2.0, 13), LandscapeAxis(1, -2.0, 1.0, 13))
        grid = scan_landscape(negated_quadratic, axes)
        p1, p2, value = grid.max_point()
        c1, c2 = cell_size(grid)
        assert abs(p1 - 1.0) <= c1 + 1e-12
        assert abs(p2 + 2.0) <= c2 + 1e-12
        assert value <= 0.0

    def test_workers_accepts_only_one(self):
        axes = (LandscapeAxis(0, 0.0, 1.0, 2), LandscapeAxis(1, 0.0, 1.0, 2))
        assert scan_landscape(lambda p: np.full(np.shape(p)[1:], 0.5), axes, workers=1).values.shape == (2, 2)
        with pytest.raises(ValueError, match="workers"):
            scan_landscape(lambda p: 0.5, axes, workers=2)

    def test_base_params_respected(self):
        axes = (LandscapeAxis(0, 0.0, 1.0, 3), LandscapeAxis(2, 0.0, 1.0, 3))
        probe = lambda p: p[1]  # middle parameter comes from the base vector
        grid = scan_landscape(probe, axes, base_params=(0.0, 0.5, 0.0))
        assert np.all(grid.values == 0.5)

    def test_csv_header_block(self, tmp_path, capsys):
        axes = [{"param_index": k, "min": 0.0, "max": 1.0, "resolution": 2} for k in range(2)]
        config = parse_config({
            "mode": "landscape", "chain": {"n_spins": 3, "field": 2.0},
            "schedule": {"T": 0.3, "params": [0.0, 0.0]}, "n_steps": 2,
            "landscape": {"axes": axes}, "optimizer": {"max_iterations": 0},
            "out_dir": str(tmp_path),
        })
        execute(config)
        lines = (tmp_path / "landscape.csv").read_text().splitlines()
        assert lines[0].startswith("# axis1: param_index=0")
        assert lines[1].startswith("# axis2: param_index=1")
        assert lines[2].startswith("# base_params:")
        assert lines[3] == "p1,p2,fidelity"
        assert len(lines) == 4 + 4

    def test_validation(self):
        with pytest.raises(ValueError, match="resolution"):
            LandscapeAxis(0, 0.0, 1.0, 1)
        with pytest.raises(ValueError, match="range"):
            LandscapeAxis(0, 1.0, 1.0, 3)
        axes = (LandscapeAxis(0, 0.0, 1.0, 3), LandscapeAxis(0, 0.0, 1.0, 3))
        with pytest.raises(ValueError, match="different parameters"):
            scan_landscape(lambda p: 0.0, axes)
        axes = (LandscapeAxis(0, 0.0, 1.0, 3), LandscapeAxis(3, 0.0, 1.0, 3))
        with pytest.raises(ValueError, match="base_params"):
            scan_landscape(lambda p: 0.0, axes, base_params=(0.0,))
