"""Acceptance suite: every release criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear.
The optimizer-backed criteria take a few minutes in total on one core.
"""

import numpy as np
import pytest

from spinsplice.chain import ChainSpec, assemble_hamiltonian, ground_state
from spinsplice.control import (
    linear_baseline,
    polynomial_cut,
    pulse_train,
    sine_cut,
)
from spinsplice.dynamics import (
    SectorPropagator,
    cut_fidelity,
    propagate,
    purity,
    reduce_density,
)
from spinsplice.optimize import LandscapeAxis, bfgs_maximize, finite_difference_gradient, scan_landscape
from spinsplice.process import ObjectiveSpec, build_objective, prepare_process
from spinsplice.runner import noise_study

from oracles import (
    cell_size,
    dense_hamiltonian,
    ground_fidelity,
    sector_blocks,
    sector_propagator,
    step_segments,
    step_unitary,
)

RING6 = ChainSpec(6, "ring", 1.0, 2.0)
RING7 = ChainSpec(7, "ring", 1.0, 2.0)
OPEN6 = ChainSpec(6, "open", 1.0, 2.0)
TWO_SPIN = ChainSpec(5, "open", 1.0, 2.1, frozenset({(2, 3)}))

# published reference data: T -> (f_C0, optimized params, f_C, optimizer floor)
TABLE1 = {
    0.3: (0.830, (122.8, -82.0), 0.938, 0.93),
    0.6: (0.865, (54.3, -36.3), 0.990, 0.985),
    0.9: (0.910, (20.0, -13.5), 0.998, 0.995),
    2.0: (0.996, (0.87, -0.72), 0.999, 0.998),
}
STEPS = 300
NOISE_SEED = 20250608


def report(number: int, name: str, failures: list[str], detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    line = f"[criterion {number:02d}] {status} {name}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert not failures, f"criterion {number}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def ring6():
    return prepare_process(RING6, "cut")


@pytest.fixture(scope="module")
def ring7():
    return prepare_process(RING7, "cut")


@pytest.fixture(scope="module")
def table1_objectives(ring6):
    out = {}
    for duration in TABLE1:
        spec = ObjectiveSpec(chain=RING6, kind="polynomial_cut", duration=duration,
                             n_free_params=2, n_steps=STEPS)
        objective, _ = build_objective(spec, ring6)
        out[duration] = objective
    return out


@pytest.fixture(scope="module")
def table1_reports(table1_objectives):
    return {
        duration: bfgs_maximize(objective, np.zeros(2))
        for duration, objective in table1_objectives.items()
    }


@pytest.fixture(scope="module")
def open6_optimized():
    spec = ObjectiveSpec(chain=OPEN6, kind="polynomial_cut", duration=0.6,
                         n_free_params=2, n_steps=STEPS)
    objective, process = build_objective(spec)
    report_ = bfgs_maximize(objective, np.zeros(2))
    return process, spec.schedule_for(report_.final_params)


def test_criterion_01_table1_baselines(ring6):
    failures, shown = [], []
    for duration, (expected, *_rest) in TABLE1.items():
        value = ring6.fidelity(linear_baseline(duration), STEPS)
        shown.append(f"{value:.3f}")
        if abs(value - expected) > 0.005:
            failures.append(f"T={duration}: f_C0={value:.4f} vs {expected}+-0.005")
    report(1, "linear-baseline fidelities", failures, " ".join(shown))


def test_criterion_02_table1_published_parameters(ring6):
    failures, shown = [], []
    for duration, (_base, params, expected, _floor) in TABLE1.items():
        value = ring6.fidelity(polynomial_cut(duration, params), STEPS)
        shown.append(f"{value:.3f}")
        if abs(value - expected) > 0.01:
            failures.append(f"T={duration}: f_C={value:.4f} vs {expected}+-0.01")
    report(2, "fidelity at published parameters", failures, " ".join(shown))


def test_criterion_03_optimizer_reproduction(table1_objectives, table1_reports):
    failures, shown = [], []
    for duration, (_base, _params, _published, floor) in TABLE1.items():
        rep = table1_reports[duration]
        shown.append(f"{rep.final_value:.3f}@{duration:g}")
        if rep.final_value < floor:
            failures.append(f"T={duration}: optimized {rep.final_value:.4f} < {floor}")
        # landscape window centred on the optimizer's result
        x = np.asarray(rep.final_params)
        half = np.maximum(1.0, 0.06 * np.abs(x))
        axes = (
            LandscapeAxis(0, float(x[0] - half[0]), float(x[0] + half[0]), 7),
            LandscapeAxis(1, float(x[1] - half[1]), float(x[1] + half[1]), 7),
        )
        grid = scan_landscape(table1_objectives[duration], axes)
        p1, p2, peak = grid.max_point()
        c1, c2 = cell_size(grid)
        if abs(p1 - x[0]) > c1 + 1e-9 or abs(p2 - x[1]) > c2 + 1e-9:
            failures.append(
                f"T={duration}: grid max ({p1:.2f},{p2:.2f}) more than one cell "
                f"from optimum ({x[0]:.2f},{x[1]:.2f})"
            )
        if peak < rep.final_value - 0.01:
            failures.append(f"T={duration}: grid peak {peak:.4f} far below optimum")
    report(3, "optimizer reaches published quality", failures, " ".join(shown))


def test_criterion_04_two_spin_cut():
    process = prepare_process(TWO_SPIN, "cut")
    baseline = process.fidelity(linear_baseline(0.6), STEPS)
    pulsed = process.fidelity(pulse_train(0.6, (-5.4, 4.1)), STEPS)
    failures = []
    if abs(baseline - 0.26) > 0.02:
        failures.append(f"baseline f_C0={baseline:.4f} vs 0.26+-0.02")
    if abs(pulsed - 0.79) > 0.02:
        failures.append(f"pulse f_C={pulsed:.4f} vs 0.79+-0.02")
    report(4, "two-spin block cut", failures, f"f_C0={baseline:.3f} f_C={pulsed:.3f}")


def test_criterion_05_level_crossing_ring7(ring7):
    duration = 20.0
    f_c = ring7.fidelity(linear_baseline(duration), STEPS, "cut")
    f_g = ring7.fidelity(linear_baseline(duration), STEPS, "ground")
    failures = []
    if f_c < 0.95:
        failures.append(f"f_C0={f_c:.4f} < 0.95")
    if f_g > 0.05:
        failures.append(f"f_G={f_g:.4f} > 0.05")
    report(5, "level crossing leaves the block in its ground state", failures,
           f"f_C0={f_c:.4f} f_G={f_g:.6f}")


def test_criterion_06_step_count_convergence(ring6):
    failures = []
    worst = 0.0
    for duration, (_base, params, *_rest) in TABLE1.items():
        for schedule in (linear_baseline(duration), polynomial_cut(duration, params)):
            coarse = ring6.fidelity(schedule, STEPS)
            fine = ring6.fidelity(schedule, 2 * STEPS)
            delta = abs(coarse - fine)
            worst = max(worst, delta)
            if delta >= 0.001:
                failures.append(f"T={duration} {schedule.kind}: |delta|={delta:.5f}")
    report(6, "doubling the step count moves nothing by 0.001", failures,
           f"max shift {worst:.2e}")


def test_criterion_07_property_suite(ring6, ring7, table1_reports):
    failures = []

    # unitarity of individual steps
    h0, v = dense_hamiltonian(ring6.chain)
    rng = np.random.default_rng(2)
    for _ in range(4):
        u = step_unitary(h0, v, float(rng.uniform(-5, 5)), float(rng.uniform(0.001, 0.2)))
        if np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() >= 1e-10:
            failures.append("step unitarity violated")

    # purity and entropy mirror along a recorded trajectory
    _, record = ring6.run(polynomial_cut(0.6, table1_reports[0.6].final_params), STEPS, stride=10)
    if np.abs(record.entropy_a - record.entropy_b).max() >= 1e-8:
        failures.append("entropy mirror broken")
    spec5 = ChainSpec(5, "open", 1.0, 2.0)
    h5, v5 = dense_hamiltonian(spec5)
    psi = ground_state(h5 + v5).state.astype(complex)
    prop = SectorPropagator(*assemble_hamiltonian(spec5))
    for segment in step_segments(linear_baseline(0.7), 40):
        psi, _ = propagate(prop, segment, psi, 1)
        pa = purity(reduce_density(psi, (1,), 5))
        pb = purity(reduce_density(psi, (2, 3, 4, 5), 5))
        if abs(pa - pb) >= 1e-8:
            failures.append("purity mirror broken")
            break
        if abs(np.linalg.norm(psi) - 1.0) >= 1e-9:
            failures.append("norm drift along trajectory")
            break

    # final-time bound f_C >= f_G for cut runs
    for duration, (_b, params, *_r) in TABLE1.items():
        for schedule in (linear_baseline(duration), polynomial_cut(duration, params)):
            f_c = ring6.fidelity(schedule, STEPS, "cut")
            f_g = ring6.fidelity(schedule, STEPS, "ground")
            if f_c < f_g - 1e-8:
                failures.append(f"bound broken at T={duration}")
    f_c7 = ring7.fidelity(linear_baseline(5.0), STEPS, "cut")
    f_g7 = ring7.fidelity(linear_baseline(5.0), STEPS, "ground")
    if f_c7 < f_g7 - 1e-8:
        failures.append("bound broken on the 7-ring")

    # commuting split: fidelities independent of the schedule
    n = 3
    diag_field = np.diag([2.0 * (n - 2 * bin(s).count("1")) for s in range(2**n)])
    z1z2 = np.diag([(1 - 2 * ((s >> 2) & 1)) * (1 - 2 * ((s >> 1) & 1)) for s in range(2**n)]).astype(float)
    offset = 1e-6
    psi0 = ground_state(diag_field + z1z2, diag_field + (1 - offset) * z1z2).state.astype(complex)
    finals = {}
    for label, schedule in (
        ("linear", linear_baseline(0.7)),
        ("polynomial", polynomial_cut(0.7, (30.0, -25.0))),
        ("sine", sine_cut(0.7, (0.4, -0.3))),
        ("pulse", pulse_train(0.7, (-3.0, 2.5))),
    ):
        psi_t, _ = propagate(sector_propagator(sector_blocks(diag_field, z1z2)), schedule, psi0, 90)
        rho = reduce_density(psi_t, (1,), n)
        finals[label] = (
            cut_fidelity(rho, np.array([0.0, 1.0])),
            ground_fidelity(psi_t, diag_field),
        )
    base_fc, base_fg = finals["linear"]
    for label, (fc, fg) in finals.items():
        if abs(fc - base_fc) >= 1e-8 or abs(fg - base_fg) >= 1e-8:
            failures.append(f"commuting split depends on schedule ({label})")

    # ferromagnetic coupling: cutting is free
    ferro = prepare_process(ChainSpec(6, "ring", -1.0, 2.0), "cut")
    if abs(ferro.fidelity(pulse_train(0.5, (0.0,)), 1) - 1.0) >= 1e-8:
        failures.append("ferromagnetic sudden cut not perfect")

    # anti-adiabatic limit: optimization cannot beat the quench
    quench_spec = ObjectiveSpec(chain=RING6, kind="polynomial_cut", duration=0.01,
                                n_free_params=2, n_steps=STEPS)
    quench_obj, _ = build_objective(quench_spec, ring6)
    quench = bfgs_maximize(quench_obj, np.zeros(2))
    gap = abs(quench.final_value - ring6.fidelity(linear_baseline(0.01), STEPS))
    if gap >= 0.01:
        failures.append(f"quench-limit gap {gap:.4f} >= 0.01")

    # adiabatic limit of the linear ramp
    slow = ring6.fidelity(linear_baseline(20.0), STEPS)
    if slow < 0.99:
        failures.append(f"f_C0(T=20)={slow:.4f} < 0.99")

    report(7, "dynamical property suite", failures, f"quench gap {gap:.1e}, f_C0(20)={slow:.4f}")


def test_criterion_08_optimizer_unit_suite():
    failures = []
    quad = lambda x: -((x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2)
    rep = bfgs_maximize(quad, np.zeros(2), tolerance=1e-8)
    if rep.iterations > 10 or abs(rep.final_params[0] - 1.0) > 1e-6 or abs(rep.final_params[1] + 2.0) > 1e-6:
        failures.append(f"quadratic not recovered: {rep.final_params} in {rep.iterations} iterations")
    grad = finite_difference_gradient(lambda x: (x[0] - 1.0) ** 2 + (x[1] + 2.0) ** 2,
                                      np.zeros(2), 0.1)
    if not np.allclose(grad, [-2.0, 4.0], atol=1e-12):
        failures.append(f"central difference inexact on quadratic: {grad}")
    if bfgs_maximize(quad, np.zeros(2)).trace != bfgs_maximize(quad, np.zeros(2)).trace:
        failures.append("optimizer trace not deterministic")
    report(8, "optimizer unit suite", failures)


def test_criterion_09_noise_study(open6_optimized):
    process, schedule = open6_optimized
    strengths = (0.0, 0.5, 1.0, 1.5, 2.0)
    realizations = 50
    duration = schedule.duration
    ensembles = {}
    for label, window in (("high", duration / 60), ("low", duration / 6)):
        rows, _seeds = noise_study(process, schedule, strengths, window,
                                   realizations, NOISE_SEED, STEPS)
        ensembles[label] = rows

    failures = []
    clean = process.fidelity(schedule, STEPS)
    for label, rows in ensembles.items():
        if abs(rows[0]["mean_fc"] - clean) > 1e-12 or rows[0]["std_fc"] != 0.0:
            failures.append(f"{label}: zero-noise row does not match the clean value")
        for prev, curr in zip(rows, rows[1:]):
            allowance = max(prev["std_fc"], curr["std_fc"]) / np.sqrt(realizations)
            if curr["mean_fc"] > prev["mean_fc"] + allowance:
                failures.append(
                    f"{label}: mean rose {prev['mean_fc']:.4f} -> {curr['mean_fc']:.4f} "
                    f"at dg={curr['dg']}"
                )
    for high_row, low_row in zip(ensembles["high"][1:], ensembles["low"][1:]):
        if high_row["mean_fc"] < low_row["mean_fc"]:
            failures.append(
                f"high-frequency mean {high_row['mean_fc']:.4f} below low-frequency "
                f"{low_row['mean_fc']:.4f} at dg={high_row['dg']}"
            )
    summary = " ".join(
        f"dg={row['dg']:g}:{row['mean_fc']:.3f}/{low['mean_fc']:.3f}"
        for row, low in zip(ensembles["high"], ensembles["low"])
    )
    report(9, "noise robustness (high vs low frequency)", failures, summary)


def test_criterion_10_stitching_improves_on_baseline():
    cases = [
        (ChainSpec(6, "ring", 1.0, 2.0), (0.3, 0.6, 0.9, 2.0)),
        (ChainSpec(7, "ring", 1.0, 2.2), (0.3, 0.6, 0.9)),
    ]
    failures, shown = [], []
    for chain, durations in cases:
        process = prepare_process(chain, "stitch")
        best_gain = 0.0
        for duration in durations:
            spec = ObjectiveSpec(chain=chain, kind="polynomial_stitch", duration=duration,
                                 n_free_params=2, target="ground", n_steps=STEPS,
                                 direction="stitch")
            objective, _ = build_objective(spec, process)
            baseline = objective(np.zeros(2))
            rep = bfgs_maximize(objective, np.zeros(2), max_iterations=25)
            gain = rep.final_value - baseline
            best_gain = max(best_gain, gain)
            if rep.final_value < baseline - 1e-9:
                failures.append(f"N={chain.n_spins} T={duration}: optimized below baseline")
        if best_gain <= 0.02:
            failures.append(f"N={chain.n_spins}: best stitching gain {best_gain:.4f} <= 0.02")
        shown.append(f"N={chain.n_spins}: best gain {best_gain:.3f}")
    report(10, "optimized stitching beats the linear ramp", failures, "; ".join(shown))
