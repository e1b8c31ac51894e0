import tracemalloc

import numpy as np
import pytest

from spinsplice.chain import ChainSpec, DegeneracyError, ground_state
from spinsplice.control import linear_baseline, polynomial_cut, polynomial_stitch, pulse_train
from spinsplice.optimize import LandscapeAxis, finite_difference_gradient, scan_landscape
from spinsplice.process import DEFAULT_SELECTION_OFFSET, ObjectiveSpec, build_objective, prepare_process

from oracles import dense_hamiltonian


class TestPrepareProcess:
    def test_single_spin_cut_targets(self):
        process = prepare_process(ChainSpec(4, "open", 1.0, 2.0), "cut")
        assert process.a_sites == (1,)
        assert process.b_sites == (2, 3, 4)
        # detached spin in a positive field points down
        assert abs(process.phi_0a[1]) == pytest.approx(1.0)
        assert abs(np.linalg.norm(process.psi0) - 1.0) < 1e-12

    def test_degenerate_start_resolved_toward_weaker_bond(self):
        # the two-spin chain at field 2 starts degenerate; the selection rule
        # must land on the unique ground state of the slightly weakened bond
        process = prepare_process(ChainSpec(2, "open", 1.0, 2.0), "cut")
        assert process.start_degenerate
        assert abs(process.psi0[3]) == pytest.approx(1.0, abs=1e-9)

    def test_seven_ring_start_is_degenerate(self):
        process = prepare_process(ChainSpec(7, "ring", 1.0, 2.0), "cut")
        assert process.start_degenerate
        h = sum(dense_hamiltonian(process.chain))
        resid = np.linalg.norm(h @ process.psi0 - (process.psi0.conj() @ h @ process.psi0) * process.psi0)
        assert resid < 1e-9

    def test_stitch_starts_from_disconnected_ground(self):
        process = prepare_process(ChainSpec(4, "open", 1.0, 2.0), "stitch")
        h0, _ = dense_hamiltonian(process.chain)
        w = np.linalg.eigvalsh(h0)
        energy = (process.psi0.conj() @ h0 @ process.psi0).real
        assert energy == pytest.approx(w[0], abs=1e-10)

    def test_stitch_final_target_for_seven_ring(self):
        # the joint ground state at full coupling is degenerate for this ring;
        # the final target must still be a resolved eigenvector
        process = prepare_process(ChainSpec(7, "ring", 1.0, 2.2), "stitch")
        assert process.final_degenerate
        h = sum(dense_hamiltonian(process.chain))
        w = np.linalg.eigvalsh(h)
        energy = (process.final_ground.conj() @ h @ process.final_ground).real
        assert energy == pytest.approx(w[0], abs=1e-8)

    def test_direction_mismatch_rejected(self):
        process = prepare_process(ChainSpec(3, "open", 1.0, 2.0), "cut")
        with pytest.raises(ValueError, match="direction"):
            process.fidelity(polynomial_stitch(0.5), 50)

    def test_block_with_degenerate_ground_rejected(self):
        # without a field the detached spin has no preferred orientation
        with pytest.raises(DegeneracyError, match="detached block"):
            prepare_process(ChainSpec(3, "open", 1.0, 0.0), "cut")


def _arrays(obj):
    """Every numpy array held by obj's attributes, one level of lists deep."""
    for value in vars(obj).values():
        for item in value if isinstance(value, (list, tuple)) else (value,):
            if isinstance(item, np.ndarray):
                yield item


class TestBlockOnlyProcess:
    def test_no_full_space_matrix_is_kept(self):
        process = prepare_process(ChainSpec(8, "ring", 1.0, 2.0), "cut")
        full = (2**8, 2**8)
        held = [*_arrays(process), *_arrays(process.propagator)]
        assert held
        assert all(a.shape != full for a in held)

    def test_no_full_space_matrix_is_allocated(self):
        # one dense 1024 x 1024 float64 operator alone is 8 MiB
        tracemalloc.start()
        try:
            prepare_process(ChainSpec(10, "ring", 1.0, 2.0), "cut")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1024 * 1024 * 8

    @pytest.mark.parametrize("spec,direction", [
        (ChainSpec(2, "open", 1.0, 2.0), "cut"),
        (ChainSpec(7, "ring", 1.0, 2.0), "cut"),
        (ChainSpec(7, "ring", 1.0, 2.2), "cut"),
        (ChainSpec(7, "ring", 1.0, 2.2), "stitch"),
    ])
    def test_states_match_dense_selection(self, spec, direction):
        # the parity blocks give what ground_state gives on the plain sectors
        # of the assembled matrices with the nudged reference, up to a sign.
        # A degenerate selection follows the nudged ground state, whose
        # eigenvector the plain sectors resolve only to round-off over the
        # nudge's splitting (about 1e-10 here; the parity blocks put the two
        # nudged levels in different blocks): such states agree as rays.
        process = prepare_process(spec, direction)
        h0, v = dense_hamiltonian(spec)
        inward = -DEFAULT_SELECTION_OFFSET if direction == "cut" else DEFAULT_SELECTION_OFFSET
        g_start = 1.0 if direction == "cut" else 0.0
        g_end = 1.0 - g_start
        start = ground_state(h0 + g_start * v, h0 + (g_start + inward) * v)
        final = ground_state(h0 + g_end * v, h0 + (g_end - inward) * v)
        for state, expected in ((process.psi0, start), (process.final_ground, final)):
            overlap = expected.state.conj() @ state
            assert abs(abs(overlap) - 1.0) <= 1e-12
            if not expected.degenerate:
                assert np.abs(state - np.sign(overlap.real) * expected.state).max() <= 1e-12
        assert (process.start_degenerate, process.final_degenerate) == (start.degenerate, final.degenerate)


class TestFerromagnetShortcut:
    def test_sudden_cut_is_perfect(self):
        process = prepare_process(ChainSpec(4, "open", -1.0, 2.0), "cut")
        sudden = pulse_train(0.5, (0.0,))  # one step straight to zero coupling
        assert process.fidelity(sudden, 1) == pytest.approx(1.0, abs=1e-8)
        assert process.fidelity(linear_baseline(0.01), 50) == pytest.approx(1.0, abs=1e-8)


class TestObjective:
    def test_zero_params_give_baseline(self):
        chain = ChainSpec(4, "ring", 1.0, 2.0)
        spec = ObjectiveSpec(chain=chain, kind="polynomial_cut", duration=0.5,
                             n_free_params=2, n_steps=80)
        objective, process = build_objective(spec)
        assert objective(np.zeros(2)) == pytest.approx(
            process.fidelity(linear_baseline(0.5), 80), abs=1e-12
        )

    def test_deterministic_and_bounded(self):
        chain = ChainSpec(3, "open", 1.0, 2.0)
        spec = ObjectiveSpec(chain=chain, kind="sine_cut", duration=0.4,
                             n_free_params=2, n_steps=60)
        objective, _ = build_objective(spec)
        params = np.array([0.3, -0.2])
        first, second = objective(params), objective(params)
        assert first == second
        assert 0.0 <= first <= 1.0

    def test_param_count_enforced(self):
        chain = ChainSpec(3, "open", 1.0, 2.0)
        spec = ObjectiveSpec(chain=chain, kind="polynomial_cut", duration=0.4,
                             n_free_params=2)
        with pytest.raises(ValueError, match="parameters"):
            spec.schedule_for([1.0])

    def test_ground_target_for_stitch(self):
        chain = ChainSpec(3, "open", 1.0, 2.0)
        spec = ObjectiveSpec(chain=chain, kind="polynomial_stitch", duration=0.5,
                             n_free_params=2, target="ground", n_steps=60,
                             direction="stitch")
        objective, process = build_objective(spec)
        value = objective(np.zeros(2))
        assert 0.0 < value <= 1.0
        assert value == pytest.approx(
            process.fidelity(linear_baseline(0.5, "stitch"), 60, "ground"), abs=1e-12
        )


class TestOptimizedTrajectoryCharacter:
    def test_less_adiabatic_midway_but_better_at_the_end(self):
        # the tuned drive sacrifices instantaneous ground-state tracking
        # during the evolution and still delivers a higher final cut fidelity
        process = prepare_process(ChainSpec(6, "ring", 1.0, 2.0), "cut")
        _, lin = process.run(linear_baseline(0.6), 300, stride=10)
        _, opt = process.run(polynomial_cut(0.6, (54.3, -36.3)), 300, stride=10)
        assert np.allclose(lin.times, opt.times)
        dips = opt.f_g - lin.f_g
        assert dips.min() < -0.1
        assert opt.final_cut_fidelity() > lin.final_cut_fidelity() + 0.1


class TestPublishedLandscapeGeometry:
    def test_gradient_small_at_published_optimum(self):
        spec = ObjectiveSpec(chain=ChainSpec(6, "ring", 1.0, 2.0), kind="polynomial_cut",
                             duration=0.6, n_free_params=2, n_steps=300)
        objective, _ = build_objective(spec)
        grad = finite_difference_gradient(objective, np.array([54.3, -36.3]), 0.1)
        assert np.abs(grad).max() < 0.05

    def test_sine_high_fidelity_region_below_slope_lines(self):
        # wherever the sine control scores high, both boundary slopes of g(t)
        # are negative, which pins the region under two straight lines
        spec = ObjectiveSpec(chain=ChainSpec(6, "ring", 1.0, 2.0), kind="sine_cut",
                             duration=0.6, n_free_params=2, n_steps=300)
        objective, _ = build_objective(spec)
        axes = (LandscapeAxis(0, -0.9, 0.9, 9), LandscapeAxis(1, -0.9, 0.45, 9))
        grid = scan_landscape(objective, axes)
        intercept = 1.0 / (2.0 * np.pi)
        high = 0.9
        count = 0
        for i, b1 in enumerate(axes[0].grid()):
            for j, b2 in enumerate(axes[1].grid()):
                if grid.values[i, j] >= high:
                    count += 1
                    assert b2 < intercept - b1 / 2.0
                    assert b2 < intercept + b1 / 2.0
        assert count > 0  # the threshold actually selects an island

    def test_landscape_origin_matches_baseline(self):
        chain = ChainSpec(4, "ring", 1.0, 2.0)
        spec = ObjectiveSpec(chain=chain, kind="polynomial_cut", duration=0.4,
                             n_free_params=2, n_steps=60)
        objective, process = build_objective(spec)
        axes = (LandscapeAxis(0, -1.0, 1.0, 3), LandscapeAxis(1, -1.0, 1.0, 3))
        grid = scan_landscape(objective, axes)
        baseline = process.fidelity(linear_baseline(0.4), 60)
        assert grid.values[1, 1] == pytest.approx(baseline, abs=1e-12)
