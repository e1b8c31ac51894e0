import re
from dataclasses import replace

import numpy as np
import pytest

from spinsplice.chain import ChainSpec, assemble_hamiltonian, ground_state
from spinsplice.control import apply_noise, linear_baseline, polynomial_cut, polynomial_stitch, pulse_train, sine_cut
from spinsplice.dynamics import (
    SectorPropagator,
    cut_fidelity,
    entropy,
    integration_grid,
    propagate,
    purity,
    reduce_density,
)
from spinsplice.process import prepare_process
from spinsplice.runner import TRAJECTORY_COLUMNS, write_csv

from oracles import (
    SZ,
    dense_hamiltonian,
    ground_fidelity,
    reference_grid,
    sector_blocks,
    sector_propagator,
    step_segments,
    step_unitary,
    taylor_expm,
)

DOWN = np.array([0.0, 1.0])
UP = np.array([1.0, 0.0])


def bell_singlet():
    psi = np.zeros(4, dtype=complex)
    psi[1], psi[2] = 1.0, -1.0
    return psi / np.sqrt(2.0)


class TestStepUnitary:
    def test_diagonal_phase(self):
        # exp(-i * 2 sigma_z * pi/2) = -identity
        u = step_unitary(2.0 * SZ.real, np.zeros((2, 2)), 0.0, np.pi / 2)
        assert np.abs(u + np.eye(2)).max() < 1e-12

    def test_unitarity_and_norm_preservation(self):
        rng = np.random.default_rng(23)
        spec = ChainSpec(4, "ring", 1.0, 2.0)
        h0, v = dense_hamiltonian(spec)
        for _ in range(5):
            g = float(rng.uniform(-6.0, 6.0))
            dt = float(rng.uniform(0.001, 0.5))
            u = step_unitary(h0, v, g, dt)
            assert np.abs(u.conj().T @ u - np.eye(16)).max() < 1e-10
            psi = rng.normal(size=16) + 1j * rng.normal(size=16)
            psi /= np.linalg.norm(psi)
            assert abs(np.linalg.norm(u @ psi) - 1.0) < 1e-10

    def test_against_taylor_series(self):
        spec = ChainSpec(2, "open", 1.0, 0.0)
        h0, v = dense_hamiltonian(spec)
        dt = 0.1
        u = step_unitary(h0, v, 1.0, dt)
        ref = taylor_expm(-1j * (h0 + v) * dt)
        assert np.abs(u - ref).max() < 1e-10

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError, match="dt"):
            step_unitary(np.eye(2), np.eye(2), 1.0, 0.0)


class TestPropagate:
    def test_stationary_ground_state(self):
        # with the controlled part removed the ground state only gains phase
        spec = ChainSpec(3, "open", 1.0, 2.0)
        h_full = sum(dense_hamiltonian(spec))
        zero = np.zeros_like(h_full)
        psi0 = ground_state(h_full).state.astype(complex)
        sched = linear_baseline(1.5, "cut")
        psi, _ = propagate(sector_propagator(sector_blocks(h_full, zero)), sched, psi0, 120)
        assert ground_fidelity(psi, h_full) == pytest.approx(1.0, abs=1e-8)

    def test_norm_conserved_along_trajectory(self):
        spec = ChainSpec(5, "open", 1.0, 2.0)
        h0, v = dense_hamiltonian(spec)
        psi0 = ground_state(h0 + v).state.astype(complex)
        sched = polynomial_cut(0.6, (54.3, -36.3))
        prop = SectorPropagator(*assemble_hamiltonian(spec))
        psi = psi0
        for segment in step_segments(sched, 150):
            psi, _ = propagate(prop, segment, psi, 1)
            assert abs(np.linalg.norm(psi) - 1.0) < 1e-9

    def test_pulse_propagation_is_one_factor_per_pulse(self):
        spec = ChainSpec(3, "open", 1.0, 2.0)
        h0, v = dense_hamiltonian(spec)
        psi0 = ground_state(h0 + v).state.astype(complex)
        sched = pulse_train(0.6, (-5.4, 4.1, 0.3))
        prop = SectorPropagator(*assemble_hamiltonian(spec))
        psi_a, _ = propagate(prop, sched, psi0, 300)
        psi_b, _ = propagate(prop, sched, psi0, 7)  # n_steps ignored for pulses
        manual = psi0
        for amp in sched.params:
            manual = step_unitary(h0, v, amp, 0.2) @ manual
        assert np.abs(psi_a - psi_b).max() == 0.0
        assert np.abs(psi_a - manual).max() < 1e-12

    def test_noise_grid_refinement(self):
        # noise windows that do not divide the step grid are split exactly
        spec = ChainSpec(3, "open", 1.0, 2.0)
        h0, v = dense_hamiltonian(spec)
        psi0 = ground_state(h0 + v).state.astype(complex)
        noisy = apply_noise(linear_baseline(1.0), window=0.3, strength=1.5, seed=8)
        grid = integration_grid(noisy, 7)
        for edge in (0.3, 0.6, 0.9):
            assert np.min(np.abs(grid - edge)) < 1e-12
        psi, _ = propagate(SectorPropagator(*assemble_hamiltonian(spec)), noisy, psi0, 7)
        manual = psi0
        for lo, hi in zip(grid[:-1], grid[1:]):
            manual = step_unitary(h0, v, float(noisy.values(0.5 * (lo + hi))), hi - lo) @ manual
        assert np.abs(psi - manual).max() < 1e-12

    def test_zero_strength_noise_identical_to_clean(self):
        spec = ChainSpec(4, "ring", 1.0, 2.0)
        h0, v = dense_hamiltonian(spec)
        offset = 1e-6
        psi0 = ground_state(h0 + v, h0 + (1 - offset) * v).state.astype(complex)
        base = polynomial_cut(0.6, (10.0, -5.0))
        noisy = apply_noise(base, window=0.1, strength=0.0, seed=99)
        prop = SectorPropagator(*assemble_hamiltonian(spec))
        psi_clean, _ = propagate(prop, base, psi0, 60)
        psi_noisy, _ = propagate(prop, noisy, psi0, 60)
        rho_c = reduce_density(psi_clean, (1,), 4)
        rho_n = reduce_density(psi_noisy, (1,), 4)
        assert abs(cut_fidelity(rho_c, DOWN) - cut_fidelity(rho_n, DOWN)) < 1e-12

    @pytest.mark.parametrize("T", [5e-324, 1e-300, 1e-6, 0.6, 1.0, 7.3, 1e6])
    def test_grid_equals_the_reference_rule_bitwise(self, T):
        # smooth, sine and stitch schedules and pulse trains of 1 to 100 pulses,
        # clean and under noise windows that divide T, nearly divide it (the
        # last edge 3e-11 T, 7e-10 T or 7e-9 T short of T), cover it once or
        # exceed it, at 1 to 1000 steps
        clean = [polynomial_cut(T, (54.3, -36.3)), sine_cut(T, (0.4, -0.2)), polynomial_stitch(T, (1.5,))]
        clean += [pulse_train(T, np.linspace(-3.0, 3.0, K)) for K in (1, 2, 3, 7, 9, 10, 33, 100)]
        for n_steps in (1, 7, 60, 300, 1000):
            windows = [T / 60, T / 6, T / 7, T / 300, T / 2, T / 4, T / (3 + 1e-10), T / (3 + 2e-9), T / (3 + 2e-8),
                       1.5 * T, T / 1000.3, T / n_steps, T / (2 * n_steps)]
            for base in clean:
                noisy = [apply_noise(base, window=w, strength=0.5, seed=3) for w in windows if w > 0]
                for schedule in [base, *noisy]:
                    grid = integration_grid(schedule, n_steps)
                    assert grid.tobytes() == reference_grid(schedule, n_steps).tobytes(), (schedule, n_steps)

    def test_rejects_bad_steps(self):
        with pytest.raises(ValueError, match="n_steps"):
            integration_grid(linear_baseline(1.0), 0)

    def test_probe_times(self):
        # the probe sees t = 0 and every step boundary: pulse edges and noise
        # window edges included
        spec = ChainSpec(3, "open", 1.0, 2.0)
        h0, v = dense_hamiltonian(spec)
        psi0 = ground_state(h0 + v).state.astype(complex)
        prop = SectorPropagator(*assemble_hamiltonian(spec))
        for schedule in (polynomial_cut(0.5, (3.0, -2.0)), pulse_train(0.5, (1.0, 0.3, -0.2)),
                         apply_noise(linear_baseline(0.5), window=0.073, strength=0.5, seed=3)):
            times = []
            propagate(prop, schedule, psi0, 25, probe=lambda t, psi: times.append(t))
            assert times == integration_grid(schedule, 25).tolist()
            assert set(schedule.breakpoints().tolist()) <= set(times)

    def test_rejects_a_probed_list(self):
        spec = ChainSpec(3, "open", 1.0, 2.0)
        prop = SectorPropagator(*assemble_hamiltonian(spec))
        psi0 = ground_state(sum(dense_hamiltonian(spec))).state.astype(complex)
        with pytest.raises(ValueError, match="one schedule"):
            propagate(prop, [linear_baseline(0.5)], psi0, 25, probe=lambda t, psi: None)

    @pytest.mark.parametrize("n_steps", [40, 75])
    def test_work_is_the_max_and_sum_over_batches(self, n_steps):
        spec = ChainSpec(4, "ring", 1.0, 2.0)
        h0, v = dense_hamiltonian(spec)
        psi0 = ground_state(h0 + v, h0 + (1 - 1e-6) * v).state.astype(complex)
        prop = SectorPropagator(*assemble_hamiltonian(spec))
        schedules = [
            polynomial_cut(0.6, (10.0, -5.0)),
            pulse_train(0.6, (-5.4, 4.1, 0.3)),
            apply_noise(linear_baseline(0.6), window=0.25, strength=1.5, seed=8),
        ]
        # three step counts: each schedule is a batch of its own
        assert len({integration_grid(s, n_steps).size for s in schedules}) == 3
        _, work = propagate(prop, schedules, psi0, n_steps)
        singles = [propagate(prop, s, psi0, n_steps)[1] for s in schedules]
        assert work.max_norm_dt == max(w.max_norm_dt for w in singles) > 0.0
        assert work.taylor_matvecs == sum(w.taylor_matvecs for w in singles) > 0


class TestReducedDensity:
    def test_product_state(self):
        psi = np.kron(DOWN, UP).astype(complex)
        rho = reduce_density(psi, (1,), 2)
        assert np.abs(rho - np.outer(DOWN, DOWN)).max() < 1e-14
        assert purity(rho) == pytest.approx(1.0)

    def test_bell_state_is_maximally_mixed(self):
        rho = reduce_density(bell_singlet(), (1,), 2)
        assert np.abs(rho - np.eye(2) / 2.0).max() < 1e-14

    def test_density_operator_invariants_on_random_states(self):
        rng = np.random.default_rng(31)
        n = 5
        for _ in range(5):
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi /= np.linalg.norm(psi)
            keep = (1, 3)
            rho = reduce_density(psi, keep, n)
            assert np.abs(rho - rho.conj().T).max() < 1e-12
            assert abs(np.trace(rho).real - 1.0) < 1e-10
            assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_entropy_mirror_for_pure_states(self):
        rng = np.random.default_rng(37)
        n = 5
        for _ in range(5):
            psi = rng.normal(size=2**n) + 1j * rng.normal(size=2**n)
            psi /= np.linalg.norm(psi)
            rho_a = reduce_density(psi, (1, 2), n)
            rho_b = reduce_density(psi, (3, 4, 5), n)
            assert entropy(rho_a) == pytest.approx(entropy(rho_b), abs=1e-8)
            assert purity(rho_a) == pytest.approx(purity(rho_b), abs=1e-8)

    def test_rejects_trivial_subsets(self):
        psi = bell_singlet()
        with pytest.raises(ValueError, match="proper subset"):
            reduce_density(psi, (), 2)
        with pytest.raises(ValueError, match="proper subset"):
            reduce_density(psi, (1, 2), 2)


class TestFidelities:
    def test_cut_fidelity_product(self):
        rng = np.random.default_rng(41)
        rest = rng.normal(size=4) + 1j * rng.normal(size=4)
        rest /= np.linalg.norm(rest)
        psi = np.kron(DOWN, rest)
        rho = reduce_density(psi, (1,), 3)
        assert cut_fidelity(rho, DOWN) == pytest.approx(1.0, abs=1e-12)

    def test_cut_fidelity_singlet_marginal(self):
        rho = reduce_density(bell_singlet(), (1,), 2)
        assert cut_fidelity(rho, DOWN) == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_cut_fidelity_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cut_fidelity(np.eye(4) / 4.0, DOWN)

    def test_cut_fidelity_of_a_stack_is_bitwise_per_matrix(self):
        rng = np.random.default_rng(43)
        for d in (2, 4, 8):
            x = rng.normal(size=(7, d, d)) + 1j * rng.normal(size=(7, d, d))
            rho = x @ x.conj().swapaxes(-1, -2)
            rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
            for phi in (rng.normal(size=d), rng.normal(size=d) + 1j * rng.normal(size=d)):
                phi /= np.linalg.norm(phi)
                stacked = cut_fidelity(rho, phi)
                assert stacked.shape == (7,)
                assert np.array_equal(stacked, [cut_fidelity(r, phi) for r in rho])
                assert type(cut_fidelity(rho[0], phi)) is float
                # a stack of stacks keeps its leading axes
                assert np.array_equal(cut_fidelity(rho[:6].reshape(2, 3, d, d), phi), stacked[:6].reshape(2, 3))

    def test_cut_fidelity_dimension_mismatch_on_a_stack(self):
        # two 4-dim matrices: the stack length equals the target's dimension,
        # and the check must read the matrices' own dimension
        with pytest.raises(ValueError, match="rho is 4-dim, target is 2-dim"):
            cut_fidelity(np.stack([np.eye(4) / 4.0] * 2), DOWN)

    def test_ground_fidelity_limits(self):
        spec = ChainSpec(3, "open", 1.0, 2.0)
        h = sum(dense_hamiltonian(spec))
        w, q = np.linalg.eigh(h)
        assert ground_fidelity(q[:, 0].astype(complex), h) == pytest.approx(1.0, abs=1e-12)
        assert ground_fidelity(q[:, 3].astype(complex), h) == pytest.approx(0.0, abs=1e-12)


class TestPurityEntropy:
    def test_pure_state(self):
        rho = np.outer(DOWN, DOWN).astype(complex)
        assert purity(rho) == pytest.approx(1.0)
        assert entropy(rho) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_qubit(self):
        rho = np.eye(2, dtype=complex) / 2.0
        assert purity(rho) == pytest.approx(0.5)
        assert entropy(rho) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_biased_mixture(self):
        rho = np.diag([0.9, 0.1]).astype(complex)
        assert purity(rho) == pytest.approx(0.82, abs=1e-12)
        assert entropy(rho) == pytest.approx(0.3250829733914483, abs=1e-12)

    def test_a_pure_state_has_positive_zero_entropy(self):
        # -1 ln 1 is -0.0, and an eigenvalue rounded above 1 gives less
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert entropy(rho) == 0.0 and not np.signbit(entropy(rho))
        stack = entropy(np.stack([rho, rho * (1.0 + 2.0 ** -52), np.eye(2) / 2.0]))
        assert stack[:2].tolist() == [0.0, 0.0] and not np.signbit(stack[:2]).any()
        assert stack[2] == entropy(np.eye(2) / 2.0)

    def test_a_recorded_pure_run_has_no_negative_entropy(self):
        # ring3 keeps both sides pure: every eigenvalue of rho_A rounds to 0 or about 1
        _, record = prepare_process(ChainSpec(3, "ring", 1.0, 2.0), "cut").run(polynomial_cut(0.6, (54.3, -36.3)), 20)
        assert len(record.entropy_a) == 21
        assert not np.signbit(record.entropy_a).any() and record.entropy_a.max() < 1e-12


RECORDED_SCHEDULE = polynomial_cut(0.6, (34.9, -23.4))


@pytest.fixture(scope="module")
def open5():
    spec = ChainSpec(5, "open", 1.0, 2.0)
    h0, v = dense_hamiltonian(spec)
    return replace(prepare_process(spec, "cut"), psi0=ground_state(h0 + v).state.astype(complex))


@pytest.fixture(scope="module")
def recorded_run(open5):
    return open5.run(RECORDED_SCHEDULE, 100)


class TestTrajectoryRecord:
    def test_fidelities_in_range(self, recorded_run):
        _, record = recorded_run
        assert np.all(record.f_c >= 0.0)
        assert np.all(record.f_c <= 1.0 + 1e-10)
        assert np.all(record.f_g >= 0.0)
        assert np.all(record.f_g <= 1.0 + 1e-10)

    def test_cut_bound_at_final_time(self, recorded_run):
        _, record = recorded_run
        assert record.f_c[-1] >= record.f_g[-1] - 1e-8

    def test_sampling_counts_and_endpoints(self, recorded_run):
        _, record = recorded_run
        assert len(record.times) == 101
        assert record.times[0] == 0.0
        assert record.times[-1] == pytest.approx(0.6)
        assert record.g_values[0] == pytest.approx(1.0)
        assert record.g_values[-1] == pytest.approx(0.0, abs=1e-12)
        assert record.f_g[0] == pytest.approx(1.0, abs=1e-9)
        assert np.all(record.gap >= 0.0)

    def test_work_counts_are_the_propagation_work(self, open5, recorded_run):
        _, record = recorded_run
        _, work = propagate(open5.propagator, RECORDED_SCHEDULE, open5.psi0, 100)
        assert (record.max_norm_dt, record.taylor_matvecs) == work

    def test_csv_format(self, recorded_run, tmp_path):
        _, record = recorded_run
        path = write_csv(tmp_path / "trajectory.csv", TRAJECTORY_COLUMNS, zip(
            record.times, record.g_values, record.f_c, record.f_g,
            record.purity_a, record.entropy_a, record.entropy_a, record.gap,
        ))
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(TRAJECTORY_COLUMNS)
        assert len(lines) == 1 + len(record.times)
        # every value carries 15 decimal digits (>= 12 significant digits)
        cell = re.compile(r"^-?\d\.\d{15}e[+-]\d{2,3}$")
        for line in lines[1:3]:
            for field in line.split(","):
                assert cell.match(field), field
