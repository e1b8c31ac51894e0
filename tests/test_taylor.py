"""Accuracy gate and batch invariance of the Taylor propagator.

Every step, of a smooth schedule or of a pulse train, is a truncated Taylor
series on a (d x B) batch, unless its plan needs more than MAX_TAYLOR_TERMS
terms and it takes the exact factor.  The reference here
is ``oracles.sector_propagate``, the exact product of one ``eigh`` per step
on the plain total-S^z sectors cut from the dense operators, with no
reflection parity.  It reaches the 10- and 12-rings where the dense oracles
of ``test_sectors.py`` cannot.  The tolerance is round-off.
"""

import math

import numpy as np
import pytest

import spinsplice.dynamics as dynamics_module
import spinsplice.process as process_module
from spinsplice.chain import ChainSpec
from spinsplice.control import (
    apply_noise,
    polynomial_cut,
    polynomial_stitch,
    pulse_train,
    sine_cut,
)
from spinsplice.dynamics import (
    MAX_TAYLOR_ORDER,
    MAX_TAYLOR_TERMS,
    UNIT_ROUNDOFF,
    cut_fidelity,
    integration_grid,
    propagate,
    reduce_density,
    taylor_plan,
)
from spinsplice.optimize import LandscapeAxis, finite_difference_gradient, scan_landscape
from spinsplice.process import prepare_process

from oracles import CountingObjective, sector_propagate, sector_reference

GATE = 1e-12
BATCH_GATE = 1e-13


def assert_gate(process, schedule, n_steps, reference=None):
    """The final state and both fidelities agree with the eigh-per-step
    product on the plain sectors."""
    if reference is None:
        reference = sector_reference(process.chain)
    expected = sector_propagate(reference, schedule, process.psi0, n_steps)
    psi, _ = propagate(process.propagator, schedule, process.psi0, n_steps)
    assert np.abs(psi - expected).max() <= GATE
    rho = reduce_density(expected, process.a_sites, process.chain.n_spins)
    assert abs(process.fidelity(schedule, n_steps, "cut") - cut_fidelity(rho, process.phi_0a)) <= GATE
    assert abs(process.fidelity(schedule, n_steps, "ground") - abs(process.final_ground.conj() @ expected)) <= GATE


@pytest.fixture(scope="module")
def ring6():
    return prepare_process(ChainSpec(6, "ring", 1.0, 2.0), "cut")


class TestExactReference:
    @pytest.mark.parametrize("n_spins,n_steps", [(10, 300), (12, 40)])
    def test_matches_eigh_per_step_product(self, n_spins, n_steps):
        ring = ChainSpec(n_spins, "ring", 1.0, 2.0)
        reference = sector_reference(ring)
        cut = prepare_process(ring, "cut")
        for schedule in (
            polynomial_cut(0.6, (54.3, -36.3)),
            sine_cut(0.6, (0.4, -0.3)),
            apply_noise(polynomial_cut(0.6, (34.9, -23.4)), window=0.05, strength=1.5, seed=5),
            pulse_train(0.6, 1.0 - (np.arange(9) + 0.5) / 9 + np.linspace(-0.4, 0.4, 9)),
        ):
            assert_gate(cut, schedule, n_steps, reference)
        del cut
        assert_gate(prepare_process(ring, "stitch"), polynomial_stitch(0.6, (3.0, -2.0)), n_steps, reference)

    @pytest.mark.parametrize("schedule", [
        polynomial_cut(0.6, (4e4, -3e4)),  # |g| ~ 1e4 over 20 steps
        pulse_train(0.6, (400.0, -300.0, 500.0)),  # |g| ~ 500 over pulses 0.2 long
    ], ids=["polynomial", "pulse_train"])
    def test_steps_beyond_the_term_budget_take_the_exact_factor(self, ring6, schedule):
        # each step needs thousands of Taylor terms
        assert_gate(ring6, schedule, 20)
        _, record = ring6.run(schedule, 20, stride=20)
        assert record.taylor_matvecs == 0
        assert record.max_norm_dt > 100.0

    @pytest.mark.parametrize("schedule", [
        polynomial_cut(0.6, (54.3, -36.3)),
        pulse_train(0.6, (0.5, -1.0, 2.0)),
        pulse_train(0.6, (0.5, -40.0, 2.0)),  # the middle pulse is beyond the budget
    ], ids=["polynomial", "pulse_train", "pulse_beyond_budget"])
    def test_steps_within_the_budget_take_their_taylor_plan(self, ring6, schedule):
        _, record = ring6.run(schedule, 300, stride=10)
        prop = ring6.propagator
        grid = integration_grid(schedule, 300)
        g = schedule.values(0.5 * (grid[:-1] + grid[1:]))
        expected = 0
        for k in prop.occupied(ring6.psi0):
            n0, nv = prop.norms(k)
            orders, substeps = taylor_plan((n0 + np.abs(g) * nv) * np.diff(grid))
            work = orders * substeps
            expected += int(work[work <= MAX_TAYLOR_TERMS].sum())
        assert record.taylor_matvecs == expected > 0


class TestTaylorPlan:
    def test_tail_bound_and_least_work(self):
        def tail(m, theta):
            if theta >= m + 2:
                return math.inf
            return theta ** (m + 1) / math.factorial(m + 1) / (1.0 - theta / (m + 2))

        for norm_dt in (0.0, 1e-6, 0.01, 0.2, 0.9, 1.6, 3.0, 4.5):
            (order,), (substeps,) = taylor_plan(np.array([norm_dt]))
            assert 1 <= order <= MAX_TAYLOR_ORDER
            assert order * substeps <= MAX_TAYLOR_TERMS
            assert tail(order, norm_dt / substeps) <= UNIT_ROUNDOFF
            for m in range(1, MAX_TAYLOR_ORDER + 1):
                for s in range(1, order * substeps):
                    if m * s < order * substeps:
                        assert tail(m, norm_dt / s) > UNIT_ROUNDOFF, (norm_dt, m, s)

    def test_work_grows_with_the_norm(self):
        orders, substeps = taylor_plan(np.linspace(0.0, 4.5, 91))
        work = orders * substeps
        assert np.all(np.diff(work) >= 0)
        assert work[-1] <= MAX_TAYLOR_TERMS
        # past the budget the plan says so, and the step is taken exactly
        (order,), (substeps,) = taylor_plan(np.array([50.0]))
        assert order * substeps > MAX_TAYLOR_TERMS


def random_polynomials(rng, count):
    return [polynomial_cut(0.6, rng.uniform(-60.0, 140.0, 2)) for _ in range(count)]


def random_noisy(rng, count):
    base = polynomial_cut(0.6, (34.9, -23.4))
    return [apply_noise(base, window=0.01, strength=1.2, seed=int(seed))
            for seed in rng.integers(0, 2**32, count)]


def random_pulses(rng, count):
    return [pulse_train(0.6, rng.uniform(-3.0, 3.0, 5)) for _ in range(count)]


def record_batches(monkeypatch, schedules):
    """Each batch propagate evolves from now on, as the positions of its
    schedules in ``schedules``."""
    batches, evolve = [], dynamics_module._evolve
    position = {id(s): i for i, s in enumerate(schedules)}

    def recorded(propagator, batch, *args, **kwargs):
        batches.append([position[id(s)] for s in batch])
        return evolve(propagator, batch, *args, **kwargs)

    monkeypatch.setattr(dynamics_module, "_evolve", recorded)
    return batches


class TestBatchSizeIsInvisible:
    @pytest.mark.parametrize("family", [random_polynomials, random_noisy, random_pulses])
    def test_batch_of_64_equals_singles(self, ring6, family):
        schedules = family(np.random.default_rng(11), 64)
        batched = ring6.fidelities(schedules, 300)
        singles = [ring6.fidelity(s, 300) for s in schedules]
        assert np.abs(batched - singles).max() <= BATCH_GATE

    def test_mixed_grids_equal_singles_in_order(self, ring6, monkeypatch):
        rng = np.random.default_rng(12)
        base = polynomial_cut(0.6, (54.3, -36.3))
        schedules = [
            base,
            apply_noise(base, window=0.0655, strength=1.0, seed=1),  # windows off the step grid
            pulse_train(0.6, (1.0, -2.0, 0.5)),
            *random_polynomials(rng, 3),
            apply_noise(base, window=0.0655, strength=1.0, seed=2),
            pulse_train(0.6, (0.3, 0.2, 0.1, 0.0)),
            pulse_train(0.6, (-1.0, 2.0, 0.5)),
        ]
        singles = [ring6.fidelity(s, 300, "ground") for s in schedules]
        batches = record_batches(monkeypatch, schedules)
        batched = ring6.fidelities(schedules, 300, "ground")
        assert np.abs(batched - singles).max() <= BATCH_GATE
        # four grids: the 300-step grid, the noise-refined one, 3 pulses and 4 pulses
        assert batches == [[0, 3, 4, 5], [1, 6], [2, 8], [7]]

    def test_mixed_durations_share_a_batch(self, ring6, monkeypatch):
        # each column keeps its own grid: one batch per step count
        schedules = [
            polynomial_cut(0.01, (54.3, -36.3)),
            pulse_train(0.3, (1.0, -2.0, 0.5)),
            polynomial_cut(0.6, (54.3, -36.3)),
            pulse_train(0.9, (0.3, -1.0, 2.0)),
            polynomial_cut(2.0, (20.0, -13.5)),
        ]
        singles = [ring6.fidelity(s, 300) for s in schedules]
        batches = record_batches(monkeypatch, schedules)
        batched = ring6.fidelities(schedules, 300)
        assert np.abs(batched - singles).max() <= BATCH_GATE
        assert batches == [[0, 2, 4], [1, 3]]

    def test_mixed_kinds_share_a_batch(self, ring6, monkeypatch):
        # a 3-pulse train and smooth schedules at 3 steps have grids of one size
        schedules = [
            polynomial_cut(0.6, (54.3, -36.3)),
            pulse_train(0.6, (1.0, -2.0, 0.5)),
            sine_cut(0.6, (0.4, -0.3)),
            pulse_train(0.3, (0.3, 0.2, 0.1)),
        ]
        singles = [ring6.fidelity(s, 3) for s in schedules]
        batches = record_batches(monkeypatch, schedules)
        batched = ring6.fidelities(schedules, 3)
        assert np.abs(batched - singles).max() <= BATCH_GATE
        assert batches == [[0, 1, 2, 3]]

    def test_chunks_keep_the_values(self, ring6, monkeypatch):
        schedules = random_polynomials(np.random.default_rng(13), 10)
        whole = ring6.fidelities(schedules, 120)
        batches = record_batches(monkeypatch, schedules)
        # 120 steps exceed the block dimension 9: the (steps x B) couplings set the width
        monkeypatch.setattr(dynamics_module, "MAX_BATCH_BYTES", 16 * 120 * 4)
        chunked = ring6.fidelities(schedules, 120)
        assert batches == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        assert np.abs(chunked - whole).max() <= BATCH_GATE

    def test_a_probe_records_one_schedule(self, ring6):
        with pytest.raises(ValueError, match="one schedule"):
            propagate(ring6.propagator, [polynomial_cut(0.6, (1.0,))], ring6.psi0, 50, probe=object())


class TestOneCallPerBatch:
    def test_landscape_is_one_call(self):
        objective = CountingObjective()
        axes = (LandscapeAxis(0, -1.0, 1.0, 5), LandscapeAxis(2, 0.0, 2.0, 4))
        grid = scan_landscape(objective, axes, base_params=(0.0, 3.0, 0.0))
        assert objective.shapes == [(3, 20)]
        p1, p2 = np.meshgrid(axes[0].grid(), axes[1].grid(), indexing="ij")
        assert np.array_equal(grid.values, np.sin(p1) + 0.5 * p2**2)

    def test_gradient_is_one_call(self):
        objective = CountingObjective()
        x = np.array([0.3, -0.2, 0.7])
        grad = finite_difference_gradient(objective, x, 0.1)
        assert objective.shapes == [(3, 6)]
        expected = [(np.sin(x[0] + 0.1) - np.sin(x[0] - 0.1)) / 0.2, 0.0,
                    (0.5 * (x[2] + 0.1) ** 2 - 0.5 * (x[2] - 0.1) ** 2) / 0.2]
        assert grad == pytest.approx(expected, abs=1e-14)

    def test_result_must_have_one_value_per_column(self):
        # a reduction over all axes would give one value for the whole batch
        norm = lambda x: -float(np.sum(np.asarray(x) ** 2))
        with pytest.raises(ValueError, match="one value per column"):
            finite_difference_gradient(norm, np.zeros(2), 0.1)
        axes = (LandscapeAxis(0, -1.0, 1.0, 3), LandscapeAxis(1, -1.0, 1.0, 3))
        with pytest.raises(ValueError, match="one value per column"):
            scan_landscape(norm, axes)

    def test_physics_objective_batches(self, ring6):
        spec = process_module.ObjectiveSpec(chain=ring6.chain, kind="polynomial_cut", duration=0.6,
                                            n_free_params=2, n_steps=120)
        objective, _ = process_module.build_objective(spec, ring6)
        points = np.array([[0.0, 54.3, 10.0], [0.0, -36.3, 5.0]])
        values = objective(points)
        assert values.shape == (3,)
        singles = [objective(col) for col in points.T]
        assert all(isinstance(v, float) for v in singles)
        assert np.abs(values - singles).max() <= BATCH_GATE
