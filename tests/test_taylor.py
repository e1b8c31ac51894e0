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

from oracles import (
    CountingObjective,
    centre_and_half_width,
    reference_block,
    sector_propagate,
    sector_reference,
)

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


@pytest.fixture(scope="module")
def ring8():
    return prepare_process(ChainSpec(8, "ring", 1.0, 2.0), "cut")


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
        _, record = ring6.run(schedule, 20)
        assert record.taylor_matvecs == 0
        assert record.max_norm_dt > 100.0

    @pytest.mark.parametrize("schedule", [
        polynomial_cut(0.6, (54.3, -36.3)),
        pulse_train(0.6, (0.5, -1.0, 2.0)),
        pulse_train(0.6, (0.5, -40.0, 2.0)),  # the middle pulse is beyond the budget
    ], ids=["polynomial", "pulse_train", "pulse_beyond_budget"])
    def test_steps_within_the_budget_take_their_taylor_plan(self, ring6, schedule):
        # each plan is sized on (r0 + |g| rv) dt, the half-widths of the dense
        # operators' spectra on the occupied block
        _, record = ring6.run(schedule, 300)
        prop = ring6.propagator
        reference = sector_reference(ring6.chain)
        grid = integration_grid(schedule, 300)
        g = schedule.values(0.5 * (grid[:-1] + grid[1:]))
        expected = 0
        for k in prop.occupied(ring6.psi0):
            (_, r0), (_, rv) = (centre_and_half_width(op) for op in reference_block(reference, prop.blocks[k]))
            orders, substeps = taylor_plan((r0 + np.abs(g) * rv) * np.diff(grid))
            work = orders * substeps
            expected += int(work[work <= MAX_TAYLOR_TERMS].sum())
        assert record.taylor_matvecs == expected > 0


CHAINS = {
    "ring6": ChainSpec(6, "ring", 1.0, 2.0),
    "ring8": ChainSpec(8, "ring", 1.0, 2.0),
    "ring10": ChainSpec(10, "ring", 1.0, 2.0),
    "ring12": ChainSpec(12, "ring", 1.0, 2.0),
    "open6": ChainSpec(6, "open", 1.0, 2.0),
    "ring7": ChainSpec(7, "ring", 1.0, 2.0),  # a twofold tie across both parities
}


class TestCentredBound:
    @pytest.mark.parametrize("name", CHAINS)
    def test_half_widths_bound_the_centred_blocks(self, name):
        # r >= ||M - c||_2 on every block, from the dense operators; and r
        # is the spectral half-width widened by its round-off slack 4 d eps
        # ||M||, not a looser norm.  The start state occupies one block,
        # ring7's tied one included
        chain = CHAINS[name]
        process = prepare_process(chain, "cut")
        prop = process.propagator
        reference = sector_reference(chain)
        assert len(prop.occupied(process.psi0)) == 1
        for k in range(len(prop.blocks)):
            block = prop.centred(k)
            ops = reference_block(reference, prop.blocks[k])
            for op, c, r in zip(ops, (block.c0, block.cv), (block.r0, block.rv)):
                energies = np.linalg.eigvalsh(op - c * np.eye(len(op)))
                assert r >= np.abs(energies).max()
                assert abs(r - centre_and_half_width(op)[1]) <= 1e-12 * max(1.0, abs(c))

    @pytest.mark.parametrize("name", ["ring6", "ring8"])
    def test_centred_matrices_are_formed_once(self, name):
        # h0 - c0 I, v - cv I and the two side by side, kept for every
        # propagate; the expansion table only for a block of at most 23 states
        process = prepare_process(CHAINS[name], "cut")
        prop = process.propagator
        (k,) = prop.occupied(process.psi0)
        process.fidelity(polynomial_cut(0.6, (54.3, -36.3)), 30)
        block = prop.centred(k)
        assert prop.centred(k) is block
        eye = np.eye(prop.blocks[k].size)
        assert np.array_equal(block.h, prop.h0[k] - block.c0 * eye)
        assert np.array_equal(block.v, prop.v[k] - block.cv * eye)
        assert np.array_equal(block.hv, np.hstack((block.h, block.v)))
        assert (block.expansion is None) == (prop.blocks[k].size > 23)

    @pytest.mark.parametrize("name", ["ring6", "ring8", "ring10"])
    def test_hv_starts_on_a_64_byte_boundary(self, name):
        # the Taylor kernel's products with hv run at the speed of an aligned
        # matrix whatever the heap did before
        process = prepare_process(CHAINS[name], "cut")
        prop = process.propagator
        for k in prop.occupied(process.psi0):
            hv = prop.centred(k).hv
            assert hv.ctypes.data % 64 == 0 and hv.flags.c_contiguous

    @pytest.mark.parametrize("name", ["open6", "ring7"])
    @pytest.mark.parametrize("schedule", [
        pulse_train(0.6, (-2.0, 3.0)),
        pulse_train(0.9, (3.0, -2.0, 1.5, -0.5)),
    ], ids=["two_pulses", "four_pulses"])
    def test_amplitudes_outside_the_unit_interval(self, name, schedule):
        # each block's phase exp(-i sum (c0 + g cv) dt) comes back exactly,
        # the relative phase of ring7's two tied blocks included
        assert_gate(prepare_process(CHAINS[name], "cut"), schedule, 300)


class TestLongRuns:
    @pytest.mark.parametrize("name", ["ring6", "open6", "ring7"])
    def test_3000_steps_stay_within_the_gate(self, name):
        # every step factor carries its own round-off, so the error of a run
        # grows with its step count: ten times the default steps, both of
        # ring7's tied blocks included
        process = prepare_process(CHAINS[name], "cut")
        assert_gate(process, polynomial_cut(2.0, (20.0, -13.5)), 3000)
        assert_gate(process, sine_cut(0.6, (0.4, -0.3)), 3000)


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

    def test_table_equals_the_least_work_pair(self):
        # the plan read off the table of edges is the definition's pair, at
        # every edge, one float either side of it, and in between
        edges = dynamics_module._PLAN_EDGES
        norms = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
                                np.random.default_rng(3).uniform(0.0, 400.0, 2000), [0.0, 1e-300, 1e300]])
        orders, substeps = taylor_plan(norms)
        for norm_dt, order, count in zip(norms.tolist(), orders.tolist(), substeps.tolist()):
            # highest order first: ties go to the fewest substeps
            candidates = [(m * max(1, min(math.ceil(norm_dt / theta), MAX_TAYLOR_TERMS + 1)), i)
                          for i, (m, theta) in enumerate(zip(dynamics_module.ORDERS.tolist(),
                                                             dynamics_module.THETA.tolist()))]
            work, best = min(candidates)
            assert (order, count) == (dynamics_module.ORDERS[best], work // dynamics_module.ORDERS[best])

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

    def test_mixed_durations_share_a_batch(self, ring6, ring8, monkeypatch):
        # one duration with a single column next to wider groups, and one
        # whose steps are beyond the term budget: on the factor path (the
        # 9-state ring6 block) each column is bitwise its single run,
        # whatever the batch does with its products; on the Taylor path (the
        # 31-state ring8 block) a step has one plan for the whole batch, so
        # only within BATCH_GATE
        lone = [
            polynomial_cut(0.3, (122.8, -82.0)),
            polynomial_cut(0.3, (100.0, -70.0)),
            polynomial_cut(0.3, (80.0, -60.0)),
            polynomial_cut(0.6, (54.3, -36.3)),
            polynomial_cut(0.45, (4e4, -3e4)),
            polynomial_cut(0.9, (20.0, -13.5)),
            polynomial_cut(0.9, (30.0, -20.0)),
        ]
        for process, bitwise in ((ring6, True), (ring8, False)):
            assert (process.propagator.centred(process.propagator.occupied(process.psi0)[0]).expansion
                    is not None) == bitwise
            batched, _ = propagate(process.propagator, lone, process.psi0, 300)
            singles = np.stack([propagate(process.propagator, s, process.psi0, 300)[0] for s in lone], axis=1)
            values = process.fidelities(lone, 300)
            single_values = [process.fidelity(s, 300) for s in lone]
            if bitwise:
                assert np.array_equal(batched, singles)
                assert values.tolist() == single_values
            else:
                assert np.abs(batched - singles).max() <= BATCH_GATE
                assert np.abs(values - single_values).max() <= BATCH_GATE

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

    def test_one_step_chunks_equal_singles(self, ring6):
        # 203 columns of the 9-state block fill a chunk of factors with one
        # step; where every column takes the same substeps, the amplitudes
        # move to the factors' rows rather than the factors to the columns
        shifts = np.random.default_rng(14).normal(0.0, 1.0, (203, 2))
        schedules = [polynomial_cut(0.6, np.array([54.3, -36.3]) + shift) for shift in shifts]
        batched, _ = propagate(ring6.propagator, schedules, ring6.psi0, 300)
        singles = np.stack([propagate(ring6.propagator, s, ring6.psi0, 300)[0] for s in schedules], axis=1)
        assert np.array_equal(batched, singles)

    def test_many_durations_keep_the_coefficients_within_the_batch_bytes(self, monkeypatch):
        # 24 durations on the 21-state open7 block: each has its own step
        # lengths, and so its own (order, tau) keys, and the coefficients of
        # all of them take about 13 MB; the batch evolves in parts whose
        # coefficients each fit MAX_BATCH_BYTES, and every column is still
        # bitwise its single run
        process = prepare_process(ChainSpec(7, "open", 1.0, 2.0), "cut")
        schedules = [polynomial_cut(T, (54.3, -36.3)) for T in np.linspace(0.2, 1.2, 24)]
        held, coefficients = [], dynamics_module._coefficients

        def recorded(expansion, orders, scaled):
            out = coefficients(expansion, orders, scaled)
            held.append(sum(n.nbytes for n in out))
            return out

        monkeypatch.setattr(dynamics_module, "_coefficients", recorded)
        batched, _ = propagate(process.propagator, schedules, process.psi0, 300)
        assert len(held) > 1
        assert max(held) <= dynamics_module.MAX_BATCH_BYTES < sum(held)
        singles = np.stack([propagate(process.propagator, s, process.psi0, 300)[0] for s in schedules], axis=1)
        assert np.array_equal(batched, singles)

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
