"""Accuracy gate for total-S^z sector propagation and ground-state selection.

Every sector result is compared with the dense full-space oracles of
``oracles.py``: ``dense_propagate`` (one ``step_unitary`` per step) and
``dense_ground_state`` (one dense ``eigh``).  The tolerance is round-off.
"""

from math import comb

import numpy as np
import pytest

from spinsplice.chain import (
    DEGENERACY_RTOL,
    ChainSpec,
    assemble_hamiltonian,
    detached_block_hamiltonian,
    ground_state,
    sector_partition,
)
from spinsplice.control import (
    NoiseSpec,
    apply_noise,
    linear_baseline,
    polynomial_cut,
    polynomial_stitch,
    pulse_train,
)
from spinsplice.dynamics import SectorPropagator, TrajectoryProbe, cut_fidelity, propagate, reduce_density
from spinsplice.process import prepare_process

from oracles import dense_ground_state, dense_propagate, pauli_site_operator

GATE = 1e-12
GAP_GATE = 1e-10
OFFSET = 1e-6
STEPS = 300

RING6 = ChainSpec(6, "ring", 1.0, 2.0)
TABLE1 = ((0.3, (122.8, -82.0)), (0.6, (54.3, -36.3)), (0.9, (20.0, -13.5)), (2.0, (0.87, -0.72)))
FIG8_CORNERS = ((-30.0, -100.0), (-30.0, 30.0), (140.0, -100.0), (140.0, 30.0))


def dense_fidelities(process, schedule, n_steps):
    """(f_C, f_G) with every state of the process rebuilt by dense eigh."""
    h0, v = process.h0, process.v
    g_start = 1.0 if process.direction == "cut" else 0.0
    g_end = 1.0 - g_start
    inward = -OFFSET if process.direction == "cut" else OFFSET
    psi0 = dense_ground_state(h0 + g_start * v, h0 + (g_start + inward) * v)[1]
    final = dense_ground_state(h0 + g_end * v, h0 + (g_end - inward) * v)[1]
    block = dense_ground_state(detached_block_hamiltonian(process.chain, process.a_sites))[1]
    psi = dense_propagate(h0, v, schedule, psi0, n_steps)
    rho = reduce_density(psi, process.a_sites, process.chain.n_spins)
    return cut_fidelity(rho, block), float(abs(final.conj() @ psi))


def assert_gate(process, schedule, n_steps=STEPS):
    f_c, f_g = dense_fidelities(process, schedule, n_steps)
    assert abs(process.fidelity(schedule, n_steps, "cut") - f_c) <= GATE
    assert abs(process.fidelity(schedule, n_steps, "ground") - f_g) <= GATE


@pytest.fixture(scope="module")
def ring6():
    return prepare_process(RING6, "cut")


@pytest.fixture(scope="module")
def ring7():
    return prepare_process(ChainSpec(7, "ring", 1.0, 2.0), "cut")


class TestPartition:
    def test_blocks_are_magnetization_sectors(self):
        h0, v = assemble_hamiltonian(RING6)
        blocks = sector_partition(h0, v)
        assert [b.size for b in blocks] == [comb(6, k) for k in range(7)]
        for k, block in enumerate(blocks):
            assert all(bin(int(s)).count("1") == k for s in block)
        assert sorted(np.concatenate(blocks).tolist()) == list(range(64))

    def test_any_entry_between_blocks_collapses_to_one_block(self):
        h0, v = assemble_hamiltonian(ChainSpec(4, "open", 1.0, 2.0))
        v = v.copy()
        v[0, 1] = v[1, 0] = 1e-300
        (block,) = sector_partition(h0, v)
        assert np.array_equal(block, np.arange(16))

    def test_process_evolves_one_sector(self, ring6):
        (k,) = ring6.propagator.occupied(ring6.psi0)
        block = ring6.propagator.blocks[k]
        assert block.size == comb(6, 4)  # the field favours four down spins
        assert np.all(np.delete(ring6.psi0, block) == 0.0)


class TestAccuracyGate:
    @pytest.mark.parametrize("duration,params", TABLE1)
    def test_table1_points(self, ring6, duration, params):
        assert_gate(ring6, polynomial_cut(duration, params))

    @pytest.mark.parametrize("params", FIG8_CORNERS)
    def test_fig8_corners(self, ring6, params):
        assert_gate(ring6, polynomial_cut(0.6, params))

    def test_pulse_train(self):
        process = prepare_process(ChainSpec(8, "ring", 1.0, 2.0), "cut")
        amplitudes = 1.0 - (np.arange(9) + 0.5) / 9 + np.linspace(-0.4, 0.4, 9)
        assert_gate(process, pulse_train(0.6, amplitudes))

    def test_noisy_schedule(self):
        process = prepare_process(ChainSpec(6, "open", 1.0, 2.0), "cut")
        noisy = apply_noise(polynomial_cut(0.6, (34.9, -23.4)), NoiseSpec(window=0.01, strength=1.5, seed=5))
        assert_gate(process, noisy)

    def test_two_spin_cut(self):
        process = prepare_process(ChainSpec(6, "open", 1.0, 2.1, frozenset({(2, 3)})), "cut")
        assert process.a_sites == (1, 2)
        assert_gate(process, pulse_train(0.6, (-5.4, 4.1)))
        assert_gate(process, linear_baseline(0.6))

    def test_ring7_stitch(self):
        process = prepare_process(ChainSpec(7, "ring", 1.0, 2.2), "stitch")
        assert process.final_degenerate
        assert_gate(process, polynomial_stitch(0.6, (3.0, -2.0)))

    def test_ring7_level_crossing(self, ring7):
        assert ring7.start_degenerate
        assert_gate(ring7, linear_baseline(20.0))

    def test_recorded_gap_is_full_spectrum_gap(self, ring7):
        _, record = ring7.run(linear_baseline(20.0), STEPS, stride=15)
        for g, gap, flag in zip(record.g_values, record.gap, record.degenerate_flags):
            w = np.linalg.eigvalsh(ring7.h0 + g * ring7.v)
            assert abs(gap - (w[1] - w[0])) <= GAP_GATE
            assert flag == (w[1] - w[0] <= DEGENERACY_RTOL * (w[-1] - w[0]))
        assert record.degenerate_flags[0]


class TestBeyondOneSector:
    def test_superposition_across_two_sectors(self):
        h0, v = assemble_hamiltonian(RING6)
        rng = np.random.default_rng(3)
        psi0 = np.zeros(64, dtype=complex)
        blocks = sector_partition(h0, v)
        for k in (2, 3):
            psi0[blocks[k]] = rng.normal(size=blocks[k].size) + 1j * rng.normal(size=blocks[k].size)
        psi0 /= np.linalg.norm(psi0)
        prop = SectorPropagator(h0, v)
        assert prop.occupied(psi0) == [2, 3]
        for schedule in (polynomial_cut(0.6, (54.3, -36.3)), pulse_train(0.6, (0.5, -1.0, 2.0))):
            psi, _ = propagate(h0, v, schedule, psi0, STEPS, propagator=prop)
            assert np.abs(psi - dense_propagate(h0, v, schedule, psi0, STEPS)).max() <= GATE
        probe = TrajectoryProbe(n_spins=6, subsystem_sites=(1,), phi_0a=np.array([0.0, 1.0]), stride=50)
        _, record = propagate(h0, v, linear_baseline(0.6), psi0, STEPS, probe=probe, propagator=prop)
        for g, gap in zip(record.g_values, record.gap):
            w = np.linalg.eigvalsh(h0 + g * v)
            assert abs(gap - (w[1] - w[0])) <= GAP_GATE

    def test_transverse_field_runs_on_one_block(self):
        spec = ChainSpec(5, "open", 1.0, 2.0)
        h0, v = assemble_hamiltonian(spec)
        h0 = h0 + 0.3 * sum(pauli_site_operator(s, "x", 5).real for s in range(1, 6))
        prop = SectorPropagator(h0, v)
        assert len(prop.blocks) == 1
        energy, state, degenerate, gap = dense_ground_state(h0 + v)
        selection = ground_state(h0 + v)
        assert not selection.degenerate and not degenerate
        assert abs(selection.energy - energy) <= GATE
        assert abs(selection.gap - gap) <= GAP_GATE
        assert abs(abs(selection.state @ state) - 1.0) <= GATE
        psi0 = state.astype(complex)
        schedule = polynomial_cut(0.6, (10.0, -5.0))
        psi, _ = propagate(h0, v, schedule, psi0, 100, propagator=prop)
        assert np.abs(psi - dense_propagate(h0, v, schedule, psi0, 100)).max() <= GATE


class TestGroundSelection:
    def test_tie_across_sectors_matches_dense(self, ring7):
        h0, v = ring7.h0, ring7.v
        selection = ground_state(h0 + v, h0 + (1.0 - OFFSET) * v)
        energy, state, degenerate, gap = dense_ground_state(h0 + v, h0 + (1.0 - OFFSET) * v)
        assert selection.degenerate and degenerate
        assert abs(selection.energy - energy) <= GATE
        assert abs(selection.gap - gap) <= GAP_GATE
        assert abs(abs(selection.state.conj() @ state) - 1.0) <= GATE
