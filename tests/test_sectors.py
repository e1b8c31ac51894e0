"""Accuracy gate for block propagation and ground-state selection.

The package evolves each total-S^z sector split in two by a reflection of
the chain that keeps the cut bonds.  Every result is compared with the dense
full-space oracles of ``oracles.py``: ``dense_propagate`` (one
``step_unitary`` per step) and ``dense_ground_state`` (one dense ``eigh``).
Recorded trajectories are compared with ``recorded_observables``, which
steps on the plain total-S^z sectors, forms both reduced density matrices
and diagonalizes every sector with eigenvectors at each sample.  The
tolerance is round-off.
"""

import functools
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinsplice.chain import (
    DEGENERACY_RTOL,
    ChainSpec,
    Spectrum,
    assemble_hamiltonian,
    DegeneracyError,
    ground_state,
    resolve_ground,
)
from spinsplice.control import (
    apply_noise,
    linear_baseline,
    polynomial_cut,
    polynomial_stitch,
    pulse_train,
)
from spinsplice.dynamics import SectorPropagator, cut_fidelity, propagate, reduce_density
import spinsplice.process as process_module
from spinsplice.process import TrajectoryRecord, prepare_process

from oracles import (
    dense_detached_block,
    dense_ground_state,
    dense_hamiltonian,
    dense_propagate,
    eager_spectrum,
    recorded_observables,
    reference_record,
    sector_reference,
)

GATE = 1e-12
GAP_GATE = 1e-10
OFFSET = 1e-6
STEPS = 300

RING6 = ChainSpec(6, "ring", 1.0, 2.0)
RING8 = ChainSpec(8, "ring", 1.0, 2.0)
TABLE1 = ((0.3, (122.8, -82.0)), (0.6, (54.3, -36.3)), (0.9, (20.0, -13.5)), (2.0, (0.87, -0.72)))
FIG8_CORNERS = ((-30.0, -100.0), (-30.0, 30.0), (140.0, -100.0), (140.0, 30.0))


def dense_fidelities(process, schedule, n_steps):
    """(f_C, f_G) with every state of the process rebuilt by dense eigh."""
    h0, v = dense_hamiltonian(process.chain)
    g_start = 1.0 if process.direction == "cut" else 0.0
    g_end = 1.0 - g_start
    inward = -OFFSET if process.direction == "cut" else OFFSET
    psi0 = dense_ground_state(h0 + g_start * v, h0 + (g_start + inward) * v)[1]
    final = dense_ground_state(h0 + g_end * v, h0 + (g_end - inward) * v)[1]
    block = dense_ground_state(dense_detached_block(process.chain, process.a_sites))[1]
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


def sector_of(block):
    """The number of down spins of every state of a block."""
    (k,) = {bin(int(s)).count("1") for s in block.states}
    return k


def reflected(n_spins, images):
    """Each basis state's image under the site map ``images`` (site i goes to
    images[i - 1]), one bit at a time."""
    out = np.zeros(1 << n_spins, dtype=np.int64)
    for s in range(1 << n_spins):
        for i in range(1, n_spins + 1):
            if (s >> (n_spins - i)) & 1:
                out[s] |= 1 << (n_spins - images[i - 1])
    return out


def block_vectors(block, dim):
    """The block's basis vectors as the columns of a full-space matrix."""
    out = np.zeros((dim, block.size))
    block.embed(np.eye(block.size), out)
    return out


class TestPartition:
    def test_blocks_are_magnetization_sectors(self):
        # every block lies in one sector, and the even and odd halves of
        # each sector together span it
        blocks, _, _ = assemble_hamiltonian(RING6)
        sizes = np.zeros(7, dtype=int)
        for block in blocks:
            sizes[sector_of(block)] += block.size
        assert sizes.tolist() == [comb(6, k) for k in range(7)]
        # the reflection through site 1 maps each block vector to sign times itself
        image = reflected(6, (1, 6, 5, 4, 3, 2))
        basis = np.hstack([block_vectors(b, 64) for b in blocks])
        assert np.abs(basis.T @ basis - np.eye(64)).max() <= GATE
        for block in blocks:
            vectors = block_vectors(block, 64)
            assert block.sign in (1.0, -1.0)
            assert np.array_equal(vectors[image], block.sign * vectors)
        # an open chain cut at (1,2) has no reflection: its blocks are the sectors
        blocks, _, _ = assemble_hamiltonian(ChainSpec(6, "open", 1.0, 2.0))
        assert [b.size for b in blocks] == [comb(6, k) for k in range(7)]
        assert [sector_of(b) for b in blocks] == list(range(7))
        assert all(b.sign == 1.0 and np.array_equal(b.partners, b.states) for b in blocks)

    def test_any_entry_between_blocks_is_rejected(self):
        h0, v = dense_hamiltonian(ChainSpec(4, "open", 1.0, 2.0))
        v[0, 1] = v[1, 0] = 1e-300
        with pytest.raises(ValueError, match="total S\\^z"):
            ground_state(h0 + v)

    def test_process_evolves_one_sector(self, ring6):
        (k,) = ring6.propagator.occupied(ring6.psi0)
        block = ring6.propagator.blocks[k]
        assert sector_of(block) == 4  # the field favours four down spins
        assert block.sign == 1.0 and block.size == 9  # the even half of C(6, 4) = 15
        assert np.all(np.delete(ring6.psi0, np.concatenate([block.states, block.partners])) == 0.0)

    @pytest.mark.parametrize("n_spins", [6, 8, 10])
    def test_ground_state_occupies_one_parity_block(self, n_spins):
        process = prepare_process(ChainSpec(n_spins, "ring", 1.0, 2.0), "cut")
        prop = process.propagator
        (k,) = prop.occupied(process.psi0)
        # no round-off leaks into the other half of the sector
        (other,) = [b for j, b in enumerate(prop.blocks)
                    if j != k and sector_of(b) == sector_of(prop.blocks[k])]
        assert not np.any(other.amplitudes(process.psi0))
        assert abs(np.linalg.norm(prop.blocks[k].amplitudes(process.psi0)) - 1.0) <= GATE


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
        noisy = apply_noise(polynomial_cut(0.6, (34.9, -23.4)), window=0.01, strength=1.5, seed=5)
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
        def dense(process):
            h0, v = dense_hamiltonian(process.chain)
            return lambda g: np.linalg.eigvalsh(h0 + g * v)

        def every_block(process):  # the 4096^2 matrix itself would take minutes
            _, h0, v = assemble_hamiltonian(process.chain)
            return lambda g: np.sort(np.concatenate([np.linalg.eigvalsh(h + g * u) for h, u in zip(h0, v)]))

        cases = (  # process, schedule, stride, whether the first sample is degenerate, oracle
            (ring7, linear_baseline(20.0), 15, True, dense),  # a tie between the two parities of one sector
            (prepare_process(ChainSpec(7, "ring", 1.0, cross_sector_field()), "cut"),
             linear_baseline(20.0), 15, True, dense),  # a tie across two sectors and four blocks
            # about four samples keep the dense 1024^2 eigvalsh, and every ring12 block, cheap
            (prepare_process(ChainSpec(10, "ring", 1.0, 2.0), "cut"), polynomial_cut(0.6, TABLE1[1][1]), 100, False,
             dense),
            (prepare_process(ChainSpec(12, "ring", 1.0, 2.0), "cut"), polynomial_cut(0.6, TABLE1[1][1]), 100, False,
             every_block),
        )
        for process, schedule, stride, first_degenerate, oracle in cases:
            _, record = process.run(schedule, STEPS, stride=stride)
            spectrum = oracle(process)
            for g, gap, flag in zip(record.g_values, record.gap, record.degenerate_flags):
                w = spectrum(g)
                assert abs(gap - (w[1] - w[0])) <= GAP_GATE
                assert flag == (w[1] - w[0] <= DEGENERACY_RTOL * (w[-1] - w[0]))
            assert record.degenerate_flags[0] == first_degenerate


RECORDED_CASES = {
    "ring8": (RING8, polynomial_cut(0.6, TABLE1[1][1]), 60, 1),
    "ring7_crossing": (ChainSpec(7, "ring", 1.0, 2.0), linear_baseline(20.0), STEPS, 15),
    # A = sites 1..5 is the larger side
    "open6_cut56": (ChainSpec(6, "open", 1.0, 2.0, frozenset({(5, 6)})), polynomial_cut(0.6, (34.9, -23.4)), 100, 5),
}


class TestRecorder:
    @pytest.mark.parametrize("case", RECORDED_CASES)
    def test_matches_two_sided_eager_oracle(self, case):
        spec, schedule, n_steps, stride = RECORDED_CASES[case]
        process = prepare_process(spec, "cut")
        _, record = process.run(schedule, n_steps, stride)
        expected = recorded_observables(process, schedule, n_steps, stride)
        assert np.array_equal(record.times, expected["times"])
        assert np.array_equal(record.degenerate_flags, expected["degenerate_flags"])
        for name in ("g_values", "f_c", "f_g", "purity_a", "entropy_a", "entropy_b"):
            assert np.abs(getattr(record, name) - expected[name]).max() <= GATE, name
        assert np.abs(record.gap - expected["gap"]).max() <= GAP_GATE
        if case == "ring7_crossing":
            assert expected["degenerate_flags"].any()
        if case == "open6_cut56":
            assert len(process.a_sites) > len(process.b_sites)


BATCH_CHAINS = {"ring4": (4, "ring"), "ring6": (6, "ring"), "ring8": (8, "ring"), "ring10": (10, "ring"),
                "open5": (5, "open"), "open8": (8, "open")}
BATCH_SCHEDULES = {"cut": polynomial_cut(0.6, TABLE1[1][1]), "stitch": polynomial_stitch(0.9, (1.0, -0.5))}


@functools.cache
def batch_process(name, direction, field):
    n_spins, topology = BATCH_CHAINS[name]
    return prepare_process(ChainSpec(n_spins, topology, 1.0, field), direction)


def assert_same_record(record, expected):
    """Every field bitwise equal: the arrays' dtypes, shapes and bytes, and
    the work counts."""
    for name in TrajectoryRecord.__dataclass_fields__:
        got, want = getattr(record, name), getattr(expected, name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
        else:
            assert type(got) is type(want) and got == want, name


class TestBatchedRecorder:
    """The chunked recorder against ``reference_record``, which scores the
    same samples one at a time: every array and count is bitwise equal."""

    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("field", [2.0, 0.3])
    @pytest.mark.parametrize("direction", ["cut", "stitch"])
    @pytest.mark.parametrize("name", BATCH_CHAINS)
    def test_matches_one_sample_at_a_time(self, name, direction, field, stride):
        process = batch_process(name, direction, field)
        schedule = BATCH_SCHEDULES[direction]
        psi, record = process.run(schedule, 24, stride)
        expected_psi, expected = reference_record(process, schedule, 24, stride)
        assert psi.tobytes() == expected_psi.tobytes()
        assert_same_record(record, expected)

    @pytest.mark.parametrize("per_chunk", [1, 7])
    @pytest.mark.parametrize("stride", [1, 3])
    @pytest.mark.parametrize("name", ["ring6", "ring8"])
    def test_several_chunks(self, name, stride, per_chunk, monkeypatch):
        process = batch_process(name, "cut", 2.0)
        schedule = BATCH_SCHEDULES["cut"]
        expected = reference_record(process, schedule, 40, stride)[1]
        monkeypatch.setattr(process_module, "MAX_BATCH_BYTES", 16 * process.propagator.dim * per_chunk)
        record = process.run(schedule, 40, stride)[1]
        assert len(record.times) > 2 * per_chunk  # the run spans more than two chunks
        assert_same_record(record, expected)

    @pytest.mark.parametrize("per_chunk", [None, 1, 2])
    @pytest.mark.parametrize("run", ["ring7_crossing", "in_block_tie", "cross_sector_tie"])
    def test_tie_follows_the_previous_sample(self, run, per_chunk, monkeypatch):
        # ring7 at g = 1: a twofold tie inside the k = 4 sector at field 2.0,
        # a fourfold one across sectors at the crossing field.  Pulses of
        # amplitude 1 put it at later samples, which resolve it toward the
        # ground state of the sample before them, across chunk boundaries too
        pulses = pulse_train(0.6, (1.0, 0.4, 1.0, 1.0, -0.5, 1.0))
        spec, schedule, n_steps, stride = {
            "ring7_crossing": RECORDED_CASES["ring7_crossing"],
            "in_block_tie": (ChainSpec(7, "ring", 1.0, 2.0), pulses, 1, 1),
            "cross_sector_tie": (ChainSpec(7, "ring", 1.0, cross_sector_field()), pulses, 1, 1),
        }[run]
        process = prepare_process(spec, "cut")
        expected = reference_record(process, schedule, n_steps, stride)[1]
        assert expected.degenerate_flags[0]
        assert expected.degenerate_flags[1:].any() == (run != "ring7_crossing")
        if per_chunk is not None:
            monkeypatch.setattr(process_module, "MAX_BATCH_BYTES", 16 * process.propagator.dim * per_chunk)
        assert_same_record(process.run(schedule, n_steps, stride)[1], expected)


@pytest.fixture
def eigh_calls(monkeypatch):
    """The matrices passed to np.linalg.eigh while the test runs, each
    matrix of a stacked call on its own, in stack order."""
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        calls.extend(np.reshape(a, (-1, *np.shape(a)[-2:])))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return calls


class TestLazySpectrum:
    def test_prepare_diagonalizes_only_the_selected_ground_blocks(self, eigh_calls):
        process = prepare_process(RING8, "cut")
        prop = process.propagator
        assert not (process.start_degenerate or process.final_degenerate)
        (start,) = prop.occupied(process.psi0)
        (final,) = prop.occupied(process.final_ground)
        # the 1x1 block of the detached spin's target, then one block per endpoint
        assert [m.shape for m in eigh_calls] == [(1, 1), prop.h0[start].shape, prop.h0[final].shape]
        assert np.array_equal(eigh_calls[1], prop.h0[start] + 1.0 * prop.v[start])
        assert np.array_equal(eigh_calls[2], prop.h0[final] + 0.0 * prop.v[final])

    @pytest.mark.parametrize("crossing", [False, True], ids=["in_block", "cross_sector"])
    def test_tie_diagonalizes_exactly_the_tied_blocks(self, crossing, eigh_calls):
        # ring7 at g = 1: a twofold tie inside the k = 4 sector at field 2.0,
        # split between its even and odd blocks, and at the field where the
        # k = 5 sector's twofold lowest level meets it, a fourfold tie across
        # the four blocks of the two sectors
        field = cross_sector_field() if crossing else 2.0
        prop = SectorPropagator(*assemble_hamiltonian(ChainSpec(7, "ring", 1.0, field)))
        spectrum = prop.spectra([1.0])[0]
        lowest = [np.linalg.eigvalsh(h + v)[0] for h, v in zip(prop.h0, prop.v)]
        tied = [k for k, e in enumerate(lowest) if e <= spectrum.energies[0] + spectrum.threshold()]
        expected = [(4, 1.0), (4, -1.0), (5, 1.0), (5, -1.0)] if crossing else [(4, 1.0), (4, -1.0)]
        assert [(sector_of(prop.blocks[k]), prop.blocks[k].sign) for k in tied] == expected
        reference = np.random.default_rng(7).normal(size=prop.dim)
        del eigh_calls[:]
        assert spectrum.degenerate()
        spectrum.ground(reference)
        assert spectrum.vector_blocks == len(eigh_calls) == len(tied)
        matched = [k for m in eigh_calls for k in tied
                   if m.shape == prop.h0[k].shape and np.array_equal(m, prop.h0[k] + 1.0 * prop.v[k])]
        assert sorted(matched) == tied

    def test_energies_match_eager_spectrum(self, eigh_calls):
        prop = SectorPropagator(*assemble_hamiltonian(RING8))
        reference = sector_reference(RING8)
        for g in (-2.5, 0.0, 0.37, 1.0):
            spectrum = prop.spectra([g])[0]
            assert not eigh_calls and spectrum.vector_blocks == 0
            eager, _ = eager_spectrum(reference, g)
            del eigh_calls[:]
            # g = 0 and g = 1 keep every block's energies from the bounds;
            # any other g holds only some blocks', but the two lowest, the
            # tie and the top are those of the whole spectrum
            assert (spectrum.value_blocks == len(prop.blocks)) == (g in (0.0, 1.0))
            tied = int(np.searchsorted(eager, eager[0] + DEGENERACY_RTOL * (eager[-1] - eager[0]), side="right"))
            low = max(2, tied)
            assert np.abs(spectrum.energies[:low] - eager[:low]).max() <= GATE
            assert abs(spectrum.energies[-1] - eager[-1]) <= GATE
            assert spectrum.degenerate() == (tied > 1)

    def test_equal_dimensions_share_one_eigvalsh(self, monkeypatch):
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        prop = SectorPropagator(*assemble_hamiltonian(RING6))
        prop.spectra([0.0])[0]
        # the bounds: every block at g = 0 and at g = 1, stacked together.
        # Spin flip commutes with the reflection: sectors k and 6 - k split
        # alike, so 12 blocks need no more calls than the 7 sectors did
        assert len(prop.blocks) == 12
        dims = len({b.size for b in prop.blocks})
        assert len(calls) == dims == 7
        assert sum(shape[0] for shape in calls) == 2 * len(prop.blocks)
        # they hold the whole spectra at g = 0 and g = 1: no further call
        del calls[:]
        assert prop.spectra([0.0])[0].value_blocks == prop.spectra([1.0])[0].value_blocks == len(prop.blocks)
        assert not calls
        # any other spectrum diagonalizes only the blocks its bounds admit,
        # one call each: no two of them share a bound
        spectrum = prop.spectra([0.5])[0]
        assert len(calls) == spectrum.value_blocks < len(prop.blocks)
        assert all(shape[0] == 1 for shape in calls)
        # outside [0, 1], v's ranges join the bounds, found once, stacked
        for g in (1.5, -0.5):
            del calls[:]
            spectrum = prop.spectra([g])[0]
            assert len(calls) == (dims if g == 1.5 else 0) + spectrum.value_blocks
            assert spectrum.value_blocks < len(prop.blocks)

    def test_recorder_prunes_the_value_work(self):
        process = prepare_process(RING8, "cut")
        _, record = process.run(polynomial_cut(0.6, TABLE1[1][1]), 60)
        samples = len(record.times)
        assert len(process.propagator.blocks) == 16
        assert samples <= record.value_blocks < 16 * samples / 2


@functools.cache
def pruned_propagator(name):
    spec = {
        "ring6": RING6, "ring7": ChainSpec(7, "ring", 1.0, 2.0), "ring8": RING8,
        "open6": ChainSpec(6, "open", 1.0, 2.0), "ring7_crossing": ChainSpec(7, "ring", 1.0, cross_sector_field()),
    }[name]
    return SectorPropagator(*assemble_hamiltonian(spec))


def tie_count(spectrum):
    return int(np.searchsorted(spectrum.energies, spectrum.energies[0] + spectrum.threshold(), side="right"))


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(("ring6", "ring7", "ring8", "open6", "ring7_crossing")),
       g=st.floats(-3.0, 3.0, allow_nan=False))
@example(name="ring7_crossing", g=1.0)  # a four-fold tie across two sectors
@example(name="ring7", g=1.0)  # a tie between the parities of one sector
@example(name="ring8", g=0.0)
@example(name="ring8", g=0.5)
@example(name="open6", g=-1.5)
def test_pruned_spectrum_is_bitwise_the_full_one(name, g):
    """The bounded spectrum against the one of every block: the same bits in
    everything it promises, and the same ground state of the tie."""
    prop = pruned_propagator(name)
    pruned, full = prop.spectra([g])[0], Spectrum(prop.blocks, lambda b: prop.h0[b] + g * prop.v[b])
    assert full.value_blocks == len(full.blocks)
    assert pruned.energies[0] == full.energies[0]
    assert pruned.energies[1] == full.energies[1]
    assert pruned.energies[-1] == full.energies[-1]
    assert pruned.gap == full.gap and pruned.threshold() == full.threshold()
    assert pruned.degenerate() == full.degenerate()
    assert tie_count(pruned) == tie_count(full)
    reference = np.random.default_rng(0).normal(size=prop.dim)
    assert np.array_equal(pruned.ground(reference), full.ground(reference))


class TestBeyondOneSector:
    def assert_matches_dense(self, ring6, psi0, expected_blocks):
        h0, v = dense_hamiltonian(RING6)
        prop = ring6.propagator
        assert [(sector_of(prop.blocks[k]), prop.blocks[k].sign) for k in prop.occupied(psi0)] == expected_blocks
        for schedule in (polynomial_cut(0.6, (54.3, -36.3)), pulse_train(0.6, (0.5, -1.0, 2.0))):
            psi, _ = propagate(prop, schedule, psi0, STEPS)
            assert np.abs(psi - dense_propagate(h0, v, schedule, psi0, STEPS)).max() <= GATE
        _, record = replace(ring6, psi0=psi0).run(linear_baseline(0.6), STEPS, stride=50)
        for g, gap in zip(record.g_values, record.gap):
            w = np.linalg.eigvalsh(h0 + g * v)
            assert abs(gap - (w[1] - w[0])) <= GAP_GATE

    def test_superposition_across_two_sectors(self, ring6):
        downs = np.array([bin(s).count("1") for s in range(64)])
        psi0 = random_state(np.isin(downs, (2, 3)), 3)
        self.assert_matches_dense(ring6, psi0, [(2, 1.0), (2, -1.0), (3, 1.0), (3, -1.0)])

    def test_superposition_across_both_parities(self, ring6):
        # a basis state and its mirror image with unequal weights
        psi0 = np.zeros(64, dtype=complex)
        psi0[0b110000], psi0[0b100010] = 0.8, 0.6j  # downs on sites (1, 2) and (1, 6)
        self.assert_matches_dense(ring6, psi0, [(2, 1.0), (2, -1.0)])


def random_state(support, seed):
    rng = np.random.default_rng(seed)
    psi = np.where(support, rng.normal(size=support.size) + 1j * rng.normal(size=support.size), 0.0)
    return psi / np.linalg.norm(psi)


def cross_sector_field():
    """The field at which the twofold lowest levels of the k = 4 and k = 5
    sectors of the 7-ring meet at g = 1: block k shifts by field * (7 - 2k)."""
    _, h0, v = sector_reference(ChainSpec(7, "ring", 1.0, 0.0))
    e4, e5 = (np.linalg.eigvalsh(h0[k] + v[k])[0] for k in (4, 5))
    return float(e5 - e4) / 2.0


class TestGroundSelection:
    @staticmethod
    def assert_matches_dense(spec, tied_sectors):
        h0, v = dense_hamiltonian(spec)
        energy, state, degenerate, gap = dense_ground_state(h0 + v, h0 + (1.0 - OFFSET) * v)
        assert degenerate
        # the sectors that the dense ground subspace spans
        w, q = np.linalg.eigh(h0 + v)
        tied = q[:, w <= w[0] + DEGENERACY_RTOL * (w[-1] - w[0])]
        downs = np.array([bin(s).count("1") for s in range(state.size)])
        assert sorted(set(downs[np.abs(tied).max(axis=1) > 1e-9])) == tied_sectors
        dense = ground_state(h0 + v, h0 + (1.0 - OFFSET) * v)  # the plain sectors of the dense matrix
        prop = SectorPropagator(*assemble_hamiltonian(spec))
        spectrum = prop.spectra([1.0])[0]  # the parity blocks
        blocks = resolve_ground(spectrum, lambda: prop.spectra([1.0 - OFFSET])[0])
        for found, tie, lowest, found_gap in (
            (dense.state, dense.degenerate, dense.energy, dense.gap),
            (blocks, spectrum.degenerate(), spectrum.energies[0], spectrum.gap),
        ):
            assert tie
            assert abs(lowest - energy) <= GATE
            assert abs(found_gap - gap) <= GAP_GATE
            assert abs(abs(found.conj() @ state) - 1.0) <= GATE

    def test_tie_across_sectors_matches_dense(self):
        self.assert_matches_dense(ChainSpec(7, "ring", 1.0, cross_sector_field()), [4, 5])

    def test_tie_across_parities_matches_dense(self, ring7):
        # at field 2.0 the tie lies inside the k = 4 sector, between its
        # even and odd blocks
        self.assert_matches_dense(ring7.chain, [4])

    def test_orthogonal_reference_is_an_error(self):
        # ring7 at field 2.0 and g = 1 has a twofold tie in the k = 4 sector;
        # the all-up state lies in k = 0 and cannot pick a state in it
        prop = SectorPropagator(*assemble_hamiltonian(ChainSpec(7, "ring", 1.0, 2.0)))
        spectrum = prop.spectra([1.0])[0]
        assert spectrum.degenerate()
        e_0 = np.zeros(prop.dim)
        e_0[0] = 1.0
        with pytest.raises(DegeneracyError, match="orthogonal"):
            spectrum.ground(e_0)

    def test_recorder_flags_an_orthogonal_reference(self, ring7):
        # the first sample's reference is the state itself; orthogonal to the
        # tied ground subspace, it falls back to the lowest state and is flagged
        e_0 = np.zeros(ring7.propagator.dim, dtype=complex)
        e_0[0] = 1.0
        _, record = replace(ring7, psi0=e_0).run(polynomial_cut(0.6), 20, stride=10)
        assert record.degenerate_flags[0]
        assert record.f_g[0] == 0.0
