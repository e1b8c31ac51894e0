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

import spinsplice.chain as chain
from spinsplice.chain import (
    DEGENERACY_RTOL,
    ChainSpec,
    assemble_hamiltonian,
    DegeneracyError,
    diagonalize,
    ground_state,
    ground_states,
    levels,
    tie_ground,
)
from spinsplice.control import (
    apply_noise,
    linear_baseline,
    polynomial_cut,
    polynomial_stitch,
    pulse_train,
)
from spinsplice.dynamics import SectorPropagator, cut_fidelity, integration_grid, propagate, reduce_density
import spinsplice.process as process_module
from spinsplice.process import TrajectoryRecord, prepare_process

from oracles import (
    dense_detached_block,
    dense_ground_state,
    dense_hamiltonian,
    dense_propagate,
    eager_spectrum,
    recorded_observables,
    reference_levels,
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
        found = prop.spectra([1.0])
        calls = list(eigh_calls)
        energies = [np.linalg.eigvalsh(h + v) for h, v in zip(prop.h0, prop.v)]
        w = merged(dict(enumerate(energies)))
        tied = [k for k, e in enumerate(energies) if e[0] <= w[0] + threshold(w)]
        expected = [(4, 1.0), (4, -1.0), (5, 1.0), (5, -1.0)] if crossing else [(4, 1.0), (4, -1.0)]
        assert [(sector_of(prop.blocks[k]), prop.blocks[k].sign) for k in tied] == expected
        # the spectra come with the eigenvectors of exactly the tied blocks
        assert found.degenerate[0] and found.states[0] is None and found.lowest[0] == w[0]
        assert found.vector_blocks[0] == len(calls) == len(tied)
        assert found.ties[0].shape == (prop.dim, tie_count(w))
        matched = [k for m in calls for k in tied
                   if m.shape == prop.h0[k].shape and np.array_equal(m, prop.h0[k] + 1.0 * prop.v[k])]
        assert sorted(matched) == tied
        # and resolving the tie diagonalizes nothing more
        del eigh_calls[:]
        tie_ground(found.ties[0], True, np.random.default_rng(7).normal(size=prop.dim))
        assert not eigh_calls

    def test_energies_match_eager_spectrum(self, eigh_calls):
        prop = SectorPropagator(*assemble_hamiltonian(RING8))
        reference = sector_reference(RING8)
        for g in (-2.5, 0.0, 0.37, 1.0):
            del eigh_calls[:]
            found = prop.spectra([g])
            calls = len(eigh_calls)
            del eigh_calls[:]
            (state,) = found.states
            if state is None:
                state = tie_ground(found.ties[0], found.degenerate[0], np.ones(prop.dim))
            # reading the state, or resolving a tie, diagonalizes nothing more
            assert not eigh_calls
            eager, _ = eager_spectrum(reference, g)
            # g = 0 and g = 1 keep every block's energies from the bounds;
            # any other g holds only some blocks', but the two lowest, the
            # tie and the top are those of the whole spectrum
            assert (found.value_blocks[0] == len(prop.blocks)) == (g in (0.0, 1.0))
            limit = eager[0] + DEGENERACY_RTOL * (eager[-1] - eager[0])
            tied = int(np.searchsorted(eager, limit, side="right"))
            # eigenvectors of exactly the blocks that hold the tie (the
            # lowest energy's block alone when there is none)
            tie_blocks = [k for k, (h, u) in enumerate(zip(prop.h0, prop.v)) if np.linalg.eigvalsh(h + g * u)[0] <= limit]
            assert found.vector_blocks[0] == calls == len(tie_blocks)
            assert (found.states[0] is not None) == (tied == 1)
            w = merged(levels(prop.blocks, *prop._asks([g]))[0])
            low = max(2, tied)
            assert np.abs(w[:low] - eager[:low]).max() <= GATE
            assert abs(w[-1] - eager[-1]) <= GATE
            assert found.lowest[0] == w[0] and found.gap[0] == w[1] - w[0]
            assert found.degenerate[0] == (tied > 1)
            assert abs(np.linalg.norm(state) - 1.0) <= GATE

    def test_equal_dimensions_share_one_eigvalsh(self, monkeypatch):
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        prop = SectorPropagator(*assemble_hamiltonian(RING6))
        prop.spectra([0.0])
        # the bounds: every block at g = 0 and at g = 1, stacked together.
        # Spin flip commutes with the reflection: sectors k and 6 - k split
        # alike, so 12 blocks need no more calls than the 7 sectors did
        assert len(prop.blocks) == 12
        dims = len({b.size for b in prop.blocks})
        assert len(calls) == dims == 7
        assert sum(shape[0] for shape in calls) == 2 * len(prop.blocks)
        # they hold the whole spectra at g = 0 and g = 1: no further call
        del calls[:]
        assert prop.spectra([0.0]).value_blocks[0] == prop.spectra([1.0]).value_blocks[0] == len(prop.blocks)
        assert not calls
        # any other spectrum diagonalizes only the blocks its bounds admit,
        # one call each: no two of them share a bound
        value_blocks = prop.spectra([0.5]).value_blocks[0]
        assert len(calls) == value_blocks < len(prop.blocks)
        assert all(shape[0] == 1 for shape in calls)
        # outside [0, 1], v's ranges join the bounds, found once, stacked
        for g in (1.5, -0.5):
            del calls[:]
            value_blocks = prop.spectra([g]).value_blocks[0]
            assert len(calls) == (dims if g == 1.5 else 0) + value_blocks
            assert value_blocks < len(prop.blocks)

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
        "ring10": ChainSpec(10, "ring", 1.0, 2.0), "ring12": ChainSpec(12, "ring", 1.0, 2.0),
        "ring8_low_field": ChainSpec(8, "ring", 1.0, 0.3), "open6": ChainSpec(6, "open", 1.0, 2.0),
        "open7": ChainSpec(7, "open", 1.0, 2.0), "open8": ChainSpec(8, "open", 1.0, 0.3),
        "ring7_crossing": ChainSpec(7, "ring", 1.0, cross_sector_field()),
    }[name]
    return SectorPropagator(*assemble_hamiltonian(spec))


def merged(energies):
    """The ascending energies of a ``levels`` dict, every block's together."""
    return np.sort(np.concatenate(list(energies.values())))


def threshold(w):
    return DEGENERACY_RTOL * float(w[-1] - w[0])


def tie_count(w):
    """How many of the ascending energies w lie within the threshold of the lowest."""
    return int(np.searchsorted(w, w[0] + threshold(w), side="right"))


def assert_same_spectra(found, expected, k=0, j=0):
    """Entry k of one ``Spectra`` bitwise entry j of another."""
    for name in ("gap", "degenerate", "lowest", "value_blocks", "vector_blocks"):
        assert getattr(found, name)[k].tobytes() == getattr(expected, name)[j].tobytes(), name
    for name in ("states", "ties"):
        got, want = getattr(found, name)[k], getattr(expected, name)[j]
        assert (got is None) == (want is None) and (got is None or got.tobytes() == want.tobytes()), name


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
    matrices = [lambda b: prop.h0[b] + g * prop.v[b]]
    pruned, full = prop.spectra([g]), diagonalize(prop.blocks, matrices)
    assert full.value_blocks[0] == len(prop.blocks)
    w_pruned, w_full = (merged(levels(prop.blocks, *ask)[0]) for ask in (prop._asks([g]), (matrices,)))
    assert w_pruned[0] == w_full[0] and w_pruned[1] == w_full[1] and w_pruned[-1] == w_full[-1]
    assert threshold(w_pruned) == threshold(w_full) and tie_count(w_pruned) == tie_count(w_full)
    assert_same_spectra(pruned._replace(value_blocks=full.value_blocks), full)
    # the same ground state of a tie: its state closest to a reference
    if pruned.states[0] is None:
        reference = np.random.default_rng(0).normal(size=prop.dim)
        states = [tie_ground(found.ties[0], found.degenerate[0], reference) for found in (pruned, full)]
        assert np.array_equal(*states)


@pytest.mark.parametrize("names, g", [
    (("ring7", "ring7_crossing"), 1.0),  # ties across parities and across sectors, one set of blocks
    (("ring8",), 0.5),
    (("open6",), -1.5),
])
def test_diagonalize_together_is_bitwise_alone(names, g):
    """One ``chain.diagonalize`` call over bounded, known and unbounded
    matrices: every spectrum is bitwise the one diagonalized alone, its
    lone ground's state by ``eigh`` or by inverse iteration."""
    def matrix(prop, c):
        return lambda b: prop.h0[b] + c * prop.v[b]

    asks = []  # (matrix, bounds, known)
    for prop in map(pruned_propagator, names):
        lower, upper = prop._bounds(np.array([[g]]))
        asks += [(matrix(prop, g), (lower[0], upper[0]), None),
                 (matrix(prop, 0.0), None, prop._endpoints[0.0]),
                 (matrix(prop, 1.0), None, prop._endpoints[1.0]),
                 (matrix(prop, g), None, None)]
    blocks = prop.blocks
    energies = levels(blocks, *map(list, zip(*asks)))
    reference = np.random.default_rng(3).normal(size=prop.dim)
    for iterate in (False, True):
        together = diagonalize(blocks, *map(list, zip(*asks)), iterate)
        assert together.degenerate[::4].tolist() == [g == 1.0] * len(names)
        assert all(together.value_blocks[3::4] == len(blocks))
        for k, ask in enumerate(asks):
            alone = diagonalize(blocks, *([item] for item in ask), iterate)
            w = merged(levels(blocks, *([item] for item in ask))[0])
            assert np.array_equal(merged(energies[k]), w)
            assert together.vector_blocks[k] > 0
            assert_same_spectra(together, alone, k)
            # a tie holds exactly the vectors of its energies
            if together.states[k] is None:
                assert together.ties[k].shape[1] == tie_count(w)
                states = [tie_ground(found.ties[j], found.degenerate[j], reference)
                          for found, j in ((together, k), (alone, 0))]
                assert states[0].tobytes() == states[1].tobytes()


def assert_levels_match_the_reference(prop, gs):
    """``chain.levels`` over every coupling at once against the generator
    of ``oracles.sweeps``, run one spectrum at a time: the same blocks
    diagonalized (or known), each with bitwise the same energies, and the
    same gap, degenerate flag and value_blocks in ``spectra``."""
    asks = prop._asks(gs)
    found, expected = levels(prop.blocks, *asks), reference_levels(prop.blocks, *asks)
    spectra = prop.spectra(gs)
    for g, energies, want, gap, flag, count in zip(gs, found, expected, spectra.gap, spectra.degenerate,
                                                   spectra.value_blocks):
        assert sorted(energies) == sorted(want), g
        assert all(energies[b].tobytes() == want[b].tobytes() for b in want), g
        w = merged(want)
        want_gap = w[1] - w[0] if w.size > 1 else np.inf
        assert gap == want_gap and flag == (want_gap <= threshold(w)) and count == len(want), g


@pytest.mark.parametrize("name", ["ring6", "ring8", "ring8_low_field", "ring10", "ring12", "open6", "open7", "open8",
                                  "ring7_crossing"])
def test_levels_match_the_reference_sweeps(name):
    # couplings inside and outside [0, 1], and both endpoints, whose
    # energies are known: the array rounds of one call against each
    # spectrum's own generator
    gs = [1.0, -2.5, 0.37, 0.0, 1.3] if name == "ring12" else [1.0, -2.5, -0.4, 0.13, 0.5, 0.77, 0.0, 1.3, 3.2]
    assert_levels_match_the_reference(pruned_propagator(name), gs)


@settings(max_examples=60, deadline=None)
@given(name=st.sampled_from(("ring6", "ring7", "open6", "ring7_crossing")),
       gs=st.lists(st.sampled_from((0.0, 1.0)) | st.floats(-3.0, 3.0, allow_nan=False), min_size=1, max_size=6))
def test_levels_match_the_reference_sweeps_anywhere(name, gs):
    assert_levels_match_the_reference(pruned_propagator(name), gs)


def min_gap_coupling():
    """The coupling of the smallest-gap sample (gap 7.5e-5) of a 300-step
    ring12 ``polynomial_cut(0.6, (54.3, -36.3))`` trajectory at field 2.0."""
    schedule = polynomial_cut(0.6, TABLE1[1][1])
    return float(schedule.values(integration_grid(schedule, 300))[263])


LONE_CASES = {  # chain, field, direction
    "ring6": (ChainSpec(6, "ring", 1.0, 2.0), "cut"),
    "ring6_low_field_stitch": (ChainSpec(6, "ring", 1.0, 0.3), "stitch"),
    "ring8": (RING8, "cut"),
    "ring8_low_field": (ChainSpec(8, "ring", 1.0, 0.3), "cut"),
    "ring10": (ChainSpec(10, "ring", 1.0, 2.0), "cut"),
    "ring12": (ChainSpec(12, "ring", 1.0, 2.0), "cut"),
    "open6_low_field_stitch": (ChainSpec(6, "open", 1.0, 0.3), "stitch"),
    "open7": (ChainSpec(7, "open", 1.0, 2.0), "cut"),
    "open8_low_field": (ChainSpec(8, "open", 1.0, 0.3), "cut"),
}


@functools.cache
def lone_process(name):
    return prepare_process(*LONE_CASES[name])


class TestLoneGrounds:
    """A lone ground's vector by inverse iteration (``chain._lowest_vectors``)
    against the ``eigh`` vector: f_G within 1e-12, every other column and
    count bitwise."""

    @pytest.mark.parametrize("name", LONE_CASES)
    def test_f_g_within_the_tolerance_of_eigh(self, name, eigh_calls):
        process = lone_process(name)
        schedule = BATCH_SCHEDULES[process.direction]
        n_steps = 10 if name == "ring12" else 40
        del eigh_calls[:]
        psi, record = process.run(schedule, n_steps)
        assert not eigh_calls  # no tie and no fallback: every ground by inverse iteration
        expected_psi, expected = reference_record(process, schedule, n_steps, eigh_vectors=True)
        assert psi.tobytes() == expected_psi.tobytes()
        assert np.abs(record.f_g - expected.f_g).max() <= chain.GROUND_TOLERANCE
        assert_same_record(replace(record, f_g=expected.f_g), expected)

    def test_ring12_smallest_gap_sample(self):
        prop = lone_process("ring12").propagator
        g = min_gap_coupling()
        found, by_eigh = (prop.spectra([g], iterate) for iterate in (True, False))
        assert 7e-5 < found.gap[0] < 8e-5 and not found.degenerate[0]
        (x,), (q,) = found.states, by_eigh.states
        # every unit state's |<x|psi>| is within ||x -+ q|| of its |<q|psi>|
        assert min(np.linalg.norm(x - q), np.linalg.norm(x + q)) <= chain.GROUND_TOLERANCE

    @pytest.mark.parametrize("name", ["ring8", "open7"])
    def test_a_failed_certificate_takes_eigh(self, name, eigh_calls, monkeypatch):
        # no residual bound passes a zero tolerance: every vector from
        # eigh, bitwise the record of eigh vectors, f_G included
        process = lone_process(name)
        schedule = BATCH_SCHEDULES["cut"]
        expected = reference_record(process, schedule, 30, eigh_vectors=True)[1]
        monkeypatch.setattr(chain, "GROUND_TOLERANCE", 0.0)
        del eigh_calls[:]
        record = process.run(schedule, 30)[1]
        assert len(eigh_calls) == record.vector_blocks == len(record.times)
        assert_same_record(record, expected)

    def test_an_exactly_singular_shift_takes_eigh(self):
        # e0 - slack = 0 makes diag(0, 1, 2) itself the shifted matrix
        stack = np.array([np.diag([0.0, 1.0, 2.0]), np.diag([0.5, 1.0, 2.0])])
        e0, e1, slack = np.array([1e-13, 0.5]), np.array([1.0, 1.0]), np.array([1e-13, 1e-13])
        x, singular = chain._solve(stack - (e0 - slack)[:, None, None] * np.eye(3), np.ones((2, 3)))
        assert singular.tolist() == [True, False]
        vectors = chain._lowest_vectors(stack, e0, e1, slack)
        assert vectors[0].tobytes() == np.linalg.eigh(stack[:1])[1][0, :, 0].tobytes()
        assert abs(abs(vectors[1, 0]) - 1.0) <= 1e-15

    @pytest.mark.parametrize("name", ["ring8", "ring10", "open8_low_field"])
    def test_each_vector_is_bitwise_its_own_whatever_the_stack(self, name):
        prop = lone_process(name).propagator
        gs = np.linspace(0.05, 0.95, 7).tolist()

        def iterated(gs):
            return prop.spectra(gs, iterate=True).states

        for g, x in zip(gs, iterated(gs)):
            assert x.tobytes() == iterated([g])[0].tobytes()

    def test_mixed_step_counts_are_bitwise_alone(self):
        # gaps 1 and 0.01 over a slack of 1e-10 take two and three steps
        q = np.linalg.qr(np.random.default_rng(5).normal(size=(6, 6)))[0]
        stack = np.array([(q * w) @ q.T for w in ([0.0, 1.0, 2.0, 3.0, 4.0, 5.0], [0.0, 0.01, 2.0, 3.0, 4.0, 5.0])])
        energies = np.linalg.eigvalsh(stack)
        e0, e1, slack = energies[:, 0], energies[:, 1], np.full(2, 1e-10)
        assert np.ceil(np.log(chain.UNIT_ROUNDOFF / 6) / np.log(2 * slack / (e1 - e0))).tolist() == [2.0, 3.0]
        together = chain._lowest_vectors(stack, e0, e1, slack)
        for k in range(2):
            alone = chain._lowest_vectors(stack[k:k + 1], e0[k:k + 1], e1[k:k + 1], slack[k:k + 1])
            assert together[k].tobytes() == alone[0].tobytes()
            assert abs(abs(together[k] @ q[:, 0]) - 1.0) <= 1e-14

    @pytest.mark.parametrize("run", ["in_block_tie", "cross_sector_tie"])
    def test_ring7_ties_take_eigh(self, run, eigh_calls, monkeypatch):
        # every tied sample's tie blocks from eigh, every lone one's block
        # solved on its own
        field = 2.0 if run == "in_block_tie" else cross_sector_field()
        process = prepare_process(ChainSpec(7, "ring", 1.0, field), "cut")
        pulses = pulse_train(0.6, (1.0, 0.4, 1.0, 1.0, -0.5, 1.0))
        lowest_vectors, lone = chain._lowest_vectors, []

        def counted(stack, *args):
            lone.append(len(stack))
            return lowest_vectors(stack, *args)

        monkeypatch.setattr(chain, "_lowest_vectors", counted)
        del eigh_calls[:]
        record = process.run(pulses, 1)[1]
        tied = record.degenerate_flags
        assert tied.sum() >= 2 and sum(lone) == (~tied).sum()
        assert len(eigh_calls) == record.vector_blocks - sum(lone) >= 2 * tied.sum()


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
        spectra = prop.spectra([1.0])  # the parity blocks
        (blocks,) = ground_states(spectra, lambda rows: prop.spectra([1.0 - OFFSET]))
        for found, tie, lowest, found_gap in (
            (dense.state, dense.degenerate, dense.energy, dense.gap),
            (blocks, spectra.degenerate[0], spectra.lowest[0], spectra.gap[0]),
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
        spectra = prop.spectra([1.0])
        assert spectra.degenerate[0]
        e_0 = np.zeros(prop.dim)
        e_0[0] = 1.0
        with pytest.raises(DegeneracyError, match="orthogonal"):
            tie_ground(spectra.ties[0], True, e_0)

    def test_recorder_flags_an_orthogonal_reference(self, ring7):
        # the first sample's reference is the state itself; orthogonal to the
        # tied ground subspace, it falls back to the lowest state and is flagged
        e_0 = np.zeros(ring7.propagator.dim, dtype=complex)
        e_0[0] = 1.0
        _, record = replace(ring7, psi0=e_0).run(polynomial_cut(0.6), 20, stride=10)
        assert record.degenerate_flags[0]
        assert record.f_g[0] == 0.0
