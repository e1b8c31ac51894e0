import numpy as np
import pytest

from spinsplice.chain import (
    ChainSpec,
    DegeneracyError,
    _sector_hamiltonian,
    assemble_hamiltonian,
    cut_components,
    ground_state,
    reflection,
)

from oracles import (
    SX,
    SZ,
    commutator_frobenius_norm,
    decompose,
    dense_detached_block,
    dense_hamiltonian,
    kron_exchange,
    kron_hamiltonian,
    pauli_site_operator,
)


def embedded(spec):
    """The package's blocks of (h0, v) mapped back to full-space matrices:
    the sum of P h P^T over the blocks, P holding a block's basis vectors."""
    blocks, *parts = assemble_hamiltonian(spec)
    out = []
    for part in parts:
        m = np.zeros((2**spec.n_spins, 2**spec.n_spins), dtype=np.result_type(*part))
        for b, block in zip(blocks, part):
            p = np.zeros((m.shape[0], b.size))
            b.embed(np.eye(b.size), p)
            m += p @ block @ p.T
        out.append(m)
    return tuple(out)


class TestPauliSiteOperator:
    def test_single_spin_z(self):
        assert np.allclose(pauli_site_operator(1, "z", 1), np.diag([1.0, -1.0]))

    def test_tensor_placement(self):
        # basis order |uu>, |ud>, |du>, |dd>
        assert np.allclose(pauli_site_operator(2, "z", 2), np.diag([1.0, -1.0, 1.0, -1.0]))
        assert np.allclose(pauli_site_operator(1, "z", 2), np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_involutory_and_hermitian(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            site = int(rng.integers(1, n + 1))
            axis = rng.choice(["x", "y", "z"])
            op = pauli_site_operator(site, axis, n)
            assert np.abs(op - op.conj().T).max() < 1e-12
            assert np.abs(op @ op - np.eye(2**n)).max() < 1e-12

    def test_site_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            pauli_site_operator(3, "z", 2)
        with pytest.raises(ValueError, match="axis"):
            pauli_site_operator(1, "w", 2)


class TestAssembleHamiltonian:
    def test_two_spin_cut_everything(self):
        # whole interaction in v: singlet/triplet split
        spec = ChainSpec(2, "open", 1.0, 0.0)
        h0, v = embedded(spec)
        assert np.abs(h0).max() == 0.0
        assert np.allclose(np.linalg.eigvalsh(v), [-3.0, 1.0, 1.0, 1.0])

    def test_two_spin_with_field(self):
        spec = ChainSpec(2, "open", 1.0, 1.0)
        h0, v = embedded(spec)
        assert np.allclose(np.linalg.eigvalsh(h0 + v), [-3.0, -1.0, 1.0, 3.0])

    def test_ring_term_presence(self):
        ring = ChainSpec(3, "ring", 1.0, 0.0, frozenset({(1, 2)}))
        open_ = ChainSpec(3, "open", 1.0, 0.0, frozenset({(1, 2)}))
        h_ring = sum(embedded(ring))
        h_open = sum(embedded(open_))
        wrap_bond = kron_exchange(1, 3, 3).real
        diff = h_ring - h_open
        assert np.abs(diff - wrap_bond).max() < 1e-12
        # the ring's parity blocks map back through 1/sqrt 2 weights: equal to round-off
        assert abs(np.abs(diff).max() - np.abs(wrap_bond).max()) <= 1e-15

    @pytest.mark.parametrize("n,topology", [(2, "open"), (3, "open"), (3, "ring"), (4, "open"), (4, "ring")])
    def test_matches_kron_oracle(self, n, topology):
        spec = ChainSpec(n, topology, 1.0, 2.0)
        h0, v = embedded(spec)
        ref_h0, ref_v = kron_hamiltonian(n, topology, 1.0, 2.0, spec.cut_bonds)
        assert np.abs(h0 - ref_h0).max() < 1e-12
        assert np.abs(v - ref_v).max() < 1e-12
        assert np.abs(ref_h0.imag).max() < 1e-14
        assert np.abs(ref_v.imag).max() < 1e-14

    def test_two_spin_block_cut_matches_oracle(self):
        spec = ChainSpec(5, "open", 1.0, 2.1, frozenset({(2, 3)}))
        h0, v = embedded(spec)
        ref_h0, ref_v = kron_hamiltonian(5, "open", 1.0, 2.1, [(2, 3)])
        assert np.abs(h0 - ref_h0).max() < 1e-12
        assert np.abs(v - ref_v).max() < 1e-12

    def test_real_symmetric(self):
        spec = ChainSpec(5, "ring", 1.0, 2.0)
        _, *parts = assemble_hamiltonian(spec)
        for part in parts:
            for m in part:
                assert m.dtype == np.float64
                assert np.abs(m - m.T).max() == 0.0

    def test_magnetization_conserved(self):
        spec = ChainSpec(4, "ring", 1.0, 2.0)
        h0, v = embedded(spec)
        mz = sum(pauli_site_operator(s, "z", 4) for s in range(1, 5)).real
        assert commutator_frobenius_norm(mz, h0) < 1e-10
        assert commutator_frobenius_norm(mz, v) < 1e-10
        assert commutator_frobenius_norm(mz, h0 + v) < 1e-10


    @pytest.mark.parametrize("n,topology", [(n, "open") for n in range(2, 11)] + [(n, "ring") for n in range(3, 11)])
    def test_blocks_equal_dense_assembly_bitwise(self, n, topology):
        # the plain sector assembly equals the dense one bitwise; a chain
        # with no reflection keeps exactly those blocks, and the parity
        # blocks of one with a reflection map back to the dense operators
        downs = np.array([bin(s).count("1") for s in range(2**n)])
        for field in (0.0, 2.0, 2.1, -0.7):
            for cut in (None, frozenset({(n // 2, n // 2 + 1)})):
                spec = ChainSpec(n, topology, 1.0, field, cut)
                ref_h0, ref_v = dense_hamiltonian(spec)
                sectors = _sector_hamiltonian(n, spec.bonds(), spec.cut_bonds, 1.0, field)
                assert [b.states.tolist() for b in sectors[0]] == [np.flatnonzero(downs == k).tolist() for k in range(n + 1)]
                for b, h0_k, v_k in zip(*sectors):
                    assert h0_k.dtype == v_k.dtype == np.float64
                    assert h0_k.tobytes() == ref_h0[np.ix_(b.states, b.states)].tobytes()
                    assert v_k.tobytes() == ref_v[np.ix_(b.states, b.states)].tobytes()
                blocks, h0, v = assemble_hamiltonian(spec)
                if reflection(spec) is None:
                    assert [b.states.tolist() for b in blocks] == [b.states.tolist() for b in sectors[0]]
                    assert all(a.tobytes() == b.tobytes() for a, b in zip(h0 + v, sectors[1] + sectors[2]))
                else:
                    assert sorted(b.sign for b in blocks) != [1.0] * len(blocks)
                    h0_full, v_full = embedded(spec)
                    assert np.abs(h0_full - ref_h0).max() <= 1e-13
                    assert np.abs(v_full - ref_v).max() <= 1e-13

    @pytest.mark.parametrize("spec,images", [
        (ChainSpec(6, "ring", 1.0, 2.0), (1, 6, 5, 4, 3, 2)),  # through site 1
        (ChainSpec(6, "ring", 1.0, 2.0, frozenset({(1, 6), (2, 3)})), (2, 1, 6, 5, 4, 3)),  # the two-spin cut
        (ChainSpec(5, "ring", 1.0, 2.0, frozenset({(2, 3)})), (4, 3, 2, 1, 5)),  # through the bond's middle
        (ChainSpec(6, "open", 1.0, 2.0, frozenset({(3, 4)})), (6, 5, 4, 3, 2, 1)),
        (ChainSpec(6, "open", 1.0, 2.0), None),
        (ChainSpec(5, "open", 1.0, 2.0, frozenset({(2, 3)})), None),
    ])
    def test_reflection_keeps_the_cut(self, spec, images):
        assert reflection(spec) == images


class TestCommutatorNorm:
    def test_disjoint_sites_commute(self):
        a = pauli_site_operator(1, "z", 2)
        b = pauli_site_operator(2, "z", 2)
        assert commutator_frobenius_norm(a, b) == 0.0

    def test_single_site_pauli_algebra(self):
        # [sz, sx] = 2i sy, whose Frobenius norm is 2*sqrt(2)
        assert commutator_frobenius_norm(SZ, SX) == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_split_does_not_commute(self):
        spec = ChainSpec(6, "ring", 1.0, 2.0)
        h0, v = dense_hamiltonian(spec)
        assert commutator_frobenius_norm(h0, v) > 1.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="equal shape"):
            commutator_frobenius_norm(np.eye(2), np.eye(4))


class TestSpectralDecomposition:
    def test_invariants_on_random_hermitian(self):
        rng = np.random.default_rng(11)
        for dim, complex_ in [(16, False), (16, True), (48, False)]:
            m = rng.normal(size=(dim, dim))
            if complex_:
                m = m + 1j * rng.normal(size=(dim, dim))
            h = m + m.conj().T
            dec = decompose(h)
            w, q = dec.eigenvalues, dec.eigenvectors
            assert np.all(np.diff(w) >= 0)
            assert np.abs(q.conj().T @ q - np.eye(dim)).max() < 1e-12
            resid = np.abs(h - (q * w) @ q.conj().T).max()
            assert resid < 1e-10 * np.abs(h).max()


class TestGroundState:
    def test_zeeman_single_spin(self):
        sel = ground_state(2.0 * SZ.real)
        assert sel.energy == pytest.approx(-2.0)
        assert abs(sel.state[1]) == pytest.approx(1.0)
        assert not sel.degenerate

    def test_singlet_ground(self):
        spec = ChainSpec(2, "open", 1.0, 1.0)
        h = sum(dense_hamiltonian(spec))
        sel = ground_state(h)
        singlet = np.zeros(4)
        singlet[1], singlet[2] = 1.0, -1.0
        singlet /= np.sqrt(2.0)
        assert sel.energy == pytest.approx(-3.0)
        assert abs(singlet @ sel.state) == pytest.approx(1.0, abs=1e-10)

    def test_residual_bound(self):
        spec = ChainSpec(5, "open", 1.0, 2.0)
        h = sum(dense_hamiltonian(spec))
        sel = ground_state(h)
        resid = np.linalg.norm(h @ sel.state - sel.energy * sel.state)
        assert resid < 1e-9 * max(1.0, abs(sel.energy))

    def test_degenerate_selection_follows_perturbation(self):
        # at field 2 the singlet and the all-down state tie at energy -3;
        # weakening the bond favours all-down, so the rule must pick it
        spec = ChainSpec(2, "open", 1.0, 2.0)
        h0, v = dense_hamiltonian(spec)
        offset = 1e-6
        sel = ground_state(h0 + v, h0 + (1.0 - offset) * v)
        assert sel.degenerate
        assert sel.energy == pytest.approx(-3.0)
        assert abs(sel.state[3]) == pytest.approx(1.0, abs=1e-9)
        # oracle: the perturbed Hamiltonian's unique ground state is all-down
        wp, qp = np.linalg.eigh(h0 + (1.0 - offset) * v)
        assert abs(qp[:, 0][3]) == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_without_reference_raises(self):
        spec = ChainSpec(2, "open", 1.0, 2.0)
        h0, v = dense_hamiltonian(spec)
        with pytest.raises(DegeneracyError, match="no continuity reference"):
            ground_state(h0 + v)

    def test_unresolvable_when_reference_degenerate(self):
        # zero field leaves a Kramers doublet at every coupling strength
        spec = ChainSpec(3, "open", 1.0, 0.0)
        h0, v = dense_hamiltonian(spec)
        with pytest.raises(DegeneracyError, match="unresolvable"):
            ground_state(h0 + v, h0 + (1.0 - 1e-6) * v)

    def test_ferromagnet_ground_is_all_down_product(self):
        spec = ChainSpec(5, "open", -1.0, 2.0)
        h = sum(dense_hamiltonian(spec))
        sel = ground_state(h)
        assert abs(sel.state[-1]) > 1.0 - 1e-10


class TestChainSpecValidation:
    def test_rejects_small_chain(self):
        with pytest.raises(ValueError, match="n_spins"):
            ChainSpec(1, "open")

    @pytest.mark.parametrize("n_spins", [6.0, 6.5])
    def test_rejects_non_integral_size(self, n_spins):
        with pytest.raises(ValueError, match="n_spins"):
            ChainSpec(n_spins, "ring", 1.0, 2.0)

    def test_accepts_numpy_integer_size(self):
        assert ChainSpec(np.int64(6), "ring", 1.0, 2.0).cut_bonds == frozenset({(1, 2), (1, 6)})

    def test_rejects_two_spin_ring(self):
        with pytest.raises(ValueError, match="ring"):
            ChainSpec(2, "ring")

    def test_rejects_bad_topology(self):
        with pytest.raises(ValueError, match="topology"):
            ChainSpec(4, "mesh")

    def test_rejects_non_adjacent_cut(self):
        with pytest.raises(ValueError, match="nearest-neighbour"):
            ChainSpec(4, "open", cut_bonds=frozenset({(1, 3)}))

    def test_rejects_empty_cut(self):
        with pytest.raises(ValueError, match="empty"):
            ChainSpec(4, "open", cut_bonds=frozenset())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["exchange", "field"])
    def test_rejects_non_finite_coupling(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            ChainSpec(4, "ring", **{name: value})

    def test_rejects_above_cap(self):
        with pytest.raises(ValueError, match="cap"):
            ChainSpec(13, "open")

    def test_default_cut_bonds(self):
        assert ChainSpec(6, "open").cut_bonds == frozenset({(1, 2)})
        assert ChainSpec(6, "ring").cut_bonds == frozenset({(1, 2), (1, 6)})


class TestCutComponents:
    def test_single_spin_cut(self):
        a, b = cut_components(ChainSpec(6, "ring", 1.0, 2.0))
        assert a == (1,)
        assert b == (2, 3, 4, 5, 6)

    def test_two_spin_block(self):
        a, b = cut_components(ChainSpec(5, "open", 1.0, 2.1, frozenset({(2, 3)})))
        assert a == (1, 2)
        assert b == (3, 4, 5)

    def test_non_disconnecting_cut_rejected(self):
        # removing one ring bond leaves the chain connected
        with pytest.raises(ValueError, match="disconnect"):
            cut_components(ChainSpec(4, "ring", 1.0, 2.0, frozenset({(1, 2)})))

    def test_detached_block_spectrum(self):
        spec = ChainSpec(5, "open", 1.0, 2.1, frozenset({(2, 3)}))
        block = dense_detached_block(spec, (1, 2))
        assert block.shape == (4, 4)
        assert np.allclose(np.linalg.eigvalsh(block), [-3.2, -3.0, 1.0, 5.2])
