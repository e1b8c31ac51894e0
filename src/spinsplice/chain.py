"""Spin-chain operators, Hamiltonian assembly, and ground-state selection.

Basis convention used everywhere in this package: the computational sigma-z
product basis with site 1 as the most significant bit and spin-up mapped to
bit 0.  Basis index ``s`` therefore encodes site ``i`` (1-based) in bit
``n_spins - i``, and ``|up...up>`` is index 0.

All Heisenberg + Zeeman Hamiltonians are real symmetric in this basis and are
assembled as float64 arrays.  They conserve total S^z, so they are block
diagonal over the sets of basis states with equal numbers of down spins;
ground states are found block by block over that verified partition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

DEFAULT_SPIN_CAP = 12
DEGENERACY_RTOL = 1e-9
DEFAULT_SELECTION_OFFSET = 1e-6


class DegeneracyError(RuntimeError):
    """Raised when a degenerate ground state cannot be resolved uniquely."""


Bond = tuple[int, int]


def _normalize_bond(bond: Iterable[int]) -> Bond:
    i, j = bond
    i, j = int(i), int(j)
    if i == j:
        raise ValueError(f"bond ({i},{j}) joins a site to itself")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class ChainSpec:
    """Geometry and couplings of a Heisenberg chain with a set of cut bonds.

    ``cut_bonds`` holds the bonds whose exchange terms form the controlled
    interaction; everything else (remaining bonds plus the full Zeeman term)
    is the static part.  When omitted, the single-spin cut is assumed:
    bond (1,2) for an open chain, bonds (1,2) and (1,N) for a ring.
    """

    n_spins: int
    topology: str = "open"
    exchange: float = 1.0
    field: float = 0.0
    cut_bonds: frozenset[Bond] | None = None
    spin_cap: int = DEFAULT_SPIN_CAP

    def __post_init__(self) -> None:
        if self.topology not in ("open", "ring"):
            raise ValueError(f"topology must be 'open' or 'ring', got {self.topology!r}")
        if self.n_spins < 2:
            raise ValueError(f"n_spins must be >= 2, got {self.n_spins}")
        if self.n_spins > self.spin_cap:
            raise ValueError(
                f"n_spins={self.n_spins} exceeds the cap of {self.spin_cap} "
                f"(dense storage grows as 4**N)"
            )
        if self.topology == "ring" and self.n_spins < 3:
            raise ValueError("a ring needs at least 3 spins")
        if self.cut_bonds is None:
            cut = {(1, 2)}
            if self.topology == "ring":
                cut.add((1, self.n_spins))
            object.__setattr__(self, "cut_bonds", frozenset(cut))
        else:
            cut = frozenset(_normalize_bond(b) for b in self.cut_bonds)
            if not cut:
                raise ValueError("cut_bonds must not be empty")
            allowed = set(self.bonds())
            for b in cut:
                if b not in allowed:
                    raise ValueError(
                        f"cut bond {b} is not a nearest-neighbour bond of this {self.topology} chain"
                    )
            object.__setattr__(self, "cut_bonds", cut)

    @property
    def dim(self) -> int:
        return 1 << self.n_spins

    def bonds(self) -> list[Bond]:
        """All nearest-neighbour bonds of the declared topology."""
        out = [(i, i + 1) for i in range(1, self.n_spins)]
        if self.topology == "ring":
            out.append((1, self.n_spins))
        return out


def _down_counts(dim: int) -> np.ndarray:
    """Number of down spins (set bits) of every basis index below ``dim``."""
    counts = np.zeros(1, dtype=np.int64)
    while counts.size < dim:
        counts = np.concatenate([counts, counts + 1])
    return counts[:dim]


def _add_exchange_bond(h: np.ndarray, i: int, j: int, coupling: float, n_spins: int) -> None:
    # sigma_i . sigma_j in the z product basis: z_i z_j on the diagonal plus a
    # weight-2 pair flip between antiparallel configurations.
    states = np.arange(1 << n_spins)
    bi = (states >> (n_spins - i)) & 1
    bj = (states >> (n_spins - j)) & 1
    h[states, states] += coupling * (1.0 - 2.0 * bi) * (1.0 - 2.0 * bj)
    flip = states[bi != bj]
    mask = (1 << (n_spins - i)) | (1 << (n_spins - j))
    h[flip ^ mask, flip] += 2.0 * coupling


def _add_field(h: np.ndarray, field: float, n_spins: int) -> None:
    if field != 0.0:
        h[np.diag_indices(1 << n_spins)] += field * (n_spins - 2 * _down_counts(1 << n_spins))


def assemble_hamiltonian(spec: ChainSpec) -> tuple[np.ndarray, np.ndarray]:
    """Split Hamiltonian (static part, controlled part) as real float64 arrays.

    The static part carries every exchange bond not in ``cut_bonds`` plus the
    full Zeeman term; the controlled part is the sum of the cut-bond exchange
    terms.  Their sum is the complete chain (or ring) Hamiltonian.
    """
    dim = spec.dim
    h0 = np.zeros((dim, dim), dtype=np.float64)
    v = np.zeros((dim, dim), dtype=np.float64)
    for bond in spec.bonds():
        target = v if bond in spec.cut_bonds else h0
        _add_exchange_bond(target, bond[0], bond[1], spec.exchange, spec.n_spins)
    _add_field(h0, spec.field, spec.n_spins)
    return h0, v


def detached_block_hamiltonian(spec: ChainSpec, sites: tuple[int, ...]) -> np.ndarray:
    """Hamiltonian of a detached block, on the block's own 2**len(sites) space.

    Keeps the exchange bonds internal to the block (excluding cut bonds) and
    the Zeeman term of the block sites.  Site ordering inside the block
    follows ascending site number, most significant first.
    """
    n = len(sites)
    order = {site: k + 1 for k, site in enumerate(sorted(sites))}
    h = np.zeros((1 << n, 1 << n), dtype=np.float64)
    for bond in spec.bonds():
        if bond in spec.cut_bonds:
            continue
        if bond[0] in order and bond[1] in order:
            _add_exchange_bond(h, order[bond[0]], order[bond[1]], spec.exchange, n)
    _add_field(h, spec.field, n)
    return h


def cut_components(spec: ChainSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Site sets (A, B) left after removing the cut bonds, A containing site 1.

    Raises if the cut bonds do not actually disconnect the chain.
    """
    adjacency: dict[int, set[int]] = {s: set() for s in range(1, spec.n_spins + 1)}
    for bond in spec.bonds():
        if bond in spec.cut_bonds:
            continue
        adjacency[bond[0]].add(bond[1])
        adjacency[bond[1]].add(bond[0])
    seen = {1}
    stack = [1]
    while stack:
        for nb in adjacency[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    rest = tuple(s for s in range(1, spec.n_spins + 1) if s not in seen)
    if not rest:
        raise ValueError("cut_bonds do not disconnect the chain; no detached block exists")
    return tuple(sorted(seen)), rest


def sector_partition(*operators: np.ndarray) -> tuple[np.ndarray, ...]:
    """Basis indices of the total-S^z blocks that every operator leaves invariant.

    Block k holds the basis states with k down spins: the indices with k set
    bits.  The partition is checked, not assumed: if any operator has a
    nonzero entry, however small, joining two blocks, the whole space is
    returned as the single block.
    """
    dim = operators[0].shape[0]
    downs = _down_counts(dim)
    between = downs[:, None] != downs
    if any(np.any(between & (op != 0)) for op in operators):
        return (np.arange(dim),)
    order = np.argsort(downs, kind="stable")
    ends = np.cumsum(np.bincount(downs)).tolist()
    return tuple(order[start:end] for start, end in zip([0, *ends[:-1]], ends))


def restrict(m: np.ndarray, block: np.ndarray) -> np.ndarray:
    """The rows and columns ``block`` of ``m``; ``m`` itself for the whole space."""
    return m if block.size == m.shape[0] else m.take(block, axis=0).take(block, axis=1)


class Spectrum:
    """Eigenpairs of a block-diagonal Hermitian matrix, one ``eigh`` per block.

    ``energies`` is the merged spectrum in ascending order; ``states(k)``
    embeds the eigenvectors of its k lowest entries in the full space.
    """

    def __init__(self, dim: int, blocks: tuple[np.ndarray, ...], matrices) -> None:
        self.dim = dim
        self.blocks = blocks
        pairs = [np.linalg.eigh(m) for m in matrices]
        self._vectors = [q for _, q in pairs]
        w = np.concatenate([w for w, _ in pairs])
        self._order = np.argsort(w, kind="stable")
        self._offsets = np.cumsum([0] + [b.size for b in blocks])
        self.energies = w[self._order]

    @classmethod
    def of(cls, h: np.ndarray, blocks: tuple[np.ndarray, ...]) -> "Spectrum":
        return cls(h.shape[0], blocks, [restrict(h, b) for b in blocks])

    @property
    def gap(self) -> float:
        """Distance between the two lowest energies of the whole spectrum."""
        return float(self.energies[1] - self.energies[0]) if self.energies.size > 1 else np.inf

    def threshold(self, degeneracy_rtol: float = DEGENERACY_RTOL) -> float:
        """Energies closer than this to the lowest count as degenerate with it."""
        return degeneracy_rtol * float(self.energies[-1] - self.energies[0])

    def degenerate(self, degeneracy_rtol: float = DEGENERACY_RTOL) -> bool:
        return self.gap <= self.threshold(degeneracy_rtol)

    def states(self, k: int) -> np.ndarray:
        """Full-space eigenvector columns of the k lowest energies."""
        out = np.zeros((self.dim, k), dtype=np.result_type(*self._vectors))
        for col, i in enumerate(self._order[:k]):
            b = int(np.searchsorted(self._offsets, i, side="right")) - 1
            out[self.blocks[b], col] = self._vectors[b][:, i - self._offsets[b]]
        return out


@dataclass(frozen=True)
class GroundStateSelection:
    energy: float
    state: np.ndarray
    degenerate: bool
    gap: float
    selection_offset: float = DEFAULT_SELECTION_OFFSET


def select_in_subspace(basis: np.ndarray, reference: np.ndarray) -> np.ndarray:
    """Unit vector of span(basis columns) with maximal overlap with reference.

    That maximizer is the normalized projection of the reference onto the
    subspace; a vanishing projection means the reference cannot discriminate.
    """
    coeff = basis.conj().T @ reference
    norm = np.linalg.norm(coeff)
    if norm < 1e-12:
        raise DegeneracyError(
            "continuity reference is orthogonal to the degenerate ground subspace"
        )
    return basis @ (coeff / norm)


def select_ground(
    spectrum: Spectrum,
    reference: np.ndarray | None = None,
    degeneracy_rtol: float = DEGENERACY_RTOL,
    selection_offset: float = DEFAULT_SELECTION_OFFSET,
) -> GroundStateSelection:
    """Lowest state of ``spectrum``, picked by ``reference`` when degenerate.

    The ground subspace holds the eigenvectors of every block whose energies
    lie within ``degeneracy_rtol`` times the full spectral range of the
    lowest; the state is the one in it closest to the reference state.
    """
    energy, gap = float(spectrum.energies[0]), spectrum.gap
    if not spectrum.degenerate(degeneracy_rtol):
        return GroundStateSelection(energy, spectrum.states(1)[:, 0], False, gap, selection_offset)
    if reference is None:
        raise DegeneracyError(
            "ground state is degenerate and no continuity reference was supplied"
        )
    k = int(np.searchsorted(spectrum.energies, energy + spectrum.threshold(degeneracy_rtol), side="right"))
    state = select_in_subspace(spectrum.states(k), reference)
    return GroundStateSelection(energy, state, True, gap, selection_offset)


def ground_state(
    h: np.ndarray,
    continuity_reference: np.ndarray | None = None,
    selection_offset: float = DEFAULT_SELECTION_OFFSET,
    degeneracy_rtol: float = DEGENERACY_RTOL,
) -> GroundStateSelection:
    """Lowest eigenpair of ``h`` with explicit handling of degeneracy.

    ``h`` is diagonalized block by block over the total-S^z sectors it shares
    with ``continuity_reference``.  When the two lowest eigenvalues coincide
    within ``degeneracy_rtol`` times the spectral range, the state is picked
    inside the ground subspace as the one with maximal overlap with the unique
    ground state of ``continuity_reference`` (a slightly perturbed Hamiltonian
    supplied by the caller).  Without a usable reference the ambiguity is an
    error, never a silent arbitrary choice.
    """
    operators = (h,) if continuity_reference is None else (h, continuity_reference)
    blocks = sector_partition(*operators)
    spectrum = Spectrum.of(h, blocks)
    reference = None
    if continuity_reference is not None and spectrum.degenerate(degeneracy_rtol):
        perturbed = Spectrum.of(continuity_reference, blocks)
        if perturbed.degenerate(degeneracy_rtol):
            raise DegeneracyError(
                "unresolvable degeneracy: the perturbed reference Hamiltonian is degenerate too"
            )
        reference = perturbed.states(1)[:, 0]
    return select_ground(spectrum, reference, degeneracy_rtol, selection_offset)
