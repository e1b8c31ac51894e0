"""Spin-chain operators, Hamiltonian assembly, and ground-state selection.

Basis convention used everywhere in this package: the computational sigma-z
product basis with site 1 as the most significant bit and spin-up mapped to
bit 0.  Basis index ``s`` therefore encodes site ``i`` (1-based) in bit
``n_spins - i``, and ``|up...up>`` is index 0.

All Heisenberg + Zeeman Hamiltonians are real symmetric in this basis.  They
conserve total S^z, so they are block diagonal over the sectors of basis
states with equal numbers of down spins.  They are assembled directly as
float64 sector blocks, never as 2**N x 2**N matrices, and ground states are
found block by block.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

DEFAULT_SPIN_CAP = 12
DEGENERACY_RTOL = 1e-9
DEFAULT_SELECTION_OFFSET = 1e-6


class DegeneracyError(RuntimeError):
    """Raised when a degenerate ground state cannot be resolved uniquely."""


Bond = tuple[int, int]
Blocks = tuple[np.ndarray, ...]


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

    def __post_init__(self) -> None:
        if self.topology not in ("open", "ring"):
            raise ValueError(f"topology must be 'open' or 'ring', got {self.topology!r}")
        if self.n_spins < 2:
            raise ValueError(f"n_spins must be >= 2, got {self.n_spins}")
        if self.n_spins > DEFAULT_SPIN_CAP:
            raise ValueError(
                f"n_spins={self.n_spins} exceeds the cap of {DEFAULT_SPIN_CAP} "
                f"(the sector blocks of each operator hold C(2N, N) entries)"
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

    def bonds(self) -> list[Bond]:
        """All nearest-neighbour bonds of the declared topology."""
        out = [(i, i + 1) for i in range(1, self.n_spins)]
        if self.topology == "ring":
            out.append((1, self.n_spins))
        return out


def _sectors(n_spins: int) -> tuple[np.ndarray, np.ndarray, Blocks]:
    """Total-S^z sectors of ``n_spins`` spins.

    Returns each basis state's down count (the set bits of its index), its
    position inside its sector, and the basis indices of every sector
    k = 0..n_spins, ascending.
    """
    downs = np.zeros(1, dtype=np.int64)
    for _ in range(n_spins):
        downs = np.concatenate([downs, downs + 1])
    order = np.argsort(downs, kind="stable")
    sizes = np.bincount(downs)
    pos = np.empty_like(downs)
    pos[order] = np.arange(downs.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    return downs, pos, tuple(np.split(order, np.cumsum(sizes)[:-1]))


def _sector_hamiltonian(
    n_spins: int, bonds: Iterable[Bond], cut: frozenset[Bond], exchange: float, field: float,
) -> tuple[Blocks, Blocks, Blocks]:
    """Sector blocks of the split Heisenberg + Zeeman Hamiltonian.

    Returns ``(blocks, h0, v)``: the basis indices of each total-S^z sector
    and the float64 blocks of the static and controlled parts on it.  Each
    operator is one flat buffer, and its blocks are square views of it.
    """
    downs, pos, blocks = _sectors(n_spins)
    sizes = np.bincount(downs)
    ends = np.cumsum(sizes * sizes)
    row = (ends - sizes * sizes)[downs] + pos * sizes[downs]  # buffer index where each state's row begins
    diag = row + pos
    states = np.arange(1 << n_spins)
    h0, v = np.zeros(ends[-1]), np.zeros(ends[-1])
    for i, j in bonds:
        # sigma_i . sigma_j: z_i z_j on the diagonal plus a weight-2 pair flip
        # between antiparallel configurations
        target = v if (i, j) in cut else h0
        bi = (states >> (n_spins - i)) & 1
        bj = (states >> (n_spins - j)) & 1
        target[diag] += exchange * (1.0 - 2.0 * bi) * (1.0 - 2.0 * bj)
        flip = states[bi != bj]
        target[row[flip ^ ((1 << (n_spins - i)) | (1 << (n_spins - j)))] + pos[flip]] += 2.0 * exchange
    # the field goes in last, so each diagonal entry sums in the order of the
    # dense reference assembly; added first, it differs at round-off
    if field != 0.0:
        h0[diag] += field * (n_spins - 2 * downs)
    h0, v = (tuple(part.reshape(d, d) for part, d in zip(np.split(buf, ends[:-1]), sizes)) for buf in (h0, v))
    return blocks, h0, v


def assemble_hamiltonian(spec: ChainSpec) -> tuple[Blocks, Blocks, Blocks]:
    """Split Hamiltonian as ``(blocks, h0, v)`` over the total-S^z sectors.

    ``blocks[k]`` holds the basis indices with k down spins, ascending, and
    ``h0[k]``, ``v[k]`` are the real float64 blocks on them.  The static part
    h0 carries every exchange bond not in ``cut_bonds`` plus the full Zeeman
    term; the controlled part v is the sum of the cut-bond exchange terms.
    Their sum is the complete chain (or ring) Hamiltonian.
    """
    return _sector_hamiltonian(spec.n_spins, spec.bonds(), spec.cut_bonds, spec.exchange, spec.field)


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


class Spectrum:
    """Spectrum of a block-diagonal real symmetric (or Hermitian) matrix.

    ``energies`` is the merged spectrum in ascending order, from one
    ``eigvalsh`` per block.  ``states(k)`` embeds the eigenvectors of its k
    lowest entries in the full space; a block's eigenvectors come from one
    ``eigh``, made on the first ``states`` call that reads that block and
    kept.  ``vector_blocks`` counts those ``eigh`` calls.
    """

    def __init__(self, dim: int, blocks: tuple[np.ndarray, ...], matrices) -> None:
        self.dim = dim
        self.blocks = blocks
        self._matrices = list(matrices)
        self._vectors: dict[int, np.ndarray] = {}
        w = np.concatenate([np.linalg.eigvalsh(m) for m in self._matrices])
        self._order = np.argsort(w, kind="stable")
        self._offsets = np.cumsum([0] + [b.size for b in blocks])
        self.energies = w[self._order]

    @property
    def gap(self) -> float:
        """Distance between the two lowest energies of the whole spectrum."""
        return float(self.energies[1] - self.energies[0]) if self.energies.size > 1 else np.inf

    @property
    def vector_blocks(self) -> int:
        """Blocks diagonalized with eigenvectors so far."""
        return len(self._vectors)

    def threshold(self) -> float:
        """Energies closer than this to the lowest count as degenerate with it."""
        return DEGENERACY_RTOL * float(self.energies[-1] - self.energies[0])

    def degenerate(self) -> bool:
        return self.gap <= self.threshold()

    def states(self, k: int) -> np.ndarray:
        """Full-space eigenvector columns of the k lowest energies."""
        lowest = self._order[:k]
        owners = (np.searchsorted(self._offsets, lowest, side="right") - 1).tolist()
        for b in owners:
            if b not in self._vectors:
                self._vectors[b] = np.linalg.eigh(self._matrices[b])[1]
        out = np.zeros((self.dim, k), dtype=np.result_type(*(self._vectors[b] for b in owners)))
        for col, (i, b) in enumerate(zip(lowest, owners)):
            out[self.blocks[b], col] = self._vectors[b][:, i - self._offsets[b]]
        return out


@dataclass(frozen=True)
class GroundStateSelection:
    energy: float
    state: np.ndarray
    degenerate: bool
    gap: float


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


def select_ground(spectrum: Spectrum, reference: np.ndarray | None = None) -> GroundStateSelection:
    """Lowest state of ``spectrum``, picked by ``reference`` when degenerate.

    The ground subspace holds the eigenvectors of every block whose energies
    lie within ``DEGENERACY_RTOL`` times the full spectral range of the
    lowest; the state is the one in it closest to the reference state.
    """
    energy, gap = float(spectrum.energies[0]), spectrum.gap
    if not spectrum.degenerate():
        return GroundStateSelection(energy, spectrum.states(1)[:, 0], False, gap)
    if reference is None:
        raise DegeneracyError(
            "ground state is degenerate and no continuity reference was supplied"
        )
    k = int(np.searchsorted(spectrum.energies, energy + spectrum.threshold(), side="right"))
    return GroundStateSelection(energy, select_in_subspace(spectrum.states(k), reference), True, gap)


def resolve_ground(spectrum: Spectrum, nudged: Callable[[], Spectrum] | None) -> GroundStateSelection:
    """Lowest state of ``spectrum``, a degeneracy resolved by a perturbed spectrum.

    When ``spectrum`` is degenerate, ``nudged()`` (called only then) gives the
    spectrum of a slightly perturbed Hamiltonian, and the state is the one in
    the ground subspace closest to its unique ground state.  Without a nudged
    spectrum, or when it is degenerate too, the ambiguity is an error, never
    a silent arbitrary choice.
    """
    reference = None
    if nudged is not None and spectrum.degenerate():
        perturbed = nudged()
        if perturbed.degenerate():
            raise DegeneracyError(
                "unresolvable degeneracy: the perturbed reference Hamiltonian is degenerate too"
            )
        reference = perturbed.states(1)[:, 0]
    return select_ground(spectrum, reference)


def ground_state(h: np.ndarray, continuity_reference: np.ndarray | None = None) -> GroundStateSelection:
    """Lowest eigenpair of a dense 2**N matrix ``h`` with explicit handling of degeneracy.

    ``h`` is diagonalized block by block over the total-S^z sectors.  When it
    is degenerate, ``resolve_ground`` follows ``continuity_reference``, a
    slightly perturbed Hamiltonian supplied by the caller.  A nonzero entry
    between two sectors, however small, is an error.
    """
    downs, _, blocks = _sectors(h.shape[0].bit_length() - 1)
    operators = (h,) if continuity_reference is None else (h, continuity_reference)
    if any(np.any((downs[:, None] != downs) & (op != 0)) for op in operators):
        raise ValueError("ground_state needs a matrix that conserves total S^z")

    def spectrum(m: np.ndarray) -> Spectrum:
        return Spectrum(h.shape[0], blocks, [m.take(b, axis=0).take(b, axis=1) for b in blocks])

    nudged = None if continuity_reference is None else (lambda: spectrum(continuity_reference))
    return resolve_ground(spectrum(h), nudged)
