"""Spin-chain operators, Hamiltonian assembly, and ground-state selection.

Basis convention used everywhere in this package: the computational sigma-z
product basis with site 1 as the most significant bit and spin-up mapped to
bit 0.  Basis index ``s`` therefore encodes site ``i`` (1-based) in bit
``n_spins - i``, and ``|up...up>`` is index 0.

All Heisenberg + Zeeman Hamiltonians are real symmetric in this basis.  They
conserve total S^z, so they are block diagonal over the sectors of basis
states with equal numbers of down spins.  A reflection of the chain that
maps the cut bonds to themselves commutes with both parts of the split
Hamiltonian, and splits every sector further into an even and an odd
``Block``: (e_a + e_Ra)/sqrt 2 and (e_a - e_Ra)/sqrt 2 for a pair of mirror
configurations, e_a (even only) for a configuration that is its own mirror.
The blocks are assembled directly as float64 matrices, never as 2**N x 2**N
matrices, and ground states are found block by block.  A chain with no such
reflection keeps the plain sectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

DEFAULT_SPIN_CAP = 12
DEGENERACY_RTOL = 1e-9


class DegeneracyError(RuntimeError):
    """Raised when a degenerate ground state cannot be resolved uniquely."""


Bond = tuple[int, int]
Matrices = tuple[np.ndarray, ...]
SQRT_HALF = float(np.sqrt(0.5))
# sigma(s) n_s / n_t for a row state s of a parity-p block and a column
# representative t, indexed [p, kind of s + 1, kind of t].  The kind is 1 on
# the representative of a pair, -1 on its partner and 0 on a fixed point; n
# is 1/sqrt 2 on a pair and 1 on a fixed point, and sigma is -1 on a
# partner's odd row.  A fixed point has no odd row, and odd columns are
# pairs.  The sqrt 2 and 1/sqrt 2 are an exact double and half of each
# other, so the blocks are symmetric to the last bit.
_WEIGHT = np.array([
    [[SQRT_HALF, 1.0], [1.0, 2.0 * SQRT_HALF], [SQRT_HALF, 1.0]],
    [[0.0, -1.0], [0.0, 0.0], [0.0, 1.0]],
])


class Block:
    """An orthonormal basis of one invariant block of a total-S^z sector.

    ``states`` holds the block's representatives a, ascending, ``partners``
    their reflected configurations Ra, and ``sign`` the parity.  A pair
    a != Ra contributes the vector (e_a + sign e_Ra) / sqrt 2, a fixed point
    a = Ra (even blocks only) the vector e_a.  Without a reflection every
    state is its own partner, and the block is the plain sector.
    """

    __slots__ = ("states", "partners", "sign", "_pairs", "_paired")

    def __init__(self, states: np.ndarray, partners: np.ndarray, sign: float) -> None:
        self.states = states
        self.partners = partners
        self.sign = sign
        self._pairs = None  # found on first use: set-up builds every block but embeds few

    @property
    def size(self) -> int:
        return self.states.size

    def _pair_data(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions of the block's pairs, and their partners."""
        if self._pairs is None:
            self._pairs = np.flatnonzero(self.states != self.partners)
            self._paired = self.partners[self._pairs]
        return self._pairs, self._paired

    def amplitudes(self, psi: np.ndarray) -> np.ndarray:
        """Coordinates in this block's basis of ``psi``, or of each of its columns."""
        amp = psi[self.states]
        pairs, paired = self._pair_data()
        if pairs.size:
            amp[pairs] = SQRT_HALF * (amp[pairs] + self.sign * psi[paired])
        return amp

    def embed(self, amps: np.ndarray, out: np.ndarray) -> None:
        """Add to ``out`` the vector, or the columns, with these coordinates."""
        pairs, paired = self._pair_data()
        if pairs.size:
            amps = np.array(amps)
            amps[pairs] *= SQRT_HALF
            out[paired] += self.sign * amps[pairs]
        out[self.states] += amps


Blocks = tuple[Block, ...]


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
                f"(the blocks of each operator hold about C(2N, N) / 2 entries)"
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


def reflection(spec: ChainSpec) -> tuple[int, ...] | None:
    """A reflection of the chain that maps the cut bonds to themselves.

    Returns the image of each site 1..N, or None when no reflection does.  A
    ring has N reflections, tried from the one through site 1
    (i -> N + 2 - i); an open chain has one (i -> N + 1 - i).  Every
    reflection maps bonds to bonds, and the field is uniform, so one that
    keeps the cut bonds commutes with both h0 and v.
    """
    n = spec.n_spins
    if spec.topology == "ring":
        candidates = (tuple((c - i) % n + 1 for i in range(n)) for c in range(n))
    else:
        candidates = (tuple(range(n, 0, -1)),)
    for images in candidates:
        if all(_normalize_bond((images[i - 1], images[j - 1])) in spec.cut_bonds for i, j in spec.cut_bonds):
            return images
    return None


def _basis(n_spins: int, images: tuple[int, ...] | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Down count of every basis state (the set bits of its index) and the
    basis state that the site map ``images`` sends it to (itself without
    one), both read off one table of every state's bits."""
    states = np.arange(1 << n_spins)
    bits = (states[:, None] >> np.arange(n_spins - 1, -1, -1)) & 1  # column i - 1 is site i
    image = states if images is None else bits @ (1 << (n_spins - np.asarray(images)))
    return bits.sum(axis=1), image


def _layout(downs: np.ndarray, image: np.ndarray):
    """The blocks of the reflection ``image`` on the sectors of ``downs``.

    A slot is one basis vector of one block: every representative
    a = min(s, Rs) once with even parity, and every paired one (a != Ra)
    again with odd parity.  Blocks are ordered by sector, even before odd,
    and list their representatives ascending; empty blocks are left out.
    Returns the blocks, every slot's parity, representative, block key
    2k + parity and position in its block, and the dimension of the block
    of every key.
    """
    states = np.arange(downs.size)
    rep = states <= image
    parity, slot = np.array([rep, rep & (states != image)]).nonzero()
    key = 2 * downs[slot] + parity
    order = key.argsort(kind="stable")
    sizes = np.bincount(key, minlength=2 * int(downs[-1]) + 2)
    ends = sizes.cumsum()
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size) - (ends - sizes).repeat(sizes)
    ordered = slot[order]
    partners = image[ordered]
    blocks = tuple(
        Block(ordered[hi - d:hi], partners[hi - d:hi], -1.0 if k % 2 else 1.0)
        for k, (d, hi) in enumerate(zip(sizes.tolist(), ends.tolist())) if d
    )
    return blocks, parity, slot, key, rank, sizes


def _sector_hamiltonian(
    n_spins: int, bonds: Iterable[Bond], cut: frozenset[Bond], exchange: float, field: float,
    images: tuple[int, ...] | None = None,
) -> tuple[Blocks, Matrices, Matrices]:
    """Blocks of the split Heisenberg + Zeeman Hamiltonian.

    Returns ``(blocks, h0, v)``: the blocks of every total-S^z sector, split
    in two by the reflection ``images`` (a site map that commutes with both
    parts, or None), and the float64 matrices of the static and controlled
    parts on them.  Both operators are one flat buffer, summed by one
    ``bincount`` over every bond at once, and their matrices are square
    views of it.  Column t of a block is a representative; its entry in row
    a sums sigma(s) n_s / n_t <s|H|t> over the states s of a's pair, where n
    is 1/sqrt 2 on a pair and 1 on a fixed point, and sigma(s) is -1 on a
    partner's odd row.
    """
    downs, image = _basis(n_spins, images)
    blocks, parity, slot, key, rank, sizes = _layout(downs, image)
    area = sizes * sizes
    starts = area.cumsum() - area
    total = int(starts[-1] + area[-1])
    row = np.zeros((2, downs.size), dtype=np.int64)  # where the row of each (parity, representative) begins
    row[parity, slot] = first = starts[key] + rank * sizes[key]
    diag = first + rank
    kind = np.sign(image - np.arange(downs.size))  # 1 on a representative, -1 on its partner, 0 if fixed

    bonds = list(bonds)
    shifts = n_spins - np.array(bonds, dtype=np.int64).reshape(-1, 2)
    offset = np.array([total if bond in cut else 0 for bond in bonds], dtype=np.int64)  # v after h0
    # sigma_i . sigma_j: z_i z_j on the diagonal plus a weight-2 pair flip
    # between antiparallel configurations; one row per bond
    differ = ((slot >> shifts[:, :1]) ^ (slot >> shifts[:, 1:])) & 1
    bond, flip = differ.nonzero()
    p, t = parity[flip], slot[flip]
    s = t ^ ((1 << shifts[:, 0]) | (1 << shifts[:, 1]))[bond]
    weight = _WEIGHT[p, kind[s] + 1, kind[t]]
    keep = weight != 0.0
    # bond by bond, so each entry sums in the order of the dense reference
    # assembly; the field goes in last, as there: added first, it differs
    # at round-off
    index = [(diag + offset[:, None]).ravel(), (row[p, np.minimum(s, image[s])] + rank[flip] + offset[bond])[keep]]
    value = [(exchange * (1.0 - 2.0 * differ)).ravel(), 2.0 * exchange * weight[keep]]
    if field != 0.0:
        index.append(diag)
        value.append(field * (n_spins - 2 * downs[slot]))
    buf = np.bincount(np.concatenate(index), np.concatenate(value), 2 * total)
    h0, v = (
        tuple(buf[lo:lo + d * d].reshape(d, d) for lo, d in zip((starts + shift).tolist(), sizes.tolist()) if d)
        for shift in (0, total)
    )
    return blocks, h0, v


def assemble_hamiltonian(spec: ChainSpec) -> tuple[Blocks, Matrices, Matrices]:
    """Split Hamiltonian as ``(blocks, h0, v)`` over its symmetry blocks.

    Every total-S^z sector splits into an even and an odd block of the
    ``reflection`` of the chain that maps the cut bonds to themselves; a
    chain with no such reflection keeps its plain sectors, ``blocks[k]``
    then holding the basis indices with k down spins.  ``h0[b]``, ``v[b]``
    are the real float64 matrices on block b.  The static part h0 carries
    every exchange bond not in ``cut_bonds`` plus the full Zeeman term; the
    controlled part v is the sum of the cut-bond exchange terms.  Their sum
    is the complete chain (or ring) Hamiltonian.
    """
    return _sector_hamiltonian(
        spec.n_spins, spec.bonds(), spec.cut_bonds, spec.exchange, spec.field, reflection(spec),
    )


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

    ``matrices[b]`` is the matrix on ``blocks[b]``.  Blocks of equal
    dimension are stacked, and ``energies`` is the merged spectrum in
    ascending order, from one ``eigvalsh`` per stack.  ``states(k)`` embeds
    the eigenvectors of its k lowest entries in the full space; a block's
    eigenvectors come from one ``eigh``, made on the first ``states`` call
    that reads that block and kept.  ``vector_blocks`` counts those ``eigh``
    calls.  ``ground`` applies the degeneracy rule.
    """

    def __init__(self, blocks: Blocks, matrices: Matrices) -> None:
        self.blocks = blocks
        members: dict[int, list[int]] = {}
        for b, m in enumerate(matrices):
            members.setdefault(len(m), []).append(b)
        # for each dimension, ascending: its blocks and their matrices as one stack
        self._groups = [(members[d], np.array([matrices[b] for b in members[d]])) for d in sorted(members)]
        self._vectors: dict[int, np.ndarray] = {}
        w = np.concatenate([np.linalg.eigvalsh(stack).ravel() for _, stack in self._groups])
        self._order = np.argsort(w, kind="stable")
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
        located = []  # (block, column) of each of the k lowest entries
        for i in self._order[:k].tolist():
            for members, stack in self._groups:  # i indexes the energies concatenated group by group
                j, column = divmod(i, stack.shape[1])
                if j < len(members):
                    break
                i -= stack.shape[0] * stack.shape[1]
            if members[j] not in self._vectors:
                self._vectors[members[j]] = np.linalg.eigh(stack[j])[1]
            located.append((members[j], column))
        dim = sum(b.size for b in self.blocks)
        out = np.zeros((dim, k), dtype=np.result_type(*(self._vectors[b] for b, _ in located)))
        for col, (b, column) in enumerate(located):
            self.blocks[b].embed(self._vectors[b][:, column], out[:, col])
        return out

    def ground(self, reference: np.ndarray | None = None) -> np.ndarray:
        """The lowest state, picked by ``reference`` when it is degenerate.

        The ground subspace holds the eigenvectors of every energy within
        ``threshold`` of the lowest, from whichever blocks they lie in.  When
        it has more than one dimension, the state is its unit vector closest
        to ``reference``: the normalized projection of the reference onto it.
        A missing reference, or one orthogonal to the subspace, cannot pick
        a state, and is an error.
        """
        if not self.degenerate():
            return self.states(1)[:, 0]
        if reference is None:
            raise DegeneracyError(
                "ground state is degenerate and no continuity reference was supplied"
            )
        k = int(np.searchsorted(self.energies, self.energies[0] + self.threshold(), side="right"))
        basis = self.states(k)
        coeff = basis.conj().T @ reference
        norm = np.linalg.norm(coeff)
        if norm < 1e-12:
            raise DegeneracyError(
                "continuity reference is orthogonal to the degenerate ground subspace"
            )
        return basis @ (coeff / norm)


def resolve_ground(spectrum: Spectrum, nudged: Callable[[], Spectrum] | None) -> np.ndarray:
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
    return spectrum.ground(reference)


@dataclass(frozen=True)
class GroundStateSelection:
    energy: float
    state: np.ndarray
    degenerate: bool
    gap: float


def ground_state(h: np.ndarray, continuity_reference: np.ndarray | None = None) -> GroundStateSelection:
    """Lowest eigenpair of a dense 2**N matrix ``h`` with explicit handling of degeneracy.

    A dense-matrix helper: the package works on blocks and never calls it.
    ``h`` is diagonalized block by block over the total-S^z sectors.  When it
    is degenerate, ``resolve_ground`` follows ``continuity_reference``, a
    slightly perturbed Hamiltonian supplied by the caller.  A nonzero entry
    between two sectors, however small, is an error.
    """
    downs, image = _basis(h.shape[0].bit_length() - 1)
    blocks = _layout(downs, image)[0]
    operators = (h,) if continuity_reference is None else (h, continuity_reference)
    if any(np.any((downs[:, None] != downs) & (op != 0)) for op in operators):
        raise ValueError("ground_state needs a matrix that conserves total S^z")

    def spectrum(m: np.ndarray) -> Spectrum:
        return Spectrum(blocks, [m.take(b.states, axis=0).take(b.states, axis=1) for b in blocks])

    full = spectrum(h)
    nudged = None if continuity_reference is None else (lambda: spectrum(continuity_reference))
    state = resolve_ground(full, nudged)
    return GroundStateSelection(float(full.energies[0]), state, full.degenerate(), full.gap)
