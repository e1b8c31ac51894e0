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
from typing import Callable, Iterable, NamedTuple

import numpy as np

DEFAULT_SPIN_CAP = 12
DEGENERACY_RTOL = 1e-9
UNIT_ROUNDOFF = 2.0**-53
# How far a recorded f_G may be from the one of the exact ground vector
# before its block's vector comes from eigh rather than inverse iteration.
GROUND_TOLERANCE = 1e-12


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
        if not isinstance(self.n_spins, (int, np.integer)):
            raise ValueError(f"n_spins must be an integer, got {self.n_spins!r}")
        if self.n_spins < 2:
            raise ValueError(f"n_spins must be >= 2, got {self.n_spins}")
        if self.n_spins > DEFAULT_SPIN_CAP:
            raise ValueError(
                f"n_spins={self.n_spins} exceeds the cap of {DEFAULT_SPIN_CAP} "
                f"(the blocks of each operator hold about C(2N, N) / 2 entries)"
            )
        if self.topology == "ring" and self.n_spins < 3:
            raise ValueError("a ring needs at least 3 spins")
        for name in ("exchange", "field"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
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
    parity, slot = np.array([rep, states < image]).nonzero()
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
    first = starts[key] + rank * sizes[key]  # where the row of each slot begins
    diag = first + rank

    index, value = [np.zeros(0, dtype=np.int64)], [np.zeros(0)]
    if bonds := list(bonds):
        row = np.zeros((2, downs.size), dtype=np.int64)  # where the row of each (parity, representative) begins
        row[parity, slot] = first
        kind = np.sign(image - np.arange(downs.size))  # 1 on a representative, -1 on its partner, 0 if fixed
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
    # float64 even with no term at all, where bincount ignores the weights' type
    buf = np.bincount(np.concatenate(index), np.concatenate(value), 2 * total).astype(float, copy=False)
    spans = [(lo, lo + d * d, d) for lo, d in zip(starts.tolist(), sizes.tolist()) if d]
    h0, v = (tuple(buf[lo + shift:hi + shift].reshape(d, d) for lo, hi, d in spans) for shift in (0, total))
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


def solve_by_size(solve: Callable[[np.ndarray], np.ndarray], blocks: Blocks, asks) -> list[dict[int, np.ndarray]]:
    """``solve`` applied to the blocks each ask names, one stacked call per
    block dimension over every ask.

    An ask is ``(matrix, indices)``: ``matrix(b)`` forms the matrix on
    ``blocks[b]`` for each b of ``indices``.  The matrices of one dimension
    are stacked in order of ask, then block.  Returns one dict per ask, from
    block to its result.  A stacked LAPACK call computes each matrix's
    result as a call of its own would.
    """
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, (_, indices) in enumerate(asks):
        for b in indices:
            groups.setdefault(blocks[b].size, []).append((i, b))
    results: list[dict[int, np.ndarray]] = [{} for _ in asks]
    for pairs in groups.values():
        for (i, b), result in zip(pairs, solve(np.array([asks[i][0](b) for i, b in pairs]))):
            results[i][b] = result
    return results


def _slack(size, magnitude):
    """Round-off slack 4 d eps ||M|| of energies ``eigvalsh`` computes on a
    block of dimension d whose largest energy magnitude is ||M||."""
    return 8 * UNIT_ROUNDOFF * size * magnitude


def _two_lowest(lowest: np.ndarray, second: np.ndarray) -> np.ndarray:
    return np.partition(np.concatenate((lowest, second), axis=1), 1, axis=1)[:, :2].T


def levels(blocks: Blocks, matrices: list[Callable[[int], np.ndarray]],
           bounds: list[tuple[np.ndarray, np.ndarray] | None] | None = None,
           known: list[dict[int, np.ndarray] | None] | None = None) -> list[dict[int, np.ndarray]]:
    """For each block-diagonal matrix on ``blocks``, a dict from each block
    diagonalized or known to its ascending energies.

    ``matrices[i](b)`` forms matrix i on block b, only for the blocks that
    get diagonalized; ``known[i]``, when given, holds the energies of every
    block, found before, of a matrix without bounds.  Without ``bounds[i]``
    (per-block lower and upper bounds on the energies) every block of a
    matrix not known is diagonalized, one ``eigvalsh`` per block dimension
    over every such matrix.  With them, the matrix sweeps its blocks from the
    top, by descending upper bound, until no block left can hold an energy
    above the highest found, then from the bottom, by ascending lower bound,
    until none left can hold one at or below max(E1, E0 + DEGENERACY_RTOL
    (E_top - E0)) of those found; that cut-off only falls as blocks are
    added.  The sweeps run together in rounds over (matrices x blocks)
    arrays of the bounds and of each block's lowest, second and highest
    energy: each round, each matrix still sweeping asks for every block left
    at its next bound, and the blocks of one dimension, over every matrix,
    go to one stacked ``eigvalsh``, which gives each matrix bitwise the
    energies of a call of its own.
    """
    count, n = len(matrices), len(blocks)
    known, bounds = known or [None] * count, bounds or [None] * count
    energies = [dict(k or {}) for k in known]
    solved = [i for i, (bound, k) in enumerate(zip(bounds, known)) if bound is None and k is None]
    for i, found in zip(solved, solve_by_size(np.linalg.eigvalsh, blocks, [(matrices[i], range(n)) for i in solved])):
        energies[i] = found
    if all(bound is None for bound in bounds):
        return energies
    sizes = np.array([block.size for block in blocks])
    lowest, second = np.full((2, count, n), np.inf)
    highest, done = np.full((count, n), -np.inf), np.zeros((count, n), dtype=bool)
    lower, upper = np.full((count, n), -np.inf), np.full((count, n), np.inf)
    sweep = np.full(count, 2)  # 0 from the top, 1 from the bottom, 2 ended (or no bounds)
    for i, bound in enumerate(bounds):
        if bound is not None:
            (lower[i], upper[i]), sweep[i] = bound, 0
    while True:
        left, top = ~done, highest.max(axis=1)
        upper_left = np.where(left, upper, -np.inf).max(axis=1)
        sweep[(sweep == 0) & (upper_left < top)] = 1
        rising = np.flatnonzero(sweep == 1)
        e0, e1 = _two_lowest(lowest[rising], second[rising])
        # the top is exact in the bottom sweep: every block left has a lower upper bound
        cutoff = np.maximum(e1, e0 + DEGENERACY_RTOL * (top[rising] - e0))
        lower_left = np.where(left[rising], lower[rising], np.inf).min(axis=1)
        sweep[rising[lower_left > cutoff]] = 2
        ask = left & (upper == upper_left[:, None]) & (sweep == 0)[:, None]
        ask[rising] |= left[rising] & (lower[rising] == lower_left[:, None]) & (lower_left <= cutoff)[:, None]
        if not ask.any():
            return energies
        rows, cols = ask.nonzero()
        for d in dict.fromkeys(sizes[cols].tolist()):
            r, c = rows[sizes[cols] == d], cols[sizes[cols] == d]
            w = np.linalg.eigvalsh(np.array([matrices[i](b) for i, b in zip(r.tolist(), c.tolist())]))
            lowest[r, c], highest[r, c], done[r, c] = w[:, 0], w[:, -1], True
            if d > 1:
                second[r, c] = w[:, 1]
            for i, b, row in zip(r.tolist(), c.tolist(), w):
                energies[i][b] = row


class Spectra(NamedTuple):
    """What ``diagonalize`` finds of a stack of block-diagonal matrices, one
    entry per matrix, each exact as if every block had been diagonalized.

    ``lowest`` is the lowest energy, ``gap`` the distance to the second, and
    ``degenerate`` marks a gap within the threshold DEGENERACY_RTOL (E_top -
    E0).  ``value_blocks`` counts the blocks diagonalized or known,
    ``vector_blocks`` those whose vectors the ground state takes.  A lone
    ground, the lowest energy alone within the threshold, has in ``states``
    its full-space ground state, its block's lowest vector.  Any other
    matrix has None there and in ``ties`` the full-space ``eigh`` vectors of
    every energy within the threshold of the lowest, ascending, equal ones
    in order of block dimension, then block.
    """

    gap: np.ndarray
    degenerate: np.ndarray
    lowest: np.ndarray
    value_blocks: np.ndarray
    vector_blocks: np.ndarray
    states: list[np.ndarray | None]
    ties: list[np.ndarray | None]


def _tie(energies: dict[int, np.ndarray], limit: float) -> list[tuple[int, int]]:
    """(block, column) of each energy at or below ``limit``, ascending, equal
    ones in order of block dimension, then block."""
    return [(b, column) for *_, b, column in sorted(
        (e, w.size, b, column) for b, w in energies.items() if w[0] <= limit
        for column, e in enumerate(w[w <= limit].tolist()))]


def diagonalize(blocks: Blocks, matrices: list[Callable[[int], np.ndarray]],
                bounds: list[tuple[np.ndarray, np.ndarray] | None] | None = None,
                known: list[dict[int, np.ndarray] | None] | None = None, iterate: bool = False) -> Spectra:
    """The ``Spectra`` of the matrices of ``levels``, read off the energies it
    finds, with the ``eigh`` vectors of every tie's blocks and each lone
    ground's block's lowest vector, by ``eigh`` or with ``iterate`` by
    ``_lowest_vectors``, one stacked call per block dimension for each; each
    matrix's entries bitwise as they would be alone."""
    energies = levels(blocks, matrices, bounds, known)
    rows = []  # each matrix's entries, and the limit of its tie, E0 plus the threshold
    for found in energies:
        ranked = sorted([(w.item(0), b) for b, w in found.items()])  # each block's lowest energy
        (e0, ground), w = ranked[0], found[ranked[0][1]]
        second = w.item(1) if w.size > 1 else np.inf
        e1 = min(second, ranked[1][0]) if len(ranked) > 1 else second
        gap, threshold = e1 - e0, DEGENERACY_RTOL * (max([v.item(-1) for v in found.values()]) - e0)
        lone = gap > threshold and e1 > e0 + threshold
        rows.append((gap, gap <= threshold, e0, len(found), ground if lone else -1, second,
                     _slack(w.size, max(abs(e0), abs(w.item(-1)))), e0 + threshold))
    gap, degenerate, e0, value_blocks, block, second, slack, limits = zip(*rows) if rows else [()] * 8
    states: list[np.ndarray | None] = [None] * len(rows)
    ties: list[np.ndarray | None] = [None] * len(rows)
    vector_blocks = [1] * len(rows)
    dim = sum(b.size for b in blocks)
    groups: dict[int, list[tuple[int, int]]] = {}
    for i, b in enumerate(block):
        if b >= 0:
            groups.setdefault(blocks[b].size, []).append((i, b))
    for pairs in groups.values():
        stack, r = np.array([matrices[i](b) for i, b in pairs]), [i for i, _ in pairs]
        x = (_lowest_vectors(stack, *(np.array(column)[r] for column in (e0, second, slack))) if iterate
             else np.linalg.eigh(stack)[1][:, :, 0])
        for (i, b), x_i, state in zip(pairs, x, np.zeros((len(pairs), dim), dtype=x.dtype)):
            blocks[b].embed(x_i, state)
            states[i] = state
    if tied := [i for i, b in enumerate(block) if b < 0]:
        located = [_tie(energies[i], limits[i]) for i in tied]
        vectors = solve_by_size(lambda a: np.linalg.eigh(a)[1], blocks, [
            (matrices[i], list(dict.fromkeys(b for b, _ in at))) for i, at in zip(tied, located)])
        for i, at, found in zip(tied, located, vectors):
            ties[i] = np.zeros((dim, len(at)), dtype=np.result_type(*found.values()))
            for col, (b, column) in enumerate(at):
                blocks[b].embed(found[b][:, column], ties[i][:, col])
            vector_blocks[i] = len(found)
    return Spectra(*map(np.array, (gap, degenerate, e0, value_blocks, vector_blocks)), states, ties)


def _lowest_vectors(stack: np.ndarray, e0: np.ndarray, e1: np.ndarray, slack: np.ndarray) -> np.ndarray:
    """The lowest eigenvector of each real symmetric matrix M of ``stack``,
    one row each, from its two lowest energies e0 < e1 (inf on one state)
    and their round-off ``slack``.

    Inverse iteration x <- y / ||y||, (M - (e0 - slack)) y = x, from a fixed
    start shrinks tan of x's angle to the ground vector by a factor of at
    most rho = 2 slack / (e1 - e0) a step (Ipsen, SIAM Rev. 39, 254 (1997)),
    so M takes the steps that bring rho^k below eps / d.  With r = M x - e0 x,
    the sine of the angle is at most ||r|| / delta, delta = e1 - e0 - slack
    (Davis-Kahan), and |<x|psi>| moves by at most sqrt 2 times the sine for
    a unit psi; the computed ||r|| is within gamma_m (||M||_inf + |e0|),
    with m - 2 the most nonzeros in a row.  Where that bound exceeds
    ``GROUND_TOLERANCE``, even at r = 0 (which keeps rho below about 1e-11 d
    where it passes), or a shifted matrix is exactly singular, the vector
    comes from ``eigh``.  Each matrix's vector is bitwise the same whatever
    the stack: each step solves and normalizes its own x.
    """
    d = stack.shape[-1]
    m = np.count_nonzero(stack, axis=2).max(axis=1) + 2
    noise = m * UNIT_ROUNDOFF / (1 - m * UNIT_ROUNDOFF) * (np.abs(stack).sum(axis=2).max(axis=1) + np.abs(e0))
    delta = e1 - e0 - slack
    vectors = np.empty(stack.shape[:2])
    trying = np.flatnonzero(np.isfinite(delta) & (np.sqrt(2.0) * noise <= GROUND_TOLERANCE * delta))
    if trying.size:
        steps = np.ceil(np.log(UNIT_ROUNDOFF / d) / np.log(2 * slack[trying] / (e1 - e0)[trying]))
        shifted = stack[trying]
        shifted[:, np.arange(d), np.arange(d)] -= (e0 - slack)[trying, None]
        x = np.tile(np.sin(np.arange(1.0, d + 1)), (trying.size, 1))  # a fixed start
        solved = np.ones(trying.size, dtype=bool)
        for step in range(int(steps.max())):
            active = np.flatnonzero(solved & (step < steps))
            y, singular = _solve(_rows(shifted, active), x[active])
            solved[active[singular]] = False
            y, active = y[~singular], active[~singular]
            x[active] = y / np.sqrt((y * y).sum(axis=1))[:, None]
        trying, x = trying[solved], x[solved]
        residual = (_rows(stack, trying) @ x[:, :, None])[:, :, 0] - e0[trying, None] * x
        bound = np.sqrt(2.0) * (np.sqrt((residual * residual).sum(axis=1)) + noise[trying])
        certified = bound <= GROUND_TOLERANCE * delta[trying]
        trying = trying[certified]
        vectors[trying] = x[certified]
    rest = np.ones(len(stack), dtype=bool)
    rest[trying] = False
    if rest.any():
        vectors[rest] = np.linalg.eigh(stack[rest])[1][:, :, 0]
    return vectors


def _rows(a: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """a[rows] for ascending distinct rows, with no copy when they are all."""
    return a if rows.size == len(a) else a[rows]


def _solve(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x with a[j] x[j] = b[j], and which a[j] are exactly singular (x[j] 0)."""
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0], np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:  # one matrix a call, to find which
        x, singular = np.zeros(b.shape), np.zeros(len(a), dtype=bool)
        for j in range(len(a)):
            try:
                x[j] = np.linalg.solve(a[j:j + 1], b[j:j + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                singular[j] = True
        return x, singular


def tie_ground(tie: np.ndarray, degenerate: bool, reference: np.ndarray | None = None) -> np.ndarray:
    """The ground state of a tie (``Spectra.ties``): its lowest state, or
    when it is degenerate its unit vector closest to ``reference``, the
    normalized projection of the reference onto it.  A coefficient no larger
    than eps times their norm is round-off of a full-space product, as where
    the reference lies in one block and the tie spans two, and is zeroed,
    so that the state occupies no block the reference does not.  A missing
    reference, or one orthogonal to the tie, cannot pick a state, and is an
    error.
    """
    if not degenerate:
        return tie[:, 0].copy()
    if reference is None:
        raise DegeneracyError("ground state is degenerate and no continuity reference was supplied")
    coeff = tie.conj().T @ reference
    norm = np.linalg.norm(coeff)
    if norm < 1e-12:
        raise DegeneracyError("continuity reference is orthogonal to the degenerate ground subspace")
    coeff[np.abs(coeff) <= 2 * UNIT_ROUNDOFF * norm] = 0.0
    return tie @ (coeff / norm)


def ground_states(spectra: Spectra, nudged: Callable[[list[int]], Spectra] | None = None) -> list[np.ndarray]:
    """The ground state of each matrix of ``spectra``: a lone ground's state,
    or ``tie_ground`` of its tie, the reference of a degenerate one the
    unique ground state of a slightly perturbed matrix.  ``nudged(rows)``,
    called only on a tie, gives the ``Spectra`` of the perturbed matrices of
    those rows.  Without it, or when one of them is degenerate too, the
    ambiguity is an error, never a silent arbitrary choice.
    """
    degenerate = spectra.degenerate.tolist()
    references = [None] * len(degenerate)
    if nudged is not None and (rows := [i for i, flag in enumerate(degenerate) if flag]):
        perturbed = nudged(rows)
        if perturbed.degenerate.any():
            raise DegeneracyError("unresolvable degeneracy: the perturbed reference Hamiltonian is degenerate too")
        for i, reference in zip(rows, ground_states(perturbed)):
            references[i] = reference
    return [tie_ground(tie, flag, reference) if state is None else state
            for state, tie, flag, reference in zip(spectra.states, spectra.ties, degenerate, references)]


@dataclass(frozen=True)
class GroundStateSelection:
    energy: float
    state: np.ndarray
    degenerate: bool
    gap: float


def ground_state(h: np.ndarray, continuity_reference: np.ndarray | None = None) -> GroundStateSelection:
    """Lowest eigenpair of a dense 2**N matrix ``h`` with explicit handling of degeneracy.

    A dense-matrix helper: the package works on blocks and never calls it.
    ``h`` is diagonalized block by block over the total-S^z sectors, and its
    ground state taken by ``ground_states``: when it is degenerate, it
    follows the ground state of ``continuity_reference``, a slightly
    perturbed Hamiltonian supplied by the caller.  A nonzero entry between
    two sectors, however small, is an error.
    """
    downs, image = _basis(h.shape[0].bit_length() - 1)
    blocks = _layout(downs, image)[0]
    operators = (h,) if continuity_reference is None else (h, continuity_reference)
    if any(np.any((downs[:, None] != downs) & (op != 0)) for op in operators):
        raise ValueError("ground_state needs a matrix that conserves total S^z")

    def blockwise(m: np.ndarray) -> list[Callable[[int], np.ndarray]]:
        return [lambda b: m.take(blocks[b].states, axis=0).take(blocks[b].states, axis=1)]

    found = diagonalize(blocks, blockwise(h))
    nudged = None if continuity_reference is None else lambda rows: diagonalize(blocks, blockwise(continuity_reference))
    (state,) = ground_states(found, nudged)
    return GroundStateSelection(float(found.lowest[0]), state, bool(found.degenerate[0]), float(found.gap[0]))
