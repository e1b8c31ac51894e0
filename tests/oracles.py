"""Independent reference constructions used as test oracles.

Operators are built from literal 2x2 matrices and np.kron, deliberately
bypassing the package's bit-arithmetic Hamiltonian assembly so the two routes
check each other.  ``dense_hamiltonian`` and ``dense_detached_block`` are the
bit-arithmetic assembly on the full 2**N space, the reference the package's
plain sector blocks must equal bitwise.  Spectra, ground states and
propagation are computed with dense eigendecompositions of the full space,
bypassing the package's blocks.  ``sector_reference`` cuts the plain
total-S^z blocks out of the dense operators, with no reflection parity, and
``sector_propagate`` is the exact product of one ``eigh`` per step on them:
the reference for the package's parity blocks at sizes the dense oracles
cannot reach; ``reference_block`` restricts them to one parity block, and
``centre_and_half_width`` reads the spectral range a Taylor plan is sized on.  ``recorded_observables`` computes a recorded run's columns the
long way on those plain sectors: both reduced density matrices with an
entropy each, and an eager spectrum with eigenvectors of every sector at each
sample.  ``reference_grid`` is the earlier, loop-based rule for a
schedule's step boundaries, ``sweeps`` the earlier per-spectrum generator
of the blocks a pruned spectrum diagonalizes (``reference_levels`` runs it
one spectrum at a time), and ``reference_record`` the earlier recorder
that scored a run's samples one at a time.  The helpers at the end (a schedule's slope, a
landscape's cell size, an objective that records its calls, sector blocks cut
from hand-built dense matrices, a schedule's steps as one-step schedules)
serve only the tests.
"""

import itertools
from dataclasses import dataclass

import numpy as np

from spinsplice.chain import DEGENERACY_RTOL, Block, DegeneracyError, solve_by_size, tie_ground
from spinsplice.dynamics import (
    SectorPropagator,
    cut_fidelity,
    entropy,
    integration_grid,
    propagate,
    purity,
    reduce_density,
)
from spinsplice.process import TrajectoryRecord

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
PAULI = {"x": SX, "y": SY, "z": SZ}


def kron_site(op, site, n):
    """Embed a 2x2 operator at a site (1-based, most significant first)."""
    out = np.array([[1.0 + 0j]])
    for s in range(1, n + 1):
        out = np.kron(out, op if s == site else ID2)
    return out


def kron_exchange(i, j, n):
    """sigma_i . sigma_j from explicit tensor products."""
    return sum(kron_site(p, i, n) @ kron_site(p, j, n) for p in (SX, SY, SZ))


def kron_hamiltonian(n, topology, coupling, field_z, cut_bonds):
    """Full (h0, v) split built independently of the package."""
    bonds = [(k, k + 1) for k in range(1, n)]
    if topology == "ring":
        bonds.append((1, n))
    dim = 2**n
    h0 = np.zeros((dim, dim), dtype=complex)
    v = np.zeros((dim, dim), dtype=complex)
    cut = {tuple(sorted(b)) for b in cut_bonds}
    for (i, j) in bonds:
        term = coupling * kron_exchange(i, j, n)
        if (i, j) in cut:
            v += term
        else:
            h0 += term
    for s in range(1, n + 1):
        h0 += field_z * kron_site(SZ, s, n)
    return h0, v


def _add_exchange_bond(h, i, j, coupling, n_spins):
    # sigma_i . sigma_j in the z product basis: z_i z_j on the diagonal plus a
    # weight-2 pair flip between antiparallel configurations.
    states = np.arange(1 << n_spins)
    bi = (states >> (n_spins - i)) & 1
    bj = (states >> (n_spins - j)) & 1
    h[states, states] += coupling * (1.0 - 2.0 * bi) * (1.0 - 2.0 * bj)
    flip = states[bi != bj]
    mask = (1 << (n_spins - i)) | (1 << (n_spins - j))
    h[flip ^ mask, flip] += 2.0 * coupling


def _add_field(h, field, n_spins):
    if field != 0.0:
        downs = np.array([bin(s).count("1") for s in range(1 << n_spins)])
        h[np.diag_indices(1 << n_spins)] += field * (n_spins - 2 * downs)


def dense_hamiltonian(spec):
    """Full-space (h0, v) of a ChainSpec as float64 arrays, by bit arithmetic:
    every exchange bond not in ``cut_bonds`` plus the Zeeman term in h0, the
    cut bonds in v."""
    dim = 1 << spec.n_spins
    h0 = np.zeros((dim, dim))
    v = np.zeros((dim, dim))
    for bond in spec.bonds():
        _add_exchange_bond(v if bond in spec.cut_bonds else h0, *bond, spec.exchange, spec.n_spins)
    _add_field(h0, spec.field, spec.n_spins)
    return h0, v


def dense_detached_block(spec, sites):
    """Hamiltonian of a detached block on its own 2**len(sites) space: the
    non-cut bonds inside it and the Zeeman term of its sites, renumbered in
    ascending site order."""
    n = len(sites)
    order = {site: k + 1 for k, site in enumerate(sorted(sites))}
    h = np.zeros((1 << n, 1 << n))
    for i, j in spec.bonds():
        if (i, j) not in spec.cut_bonds and i in order and j in order:
            _add_exchange_bond(h, order[i], order[j], spec.exchange, n)
    _add_field(h, spec.field, n)
    return h


def taylor_expm(a, order=12):
    """Truncated Taylor series of exp(a); oracle for small-norm exponentials."""
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for k in range(1, order + 1):
        term = term @ a / k
        out = out + term
    return out


def pauli_site_operator(site, axis, n_spins):
    """Pauli operator on one site, embedded in the full 2**n_spins space."""
    if not 1 <= site <= n_spins:
        raise ValueError(f"site {site} out of range 1..{n_spins}")
    if axis not in PAULI:
        raise ValueError(f"axis must be one of 'x', 'y', 'z', got {axis!r}")
    return kron_site(PAULI[axis], site, n_spins)


def commutator_frobenius_norm(a, b):
    """Frobenius norm of the commutator ab - ba; zero iff a and b commute."""
    if a.shape != b.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"operands must be square matrices of equal shape, got {a.shape} and {b.shape}")
    return float(np.linalg.norm(a @ b - b @ a, ord="fro"))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in ascending order with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def decompose(h):
    """Full dense eigendecomposition of a Hermitian (or real symmetric) matrix."""
    w, q = np.linalg.eigh(h)
    return SpectralDecomposition(w, q)


def step_unitary(h0, v, g_value, dt):
    """One evolution factor exp(-i (h0 + g v) dt) as an explicit matrix."""
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    w, q = np.linalg.eigh(h0 + g_value * v)
    qc = q.astype(complex)
    return (qc * np.exp(-1j * w * dt)) @ qc.conj().T


def dense_propagate(h0, v, schedule, psi0, n_steps):
    """Final state as a product of full-space step_unitary factors, one per
    step of integration_grid at its midpoint coupling."""
    grid = integration_grid(schedule, n_steps)
    psi = np.asarray(psi0, dtype=complex)
    for lo, hi in zip(grid[:-1], grid[1:]):
        psi = step_unitary(h0, v, float(schedule.values(0.5 * (lo + hi))), hi - lo) @ psi
    return psi


def dense_ground_state(h, continuity_reference=None, rtol=DEGENERACY_RTOL):
    """(energy, state, degenerate, gap) of h from one dense eigh of the full
    space, degeneracy resolved toward the unique ground state of the reference."""
    w, q = np.linalg.eigh(h)
    threshold = rtol * float(w[-1] - w[0])
    gap = float(w[1] - w[0])
    if gap > threshold:
        return float(w[0]), q[:, 0], False, gap
    if continuity_reference is None:
        raise DegeneracyError("ground state is degenerate and no continuity reference was supplied")
    wr, qr = np.linalg.eigh(continuity_reference)
    if wr[1] - wr[0] <= rtol * float(wr[-1] - wr[0]):
        raise DegeneracyError("unresolvable degeneracy: the perturbed reference Hamiltonian is degenerate too")
    k = int(np.searchsorted(w, w[0] + threshold, side="right"))
    coeff = q[:, :k].conj().T @ qr[:, 0]
    return float(w[0]), q[:, :k] @ (coeff / np.linalg.norm(coeff)), True, gap


def ground_fidelity(psi, h_instant, continuity_reference=None):
    """|<ground of h_instant | psi>|, degeneracy-resolved via the reference."""
    return float(abs(dense_ground_state(h_instant, continuity_reference)[1].conj() @ psi))


def schedule_derivative(schedule, t):
    """dg/dt of a ControlSchedule at time t; one-sided from inside the window
    at its endpoints.  Piecewise-constant schedules report the almost-everywhere
    value 0."""
    T = schedule.duration
    if t < 0.0 or t > T or schedule.kind == "pulse":
        return 0.0
    if schedule.kind == "sine_cut":
        x = t / T
        d = -1.0
        for n, b in enumerate(schedule.params, start=1):
            d += b * n * np.pi * np.cos(n * np.pi * x)
        return d / T
    # the leading coefficient makes the drive reach its far endpoint
    coeffs = (-(1.0 + float(sum(schedule.params))), *schedule.params)
    if schedule.kind == "polynomial_stitch":
        x = (T - t) / T
        sign = -1.0
    else:
        x = t / T
        sign = 1.0
    d = 0.0
    for n, c in enumerate(coeffs, start=1):
        d += n * c * x ** (n - 1)
    return sign * d / T


def cell_size(grid):
    """Spacing of a LandscapeGrid along each of its two axes."""
    return tuple((ax.upper - ax.lower) / (ax.resolution - 1) for ax in grid.axes)


class CountingObjective:
    """Records the shape of every call; values depend on the parameters."""

    def __init__(self):
        self.shapes = []

    def __call__(self, params):
        params = np.asarray(params)
        self.shapes.append(params.shape)
        return np.sin(params[0]) + 0.5 * params[-1] ** 2


def sector_step(reference, psi, g, dt):
    """One exact factor exp(-i (h0 + g v) dt) applied to a full-space state,
    sector by sector: one ``eigh`` of each occupied block of a ``sector_blocks``
    reference."""
    out = np.zeros_like(psi)
    for block, h0, v in zip(*reference):
        if np.any(psi[block]):
            w, q = np.linalg.eigh(h0 + g * v)
            out[block] = q @ (np.exp(-1j * w * dt) * (q.T @ psi[block]))
    return out


def sector_propagate(reference, schedule, psi0, n_steps):
    """Final state as the exact product of ``sector_step`` factors, one per
    step of integration_grid at its midpoint coupling: the eigh-per-step
    total-S^z reference for sizes the dense oracle cannot reach."""
    grid = integration_grid(schedule, n_steps)
    psi = np.asarray(psi0, dtype=complex)
    for lo, hi in zip(grid[:-1], grid[1:]):
        psi = sector_step(reference, psi, float(schedule.values(0.5 * (lo + hi))), hi - lo)
    return psi


def sector_blocks(*operators):
    """(blocks, *parts) for dense operators that conserve total S^z: the basis
    indices with k down spins, and each operator's blocks on them."""
    dim = operators[0].shape[0]
    downs = np.array([bin(s).count("1") for s in range(dim)])
    for op in operators:
        assert not np.any(op[downs[:, None] != downs]), "operator mixes total-S^z sectors"
    blocks = tuple(np.flatnonzero(downs == k) for k in range(int(downs.max()) + 1))
    return (blocks, *(tuple(op[np.ix_(b, b)] for b in blocks) for op in operators))


def sector_reference(spec):
    """``sector_blocks`` of a ChainSpec's dense (h0, v), one full-space
    operator alive at a time."""
    parts = []
    for in_cut in (False, True):
        op = np.zeros((1 << spec.n_spins,) * 2)
        for bond in spec.bonds():
            if (bond in spec.cut_bonds) == in_cut:
                _add_exchange_bond(op, *bond, spec.exchange, spec.n_spins)
        if not in_cut:
            _add_field(op, spec.field, spec.n_spins)
        blocks, part = sector_blocks(op)
        parts.append(part)
    return (blocks, *parts)


def sector_propagator(reference):
    """A package SectorPropagator on the plain total-S^z blocks of a
    ``sector_blocks`` reference, with no reflection parity."""
    blocks, *parts = reference
    return SectorPropagator(tuple(Block(b, b, 1.0) for b in blocks), *parts)


def reference_block(reference, block):
    """The dense (h0, v) of a ``sector_reference`` on one package Block:
    Q^T M Q, with Q the block's basis vectors cut to their total-S^z sector."""
    sectors, *parts = reference
    k = bin(int(block.states[0])).count("1")
    q = np.zeros((1 << (len(sectors) - 1), block.size))
    block.embed(np.eye(block.size), q)
    q = q[sectors[k]]
    return tuple(q.T @ part[k] @ q for part in parts)


def centre_and_half_width(matrix):
    """Midpoint of a real symmetric matrix's lowest and highest energy, from
    a dense ``eigvalsh``, and half their distance widened by 4 d eps times
    the larger of their magnitudes: the round-off slack the package's energy
    ranges carry."""
    energies = np.linalg.eigvalsh(matrix)
    lo, hi = energies[0], energies[-1]
    return 0.5 * (lo + hi), 0.5 * (hi - lo) + 4 * np.finfo(float).eps * energies.size * max(abs(lo), abs(hi))


@dataclass(frozen=True)
class StepSegment:
    """One step [lo, hi] of a smooth schedule as a schedule of its own on
    [0, hi - lo]: ``propagate(propagator, segment, psi, 1)`` applies the
    package's factor for that step, so a run can be checked step by step."""

    schedule: object
    lo: float
    hi: float
    piecewise_constant = False

    @property
    def duration(self):
        return self.hi - self.lo

    def breakpoints(self):
        return np.empty(0)

    def values(self, t):
        return self.schedule.values(self.lo + np.asarray(t))


def reference_grid(schedule, n_steps):
    """The step boundaries of ``integration_grid`` by its earlier rule, kept
    verbatim: pulse edges, and with noise the window edges from a loop that
    stops 1e-12 of the duration short of it, unioned in a set with the
    uniform grid, sorted, then merged greedily, a point kept only if it lies
    more than 1e-9 of the duration past the last kept one."""
    K = len(schedule.params)
    edges = tuple(k * (schedule.duration / K) for k in range(1, K)) if schedule.kind == "pulse" else ()
    if schedule.offsets:
        union, k = set(edges), 1
        while k * schedule.window < schedule.duration - 1e-12 * schedule.duration:
            union.add(k * schedule.window)
            k += 1
        edges = tuple(sorted(union))
    T = schedule.duration
    uniform = np.linspace(0.0, T, (1 if schedule.piecewise_constant else n_steps) + 1)
    pts = sorted(set(uniform) | set(edges))
    grid = [pts[0]]
    for p in pts[1:]:
        if p - grid[-1] > 1e-9 * T:
            grid.append(p)
    grid[-1] = T
    return np.asarray(grid)


def step_segments(schedule, n_steps):
    """The steps of integration_grid as StepSegments, in time order."""
    grid = integration_grid(schedule, n_steps)
    return [StepSegment(schedule, lo, hi) for lo, hi in zip(grid[:-1], grid[1:])]


def eager_spectrum(reference, g):
    """(energies, vectors) of h0 + g v from one ``eigh`` of every block of a
    ``sector_blocks`` reference, merged in ascending order with a stable
    sort; the vectors are embedded in the full space, one column per energy."""
    blocks, h0, v = reference
    pairs = [np.linalg.eigh(h + g * u) for h, u in zip(h0, v)]
    w = np.concatenate([e for e, _ in pairs])
    q = np.zeros((sum(b.size for b in blocks), w.size))
    col = 0
    for block, (_, vectors) in zip(blocks, pairs):
        q[block, col:col + block.size] = vectors
        col += block.size
    order = np.argsort(w, kind="stable")
    return w[order], q[:, order]


def recorded_observables(process, schedule, n_steps):
    """The columns of ``process.run(schedule, n_steps)``, computed
    the long way, on plain total-S^z blocks built from the dense operators
    (no reflection parity).  The run is stepped with ``step_segments``.  Each sample
    forms the reduced density matrices of both sides, A and the rest, and
    takes the entropy of each; ``gap``, ``f_g`` and the degenerate flag come
    from ``eager_spectrum``, the ground subspace resolved toward the previous
    sample's ground state (the state itself at the first sample), and the
    lowest state taken when the reference is orthogonal to it.  Returns a
    dict keyed by the TrajectoryRecord field names, with the entropy of the
    rest as ``entropy_b``."""
    n = process.chain.n_spins
    reference = sector_reference(process.chain)
    prop = sector_propagator(reference)
    rest = tuple(s for s in range(1, n + 1) if s not in process.a_sites)
    rows, previous = [], None

    def sample(t, psi):
        nonlocal previous
        g = float(schedule.values(t))
        w, q = eager_spectrum(reference, g)
        threshold = DEGENERACY_RTOL * float(w[-1] - w[0])
        gap = float(w[1] - w[0])
        ground = q[:, 0]
        if gap <= threshold:
            k = int(np.searchsorted(w, w[0] + threshold, side="right"))
            coeff = q[:, :k].T @ (psi if previous is None else previous)
            if np.linalg.norm(coeff) >= 1e-12:
                ground = q[:, :k] @ (coeff / np.linalg.norm(coeff))
        previous = ground
        rho_a = reduce_density(psi, process.a_sites, n)
        rho_b = reduce_density(psi, rest, n)
        rows.append((t, g, cut_fidelity(rho_a, process.phi_0a), float(abs(ground.conj() @ psi)), purity(rho_a),
                     entropy(rho_a), entropy(rho_b), gap, gap <= threshold))

    psi = process.psi0
    sample(0.0, psi)
    for segment in step_segments(schedule, n_steps):
        psi, _ = propagate(prop, segment, psi, 1)
        sample(segment.hi, psi)
    names = ("times", "g_values", "f_c", "f_g", "purity_a", "entropy_a", "entropy_b", "gap", "degenerate_flags")
    return {name: np.asarray(column) for name, column in zip(names, zip(*rows))}


def sweeps(energies, lower, upper):
    """The blocks one spectrum diagonalizes, the per-spectrum generator that
    ``chain.levels`` replaced with array rounds: yields each list of blocks
    in turn, whose ascending energies the caller adds to ``energies`` before
    asking for the next.

    First from the top, in descending order of the upper bounds, until no
    block left can hold an energy above the highest found; then from the
    bottom, in ascending order of the lower bounds, until no block left can
    hold an energy at or below max(E1, E0 + DEGENERACY_RTOL (E_top - E0)) of
    those found.  Blocks of equal bound go together, and blocks already in
    ``energies`` are not asked for.
    """
    if len(energies) == len(lower):  # every block known
        return

    def top():
        return max((w[-1] for w in energies.values()), default=-np.inf)

    def cutoff():
        e0, e1 = sorted([np.inf, np.inf, *(e for w in energies.values() for e in w[:2].tolist())])[:2]
        return max(e1, e0 + DEGENERACY_RTOL * (highest - e0))

    for bounds, beyond in (([-u for u in upper], lambda bound: -bound < top()),
                           (lower, lambda bound: bound > cutoff())):
        for bound, group in itertools.groupby(sorted(range(len(bounds)), key=bounds.__getitem__),
                                              bounds.__getitem__):
            if beyond(bound):
                break
            if members := [b for b in group if b not in energies]:
                yield members
        highest = top()  # exact after the first sweep: every block left has a lower upper bound


def reference_levels(blocks, matrices, bounds=None, known=None):
    """The energies dict of each matrix from its own ``sweeps``, one matrix
    at a time, one ``eigvalsh`` per request and block dimension."""
    out = []
    for i, matrix in enumerate(matrices):
        energies = dict(known[i] or {}) if known else {}
        bound = bounds[i] if bounds else None
        lower, upper = ([-np.inf] * len(blocks), [np.inf] * len(blocks)) if bound is None else [b.tolist() for b in bound]
        for request in sweeps(energies, lower, upper):
            energies.update(solve_by_size(np.linalg.eigvalsh, blocks, [(matrix, request)])[0])
        out.append(energies)
    return out


def reference_record(process, schedule, n_steps, eigh_vectors=False):
    """``process.run(schedule, n_steps)`` scored one sample at a
    time, as the recorder did before it scored chunks: each sample takes
    ``propagator.spectra([g])`` at its own coupling, a lone ground's vector
    by inverse iteration or with ``eigh_vectors`` by ``eigh``, and its
    reduced density matrices and its entropy on their own.  Returns
    ``(psi, TrajectoryRecord)``."""
    n_spins = process.chain.n_spins
    schmidt_sites = process.a_sites if len(process.a_sites) <= len(process.b_sites) else process.b_sites
    rows = []
    previous_ground, value_blocks, vector_blocks = None, 0, 0

    def sample(t, psi):
        nonlocal previous_ground, value_blocks, vector_blocks
        g = float(schedule.values(t))
        found = process.propagator.spectra([g], iterate=not eigh_vectors)
        (ground,) = found.states
        gap, degenerate = float(found.gap[0]), bool(found.degenerate[0])
        values, vectors = int(found.value_blocks[0]), int(found.vector_blocks[0])
        if ground is None:
            try:
                ground = tie_ground(found.ties[0], degenerate, psi if previous_ground is None else previous_ground)
            except DegeneracyError:
                ground = tie_ground(found.ties[0], False)
        previous_ground = ground
        value_blocks += values
        vector_blocks += vectors
        rho_a = reduce_density(psi, process.a_sites, n_spins)
        rho_small = rho_a if schmidt_sites == process.a_sites else reduce_density(psi, schmidt_sites, n_spins)
        schmidt_entropy = entropy(rho_small)
        rows.append((t, g, cut_fidelity(rho_a, process.phi_0a), float(abs(ground.conj() @ psi)),
                     purity(rho_a), schmidt_entropy, gap, degenerate))

    psi, work = propagate(process.propagator, schedule, process.psi0, n_steps, probe=sample)
    *columns, flags = zip(*rows)
    return psi, TrajectoryRecord(
        *np.asarray(columns, dtype=float), degenerate_flags=np.asarray(flags, dtype=bool),
        max_norm_dt=work.max_norm_dt, taylor_matvecs=work.taylor_matvecs,
        value_blocks=value_blocks, vector_blocks=vector_blocks,
    )
