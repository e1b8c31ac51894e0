"""Time evolution under h0 + g(t) v and trajectory observables.

Propagation factors the time-ordered exponential into piecewise-constant
steps: smooth schedules are sampled at step midpoints on a uniform grid
(refined so noise windows never straddle a step), and pulse trains take
exactly one factor per pulse.  Both h0 and v conserve total S^z and commute
with the chain's reflection that keeps the cut bonds, so only the blocks the
state occupies, parity halves of its total-S^z sectors, are evolved, and the
state never leaves them.

Every step acts on a batch: B schedules that share one integration grid
evolve together as one (d x B) array of block amplitudes, one column per
schedule.  ``propagate`` evolves one schedule as the batch B = 1, and a list
of schedules grouped by integration grid.  A smooth step applies a
truncated Taylor series of exp(-i (h0 + g v) dt).  Its order m and substep
count s are fixed in advance from the bound (||h0||_1 + max_b |g_b| ||v||_1) dt,
as the pair with the least m * s whose truncation tail is at most 2^-53 per
substep (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)), and each
term is one real matrix product: [h0 v], side by side, times the float64
views of the scaled amplitudes and of g times them, stacked.  The result is the exact factor to round-off, and no smooth step
diagonalizes.  Pulse steps, and any step whose plan needs more than
``MAX_TAYLOR_TERMS`` terms, take the exact factor from an eigendecomposition
of each column's generator, stacked over the batch.

A recorded run samples the state every ``stride`` steps.  Each sample takes
the energies of every block at the current coupling (one ``eigvalsh`` per
block dimension) for the gap and the degeneracy flag, and eigenvectors only
of the block(s) holding the ground subspace, for the ground fidelity.  The
reduced density matrix of the first subsystem gives the cut fidelity and
purity; the entanglement entropy, equal on both sides of a pure state, comes
from the smaller of the two reduced density matrices.  The module does no
file I/O: ``runner`` writes the trajectory CSV from a ``TrajectoryRecord``'s
columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import Blocks, DegeneracyError, Matrices, Spectrum

ENTROPY_EIGENVALUE_FLOOR = 1e-14
UNIT_ROUNDOFF = 2.0**-53
# Highest Taylor order.  Its largest substep norm is about 1.5, so no partial
# sum exceeds e^1.5 times the state norm and round-off stays at a few ulps.
MAX_TAYLOR_ORDER = 20
# A step whose Taylor plan needs more terms than this takes the exact factor.
MAX_TAYLOR_TERMS = 64
# Largest (d x B) amplitude array or (steps x B) coupling table of one batch
# of propagate, and largest stack of d x d generators one exact step
# diagonalizes.  A memory guard, not a tuned speed setting: on reproduce fig8
# (6-ring, 300 steps, 1225 cells per grid; 2-vCPU x86-64, one BLAS thread) it
# keeps the peak RSS at 42 MiB against 62 MiB for one unchunked batch per
# grid, at a wall time within run-to-run noise of it; 64 KiB nearly triples
# the time.
MAX_BATCH_BYTES = 1 << 20


def _largest_substep_norm(order: int) -> float:
    """Largest theta whose Taylor tail after the given order,
    theta^(m+1) / (m+1)! / (1 - theta / (m+2)), is at most 2^-53."""
    lo, hi = 0.0, order + 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        tail = mid ** (order + 1) / math.factorial(order + 1) / (1.0 - mid / (order + 2))
        lo, hi = (mid, hi) if tail <= UNIT_ROUNDOFF else (lo, mid)
    return lo


ORDERS = np.arange(MAX_TAYLOR_ORDER, 0, -1)  # highest first: ties go to the fewest substeps
THETA = np.array([_largest_substep_norm(m) for m in ORDERS])
_INVERSE_ORDERS = 1.0 / np.arange(1.0, MAX_TAYLOR_ORDER + 1)[:, None, None, None]


def taylor_plan(norm_dt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order m and substep count s for steps whose generator has the 1-norm
    bound ``norm_dt`` times dt: the pair with the least m * s, and of those
    the fewest substeps, such that each substep's norm is within the largest
    that order m truncates to 2^-53 (THETA)."""
    substeps = np.minimum(np.ceil(np.asarray(norm_dt)[:, None] / THETA), MAX_TAYLOR_TERMS + 1)
    substeps = np.maximum(substeps, 1.0).astype(int)
    best = np.argmin(ORDERS * substeps, axis=1)
    return ORDERS[best], substeps[np.arange(best.size), best]


def _norm1(a: np.ndarray) -> float:
    return float(np.abs(a).sum(axis=0).max())


class SectorPropagator:
    """Applies exp(-i (h0 + g v) dt) block by block.

    ``blocks`` holds the ``Block`` bases, parity halves of the total-S^z
    sectors (or the plain sectors), and ``h0`` and ``v`` the real symmetric
    float64 matrices of the split Hamiltonian on them, as
    ``assemble_hamiltonian`` returns them.  States enter and leave in the
    full space, through ``Block.amplitudes`` and ``embed``.  Only the blocks
    in which the state has amplitude are evolved; their 1-norms are computed
    on first use.
    """

    def __init__(self, blocks: Blocks, h0: Matrices, v: Matrices):
        self.dim = sum(b.size for b in blocks)
        self.blocks = blocks
        self.h0 = h0
        self.v = v
        self._norms: dict[int, tuple[float, float]] = {}

    def spectrum(self, g: float) -> Spectrum:
        """Spectrum of h0 + g v over every block, one ``eigvalsh`` per block
        dimension; eigenvectors on demand."""
        return Spectrum(self.blocks, [h + g * v for h, v in zip(self.h0, self.v)])

    def occupied(self, psi: np.ndarray) -> list[int]:
        """Indices of the blocks in which psi has a nonzero amplitude."""
        return [k for k, b in enumerate(self.blocks) if np.any(b.amplitudes(psi))]

    def norms(self, k: int) -> tuple[float, float]:
        """1-norms of h0 and v on block k."""
        if k not in self._norms:
            self._norms[k] = (_norm1(self.h0[k]), _norm1(self.v[k]))
        return self._norms[k]

    def embed(self, occupied: list[int], amps: list[np.ndarray]) -> np.ndarray:
        """The full-space state (or one column per state) with the given block
        amplitudes, zero elsewhere."""
        psi = np.zeros((self.dim, *amps[0].shape[1:]), dtype=complex)
        for k, amp in zip(occupied, amps):
            self.blocks[k].embed(amp, psi)
        return psi


def _taylor_factor(hv, amp, weight, order, substeps):
    """exp(-i (h0 + g_b v) dt) on each column b of ``amp``, as ``substeps``
    Taylor polynomials of the given order.  ``hv`` is [h0 v] side by side,
    and ``weight`` holds the rows -i dt / s and -i g_b dt / s."""
    d, width = amp.shape
    coefs = weight[:, None, :] * _INVERSE_ORDERS[:order]
    scaled = np.empty((2, d, width), dtype=complex)
    term = np.empty((d, width), dtype=complex)
    stacked, term_real = scaled.view(float).reshape(2 * d, 2 * width), term.view(float)
    for _ in range(substeps):
        total = amp.copy()
        src = amp
        for coef in coefs:
            # term = (-i dt / (s j)) (h0 src + g v src): one real product of
            # [h0 v] with c src stacked over c g src
            np.multiply(src, coef, out=scaled)
            np.matmul(hv, stacked, out=term_real)
            total += term
            src = term
        amp = total
    return amp


def _exact_factor(h0, v, amp, g, dt):
    """exp(-i (h0 + g_b v) dt) on each column b of ``amp`` from the
    eigenpairs of its generator, diagonalized in stacks of at most
    MAX_BATCH_BYTES."""
    d, width = amp.shape
    cols = np.ascontiguousarray(amp.T)
    out = np.empty_like(cols)
    chunk = max(1, MAX_BATCH_BYTES // (8 * d * d))
    for lo in range(0, width, chunk):
        w, q = np.linalg.eigh(h0 + g[lo:lo + chunk, None, None] * v)
        # real eigenvectors: the products act on (re, im) as two real columns
        x = np.matmul(q.transpose(0, 2, 1), cols[lo:lo + chunk].view(float).reshape(-1, d, 2))
        x = x.view(complex)[..., 0] * np.exp(-1j * w * dt)
        out[lo:lo + chunk] = np.matmul(q, x.view(float).reshape(-1, d, 2)).view(complex)[..., 0]
    return out.T


def integration_grid(schedule, n_steps: int) -> np.ndarray:
    """Step boundaries in [0, duration] for the piecewise-constant factorization.

    Pulse trains use the pulse edges themselves; smooth schedules use a uniform
    n_steps grid refined by any jump points (noise windows), merging boundaries
    closer than 1e-9 of the duration.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    T = schedule.duration
    breaks = list(schedule.breakpoints())
    if schedule.piecewise_constant:
        pts = [0.0, *breaks, T]
    else:
        pts = sorted(set(np.linspace(0.0, T, n_steps + 1)) | set(breaks))
    grid = [pts[0]]
    for p in pts[1:]:
        if p - grid[-1] > 1e-9 * T:
            grid.append(p)
    grid[-1] = T
    return np.asarray(grid)


def reduce_density(psi: np.ndarray, keep_sites, n_spins: int) -> np.ndarray:
    """Reduced density matrix of the given sites, tracing out the rest.

    The reduced basis orders the kept sites ascending, most significant first,
    matching the full-space convention.
    """
    keep = sorted(set(int(s) for s in keep_sites))
    if not keep or len(keep) >= n_spins:
        raise ValueError("keep_sites must be a nonempty proper subset of the chain sites")
    if keep[0] < 1 or keep[-1] > n_spins:
        raise ValueError(f"keep_sites {keep} outside 1..{n_spins}")
    rest = [s for s in range(1, n_spins + 1) if s not in keep]
    perm = [s - 1 for s in keep] + [s - 1 for s in rest]
    block = psi.reshape((2,) * n_spins).transpose(perm).reshape(1 << len(keep), -1)
    return block @ block.conj().T


def cut_fidelity(rho_a: np.ndarray, phi_0a: np.ndarray) -> float:
    """sqrt(<phi|rho|phi>): overlap of a reduced state with a target pure state."""
    if rho_a.shape[0] != phi_0a.shape[0]:
        raise ValueError(
            f"dimension mismatch: rho is {rho_a.shape[0]}-dim, target is {phi_0a.shape[0]}-dim"
        )
    val = float(np.real(phi_0a.conj() @ rho_a @ phi_0a))
    return float(np.sqrt(max(val, 0.0)))


def purity(rho: np.ndarray) -> float:
    """Tr rho^2; equals the squared Frobenius norm for Hermitian rho."""
    return float(np.vdot(rho, rho).real)


def entropy(rho: np.ndarray) -> float:
    """Von Neumann entropy -sum(lam ln lam) over eigenvalues above 1e-14."""
    lam = np.linalg.eigvalsh(rho)
    lam = lam[lam > ENTROPY_EIGENVALUE_FLOOR]
    return float(-np.sum(lam * np.log(lam)))


@dataclass(frozen=True)
class TrajectoryProbe:
    """Sampling policy for recorded runs: what to measure and how often.

    ``stride`` records every stride-th step boundary (the initial and final
    times are always included).
    """

    n_spins: int
    subsystem_sites: tuple[int, ...]
    phi_0a: np.ndarray
    stride: int = 1

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled observables of a recorded run, plus its work counts.

    ``gap`` and the degenerate flags come from the energies of every block,
    ``f_g`` from eigenvectors of the block(s) holding the ground subspace
    only; ``vector_blocks`` counts those block eigendecompositions over all
    samples.  The state is pure, so its two subsystems share one Schmidt
    spectrum: the entropy is computed once, on the smaller side, and fills
    both ``entropy_a`` and ``entropy_b``.  ``max_norm_dt`` is the largest
    bound (||h0||_1 + |g| ||v||_1) dt of any step, and ``taylor_matvecs`` the
    Taylor terms applied in all."""

    times: np.ndarray
    g_values: np.ndarray
    f_c: np.ndarray
    f_g: np.ndarray
    purity_a: np.ndarray
    entropy_a: np.ndarray
    entropy_b: np.ndarray
    gap: np.ndarray
    degenerate_flags: np.ndarray
    max_norm_dt: float
    taylor_matvecs: int
    vector_blocks: int

    def final_cut_fidelity(self) -> float:
        return float(self.f_c[-1])

    def final_ground_fidelity(self) -> float:
        return float(self.f_g[-1])


class _Recorder:
    def __init__(self, probe: TrajectoryProbe, propagator: SectorPropagator, schedule):
        self._probe = probe
        self._prop = propagator
        self._schedule = schedule
        rest = tuple(s for s in range(1, probe.n_spins + 1) if s not in probe.subsystem_sites)
        # the side whose reduced density matrix is the smaller one
        self._schmidt_sites = probe.subsystem_sites if len(probe.subsystem_sites) <= len(rest) else rest
        self._prev_ground: np.ndarray | None = None
        self._vector_blocks = 0
        self._cols: list[tuple] = []

    def sample(self, t: float, psi: np.ndarray) -> None:
        probe = self._probe
        g = float(self._schedule.value(t))
        spectrum = self._prop.spectrum(g)
        reference = self._prev_ground if self._prev_ground is not None else psi
        degenerate = spectrum.degenerate()
        try:
            ground = spectrum.ground(reference)
        except DegeneracyError:  # an orthogonal reference
            ground = spectrum.states(1)[:, 0]  # diagnostic only; the flag marks the sample
        self._prev_ground = ground
        self._vector_blocks += spectrum.vector_blocks
        f_g = float(abs(ground.conj() @ psi))
        rho_a = reduce_density(psi, probe.subsystem_sites, probe.n_spins)
        if self._schmidt_sites == probe.subsystem_sites:
            schmidt_entropy = entropy(rho_a)
        else:
            schmidt_entropy = entropy(reduce_density(psi, self._schmidt_sites, probe.n_spins))
        self._cols.append((
            t, g,
            cut_fidelity(rho_a, probe.phi_0a),
            f_g,
            purity(rho_a),
            schmidt_entropy,
            schmidt_entropy,
            spectrum.gap,
            degenerate,
        ))

    def build(self, max_norm_dt: float, taylor_matvecs: int) -> TrajectoryRecord:
        arr = np.asarray([c[:8] for c in self._cols], dtype=float)
        flags = np.asarray([c[8] for c in self._cols], dtype=bool)
        return TrajectoryRecord(
            times=arr[:, 0], g_values=arr[:, 1], f_c=arr[:, 2], f_g=arr[:, 3],
            purity_a=arr[:, 4], entropy_a=arr[:, 5], entropy_b=arr[:, 6],
            gap=arr[:, 7], degenerate_flags=flags,
            max_norm_dt=max_norm_dt, taylor_matvecs=taylor_matvecs,
            vector_blocks=self._vector_blocks,
        )


def propagate(
    propagator: SectorPropagator,
    schedule,
    psi0: np.ndarray,
    n_steps: int,
    probe: TrajectoryProbe | None = None,
) -> tuple[np.ndarray, TrajectoryRecord | None]:
    """Evolve psi0 across the schedule; optionally record a trajectory.

    Returns the final state and, when a probe is given, the sampled record.
    ``schedule`` may also be a list of schedules, which evolve in batches:
    schedules of one kind on one integration grid evolve together as one
    (d x B) array, split so that neither the amplitudes nor the (steps x B)
    couplings of a batch exceed MAX_BATCH_BYTES.  The result is then a
    (dim, B) array, one column per schedule in list order, and does not
    depend on the batching; a probe records one schedule only.  ``n_steps``
    sets the uniform grid for smooth schedules and is ignored for pulse
    trains, which are propagated one exact factor per pulse.  Only the blocks
    in which psi0 has amplitude are evolved; the state is assembled in the
    full space only for samples and the result.
    """
    if not isinstance(schedule, (list, tuple)):
        psi, record = _evolve(propagator, [schedule], integration_grid(schedule, n_steps), psi0, probe)
        return psi[:, 0], record
    if probe is not None:
        raise ValueError("a recorded run propagates one schedule")
    groups: dict[tuple, tuple[np.ndarray, list[int]]] = {}
    for i, one in enumerate(schedule):
        grid = integration_grid(one, n_steps)
        groups.setdefault((one.piecewise_constant, grid.tobytes()), (grid, []))[1].append(i)
    psi0 = np.asarray(psi0, dtype=complex)
    d = sum(propagator.blocks[k].size for k in propagator.occupied(psi0))
    states = np.empty((propagator.dim, len(schedule)), dtype=complex)
    for grid, members in groups.values():
        width = max(1, MAX_BATCH_BYTES // (16 * max(d, grid.size - 1)))
        for lo in range(0, len(members), width):
            chunk = members[lo:lo + width]
            states[:, chunk], _ = _evolve(propagator, [schedule[i] for i in chunk], grid, psi0)
    return states, None


def _evolve(propagator, schedules, grid, psi0, probe=None):
    """The (dim, B) final states of schedules of one kind that share the
    integration grid ``grid``, evolved together, and the record of the first
    when a probe is given."""
    pulses = schedules[0].piecewise_constant
    mids = 0.5 * (grid[:-1] + grid[1:])
    dts = np.diff(grid)
    g_values = np.stack([s.values(mids) for s in schedules], axis=1)
    g_bound = np.abs(g_values).max(axis=1)
    g_rows = np.stack([np.ones_like(g_values), g_values], axis=1)  # (steps, 2, B): 1 and g_b
    psi = np.asarray(psi0, dtype=complex)
    occupied = propagator.occupied(psi)
    amps = [np.repeat(propagator.blocks[k].amplitudes(psi)[:, None], len(schedules), axis=1) for k in occupied]

    hvs = [np.hstack([propagator.h0[k], propagator.v[k]]) for k in occupied]
    plans = []  # per block: (order, substeps, exact, Taylor weights) of every step
    max_norm_dt, matvecs = 0.0, 0
    for k in occupied:
        n0, nv = propagator.norms(k)
        norm_dt = (n0 + g_bound * nv) * dts
        orders, substeps = taylor_plan(norm_dt)
        exact = np.full(dts.size, pulses) | (orders * substeps > MAX_TAYLOR_TERMS)
        plans.append((orders, substeps, exact, (-1j * dts / substeps)[:, None, None] * g_rows))
        max_norm_dt = max(max_norm_dt, float(norm_dt.max()))
        matvecs += int((orders * substeps)[~exact].sum())

    recorder = _Recorder(probe, propagator, schedules[0]) if probe is not None else None
    if recorder is not None:
        recorder.sample(0.0, psi)
    last = dts.size - 1
    for j in range(dts.size):
        for i, (k, (orders, substeps, exact, weights)) in enumerate(zip(occupied, plans)):
            h0, v = propagator.h0[k], propagator.v[k]
            if exact[j]:
                amps[i] = _exact_factor(h0, v, amps[i], g_values[j], dts[j])
            else:
                amps[i] = _taylor_factor(hvs[i], amps[i], weights[j], orders[j], substeps[j])
        if recorder is not None and ((j + 1) % probe.stride == 0 or j == last):
            recorder.sample(float(grid[j + 1]), propagator.embed(occupied, [a[:, 0] for a in amps]))
    states = propagator.embed(occupied, amps)
    return states, (recorder.build(max_norm_dt, matvecs) if recorder is not None else None)
