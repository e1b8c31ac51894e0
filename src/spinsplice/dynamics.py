"""Time evolution under h0 + g(t) v and trajectory observables.

Propagation factors the time-ordered exponential into piecewise-constant
steps, sampled at step midpoints on a uniform grid refined by the schedule's
jump points, so that no pulse edge or noise window straddles a step: a smooth
schedule takes n_steps uniform steps, and a pulse train, piecewise constant
already, one uniform step cut at its edges, so exactly one factor per pulse.
Both h0 and v conserve total S^z and commute with the chain's reflection that
keeps the cut bonds, so only the blocks the state occupies, parity halves of
its total-S^z sectors, are evolved, and the state never leaves them.

Every step acts on a batch (``propagate``): one column of block amplitudes
per schedule, B = 1 included.  In each block the generator is centred:
with c0, cv the midpoints and r0, rv the half-widths of the spectra of h0
and v there, a step applies exp(-i ((h0 - c0) + g_b (v - cv)) dt_b) to
column b and the scalar phase exp(-i (c0 + g_b cv) dt_b) is restored when
the state is read.  By Weyl's inequality the centred generator has 2-norm
at most r0 + |g_b| rv, and the Taylor series planned by ``taylor_plan`` on
the bound (r0 + |g_b| rv) dt_b is the exact factor to round-off
(``_taylor_factor``); a step whose plan needs more than
``MAX_TAYLOR_TERMS`` terms takes the exact factor from an
eigendecomposition instead (``_exact_factor``).

The observables (``reduce_density``, ``cut_fidelity``, ``entropy``) take a
stack of states or matrices along a leading axis.  The module does no file
I/O.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .chain import Blocks, Matrices, Spectrum, diagonalize, solve_by_size

ENTROPY_EIGENVALUE_FLOOR = 1e-14
UNIT_ROUNDOFF = 2.0**-53
# Highest Taylor order.  Its largest substep bound (r0 + |g| rv) dt / s is
# about 1.5, so no partial sum exceeds e^1.5 times the state norm and
# round-off stays at a few ulps.
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
    """Order m and substep count s for steps whose Hermitian generator times
    dt has 2-norm at most ``norm_dt``, the centred bound (r0 + |g| rv) dt:
    the pair with the least m * s, and of those the fewest substeps, such
    that each substep's norm is within the largest that order m truncates to
    2^-53 (THETA; Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488 (2011)).
    The tail bound holds in the 2-norm, the norm of the state."""
    substeps = np.minimum(np.ceil(np.asarray(norm_dt)[:, None] / THETA), MAX_TAYLOR_TERMS + 1)
    substeps = np.maximum(substeps, 1.0).astype(int)
    best = np.argmin(ORDERS * substeps, axis=1)
    return ORDERS[best], substeps[np.arange(best.size), best]


class SectorPropagator:
    """Applies exp(-i (h0 + g v) dt) block by block.

    ``blocks`` holds the ``Block`` bases, parity halves of the total-S^z
    sectors (or the plain sectors), and ``h0`` and ``v`` the real symmetric
    float64 matrices of the split Hamiltonian on them, as
    ``assemble_hamiltonian`` returns them.  States enter and leave in the
    full space, through ``Block.amplitudes`` and ``embed``.  Only the blocks
    in which the state has amplitude are evolved; their centres and
    half-widths (``norms``) are computed on first use.
    """

    def __init__(self, blocks: Blocks, h0: Matrices, v: Matrices):
        self.dim = sum(b.size for b in blocks)
        self.blocks = blocks
        self.h0 = h0
        self.v = v
        self._norms: dict[int, tuple[float, float]] = {}
        self._endpoints = None  # every block's energies at g = 0 and g = 1
        self._v_range = None

    def spectra(self, gs) -> list[Spectrum]:
        """Spectra of h0 + g v at each coupling g, pruned by Weyl's bounds
        and diagonalized together (``chain.diagonalize``), with the
        eigenvectors of each one's ground or tie blocks.

        The first call diagonalizes every block of h0 and of h0 + v, one
        ``eigvalsh`` per dimension for both: the whole spectra at g = 0 and
        g = 1, kept for those couplings, and each block's energy range there.
        At any other g, h0 + g v = (1 - g) h0 + g (h0 + v), and Weyl's
        inequality bounds block b's energies by (1 - g) lambda_min(h0) +
        g lambda_min(h0 + v) from below, each end taken from the top where its
        weight is negative, and likewise from above.  Outside [0, 1] the
        same inequality on h0 + g v, from v's ranges (found on the first such
        g), tightens them; inside, it never does.  Each bound is widened by
        4 d eps times the weighted norms on a block of dimension d, above the
        round-off of the diagonalizations it compares, so that it never
        excludes an energy ``eigvalsh`` would compute.  Each spectrum
        diagonalizes only the blocks its bounds admit.  g = 0 and g = 1 get
        their kept energies and no bounds, which there would need v's ranges.
        """
        self._diagonalize_endpoints()
        gs = list(gs)
        bounded = np.array([g for g in gs if g not in self._endpoints], dtype=float)[:, None]
        bounds = zip(*self._bounds(bounded)) if bounded.size else iter(())
        return diagonalize(self.blocks, [self._matrix(g) for g in gs],
                           [None if g in self._endpoints else next(bounds) for g in gs],
                           [self._endpoints.get(g) for g in gs])

    def _diagonalize_endpoints(self) -> None:
        """Every block's energies at g = 0 and g = 1 and their ranges, once."""
        if self._endpoints is None:
            coupled = [h + 1.0 * v for h, v in zip(self.h0, self.v)]
            (rest, self._h0_range), (joined, self._h1_range) = self._ranges(self.h0, coupled)
            self._endpoints = {0.0: rest, 1.0: joined}

    def _bounds(self, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Weyl's lower and upper bounds on every block's energies, one row
        per coupling of the column ``g``."""
        lower, upper = _weyl((1.0 - g, self._h0_range), (g, self._h1_range))
        outside = ~((0.0 < g) & (g < 1.0))
        if outside.any():
            if self._v_range is None:
                ((_, self._v_range),) = self._ranges(self.v)
            by_v = _weyl((1.0, self._h0_range), (g, self._v_range))
            lower = np.where(outside, np.maximum(lower, by_v[0]), lower)
            upper = np.where(outside, np.minimum(upper, by_v[1]), upper)
        return lower, upper

    def _matrix(self, g: float) -> Callable[[int], np.ndarray]:
        """The block matrices of h0 + g v, formed on request."""
        return lambda b: self.h0[b] + g * self.v[b]

    def _ranges(self, *operators: Matrices) -> list[tuple[dict[int, np.ndarray], np.ndarray]]:
        """For each operator, the energies of every block, from one
        ``eigvalsh`` per dimension for all the operators, and the rows of a
        (3, blocks) array: each block's lowest and highest energy and its
        round-off slack 4 d eps ||M||."""
        blocks, sizes = range(len(self.blocks)), [b.size for b in self.blocks]
        energies = solve_by_size(np.linalg.eigvalsh, [(op.__getitem__, sizes, blocks) for op in operators])
        ends = np.array([[(e[b][0], e[b][-1]) for b in blocks] for e in energies])
        slack = _slack(np.array(sizes), np.abs(ends).max(axis=2))
        return [(e, np.array([*end.T, s])) for e, end, s in zip(energies, ends, slack)]

    def occupied(self, psi: np.ndarray) -> list[int]:
        """Indices of the blocks in which psi has a nonzero amplitude."""
        return [k for k, b in enumerate(self.blocks) if np.any(b.amplitudes(psi))]

    def norms(self, k: int) -> tuple[float, float, float, float]:
        """Centres and half-widths (c0, r0, cv, rv) of the spectra of h0 and
        of v on block k: each the midpoint and half the width of the block's
        energy range, the half-width widened by the range's round-off slack
        4 d eps ||M||, so that ||M - c||_2 <= r.  h0's range is the one
        ``spectra`` keeps; v's comes from one ``eigvalsh`` on first use."""
        if k not in self._norms:
            self._diagonalize_endpoints()
            energies = np.linalg.eigvalsh(self.v[k])
            ends = energies[[0, -1]]
            v_range = (*ends, _slack(energies.size, np.abs(ends).max()))
            self._norms[k] = (*_centre(*self._h0_range[:, k]), *_centre(*v_range))
        return self._norms[k]

    def embed(self, occupied: list[int], amps: list[np.ndarray]) -> np.ndarray:
        """The full-space state (or one column per state) with the given block
        amplitudes, zero elsewhere."""
        psi = np.zeros((self.dim, *amps[0].shape[1:]), dtype=complex)
        for k, amp in zip(occupied, amps):
            self.blocks[k].embed(amp, psi)
        return psi


def _slack(size, magnitude):
    """Round-off slack 4 d eps ||M|| of energies ``eigvalsh`` computes on a
    block of dimension d whose largest energy magnitude is ||M||."""
    return 4 * np.finfo(float).eps * size * magnitude


def _centre(lowest: float, highest: float, slack: float) -> tuple[float, float]:
    """Midpoint and half-width, widened by ``slack``, of an energy range."""
    return float(0.5 * (lowest + highest)), float(0.5 * (highest - lowest) + slack)


def _weyl(*terms: tuple[float | np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Per-block lower and upper bounds on the energies of sum_k c_k M_k,
    from the (lowest, highest, slack) rows of each M_k's ranges: Weyl's
    inequality, each bound widened by the weighted slacks.  A weight may be
    a column of couplings, one row of bounds each."""
    lower = upper = 0.0
    for c, (lo, hi, slack) in terms:
        positive = np.asarray(c) >= 0
        lower = lower + c * np.where(positive, lo, hi) - np.abs(c) * slack
        upper = upper + c * np.where(positive, hi, lo) + np.abs(c) * slack
    return lower, upper


def _taylor_factor(hv, amp, weight, order, substeps):
    """exp(-i (h0 + g_b v) dt_b) on each column b of ``amp``, as ``substeps``
    Taylor polynomials of the given order.  ``hv`` is [h0 v] side by side,
    and ``weight`` holds the rows -i dt_b / s and -i g_b dt_b / s."""
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
    """exp(-i (h0 + g_b v) dt_b) on each column b of ``amp`` from the
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
        x = x.view(complex)[..., 0] * np.exp(-1j * w * dt[lo:lo + chunk, None])
        out[lo:lo + chunk] = np.matmul(q, x.view(float).reshape(-1, d, 2)).view(complex)[..., 0]
    return out.T


def integration_grid(schedule, n_steps: int) -> np.ndarray:
    """Step boundaries in [0, duration] for the piecewise-constant factorization.

    A uniform grid of n_steps steps, or of one step for a piecewise-constant
    schedule (a pulse train), sorted together with the schedule's jump points
    (pulse edges, noise window edges).  A boundary within 1e-9 of the
    duration of the one before it is dropped, and the last is the duration.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    T = schedule.duration
    uniform = np.linspace(0.0, T, (1 if schedule.piecewise_constant else n_steps) + 1)
    pts = np.sort(np.concatenate([uniform, schedule.breakpoints()]), kind="stable")
    grid = pts[np.diff(pts, prepend=-np.inf) > 1e-9 * T]
    grid[-1] = T
    return grid


def reduce_density(psi: np.ndarray, keep_sites, n_spins: int) -> np.ndarray:
    """Reduced density matrix of the given sites, tracing out the rest.

    ``psi`` is one full-space state, or a stack of them along a leading
    axis, each of which gets its own matrix.  The reduced basis orders the
    kept sites ascending, most significant first, matching the full-space
    convention.
    """
    keep = sorted(set(int(s) for s in keep_sites))
    if not keep or len(keep) >= n_spins:
        raise ValueError("keep_sites must be a nonempty proper subset of the chain sites")
    if keep[0] < 1 or keep[-1] > n_spins:
        raise ValueError(f"keep_sites {keep} outside 1..{n_spins}")
    rest = [s for s in range(1, n_spins + 1) if s not in keep]
    stack = psi.shape[:-1]
    perm = [*range(len(stack)), *(len(stack) + s - 1 for s in keep + rest)]
    block = psi.reshape(*stack, *(2,) * n_spins).transpose(perm).reshape(*stack, 1 << len(keep), 1 << len(rest))
    return block @ block.conj().swapaxes(-1, -2)


def cut_fidelity(rho_a: np.ndarray, phi_0a: np.ndarray) -> float | np.ndarray:
    """sqrt(<phi|rho|phi>): overlap of a reduced state with a target pure
    state, for one matrix or each of a stack along a leading axis."""
    if rho_a.shape[-1] != phi_0a.shape[0]:
        raise ValueError(
            f"dimension mismatch: rho is {rho_a.shape[-1]}-dim, target is {phi_0a.shape[0]}-dim"
        )
    # (1, d) rows times (d, 1): one dot per matrix, as for a lone vector
    val = np.real((phi_0a.conj() @ rho_a)[..., None, :] @ phi_0a[:, None])[..., 0, 0]
    out = np.sqrt(np.where(val < 0.0, 0.0, val))
    return float(out) if rho_a.ndim == 2 else out


def purity(rho: np.ndarray) -> float:
    """Tr rho^2; equals the squared Frobenius norm for Hermitian rho."""
    return float(np.vdot(rho, rho).real)


def entropy(rho: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy -sum(lam ln lam) over eigenvalues above 1e-14,
    of one matrix, or of each of a stack from one stacked ``eigvalsh``."""
    lams = np.linalg.eigvalsh(rho)
    out = np.array([-np.sum(lam * np.log(lam)) for lam in (
        row[row > ENTROPY_EIGENVALUE_FLOOR] for row in lams.reshape(-1, lams.shape[-1]))])
    return float(out[0]) if lams.ndim == 1 else out.reshape(lams.shape[:-1])


class Work(NamedTuple):
    """Work of one ``propagate`` call: the largest centred bound
    (r0 + |g| rv) dt of any step on any occupied block, where r0 and rv are
    the half-widths of h0's and v's spectra there (``SectorPropagator.norms``),
    and the Taylor terms applied in all (each one matrix product per occupied
    block)."""

    max_norm_dt: float
    taylor_matvecs: int


def propagate(propagator: SectorPropagator, schedule, psi0: np.ndarray, n_steps: int,
              probe: Callable[[float, np.ndarray], None] | None = None, stride: int = 1) -> tuple[np.ndarray, Work]:
    """Evolve psi0 across the schedule; return the final state and the Work.

    ``schedule`` may also be a list of schedules, which evolve in batches:
    schedules with the same number of integration steps evolve together as
    one (d x B) array, each on its own grid, split so that neither the
    amplitudes nor the (steps x B) couplings of a batch exceed
    MAX_BATCH_BYTES.  The result is then a (dim, B) array, one column per
    schedule in list order, and does not depend on the batching; the Work
    holds the largest step bound and the total Taylor terms over all batches.
    ``n_steps`` sets the uniform grid of ``integration_grid``, which takes
    one factor per pulse of a pulse train whatever its value.  A probe, for
    one schedule passed alone, is called as ``probe(t, psi)`` with the
    full-space state at t = 0, at every ``stride``-th step boundary and at
    the end.  Only the blocks in which psi0 has amplitude are evolved; the
    state is assembled in the full space only for the probe and the result.
    """
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    single = not isinstance(schedule, (list, tuple))
    if probe is not None and not single:
        raise ValueError("a probed run propagates one schedule")
    schedules = [schedule] if single else schedule
    psi0 = np.asarray(psi0, dtype=complex)
    occupied = propagator.occupied(psi0)
    amps = [propagator.blocks[k].amplitudes(psi0) for k in occupied]
    d = sum(a.size for a in amps)
    if probe is not None:
        probe(0.0, psi0)
    grids = [integration_grid(one, n_steps) for one in schedules]
    groups: dict[int, list[int]] = {}
    for i, grid in enumerate(grids):
        groups.setdefault(grid.size, []).append(i)
    states = np.empty((propagator.dim, len(schedules)), dtype=complex)
    max_norm_dt, matvecs = 0.0, 0
    for size, members in groups.items():
        width = max(1, MAX_BATCH_BYTES // (16 * max(d, size - 1)))
        for lo in range(0, len(members), width):
            chunk = members[lo:lo + width]
            states[:, chunk], work = _evolve(propagator, [schedules[i] for i in chunk],
                                             np.stack([grids[i] for i in chunk], axis=1),
                                             occupied, amps, probe, stride)
            max_norm_dt, matvecs = max(max_norm_dt, work.max_norm_dt), matvecs + work.taylor_matvecs
    return (states[:, 0] if single else states), Work(max_norm_dt, matvecs)


def _evolve(propagator, schedules, grids, occupied, amps, probe, stride):
    """The (dim, B) final states of schedules with the same step count,
    column b evolved on the integration grid ``grids[:, b]`` from the state
    with amplitudes ``amps`` in the ``occupied`` blocks, and their Work; a
    probe sees the first column every ``stride`` steps and at the end.  Each
    block evolves under its centred h0 - c0 and v - cv, and its columns take
    back the phase exp(-i sum (c0 + g_b cv) dt_b) of the steps so far
    whenever the state is read.  Each step of a block has one Taylor plan
    for every column, from the largest bound (r0 + |g_b| rv) dt_b of the
    batch."""
    dts = np.diff(grids, axis=0)
    g_values = np.stack([s.values(0.5 * (grid[:-1] + grid[1:])) for s, grid in zip(schedules, grids.T)],
                        axis=1)
    g_rows = np.stack([np.ones_like(g_values), g_values], axis=1)  # (steps, 2, B): 1 and g_b
    amps = [np.repeat(a[:, None], len(schedules), axis=1) for a in amps]

    centred = []  # per block: h0 - c0 and v - cv
    plans = []  # per block: (order, substeps, exact, Taylor weights) of every step
    phases = []  # per block: exp(-i sum (c0 + g_b cv) dt_b) up to each step's end
    max_norm_dt, matvecs = 0.0, 0
    for k in occupied:
        c0, r0, cv, rv = propagator.norms(k)
        shift = np.eye(propagator.h0[k].shape[0])
        centred.append((propagator.h0[k] - c0 * shift, propagator.v[k] - cv * shift))
        phases.append(np.exp(-1j * np.cumsum((c0 + cv * g_values) * dts, axis=0)))
        norm_dt = ((r0 + np.abs(g_values) * rv) * dts).max(axis=1)
        orders, substeps = taylor_plan(norm_dt)
        exact = orders * substeps > MAX_TAYLOR_TERMS
        plans.append((orders, substeps, exact, (-1j * dts / substeps[:, None])[:, None, :] * g_rows))
        max_norm_dt = max(max_norm_dt, float(norm_dt.max()))
        matvecs += int((orders * substeps)[~exact].sum())
    hvs = [np.hstack(pair) for pair in centred]

    last = dts.shape[0] - 1
    for j in range(dts.shape[0]):
        for i, (orders, substeps, exact, weights) in enumerate(plans):
            if exact[j]:
                amps[i] = _exact_factor(*centred[i], amps[i], g_values[j], dts[j])
            else:
                amps[i] = _taylor_factor(hvs[i], amps[i], weights[j], orders[j], substeps[j])
        if probe is not None and ((j + 1) % stride == 0 or j == last):
            probe(float(grids[j + 1, 0]),
                  propagator.embed(occupied, [a[:, 0] * phase[j, 0] for a, phase in zip(amps, phases)]))
    return propagator.embed(occupied, [a * phase[-1] for a, phase in zip(amps, phases)]), Work(max_norm_dt, matvecs)
