"""Time evolution under h0 + g(t) v and trajectory observables.

Propagation factors the time-ordered exponential into piecewise-constant
steps, each computed exactly from the spectral decomposition of the Hermitian
generator.  Both h0 and v conserve total S^z, so every step diagonalizes only
the sectors the state occupies and the state never leaves them.  Smooth
schedules are sampled at step midpoints on a uniform grid (refined so noise
windows never straddle a step); pulse trains are propagated with exactly one
factor per pulse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import DegeneracyError, Spectrum, restrict, sector_partition, select_ground

ENTROPY_EIGENVALUE_FLOOR = 1e-14

CSV_COLUMNS = ("t", "g", "f_c", "f_g", "purity_A", "entropy_A", "entropy_B", "gap")


class SectorPropagator:
    """Applies exp(-i (h0 + g v) dt) block by block.

    The blocks are the total-S^z sectors that ``sector_partition`` verifies
    for h0 and v together, or the whole space when that check fails.  Each
    step diagonalizes only the blocks in which the state has amplitude.
    """

    def __init__(self, h0: np.ndarray, v: np.ndarray):
        if h0.shape != v.shape:
            raise ValueError(f"h0 and v must have equal shapes, got {h0.shape} and {v.shape}")
        self.dim = h0.shape[0]
        self.blocks = sector_partition(h0, v)
        self._h0 = [restrict(h0, b) for b in self.blocks]
        self._v = [restrict(v, b) for b in self.blocks]

    def spectrum(self, g: float) -> Spectrum:
        """Eigenpairs of h0 + g v over every block."""
        return Spectrum(self.dim, self.blocks, [h + g * v for h, v in zip(self._h0, self._v)])

    def occupied(self, psi: np.ndarray) -> list[int]:
        """Indices of the blocks in which psi has a nonzero entry."""
        return [k for k, b in enumerate(self.blocks) if np.any(psi[b])]

    def step_block(self, k: int, amp: np.ndarray, g: float, dt: float) -> np.ndarray:
        """One factor applied to the amplitudes ``amp`` of block k."""
        w, q = np.linalg.eigh(self._h0[k] + g * self._v[k])
        if np.iscomplexobj(q):
            return q @ (np.exp(-1j * w * dt) * (q.conj().T @ amp))
        # real symmetric generator: split re/im so the matvecs stay real
        amp = (q.T @ amp.real) + 1j * (q.T @ amp.imag)
        amp *= np.exp(-1j * w * dt)
        return (q @ amp.real) + 1j * (q @ amp.imag)

    def embed(self, occupied: list[int], amps: list[np.ndarray]) -> np.ndarray:
        """The full-space state with the given block amplitudes, zero elsewhere."""
        psi = np.zeros(self.dim, dtype=complex)
        for k, amp in zip(occupied, amps):
            psi[self.blocks[k]] = amp
        return psi

    def step(self, psi: np.ndarray, g: float, dt: float) -> np.ndarray:
        """One factor exp(-i (h0 + g v) dt) applied to a full-space state."""
        occupied = self.occupied(psi)
        return self.embed(occupied, [self.step_block(k, psi[self.blocks[k]], g, dt) for k in occupied])


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
    times: np.ndarray
    g_values: np.ndarray
    f_c: np.ndarray
    f_g: np.ndarray
    purity_a: np.ndarray
    entropy_a: np.ndarray
    entropy_b: np.ndarray
    gap: np.ndarray
    degenerate_flags: np.ndarray

    def final_cut_fidelity(self) -> float:
        return float(self.f_c[-1])

    def final_ground_fidelity(self) -> float:
        return float(self.f_g[-1])

    def rows(self):
        for k in range(len(self.times)):
            yield (
                self.times[k], self.g_values[k], self.f_c[k], self.f_g[k],
                self.purity_a[k], self.entropy_a[k], self.entropy_b[k], self.gap[k],
            )

    def to_csv(self, stream) -> None:
        stream.write(",".join(CSV_COLUMNS) + "\n")
        for row in self.rows():
            stream.write(",".join(f"{x:.15e}" for x in row) + "\n")


class _Recorder:
    def __init__(self, probe: TrajectoryProbe, propagator: SectorPropagator, schedule):
        self._probe = probe
        self._prop = propagator
        self._schedule = schedule
        self._prev_ground: np.ndarray | None = None
        self._cols: list[tuple] = []

    def sample(self, t: float, psi: np.ndarray) -> None:
        probe = self._probe
        g = float(self._schedule.value(t))
        spectrum = self._prop.spectrum(g)
        reference = self._prev_ground if self._prev_ground is not None else psi
        try:
            selection = select_ground(spectrum, reference)
            ground, degenerate = selection.state, selection.degenerate
        except DegeneracyError:
            ground, degenerate = spectrum.states(1)[:, 0], True  # diagnostic only; the flag marks the sample
        self._prev_ground = ground
        f_g = float(abs(ground.conj() @ psi))
        rho_a = reduce_density(psi, probe.subsystem_sites, probe.n_spins)
        rest = tuple(s for s in range(1, probe.n_spins + 1) if s not in probe.subsystem_sites)
        rho_b = reduce_density(psi, rest, probe.n_spins)
        self._cols.append((
            t, g,
            cut_fidelity(rho_a, probe.phi_0a),
            f_g,
            purity(rho_a),
            entropy(rho_a),
            entropy(rho_b),
            spectrum.gap,
            degenerate,
        ))

    def build(self) -> TrajectoryRecord:
        arr = np.asarray([c[:8] for c in self._cols], dtype=float)
        flags = np.asarray([c[8] for c in self._cols], dtype=bool)
        return TrajectoryRecord(
            times=arr[:, 0], g_values=arr[:, 1], f_c=arr[:, 2], f_g=arr[:, 3],
            purity_a=arr[:, 4], entropy_a=arr[:, 5], entropy_b=arr[:, 6],
            gap=arr[:, 7], degenerate_flags=flags,
        )


def propagate(
    h0: np.ndarray,
    v: np.ndarray,
    schedule,
    psi0: np.ndarray,
    n_steps: int,
    probe: TrajectoryProbe | None = None,
    propagator: SectorPropagator | None = None,
) -> tuple[np.ndarray, TrajectoryRecord | None]:
    """Evolve psi0 across the schedule; optionally record a trajectory.

    Returns the final state and, when a probe is given, the sampled record.
    ``n_steps`` sets the uniform grid for smooth schedules and is ignored for
    pulse trains, which are propagated one exact factor per pulse.  Only the
    blocks in which psi0 has amplitude are evolved; the state is assembled in
    the full space only for samples and the result.
    """
    prop = propagator if propagator is not None else SectorPropagator(h0, v)
    grid = integration_grid(schedule, n_steps)
    mids = 0.5 * (grid[:-1] + grid[1:])
    g_values = schedule.values(mids)
    dts = np.diff(grid)
    psi = np.asarray(psi0, dtype=complex)
    occupied = prop.occupied(psi)
    amps = [psi[prop.blocks[k]] for k in occupied]
    recorder = _Recorder(probe, prop, schedule) if probe is not None else None
    if recorder is not None:
        recorder.sample(0.0, psi)
    last = len(mids) - 1
    for j in range(len(mids)):
        amps = [prop.step_block(k, amp, g_values[j], dts[j]) for k, amp in zip(occupied, amps)]
        if recorder is not None and ((j + 1) % probe.stride == 0 or j == last):
            recorder.sample(float(grid[j + 1]), prop.embed(occupied, amps))
    return prop.embed(occupied, amps), (recorder.build() if recorder is not None else None)
