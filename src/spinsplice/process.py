"""Cut and stitch process setup: initial states, targets, objectives and recorded trajectories.

A process fixes everything the schedule does not: the split Hamiltonian, held
only as the propagator's symmetry blocks, the initial state (the ground state
at the starting coupling), the detached-block target for the cut fidelity, and
the final-time ground state for the ground fidelity.  Endpoint degeneracies are
resolved by perturbing the coupling a small offset toward the interior of the
drive interval and following the unique ground state of that perturbed
Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .chain import (
    ChainSpec,
    DegeneracyError,
    _sector_hamiltonian,
    assemble_hamiltonian,
    cut_components,
    diagonalize,
    ground_states,
    tie_ground,
)
from .control import ControlSchedule
from .dynamics import (
    MAX_BATCH_BYTES,
    SectorPropagator,
    cut_fidelity,
    entropy,
    propagate,
    purity,
    reduce_density,
)

DEFAULT_TIME_STEPS = 300
# How far an endpoint's coupling is nudged toward the interior of [0, 1] for
# the reference that resolves a degenerate ground state there.
DEFAULT_SELECTION_OFFSET = 1e-6

TARGETS = ("cut", "ground")


@dataclass(frozen=True)
class TrajectoryRecord:
    """Sampled observables of a recorded run (``ChainProcess.run``), plus its
    work counts.

    ``gap`` and the degenerate flags are those of the full spectrum.
    ``value_blocks`` and ``vector_blocks`` sum the samples' counts of the
    same names (``chain.Spectra``): the blocks diagonalized for energies, and
    those whose ground vectors were found, one per sample whose ground state
    is not tied (by inverse iteration, or ``eigh``) and every block of a tie
    (by ``eigh``).  They count blocks, not LAPACK calls, since a stacked call
    diagonalizes many blocks.
    ``max_norm_dt`` and ``taylor_matvecs`` are the run's ``Work``."""

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
    value_blocks: int
    vector_blocks: int


@dataclass
class ChainProcess:
    """A prepared cutting or stitching run on one chain."""

    chain: ChainSpec
    direction: str
    psi0: np.ndarray
    start_degenerate: bool
    a_sites: tuple[int, ...]
    b_sites: tuple[int, ...]
    phi_0a: np.ndarray
    final_ground: np.ndarray
    final_degenerate: bool
    propagator: SectorPropagator = field(repr=False)

    def _check_schedule(self, schedule) -> None:
        if schedule.direction != self.direction:
            raise ValueError(
                f"schedule direction {schedule.direction!r} does not match the "
                f"{self.direction!r} process"
            )

    def fidelity(self, schedule, n_steps: int = DEFAULT_TIME_STEPS, target: str = "cut") -> float:
        """Final-time fidelity without recording a trajectory."""
        return float(self.fidelities([schedule], n_steps, target)[0])

    def fidelities(self, schedules, n_steps: int = DEFAULT_TIME_STEPS, target: str = "cut") -> np.ndarray:
        """Final-time fidelity of each schedule, in order, from one batched
        ``propagate`` call; the values do not depend on how it batches them
        (bitwise where the occupied blocks take step factors, to round-off
        on larger blocks).  The cut fidelities come from one stacked
        ``reduce_density`` and one ``cut_fidelity`` call."""
        if target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
        for schedule in schedules:
            self._check_schedule(schedule)
        states, _ = propagate(self.propagator, list(schedules), self.psi0, n_steps)
        if target == "cut":
            return cut_fidelity(reduce_density(states.T, self.a_sites, self.chain.n_spins), self.phi_0a)
        # one dot per column: a stacked product changes the last bit
        return np.array([abs(self.final_ground.conj() @ psi) for psi in states.T])

    def run(self, schedule, n_steps: int = DEFAULT_TIME_STEPS,
            stride: int = 1) -> tuple[np.ndarray, TrajectoryRecord]:
        """Propagate and record the trajectory, sampled at t = 0, every
        ``stride`` steps and at the end.

        The probe only buffers each sample's state.  The samples are scored
        in chunks of MAX_BATCH_BYTES // (16 * 2^N), one chunk whenever the
        buffer fills and one at the end: one ``schedule.values`` call, the
        chunk's gaps, flags, ties and lone ground states from one
        ``propagator.spectra(gs, iterate=True)`` call, the reduced density
        matrices of A for the whole chunk from one product and their cut
        fidelities from one ``cut_fidelity`` call, and one stacked
        ``eigvalsh`` for the entropies.  The entanglement entropy,
        equal on both sides of a pure state, comes from the smaller of the
        two reduced density matrices.  A lone ground state, its block's
        vector by shifted inverse iteration (``chain._lowest_vectors``),
        gives ``f_g`` within ``chain.GROUND_TOLERANCE`` (1e-12) of the
        ``eigh`` vector's.  A tie comes with its blocks' ``eigh`` vectors and
        is resolved sample by sample (``chain.tie_ground``): it follows the
        previous sample's ground state, the first sample's the state itself;
        a reference orthogonal to the tie falls back to the lowest state, and
        the flag marks the sample.  The ground fidelity and the purity stay
        one product per sample, since a stacked one changes the last bit.
        Every value is bitwise what scoring the samples one at a time gives.
        """
        self._check_schedule(schedule)
        n_spins = self.chain.n_spins
        schmidt_sites = self.a_sites if len(self.a_sites) <= len(self.b_sites) else self.b_sites
        chunk = max(1, MAX_BATCH_BYTES // (16 * self.propagator.dim))
        buffered: list[tuple[float, np.ndarray]] = []
        rows: list[tuple] = []
        previous_ground, value_blocks, vector_blocks = None, 0, 0

        def score() -> None:
            nonlocal previous_ground, value_blocks, vector_blocks
            times, states = zip(*buffered)
            buffered.clear()
            gs = schedule.values(np.array(times)).tolist()
            found = self.propagator.spectra(gs, iterate=True)
            psis = np.array(states)
            rho_a = reduce_density(psis, self.a_sites, n_spins)
            rho_small = rho_a if schmidt_sites == self.a_sites else reduce_density(psis, schmidt_sites, n_spins)
            entropies = entropy(rho_small)
            f_c = cut_fidelity(rho_a, self.phi_0a)
            for t, g, psi, ground, tie, gap, flag, rho, f, schmidt_entropy in zip(
                    times, gs, states, found.states, found.ties, found.gap.tolist(), found.degenerate.tolist(),
                    rho_a, f_c, entropies):
                if ground is None:  # a tie, or the lowest energy's neighbour within the threshold
                    try:
                        ground = tie_ground(tie, flag, psi if previous_ground is None else previous_ground)
                    except DegeneracyError:  # an orthogonal reference
                        ground = tie_ground(tie, False)  # the lowest state, diagnostic only; the flag marks the sample
                previous_ground = ground
                rows.append((t, g, f, float(abs(ground.conj() @ psi)),
                             purity(rho), schmidt_entropy, schmidt_entropy, gap, flag))
            value_blocks += int(found.value_blocks.sum())
            vector_blocks += int(found.vector_blocks.sum())

        def sample(t: float, psi: np.ndarray) -> None:
            buffered.append((t, psi))
            if len(buffered) == chunk:
                score()

        psi, work = propagate(self.propagator, schedule, self.psi0, n_steps, probe=sample, stride=stride)
        if buffered:
            score()
        *columns, flags = zip(*rows)
        return psi, TrajectoryRecord(
            *np.asarray(columns, dtype=float), degenerate_flags=np.asarray(flags, dtype=bool),
            max_norm_dt=work.max_norm_dt, taylor_matvecs=work.taylor_matvecs,
            value_blocks=value_blocks, vector_blocks=vector_blocks,
        )


def prepare_process(spec: ChainSpec, direction: str = "cut") -> ChainProcess:
    """Assemble the blocks, pick the initial state, and fix both fidelity targets.

    The chain is assembled once, as the reflection-parity halves of its
    total-S^z sectors; both ground states come from one
    ``SectorPropagator.spectra`` call at the two endpoint couplings, with one
    ``eigh`` per dimension of their ground blocks (``chain.ground_states``), a
    tie resolved by the ground state at the coupling nudged toward the
    interior of the drive interval.  The cut target is the ground state of
    the detached block A, from the plain sectors assembled on A's sites
    renumbered 1..len(A).
    """
    if direction not in ("cut", "stitch"):
        raise ValueError(f"direction must be 'cut' or 'stitch', got {direction!r}")
    propagator = SectorPropagator(*assemble_hamiltonian(spec))
    a_sites, b_sites = cut_components(spec)

    order = {site: k + 1 for k, site in enumerate(a_sites)}
    inner = [(order[i], order[j]) for i, j in spec.bonds()
             if (i, j) not in spec.cut_bonds and i in order and j in order]
    blocks, h_a, _ = _sector_hamiltonian(len(a_sites), inner, frozenset(), spec.exchange, spec.field)
    try:
        (phi_0a,) = ground_states(diagonalize(blocks, [h_a.__getitem__]))
    except DegeneracyError as exc:
        raise DegeneracyError(
            f"the detached block {a_sites} has a degenerate ground state; "
            f"the cut fidelity target is not unique"
        ) from exc

    ends = (1.0, 0.0) if direction == "cut" else (0.0, 1.0)

    def nudged(rows: list[int]):
        gs = [ends[i] + (DEFAULT_SELECTION_OFFSET if ends[i] < 0.5 else -DEFAULT_SELECTION_OFFSET) for i in rows]
        return propagator.spectra(gs)

    found = propagator.spectra(ends)
    psi0, final_ground = (state.astype(complex) for state in ground_states(found, nudged))
    start_degenerate, final_degenerate = found.degenerate.tolist()

    return ChainProcess(
        chain=spec,
        direction=direction,
        psi0=psi0,
        start_degenerate=start_degenerate,
        a_sites=a_sites,
        b_sites=b_sites,
        phi_0a=phi_0a,
        final_ground=final_ground,
        final_degenerate=final_degenerate,
        propagator=propagator,
    )


@dataclass(frozen=True)
class ObjectiveSpec:
    """Recipe turning a free-parameter vector into a final fidelity in [0, 1]."""

    chain: ChainSpec
    kind: str
    duration: float
    n_free_params: int
    target: str = "cut"
    n_steps: int = DEFAULT_TIME_STEPS
    direction: str = "cut"

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {self.target!r}")
        if self.n_free_params < 1:
            raise ValueError("n_free_params must be >= 1")
        if self.n_steps < 1:
            raise ValueError("n_steps must be >= 1")
        self.schedule_for((0.0,) * self.n_free_params)  # reject kind/direction mismatches early

    def schedule_for(self, params) -> ControlSchedule:
        if len(params) != self.n_free_params:
            raise ValueError(f"expected {self.n_free_params} parameters, got {len(params)}")
        return ControlSchedule(self.kind, float(self.duration), tuple(params), self.direction)


def build_objective(
    spec: ObjectiveSpec,
    process: ChainProcess | None = None,
) -> tuple[Callable[[np.ndarray], float | np.ndarray], ChainProcess]:
    """Deterministic objective closure over a shared prepared process.

    The objective takes parameters along the first axis: an ``(n,)`` vector
    gives its fidelity as a float, an ``(n, B)`` array the ``(B,)`` fidelities
    of its columns, evaluated together by ``ChainProcess.fidelities``.
    """
    if process is None:
        process = prepare_process(spec.chain, spec.direction)
    elif process.direction != spec.direction:
        raise ValueError("prepared process direction does not match the objective")

    def objective(params):
        params = np.asarray(params, dtype=float)
        if params.ndim == 1:
            return process.fidelity(spec.schedule_for(params), spec.n_steps, spec.target)
        schedules = [spec.schedule_for(col) for col in params.T]
        return process.fidelities(schedules, spec.n_steps, spec.target)

    return objective, process
