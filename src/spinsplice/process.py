"""Cut and stitch process setup: initial states, targets, and objectives.

A process fixes everything the schedule does not: the split Hamiltonian, held
only as the propagator's symmetry blocks, the initial state (the ground state
at the starting coupling), the detached-block target for the cut fidelity, and
the final-time ground state for the ground fidelity.  Endpoint degeneracies are
resolved by perturbing the coupling a small offset toward the interior of the
drive interval and following the unique ground state of that perturbed
Hamiltonian.

Schedules known up front are scored together: ``ChainProcess.fidelities``
scores the final states of one batched ``propagate`` call, and ``fidelity`` is
its one-schedule case.  An objective from ``build_objective`` takes an ``(n, B)``
parameter array and evaluates its B columns in one such call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .chain import (
    DEFAULT_SELECTION_OFFSET,
    ChainSpec,
    DegeneracyError,
    Spectrum,
    _sector_hamiltonian,
    assemble_hamiltonian,
    by_size,
    cut_components,
    resolve_ground,
)
from .control import ControlSchedule, linear_baseline, make_schedule
from .dynamics import (
    SectorPropagator,
    TrajectoryProbe,
    TrajectoryRecord,
    cut_fidelity,
    propagate,
    reduce_density,
)

DEFAULT_TIME_STEPS = 300

TARGETS = ("cut", "ground")


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
        ``propagate`` call; the values do not depend on how it batches them."""
        if target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
        for schedule in schedules:
            self._check_schedule(schedule)
        states, _ = propagate(self.propagator, list(schedules), self.psi0, n_steps)
        return np.array([self._score(psi, target) for psi in states.T])

    def _score(self, psi: np.ndarray, target: str) -> float:
        if target == "cut":
            rho = reduce_density(psi, self.a_sites, self.chain.n_spins)
            return cut_fidelity(rho, self.phi_0a)
        return float(abs(self.final_ground.conj() @ psi))

    def baseline_fidelity(self, duration: float, n_steps: int = DEFAULT_TIME_STEPS, target: str = "cut") -> float:
        return self.fidelity(linear_baseline(duration, self.direction), n_steps, target)

    def run(
        self,
        schedule,
        n_steps: int = DEFAULT_TIME_STEPS,
        stride: int = 1,
    ) -> tuple[np.ndarray, TrajectoryRecord]:
        """Propagate and record the full trajectory."""
        self._check_schedule(schedule)
        probe = TrajectoryProbe(
            n_spins=self.chain.n_spins,
            subsystem_sites=self.a_sites,
            phi_0a=self.phi_0a,
            stride=stride,
        )
        return propagate(self.propagator, schedule, self.psi0, n_steps, probe=probe)


def prepare_process(spec: ChainSpec, direction: str = "cut") -> ChainProcess:
    """Assemble the blocks, pick the initial state, and fix both fidelity targets.

    The chain is assembled once, as the reflection-parity halves of its
    total-S^z sectors; both ground states come from their spectra.  The cut
    target is the ground state of the detached block A, assembled as plain
    sectors on A's sites renumbered 1..len(A).
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
        phi_0a = resolve_ground(Spectrum(1 << len(a_sites), blocks, by_size(h_a)), None).state
    except DegeneracyError as exc:
        raise DegeneracyError(
            f"the detached block {a_sites} has a degenerate ground state; "
            f"the cut fidelity target is not unique"
        ) from exc

    g_start = 1.0 if direction == "cut" else 0.0
    g_end = 1.0 - g_start
    # references nudge the coupling toward the interior of the drive interval
    inward = -DEFAULT_SELECTION_OFFSET if direction == "cut" else DEFAULT_SELECTION_OFFSET
    start = resolve_ground(propagator.spectrum(g_start), lambda: propagator.spectrum(g_start + inward))
    final = resolve_ground(propagator.spectrum(g_end), lambda: propagator.spectrum(g_end - inward))

    return ChainProcess(
        chain=spec,
        direction=direction,
        psi0=start.state.astype(complex),
        start_degenerate=start.degenerate,
        a_sites=a_sites,
        b_sites=b_sites,
        phi_0a=phi_0a,
        final_ground=final.state.astype(complex),
        final_degenerate=final.degenerate,
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
        # reject kind/direction mismatches early
        make_schedule(self.kind, self.duration, (0.0,) * self.n_free_params,
                      self.direction if self.kind == "pulse" else None)

    def schedule_for(self, params) -> ControlSchedule:
        if len(params) != self.n_free_params:
            raise ValueError(f"expected {self.n_free_params} parameters, got {len(params)}")
        return make_schedule(self.kind, self.duration, tuple(float(p) for p in params),
                             self.direction if self.kind == "pulse" else None)


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
