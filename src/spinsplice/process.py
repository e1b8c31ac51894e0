"""Cut and stitch process setup: initial states, targets, and objectives.

A process fixes everything the schedule does not: the split Hamiltonian, the
initial state (the ground state at the starting coupling), the detached-block
target for the cut fidelity, and the final-time ground state for the ground
fidelity.  Endpoint degeneracies are resolved by perturbing the coupling a
small offset toward the interior of the drive interval and following the
unique ground state of that perturbed Hamiltonian.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .chain import (
    DEFAULT_SELECTION_OFFSET,
    ChainSpec,
    DegeneracyError,
    assemble_hamiltonian,
    cut_components,
    detached_block_hamiltonian,
    ground_state,
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
    h0: np.ndarray
    v: np.ndarray
    psi0: np.ndarray
    start_degenerate: bool
    a_sites: tuple[int, ...]
    b_sites: tuple[int, ...]
    phi_0a: np.ndarray
    final_ground: np.ndarray
    final_degenerate: bool
    selection_offset: float
    propagator: SectorPropagator = field(repr=False)

    def _check_schedule(self, schedule) -> None:
        if schedule.direction != self.direction:
            raise ValueError(
                f"schedule direction {schedule.direction!r} does not match the "
                f"{self.direction!r} process"
            )

    def final_state(self, schedule, n_steps: int = DEFAULT_TIME_STEPS) -> np.ndarray:
        self._check_schedule(schedule)
        psi, _ = propagate(self.h0, self.v, schedule, self.psi0, n_steps, propagator=self.propagator)
        return psi

    def fidelity(self, schedule, n_steps: int = DEFAULT_TIME_STEPS, target: str = "cut") -> float:
        """Final-time fidelity without recording a trajectory."""
        if target not in TARGETS:
            raise ValueError(f"target must be one of {TARGETS}, got {target!r}")
        psi = self.final_state(schedule, n_steps)
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
        psi, record = propagate(
            self.h0, self.v, schedule, self.psi0, n_steps,
            probe=probe, propagator=self.propagator,
        )
        return psi, record


def prepare_process(
    spec: ChainSpec,
    direction: str = "cut",
    selection_offset: float = DEFAULT_SELECTION_OFFSET,
) -> ChainProcess:
    """Assemble operators, pick the initial state, and fix both fidelity targets."""
    if direction not in ("cut", "stitch"):
        raise ValueError(f"direction must be 'cut' or 'stitch', got {direction!r}")
    h0, v = assemble_hamiltonian(spec)
    a_sites, b_sites = cut_components(spec)

    block = detached_block_hamiltonian(spec, a_sites)
    try:
        phi_0a = ground_state(block).state
    except DegeneracyError as exc:
        raise DegeneracyError(
            f"the detached block {a_sites} has a degenerate ground state; "
            f"the cut fidelity target is not unique"
        ) from exc

    g_start = 1.0 if direction == "cut" else 0.0
    g_end = 1.0 - g_start
    # references nudge the coupling toward the interior of the drive interval
    start_ref = h0 + (g_start + (-selection_offset if direction == "cut" else selection_offset)) * v
    end_ref = h0 + (g_end + (selection_offset if direction == "cut" else -selection_offset)) * v

    start = ground_state(h0 + g_start * v, start_ref, selection_offset)
    final = ground_state(h0 + g_end * v, end_ref, selection_offset)

    return ChainProcess(
        chain=spec,
        direction=direction,
        h0=h0,
        v=v,
        psi0=start.state.astype(complex),
        start_degenerate=start.degenerate,
        a_sites=a_sites,
        b_sites=b_sites,
        phi_0a=phi_0a,
        final_ground=final.state.astype(complex),
        final_degenerate=final.degenerate,
        selection_offset=selection_offset,
        propagator=SectorPropagator(h0, v),
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
) -> tuple[Callable[[np.ndarray], float], ChainProcess]:
    """Deterministic objective closure over a shared prepared process."""
    if process is None:
        process = prepare_process(spec.chain, spec.direction)
    elif process.direction != spec.direction:
        raise ValueError("prepared process direction does not match the objective")

    def objective(params) -> float:
        return process.fidelity(spec.schedule_for(params), spec.n_steps, spec.target)

    return objective, process
