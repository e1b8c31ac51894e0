"""Cutting and stitching Heisenberg spin chains with optimized bond control."""

from ._version import __version__
from .chain import ChainSpec, DegeneracyError, assemble_hamiltonian
from .control import (
    ControlSchedule,
    apply_noise,
    linear_baseline,
    polynomial_cut,
    polynomial_stitch,
    pulse_train,
    sine_cut,
)
from .dynamics import (
    SectorPropagator,
    cut_fidelity,
    entropy,
    propagate,
    purity,
    reduce_density,
)
from .optimize import (
    LandscapeAxis,
    LandscapeGrid,
    OptimizationReport,
    bfgs_maximize,
    finite_difference_gradient,
    scan_landscape,
)
from .process import (
    DEFAULT_TIME_STEPS,
    ChainProcess,
    ObjectiveSpec,
    TrajectoryRecord,
    build_objective,
    prepare_process,
)
from . import reproduce
from .runner import ConfigError, RunConfig, execute, parse_config

__all__ = [
    "__version__",
    "ChainSpec", "DegeneracyError", "assemble_hamiltonian",
    "ControlSchedule", "apply_noise", "linear_baseline", "polynomial_cut",
    "polynomial_stitch", "pulse_train", "sine_cut",
    "SectorPropagator", "cut_fidelity", "entropy", "propagate", "purity", "reduce_density",
    "LandscapeAxis", "LandscapeGrid", "OptimizationReport", "bfgs_maximize",
    "finite_difference_gradient", "scan_landscape",
    "DEFAULT_TIME_STEPS", "ChainProcess", "ObjectiveSpec", "TrajectoryRecord",
    "build_objective", "prepare_process",
    "reproduce",
    "ConfigError", "RunConfig", "execute", "parse_config",
]
