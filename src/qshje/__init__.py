"""Reduced-action solutions of the stationary quantum Hamilton-Jacobi
equation in Cartesian, spherical and cylindrical symmetry, with pointwise
verification of every component and assembled equation."""

import os

# qshje makes no BLAS or LAPACK call, and OpenBLAS's worker pool costs about
# 80 ms per process; this must run before numpy is first imported.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .domain import (
    CoulombPotential,
    Effective1DProblem,
    HarmonicPotential,
    PhysConstants,
    PotentialSpec,
    PowerLawPotential,
    QuantumNumbers,
    TabulatedPotential,
    ZeroPotential,
    axial_problem,
    azimuthal_problem,
    cartesian_axis_problem,
    cylindrical_radial_problem,
    lambda_from_ell,
    spherical_polar_problem,
    spherical_radial_problem,
)
from .config import (
    DEFAULT_HBAR_SCAN,
    ComponentConfig,
    RunConfig,
    load_config,
    parse_config,
    potential_from_mapping,
)
from .errors import (
    ConfigError,
    DegenerateMobiusError,
    GridDomainError,
    QshjeError,
    SolverFailure,
)
from .ode_engine import (
    Grid1D,
    SolutionPair,
    analytic_axial,
    analytic_azimuthal,
    solve_pair,
)
from .reduced_action import ReducedActionComponent, build_component
from .residuals import (
    LimitScanResult,
    TotalReducedAction,
    assemble_total,
    assembled_residual,
    classical_limit_scan,
    component_residual,
    component_weighted_sum,
    probe_indices,
    probe_lattice,
)
from .schwarzian import differentiate, mixed_solutions

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_HBAR_SCAN",
    "ComponentConfig",
    "ConfigError",
    "CoulombPotential",
    "DegenerateMobiusError",
    "Effective1DProblem",
    "Grid1D",
    "GridDomainError",
    "HarmonicPotential",
    "LimitScanResult",
    "PhysConstants",
    "PotentialSpec",
    "PowerLawPotential",
    "QshjeError",
    "QuantumNumbers",
    "ReducedActionComponent",
    "RunConfig",
    "SolutionPair",
    "SolverFailure",
    "TabulatedPotential",
    "TotalReducedAction",
    "ZeroPotential",
    "analytic_axial",
    "analytic_azimuthal",
    "assemble_total",
    "assembled_residual",
    "axial_problem",
    "azimuthal_problem",
    "build_component",
    "cartesian_axis_problem",
    "classical_limit_scan",
    "component_residual",
    "component_weighted_sum",
    "cylindrical_radial_problem",
    "differentiate",
    "lambda_from_ell",
    "load_config",
    "mixed_solutions",
    "parse_config",
    "potential_from_mapping",
    "probe_indices",
    "probe_lattice",
    "solve_pair",
    "spherical_polar_problem",
    "spherical_radial_problem",
]
