"""Variable changes that remove first-derivative terms from the separated equations.

Each reduction multiplies the separated solution by the weight w(q) of its
coordinate label, from `domain.COORDINATES`, so that the result solves a
Schroedinger-form equation y'' = c(q) y: X = r R(r), T = sin^(1/2)(theta) T0
and H = sqrt(rho) G(rho). Cartesian axes, phi and z are left unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Effective1DProblem, check_coordinates, coordinate
from .ode_engine import Grid1D, SolutionPair
from .schwarzian import differentiate


def reduce_wavefunction(label: str, values: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Separated solution -> reduced (Schroedinger-form) solution."""
    q = grid.points
    check_coordinates(label, q)
    *_, weight = coordinate(label)
    return weight(q) * np.asarray(values, dtype=float)


def restore_wavefunction(label: str, values: np.ndarray, grid: Grid1D) -> np.ndarray:
    """Reduced solution -> separated solution; exact inverse of `reduce_wavefunction`."""
    q = grid.points
    check_coordinates(label, q)
    *_, weight = coordinate(label)
    return np.asarray(values, dtype=float) / weight(q)


@dataclass(frozen=True)
class ReducedEquationResiduals:
    """|-(hbar^2/2m) y'' + (v_eff - e_eff) y| per pair member on the interior subgrid."""

    start: int
    stop: int
    first: np.ndarray
    second: np.ndarray

    @property
    def max_abs(self) -> float:
        return float(max(np.max(np.abs(self.first)), np.max(np.abs(self.second))))


def reduced_equation_check(
    pair: SolutionPair, problem: Effective1DProblem | None = None
) -> ReducedEquationResiduals:
    """Finite-difference check that both pair members solve the reduced equation.

    Second derivatives come from the shared `differentiate` kernel, so this is
    independent of the integrator state and of the closed-form Schwarzian route.
    """
    problem = problem or pair.problem
    grid = pair.grid
    c = problem.constants
    q_int = None
    res = []
    for y in (pair.y1, pair.y2):
        bundle = differentiate(y, grid, max_order=2)
        q_int = grid.points[bundle.start : bundle.stop]
        v = np.asarray(problem.v_eff(q_int), dtype=float)
        r = -(c.hbar**2 / (2.0 * c.mass)) * bundle.d2 + (v - problem.e_eff) * bundle.f
        res.append(np.abs(r))
        start, stop = bundle.start, bundle.stop
    return ReducedEquationResiduals(start=start, stop=stop, first=res[0], second=res[1])
