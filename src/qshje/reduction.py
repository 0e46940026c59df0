"""Variable changes that remove first-derivative terms from the separated equations.

Each reduction multiplies the separated solution by the weight w(q) of its
coordinate label, from `domain.COORDINATES`, so that the result solves a
Schroedinger-form equation y'' = c(q) y: X = r R(r), T = sin^(1/2)(theta) T0
and H = sqrt(rho) G(rho). Cartesian axes, phi and z are left unchanged.
"""
from __future__ import annotations

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


def reduced_equation_check(pair: SolutionPair, problem: Effective1DProblem | None = None) -> float:
    """max |-(hbar^2/2m) y'' + (v_eff - e_eff) y| over both pair members.

    y'' is `differentiate` of each member's own derivative samples, so the
    check is independent of the integrator state and of the closed-form
    Schwarzian route. The two NaN margin nodes at each end are left out.
    """
    problem = problem or pair.problem
    c = problem.constants
    v = np.asarray(problem.v_eff(pair.grid.points), dtype=float)
    r = np.array([
        -(c.hbar**2 / (2.0 * c.mass)) * differentiate(dy, pair.grid) + (v - problem.e_eff) * y
        for y, dy in ((pair.y1, pair.dy1), (pair.y2, pair.dy2))
    ])
    return float(np.max(np.abs(r[:, 2:-2])))
