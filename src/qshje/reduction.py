"""Finite-difference check of a pair against its reduced equation.

Each separated solution times the weight w(q) of its coordinate label, from
`domain.COORDINATES`, solves a Schroedinger-form equation y'' = c(q) y:
X = r R(r), T = sin^(1/2)(theta) T0 and H = sqrt(rho) G(rho). Cartesian axes,
phi and z keep w = 1. A solution pair holds such reduced solutions.
"""
from __future__ import annotations

import numpy as np

from .domain import Effective1DProblem
from .ode_engine import SolutionPair
from .schwarzian import differentiate


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
