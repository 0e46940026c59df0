"""The finite-difference derivative kernel and the Schwarzian derivative.

Convention used throughout the package:

    {S; q} = S'''/S' - (3/2) (S''/S')^2

which is invariant under linear-fractional maps of S. Every {S;q} in the
package is `schwarzian_from_amplitude`, the same quantity written through the
amplitude-squared D, with S' proportional to 1/D. With this convention the
quantum correction of every component equation enters as +(hbar^2/4m) {S;q}
(massful form) or +(hbar^2/2) {S;q} (mass-free angular/axial forms).
"""
from __future__ import annotations

import numpy as np

from .errors import DegenerateMobiusError
from .ode_engine import Grid1D, SolutionPair


def differentiate(samples: np.ndarray, grid: Grid1D) -> np.ndarray:
    """First derivative of sampled values on a uniform grid, on the full grid.

    4th-order central difference on the 5-point stencil; the two margin nodes
    at each end read NaN. Higher derivatives compose:
    differentiate(differentiate(f, grid), grid).
    """
    f = np.asarray(samples, dtype=float)
    if f.shape != (grid.n,):
        raise ValueError(f"samples must match the grid, got {f.shape} vs ({grid.n},)")

    out = np.full(grid.n, np.nan)
    out[2:-2] = (f[:-4] - 8.0 * f[1:-3] + 8.0 * f[3:-1] - f[4:]) / (12.0 * grid.spacing)
    return out


def mixed_solutions(pair: SolutionPair, mu: float, nu: float):
    """(a, b, a', b') with a = mu y1 + y2 and b = y1 + nu y2; requires mu nu != 1."""
    if not (np.isfinite(mu) and np.isfinite(nu)):
        raise ValueError("mu and nu must be finite")
    if mu * nu == 1.0:
        raise DegenerateMobiusError(f"mu*nu = 1 is degenerate (mu={mu}, nu={nu})")
    a = mu * pair.y1 + pair.y2
    b = pair.y1 + nu * pair.y2
    da = mu * pair.dy1 + pair.dy2
    db = pair.dy1 + nu * pair.dy2
    return a, b, da, db


def amplitude_derivatives(a, b, da, db, c):
    """(D, D', D'') on the full grid, D = a^2 + b^2 the amplitude-squared of
    the mixed basis (a, b, a', b') given by mixed_solutions.

    D'' = 2(a'^2 + b'^2) + 2 c D uses the samples c of the pair's own
    curvature, y'' = c y (a and b solve the same equation as y1, y2).
    """
    d = a * a + b * b
    return d, 2.0 * (a * da + b * db), 2.0 * (da * da + db * db) + 2.0 * c * d


def schwarzian_from_amplitude(d, dp, dpp) -> np.ndarray:
    """{S; q} = -D''/D + (D')^2/(2 D^2) from the amplitude derivatives, D > 0."""
    return -dpp / d + dp * dp / (2.0 * d * d)
