"""Finite-difference derivatives, the Schwarzian operator and its closed form.

Convention used throughout the package:

    {S; q} = S'''/S' - (3/2) (S''/S')^2

which is invariant under linear-fractional maps of S. With this convention the
quantum correction of every component equation enters as +(hbar^2/4m) {S;q}
(massful form) or +(hbar^2/2) {S;q} (mass-free angular/axial forms).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMobiusError, GridDomainError, SchwarzianNodeError
from .ode_engine import Grid1D, SolutionPair


@dataclass(frozen=True)
class DerivativeBundle:
    """Derivatives of a sampled function on the stencil-valid interior subgrid.

    start/stop index into the grid: values are aligned with
    grid.points[start:stop]. d3 is None when only lower orders were requested.
    """

    grid: Grid1D
    start: int
    stop: int
    f: np.ndarray
    d1: np.ndarray
    d2: np.ndarray | None = None
    d3: np.ndarray | None = None

    @property
    def coords(self) -> np.ndarray:
        return self.grid.points[self.start : self.stop]


def differentiate(samples: np.ndarray, grid: Grid1D, max_order: int = 3) -> DerivativeBundle:
    """Central finite differences of sampled values on a uniform grid.

    4th-order first and second derivatives, 2nd-order third derivative, all
    on the 5-point stencil (interior margin of 2 nodes).
    """
    f = np.asarray(samples, dtype=float)
    if f.shape != (grid.n,):
        raise ValueError(f"samples must match the grid, got {f.shape} vs ({grid.n},)")
    if max_order not in (1, 2, 3):
        raise ValueError("max_order must be 1, 2 or 3")
    if not grid.is_uniform:
        raise GridDomainError("finite differences need a uniform grid")

    h = grid.spacing
    fm2, fm1, f0, fp1, fp2 = f[:-4], f[1:-3], f[2:-2], f[3:-1], f[4:]
    d1 = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
    d2 = d3 = None
    if max_order >= 2:
        d2 = (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * fp1 - fp2) / (12.0 * h * h)
    if max_order >= 3:
        d3 = (-fm2 + 2.0 * fm1 - 2.0 * fp1 + fp2) / (2.0 * h**3)
    return DerivativeBundle(grid, 2, grid.n - 2, f0, d1, d2, d3)


def schwarzian(bundle: DerivativeBundle) -> np.ndarray:
    """{S; q} from a derivative bundle.

    Points where |S'| < 1e-12 * max|S'| are masked to NaN instead of
    producing huge values. A sign change of S' inside the window is a node of
    the action and raises; the caller must change (mu, nu).
    """
    if bundle.d2 is None or bundle.d3 is None:
        raise ValueError("schwarzian needs derivatives up to order 3 in the bundle")
    d1, d2, d3 = bundle.d1, bundle.d2, bundle.d3
    floor = 1e-12 * float(np.max(np.abs(d1)))
    live = np.abs(d1) >= floor
    signs = np.sign(d1[live])
    if signs.size and (np.any(signs > 0) and np.any(signs < 0)):
        raise SchwarzianNodeError(
            "dS/dq changes sign inside the window; the action has a node here "
            "(choose different mixing constants mu, nu)"
        )
    out = np.full_like(d1, np.nan)
    r2 = d2[live] / d1[live]
    out[live] = d3[live] / d1[live] - 1.5 * r2 * r2
    return out


def schwarzian_from_momentum(ds, grid: Grid1D) -> np.ndarray:
    """{S; q} on the full grid from sampled conjugate momentum dS/dq.

    S'' and S''' come from first and second differences of dS, so round-off
    enters as eps/h^2 instead of the eps/h^3 of differencing the action three
    times. Stencil margins are NaN; node and floor semantics as `schwarzian`.
    """
    b = differentiate(np.asarray(ds, dtype=float), grid, max_order=2)
    # the action value itself never enters {S;q}; reuse the kernel with the
    # momentum occupying the first-derivative slot
    shifted = DerivativeBundle(b.grid, b.start, b.stop, b.f, b.f, b.d1, b.d2)
    out = np.full(grid.n, np.nan)
    out[b.start : b.stop] = schwarzian(shifted)
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


def amplitude_derivatives(pair: SolutionPair, a, b, da, db):
    """(D, D', D'') on the full grid, D = a^2 + b^2 the amplitude-squared of
    the mixed basis (a, b, a', b') given by mixed_solutions.

    D'' = 2(a'^2 + b'^2) + 2 c(q) D uses the pair's own curvature c(q),
    y'' = c y (a and b solve the same equation as y1, y2).
    """
    d = a * a + b * b
    c = np.asarray(pair.problem.curvature(pair.grid.points), dtype=float)
    return d, 2.0 * (a * da + b * db), 2.0 * (da * da + db * db) + 2.0 * c * d


def schwarzian_from_amplitude(d, dp, dpp) -> np.ndarray:
    """{S; q} = -D''/D + (D')^2/(2 D^2) from the amplitude derivatives, D > 0."""
    return -dpp / d + dp * dp / (2.0 * d * d)
