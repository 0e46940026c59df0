"""Reduced-action components built on solution pairs.

For a pair (y1, y2) with constant Wronskian W and mixing constants (mu, nu)
with mu nu != 1, the reduced action of one coordinate is

    S(q) = hbar arctan( (mu y1 + y2) / (y1 + nu y2) ) + e hbar

with the closed-form conjugate momentum

    dS/dq = hbar (1 - mu nu) W / (a^2 + b^2),  a = mu y1 + y2,  b = y1 + nu y2.

S is constructed by trapezoid integration of dS/dq anchored to the arctan value
at the grid anchor node; the pointwise arctan is kept as a branch cross-check
mod pi hbar. The continuity product amplitude^2 * dS/dq equals
hbar (1 - mu nu) W identically.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import CubicSpline

from .domain import PhysConstants
from .errors import GridDomainError, QshjeError
from .ode_engine import Grid1D, SolutionPair
from .schwarzian import DerivativeBundle, amplitude_derivatives, mixed_solutions, schwarzian_closed_form


@dataclass
class ReducedActionComponent:
    """One coordinate's reduced action and its derived samples."""

    label: str
    pair: SolutionPair
    mu: float
    nu: float
    phase_e: float
    s: np.ndarray
    ds: np.ndarray
    amplitude: np.ndarray
    schwarzian: np.ndarray
    branch_residual: float
    _spline: CubicSpline | None = field(default=None, repr=False)

    @property
    def grid(self) -> Grid1D:
        return self.pair.grid

    @property
    def constants(self) -> PhysConstants:
        return self.pair.problem.constants

    def continuity_values(self) -> np.ndarray:
        """amplitude^2 * dS/dq, constant = hbar (1 - mu nu) W."""
        return self.amplitude * self.amplitude * self.ds

    def continuity_drift(self) -> float:
        vals = self.continuity_values()
        ref = self.constants.hbar * (1.0 - self.mu * self.nu) * self.pair.wronskian
        return float(np.max(np.abs(vals - ref)) / abs(ref))

    def derivative_bundle(self) -> DerivativeBundle:
        """Exact closed-form (S, S', S'', S''') on the full grid.

        S'' and S''' follow from differentiating dS = C/D analytically, with
        D'' substituted through the pair's equation.
        """
        d, dp, dpp = amplitude_derivatives(self.pair, self.mu, self.nu)
        cst = self.constants.hbar * (1.0 - self.mu * self.nu) * self.pair.wronskian
        d2s = -cst * dp / (d * d)
        d3s = cst * (2.0 * dp * dp / (d**3) - dpp / (d * d))
        return DerivativeBundle(
            self.grid, 0, self.grid.n, self.s, self.ds, d2s, d3s, orders=()
        )


def build_component(
    label: str, pair: SolutionPair, mu: float, nu: float, phase_e: float = 0.0
) -> ReducedActionComponent:
    """Construct the reduced action of one coordinate from a solution pair."""
    hbar = pair.problem.constants.hbar
    a, b, da, db = mixed_solutions(pair, mu, nu)
    d = a * a + b * b
    if np.any(d <= 0.0):
        raise QshjeError("mixed-basis amplitude vanishes on the grid; change (mu, nu)")

    cst = hbar * (1.0 - mu * nu) * pair.wronskian
    ds = cst / d
    if np.any(ds == 0.0) or np.any(np.sign(ds) != np.sign(ds[0])):
        raise QshjeError("conjugate momentum changed sign; inconsistent pair data")

    q = pair.grid.points
    anchor = pair.grid.midpoint_index
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (ds[1:] + ds[:-1]) * np.diff(q))])
    s = cum - cum[anchor] + hbar * np.arctan2(a[anchor], b[anchor]) + phase_e * hbar

    # branch-insensitive cross-check of the unwrapped arctan: with
    # theta = (S - e hbar)/hbar, sin(theta) b - cos(theta) a = 0 mod pi.
    theta = (s - phase_e * hbar) / hbar
    branch = float(np.max(np.abs(np.sin(theta) * b - np.cos(theta) * a) / np.sqrt(d)))
    if branch > 0.05:
        raise QshjeError(
            f"unwrapped action disagrees with arctan branch by {branch:.2e}; grid too coarse"
        )

    comp = ReducedActionComponent(
        label=label,
        pair=pair,
        mu=float(mu),
        nu=float(nu),
        phase_e=float(phase_e),
        s=s,
        ds=ds,
        amplitude=np.sqrt(d),
        schwarzian=schwarzian_closed_form(pair, mu, nu),
        branch_residual=branch,
    )
    drift = comp.continuity_drift()
    if drift > 1e-8:
        raise QshjeError(f"continuity product drifted by {drift:.2e} (expected exact)")
    return comp


def conjugate_momentum(component: ReducedActionComponent, at) -> float | np.ndarray:
    """dS/dq interpolated (cubic) at coordinates inside the component grid."""
    at_arr = np.asarray(at, dtype=float)
    pts = component.grid.points
    if np.any(at_arr < pts[0]) or np.any(at_arr > pts[-1]):
        raise GridDomainError(f"requested coordinate outside the grid [{pts[0]}, {pts[-1]}]")
    if component._spline is None:
        component._spline = CubicSpline(pts, component.ds)
    out = component._spline(at_arr)
    return float(out) if np.isscalar(at) else out
