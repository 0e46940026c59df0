"""Reduced-action components built on solution pairs.

For a pair (y1, y2) with constant Wronskian W and mixing constants (mu, nu)
with mu nu != 1, the reduced action of one coordinate is

    S(q) = hbar arctan( (mu y1 + y2) / (y1 + nu y2) ) + e hbar

with the closed-form conjugate momentum

    dS/dq = hbar (1 - mu nu) W / (a^2 + b^2),  a = mu y1 + y2,  b = y1 + nu y2.

S is constructed by trapezoid integration of dS/dq anchored to the arctan value
at the grid anchor node; the pointwise arctan is kept as a branch cross-check
mod pi hbar. The continuity product amplitude^2 * dS/dq equals
hbar (1 - mu nu) W by construction (amplitude = sqrt(D), dS = C/D), so it is
not checked at run time.
"""
from __future__ import annotations

import numpy as np

from .domain import PhysConstants
from .errors import QshjeError
from .ode_engine import Grid1D, SolutionPair
from .schwarzian import amplitude_derivatives, mixed_solutions, schwarzian_from_amplitude


class ReducedActionComponent:
    """One coordinate's reduced action and its derived samples."""

    def __init__(
        self, pair: SolutionPair, mu: float, nu: float, phase_e: float, s: np.ndarray,
        ds: np.ndarray, amplitude: np.ndarray, schwarzian: np.ndarray, branch_residual: float,
    ) -> None:
        self.pair, self.mu, self.nu, self.phase_e = pair, mu, nu, phase_e
        self.s, self.ds, self.amplitude, self.schwarzian = s, ds, amplitude, schwarzian
        self.branch_residual = branch_residual

    @property
    def grid(self) -> Grid1D:
        return self.pair.grid

    @property
    def constants(self) -> PhysConstants:
        return self.pair.problem.constants


def build_component(
    label: str, pair: SolutionPair, mu: float, nu: float, phase_e: float = 0.0
) -> ReducedActionComponent:
    """Construct the reduced action of one coordinate from a solution pair."""
    hbar = pair.problem.constants.hbar
    # a large enough mixing overflows D or the Schwarzian; the check below
    # names that instead of passing on inf and NaN samples
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = mixed_solutions(pair, mu, nu)
        # one curvature evaluation feeds D, the momentum and the Schwarzian
        d, dp, dpp = amplitude_derivatives(pair, *mixed)
        if np.any(d <= 0.0):
            raise QshjeError("mixed-basis amplitude vanishes on the grid; change (mu, nu)")
        schwarzian = schwarzian_from_amplitude(d, dp, dpp)
    bad = ~np.isfinite(schwarzian)
    if bad.any():
        at = float(pair.grid.points[np.argmax(bad)])
        raise QshjeError(
            f"{label}: the Schwarzian of the mixed basis overflows at {label} = {at!r}; "
            "reduce |mu| and |nu|"
        )
    a, b = mixed[:2]

    cst = hbar * (1.0 - mu * nu) * pair.wronskian
    ds = cst / d
    if np.any(ds == 0.0) or np.any(np.sign(ds) != np.sign(ds[0])):
        raise QshjeError(
            f"{label}: the conjugate momentum hbar (1 - mu nu) W / D is 0 or changes sign "
            "on the grid; it underflows, or the pair data are inconsistent"
        )

    q = pair.grid.points
    anchor = pair.grid.midpoint_index
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (ds[1:] + ds[:-1]) * np.diff(q))])
    s = cum - cum[anchor] + hbar * np.arctan2(a[anchor], b[anchor])

    # branch-insensitive cross-check of the unwrapped arctan, on the action
    # before the phase: with theta = s/hbar, sin(theta) b - cos(theta) a = 0 mod pi.
    theta = s / hbar
    branch = float(np.max(np.abs(np.sin(theta) * b - np.cos(theta) * a) / np.sqrt(d)))
    if branch > 0.05:
        raise QshjeError(
            f"unwrapped action disagrees with arctan branch by {branch:.2e}; grid too coarse"
        )
    with np.errstate(over="ignore"):
        s = s + phase_e * hbar
    if not np.all(np.isfinite(s)):
        raise QshjeError(f"{label}: the action S overflows with phase {phase_e!r}; reduce |phase|")

    return ReducedActionComponent(
        pair=pair,
        mu=float(mu),
        nu=float(nu),
        phase_e=float(phase_e),
        s=s,
        ds=ds,
        amplitude=np.sqrt(d),
        schwarzian=schwarzian,
        branch_residual=branch,
    )

