"""Reduced-action components built on solution pairs.

For a pair (y1, y2) with constant Wronskian W and mixing constants (mu, nu)
with mu nu != 1, the reduced action of one coordinate is

    S(q) = hbar arctan( (mu y1 + y2) / (y1 + nu y2) )

(Milne, Phys. Rev. 35 (1930) 863; Korsch & Laurent, J. Phys. B 14 (1981)
4213) with the closed-form conjugate momentum

    dS/dq = hbar (1 - mu nu) W / (a^2 + b^2),  a = mu y1 + y2,  b = y1 + nu y2.

S is hbar times the unwrapped arctan2(a, b), exact at every node, on the branch
that reads hbar arctan2(a, b) at the grid anchor. Unwrapping is exact
where the phase turns by less than pi in every cell. By Sturm comparison that
holds for every pair, whatever the mixing, where the node spacing times the
local wavenumber sqrt(-c) of y'' = c y stays below pi; a coarser grid is
refused. `branch_residual` is the largest such product in rad (bound pi).
So |S| < pi hbar count, which cannot overflow: hbar^2 is a normal float.
The continuity product amplitude^2 * dS/dq equals hbar (1 - mu nu) W by
construction (amplitude = sqrt(D), dS = C/D), so it is not checked at run time.
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
        self, pair: SolutionPair, mu: float, nu: float, s: np.ndarray, ds: np.ndarray,
        amplitude: np.ndarray, schwarzian: np.ndarray, branch_residual: float,
    ) -> None:
        self.pair, self.mu, self.nu = pair, mu, nu
        self.s, self.ds, self.amplitude, self.schwarzian = s, ds, amplitude, schwarzian
        self.branch_residual = branch_residual

    @property
    def grid(self) -> Grid1D:
        return self.pair.grid

    @property
    def constants(self) -> PhysConstants:
        return self.pair.problem.constants


def build_component(label: str, pair: SolutionPair, mu: float, nu: float) -> ReducedActionComponent:
    """Construct the reduced action of one coordinate from a solution pair."""
    hbar = pair.problem.constants.hbar
    q = pair.grid.points
    c = np.asarray(pair.problem.curvature(q), dtype=float)
    # a large enough mixing overflows D or the Schwarzian; the check below
    # names that instead of passing on inf and NaN samples
    with np.errstate(over="ignore", invalid="ignore"):
        mixed = mixed_solutions(pair, mu, nu)
        d, dp, dpp = amplitude_derivatives(*mixed, c)
        if np.any(d <= 0.0):
            raise QshjeError("mixed-basis amplitude vanishes on the grid; change (mu, nu)")
        schwarzian = schwarzian_from_amplitude(d, dp, dpp)
    bad = ~np.isfinite(schwarzian)
    if bad.any():
        at = float(q[np.argmax(bad)])
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

    anchor = pair.grid.midpoint_index
    # Sturm: no solution of y'' = c y has two zeros in a cell narrower than
    # pi / sqrt(-c), read at its two nodes, so there every phase turns < pi
    kappa = np.sqrt(np.maximum(-c, 0.0))
    turn = np.diff(q) * np.maximum(kappa[1:], kappa[:-1])
    worst = int(np.argmax(turn))
    branch = float(turn[worst])
    if not branch < np.pi:
        raise QshjeError(
            f"{label}: between {label} = {float(q[worst])!r} and {float(q[worst + 1])!r} the phase "
            f"can turn by pi or more (spacing times wavenumber {branch:.3g} rad); grid too coarse"
        )
    theta = np.unwrap(np.arctan2(a, b))
    s = hbar * (theta - theta[anchor] + np.arctan2(a[anchor], b[anchor]))

    return ReducedActionComponent(
        pair=pair,
        mu=float(mu),
        nu=float(nu),
        s=s,
        ds=ds,
        amplitude=np.sqrt(d),
        schwarzian=schwarzian,
        branch_residual=branch,
    )
