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
    Orders record the accuracy order of each stored derivative.
    """

    grid: Grid1D
    start: int
    stop: int
    f: np.ndarray
    d1: np.ndarray
    d2: np.ndarray | None = None
    d3: np.ndarray | None = None
    orders: tuple[int, ...] = ()

    @property
    def coords(self) -> np.ndarray:
        return self.grid.points[self.start : self.stop]


def differentiate(samples: np.ndarray, grid: Grid1D, max_order: int = 3) -> DerivativeBundle:
    """Central finite differences of sampled values.

    Uniform grids: 4th-order first and second derivatives, 2nd-order third
    derivative, all on the 5-point stencil (interior margin of 2 nodes).
    Nonuniform grids degrade to 2nd-order first/second derivatives and do not
    support the third derivative.
    """
    f = np.asarray(samples, dtype=float)
    if f.shape != (grid.n,):
        raise ValueError(f"samples must match the grid, got {f.shape} vs ({grid.n},)")
    if max_order not in (1, 2, 3):
        raise ValueError("max_order must be 1, 2 or 3")

    if grid.is_uniform:
        h = grid.spacing
        start, stop = 2, grid.n - 2
        fm2, fm1, f0, fp1, fp2 = f[:-4], f[1:-3], f[2:-2], f[3:-1], f[4:]
        d1 = (fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * h)
        d2 = d3 = None
        orders = [4]
        if max_order >= 2:
            d2 = (-fm2 + 16.0 * fm1 - 30.0 * f0 + 16.0 * fp1 - fp2) / (12.0 * h * h)
            orders.append(4)
        if max_order >= 3:
            d3 = (-fm2 + 2.0 * fm1 - 2.0 * fp1 + fp2) / (2.0 * h**3)
            orders.append(2)
        return DerivativeBundle(grid, start, stop, f[start:stop], d1, d2, d3, tuple(orders))

    if max_order >= 3:
        raise GridDomainError("third derivative needs a uniform grid")
    q = grid.points
    start, stop = 1, grid.n - 1
    hm = q[1:-1] - q[:-2]
    hp = q[2:] - q[1:-1]
    fm, f0, fp = f[:-2], f[1:-1], f[2:]
    d1 = (hm * hm * fp - hp * hp * fm + (hp * hp - hm * hm) * f0) / (hm * hp * (hm + hp))
    d2 = None
    orders = [2]
    if max_order >= 2:
        d2 = 2.0 * (hm * fp + hp * fm - (hm + hp) * f0) / (hm * hp * (hm + hp))
        orders.append(1)
    return DerivativeBundle(grid, start, stop, f[start:stop], d1, d2, None, tuple(orders))


def schwarzian(bundle: DerivativeBundle, floor_ratio: float = 1e-12) -> np.ndarray:
    """{S; q} from a derivative bundle.

    Points where |S'| < floor_ratio * max|S'| are masked to NaN instead of
    producing huge values. A sign change of S' inside the window is a node of
    the action and raises; the caller must change (mu, nu).
    """
    if bundle.d2 is None or bundle.d3 is None:
        raise ValueError("schwarzian needs derivatives up to order 3 in the bundle")
    d1, d2, d3 = bundle.d1, bundle.d2, bundle.d3
    floor = floor_ratio * float(np.max(np.abs(d1)))
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


def schwarzian_from_momentum(ds, grid: Grid1D, floor_ratio: float = 1e-12) -> np.ndarray:
    """{S; q} on the full grid from sampled conjugate momentum dS/dq.

    S'' and S''' come from first and second differences of dS, so round-off
    enters as eps/h^2 instead of the eps/h^3 of differencing the action three
    times. Stencil margins are NaN; node and floor semantics as `schwarzian`.
    """
    b = differentiate(np.asarray(ds, dtype=float), grid, max_order=2)
    # the action value itself never enters {S;q}; reuse the kernel with the
    # momentum occupying the first-derivative slot
    shifted = DerivativeBundle(b.grid, b.start, b.stop, b.f, b.f, b.d1, b.d2, b.orders)
    out = np.full(grid.n, np.nan)
    out[b.start : b.stop] = schwarzian(shifted, floor_ratio)
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


def amplitude_derivatives(pair: SolutionPair, mu: float, nu: float):
    """(D, D', D'') on the full grid, D = a^2 + b^2 the amplitude-squared of
    the mixed basis.

    D'' = 2(a'^2 + b'^2) + 2 c(q) D uses the pair's own curvature c(q),
    y'' = c y (a and b solve the same equation as y1, y2).
    """
    a, b, da, db = mixed_solutions(pair, mu, nu)
    d = a * a + b * b
    c = np.asarray(pair.problem.curvature(pair.grid.points), dtype=float)
    return d, 2.0 * (a * da + b * db), 2.0 * (da * da + db * db) + 2.0 * c * d


def schwarzian_closed_form(pair: SolutionPair, mu: float, nu: float) -> np.ndarray:
    """{S; q} = -D''/D + (D')^2/(2 D^2) on the full grid from the pair and its
    generating equation. No stencil margins: defined at every grid node.
    """
    d, dp, dpp = amplitude_derivatives(pair, mu, nu)
    if np.any(d <= 0.0):
        raise DegenerateMobiusError("mixed-basis amplitude vanishes on the grid")
    return -dpp / d + dp * dp / (2.0 * d * d)


@dataclass(frozen=True)
class MobiusMap:
    """Linear-fractional map w -> (a w + b) / (c w + d), ad - bc != 0."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not all(np.isfinite(v) for v in (self.a, self.b, self.c, self.d)):
            raise ValueError("map entries must be finite")
        scale = max(abs(self.a * self.d), abs(self.b * self.c), 1e-300)
        if abs(self.det) <= 1e-14 * scale:
            raise DegenerateMobiusError(f"singular map, ad - bc = {self.det!r}")

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)


def mobius_apply(m: MobiusMap, pair: SolutionPair) -> SolutionPair:
    """Basis change (y1, y2) -> (a y1 + b y2, c y1 + d y2); W scales by ad - bc."""
    return SolutionPair(
        grid=pair.grid,
        y1=m.a * pair.y1 + m.b * pair.y2,
        y2=m.c * pair.y1 + m.d * pair.y2,
        dy1=m.a * pair.dy1 + m.b * pair.dy2,
        dy2=m.c * pair.dy1 + m.d * pair.dy2,
        wronskian=m.det * pair.wronskian,
        provenance=pair.provenance,
        problem=pair.problem,
    )


def mobius_transform_samples(m: MobiusMap, values: np.ndarray) -> np.ndarray:
    """(a f + b) / (c f + d) pointwise; rejects samples at a pole of the map."""
    f = np.asarray(values, dtype=float)
    den = m.c * f + m.d
    if np.any(np.abs(den) < 1e-12 * (abs(m.c) * np.max(np.abs(f)) + abs(m.d) + 1e-300)):
        raise DegenerateMobiusError("samples hit a pole of the map")
    return (m.a * f + m.b) / den


def mobius_transform_bundle(m: MobiusMap, bundle: DerivativeBundle) -> DerivativeBundle:
    """Exact chain-rule push-forward of a derivative bundle through a map.

    Since the Schwarzian is invariant under linear-fractional maps, applying
    `schwarzian` to the result must reproduce the original values up to
    rounding; this is the closed-form half of the invariance check.
    """
    if bundle.d2 is None or bundle.d3 is None:
        raise ValueError("bundle must carry derivatives up to order 3")
    f, f1, f2, f3 = bundle.f, bundle.d1, bundle.d2, bundle.d3
    den = m.c * f + m.d
    if np.any(np.abs(den) < 1e-12 * (abs(m.c) * np.max(np.abs(f)) + abs(m.d) + 1e-300)):
        raise DegenerateMobiusError("samples hit a pole of the map")
    det = m.det
    g = (m.a * f + m.b) / den
    g1 = det * f1 / den**2
    g2 = det * (f2 * den - 2.0 * m.c * f1 * f1) / den**3
    g3 = det * (f3 * den * den - 6.0 * m.c * f1 * f2 * den + 6.0 * m.c**2 * f1**3) / den**4
    return DerivativeBundle(
        bundle.grid, bundle.start, bundle.stop, g, g1, g2, g3, bundle.orders
    )


def refit_mixing(mu: float, nu: float, m: MobiusMap) -> tuple[float, float]:
    """Mixing constants that reproduce the same action on a mapped basis.

    Writing the mixed pair as N (y1, y2)^T with N = [[mu, 1], [1, nu]] and the
    basis change as B, any rotation-and-scale multiple of N B^{-1} with equal
    off-diagonal entries yields the identical conjugate momentum, because
    rotations preserve a^2 + b^2 and the mixed Wronskian while uniform scaling
    cancels between them. The rotation angle is fixed by symmetrizing the
    off-diagonal entries.
    """
    binv = np.array([[m.d, -m.b], [-m.c, m.a]], dtype=float) / m.det
    k = np.array([[mu, 1.0], [1.0, nu]], dtype=float) @ binv
    trace = k[0, 0] + k[1, 1]
    if abs(trace) < 1e-12 * np.max(np.abs(k)):
        k = np.array([[k[1, 0], k[1, 1]], [-k[0, 0], -k[0, 1]]])
        trace = k[0, 0] + k[1, 1]
    c = (k[1, 0] - k[0, 1]) / trace
    mixed = np.array([[1.0, c], [-c, 1.0]]) @ k
    t = mixed[0, 1]
    if t == 0.0 or not np.isfinite(t):
        raise DegenerateMobiusError("mixing refit degenerate for this map")
    return float(mixed[0, 0] / t), float(mixed[1, 1] / t)
