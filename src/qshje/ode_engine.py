"""Solution pairs of the separated coordinate equations.

Every reduced-action component is built on two real, linearly independent
solutions (y1, y2) of y'' = c(q) y sampled on a shared grid, together with
their first derivatives and the (constant) Wronskian W = y1 y2' - y2 y1'.
Analytic constructors cover the azimuthal and axial equations; everything else
goes through a fixed-step RK4 propagator seeded at the grid midpoint. The
equation is linear, so each RK4 substep is a 2x2 matrix on (y, y'): a sweep
builds all of them in one vectorised pass, multiplies them into one transfer
matrix per grid cell, and folds the cells in order over both solutions.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .domain import (
    Effective1DProblem, PhysConstants, _ValueRecord, axial_problem, azimuthal_problem,
    check_coordinates,
)
from .errors import SolverFailure

_OVERFLOW_LIMIT = 1e160


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(np.asarray(a, dtype=float))
    a.flags.writeable = False
    return a


class Grid1D(_ValueRecord):
    """Uniform 1-D coordinate grid of n >= 9 nodes from lo to hi, both included;
    its value is (lo, hi, n)."""

    def __init__(self, lo: float, hi: float, n: int) -> None:
        self.lo, self.hi, self.n = lo, hi, n
        if n < 9:
            raise ValueError(f"need at least 9 grid points, got {n}")
        # an overflowing span gives non-finite nodes, refused below
        with np.errstate(over="ignore", invalid="ignore"):
            pts = self.points = _readonly(np.linspace(float(lo), float(hi), int(n)))
        if not np.all(np.isfinite(pts)):
            raise ValueError("grid points must be finite")
        if np.any(np.diff(pts) <= 0.0):
            raise ValueError("grid points must be strictly increasing")

    def _value(self) -> tuple:
        return self.lo, self.hi, self.n

    @property
    def spacing(self) -> float:
        return float((self.points[-1] - self.points[0]) / (self.n - 1))

    @property
    def midpoint_index(self) -> int:
        return self.n // 2


class SolutionPair:
    """Two independent solutions of one coordinate equation on a grid.

    Derivatives come from the constructor (analytic formula or integrator
    state), never from re-differencing the samples. `problem` records the
    effective 1-D equation the pair solves; the closed-form Schwarzian uses
    its curvature to substitute second derivatives.
    """

    def __init__(
        self, grid: Grid1D, y1: np.ndarray, y2: np.ndarray, dy1: np.ndarray, dy2: np.ndarray,
        wronskian: float, provenance: str, problem: Effective1DProblem,
    ) -> None:
        self.grid, self.wronskian, self.provenance, self.problem = (
            grid, wronskian, provenance, problem
        )
        for name, a in (("y1", y1), ("y2", y2), ("dy1", dy1), ("dy2", dy2)):
            a = _readonly(a)
            if a.shape != (grid.n,):
                raise ValueError(f"{name} must have shape ({grid.n},), got {a.shape}")
            setattr(self, name, a)
        if wronskian == 0.0 or not np.isfinite(wronskian):
            raise ValueError(f"Wronskian must be nonzero and finite, got {wronskian}")
        if provenance not in ("analytic-catalog", "numerical"):
            raise ValueError(f"unknown provenance {provenance!r}")

    def wronskian_samples(self) -> np.ndarray:
        return self.y1 * self.dy2 - self.y2 * self.dy1

    def wronskian_drift(self) -> float:
        """max |W(q) - W| / |W| over the grid."""
        w = self.wronskian_samples()
        return float(np.max(np.abs(w - self.wronskian)) / abs(self.wronskian))


def _closed_form_pair(grid: Grid1D, k: float, problem: Effective1DProblem) -> SolutionPair:
    """Pair (sin kq, cos kq) with W = -k of y'' = -k^2 y; k = 0 gives (1, q) with W = 1."""
    q = grid.points
    if k == 0.0:
        y1, y2, dy1, dy2, w = np.ones_like(q), q.copy(), np.zeros_like(q), np.ones_like(q), 1.0
    else:
        sin, cos = np.sin(k * q), np.cos(k * q)
        y1, y2, dy1, dy2, w = sin, cos, k * cos, -k * sin, -k
    return SolutionPair(grid, y1, y2, dy1, dy2, w, "analytic-catalog", problem)


def analytic_azimuthal(m: int, grid: Grid1D, constants: PhysConstants) -> SolutionPair:
    """Pair (sin m phi, cos m phi) with W = -m; m = 0 gives (1, phi) with W = 1."""
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
        raise ValueError(f"azimuthal number must be an integer, got {m!r}")
    return _closed_form_pair(grid, float(m), azimuthal_problem(int(m), constants))


def analytic_axial(beta: float, grid: Grid1D, constants: PhysConstants) -> SolutionPair:
    """Pair for U'' = beta U.

    beta > 0: (exp(sqrt(beta) z), exp(-sqrt(beta) z)), W = -2 sqrt(beta);
    beta < 0: (sin(k z), cos(k z)) with k = sqrt(-beta), W = -k;
    beta = 0: (1, z), W = 1.
    """
    beta = float(beta)
    if not np.isfinite(beta):
        raise ValueError(f"beta must be finite, got {beta}")
    problem = axial_problem(beta, constants)
    if beta > 0.0:
        z, k = grid.points, np.sqrt(beta)
        with np.errstate(over="ignore"):
            up, dn = np.exp(k * z), np.exp(-k * z)
        if not (np.all(np.isfinite(up)) and np.all(np.isfinite(dn))):
            raise SolverFailure("axial exponential overflows on this grid")
        return SolutionPair(grid, up, dn, k * up, -k * dn, -2.0 * k, "analytic-catalog", problem)
    # at beta = 0, k = sqrt(-0.0) = -0.0 equals 0.0: the linear pair
    return _closed_form_pair(grid, np.sqrt(-beta), problem)


def _rk4_sweep(curvature, q_nodes: np.ndarray, state0: np.ndarray, substeps: int):
    """Propagate u'' = c(q) u from q_nodes[0] through all nodes.

    state0 has shape (2, 2): row 0 the values, row 1 the derivatives of two
    simultaneous solutions. Returns one row (y1, y2, y1', y2') per node.
    """
    # each cell starts at its node and adds h once per substep, in order;
    # its last substep ends exactly on the next node
    h = (np.diff(q_nodes) / substeps)[:, None]
    q = np.cumsum(np.column_stack((q_nodes[:-1], np.repeat(h, substeps - 1, axis=1))), axis=1)
    # one RK4 substep applied to the unit states (1, 0) and (0, 1) gives the
    # columns of its matrix; an entry past the float range makes the fold
    # below non-finite, which the cell-end check names
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        nodes = np.stack((q, q + 0.5 * h, np.column_stack((q[:, 1:], q_nodes[1:]))), -1)
        c = curvature(nodes)
        bad = ~np.isfinite(c)
        if bad.any():  # the first stage node in sweep order
            k = np.argmax(bad)
            raise SolverFailure(
                f"the curvature (2m/hbar^2)(v_eff - e_eff) is {float(c.flat[k])!r} at "
                f"q = {float(nodes.flat[k])!r}, not a finite float; move the grid off any "
                "singular point of v_eff, or rescale hbar, the mass or the potential"
            )
        c1, c2, c4 = c[..., 0, None], c[..., 1, None], c[..., 2, None]
        h = h[..., None]
        half, sixth = 0.5 * h, h / 6.0
        y, dy = np.eye(2)
        k1y, k1d = dy, c1 * y
        k2y, k2d = dy + half * k1d, c2 * (y + half * k1y)
        k3y, k3d = dy + half * k2d, c2 * (y + half * k2y)
        k4y, k4d = dy + h * k3d, c4 * (y + h * k3y)
        ty = y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        td = dy + sixth * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)
        # cell matrix [[a, b], [e, d]]: the substep matrices in order, later on the left
        a, b, e, d = ty[:, 0, 0], ty[:, 0, 1], td[:, 0, 0], td[:, 0, 1]
        for k in range(1, substeps):
            ka, kb, ke, kd = ty[:, k, 0], ty[:, k, 1], td[:, k, 0], td[:, k, 1]
            a, b, e, d = ka * a + kb * e, ka * b + kb * d, ke * a + kd * e, ke * b + kd * d
    # the cells in order, both solutions at once, on Python floats
    (y1, y2), (d1, d2) = state0.tolist()
    out = [y1, y2, d1, d2]
    for ma, mb, me, md in zip(a.tolist(), b.tolist(), e.tolist(), d.tolist()):
        y1, d1, y2, d2 = ma * y1 + mb * d1, me * y1 + md * d1, ma * y2 + mb * d2, me * y2 + md * d2
        out += (y1, y2, d1, d2)
    out = np.array(out, dtype=float).reshape(-1, 4)
    # every cell end is checked; the first one past the limit or non-finite is named
    bad = np.flatnonzero(~np.all(np.abs(out[1:]) <= _OVERFLOW_LIMIT, axis=1))
    if bad.size:
        q_end = float(q_nodes[bad[0] + 1])
        raise SolverFailure(
            f"solution magnitude exceeded {_OVERFLOW_LIMIT:g} near q = {q_end!r} "
            "(classically forbidden growth); shrink the domain"
        )
    return out


def solve_pair(
    problem: Effective1DProblem,
    grid: Grid1D,
    seeds: Sequence[Sequence[float]] = ((1.0, 0.0), (0.0, 1.0)),
    substeps: int = 1,
    wronskian_tol: float = 1e-6,
) -> SolutionPair:
    """Integrate two solutions of the effective equation outward from the grid midpoint.

    Each sweep (midpoint to either end) evaluates the curvature once, on every
    RK4 stage node, builds each cell's transfer matrix from its substeps in
    one vectorised pass, and applies the cells in order to both solutions.

    Parameters
    ----------
    problem : Effective1DProblem
        Coordinate equation y'' = curvature(q) y.
    grid : Grid1D
        Output nodes; the fixed RK4 step is the node spacing divided by `substeps`.
    seeds : two (value, derivative) pairs
        Initial data of (y1, y2) at the midpoint node. Defaults (1,0), (0,1).
    substeps : int
        RK4 substeps per grid cell (error shrinks ~16x per doubling).
    wronskian_tol : float
        Maximum tolerated relative Wronskian drift before failing.
    """
    check_coordinates(problem.label, grid.points)
    seeds = np.asarray(seeds, dtype=float)
    if seeds.shape != (2, 2):
        raise ValueError(f"seeds must be two (value, derivative) pairs, got shape {seeds.shape}")
    w0 = seeds[0, 0] * seeds[1, 1] - seeds[1, 0] * seeds[0, 1]
    if w0 == 0.0:
        raise ValueError("seed conditions are linearly dependent (zero Wronskian)")
    if substeps < 1:
        raise ValueError("substeps must be >= 1")
    idx = grid.midpoint_index

    pts = grid.points
    right = _rk4_sweep(problem.curvature, pts[idx:], seeds.T, substeps)
    left = _rk4_sweep(problem.curvature, pts[idx::-1], seeds.T, substeps)
    # columns y1, y2, y1', y2' on the whole grid
    u = np.vstack((left[::-1][:-1], right))
    pair = SolutionPair(grid, *u.T, float(w0), "numerical", problem)
    # products of samples grown through a forbidden region can overflow, and
    # inf - inf is NaN: a non-finite drift counts as drifting
    with np.errstate(over="ignore", invalid="ignore"):
        rel = np.abs(pair.wronskian_samples() - pair.wronskian) / abs(pair.wronskian)
    drift = float(np.max(rel))
    if not drift <= wronskian_tol:
        # the worst node: the first non-finite drift, else the largest one
        bad = ~np.isfinite(rel)
        worst = float(pts[np.argmax(bad) if bad.any() else np.argmax(rel)])
        peak1, peak2 = float(np.max(np.abs(pair.y1))), float(np.max(np.abs(pair.y2)))
        raise SolverFailure(
            f"Wronskian drift {drift:.3e} exceeds tolerance {wronskian_tol:.1e} at "
            f"q = {worst!r} (largest |y1| {peak1:.3e}, |y2| {peak2:.3e}); "
            "either the step is too coarse there (refine the grid or raise substeps) or the "
            "solutions grow through a classically forbidden region (shrink the domain or "
            "check the energy)"
        )
    return pair

