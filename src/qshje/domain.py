"""Physical constants, quantum numbers, potentials and the effective 1-D problems.

Separating the stationary Schroedinger equation in Cartesian, spherical or
cylindrical coordinates leaves one second-order ODE per coordinate, each of the
form y'' = c(q) y with c(q) = (2m/hbar^2) (V_eff(q) - E_eff). This module owns
the V_eff / E_eff bookkeeping for every coordinate of every symmetry class.
"""
from __future__ import annotations

import sys
from typing import Callable

import numpy as np

from .errors import GridDomainError, QshjeError


class PhysConstants:
    """hbar and particle mass, natural units by default; equal by (hbar, mass)."""

    def __init__(self, hbar: float = 1.0, mass: float = 1.0) -> None:
        self.hbar, self.mass = hbar, mass
        if not (self.hbar > 0.0 and np.isfinite(self.hbar)):
            raise ValueError(f"hbar must be positive and finite, got {self.hbar}")
        # every equation divides by hbar^2, which must not underflow or overflow
        if not np.finfo(float).tiny <= self.hbar * self.hbar < np.inf:
            raise ValueError(f"hbar^2 must be a normal float, got hbar = {self.hbar}")
        if not (self.mass > 0.0 and np.isfinite(self.mass)):
            raise ValueError(f"mass must be positive and finite, got {self.mass}")

    def __eq__(self, other):
        same = other.__class__ is self.__class__
        return (self.hbar, self.mass) == (other.hbar, other.mass) if same else NotImplemented


# Open interval of each coordinate that does not span the real line.
COORDINATES: dict[str, tuple[float, float]] = {
    "r": (0.0, np.inf),
    "theta": (0.0, np.pi),
    "rho": (0.0, np.inf),
}


def check_coordinates(label: str, q) -> None:
    """Raise GridDomainError unless every value q lies strictly inside the label's interval."""
    lo, hi = COORDINATES.get(label, (-np.inf, np.inf))
    q = np.asarray(q, dtype=float)
    if np.any(q <= lo) or np.any(q >= hi):
        raise GridDomainError(f"coordinate {label!r} must lie strictly inside ({lo}, {hi})")


def lambda_from_ell(ell: int) -> int:
    """Angular separation constant lambda = ell (ell + 1)."""
    if not isinstance(ell, (int, np.integer)) or isinstance(ell, bool):
        raise ValueError(f"ell must be an integer, got {ell!r}")
    if ell < 0:
        raise ValueError(f"ell must be >= 0, got {ell}")
    return int(ell) * (int(ell) + 1)


class QuantumNumbers:
    """Separation constants of the three symmetry classes.

    energy is the full 3-D energy E. axis_energies holds the Cartesian
    per-axis energies E_q (their sum must equal energy). beta is the axial
    separation constant of the cylindrical class; m_ell and m_phi are the
    azimuthal integers of the spherical and cylindrical classes.
    """

    def __init__(
        self, ell: int = 0, m_ell: int = 0, m_phi: int = 0, beta: float = 0.0,
        energy: float = 0.0, axis_energies: dict[str, float] | None = None,
    ) -> None:
        self.ell, self.m_ell, self.m_phi, self.beta, self.energy = ell, m_ell, m_phi, beta, energy
        self.axis_energies = {} if axis_energies is None else axis_energies
        # l(l+1) and m_phi^2 enter the equations as floats
        if lambda_from_ell(self.ell) > sys.float_info.max:
            raise ValueError(f"l(l+1) must be a finite float, got ell = {self.ell}")
        if self.m_phi**2 > sys.float_info.max:
            raise ValueError(f"m_phi^2 must be a finite float, got m_phi = {self.m_phi}")
        if abs(self.m_ell) > self.ell:
            raise ValueError(f"|m_ell| must be <= ell, got m_ell={self.m_ell}, ell={self.ell}")

    def check_axis_energies(self, labels: tuple[str, ...]) -> None:
        missing = [q for q in labels if q not in self.axis_energies]
        if missing:
            raise ValueError(f"missing axis energies for {missing}")
        total = sum(self.axis_energies[q] for q in labels)
        scale = max(abs(self.energy), abs(total), 1.0)
        if abs(total - self.energy) > 1e-12 * scale:
            raise ValueError(
                f"axis energies sum to {total!r}, expected energy {self.energy!r}"
            )


class PotentialSpec:
    """Symbolic potential description; each kind defines evaluate(q, constants)."""


class ZeroPotential(PotentialSpec):
    def evaluate(self, q, constants: PhysConstants):
        return np.zeros_like(np.asarray(q, dtype=float))


class HarmonicPotential(PotentialSpec):
    """V(q) = (1/2) m omega^2 q^2."""

    def __init__(self, omega: float) -> None:
        self.omega = omega
        if not self.omega * self.omega < np.inf:
            raise ValueError(f"omega^2 must be a finite float, got omega = {self.omega!r}")

    def evaluate(self, q, constants: PhysConstants):
        q = np.asarray(q, dtype=float)
        return 0.5 * constants.mass * self.omega**2 * q * q


class CoulombPotential(PotentialSpec):
    """V(r) = -k / r, declared only away from the origin."""

    def __init__(self, strength: float = 1.0) -> None:
        self.strength = strength

    def evaluate(self, q, constants: PhysConstants):
        q = np.asarray(q, dtype=float)
        if np.any(q == 0.0):
            raise GridDomainError("Coulomb potential evaluated at the origin")
        return -self.strength / q


class PowerLawPotential(PotentialSpec):
    """V(q) = c * q**p."""

    def __init__(self, coefficient: float, exponent: float) -> None:
        self.coefficient, self.exponent = coefficient, exponent

    def evaluate(self, q, constants: PhysConstants):
        q = np.asarray(q, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = self.coefficient * np.power(q, self.exponent)
        if not np.all(np.isfinite(v)):
            raise GridDomainError(
                f"power-law potential (p={self.exponent}) not finite on the requested points"
            )
        return v


def _not_a_knot_spline(x, y):
    """Coefficients, highest power first, of the not-a-knot cubic spline
    through (x, y): row k, column i multiplies (q - x[i])**(3 - k) on
    [x[i], x[i + 1]].

    The knot slopes s solve the tridiagonal system of continuity of y'' at
    the inner knots, with not-a-knot end rows (de Boor, A Practical Guide to
    Splines, ch. IV), by the Thomas algorithm; the coefficients are those of
    the cubic Hermite interpolant of (x, y, s)."""
    h, n = np.diff(x), x.size
    m = np.diff(y) / h
    # row i reads lower[i] s[i-1] + diag[i] s[i] + upper[i] s[i+1] = rhs[i]
    lower, diag, upper, rhs = np.empty((4, n))
    lower[1:-1], diag[1:-1], upper[1:-1] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
    rhs[1:-1] = 3.0 * (h[1:] * m[:-1] + h[:-1] * m[1:])
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    diag[0], upper[0] = h[1], d0
    rhs[0] = ((h[0] + 2.0 * d0) * h[1] * m[0] + h[0] ** 2 * m[1]) / d0
    lower[-1], diag[-1] = d1, h[-2]
    rhs[-1] = (h[-1] ** 2 * m[-2] + (2.0 * d1 + h[-1]) * h[-2] * m[-1]) / d1
    for i in range(1, n):
        w = lower[i] / diag[i - 1]
        diag[i] -= w * upper[i - 1]
        rhs[i] -= w * rhs[i - 1]
    s = np.empty(n)
    s[-1] = rhs[-1] / diag[-1]
    for i in range(n - 2, -1, -1):
        s[i] = (rhs[i] - upper[i] * s[i + 1]) / diag[i]
    t = (s[:-1] + s[1:] - 2.0 * m) / h
    return np.array([t / h, (m - s[:-1]) / h - t, s[:-1], y[:-1]])


class TabulatedPotential(PotentialSpec):
    """Not-a-knot cubic spline through sampled values; evaluation outside the table is an error."""

    def __init__(self, points, values):
        try:
            points = np.asarray(points, dtype=float)
            values = np.asarray(values, dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise ValueError("tabulated potential points and values must be numbers") from None
        if points.ndim != 1 or points.shape != values.shape or points.size < 4:
            raise ValueError("tabulated potential needs matching 1-D arrays of >= 4 samples")
        if not (np.all(np.isfinite(points)) and np.all(np.isfinite(values))):
            raise ValueError("tabulated potential points and values must be finite")
        if np.any(np.diff(points) <= 0):
            raise ValueError("tabulated potential abscissae must be strictly increasing")
        self.points = points
        self.values = values
        with np.errstate(all="ignore"):
            self._coefficients = _not_a_knot_spline(points, values)
        if not np.all(np.isfinite(self._coefficients)):
            raise ValueError(
                "tabulated potential's cubic spline is not finite: its slopes or "
                "coefficients overflow; scale the values or spread the points"
            )

    def evaluate(self, q, constants: PhysConstants):
        q = np.asarray(q, dtype=float)
        if np.any(q < self.points[0]) or np.any(q > self.points[-1]):
            raise GridDomainError("tabulated potential evaluated outside its table")
        i = np.searchsorted(self.points, q, side="right") - 1
        i = np.minimum(i, self.points.size - 2)
        dq = q - self.points[i]
        c3, c2, c1, c0 = self._coefficients[:, i]
        return ((c3 * dq + c2) * dq + c1) * dq + c0


class Effective1DProblem:
    """One separated coordinate equation in Schroedinger form.

    The pair equation is -(hbar^2/2m) y'' + (v_eff(q) - e_eff) y = 0,
    equivalently y'' = curvature(q) y. Its QSHJE residual, headed by name and
    formula, is scale times (dS)^2/2m + (hbar^2/4m){S;q} + v_eff - e_eff.

    v_eff must be vectorised: it takes an array of any shape and returns one
    value per element. solve_pair calls curvature once per sweep, on the
    (cells, substeps, 3) array of all RK4 stage nodes.
    """

    def __init__(
        self, label: str, name: str, formula: str, v_eff: Callable, e_eff: float,
        constants: PhysConstants, scale: float = 1.0,
    ) -> None:
        self.label, self.name, self.formula, self.v_eff = label, name, formula, v_eff
        self.e_eff, self.constants, self.scale = e_eff, constants, scale
        if not np.isfinite(self.e_eff):
            raise QshjeError(
                f"{self.name}: the effective energy is {self.e_eff!r}, not a finite float; "
                "reduce the quantum numbers or hbar"
            )

    def curvature(self, q):
        """(2m/hbar^2) (v_eff(q) - e_eff)."""
        c = self.constants
        return 2.0 * c.mass / c.hbar**2 * (np.asarray(self.v_eff(q), dtype=float) - self.e_eff)


def cartesian_axis_problem(
    label: str, spec: PotentialSpec, axis_energy: float, constants: PhysConstants
) -> Effective1DProblem:
    return Effective1DProblem(
        label=label,
        name=f"cartesian-axis-{label}",
        formula=(
            f"(dS_{label})^2/(2m) + (hbar^2/(4m))*{{S_{label};{label}}}"
            f" + V_{label}({label}) - E_{label}"
        ),
        v_eff=lambda q, _s=spec, _c=constants: _s.evaluate(q, _c),
        e_eff=float(axis_energy),
        constants=constants,
    )


def _radial_problem(
    label: str, name: str, formula: str, spec: PotentialSpec, a: float, beta: float,
    energy: float, c: PhysConstants,
) -> Effective1DProblem:
    """The reduced radial equation of X = r R (a = l(l+1), beta = 0) or of
    H = sqrt(rho) G (a = m_phi^2 - 1/4): V(q) + a hbar^2/(2m q^2) - beta hbar^2/(2m)."""

    def v_eff(q):
        q = np.asarray(q, dtype=float)
        check_coordinates(label, q)
        centrifugal = a * c.hbar**2 / (2.0 * c.mass * q * q)
        return spec.evaluate(q, c) + centrifugal - beta * c.hbar**2 / (2.0 * c.mass)

    return Effective1DProblem(label, name, formula, v_eff, float(energy), c)


def spherical_radial_problem(
    spec: PotentialSpec, ell: int, energy: float, constants: PhysConstants
) -> Effective1DProblem:
    return _radial_problem(
        "r", "radial-spherical",
        "(dS_r)^2/(2m) + (hbar^2/(4m))*{S_r;r} + V(r) + l(l+1)*hbar^2/(2m r^2) - E",
        spec, lambda_from_ell(ell), 0.0, energy, constants,
    )


def spherical_polar_problem(ell: int, m_ell: int, constants: PhysConstants) -> Effective1DProblem:
    if abs(m_ell) > ell:
        raise ValueError(f"|m_ell| must be <= ell, got m_ell={m_ell}, ell={ell}")
    lam = lambda_from_ell(ell)
    c = constants

    def v_eff(theta):
        """(hbar^2/2m) (m_ell^2 - 1/4) / sin^2(theta) seen by T = sin^(1/2)(theta) T0."""
        theta = np.asarray(theta, dtype=float)
        check_coordinates("theta", theta)
        s = np.sin(theta)
        return c.hbar**2 * (m_ell**2 - 0.25) / (2.0 * c.mass * s * s)

    return Effective1DProblem(
        label="theta",
        name="polar-spherical",
        formula=(
            "(dS_theta)^2 + (hbar^2/2)*{S_theta;theta}"
            " + (m_l^2 - 1/4)*hbar^2/sin^2(theta) - (l(l+1) + 1/4)*hbar^2"
        ),
        v_eff=v_eff,
        # the reduced polar equation's energy (lambda + 1/4) hbar^2 / (2m)
        e_eff=(lam + 0.25) * c.hbar**2 / (2.0 * c.mass),
        constants=constants,
        scale=2.0 * constants.mass,
    )


def _free_problem(
    label: str, name: str, formula: str, e_eff: float, c: PhysConstants
) -> Effective1DProblem:
    """A zero-potential equation in the mass-free form (scale 2m)."""
    return Effective1DProblem(
        label, name, formula, lambda q: np.zeros_like(np.asarray(q, dtype=float)), e_eff, c,
        scale=2.0 * c.mass,
    )


def azimuthal_problem(m: int, constants: PhysConstants) -> Effective1DProblem:
    """Azimuthal equation F'' + m^2 F = 0 as a zero-potential problem."""
    c = constants
    return _free_problem(
        "phi", "azimuthal", "(dS_phi)^2 + (hbar^2/2)*{S_phi;phi} - m^2*hbar^2",
        m**2 * c.hbar**2 / (2.0 * c.mass), c,
    )


def cylindrical_radial_problem(
    spec: PotentialSpec, m_phi: int, beta: float, energy: float, constants: PhysConstants
) -> Effective1DProblem:
    return _radial_problem(
        "rho", "radial-cylindrical",
        "(dS_rho)^2/(2m) + (hbar^2/(4m))*{S_rho;rho} + V(rho)"
        " + (m_phi^2 - 1/4)*hbar^2/(2m rho^2) - beta*hbar^2/(2m) - E",
        spec, m_phi**2 - 0.25, beta, energy, constants,
    )


def axial_problem(beta: float, constants: PhysConstants) -> Effective1DProblem:
    """Axial equation U'' - beta U = 0 as a zero-potential problem."""
    c = constants
    return _free_problem(
        "z", "axial", "(dS_z)^2 + (hbar^2/2)*{S_z;z} + beta*hbar^2",
        -float(beta) * c.hbar**2 / (2.0 * c.mass), c,
    )
