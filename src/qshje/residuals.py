"""Pointwise residual evaluation of the component and assembled equations.

Every stationary Hamilton-Jacobi equation handled here is checked as
left-hand side minus right-hand side at grid nodes. Massful component
equations read

    (1/2m)(dS/dq)^2 + (hbar^2/4m){S;q} + v_eff(q) - e_eff

and the angular/axial ones are the same expression scaled by 2m, which puts
them in the mass-free form (dS)^2 + (hbar^2/2){S;q} + 2m(v_eff - e_eff).
The Schwarzian convention is {S;q} = S'''/S' - (3/2)(S''/S')^2 throughout;
with that convention the quantum correction enters with a plus sign.

Assembled three-dimensional equations combine nodal component data with the
metric weights of the symmetry class and, for curvilinear classes, the
residual quantum terms proportional to hbar^2/8m. SYMMETRY_TABLE holds every
fact that differs between the three classes.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import (
    Effective1DProblem,
    PhysConstants,
    PotentialSpec,
    QuantumNumbers,
    SymmetryClass,
    axial_problem,
    azimuthal_problem,
    cartesian_axis_problem,
    cylindrical_radial_problem,
    spherical_polar_problem,
    spherical_radial_problem,
)
from .errors import GridDomainError, QshjeError
from .ode_engine import analytic_axial, analytic_azimuthal
from .reduced_action import ReducedActionComponent


@dataclass(frozen=True)
class ComponentEquation:
    """One separated equation: its effective 1-D data, overall scale, and a
    human-readable formula string used in table headers."""

    name: str
    formula: str
    problem: Effective1DProblem
    scale: float

    @property
    def constants(self) -> PhysConstants:
        return self.problem.constants


def cartesian_axis_equation(
    potential: PotentialSpec, axis_energy: float, constants: PhysConstants, label: str
) -> ComponentEquation:
    problem = cartesian_axis_problem(label, potential, axis_energy, constants)
    formula = (
        f"(dS_{label})^2/(2m) + (hbar^2/(4m))*{{S_{label};{label}}}"
        f" + V_{label}({label}) - E_{label}"
    )
    return ComponentEquation(f"cartesian-axis-{label}", formula, problem, 1.0)


def spherical_radial_equation(
    potential: PotentialSpec, ell: int, energy: float, constants: PhysConstants
) -> ComponentEquation:
    problem = spherical_radial_problem(potential, ell, energy, constants)
    formula = (
        "(dS_r)^2/(2m) + (hbar^2/(4m))*{S_r;r} + V(r)"
        " + l(l+1)*hbar^2/(2m r^2) - E"
    )
    return ComponentEquation("radial-spherical", formula, problem, 1.0)


def spherical_polar_equation(
    ell: int, m_ell: int, constants: PhysConstants
) -> ComponentEquation:
    problem = spherical_polar_problem(ell, m_ell, constants)
    formula = (
        "(dS_theta)^2 + (hbar^2/2)*{S_theta;theta}"
        " + (m_l^2 - 1/4)*hbar^2/sin^2(theta) - (l(l+1) + 1/4)*hbar^2"
    )
    return ComponentEquation("polar-spherical", formula, problem, 2.0 * constants.mass)


def azimuthal_equation(
    m: int, constants: PhysConstants, label: str = "phi"
) -> ComponentEquation:
    problem = azimuthal_problem(m, constants, label)
    formula = f"(dS_{label})^2 + (hbar^2/2)*{{S_{label};{label}}} - m^2*hbar^2"
    return ComponentEquation("azimuthal", formula, problem, 2.0 * constants.mass)


def cylindrical_radial_equation(
    potential: PotentialSpec, m_phi: int, beta: float, energy: float, constants: PhysConstants
) -> ComponentEquation:
    problem = cylindrical_radial_problem(potential, m_phi, beta, energy, constants)
    formula = (
        "(dS_rho)^2/(2m) + (hbar^2/(4m))*{S_rho;rho} + V(rho)"
        " + (m_phi^2 - 1/4)*hbar^2/(2m rho^2) - beta*hbar^2/(2m) - E"
    )
    return ComponentEquation("radial-cylindrical", formula, problem, 1.0)


def axial_equation(beta: float, constants: PhysConstants) -> ComponentEquation:
    problem = axial_problem(beta, constants)
    formula = "(dS_z)^2 + (hbar^2/2)*{S_z;z} + beta*hbar^2"
    return ComponentEquation("axial", formula, problem, 2.0 * constants.mass)


def component_residual(
    component: ReducedActionComponent,
    equation: ComponentEquation,
    constants: PhysConstants | None = None,
) -> np.ndarray:
    """Left minus right of one separated equation at every grid node.

    The Schwarzian samples belong to the component (closed form, built from
    its own pair), while the effective potential and energy come from the
    equation under test. A pair generated at a different energy therefore
    shows a flat residual equal to the energy offset.
    """
    c = constants if constants is not None else equation.constants
    q = component.grid.points
    equation.problem.check_domain(q)
    v = np.asarray(equation.problem.v_eff(q), dtype=float)
    kinetic = component.ds * component.ds / (2.0 * c.mass)
    quantum = (c.hbar * c.hbar / (4.0 * c.mass)) * component.schwarzian
    return equation.scale * (kinetic + quantum + v - equation.problem.e_eff)


@dataclass(frozen=True)
class SpinTerms:
    """Residual quantum terms of the assembled curvilinear equations, floats or lattice arrays."""

    ter1: float
    ter2: float | None
    normalized_coefficient: float

    def total(self) -> float:
        return self.ter1 + (self.ter2 if self.ter2 is not None else 0.0)


def _radial_spin(radius, constants: PhysConstants, theta=None) -> SpinTerms:
    """-hbar^2/8m q^2 at the radius q and, given a polar angle, its partner
    divided by sin^2 theta; arrays broadcast."""
    if np.any(np.asarray(radius) <= 0.0):
        raise GridDomainError("radius must be positive")
    h2 = constants.hbar * constants.hbar
    # normalizing by the same rounded reference keeps the quotient exact:
    # scaling a float by 1/4 never rounds
    ref = h2 / (2.0 * constants.mass * radius * radius)
    ter1 = -0.25 * ref
    ter2 = None
    if theta is not None:
        s = np.sin(theta)
        if np.any(s == 0.0):
            raise GridDomainError("polar angle on the axis: sin(theta) = 0")
        ter2 = ter1 / (s * s)
    coeff = np.divide(-ter1, ref, out=np.full(np.shape(ref), 0.25), where=ref != 0.0)
    return SpinTerms(ter1, ter2, coeff)


@dataclass(frozen=True)
class SymmetryRow:
    """Everything that differs between the symmetry classes.

    metric(q, c=1): diagonal metric factors h_k^2 at snapped coordinates q,
        with c multiplied in from the left where the component equation is in
        the 2m-scaled, mass-free form; c = 2m gives the denominators of the
        component-weighted sum. The inverse-metric weights are 1/h_k^2.
    axis_potentials: V is a sum of per-axis potentials, else a function of q0.
    equations: label -> (run config, quantum numbers, constants) -> equation.
    analytic: label -> (quantum numbers, grid, constants) -> analytic pair.
    spin: (q, constants) -> SpinTerms, None where no residual terms survive;
        spin-report tabulates them over spin_labels under spin_formula.
    wrong_order_axes: coordinates whose gradients the wrong-order limit zeroes.
    """

    formula: str
    metric: Callable
    axis_potentials: bool
    equations: dict[str, Callable]
    analytic: dict[str, Callable]
    spin: Callable | None = None
    spin_labels: tuple[str, ...] = ()
    spin_formula: str = ""
    wrong_order_axes: tuple[int, ...] = ()


SYMMETRY_TABLE = {
    SymmetryClass.CARTESIAN: SymmetryRow(
        formula="sum_q [ (dS_q)^2/(2m) + (hbar^2/(4m))*{S_q;q} + V_q(q) ] - E",
        metric=lambda q, c=1.0: (1.0, 1.0, 1.0),
        axis_potentials=True,
        equations={
            lab: lambda cfg, qn, c, lab=lab: cartesian_axis_equation(
                cfg.axis_potentials[lab], qn.axis_energies[lab], c, lab
            )
            for lab in ("x", "y", "z")
        },
        analytic={},
    ),
    SymmetryClass.SPHERICAL: SymmetryRow(
        formula=(
            "(1/(2m))[(dS_r)^2 + (dS_theta)^2/r^2 + (dS_phi)^2/(r^2 sin^2 theta)]"
            " + (hbar^2/(4m))[{S_r;r} + {S_theta;theta}/r^2 + {S_phi;phi}/(r^2 sin^2 theta)]"
            " - hbar^2/(8m r^2) - hbar^2/(8m r^2 sin^2 theta) + V(r) - E"
        ),
        metric=lambda q, c=1.0: (1.0, c * q[0] * q[0], c * q[0] * q[0] * np.sin(q[1]) ** 2),
        axis_potentials=False,
        equations={
            "r": lambda cfg, qn, c: spherical_radial_equation(cfg.potential, qn.ell, qn.energy, c),
            "theta": lambda cfg, qn, c: spherical_polar_equation(qn.ell, qn.m_ell, c),
            "phi": lambda cfg, qn, c: azimuthal_equation(qn.m_ell, c),
        },
        analytic={"phi": lambda qn, grid, c: analytic_azimuthal(qn.m_ell, grid, c)},
        spin=lambda q, c: _radial_spin(q[0], c, q[1]),
        spin_labels=("r", "theta"),
        spin_formula=(
            "ter1 = -hbar^2/(8 m r^2); ter2 = -hbar^2/(8 m r^2 sin^2 theta); "
            "-2 m r^2 ter1 / hbar^2"
        ),
        wrong_order_axes=(1, 2),
    ),
    SymmetryClass.CYLINDRICAL: SymmetryRow(
        formula=(
            "(1/(2m))[(dS_rho)^2 + (dS_phi)^2/rho^2 + (dS_z)^2]"
            " + (hbar^2/(4m))[{S_rho;rho} + {S_phi;phi}/rho^2 + {S_z;z}]"
            " - hbar^2/(8m rho^2) + V(rho) - E"
        ),
        metric=lambda q, c=1.0: (1.0, c * q[0] * q[0], c),
        axis_potentials=False,
        equations={
            "rho": lambda cfg, qn, c: cylindrical_radial_equation(
                cfg.potential, qn.m_phi, qn.beta, qn.energy, c
            ),
            "phi": lambda cfg, qn, c: azimuthal_equation(qn.m_phi, c),
            "z": lambda cfg, qn, c: axial_equation(qn.beta, c),
        },
        analytic={
            "phi": lambda qn, grid, c: analytic_azimuthal(qn.m_phi, grid, c),
            "z": lambda qn, grid, c: analytic_axial(qn.beta, grid, c),
        },
        spin=lambda q, c: _radial_spin(q[0], c),
        spin_labels=("rho",),
        spin_formula="ter1 = -hbar^2/(8 m rho^2); -2 m rho^2 ter1 / hbar^2",
    ),
}

def _per_point(values, point):
    """A float when every coordinate of point is a scalar, else the lattice array."""
    if all(np.ndim(x) == 0 for x in point):
        return np.asarray(values).item()
    return values


@dataclass
class TotalReducedAction:
    """Additive reduced action of one symmetry class: three components plus
    the class's inverse metric for gradient-squared and Schwarzian sums.

    Point evaluation snaps each coordinate to its nearest grid node, so values
    are exact nodal samples (no interpolation error enters residuals). 1-D arrays
    of coordinate values stand for the lattice they span; results are then
    (n0, n1, n2) arrays that ravel in itertools.product order.
    """

    symmetry: SymmetryClass
    components: dict[str, ReducedActionComponent]
    quantum_numbers: QuantumNumbers
    constants: PhysConstants

    def snap(self, point) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """Nearest grid nodes of every value of each coordinate, as np.ix_
        broadcast (indices, node values) in symmetry label order."""
        idx, nodes = [], []
        for label, value in zip(self.symmetry.coordinate_labels, point):
            pts = self.components[label].grid.points
            v = np.atleast_1d(np.asarray(value, dtype=float))
            outside = (v < pts[0]) | (v > pts[-1])
            if np.any(outside):
                raise GridDomainError(
                    f"coordinate {label}={float(v[outside][0])!r} outside grid [{pts[0]}, {pts[-1]}]"
                )
            i = np.argmin(np.abs(pts - v[:, None]), axis=1)
            idx.append(i)
            nodes.append(pts[i])
        return np.ix_(*idx), np.ix_(*nodes)

    def snap_point(self, point) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """Nearest grid node per coordinate of one point, in symmetry label order."""
        idx, nodes = self.snap(point)
        return tuple(int(i.item()) for i in idx), tuple(float(q.item()) for q in nodes)

    def metric_weights(self, snapped) -> tuple:
        """Inverse-metric factors of the three coordinate terms."""
        return tuple(1.0 / g for g in SYMMETRY_TABLE[self.symmetry].metric(snapped))

    def metric_sum(self, attr: str, point, power: int = 1):
        """sum_k w_k f_k^power, f_k the nodal samples `attr` of coordinate k at
        the snapped point and w_k the inverse-metric factors."""
        idx, nodes = self.snap(point)
        labels = self.symmetry.coordinate_labels
        samples = (getattr(self.components[lab], attr)[i] for lab, i in zip(labels, idx))
        return sum(f**power * w for f, w in zip(samples, self.metric_weights(nodes)))

    def gradient_squared(self, point):
        """(grad S)^2 with the class metric, from nodal dS values."""
        return self.metric_sum("ds", point, 2)


def assemble_total(
    components: dict[str, ReducedActionComponent],
    symmetry: SymmetryClass,
    quantum_numbers: QuantumNumbers,
) -> TotalReducedAction:
    labels = symmetry.coordinate_labels
    if set(components) != set(labels):
        raise ValueError(
            f"{symmetry.value} needs components for {labels}, got {sorted(components)}"
        )
    constants = components[labels[0]].constants
    for lab in labels:
        c = components[lab].constants
        if c != constants:
            raise ValueError("components carry different physical constants")
    return TotalReducedAction(symmetry, dict(components), quantum_numbers, constants)


@dataclass(frozen=True)
class AssembledEquation:
    """Full 3-D equation data: symmetry class, potential, constants of
    motion, and the formula string for reports."""

    name: str
    formula: str
    symmetry: SymmetryClass
    potential: PotentialSpec | None
    axis_potentials: dict[str, PotentialSpec] | None
    quantum_numbers: QuantumNumbers
    constants: PhysConstants

    def potential_at(self, snapped):
        if SYMMETRY_TABLE[self.symmetry].axis_potentials:
            return sum(
                self.axis_potentials[lab].evaluate(val, self.constants)
                for lab, val in zip(self.symmetry.coordinate_labels, snapped)
            )
        return self.potential.evaluate(snapped[0], self.constants)


def assembled_equation_for(
    symmetry: SymmetryClass,
    quantum_numbers: QuantumNumbers,
    constants: PhysConstants,
    potential: PotentialSpec | None = None,
    axis_potentials: dict[str, PotentialSpec] | None = None,
) -> AssembledEquation:
    row = SYMMETRY_TABLE[symmetry]
    labels = symmetry.coordinate_labels
    if row.axis_potentials:
        if axis_potentials is None or set(axis_potentials) != set(labels):
            raise ValueError(
                f"{symmetry.value} assembly needs axis_potentials for {', '.join(labels)}"
            )
        quantum_numbers.check_axis_energies(labels)
    elif potential is None:
        raise ValueError(f"{symmetry.value} assembly needs a radial potential")
    return AssembledEquation(
        name=f"assembled-{symmetry.value}",
        formula=row.formula,
        symmetry=symmetry,
        potential=potential,
        axis_potentials=dict(axis_potentials) if axis_potentials else None,
        quantum_numbers=quantum_numbers,
        constants=constants,
    )


def spin_terms(symmetry: SymmetryClass, point, constants: PhysConstants) -> SpinTerms:
    """Terms -hbar^2/8mr^2 (and the sin^2 theta partner) left over after the
    separation constants cancel in assembly; absent for cartesian symmetry."""
    spin = SYMMETRY_TABLE[symmetry].spin
    if spin is None:
        raise QshjeError(f"{symmetry.value} symmetry has no residual quantum terms")
    return spin(point, constants)


def assembled_residual(
    total: TotalReducedAction,
    equation: AssembledEquation,
    point,
    mode: str = "quantum",
    constants: PhysConstants | None = None,
):
    """Full 3-D equation at one point, or on the lattice spanned by 1-D
    arrays of coordinate values, from nodal component data.

    mode selects which terms enter: "quantum" is the complete equation,
    "classical" drops every hbar-carrying correction and returns
    (1/2m)(grad S)^2 + V - E, "quantum-terms" returns only the corrections.
    constants, when given, rescales hbar in the corrections while the dS and
    Schwarzian samples stay fixed.
    """
    if mode not in ("quantum", "classical", "quantum-terms"):
        raise ValueError(f"unknown mode {mode!r}")
    c = constants if constants is not None else equation.constants
    spin = SYMMETRY_TABLE[equation.symmetry].spin
    _, snapped = total.snap(point)

    quantum = 0.0
    if mode != "classical":
        quantum = (c.hbar * c.hbar / (4.0 * c.mass)) * total.metric_sum("schwarzian", point)
        if spin is not None:
            quantum = quantum + spin(snapped, c).total()
    if mode == "quantum-terms":
        return _per_point(quantum, point)

    kinetic = total.gradient_squared(point) / (2.0 * equation.constants.mass)
    v = equation.potential_at(snapped)
    return _per_point(kinetic + quantum + v - equation.quantum_numbers.energy, point)


def component_weighted_sum(total: TotalReducedAction, residuals: dict[str, np.ndarray], point):
    """Metric-weighted sum of per-component residuals at a snapped point, or
    on the lattice spanned by 1-D arrays of coordinate values.

    Algebraically identical to assembled_residual in quantum mode when each
    residual came from the matching component equation; exposing both routes
    keeps the assembly identity testable instead of tautological.
    """
    row = SYMMETRY_TABLE[total.symmetry]
    idx, snapped = total.snap(point)
    # each residual is divided by its equation's scale times its metric factor
    denominators = row.metric(snapped, 2.0 * total.constants.mass)
    vals = (residuals[lab][i] for lab, i in zip(total.symmetry.coordinate_labels, idx))
    return _per_point(sum(v / d for v, d in zip(vals, denominators)), point)


def probe_axis_values(points: np.ndarray, per_coordinate: int) -> list[float]:
    """Log-placed values inside the stencil-valid interior of one grid,
    snapped to nodes and deduplicated."""
    if per_coordinate < 2:
        raise ValueError("need at least 2 probe values per coordinate")
    pts = np.asarray(points, dtype=float)
    lo, hi = pts[2], pts[-3]
    if lo > 0.0:
        raw = np.geomspace(lo, hi, per_coordinate)
    else:
        raw = lo + (hi - lo) * (np.geomspace(1.0, 10.0, per_coordinate) - 1.0) / 9.0
    idx = sorted({int(np.clip(np.argmin(np.abs(pts - v)), 2, pts.size - 3)) for v in raw})
    return [float(pts[i]) for i in idx]


def probe_axes(total: TotalReducedAction, per_coordinate: int = 5) -> list[list[float]]:
    """Log-placed probe values of each coordinate, in symmetry label order."""
    return [
        probe_axis_values(total.components[label].grid.points, per_coordinate)
        for label in total.symmetry.coordinate_labels
    ]


def probe_lattice(total: TotalReducedAction, per_coordinate: int = 5) -> list[tuple[float, ...]]:
    """Deterministic probe points: the product of the probe axes."""
    return list(itertools.product(*probe_axes(total, per_coordinate)))


@dataclass(frozen=True)
class ResidualReport:
    """Summary of one equation's residual samples over a coordinate grid."""

    equation: str
    formula: str
    coords: np.ndarray
    residual: np.ndarray
    max_abs: float
    rms: float
    scale_ref: float
    normalized_max: float


def make_report(
    equation: ComponentEquation,
    component: ReducedActionComponent,
    window: tuple[int, int] | None = None,
) -> ResidualReport:
    res = component_residual(component, equation)
    start, stop = window if window is not None else (0, component.grid.n)
    body = res[start:stop]
    c = equation.constants
    span = component.grid.points[-1] - component.grid.points[0]
    scale_ref = equation.scale * max(
        abs(equation.problem.e_eff), c.hbar * c.hbar / (2.0 * c.mass * span * span)
    )
    max_abs = float(np.max(np.abs(body)))
    return ResidualReport(
        equation=equation.name,
        formula=equation.formula,
        coords=component.grid.points[start:stop],
        residual=body,
        max_abs=max_abs,
        rms=float(np.sqrt(np.mean(body * body))),
        scale_ref=scale_ref,
        normalized_max=max_abs / scale_ref,
    )


@dataclass(frozen=True)
class LimitScanResult:
    """Fitted scaling of the quantum corrections against hbar."""

    hbar_values: tuple[float, ...]
    magnitudes: tuple[float, ...]
    slope: float
    intercept: float
    points: tuple[tuple[float, ...], ...]
    wrong_order_gaps: tuple[float, ...] | None = None
    wrong_order_slope: float | None = None


def _fit_loglog(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    usable = y > 0.0
    if int(np.count_nonzero(usable)) < 3:
        raise QshjeError("classical-limit fit needs at least 3 nonzero magnitudes")
    coeffs = np.polyfit(np.log(x[usable]), np.log(y[usable]), 1)
    return float(coeffs[0]), float(coeffs[1])


def classical_limit_scan(
    total: TotalReducedAction,
    equation: AssembledEquation,
    hbar_values,
    per_coordinate: int = 3,
    wrong_order: bool = False,
) -> LimitScanResult:
    """Magnitude of the hbar-carrying corrections versus hbar, data fixed, as
    the maximum over the probe lattice with per_coordinate values per axis.

    Every correction carries an explicit hbar^2 prefactor, so the fitted
    log-log slope is 2. With wrong_order=True the scan additionally zeroes
    the angular gradients before deleting the corrections; the leftover gap
    to the true classical equation is the angular kinetic energy, which does
    not shrink with hbar.
    """
    hv = np.asarray(sorted(set(float(h) for h in hbar_values), reverse=True), dtype=float)
    if hv.size < 4:
        raise QshjeError("scan needs at least 4 distinct hbar values")
    if np.any(hv <= 0.0):
        raise QshjeError("hbar values must be positive")
    if hv[0] / hv[-1] < 10.0:
        raise QshjeError("hbar values must span at least a factor of 10")
    axes = probe_axes(total, per_coordinate)
    points = probe_lattice(total, per_coordinate)

    mags = []
    for h in hv:
        c = PhysConstants(hbar=float(h), mass=equation.constants.mass)
        terms = assembled_residual(total, equation, axes, mode="quantum-terms", constants=c)
        mags.append(np.max(np.abs(terms)))
    slope, intercept = _fit_loglog(hv, np.asarray(mags))

    gaps_out = None
    gap_slope = None
    if wrong_order:
        row = SYMMETRY_TABLE[equation.symmetry]
        if not row.wrong_order_axes:
            raise QshjeError("the wrong-order comparison is defined for spherical symmetry")
        idx, snapped = total.snap(axes)
        metric = row.metric(snapped)
        ds = [total.components[lab].ds[i] for lab, i in zip(total.symmetry.coordinate_labels, idx)]
        # zeroing the angular momenta first removes these gradient terms
        # from the would-be classical equation; the gap survives hbar -> 0
        gaps = sum(ds[k] * ds[k] / metric[k] for k in row.wrong_order_axes)
        gaps_arr = np.full(hv.size, np.max(gaps / (2.0 * equation.constants.mass)))
        gap_slope = 0.0
        if np.all(gaps_arr > 0.0):
            gap_slope, _ = _fit_loglog(hv, gaps_arr)
        gaps_out = tuple(float(g) for g in gaps_arr)

    return LimitScanResult(
        hbar_values=tuple(float(h) for h in hv),
        magnitudes=tuple(float(v) for v in mags),
        slope=slope,
        intercept=intercept,
        points=tuple(points),
        wrong_order_gaps=gaps_out,
        wrong_order_slope=gap_slope,
    )
