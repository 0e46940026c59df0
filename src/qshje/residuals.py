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
fact that differs between the three classes, one SymmetryRow per config name.
"""
from __future__ import annotations

from typing import Callable

import numpy as np

from .domain import (
    Effective1DProblem,
    PhysConstants,
    PotentialSpec,
    QuantumNumbers,
    axial_problem,
    azimuthal_problem,
    cartesian_axis_problem,
    check_coordinates,
    cylindrical_radial_problem,
    spherical_polar_problem,
    spherical_radial_problem,
)
from .errors import QshjeError
from .ode_engine import analytic_axial, analytic_azimuthal
from .reduced_action import ReducedActionComponent


def component_residual(
    component: ReducedActionComponent, problem: Effective1DProblem
) -> np.ndarray:
    """Left minus right of one separated equation at every grid node.

    The Schwarzian samples belong to the component (closed form, built from
    its own pair), while the effective potential and energy come from the
    problem under test. A pair generated at a different energy therefore
    shows a flat residual equal to the energy offset.
    """
    c = problem.constants
    q = component.grid.points
    check_coordinates(problem.label, q)
    v = np.asarray(problem.v_eff(q), dtype=float)
    # terms past the float range give inf, and inf - inf NaN, which the
    # verify gate names
    with np.errstate(over="ignore", invalid="ignore"):
        kinetic = component.ds * component.ds / (2.0 * c.mass)
        quantum = (c.hbar * c.hbar / (4.0 * c.mass)) * component.schwarzian
        return problem.scale * (kinetic + quantum + v - problem.e_eff)


def _radial_spin(label: str, radius, constants: PhysConstants, theta=None) -> dict:
    """The residual quantum terms of a curvilinear assembled equation by name:
    ter1 = -hbar^2/8m q^2 at the radius q of coordinate label, given a polar
    angle its partner ter2 = ter1 / sin^2 theta, and normalized_coefficient
    -ter1 / (hbar^2/2m q^2); floats or arrays, which broadcast."""
    check_coordinates(label, radius)
    h2 = constants.hbar * constants.hbar
    # a radius whose square overflows gives ref = 0, refused below
    with np.errstate(over="ignore"):
        ref = h2 / (2.0 * constants.mass * radius * radius)
    # normalizing by the same rounded reference keeps the quotient exact:
    # scaling a normal float by 1/4 never rounds, a subnormal one may
    small = np.ravel(ref < np.finfo(float).tiny)
    if small.any():
        at = float(np.ravel(radius)[np.argmax(small)])
        raise QshjeError(
            f"spin terms: hbar^2/(2m {label}^2) is below the smallest normal float "
            f"at {label} = {at!r}"
        )
    ter1 = -0.25 * ref
    terms = {"ter1": ter1}
    if theta is not None:
        check_coordinates("theta", theta)
        s = np.sin(theta)
        terms["ter2"] = ter1 / (s * s)
    terms["normalized_coefficient"] = -ter1 / ref
    return terms


class SymmetryRow:
    """One symmetry class: everything that differs between the classes.

    value, coordinate_labels: the config name (the SYMMETRY_TABLE key) and
        the three coordinates, in the order of every lattice.
    formula: the assembled 3-D equation that verify tabulates.
    metric(q): diagonal metric factors h_k^2 at node coordinates q; the
        inverse-metric weights are 1/h_k^2.
    potential_labels: the coordinates V depends on; V is the sum of one
        potential per label (V_x + V_y + V_z, or V(r), or V(rho)).
    quantum_numbers: the `quantum_numbers` config keys the class reads.
    equations: label -> (run config, quantum numbers, constants) -> the
        Effective1DProblem of that coordinate's separated equation.
    analytic: label -> (quantum numbers, grid, constants) -> analytic pair.
    spin: (q, constants) -> the residual quantum terms by name (_radial_spin),
        None where none survive; spin-report tabulates them over spin_labels
        under spin_formula.
    wrong_order_axes: coordinates whose gradients the wrong-order limit zeroes
        (wrong_order_gap); empty, so --wrong-order-demo is refused, but spherical.
    """

    def __init__(
        self, value: str, coordinate_labels: tuple[str, str, str], formula: str,
        metric: Callable, potential_labels: tuple[str, ...],
        quantum_numbers: tuple[str, ...], equations: dict[str, Callable],
        analytic: dict[str, Callable], spin: Callable | None = None,
        spin_labels: tuple[str, ...] = (), spin_formula: str = "",
        wrong_order_axes: tuple[int, ...] = (),
    ) -> None:
        self.value, self.coordinate_labels = value, coordinate_labels
        self.formula, self.metric, self.potential_labels = formula, metric, potential_labels
        self.quantum_numbers, self.equations, self.analytic = quantum_numbers, equations, analytic
        self.spin, self.spin_labels, self.spin_formula = spin, spin_labels, spin_formula
        self.wrong_order_axes = wrong_order_axes


def _by_value(*rows: SymmetryRow) -> dict[str, SymmetryRow]:
    return {row.value: row for row in rows}


SYMMETRY_TABLE = _by_value(
    SymmetryRow(
        "cartesian", (xyz := ("x", "y", "z")),
        formula="sum_q [ (dS_q)^2/(2m) + (hbar^2/(4m))*{S_q;q} + V_q(q) ] - E",
        metric=lambda q: (1.0, 1.0, 1.0),
        potential_labels=xyz,
        quantum_numbers=("energy", "axis_energies"),
        equations={
            lab: lambda cfg, qn, c, lab=lab: cartesian_axis_problem(
                lab, cfg.potentials[lab], qn.axis_energies[lab], c
            )
            for lab in xyz
        },
        analytic={},
    ),
    SymmetryRow(
        "spherical", ("r", "theta", "phi"),
        formula=(
            "(1/(2m))[(dS_r)^2 + (dS_theta)^2/r^2 + (dS_phi)^2/(r^2 sin^2 theta)]"
            " + (hbar^2/(4m))[{S_r;r} + {S_theta;theta}/r^2 + {S_phi;phi}/(r^2 sin^2 theta)]"
            " - hbar^2/(8m r^2) - hbar^2/(8m r^2 sin^2 theta) + V(r) - E"
        ),
        metric=lambda q: (1.0, q[0] * q[0], q[0] * q[0] * np.sin(q[1]) ** 2),
        potential_labels=("r",),
        quantum_numbers=("ell", "m_ell", "energy"),
        equations={
            "r": lambda cfg, qn, c: spherical_radial_problem(
                cfg.potentials["r"], qn.ell, qn.energy, c
            ),
            "theta": lambda cfg, qn, c: spherical_polar_problem(qn.ell, qn.m_ell, c),
            "phi": lambda cfg, qn, c: azimuthal_problem(qn.m_ell, c),
        },
        analytic={"phi": lambda qn, grid, c: analytic_azimuthal(qn.m_ell, grid, c)},
        spin=lambda q, c: _radial_spin("r", q[0], c, q[1]),
        spin_labels=("r", "theta"),
        spin_formula=(
            "ter1 = -hbar^2/(8 m r^2); ter2 = -hbar^2/(8 m r^2 sin^2 theta); "
            "-2 m r^2 ter1 / hbar^2"
        ),
        wrong_order_axes=(1, 2),
    ),
    SymmetryRow(
        "cylindrical", ("rho", "phi", "z"),
        formula=(
            "(1/(2m))[(dS_rho)^2 + (dS_phi)^2/rho^2 + (dS_z)^2]"
            " + (hbar^2/(4m))[{S_rho;rho} + {S_phi;phi}/rho^2 + {S_z;z}]"
            " - hbar^2/(8m rho^2) + V(rho) - E"
        ),
        metric=lambda q: (1.0, q[0] * q[0], 1.0),
        potential_labels=("rho",),
        quantum_numbers=("m_phi", "beta", "energy"),
        equations={
            "rho": lambda cfg, qn, c: cylindrical_radial_problem(
                cfg.potentials["rho"], qn.m_phi, qn.beta, qn.energy, c
            ),
            "phi": lambda cfg, qn, c: azimuthal_problem(qn.m_phi, c),
            "z": lambda cfg, qn, c: axial_problem(qn.beta, c),
        },
        analytic={
            "phi": lambda qn, grid, c: analytic_azimuthal(qn.m_phi, grid, c),
            "z": lambda qn, grid, c: analytic_axial(qn.beta, grid, c),
        },
        spin=lambda q, c: _radial_spin("rho", q[0], c),
        spin_labels=("rho",),
        spin_formula="ter1 = -hbar^2/(8 m rho^2); -2 m rho^2 ter1 / hbar^2",
    ),
)


class TotalReducedAction:
    """The assembled 3-D equation of one symmetry class: three components,
    their constants, the quantum numbers (energy is the E of the equation)
    and the potentials whose sum is V, keyed by coordinate label.

    Evaluation takes index axes: one 1-D array of node indices per coordinate,
    in symmetry label order, standing for the lattice they span. Values are
    exact nodal samples (no interpolation error enters residuals), and results
    are (n0, n1, n2) arrays that ravel in itertools.product order.
    """

    def __init__(
        self, symmetry: SymmetryRow, components: dict[str, ReducedActionComponent],
        constants: PhysConstants, quantum_numbers: QuantumNumbers,
        potentials: dict[str, PotentialSpec],
    ) -> None:
        self.symmetry, self.components, self.constants = symmetry, components, constants
        self.quantum_numbers, self.potentials = quantum_numbers, potentials

    def lattice(self, idx) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """The np.ix_ broadcast (indices, node values) of the index axes idx."""
        labels = self.symmetry.coordinate_labels
        nodes = (self.components[lab].grid.points[i] for lab, i in zip(labels, idx))
        return np.ix_(*idx), np.ix_(*nodes)

    def metric_sum(self, attr: str, idx, power: int = 1) -> np.ndarray:
        """sum_k f_k^power / h_k^2 on the lattice of idx, f_k the nodal samples
        `attr` of coordinate k and h_k^2 its metric factor; attr "ds" with
        power 2 gives (grad S)^2."""
        ix, nodes = self.lattice(idx)
        labels = self.symmetry.coordinate_labels
        samples = (getattr(self.components[lab], attr)[i] for lab, i in zip(labels, ix))
        weights = tuple(1.0 / g for g in self.symmetry.metric(nodes))
        return sum(f**power * w for f, w in zip(samples, weights))


def assemble_total(
    components: dict[str, ReducedActionComponent],
    symmetry: SymmetryRow,
    quantum_numbers: QuantumNumbers,
    potentials: dict[str, PotentialSpec],
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
    if symmetry.potential_labels == labels:
        if set(potentials) != set(labels):
            raise ValueError(
                f"{symmetry.value} assembly needs potentials for {', '.join(labels)}"
            )
        quantum_numbers.check_axis_energies(labels)
    elif set(potentials) != set(symmetry.potential_labels):
        raise ValueError(f"{symmetry.value} assembly needs a radial potential")
    return TotalReducedAction(
        symmetry, dict(components), constants, quantum_numbers, dict(potentials)
    )


def quantum_terms(total: TotalReducedAction, idx) -> np.ndarray:
    """The hbar-carrying terms of the 3-D equation on the lattice of the index
    axes idx: (hbar^2/4m) times the metric-weighted Schwarzian sum, plus the
    spin terms."""
    c = total.constants
    spin = total.symmetry.spin
    quantum = (c.hbar * c.hbar / (4.0 * c.mass)) * total.metric_sum("schwarzian", idx)
    if spin is not None:
        _, nodes = total.lattice(idx)
        terms = spin(nodes, c)
        # the spin terms are summed before they join: that order fixes the rounding
        quantum = quantum + (terms["ter1"] + terms.get("ter2", 0.0))
    return quantum


def assembled_residual(total: TotalReducedAction, idx) -> np.ndarray:
    """Full 3-D equation on the lattice of the index axes idx, from nodal
    component data: the kinetic term, plus quantum_terms, plus V, minus E."""
    c = total.constants
    quantum = quantum_terms(total, idx)
    kinetic = total.metric_sum("ds", idx, 2) / (2.0 * c.mass)
    _, nodes = total.lattice(idx)
    v = sum(
        total.potentials[lab].evaluate(q, c)
        for lab, q in zip(total.symmetry.coordinate_labels, nodes)
        if lab in total.potentials
    )
    return kinetic + quantum + v - total.quantum_numbers.energy


def component_weighted_sum(total: TotalReducedAction, residuals: dict[str, np.ndarray], idx):
    """Metric-weighted sum of per-component residuals on the lattice of the
    index axes idx.

    Algebraically identical to assembled_residual when each residual came
    from the matching component equation; exposing both routes
    keeps the assembly identity testable instead of tautological.
    """
    ix, nodes = total.lattice(idx)
    labels = total.symmetry.coordinate_labels
    # each residual is divided by its equation's scale times its metric factor
    scales = (total.components[lab].pair.problem.scale for lab in labels)
    vals = (residuals[lab][i] for lab, i in zip(labels, ix))
    metric = total.symmetry.metric(nodes)
    return sum(v / (s * g) for v, s, g in zip(vals, scales, metric))


def probe_indices(points: np.ndarray, per_coordinate: int) -> np.ndarray:
    """Sorted node indices nearest to log-placed values inside the
    stencil-valid interior of one grid, deduplicated."""
    if per_coordinate < 2:
        raise ValueError("need at least 2 probe values per coordinate")
    pts = np.asarray(points, dtype=float)
    lo, hi = pts[2], pts[-3]
    if lo > 0.0:
        raw = np.geomspace(lo, hi, per_coordinate)
    else:
        raw = lo + (hi - lo) * (np.geomspace(1.0, 10.0, per_coordinate) - 1.0) / 9.0
    idx = {int(np.clip(np.argmin(np.abs(pts - v)), 2, pts.size - 3)) for v in raw}
    return np.array(sorted(idx))


def probe_axes(total: TotalReducedAction, per_coordinate: int) -> list[np.ndarray]:
    """The probe index axes of each coordinate, in symmetry label order."""
    return [
        probe_indices(total.components[label].grid.points, per_coordinate)
        for label in total.symmetry.coordinate_labels
    ]


def probe_lattice(total: TotalReducedAction, idx) -> np.ndarray:
    """The (N, 3) node coordinates of the lattice of idx, in itertools.product order."""
    _, nodes = total.lattice(idx)
    return np.column_stack([q.ravel() for q in np.broadcast_arrays(*nodes)])


class LimitScanResult:
    """Fitted scaling of the quantum corrections against hbar."""

    def __init__(
        self, hbar_values: tuple[float, ...], magnitudes: tuple[float, ...], slope: float,
        intercept: float, points: np.ndarray,
    ) -> None:
        self.hbar_values, self.magnitudes, self.slope = hbar_values, magnitudes, slope
        self.intercept, self.points = intercept, points


def hbar_scan_values(hbar_values) -> np.ndarray:
    """The distinct values of an hbar scan, largest first. QshjeError unless
    they are positive, at least 4 and span at least a factor of 10."""
    hv = np.asarray(sorted(set(float(h) for h in hbar_values), reverse=True), dtype=float)
    if np.any(hv <= 0.0):
        raise QshjeError("hbar values must be positive")
    if hv.size < 4:
        raise QshjeError("scan needs at least 4 distinct hbar values")
    if hv[0] / hv[-1] < 10.0:
        raise QshjeError("hbar values must span at least a factor of 10")
    return hv


def least_squares_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    """Slope and intercept of the unweighted least-squares line through the
    points (x, y), in closed form: elementwise products and sums, with no
    BLAS or LAPACK call."""
    dx = x - x.mean()
    slope = float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))
    return slope, float(y.mean() - slope * x.mean())


def classical_limit_scan(
    total: TotalReducedAction, hbar_values, per_coordinate: int
) -> LimitScanResult:
    """Magnitude of the hbar-carrying corrections versus hbar, data fixed, as
    the maximum over the probe lattice with per_coordinate values per axis.

    The corrections are evaluated once, at the run's hbar, and rescaled to
    each scan value, so the fitted log-log slope is 2 by construction.
    """
    hv = hbar_scan_values(hbar_values)
    idx = probe_axes(total, per_coordinate)
    points = probe_lattice(total, idx)

    # every correction, (hbar^2/4m){S;q} and -hbar^2/8mr^2 alike, carries an
    # explicit hbar^2, so at fixed dS and Schwarzian data it scales as hbar^2
    peak = np.max(np.abs(quantum_terms(total, idx)))
    with np.errstate(over="ignore", invalid="ignore"):
        mags = (hv / total.constants.hbar) ** 2 * peak
    # a NaN or zero peak, or a scan value whose magnitude leaves the normal
    # float range, puts a point off the log-log line
    normal = (mags >= np.finfo(float).tiny) & (mags < np.inf)
    if not normal.all():
        k = np.argmin(normal)
        what = "NaN" if np.isnan(mags[k]) else repr(float(mags[k]))
        raise QshjeError(
            f"classical-limit fit: the quantum-term magnitude is {what} at "
            f"hbar = {float(hv[k])!r}, not a positive normal float"
        )
    slope, intercept = least_squares_line(np.log(hv), np.log(mags))
    return LimitScanResult(
        hbar_values=tuple(float(h) for h in hv),
        magnitudes=tuple(float(v) for v in mags),
        slope=slope,
        intercept=intercept,
        points=points,
    )


def wrong_order_gap(total: TotalReducedAction, per_coordinate: int) -> float:
    """The gap left by zeroing the angular gradients before deleting the
    quantum corrections: the angular kinetic energy, maximised over the probe
    lattice with per_coordinate values per axis. It does not depend on hbar."""
    row = total.symmetry
    if not row.wrong_order_axes:
        raise QshjeError("the wrong-order comparison is defined for spherical symmetry")
    ix, nodes = total.lattice(probe_axes(total, per_coordinate))
    metric = row.metric(nodes)
    ds = [total.components[lab].ds[i] for lab, i in zip(row.coordinate_labels, ix)]
    # zeroing the angular momenta first removes these gradient terms
    # from the would-be classical equation; the gap survives hbar -> 0
    gaps = sum(ds[k] * ds[k] / metric[k] for k in row.wrong_order_axes)
    gap = float(np.max(gaps / (2.0 * total.constants.mass)))
    if np.isnan(gap):
        raise QshjeError("wrong-order gap is NaN at a probe point")
    return gap
