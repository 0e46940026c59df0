"""Shared analytic solution catalog for tests.

Each builder returns a SolutionPair whose first member is a hand-checked
closed-form solution of the corresponding coordinate equation; the partner is
either a second closed form or is integrated numerically with seeds chosen
independent of the first member.
"""
import numpy as np
import pytest
from scipy.special import dawsn, jv, jvp, yv, yvp

import qshje as Q

CONSTANTS = Q.PhysConstants()


@pytest.fixture
def constants():
    return CONSTANTS


def sampled_pair(grid, y1, dy1, y2, dy2, problem, wronskian, provenance, wronskian_tol=1e-6):
    """A pair from supplied samples whose Wronskian stays within tolerance."""
    pair = Q.SolutionPair(grid, y1, y2, dy1, dy2, wronskian, provenance, problem)
    assert pair.wronskian_drift() <= wronskian_tol
    return pair


def numeric_partner_pair(problem, grid, y1, dy1, substeps=4, wronskian_tol=1e-6):
    """Closed-form first member plus an integrated partner.

    Seeds: the first solution takes its exact (value, derivative) at the
    anchor node; the partner takes whichever unit vector is independent.
    The pair's Wronskian is its value at the anchor.
    """
    anchor = grid.midpoint_index
    v, dv = float(y1[anchor]), float(dy1[anchor])
    partner_seed = (0.0, 1.0) if abs(v) >= abs(dv) else (1.0, 0.0)
    solved = Q.solve_pair(
        problem, grid, seeds=((v, dv), partner_seed), substeps=substeps,
        wronskian_tol=wronskian_tol,
    )
    w = float(y1[anchor] * solved.dy2[anchor] - solved.y2[anchor] * dy1[anchor])
    return sampled_pair(
        grid, y1, dy1, solved.y2, solved.dy2, problem, w, "numerical", wronskian_tol
    )


def hydrogen_ground_radial_pair(grid, substeps=4):
    """Coulomb k=1, l=0, E=-1/2; first member r exp(-r)."""
    problem = Q.spherical_radial_problem(Q.CoulombPotential(1.0), 0, -0.5, CONSTANTS)
    r = grid.points
    y1 = r * np.exp(-r)
    dy1 = (1.0 - r) * np.exp(-r)
    return numeric_partner_pair(problem, grid, y1, dy1, substeps=substeps)


def hydrogen_2p_radial_pair(grid, substeps=4):
    """Coulomb k=1, l=1, E=-1/8; first member r^2 exp(-r/2)."""
    problem = Q.spherical_radial_problem(Q.CoulombPotential(1.0), 1, -0.125, CONSTANTS)
    r = grid.points
    y1 = r * r * np.exp(-0.5 * r)
    dy1 = (2.0 * r - 0.5 * r * r) * np.exp(-0.5 * r)
    return numeric_partner_pair(problem, grid, y1, dy1, substeps=substeps)


def polar_pair(ell, m_ell, grid, substeps=4):
    """Reduced polar equation; closed forms for (l, m) = (1, 0) and (1, 1)."""
    problem = Q.spherical_polar_problem(ell, m_ell, CONSTANTS)
    t = grid.points
    s, c = np.sin(t), np.cos(t)
    if (ell, m_ell) == (1, 0):
        y1 = np.sqrt(s) * c
        dy1 = 0.5 * c * c / np.sqrt(s) - s ** 1.5
    elif (ell, m_ell) == (1, 1):
        y1 = s ** 1.5
        dy1 = 1.5 * np.sqrt(s) * c
    else:
        raise ValueError(f"no closed form stored for (ell, m_ell) = ({ell}, {m_ell})")
    return numeric_partner_pair(problem, grid, y1, dy1, substeps=substeps)


def oscillator_axis_pair(grid, label="x"):
    """Harmonic axis at E = 1/2 (omega = 1): exp(-x^2/2) and the
    reduction-of-order partner dawsn(x) exp(x^2/2); W = 1 exactly."""
    problem = Q.cartesian_axis_problem(label, Q.HarmonicPotential(1.0), 0.5, CONSTANTS)
    x = grid.points
    y1 = np.exp(-0.5 * x * x)
    dy1 = -x * y1
    gauss_up = np.exp(0.5 * x * x)
    y2 = dawsn(x) * gauss_up
    dy2 = -x * y2 + gauss_up
    return sampled_pair(grid, y1, dy1, y2, dy2, problem, 1.0, "analytic-catalog")


def bessel_cylindrical_pair(grid):
    """Free cylindrical radial pair at m_phi=1, beta=-1, E=1:
    sqrt(rho) J1(rho) and sqrt(rho) Y1(rho); W = 2/pi exactly."""
    problem = Q.cylindrical_radial_problem(Q.ZeroPotential(), 1, -1.0, 1.0, CONSTANTS)
    rho = grid.points
    root = np.sqrt(rho)
    j, djd = jv(1, rho), jvp(1, rho)
    y, dyd = yv(1, rho), yvp(1, rho)
    return sampled_pair(
        grid,
        root * j, 0.5 * j / root + root * djd,
        root * y, 0.5 * y / root + root * dyd,
        problem, 2.0 / np.pi, "analytic-catalog",
    )


@pytest.fixture
def azimuthal_component():
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(2, grid, CONSTANTS)
    return Q.build_component("phi", pair, 1.5, 0.3)


@pytest.fixture(scope="session")
def hydrogen_total():
    """Assembled spherical case: l=1, m_l=1, E=-1/8, mixed pair sources."""
    r_grid = Q.Grid1D.uniform(0.5, 12.0, 1601)
    t_grid = Q.Grid1D.uniform(0.2, np.pi - 0.2, 1201)
    p_grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 721)
    comps = {
        "r": Q.build_component("r", hydrogen_2p_radial_pair(r_grid), 0.2, 0.0),
        "theta": Q.build_component("theta", polar_pair(1, 1, t_grid), 0.3, -0.2),
        "phi": Q.build_component("phi", Q.analytic_azimuthal(1, p_grid, CONSTANTS), 0.0, 0.0),
    }
    qn = Q.QuantumNumbers(ell=1, m_ell=1, energy=-0.125)
    return Q.assemble_total(
        comps, Q.SymmetryClass.SPHERICAL, qn, {"r": Q.CoulombPotential(1.0)}
    )


@pytest.fixture(scope="session")
def cylindrical_total():
    """Assembled cylindrical free case: m_phi=1, beta=-1, E=1."""
    r_grid = Q.Grid1D.uniform(0.3, 12.0, 1601)
    p_grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 721)
    z_grid = Q.Grid1D.uniform(-3.0, 3.0, 601)
    comps = {
        "rho": Q.build_component("rho", bessel_cylindrical_pair(r_grid), 0.3, 0.1),
        "phi": Q.build_component("phi", Q.analytic_azimuthal(1, p_grid, CONSTANTS), 0.5, -0.1),
        "z": Q.build_component("z", Q.analytic_axial(-1.0, z_grid, CONSTANTS), 0.0, 0.0),
    }
    qn = Q.QuantumNumbers(m_phi=1, beta=-1.0, energy=1.0)
    return Q.assemble_total(comps, Q.SymmetryClass.CYLINDRICAL, qn, {"rho": Q.ZeroPotential()})


def cartesian_oscillator_case(rng=None, mixings=None):
    """Assembled isotropic oscillator, per-axis ground energies."""
    if mixings is None:
        if rng is None:
            rng = np.random.default_rng(0)
        mixings = {}
        for lab in ("x", "y", "z"):
            mu = rng.uniform(-0.8, 0.8)
            nu = rng.uniform(-0.8, 0.8)
            mixings[lab] = (mu, nu)
    grid = Q.Grid1D.uniform(-6.0, 6.0, 1201)
    comps = {}
    for lab in ("x", "y", "z"):
        mu, nu = mixings[lab]
        comps[lab] = Q.build_component(lab, oscillator_axis_pair(grid, lab), mu, nu)
    qn = Q.QuantumNumbers(energy=1.5, axis_energies={"x": 0.5, "y": 0.5, "z": 0.5})
    pots = {lab: Q.HarmonicPotential(1.0) for lab in ("x", "y", "z")}
    return Q.assemble_total(comps, Q.SymmetryClass.CARTESIAN, qn, pots)
