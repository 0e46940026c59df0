import numpy as np
import pytest
from scipy.special import jv

import qshje as Q
from qshje.reduction import reduce_wavefunction, restore_wavefunction

from conftest import bessel_cylindrical_pair, hydrogen_ground_radial_pair, polar_pair


def test_radial_weight_turns_hydrogen_into_reduced_solution(constants):
    # R = exp(-r) solves the l=0 radial equation; r R must then solve the
    # reduced Schroedinger-form equation, checked by finite differences
    grid = Q.Grid1D.uniform(0.5, 10.0, 801)
    r = grid.points
    reduced = reduce_wavefunction("r", np.exp(-r), grid)
    np.testing.assert_allclose(reduced, r * np.exp(-r))

    problem = Q.spherical_radial_problem(Q.CoulombPotential(1.0), 0, -0.5, constants)
    # both members are r exp(-r); the check reads only the samples, so W = 1 is a placeholder
    dreduced = (1 - r) * np.exp(-r)
    pair = Q.SolutionPair(grid, reduced, reduced, dreduced, dreduced, 1.0, "analytic-catalog",
                          problem)
    res = Q.reduction.reduced_equation_check(pair, problem)
    assert res.max_abs < 1e-7


def test_polar_weight_matches_closed_form(constants):
    # T0 = cos(theta) is the l=1, m=0 polar solution; the reduction produces
    # sin^(1/2) cos, the closed form used across the tests
    grid = Q.Grid1D.uniform(0.3, np.pi - 0.3, 601)
    t = grid.points
    reduced = reduce_wavefunction("theta", np.cos(t), grid)
    np.testing.assert_allclose(reduced, np.sqrt(np.sin(t)) * np.cos(t))

    pair = polar_pair(1, 0, grid)
    res = Q.reduction.reduced_equation_check(pair)
    assert res.max_abs < 1e-6


def test_cylindrical_weight_matches_bessel(constants):
    grid = Q.Grid1D.uniform(0.5, 12.0, 1601)
    rho = grid.points
    reduced = reduce_wavefunction("rho", jv(1, rho), grid)
    np.testing.assert_allclose(reduced, np.sqrt(rho) * jv(1, rho))

    pair = bessel_cylindrical_pair(grid)
    res = Q.reduction.reduced_equation_check(pair)
    assert res.max_abs < 1e-6


def test_round_trip_is_exact():
    grid = Q.Grid1D.uniform(0.4, 2.4, 101)
    rng = np.random.default_rng(7)
    values = rng.normal(size=grid.n)
    for label in ("r", "theta", "rho", "x", "phi", "z"):
        back = restore_wavefunction(label, reduce_wavefunction(label, values, grid), grid)
        np.testing.assert_allclose(back, values, rtol=1e-14)


def test_identity_reduction_is_noop():
    grid = Q.Grid1D.uniform(-2.0, 2.0, 51)
    values = np.sin(grid.points)
    out = reduce_wavefunction("x", values, grid)
    np.testing.assert_array_equal(out, values)


def test_reduction_domain_guards():
    grid = Q.Grid1D.uniform(-1.0, 1.0, 21)
    with pytest.raises(Q.GridDomainError):
        reduce_wavefunction("r", np.ones(grid.n), grid)
    wide = Q.Grid1D.uniform(0.1, 4.0, 21)
    with pytest.raises(Q.GridDomainError):
        reduce_wavefunction("theta", np.ones(wide.n), wide)


def test_reduced_equation_check_flags_wrong_function(constants):
    # exp(-r) alone (without the r weight) does not solve the reduced
    # equation, so the residual check must see a large violation
    grid = Q.Grid1D.uniform(0.5, 10.0, 801)
    r = grid.points
    y = np.exp(-r)
    problem = Q.spherical_radial_problem(Q.CoulombPotential(1.0), 0, -0.5, constants)
    pair = Q.SolutionPair(grid, y, y, -y, -y, 1.0, "analytic-catalog", problem)
    res = Q.reduction.reduced_equation_check(pair, problem)
    assert res.max_abs > 1e-2


def test_numeric_partner_satisfies_reduced_equation():
    grid = Q.Grid1D.uniform(0.5, 10.0, 1201)
    pair = hydrogen_ground_radial_pair(grid)
    res = Q.reduction.reduced_equation_check(pair)
    assert res.max_abs < 1e-6
