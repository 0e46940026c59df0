import numpy as np

import qshje as Q
from qshje.reduction import reduced_equation_check

from conftest import bessel_cylindrical_pair, hydrogen_ground_radial_pair, polar_pair


def test_radial_weight_turns_hydrogen_into_reduced_solution(constants):
    # R = exp(-r) solves the l=0 radial equation; r R must then solve the
    # reduced Schroedinger-form equation, checked by finite differences
    grid = Q.Grid1D(0.5, 10.0, 801)
    r = grid.points
    reduced = r * np.exp(-r)

    problem = Q.spherical_radial_problem(Q.CoulombPotential(1.0), 0, -0.5, constants)
    # both members are r exp(-r); the check reads only the samples, so W = 1 is a placeholder
    dreduced = (1 - r) * np.exp(-r)
    pair = Q.SolutionPair(grid, reduced, reduced, dreduced, dreduced, 1.0, "analytic-catalog",
                          problem)
    res = reduced_equation_check(pair, problem)
    assert res < 1e-7


def test_polar_weight_matches_closed_form(constants):
    # T0 = cos(theta) is the l=1, m=0 polar solution; the pair holds its
    # reduced form sin^(1/2) cos
    grid = Q.Grid1D(0.3, np.pi - 0.3, 601)
    pair = polar_pair(1, 0, grid)
    res = reduced_equation_check(pair)
    assert res < 1e-6


def test_cylindrical_weight_matches_bessel(constants):
    # the pair holds sqrt(rho) J_1(rho), the reduced m = 1 Bessel solution
    grid = Q.Grid1D(0.5, 12.0, 1601)
    pair = bessel_cylindrical_pair(grid)
    res = reduced_equation_check(pair)
    assert res < 1e-6


def test_reduced_equation_check_flags_wrong_function(constants):
    # exp(-r) alone (without the r weight) does not solve the reduced
    # equation, so the residual check must see a large violation
    grid = Q.Grid1D(0.5, 10.0, 801)
    r = grid.points
    y = np.exp(-r)
    problem = Q.spherical_radial_problem(Q.CoulombPotential(1.0), 0, -0.5, constants)
    pair = Q.SolutionPair(grid, y, y, -y, -y, 1.0, "analytic-catalog", problem)
    res = reduced_equation_check(pair, problem)
    assert res > 1e-2


def test_numeric_partner_satisfies_reduced_equation():
    grid = Q.Grid1D(0.5, 10.0, 1201)
    pair = hydrogen_ground_radial_pair(grid)
    res = reduced_equation_check(pair)
    assert res < 1e-6
