import re

import numpy as np
import pytest
from scipy.special import expi

import qshje as Q
from qshje.reduction import reduced_equation_check


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_grid_validation():
    with pytest.raises(ValueError, match="need at least 9 grid points, got 8"):
        Q.Grid1D(0.0, 1.0, 8)
    # linspace cannot represent these: equal nodes, reversed ends, an overflowing span
    with pytest.raises(ValueError, match="strictly increasing"):
        Q.Grid1D(1.0e17, 1.0000000000000002e17, 101)
    with pytest.raises(ValueError, match="strictly increasing"):
        Q.Grid1D(1.0, 0.0, 11)
    with pytest.raises(ValueError, match="finite"):
        Q.Grid1D(-1e308, 1e308, 11)

    g = Q.Grid1D(0.0, 1.0, 11)
    assert (g.lo, g.hi, g.n) == (0.0, 1.0, 11)
    assert np.array_equal(g.points, np.linspace(0.0, 1.0, 11))
    assert g.points[0] == 0.0 and g.points[-1] == 1.0
    assert g.spacing == pytest.approx(0.1)
    assert g.midpoint_index == 5
    assert g == Q.Grid1D(0.0, 1.0, 11) and g != Q.Grid1D(0.0, 1.0, 13)


def test_solution_pair_validation(constants):
    grid = Q.Grid1D(0.0, 1.0, 11)
    prob = Q.axial_problem(0.0, constants)
    z = np.zeros(grid.n)
    o = np.ones(grid.n)
    with pytest.raises(ValueError, match="Wronskian"):
        Q.SolutionPair(grid, o, o, z, z, 0.0, "analytic-catalog", prob)
    with pytest.raises(ValueError, match="provenance"):
        Q.SolutionPair(grid, o, grid.points, z, o, 1.0, "guessed", prob)
    with pytest.raises(ValueError, match="shape"):
        Q.SolutionPair(grid, o[:-1], grid.points, z, o, 1.0, "numerical", prob)

    pair = Q.SolutionPair(grid, o, grid.points.copy(), z, o, 1.0, "analytic-catalog", prob)
    with pytest.raises(ValueError):
        pair.y1[0] = 2.0  # samples are read-only


def test_analytic_azimuthal_catalog(constants):
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(1, grid, constants)
    assert pair.wronskian == -1.0
    pair3 = Q.analytic_azimuthal(3, grid, constants)
    assert pair3.y1[0] == 0.0 and pair3.y2[0] == 1.0

    pair2 = Q.analytic_azimuthal(2, grid, constants)
    assert pair2.wronskian_drift() < 1e-7
    res = reduced_equation_check(pair2)
    assert res < 1e-8

    with pytest.raises(ValueError):
        Q.analytic_azimuthal(1.5, grid, constants)


def test_analytic_azimuthal_degenerate(constants):
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(0, grid, constants)
    assert pair.wronskian == 1.0
    np.testing.assert_array_equal(pair.wronskian_samples(), np.ones(grid.n))
    assert pair.y2[-1] == pytest.approx(2.0 * np.pi)
    res = reduced_equation_check(pair)
    assert res < 1e-10


def test_analytic_axial_catalog(constants):
    grid = Q.Grid1D(-3.0, 3.0, 601)
    up = Q.analytic_axial(1.0, grid, constants)
    mid = np.argmin(np.abs(grid.points))
    assert up.y1[mid] == pytest.approx(1.0) and up.y2[mid] == pytest.approx(1.0)
    assert up.wronskian == -2.0
    assert up.wronskian_drift() < 1e-7

    osc = Q.analytic_axial(-4.0, grid, constants)
    assert osc.wronskian == -2.0
    assert osc.wronskian_drift() < 1e-7

    lin = Q.analytic_axial(0.0, grid, constants)
    assert lin.wronskian == 1.0

    huge = Q.Grid1D(-800.0, 800.0, 801)
    with pytest.raises(Q.SolverFailure, match="overflow"):
        Q.analytic_axial(1.0, huge, constants)


def test_free_particle_pair(constants):
    # zero potential at E = hbar^2/2m: pair spans {sin, cos}, W identically 1
    prob = Q.cartesian_axis_problem("x", Q.ZeroPotential(), 0.5, constants)
    grid = Q.Grid1D(-5.0, 5.0, 1001)
    pair = Q.solve_pair(prob, grid, substeps=2)
    assert pair.wronskian == 1.0
    assert pair.wronskian_drift() < 1e-9

    a = grid.points[grid.midpoint_index]
    np.testing.assert_allclose(pair.y1, np.cos(grid.points - a), atol=1e-9)
    np.testing.assert_allclose(pair.y2, np.sin(grid.points - a), atol=1e-9)


def test_coulomb_reduction_of_order(constants):
    # second solution from seeds (0, 1/X1(a)) must equal X1 * int_a^r dt/X1^2;
    # the integral of e^{2t}/t^2 has the closed form 2 Ei(2t) - e^{2t}/t
    grid = Q.Grid1D(0.5, 10.0, 2000)
    prob = Q.spherical_radial_problem(Q.CoulombPotential(1.0), 0, -0.5, constants)
    a = grid.points[grid.midpoint_index]
    y1a = a * np.exp(-a)
    dy1a = (1.0 - a) * np.exp(-a)
    pair = Q.solve_pair(
        prob, grid, seeds=((y1a, dy1a), (0.0, 1.0 / y1a)), substeps=4, wronskian_tol=1e-7
    )
    assert pair.wronskian == pytest.approx(1.0)
    assert pair.wronskian_drift() < 1e-7

    r = grid.points
    anti = lambda t: 2.0 * expi(2.0 * t) - np.exp(2.0 * t) / t
    oracle = r * np.exp(-r) * (anti(r) - anti(a))
    scale = float(np.max(np.abs(oracle)))
    np.testing.assert_allclose(pair.y2, oracle, rtol=1e-6, atol=1e-6 * scale)

    np.testing.assert_allclose(pair.y1, r * np.exp(-r), rtol=1e-8, atol=1e-10)


def test_polar_pair_by_residual(constants):
    prob = Q.spherical_polar_problem(1, 0, constants)
    grid = Q.Grid1D(0.2, np.pi - 0.2, 1201)
    pair = Q.solve_pair(prob, grid, substeps=4)
    res = reduced_equation_check(pair)
    assert res < 1e-6


def test_basis_change_fits_on_four_points(constants):
    # any two pairs of one equation differ by a constant 2x2 basis change:
    # coefficients fitted on 4 samples predict the whole grid
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 721)
    base = Q.analytic_azimuthal(2, grid, constants)
    other = Q.solve_pair(
        Q.azimuthal_problem(2, constants), grid,
        seeds=((0.3, 1.1), (0.9, -0.2)), substeps=4,
    )
    sample = [30, 200, 430, 650]
    design = np.column_stack([base.y1[sample], base.y2[sample]])
    for member in (other.y1, other.y2):
        coef, *_ = np.linalg.lstsq(design, member[sample], rcond=None)
        predicted = coef[0] * base.y1 + coef[1] * base.y2
        err = np.max(np.abs(predicted - member)) / np.max(np.abs(member))
        assert err < 1e-6


def test_rk4_order_measured(constants):
    # global error against the sin/cos solution shrinks as h^4
    prob = Q.axial_problem(-1.0, constants)
    errs, hs = [], []
    for n in (101, 201, 401, 801):
        grid = Q.Grid1D(-3.0, 3.0, n)
        pair = Q.solve_pair(prob, grid, wronskian_tol=1e-4)
        a = grid.points[grid.midpoint_index]
        exact = np.cos(grid.points - a)
        errs.append(np.max(np.abs(pair.y1 - exact)))
        hs.append(grid.spacing)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.2)


def test_solve_pair_seed_validation(constants):
    prob = Q.axial_problem(-1.0, constants)
    grid = Q.Grid1D(-3.0, 3.0, 101)
    with pytest.raises(ValueError, match="linearly dependent"):
        Q.solve_pair(prob, grid, seeds=((1.0, 2.0), (2.0, 4.0)))
    with pytest.raises(ValueError, match="shape"):
        Q.solve_pair(prob, grid, seeds=((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)))
    with pytest.raises(ValueError, match="substeps"):
        Q.solve_pair(prob, grid, substeps=0)


def test_solve_pair_overflow_reports_location(constants):
    # harmonic well integrated deep into the forbidden region blows up
    prob = Q.cartesian_axis_problem("x", Q.HarmonicPotential(1.0), 0.5, constants)
    grid = Q.Grid1D(-40.0, 40.0, 801)
    where = re.escape("exceeded 1e+160 near q = 27.299999999999997 (")
    with pytest.raises(Q.SolverFailure, match=where):
        Q.solve_pair(prob, grid, substeps=2)


def test_wronskian_tolerance_enforced(constants):
    prob = Q.axial_problem(-1.0, constants)
    grid = Q.Grid1D(-3.0, 3.0, 51)
    with pytest.raises(Q.SolverFailure, match="drift"):
        Q.solve_pair(prob, grid, wronskian_tol=1e-12)


def _substep_matrix(c1, c2, c4, h):
    """One RK4 substep of u'' = c u on Python floats, applied to the unit
    states (1, 0) and (0, 1); returns its matrix entries (a, b, e, d) of
    [[a, b], [e, d]]."""
    half, sixth = 0.5 * h, h / 6.0
    cols = []
    for y, dy in ((1.0, 0.0), (0.0, 1.0)):
        k1y, k1d = dy, c1 * y
        k2y, k2d = dy + half * k1d, c2 * (y + half * k1y)
        k3y, k3d = dy + half * k2d, c2 * (y + half * k2y)
        k4y, k4d = dy + h * k3d, c4 * (y + h * k3y)
        cols.append((y + sixth * (k1y + 2.0 * k2y + 2.0 * k3y + k4y),
                     dy + sixth * (k1d + 2.0 * k2d + 2.0 * k3d + k4d)))
    (a, e), (b, d) = cols
    return a, b, e, d


def _per_point_sweep(curvature, q_nodes, state0, substeps):
    """Reference propagator: one curvature call per stage node, the substep
    and cell matrices built cell by cell, in the propagator's operation order."""
    c = lambda q: float(curvature(q))
    (y1, y2), (d1, d2) = state0.tolist()
    us, dus = [(y1, y2)], [(d1, d2)]
    for i in range(len(q_nodes) - 1):
        h = float((q_nodes[i + 1] - q_nodes[i]) / substeps)
        q = float(q_nodes[i])
        cell = None
        for k in range(substeps):
            end = float(q_nodes[i + 1]) if k == substeps - 1 else q + h
            t = _substep_matrix(c(q), c(q + 0.5 * h), c(end), h)
            if cell is None:
                cell = t
            else:
                (ka, kb, ke, kd), (a, b, e, d) = t, cell
                cell = (ka * a + kb * e, ka * b + kb * d, ke * a + kd * e, ke * b + kd * d)
            q = q + h
        a, b, e, d = cell
        y1, d1, y2, d2 = a * y1 + b * d1, e * y1 + d * d1, a * y2 + b * d2, e * y2 + d * d2
        us.append((y1, y2))
        dus.append((d1, d2))
    return np.array(us), np.array(dus)


def _state_form_sweep(curvature, q_nodes, state0, substeps):
    """Independent RK4 loop: one curvature call per stage, the state of both
    solutions as a numpy array, no matrices."""
    state = state0.astype(float).copy()
    us = [state[0].copy()]
    dus = [state[1].copy()]

    def f(q, s):
        return np.vstack((s[1], curvature(q) * s[0]))

    for i in range(len(q_nodes) - 1):
        q = q_nodes[i]
        h_cell = (q_nodes[i + 1] - q_nodes[i]) / substeps
        for _ in range(substeps):
            k1 = f(q, state)
            k2 = f(q + 0.5 * h_cell, state + 0.5 * h_cell * k1)
            k3 = f(q + 0.5 * h_cell, state + 0.5 * h_cell * k2)
            k4 = f(q + h_cell, state + h_cell * k3)
            state = state + (h_cell / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            q = q + h_cell
        us.append(state[0].copy())
        dus.append(state[1].copy())
    return np.array(us), np.array(dus)


def _per_point_pair(problem, grid, seeds, anchor, substeps, sweep=_per_point_sweep):
    (v1, d1), (v2, d2) = seeds
    state0 = np.array([[v1, v2], [d1, d2]])
    pts = grid.points
    u_r, du_r = sweep(problem.curvature, pts[anchor:], state0, substeps)
    u_l, du_l = sweep(problem.curvature, pts[anchor::-1], state0, substeps)
    u = np.vstack((u_l[::-1][:-1], u_r))
    du = np.vstack((du_l[::-1][:-1], du_r))
    return u[:, 0], u[:, 1], du[:, 0], du[:, 1]


def _oracle_cases(constants):
    table = np.linspace(-4.5, 4.5, 40)
    tabulated = Q.TabulatedPotential(table, 0.5 * table**2 + 0.1 * np.sin(3.0 * table))
    return {
        "coulomb-ell1": (
            Q.spherical_radial_problem(Q.CoulombPotential(1.0), 1, -0.125, constants),
            Q.Grid1D(0.5, 12.0, 241),
        ),
        "polar-m1": (
            Q.spherical_polar_problem(1, 1, constants),
            Q.Grid1D(0.2, np.pi - 0.2, 181),
        ),
        "harmonic-axis": (
            Q.cartesian_axis_problem("x", Q.HarmonicPotential(1.3), 0.65, constants),
            Q.Grid1D(-4.0, 4.0, 161),
        ),
        "tabulated": (
            Q.cartesian_axis_problem("y", tabulated, 0.7, constants),
            Q.Grid1D(-4.0, 4.0, 161),
        ),
    }


@pytest.mark.parametrize("name", ["coulomb-ell1", "polar-m1", "harmonic-axis", "tabulated"])
def test_solve_pair_matches_per_point_loop_bit_for_bit(constants, name):
    problem, grid = _oracle_cases(constants)[name]
    seeds = ((0.3, 1.1), (0.9, -0.2))
    for substeps in (1, 3):
        pair = Q.solve_pair(problem, grid, seeds=seeds, substeps=substeps, wronskian_tol=1.0)
        expected = _per_point_pair(problem, grid, seeds, grid.midpoint_index, substeps)
        for got, want in zip((pair.y1, pair.y2, pair.dy1, pair.dy2), expected):
            assert np.array_equal(got, want), substeps


@pytest.mark.parametrize("name", ["coulomb-ell1", "polar-m1", "harmonic-axis", "tabulated"])
def test_solve_pair_matches_state_form_rk4(constants, name):
    # the transfer matrices reorder RK4's round-off, nothing more
    problem, grid = _oracle_cases(constants)[name]
    seeds = ((0.3, 1.1), (0.9, -0.2))
    for substeps in (1, 3):
        pair = Q.solve_pair(problem, grid, seeds=seeds, substeps=substeps, wronskian_tol=1.0)
        expected = _per_point_pair(
            problem, grid, seeds, grid.midpoint_index, substeps, sweep=_state_form_sweep
        )
        for got, want in zip((pair.y1, pair.y2, pair.dy1, pair.dy2), expected):
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want)), substeps


def test_solve_pair_evaluates_curvature_once_per_sweep(constants):
    shapes = []
    base = Q.cartesian_axis_problem("x", Q.HarmonicPotential(1.0), 0.5, constants)

    def counted(q):
        shapes.append(np.shape(q))
        return base.v_eff(q)

    problem = Q.Effective1DProblem(
        base.label, base.name, base.formula, counted, base.e_eff, base.constants, base.scale
    )
    Q.solve_pair(problem, Q.Grid1D(-3.0, 3.0, 101), substeps=3)
    # (cells, substeps, stage nodes q, q + h/2, q + h) for each of the two sweeps
    assert shapes == [(50, 3, 3), (50, 3, 3)]


def test_stage_nodes_stay_inside_the_grid(constants):
    # the last stage node of each cell is the next grid node itself, so a
    # table ending exactly at a grid end covers every node the solver asks for
    nodes = []
    base = Q.spherical_radial_problem(Q.CoulombPotential(1.0), 0, -0.125, constants)

    def recorded(q):
        nodes.append(np.array(q))
        return base.v_eff(q)

    grid = Q.Grid1D(0.5, 12.0, 1601)
    problem = Q.Effective1DProblem(
        base.label, base.name, base.formula, recorded, base.e_eff, base.constants, base.scale
    )
    Q.solve_pair(problem, grid, substeps=4)
    for q in nodes:
        assert grid.lo <= q.min() and q.max() <= grid.hi
        assert q[-1, -1, -1] in (grid.lo, grid.hi)
