import numpy as np
import pytest
from scipy.integrate import simpson

import qshje as Q
from qshje.residuals import SYMMETRY_TABLE

from conftest import oscillator_axis_pair


def test_unmixed_azimuthal_action_is_linear(constants):
    # a = cos(phi), b = sin(phi): S = hbar arctan(cot phi) unwraps to
    # hbar (pi/2 - phi), with dS identically -hbar
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(1, grid, constants)
    comp = Q.build_component("phi", pair, 0.0, 0.0)
    hbar = constants.hbar
    np.testing.assert_allclose(comp.ds, -hbar)
    # exact to a few ulp of the largest |S|, with no quadrature error
    expected = hbar * (np.pi / 2.0 - grid.points)
    bound = 4.0 * np.finfo(float).eps * np.max(np.abs(expected))
    np.testing.assert_allclose(comp.s, expected, rtol=0.0, atol=bound)
    np.testing.assert_allclose(comp.amplitude, 1.0, rtol=0.0, atol=1e-15)
    # wavenumber m = 1, so a cell can turn the phase by at most its width
    assert comp.branch_residual == pytest.approx(grid.spacing, rel=1e-12)


def test_momentum_matches_derivative_of_action(constants):
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 64001)
    pair = Q.analytic_azimuthal(2, grid, constants)
    comp = Q.build_component("phi", pair, 1.5, 0.3)
    fd = Q.differentiate(comp.s, grid)[2:-2]
    inner = comp.ds[2:-2]
    assert np.max(np.abs(fd - inner) / np.abs(inner)) < 1e-6


def test_continuity_product_is_exact_constant(constants):
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 721)
    for m, mu, nu in ((1, 0.4, -0.3), (2, 1.5, 0.3), (3, -0.6, 0.8)):
        pair = Q.analytic_azimuthal(m, grid, constants)
        comp = Q.build_component("phi", pair, mu, nu)
        expected = constants.hbar * (1.0 - mu * nu) * (-m)
        np.testing.assert_allclose(comp.amplitude**2 * comp.ds, expected, rtol=1e-13)


def test_degenerate_mixing_rejected(constants):
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(1, grid, constants)
    with pytest.raises(Q.DegenerateMobiusError):
        Q.build_component("phi", pair, 2.0, 0.5)


def test_branch_check_rejects_coarse_grid(constants):
    # unwrapping cannot follow the action across cells that turn it by half a
    # turn or more: m = 5 on cells of pi/4 turns the phase by 5 pi/4 per cell
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 9)
    pair = Q.analytic_azimuthal(5, grid, constants)
    with pytest.raises(Q.QshjeError, match="too coarse"):
        Q.build_component("phi", pair, 1.5, 0.3)


@pytest.mark.parametrize("n", (9, 13, 101, 721))
@pytest.mark.parametrize("mu, nu", ((1.5, 0.3), (0.0, 0.0), (0.4, -0.3), (0.0, 2.0)))
def test_every_accepted_azimuthal_action_winds_m_turns(constants, mu, nu, n):
    # from m h = pi on (m = (n - 1)/2), the nodes cannot tell m from a smaller
    # winding; the guard refuses exactly those, whatever the mixing, and
    # every m below winds m whole turns
    grid = Q.Grid1D(0.0, 2.0 * np.pi, n)
    refused = []
    for m in range(1, 2 * n):
        pair = Q.analytic_azimuthal(m, grid, constants)
        try:
            comp = Q.build_component("phi", pair, mu, nu)
        except Q.QshjeError as err:
            assert "grid too coarse" in str(err)
            refused.append(m)
            continue
        winding = abs(comp.s[-1] - comp.s[0]) / (2.0 * np.pi * constants.hbar)
        assert winding == pytest.approx(m, rel=0.0, abs=1e-9)
    assert refused == list(range((n - 1) // 2, 2 * n))


def test_aliased_unmixed_azimuthal_is_refused(constants):
    # each cell advances by 2 pi + 0.35 rad, which unwrap reads as 0.35 rad
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(760, grid, constants)
    with pytest.raises(Q.QshjeError, match=r"wavenumber 6.63 rad\); grid too coarse"):
        Q.build_component("phi", pair, 0.0, 0.0)


def test_aliased_spiky_azimuthal_is_refused(constants):
    # every node sees the same (a, b) = (1, 2), so unwrap reads no turn at
    # all, and the trapezoid of dS/dq misses the true 2 pi per cell as well
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(720, grid, constants)
    with pytest.raises(Q.QshjeError, match=r"wavenumber 6.28 rad\); grid too coarse"):
        Q.build_component("phi", pair, 0.0, 2.0)


def test_saturating_oscillator_axis_solves(constants):
    # deep in the forbidden regions the phase saturates and arctan2 steps
    # back by one ulp against the momentum's sign; the guard reads the
    # wavenumber, not the steps, and the action keeps each step as it is
    grid = Q.Grid1D(-6.0, 6.0, 1201)
    problem = Q.cartesian_axis_problem("z", Q.HarmonicPotential(1.249773), 1.8746595, constants)
    pair = Q.solve_pair(problem, grid, substeps=4)
    a, b = Q.mixed_solutions(pair, -0.159603, -0.410335)[:2]
    steps = np.diff(np.unwrap(np.arctan2(a, b)))
    assert np.any(np.sign(steps) == -np.sign(pair.wronskian))
    comp = Q.build_component("z", pair, -0.159603, -0.410335)
    np.testing.assert_allclose(np.diff(comp.s) / constants.hbar, steps, rtol=0.0, atol=1e-13)


def test_axial_degenerate_pair_momentum(constants):
    # pair {1, z} with mu = nu = 0: dS = hbar W / (1 + z^2)
    grid = Q.Grid1D(-3.0, 3.0, 601)
    pair = Q.analytic_axial(0.0, grid, constants)
    comp = Q.build_component("z", pair, 0.0, 0.0)
    np.testing.assert_allclose(
        comp.ds, constants.hbar / (1.0 + grid.points**2), rtol=1e-13
    )


def test_momentum_sign_matches_mixing(constants):
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 721)
    rng = np.random.default_rng(9)
    for m in (1, 2, 3):
        pair = Q.analytic_azimuthal(m, grid, constants)
        for _ in range(5):
            mu, nu = rng.uniform(-1.2, 1.2, size=2)
            if abs(1.0 - mu * nu) < 0.1:
                continue
            comp = Q.build_component("phi", pair, mu, nu)
            expected = np.sign((1.0 - mu * nu) * pair.wronskian)
            assert np.all(np.sign(comp.ds) == expected)


def test_action_increment_equals_quadrature(constants):
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 2001)
    pair = Q.analytic_azimuthal(1, grid, constants)
    comp = Q.build_component("phi", pair, 0.4, -0.3)
    total = simpson(comp.ds, x=grid.points)
    assert comp.s[-1] - comp.s[0] == pytest.approx(total, abs=1e-6)


def test_assemble_total_validates_labels(constants):
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(1, grid, constants)
    comp = Q.build_component("phi", pair, 0.0, 0.0)
    with pytest.raises(ValueError, match="needs components"):
        Q.assemble_total({"phi": comp}, SYMMETRY_TABLE["spherical"], Q.QuantumNumbers(), {})

    other = Q.build_component(
        "z", Q.analytic_axial(0.0, Q.Grid1D(-3.0, 3.0, 601),
                              Q.PhysConstants(hbar=2.0)), 0.0, 0.0
    )
    comps = {
        "rho": Q.build_component("rho", Q.analytic_axial(0.0, Q.Grid1D(0.3, 3.0, 601),
                                                         constants), 0.0, 0.0),
        "phi": comp,
        "z": other,
    }
    with pytest.raises(ValueError, match="different physical constants"):
        Q.assemble_total(comps, SYMMETRY_TABLE["cylindrical"], Q.QuantumNumbers(), {})


def test_total_action_lattice_and_metric(hydrogen_total):
    total = hydrogen_total
    idx = [np.array([10, 200]), np.array([600]), np.array([5, 6, 7])]
    ix, nodes = total.lattice(idx)
    assert [q.shape for q in nodes] == [(2, 1, 1), (1, 1, 1), (1, 1, 3)]
    for lab, i, j, q in zip(("r", "theta", "phi"), idx, ix, nodes):
        assert np.array_equal(j.ravel(), i)
        assert np.array_equal(q.ravel(), total.components[lab].grid.points[i])

    # the unmixed m=1 azimuthal component contributes hbar^2/(r^2 sin^2 theta)
    idx = [np.array([100, 800]), np.array([300, 700]), np.array([400])]
    ix, (r, theta, _) = total.lattice(idx)
    ds_r = total.components["r"].ds[ix[0]]
    ds_t = total.components["theta"].ds[ix[1]]
    hbar = total.constants.hbar
    expected_phi = hbar**2 / (r * r * np.sin(theta) ** 2)
    got = total.metric_sum("ds", idx, 2) - ds_r**2 - ds_t**2 / (r * r)
    assert got.shape == (2, 2, 1)
    np.testing.assert_allclose(got, expected_phi, rtol=1e-12)


def test_cartesian_gradient_is_plain_sum(constants):
    grid = Q.Grid1D(-6.0, 6.0, 1201)
    comps = {
        lab: Q.build_component(lab, oscillator_axis_pair(grid, lab), 0.3, -0.2)
        for lab in ("x", "y", "z")
    }
    qn = Q.QuantumNumbers(energy=1.5, axis_energies={"x": 0.5, "y": 0.5, "z": 0.5})
    pots = {lab: Q.HarmonicPotential(1.0) for lab in ("x", "y", "z")}
    total = Q.assemble_total(comps, SYMMETRY_TABLE["cartesian"], qn, pots)
    idx = [np.array([100, 650]), np.array([500]), np.array([800, 900, 1000])]
    ix, _ = total.lattice(idx)
    by_hand = sum(comps[lab].ds[i] ** 2 for lab, i in zip(("x", "y", "z"), ix))
    assert by_hand.shape == (2, 1, 3)
    np.testing.assert_allclose(total.metric_sum("ds", idx, 2), by_hand, rtol=1e-14)
