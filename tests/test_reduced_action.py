import numpy as np
import pytest
from scipy.integrate import simpson

import qshje as Q

from conftest import oscillator_axis_pair


def test_unmixed_azimuthal_action_is_linear(constants):
    # a = cos(phi), b = sin(phi): S = hbar arctan(cot phi) unwraps to
    # hbar (pi/2 - phi), with dS identically -hbar
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(1, grid, constants)
    comp = Q.build_component("phi", pair, 0.0, 0.0)
    hbar = constants.hbar
    np.testing.assert_allclose(comp.ds, -hbar)
    np.testing.assert_allclose(comp.s, hbar * (np.pi / 2.0 - grid.points), atol=1e-12)
    np.testing.assert_allclose(comp.amplitude, 1.0, rtol=0.0, atol=1e-15)
    assert comp.branch_residual < 1e-12


def test_momentum_matches_derivative_of_action(constants):
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 64001)
    pair = Q.analytic_azimuthal(2, grid, constants)
    comp = Q.build_component("phi", pair, 1.5, 0.3)
    b = Q.differentiate(comp.s, grid)
    inner = comp.ds[b.start : b.stop]
    assert np.max(np.abs(b.d1 - inner) / np.abs(inner)) < 1e-6


def test_continuity_product_is_exact_constant(constants):
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 721)
    for m, mu, nu in ((1, 0.4, -0.3), (2, 1.5, 0.3), (3, -0.6, 0.8)):
        pair = Q.analytic_azimuthal(m, grid, constants)
        comp = Q.build_component("phi", pair, mu, nu)
        expected = constants.hbar * (1.0 - mu * nu) * (-m)
        np.testing.assert_allclose(comp.amplitude**2 * comp.ds, expected, rtol=1e-13)


def test_degenerate_mixing_rejected(constants):
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(1, grid, constants)
    with pytest.raises(Q.DegenerateMobiusError):
        Q.build_component("phi", pair, 2.0, 0.5)


def test_branch_check_rejects_coarse_grid(constants):
    # unwrapping cannot follow the action across cells that wind more than
    # half a turn; the arctan cross-check catches it
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 9)
    pair = Q.analytic_azimuthal(3, grid, constants)
    with pytest.raises(Q.QshjeError, match="too coarse"):
        Q.build_component("phi", pair, 1.5, 0.3)


def test_axial_degenerate_pair_momentum(constants):
    # pair {1, z} with mu = nu = 0: dS = hbar W / (1 + z^2)
    grid = Q.Grid1D.uniform(-3.0, 3.0, 601)
    pair = Q.analytic_axial(0.0, grid, constants)
    comp = Q.build_component("z", pair, 0.0, 0.0)
    np.testing.assert_allclose(
        comp.ds, constants.hbar / (1.0 + grid.points**2), rtol=1e-13
    )


def test_momentum_sign_matches_mixing(constants):
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 721)
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
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 2001)
    pair = Q.analytic_azimuthal(1, grid, constants)
    comp = Q.build_component("phi", pair, 0.4, -0.3)
    total = simpson(comp.ds, x=grid.points)
    assert comp.s[-1] - comp.s[0] == pytest.approx(total, abs=1e-6)


def test_additive_phase_never_enters_momentum(constants):
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(2, grid, constants)
    plain = Q.build_component("phi", pair, 0.4, -0.3)
    shifted = Q.build_component("phi", pair, 0.4, -0.3, phase_e=0.7)
    np.testing.assert_array_equal(plain.ds, shifted.ds)
    np.testing.assert_array_equal(plain.amplitude, shifted.amplitude)
    np.testing.assert_array_equal(plain.schwarzian, shifted.schwarzian)
    np.testing.assert_allclose(
        shifted.s - plain.s, 0.7 * constants.hbar, rtol=0, atol=1e-12
    )


def test_assemble_total_validates_labels(constants):
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(1, grid, constants)
    comp = Q.build_component("phi", pair, 0.0, 0.0)
    with pytest.raises(ValueError, match="needs components"):
        Q.assemble_total({"phi": comp}, Q.SymmetryClass.SPHERICAL, Q.QuantumNumbers(), {})

    other = Q.build_component(
        "z", Q.analytic_axial(0.0, Q.Grid1D.uniform(-3.0, 3.0, 601),
                              Q.PhysConstants(hbar=2.0)), 0.0, 0.0
    )
    comps = {
        "rho": Q.build_component("rho", Q.analytic_axial(0.0, Q.Grid1D.uniform(0.3, 3.0, 601),
                                                         constants), 0.0, 0.0),
        "phi": comp,
        "z": other,
    }
    with pytest.raises(ValueError, match="different physical constants"):
        Q.assemble_total(comps, Q.SymmetryClass.CYLINDRICAL, Q.QuantumNumbers(), {})


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
    grid = Q.Grid1D.uniform(-6.0, 6.0, 1201)
    comps = {
        lab: Q.build_component(lab, oscillator_axis_pair(grid, lab), 0.3, -0.2)
        for lab in ("x", "y", "z")
    }
    qn = Q.QuantumNumbers(energy=1.5, axis_energies={"x": 0.5, "y": 0.5, "z": 0.5})
    pots = {lab: Q.HarmonicPotential(1.0) for lab in ("x", "y", "z")}
    total = Q.assemble_total(comps, Q.SymmetryClass.CARTESIAN, qn, pots)
    idx = [np.array([100, 650]), np.array([500]), np.array([800, 900, 1000])]
    ix, _ = total.lattice(idx)
    by_hand = sum(comps[lab].ds[i] ** 2 for lab, i in zip(("x", "y", "z"), ix))
    assert by_hand.shape == (2, 1, 3)
    np.testing.assert_allclose(total.metric_sum("ds", idx, 2), by_hand, rtol=1e-14)
