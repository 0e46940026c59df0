import dataclasses

import numpy as np
import pytest

import qshje as Q

from conftest import cartesian_oscillator_case, hydrogen_ground_radial_pair, polar_pair
from qshje.residuals import probe_axes


def test_unmixed_azimuthal_residual_is_machine_zero(constants):
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(1, grid, constants)
    comp = Q.build_component("phi", pair, 0.0, 0.0)
    res = Q.component_residual(comp, Q.azimuthal_equation(1, constants))
    # cos^2 + sin^2 lands within one ulp of 1, not on it
    assert np.max(np.abs(res)) < 1e-14


def test_azimuthal_identity_random_mixings(constants):
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 2001)
    rng = np.random.default_rng(17)
    h2 = constants.hbar**2
    for m in (1, 2, 3):
        pair = Q.analytic_azimuthal(m, grid, constants)
        eq = Q.azimuthal_equation(m, constants)
        done = 0
        while done < 5:
            mu, nu = rng.uniform(-1.5, 1.5, size=2)
            if abs(1.0 - mu * nu) <= 0.1:
                continue
            comp = Q.build_component("phi", pair, mu, nu)
            assert np.max(np.abs(Q.component_residual(comp, eq))) < 1e-9 * h2
            done += 1


def test_polar_residual_with_closed_form(constants):
    grid = Q.Grid1D.uniform(0.2, np.pi - 0.2, 1201)
    comp = Q.build_component("theta", polar_pair(1, 1, grid), 0.3, -0.2)
    res = Q.component_residual(comp, Q.spherical_polar_equation(1, 1, constants))
    assert np.max(np.abs(res)) < 1e-9


def test_radial_residual_with_numeric_partner(constants):
    grid = Q.Grid1D.uniform(0.5, 10.0, 2000)
    comp = Q.build_component("r", hydrogen_ground_radial_pair(grid), 0.2, 0.0)
    eq = Q.spherical_radial_equation(Q.CoulombPotential(1.0), 0, -0.5, constants)
    assert np.max(np.abs(Q.component_residual(comp, eq))) < 1e-6


def test_wrong_energy_shows_flat_offset(constants):
    # basis solved at E=-1/2, equation stated at E=-0.4: the residual is a
    # flat plateau equal to the energy offset, not a small number
    grid = Q.Grid1D.uniform(0.5, 10.0, 2000)
    comp = Q.build_component("r", hydrogen_ground_radial_pair(grid), 0.2, 0.0)
    eq = Q.spherical_radial_equation(Q.CoulombPotential(1.0), 0, -0.4, constants)
    res = Q.component_residual(comp, eq)
    np.testing.assert_allclose(res, -0.1, atol=1e-6)


def test_residual_invariant_under_basis_change(constants):
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 2001)
    pair = Q.analytic_azimuthal(2, grid, constants)
    eq = Q.azimuthal_equation(2, constants)
    base = Q.component_residual(Q.build_component("phi", pair, 0.7, -0.2), eq)
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = Q.MobiusMap(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                        rng.uniform(-0.3, 0.3), rng.uniform(1.0, 2.0))
        mu2, nu2 = Q.refit_mixing(0.7, -0.2, m)
        comp2 = Q.build_component("phi", Q.mobius_apply(m, pair), mu2, nu2)
        res2 = Q.component_residual(comp2, eq)
        assert np.max(np.abs(res2 - base)) < 1e-8


def test_component_equation_metadata(constants):
    eq = Q.azimuthal_equation(2, constants)
    assert eq.name == "azimuthal"
    assert eq.scale == 2.0 * constants.mass
    assert "m^2*hbar^2" in eq.formula
    radial = Q.spherical_radial_equation(Q.CoulombPotential(1.0), 1, -0.125, constants)
    assert radial.name == "radial-spherical"
    assert radial.scale == 1.0
    axis = Q.cartesian_axis_equation(Q.HarmonicPotential(1.0), 0.5, constants, "y")
    assert axis.name == "cartesian-axis-y"


def test_assembled_equation_validation(constants):
    qn = Q.QuantumNumbers(energy=1.0)
    with pytest.raises(ValueError, match="radial potential"):
        Q.assembled_equation_for(Q.SymmetryClass.SPHERICAL, qn, constants)
    with pytest.raises(ValueError, match="axis_potentials"):
        Q.assembled_equation_for(Q.SymmetryClass.CARTESIAN, qn, constants)
    bad = Q.QuantumNumbers(energy=1.5, axis_energies={"x": 0.5, "y": 0.5, "z": 0.4})
    pots = {lab: Q.HarmonicPotential(1.0) for lab in ("x", "y", "z")}
    with pytest.raises(ValueError, match="axis energies"):
        Q.assembled_equation_for(Q.SymmetryClass.CARTESIAN, bad, constants, axis_potentials=pots)


def test_assembly_identity_two_routes(hydrogen_total, constants):
    total, equation = hydrogen_total
    residuals = {
        "r": Q.component_residual(
            total.components["r"],
            Q.spherical_radial_equation(Q.CoulombPotential(1.0), 1, -0.125, constants),
        ),
        "theta": Q.component_residual(
            total.components["theta"], Q.spherical_polar_equation(1, 1, constants)
        ),
        "phi": Q.component_residual(
            total.components["phi"], Q.azimuthal_equation(1, constants)
        ),
    }
    for point in Q.probe_lattice(total, per_coordinate=4):
        direct = Q.assembled_residual(total, equation, point)
        summed = Q.component_weighted_sum(total, residuals, point)
        assert abs(direct - summed) < 1e-12
        assert abs(direct) < 1e-6


def test_cylindrical_assembly(cylindrical_total, constants):
    total, equation = cylindrical_total
    residuals = {
        "rho": Q.component_residual(
            total.components["rho"],
            Q.cylindrical_radial_equation(Q.ZeroPotential(), 1, -1.0, 1.0, constants),
        ),
        "phi": Q.component_residual(
            total.components["phi"], Q.azimuthal_equation(1, constants)
        ),
        "z": Q.component_residual(
            total.components["z"], Q.axial_equation(-1.0, constants)
        ),
    }
    for point in Q.probe_lattice(total, per_coordinate=3):
        direct = Q.assembled_residual(total, equation, point)
        summed = Q.component_weighted_sum(total, residuals, point)
        assert abs(direct - summed) < 1e-12
        assert abs(direct) < 1e-6


def test_cartesian_assembly(constants):
    total, equation = cartesian_oscillator_case(rng=np.random.default_rng(2))
    for point in Q.probe_lattice(total, per_coordinate=3):
        assert abs(Q.assembled_residual(total, equation, point)) < 1e-7 * 1.5


def test_classical_mode_drops_corrections(hydrogen_total):
    total, equation = hydrogen_total
    point = (2.0, 1.2, 3.0)
    full = Q.assembled_residual(total, equation, point)
    classical = Q.assembled_residual(total, equation, point, mode="classical")
    terms = Q.assembled_residual(total, equation, point, mode="quantum-terms")
    assert full == pytest.approx(classical + terms, abs=1e-14)
    with pytest.raises(ValueError, match="mode"):
        Q.assembled_residual(total, equation, point, mode="bogus")


def test_quantum_terms_vanish_at_zero_hbar(hydrogen_total):
    total, equation = hydrogen_total
    frozen = Q.PhysConstants(hbar=0.0)
    for point in Q.probe_lattice(total, per_coordinate=3)[:5]:
        out = Q.assembled_residual(
            total, equation, point, mode="quantum-terms", constants=frozen
        )
        assert out == 0.0


@pytest.mark.parametrize("case", ["hydrogen_total", "cylindrical_total", "cartesian"])
def test_lattice_matches_per_point_calls(case, request):
    # one broadcast call over the probe axes equals the per-point calls over
    # probe_lattice, element for element, in itertools.product order
    if case == "cartesian":
        total, equation = cartesian_oscillator_case(rng=np.random.default_rng(3))
    else:
        total, equation = request.getfixturevalue(case)
    samples = {lab: comp.schwarzian for lab, comp in total.components.items()}
    axes = probe_axes(total, per_coordinate=4)
    points = Q.probe_lattice(total, per_coordinate=4)
    direct = Q.assembled_residual(total, equation, axes)
    summed = Q.component_weighted_sum(total, samples, axes)
    assert direct.shape == summed.shape == tuple(len(a) for a in axes)
    assert direct.ravel().tolist() == [Q.assembled_residual(total, equation, p) for p in points]
    assert summed.ravel().tolist() == [
        Q.component_weighted_sum(total, samples, p) for p in points
    ]


def test_probe_lattice_is_deterministic(hydrogen_total):
    total, _ = hydrogen_total
    first = Q.probe_lattice(total, per_coordinate=5)
    second = Q.probe_lattice(total, per_coordinate=5)
    assert first == second
    assert len(first) <= 125
    for point in first:
        idx, snapped = total.snap_point(point)
        assert snapped == point  # probes sit exactly on nodes
        for lab, i in zip(("r", "theta", "phi"), idx):
            assert 2 <= i <= total.components[lab].grid.n - 3
    with pytest.raises(ValueError, match="at least 2"):
        Q.probe_axis_values(total.components["r"].grid.points, 1)


def test_spin_terms_values(constants):
    s = Q.spin_terms(Q.SymmetryClass.SPHERICAL, (1.0, np.pi / 2.0), constants)
    assert s.ter1 == -0.125
    assert s.ter2 == pytest.approx(-0.125, abs=1e-12)
    assert s.normalized_coefficient == 0.25

    quarter = Q.spin_terms(Q.SymmetryClass.SPHERICAL, (1.0, np.pi / 4.0), constants)
    assert quarter.ter2 == pytest.approx(-0.25, rel=1e-12)
    assert quarter.total() == pytest.approx(-0.375, rel=1e-12)

    cyl = Q.spin_terms(Q.SymmetryClass.CYLINDRICAL, (2.0,), constants)
    assert cyl.ter1 == -1.0 / 32.0
    assert cyl.ter2 is None
    assert cyl.normalized_coefficient == 0.25

    with pytest.raises(Q.QshjeError):
        Q.spin_terms(Q.SymmetryClass.CARTESIAN, (1.0, 1.0, 1.0), constants)
    with pytest.raises(Q.GridDomainError):
        Q.spin_terms(Q.SymmetryClass.SPHERICAL, (-1.0, 1.0), constants)
    with pytest.raises(Q.GridDomainError):
        Q.spin_terms(Q.SymmetryClass.SPHERICAL, (1.0, 0.0), constants)
    with pytest.raises(Q.GridDomainError):
        Q.spin_terms(Q.SymmetryClass.CYLINDRICAL, (0.0,), constants)


def test_spin_coefficient_scales_out_constants():
    heavy = Q.PhysConstants(hbar=0.7, mass=3.2)
    s = Q.spin_terms(Q.SymmetryClass.SPHERICAL, (1.7, 0.9), heavy)
    assert s.normalized_coefficient == 0.25


def test_classical_limit_scan_slope(hydrogen_total):
    total, equation = hydrogen_total
    hv = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
    result = Q.classical_limit_scan(total, equation, hv)
    assert result.slope == pytest.approx(2.0, abs=0.05)
    assert result.hbar_values == hv
    assert len(result.magnitudes) == 6
    assert result.wrong_order_gaps is None


def test_classical_limit_scan_wrong_order(hydrogen_total):
    total, equation = hydrogen_total
    hv = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
    result = Q.classical_limit_scan(total, equation, hv, wrong_order=True)
    gaps = np.asarray(result.wrong_order_gaps)
    # the angular kinetic gap ignores hbar entirely
    assert np.all(gaps == gaps[0])
    assert gaps[0] > 1.0
    assert abs(result.wrong_order_slope) < 1e-12
    assert gaps[0] > 100.0 * min(result.magnitudes)


def test_classical_limit_scan_preconditions(hydrogen_total, cylindrical_total):
    total, equation = hydrogen_total
    with pytest.raises(Q.QshjeError, match="4 distinct"):
        Q.classical_limit_scan(total, equation, (1.0, 0.5, 0.25))
    with pytest.raises(Q.QshjeError, match="factor of 10"):
        Q.classical_limit_scan(total, equation, (1.0, 0.8, 0.6, 0.4))
    with pytest.raises(Q.QshjeError, match="positive"):
        Q.classical_limit_scan(total, equation, (1.0, 0.5, 0.25, -0.1))
    cyl_total, cyl_eq = cylindrical_total
    with pytest.raises(Q.QshjeError, match="spherical"):
        Q.classical_limit_scan(
            cyl_total, cyl_eq, (1.0, 0.5, 0.25, 0.125, 0.0625), wrong_order=True
        )


def test_make_report_scales(constants):
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(2, grid, constants)
    comp = Q.build_component("phi", pair, 1.5, 0.3)
    eq = Q.azimuthal_equation(2, constants)
    report = Q.make_report(eq, comp)
    # scale reference: equation scale times max(|e_eff|, hbar^2/(2 m L^2))
    assert report.scale_ref == pytest.approx(2.0 * 2.0)
    assert report.normalized_max == pytest.approx(report.max_abs / report.scale_ref)
    assert report.coords.size == grid.n
    windowed = Q.make_report(eq, comp, window=(10, 700))
    assert windowed.coords.size == 690
    assert windowed.equation == "azimuthal"
    assert report.rms <= report.max_abs


def test_component_residual_at_scaled_hbar(constants):
    # rescaling hbar with data fixed reweights only the Schwarzian term
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(2, grid, constants)
    comp = Q.build_component("phi", pair, 0.4, -0.3)
    eq = Q.azimuthal_equation(2, constants)
    half = Q.PhysConstants(hbar=0.5, mass=constants.mass)
    res_half = Q.component_residual(comp, eq, constants=half)
    kinetic = comp.ds**2 / (2.0 * half.mass)
    quantum = (half.hbar**2 / (4.0 * half.mass)) * comp.schwarzian
    expected = eq.scale * (kinetic + quantum - eq.problem.e_eff)
    np.testing.assert_allclose(res_half, expected, rtol=1e-14)
