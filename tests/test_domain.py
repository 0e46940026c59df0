import numpy as np
import pytest
from scipy.interpolate import CubicSpline

import qshje as Q
from qshje.domain import check_coordinates
from qshje.residuals import SYMMETRY_TABLE


def test_constants_defaults_and_validation():
    c = Q.PhysConstants()
    assert c.hbar == 1.0 and c.mass == 1.0
    with pytest.raises(ValueError, match="hbar must be positive"):
        Q.PhysConstants(hbar=0.0)
    with pytest.raises(ValueError):
        Q.PhysConstants(hbar=-1.0)
    with pytest.raises(ValueError):
        Q.PhysConstants(mass=0.0)
    with pytest.raises(ValueError):
        Q.PhysConstants(hbar=np.inf)
    # every equation divides by hbar^2, which must be a normal float
    for hbar in (1.0e-170, 1.0e-155, 1.0e200):
        with pytest.raises(ValueError, match=r"hbar\^2 must be a normal float"):
            Q.PhysConstants(hbar=hbar)
    assert Q.PhysConstants(hbar=1.5e-154).hbar ** 2 >= np.finfo(float).tiny
    assert Q.PhysConstants(hbar=1.0e154).hbar == 1.0e154


def test_value_equality_kept_where_records_are_compared():
    # assemble_total compares constants by value; every other record
    # compares by identity
    assert Q.PhysConstants(0.5, 2.0) == Q.PhysConstants(0.5, 2.0)
    assert Q.PhysConstants(0.5, 2.0) != Q.PhysConstants(0.5, 1.0)
    assert Q.PhysConstants(0.5, 2.0) != (0.5, 2.0)
    assert Q.HarmonicPotential(1.0) != Q.HarmonicPotential(1.0)


def test_lambda_from_ell():
    assert [Q.lambda_from_ell(l) for l in range(4)] == [0, 2, 6, 12]
    with pytest.raises(ValueError):
        Q.lambda_from_ell(-1)
    with pytest.raises(ValueError):
        Q.lambda_from_ell(1.5)
    with pytest.raises(ValueError):
        Q.lambda_from_ell(True)


def test_symmetry_labels():
    labels = {name: row.coordinate_labels for name, row in SYMMETRY_TABLE.items()}
    assert labels == {
        "cartesian": ("x", "y", "z"),
        "spherical": ("r", "theta", "phi"),
        "cylindrical": ("rho", "phi", "z"),
    }
    assert all(row.value == name for name, row in SYMMETRY_TABLE.items())


def test_quantum_numbers_validation():
    qn = Q.QuantumNumbers(ell=2, m_ell=-2)
    assert Q.lambda_from_ell(qn.ell) == 6
    with pytest.raises(ValueError):
        Q.QuantumNumbers(ell=1, m_ell=2)

    qn = Q.QuantumNumbers(energy=1.5, axis_energies={"x": 0.5, "y": 0.5, "z": 0.5})
    qn.check_axis_energies(("x", "y", "z"))
    bad = Q.QuantumNumbers(energy=1.5, axis_energies={"x": 0.5, "y": 0.5, "z": 0.4})
    with pytest.raises(ValueError, match="axis energies sum"):
        bad.check_axis_energies(("x", "y", "z"))
    with pytest.raises(ValueError, match="missing"):
        Q.QuantumNumbers(energy=1.0, axis_energies={"x": 1.0}).check_axis_energies(("x", "y"))


def test_potential_evaluation(constants):
    q = np.array([0.5, 1.0, 2.0])
    assert np.all(Q.ZeroPotential().evaluate(q, constants) == 0.0)
    np.testing.assert_allclose(
        Q.HarmonicPotential(2.0).evaluate(q, constants), 0.5 * 4.0 * q * q
    )
    np.testing.assert_allclose(Q.CoulombPotential(1.0).evaluate(q, constants), -1.0 / q)
    with pytest.raises(Q.GridDomainError):
        Q.CoulombPotential(1.0).evaluate(np.array([0.0, 1.0]), constants)
    np.testing.assert_allclose(
        Q.PowerLawPotential(3.0, 4.0).evaluate(q, constants), 3.0 * q**4
    )
    with pytest.raises(Q.GridDomainError):
        Q.PowerLawPotential(1.0, -1.0).evaluate(np.array([0.0]), constants)


def test_tabulated_potential_matches_samples(constants):
    x = np.linspace(0.0, 3.0, 61)
    tab = Q.TabulatedPotential(x, x**2)
    probe = np.linspace(0.2, 2.8, 17)
    np.testing.assert_allclose(tab.evaluate(probe, constants), probe**2, atol=1e-10)
    with pytest.raises(Q.GridDomainError):
        tab.evaluate(3.5, constants)
    with pytest.raises(ValueError):
        Q.TabulatedPotential([0.0, 1.0, 1.0, 2.0], [0.0, 1.0, 1.0, 4.0])
    with pytest.raises(ValueError):
        Q.TabulatedPotential([0.0, 1.0], [0.0, 1.0])


_SPACINGS = {
    "uniform": lambda n, rng: np.linspace(0.0, 1.0, n),
    # each node moved by under a third of the spacing, ends kept
    "jittered": lambda n, rng: np.linspace(0.0, 1.0, n)
    + np.r_[0.0, rng.uniform(-0.3, 0.3, n - 2), 0.0] / (n - 1),
    "geometric": lambda n, rng: (np.geomspace(1.0, 50.0, n) - 1.0) / 49.0,
}


@pytest.mark.parametrize("spacing", sorted(_SPACINGS))
@pytest.mark.parametrize("n", [4, 5, 20, 200, 1000])
def test_tabulated_potential_is_the_not_a_knot_spline(constants, n, spacing):
    # scipy's CubicSpline (not-a-knot by default) is the reference
    rng = np.random.default_rng(n)
    x = -3.0 + 7.0 * _SPACINGS[spacing](n, rng)
    v = np.sin(1.3 * x) + 0.2 * x * x
    tab = Q.TabulatedPotential(x, v)
    q = np.r_[np.linspace(x[0], x[-1], 4001), x]
    gap = np.abs(tab.evaluate(q, constants) - CubicSpline(x, v)(q))
    assert np.max(gap) <= 1e-14 * np.max(np.abs(v))
    # each knot but the last starts its own interval, where the spline is the value
    assert np.array_equal(tab.evaluate(x[:-1], constants), v[:-1])
    # the curvature is evaluated on a (cells, substeps, 3) array of RK4 stage nodes
    stages = rng.uniform(x[0], x[-1], (n, 4, 3))
    assert tab.evaluate(stages, constants).shape == (n, 4, 3)
    assert np.array_equal(
        tab.evaluate(stages, constants).ravel(), tab.evaluate(stages.ravel(), constants)
    )


def test_effective_problem_energies(constants):
    # reduced polar / azimuthal / axial effective energies carry the
    # documented hbar^2/2m factors
    pol = Q.spherical_polar_problem(1, 0, constants)
    assert pol.e_eff == pytest.approx((2 + 0.25) / 2.0)
    azi = Q.azimuthal_problem(3, constants)
    assert azi.e_eff == pytest.approx(4.5)
    axi = Q.axial_problem(-1.0, constants)
    assert axi.e_eff == pytest.approx(0.5)
    assert axi.v_eff(np.array([1.0, 2.0])).tolist() == [0.0, 0.0]


def test_effective_energy_past_the_float_range_is_named():
    # m^2 hbar^2 / 2m = 1e400 / 2 and (l(l+1) + 1/4) hbar^2 / 2m overflow
    big = Q.PhysConstants(hbar=1e100)
    with pytest.raises(Q.QshjeError, match=r"^azimuthal: the effective energy is inf"):
        Q.azimuthal_problem(10**100, big)
    with pytest.raises(Q.QshjeError, match=r"^polar-spherical: the effective energy is inf"):
        Q.spherical_polar_problem(10**100, 0, big)


def test_curvature_matches_closed_form_solution(constants):
    # r^2 exp(-r/2) solves the reduced radial hydrogen equation at l=1,
    # E=-1/8, so y''/y must equal the problem curvature
    prob = Q.spherical_radial_problem(Q.CoulombPotential(1.0), 1, -0.125, constants)
    r = np.linspace(0.5, 8.0, 31)
    y = r * r * np.exp(-0.5 * r)
    d2y = (2.0 - 2.0 * r + 0.25 * r * r) * np.exp(-0.5 * r)
    np.testing.assert_allclose(prob.curvature(r), d2y / y, rtol=1e-12)


def test_domain_guards():
    c = Q.PhysConstants()
    prob = Q.spherical_radial_problem(Q.CoulombPotential(1.0), 0, -0.5, c)
    with pytest.raises(Q.GridDomainError):
        check_coordinates(prob.label, np.array([-1.0, 1.0]))
    pol = Q.spherical_polar_problem(1, 1, c)
    with pytest.raises(Q.GridDomainError):
        check_coordinates(pol.label, np.array([0.0, 1.0]))
    with pytest.raises(Q.GridDomainError):
        pol.v_eff(np.array([np.pi]))
    with pytest.raises(ValueError):
        Q.spherical_polar_problem(0, 1, c)


def test_fictive_potentials(constants):
    # the -1/4 of the polar and cylindrical reductions enters v_eff and e_eff
    radial = Q.spherical_radial_problem(Q.ZeroPotential(), 1, -0.5, constants)
    assert radial.v_eff(np.array([2.0]))[0] == pytest.approx(2.0 / (2.0 * 4.0))
    polar = Q.spherical_polar_problem(2, 2, constants)
    assert polar.v_eff(np.array([np.pi / 2.0]))[0] == pytest.approx((4.0 - 0.25) / 2.0)
    assert polar.e_eff == pytest.approx((6.0 + 0.25) / 2.0)
    cyl = Q.cylindrical_radial_problem(Q.ZeroPotential(), 1, -1.0, 0.0, constants)
    assert cyl.v_eff(np.array([2.0]))[0] == pytest.approx((1.0 - 0.25) / 8.0 + 0.5)
