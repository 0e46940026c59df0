import numpy as np
import pytest

import qshje as Q
from qshje.schwarzian import schwarzian_from_amplitude

from conftest import fd_schwarzian


def test_differentiate_cubic_third_derivative():
    grid = Q.Grid1D(-1.0, 1.0, 201)
    d1 = Q.differentiate(grid.points**3, grid)
    d3 = Q.differentiate(Q.differentiate(d1, grid), grid)
    np.testing.assert_allclose(d3[6:-6], 6.0, atol=1e-6)
    np.testing.assert_allclose(d1[2:-2], 3.0 * grid.points[2:-2] ** 2, atol=1e-10)
    assert np.isnan(d1[:2]).all() and np.isnan(d1[-2:]).all()


def test_differentiate_sine_second_derivative():
    grid = Q.Grid1D(0.0, 4.0, 401)  # h = 0.01
    d2 = Q.differentiate(Q.differentiate(np.sin(grid.points), grid), grid)
    np.testing.assert_allclose(d2[4:-4], -np.sin(grid.points[4:-4]), atol=1e-8)


def test_differentiate_constant_is_exact():
    grid = Q.Grid1D(0.0, 1.0, 51)
    d1 = Q.differentiate(np.full(grid.n, 2.5), grid)
    d2 = Q.differentiate(d1, grid)
    d3 = Q.differentiate(d2, grid)
    assert np.all(d1[2:-2] == 0.0) and np.all(d2[4:-4] == 0.0) and np.all(d3[6:-6] == 0.0)


def test_differentiate_input_validation():
    grid = Q.Grid1D(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="match the grid"):
        Q.differentiate(np.zeros(10), grid)


@pytest.mark.parametrize(
    "f, lo, hi, n, expected, atol",
    [
        (np.exp, 0.0, 1.0, 201, -0.5, 1e-5),
        (np.tan, -0.5, 0.5, 2001, 2.0, 1e-5),
        (lambda q: 3.0 * q + 2.0, 0.0, 1.0, 101, 0.0, 1e-9),
    ],
    ids=["exponential", "tangent", "linear"],
)
def test_schwarzian_of_known_functions(f, lo, hi, n, expected, atol):
    grid = Q.Grid1D(lo, hi, n)
    out = fd_schwarzian(Q.differentiate(f(grid.points), grid), grid)
    np.testing.assert_allclose(out[6:-6], expected, atol=atol)


def test_closed_form_flat_for_unmixed_azimuthal(constants):
    # m=1, mu=nu=0: amplitude is identically 1, Schwarzian identically 0
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(1, grid, constants)
    np.testing.assert_array_equal(Q.build_component("phi", pair, 0.0, 0.0).schwarzian, 0.0)


def test_closed_form_against_finite_difference(constants):
    # strongly mixed m=2 case; differencing D = 1/S' twice keeps the round-off
    # floor below the target even though the Schwarzian peaks near 474
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 32001)
    pair = Q.analytic_azimuthal(2, grid, constants)
    comp = Q.build_component("phi", pair, 1.5, 0.3)
    fd = fd_schwarzian(comp.ds, grid)
    live = ~np.isnan(fd)
    assert np.max(np.abs(fd[live] - comp.schwarzian[live])) < 1e-5


def test_closed_form_one_dimensional_identity(constants):
    # free axial pair: (dS)^2 + (hbar^2/2){S;z} must equal hbar^2 exactly
    grid = Q.Grid1D(-3.0, 3.0, 801)
    pair = Q.analytic_axial(-1.0, grid, constants)
    comp = Q.build_component("z", pair, 0.5, 0.0)
    h2 = constants.hbar**2
    identity = comp.ds**2 + 0.5 * h2 * comp.schwarzian
    np.testing.assert_allclose(identity, h2, atol=1e-8)


def test_fd_schwarzian_converges_at_fourth_order(constants):
    # the action is exact at every node, so only the 5-point stencil's O(h^4)
    # error is left; at 1601 nodes the error sits at the round-off floor
    errs, hs = [], []
    for n in (201, 401, 801):
        grid = Q.Grid1D(0.0, 2.0 * np.pi, n)
        pair = Q.analytic_azimuthal(1, grid, constants)
        comp = Q.build_component("phi", pair, 0.4, -0.3)
        fd = fd_schwarzian(Q.differentiate(comp.s, grid), grid)
        errs.append(np.max(np.abs(fd[6:-6] - comp.schwarzian[6:-6])))
        hs.append(grid.spacing)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(4.0, abs=0.3)


def test_mixed_solutions_guards(constants):
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 101)
    pair = Q.analytic_azimuthal(1, grid, constants)
    with pytest.raises(Q.DegenerateMobiusError):
        Q.mixed_solutions(pair, 2.0, 0.5)
    with pytest.raises(ValueError):
        Q.mixed_solutions(pair, np.nan, 0.0)


def random_maps(rng, count):
    maps = []
    while len(maps) < count:
        a = rng.uniform(-2.0, 2.0)
        b = rng.uniform(-2.0, 2.0)
        c = rng.uniform(-0.1, 0.1)
        d = float(rng.choice([-1.0, 1.0])) * rng.uniform(1.5, 2.5)
        if abs(a * d - b * c) > 0.3:
            maps.append((a, b, c, d))
    return maps


def mobius_transform(m, f):
    a, b, c, d = m
    return (a * f + b) / (c * f + d)


def test_mobius_invariance_finite_difference(constants):
    # transform the sampled action, re-difference, compare Schwarzians
    rng = np.random.default_rng(42)
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 4001)
    pair = Q.analytic_azimuthal(1, grid, constants)
    comp = Q.build_component("phi", pair, 0.4, -0.3)
    base = fd_schwarzian(Q.differentiate(comp.s, grid), grid)
    for m in random_maps(rng, 20):
        mapped = fd_schwarzian(Q.differentiate(mobius_transform(m, comp.s), grid), grid)
        live = ~np.isnan(base) & ~np.isnan(mapped)
        assert np.max(np.abs(mapped[live] - base[live])) < 1e-5


def exact_mobius_amplitude(m, grid):
    """Analytic (D, D', D'') of the linear-fractional function (a q + b)/(c q + d),
    whose derivative is det/(c q + d)^2, so D = 1/S' = (c q + d)^2/det."""
    a, b, c, d = m
    den = c * grid.points + d
    det = a * d - b * c
    return den**2 / det, 2.0 * c * den / det, 2.0 * c * c / det


def test_linear_fractional_functions_have_zero_schwarzian():
    rng = np.random.default_rng(3)
    grid = Q.Grid1D(0.0, 1.0, 501)
    for m in random_maps(rng, 20):
        out = schwarzian_from_amplitude(*exact_mobius_amplitude(m, grid))
        assert np.max(np.abs(out)) < 1e-10
