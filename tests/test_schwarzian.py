import numpy as np
import pytest

import qshje as Q


def exact_mobius_bundle(m, grid):
    """Analytic derivatives of the linear-fractional function (a q + b)/(c q + d)."""
    a, b, c, d = m
    q = grid.points
    den = c * q + d
    det = a * d - b * c
    return Q.DerivativeBundle(
        grid, 0, grid.n,
        (a * q + b) / den,
        det / den**2,
        -2.0 * c * det / den**3,
        6.0 * c * c * det / den**4,
    )


def test_differentiate_cubic_third_derivative():
    grid = Q.Grid1D.uniform(-1.0, 1.0, 201)
    b = Q.differentiate(grid.points**3, grid)
    np.testing.assert_allclose(b.d3, 6.0, atol=1e-6)
    np.testing.assert_allclose(b.d1, 3.0 * b.coords**2, atol=1e-10)
    assert (b.start, b.stop) == (2, grid.n - 2)


def test_differentiate_sine_second_derivative():
    grid = Q.Grid1D.uniform(0.0, 4.0, 401)  # h = 0.01
    b = Q.differentiate(np.sin(grid.points), grid)
    np.testing.assert_allclose(b.d2, -np.sin(b.coords), atol=1e-8)


def test_differentiate_constant_is_exact():
    grid = Q.Grid1D.uniform(0.0, 1.0, 51)
    b = Q.differentiate(np.full(grid.n, 2.5), grid)
    assert np.all(b.d1 == 0.0) and np.all(b.d2 == 0.0) and np.all(b.d3 == 0.0)


def test_differentiate_rejects_ragged_grid():
    pts = np.concatenate([np.linspace(0.0, 1.0, 30), np.linspace(1.05, 2.0, 25)])
    grid = Q.Grid1D(pts)
    for order in (1, 2, 3):
        with pytest.raises(Q.GridDomainError, match="uniform grid"):
            Q.differentiate(grid.points**2, grid, max_order=order)


def test_differentiate_input_validation():
    grid = Q.Grid1D.uniform(0.0, 1.0, 11)
    with pytest.raises(ValueError, match="match the grid"):
        Q.differentiate(np.zeros(10), grid)
    with pytest.raises(ValueError, match="max_order"):
        Q.differentiate(np.zeros(11), grid, max_order=4)


def test_schwarzian_of_exponential():
    grid = Q.Grid1D.uniform(0.0, 1.0, 201)
    out = Q.schwarzian(Q.differentiate(np.exp(grid.points), grid))
    np.testing.assert_allclose(out, -0.5, atol=1e-5)


def test_schwarzian_of_tangent():
    grid = Q.Grid1D.uniform(-0.5, 0.5, 2001)
    out = Q.schwarzian(Q.differentiate(np.tan(grid.points), grid))
    np.testing.assert_allclose(out, 2.0, atol=1e-5)


def test_schwarzian_of_linear_vanishes():
    grid = Q.Grid1D.uniform(0.0, 1.0, 101)
    out = Q.schwarzian(Q.differentiate(3.0 * grid.points + 2.0, grid))
    np.testing.assert_allclose(out, 0.0, atol=1e-9)


def test_schwarzian_requires_third_order():
    grid = Q.Grid1D.uniform(0.0, 1.0, 101)
    b = Q.differentiate(np.exp(grid.points), grid, max_order=2)
    with pytest.raises(ValueError, match="order 3"):
        Q.schwarzian(b)


def test_schwarzian_node_detection():
    # S' = 2q changes sign inside the window: a node of the action
    grid = Q.Grid1D.uniform(-1.0, 1.0, 101)
    with pytest.raises(Q.SchwarzianNodeError):
        Q.schwarzian(Q.differentiate(grid.points**2, grid))


def test_schwarzian_floor_masking():
    # S' = 3q^2 touches zero without changing sign: masked, not raised
    grid = Q.Grid1D.uniform(-1.0, 1.0, 201)
    out = Q.schwarzian(Q.differentiate(grid.points**3, grid))
    assert np.any(np.isnan(out))
    assert np.sum(np.isnan(out)) < 5
    assert np.all(np.isfinite(out[np.abs(Q.differentiate(grid.points**3, grid).coords) > 0.2]))


def test_closed_form_flat_for_unmixed_azimuthal(constants):
    # m=1, mu=nu=0: amplitude is identically 1, Schwarzian identically 0
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(1, grid, constants)
    np.testing.assert_array_equal(Q.build_component("phi", pair, 0.0, 0.0).schwarzian, 0.0)


def test_closed_form_against_finite_difference(constants):
    # strongly mixed m=2 case; the momentum-differencing route keeps the
    # round-off floor below the target even though the Schwarzian peaks near 474
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 32001)
    pair = Q.analytic_azimuthal(2, grid, constants)
    comp = Q.build_component("phi", pair, 1.5, 0.3)
    fd = Q.schwarzian_from_momentum(comp.ds, grid)
    live = ~np.isnan(fd)
    assert np.max(np.abs(fd[live] - comp.schwarzian[live])) < 1e-5


def test_closed_form_one_dimensional_identity(constants):
    # free axial pair: (dS)^2 + (hbar^2/2){S;z} must equal hbar^2 exactly
    grid = Q.Grid1D.uniform(-3.0, 3.0, 801)
    pair = Q.analytic_axial(-1.0, grid, constants)
    comp = Q.build_component("z", pair, 0.5, 0.0)
    h2 = constants.hbar**2
    identity = comp.ds**2 + 0.5 * h2 * comp.schwarzian
    np.testing.assert_allclose(identity, h2, atol=1e-8)


def test_fd_schwarzian_converges_at_second_order(constants):
    # truncation of the third-derivative stencil dominates: slope 2
    errs, hs = [], []
    for n in (201, 401, 801, 1601):
        grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, n)
        pair = Q.analytic_azimuthal(1, grid, constants)
        comp = Q.build_component("phi", pair, 0.4, -0.3)
        b = Q.differentiate(comp.s, grid)
        fd = Q.schwarzian(b)
        closed = comp.schwarzian[b.start : b.stop]
        errs.append(np.max(np.abs(fd - closed)))
        hs.append(grid.spacing)
    slope = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.2)


def test_mixed_solutions_guards(constants):
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 101)
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
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 4001)
    pair = Q.analytic_azimuthal(1, grid, constants)
    comp = Q.build_component("phi", pair, 0.4, -0.3)
    base = Q.schwarzian(Q.differentiate(comp.s, grid))
    for m in random_maps(rng, 20):
        mapped = Q.schwarzian(Q.differentiate(mobius_transform(m, comp.s), grid))
        live = ~np.isnan(base) & ~np.isnan(mapped)
        assert np.max(np.abs(mapped[live] - base[live])) < 1e-5


def test_linear_fractional_functions_have_zero_schwarzian():
    rng = np.random.default_rng(3)
    grid = Q.Grid1D.uniform(0.0, 1.0, 501)
    for m in random_maps(rng, 20):
        out = Q.schwarzian(exact_mobius_bundle(m, grid))
        assert np.max(np.abs(out)) < 1e-10
