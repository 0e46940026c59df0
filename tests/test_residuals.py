import itertools
import pathlib
import re

import numpy as np
import pytest

import qshje as Q

from conftest import cartesian_oscillator_case, hydrogen_ground_radial_pair, polar_pair
from qshje.cli import build_case
from qshje.residuals import (
    MAX_PROBE_POINTS, SYMMETRY_TABLE, least_squares_line, probe_axes, quantum_terms,
    wrong_order_gap,
)
from qshje.schwarzian import amplitude_derivatives, schwarzian_from_amplitude

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def test_unmixed_azimuthal_residual_is_machine_zero(constants):
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 721)
    pair = Q.analytic_azimuthal(1, grid, constants)
    comp = Q.build_component("phi", pair, 0.0, 0.0)
    res = Q.component_residual(comp, Q.azimuthal_problem(1, constants))
    # cos^2 + sin^2 lands within one ulp of 1, not on it
    assert np.max(np.abs(res)) < 1e-14


def test_azimuthal_identity_random_mixings(constants):
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 2001)
    rng = np.random.default_rng(17)
    h2 = constants.hbar**2
    for m in (1, 2, 3):
        pair = Q.analytic_azimuthal(m, grid, constants)
        eq = Q.azimuthal_problem(m, constants)
        done = 0
        while done < 5:
            mu, nu = rng.uniform(-1.5, 1.5, size=2)
            if abs(1.0 - mu * nu) <= 0.1:
                continue
            comp = Q.build_component("phi", pair, mu, nu)
            assert np.max(np.abs(Q.component_residual(comp, eq))) < 1e-9 * h2
            done += 1


def test_polar_residual_with_closed_form(constants):
    grid = Q.Grid1D(0.2, np.pi - 0.2, 1201)
    comp = Q.build_component("theta", polar_pair(1, 1, grid), 0.3, -0.2)
    res = Q.component_residual(comp, Q.spherical_polar_problem(1, 1, constants))
    assert np.max(np.abs(res)) < 1e-9


def test_radial_residual_with_numeric_partner(constants):
    grid = Q.Grid1D(0.5, 10.0, 2000)
    comp = Q.build_component("r", hydrogen_ground_radial_pair(grid), 0.2, 0.0)
    eq = Q.spherical_radial_problem(Q.CoulombPotential(1.0), 0, -0.5, constants)
    assert np.max(np.abs(Q.component_residual(comp, eq))) < 1e-6


def test_wrong_energy_shows_flat_offset(constants):
    # basis solved at E=-1/2, equation stated at E=-0.4: the residual is a
    # flat plateau equal to the energy offset, not a small number
    grid = Q.Grid1D(0.5, 10.0, 2000)
    comp = Q.build_component("r", hydrogen_ground_radial_pair(grid), 0.2, 0.0)
    eq = Q.spherical_radial_problem(Q.CoulombPotential(1.0), 0, -0.4, constants)
    res = Q.component_residual(comp, eq)
    np.testing.assert_allclose(res, -0.1, atol=1e-6)


def fd_relative_residual(comp, problem):
    """max |L - R| / (|kinetic| + |quantum| + |v_eff - e_eff|) over the stencil
    interior, with D and D' from the pair's samples and D'' = differentiate(D')
    in place of the pair's own curvature."""
    pair, c = comp.pair, problem.constants
    curvature = pair.problem.curvature(comp.grid.points)
    d, dp, _ = amplitude_derivatives(*Q.mixed_solutions(pair, comp.mu, comp.nu), curvature)
    kinetic = comp.ds * comp.ds / (2.0 * c.mass)
    quantum = (c.hbar * c.hbar / (4.0 * c.mass)) * schwarzian_from_amplitude(
        d, dp, Q.differentiate(dp, comp.grid)
    )
    offset = np.asarray(problem.v_eff(comp.grid.points), dtype=float) - problem.e_eff
    rel = np.abs(kinetic + quantum + offset) / (np.abs(kinetic) + np.abs(quantum) + np.abs(offset))
    return float(np.max(rel[2:-2]))


@pytest.mark.parametrize(
    "config", ["azimuthal_identity", "cartesian_oscillator", "cylindrical_free", "spherical_hydrogen"]
)
def test_fd_schwarzian_route_passes_true_components(config):
    components, equations, _ = build_case(Q.load_config(CONFIG_DIR / f"{config}.yaml"))
    for label, comp in components.items():
        assert fd_relative_residual(comp, equations[label]) <= 1e-4, label


def test_fd_schwarzian_route_fails_wrong_pairs():
    # the closed-form residual reads 4.4e-16 on the cos/sin pair, which does
    # not solve the radial equation; the kernel route sees the violation
    components, equations, _ = build_case(Q.load_config(CONFIG_DIR / "spherical_hydrogen.yaml"))
    comp, eq = components["r"], equations["r"]
    r = comp.grid.points
    k = 0.7
    pair = Q.SolutionPair(
        comp.grid, np.cos(k * r), np.sin(k * r) / k, -k * np.sin(k * r), np.cos(k * r),
        1.0, "analytic-catalog", eq,
    )
    assert fd_relative_residual(Q.build_component("r", pair, comp.mu, comp.nu), eq) >= 0.5

    components, equations, _ = build_case(
        Q.load_config(CONFIG_DIR / "spherical_hydrogen_wrong_energy.yaml")
    )
    assert fd_relative_residual(components["r"], equations["r"]) >= 0.5


def test_residual_invariant_under_basis_change(constants):
    # (a y1 + b y2, c y1 + d y2) solves the same equation with W scaled by
    # ad - bc, so the identity still holds at the same mixing constants
    grid = Q.Grid1D(0.0, 2.0 * np.pi, 2001)
    pair = Q.analytic_azimuthal(2, grid, constants)
    eq = Q.azimuthal_problem(2, constants)
    base = Q.component_residual(Q.build_component("phi", pair, 0.7, -0.2), eq)
    rng = np.random.default_rng(23)
    for _ in range(10):
        a, b, c, d = (rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0),
                      rng.uniform(-0.3, 0.3), rng.uniform(1.0, 2.0))
        mapped = Q.SolutionPair(
            grid, a * pair.y1 + b * pair.y2, c * pair.y1 + d * pair.y2,
            a * pair.dy1 + b * pair.dy2, c * pair.dy1 + d * pair.dy2,
            (a * d - b * c) * pair.wronskian, pair.provenance, pair.problem,
        )
        res2 = Q.component_residual(Q.build_component("phi", mapped, 0.7, -0.2), eq)
        assert np.max(np.abs(res2 - base)) < 1e-8


def test_component_equation_metadata(constants):
    eq = Q.azimuthal_problem(2, constants)
    assert eq.name == "azimuthal"
    assert eq.scale == 2.0 * constants.mass
    assert "m^2*hbar^2" in eq.formula
    radial = Q.spherical_radial_problem(Q.CoulombPotential(1.0), 1, -0.125, constants)
    assert radial.name == "radial-spherical"
    assert radial.scale == 1.0
    axis = Q.cartesian_axis_problem("y", Q.HarmonicPotential(1.0), 0.5, constants)
    assert axis.name == "cartesian-axis-y"

    # the identity of every separated equation, in a mass that tells 2m from 1
    heavy = Q.PhysConstants(hbar=0.7, mass=3.2)
    pinned = [
        (
            Q.cartesian_axis_problem("y", Q.HarmonicPotential(1.0), 0.5, heavy),
            "cartesian-axis-y",
            "(dS_y)^2/(2m) + (hbar^2/(4m))*{S_y;y} + V_y(y) - E_y",
            1.0,
        ),
        (
            Q.spherical_radial_problem(Q.CoulombPotential(1.0), 1, -0.125, heavy),
            "radial-spherical",
            "(dS_r)^2/(2m) + (hbar^2/(4m))*{S_r;r} + V(r) + l(l+1)*hbar^2/(2m r^2) - E",
            1.0,
        ),
        (
            Q.spherical_polar_problem(1, 1, heavy),
            "polar-spherical",
            "(dS_theta)^2 + (hbar^2/2)*{S_theta;theta}"
            " + (m_l^2 - 1/4)*hbar^2/sin^2(theta) - (l(l+1) + 1/4)*hbar^2",
            6.4,
        ),
        (
            Q.azimuthal_problem(2, heavy),
            "azimuthal",
            "(dS_phi)^2 + (hbar^2/2)*{S_phi;phi} - m^2*hbar^2",
            6.4,
        ),
        (
            Q.cylindrical_radial_problem(Q.ZeroPotential(), 1, -1.0, 1.0, heavy),
            "radial-cylindrical",
            "(dS_rho)^2/(2m) + (hbar^2/(4m))*{S_rho;rho} + V(rho)"
            " + (m_phi^2 - 1/4)*hbar^2/(2m rho^2) - beta*hbar^2/(2m) - E",
            1.0,
        ),
        (
            Q.axial_problem(-1.0, heavy),
            "axial",
            "(dS_z)^2 + (hbar^2/2)*{S_z;z} + beta*hbar^2",
            6.4,
        ),
    ]
    for problem, name, formula, scale in pinned:
        assert (problem.name, problem.formula, problem.scale) == (name, formula, scale)


def test_assembled_equation_validation(constants):
    pair = Q.analytic_azimuthal(1, Q.Grid1D(0.0, 2.0 * np.pi, 61), constants)
    comp = Q.build_component("phi", pair, 0.0, 0.0)
    spherical = {lab: comp for lab in ("r", "theta", "phi")}
    cartesian = {lab: comp for lab in ("x", "y", "z")}
    qn = Q.QuantumNumbers(energy=1.0)
    with pytest.raises(ValueError, match="radial potential"):
        Q.assemble_total(spherical, SYMMETRY_TABLE["spherical"], qn, {})
    # a potential keyed by the cylindrical radius is not V(r)
    with pytest.raises(ValueError, match="radial potential"):
        Q.assemble_total(spherical, SYMMETRY_TABLE["spherical"], qn, {"rho": Q.ZeroPotential()})
    with pytest.raises(ValueError, match="needs potentials for x, y, z"):
        Q.assemble_total(cartesian, SYMMETRY_TABLE["cartesian"], qn, {})
    bad = Q.QuantumNumbers(energy=1.5, axis_energies={"x": 0.5, "y": 0.5, "z": 0.4})
    pots = {lab: Q.HarmonicPotential(1.0) for lab in ("x", "y", "z")}
    with pytest.raises(ValueError, match="axis energies"):
        Q.assemble_total(cartesian, SYMMETRY_TABLE["cartesian"], bad, pots)


def test_assembly_identity_two_routes(hydrogen_total, constants):
    total = hydrogen_total
    residuals = {
        "r": Q.component_residual(
            total.components["r"],
            Q.spherical_radial_problem(Q.CoulombPotential(1.0), 1, -0.125, constants),
        ),
        "theta": Q.component_residual(
            total.components["theta"], Q.spherical_polar_problem(1, 1, constants)
        ),
        "phi": Q.component_residual(
            total.components["phi"], Q.azimuthal_problem(1, constants)
        ),
    }
    idx = probe_axes(total.grids, per_coordinate=4)
    direct = Q.assembled_residual(total, idx)
    summed = Q.component_weighted_sum(total, residuals, idx)
    assert direct.shape == summed.shape == tuple(len(i) for i in idx)
    assert np.max(np.abs(direct - summed)) < 1e-12
    assert np.max(np.abs(direct)) < 1e-6


def test_cylindrical_assembly(cylindrical_total, constants):
    total = cylindrical_total
    residuals = {
        "rho": Q.component_residual(
            total.components["rho"],
            Q.cylindrical_radial_problem(Q.ZeroPotential(), 1, -1.0, 1.0, constants),
        ),
        "phi": Q.component_residual(
            total.components["phi"], Q.azimuthal_problem(1, constants)
        ),
        "z": Q.component_residual(
            total.components["z"], Q.axial_problem(-1.0, constants)
        ),
    }
    idx = probe_axes(total.grids, per_coordinate=3)
    direct = Q.assembled_residual(total, idx)
    summed = Q.component_weighted_sum(total, residuals, idx)
    assert direct.shape == summed.shape == tuple(len(i) for i in idx)
    assert np.max(np.abs(direct - summed)) < 1e-12
    assert np.max(np.abs(direct)) < 1e-6


@pytest.mark.parametrize("config", ["spherical_hydrogen", "cylindrical_free"])
def test_assembly_identity_at_another_mass(config):
    # each residual is divided by its own equation's scale, 2m for the
    # mass-free angular and axial forms, so the routes agree at m != 1 too
    cfg = Q.load_config(str(CONFIG_DIR / f"{config}.yaml"))
    heavy = Q.RunConfig(
        cfg.symmetry, Q.PhysConstants(mass=1.7), cfg.quantum_numbers, cfg.potentials,
        cfg.components, cfg.tolerance, cfg.hbar_scan, cfg.probe_per_coordinate, cfg.out_dir,
        cfg.fmt,
    )
    _, equations, total = build_case(heavy)
    assert {comp.constants.mass for comp in total.components.values()} == {1.7}
    residuals = {
        lab: Q.component_residual(comp, equations[lab])
        for lab, comp in total.components.items()
    }
    idx = probe_axes(total.grids, per_coordinate=4)
    direct = Q.assembled_residual(total, idx)
    summed = Q.component_weighted_sum(total, residuals, idx)
    assert np.max(np.abs(direct - summed)) < 1e-12
    assert np.max(np.abs(direct)) < 1e-6
    # the residuals above are round-off; unit residuals show each weight
    _, (q0, q1, _) = total.lattice(idx)
    two_m = 2.0 * 1.7
    angular = 1.0 / (two_m * q0**2 * np.sin(q1) ** 2) if config == "spherical_hydrogen" else 0.0
    axial = 1.0 / two_m if config == "cylindrical_free" else 0.0
    weights = 1.0 + 1.0 / (two_m * q0**2) + angular + axial
    units = {lab: np.ones(comp.grid.n) for lab, comp in total.components.items()}
    np.testing.assert_allclose(
        Q.component_weighted_sum(total, units, idx), np.broadcast_to(weights, summed.shape),
        rtol=1e-15, atol=0.0,
    )


def test_cartesian_assembly(constants):
    total = cartesian_oscillator_case(rng=np.random.default_rng(2))
    direct = Q.assembled_residual(total, probe_axes(total.grids, per_coordinate=3))
    assert direct.shape == (3, 3, 3)
    assert np.max(np.abs(direct)) < 1e-7 * 1.5


def test_classical_mode_drops_corrections(hydrogen_total):
    total = hydrogen_total
    idx = probe_axes(total.grids, per_coordinate=3)
    full = Q.assembled_residual(total, idx)
    terms = quantum_terms(total, idx)
    # the classical equation (1/2m)(grad S)^2 + V - E, built independently
    c = total.constants
    _, (r, _, _) = total.lattice(idx)
    classical = (
        total.metric_sum("ds", idx, 2) / (2.0 * c.mass)
        + total.potentials["r"].evaluate(r, c)
        - total.quantum_numbers.energy
    )
    assert full.shape == classical.shape == terms.shape
    np.testing.assert_allclose(full - terms, classical, rtol=0.0, atol=1e-14)
    assert np.max(np.abs(terms)) > 1e-3  # the corrections are not zero here


def test_probe_lattice_is_deterministic(hydrogen_total):
    total = hydrogen_total
    idx = probe_axes(total.grids, per_coordinate=5)
    first = Q.probe_lattice(total, idx)
    second = Q.probe_lattice(total, probe_axes(total.grids, per_coordinate=5))
    assert np.array_equal(first, second)
    assert first.shape == (first.shape[0], 3) and first.shape[0] <= 125
    # rows are the grid nodes of the index axes, in itertools.product order
    nodes = []
    for lab, i in zip(("r", "theta", "phi"), idx):
        n = total.components[lab].grid.n
        assert np.all(np.diff(i) > 0) and 2 <= i[0] and i[-1] <= n - 3
        nodes.append(total.components[lab].grid.points[i])
    assert first.tolist() == [list(p) for p in itertools.product(*nodes)]
    with pytest.raises(ValueError, match="at least 2"):
        Q.probe_indices(total.components["r"].grid.points, 1)


def test_spin_terms_values(constants):
    spherical = SYMMETRY_TABLE["spherical"].spin
    cylindrical = SYMMETRY_TABLE["cylindrical"].spin
    s = spherical((1.0, np.pi / 2.0), constants)
    assert list(s) == ["ter1", "ter2", "normalized_coefficient"]
    assert s["ter1"] == -0.125
    assert s["ter2"] == pytest.approx(-0.125, abs=1e-12)
    assert s["normalized_coefficient"] == 0.25

    quarter = spherical((1.0, np.pi / 4.0), constants)
    assert quarter["ter2"] == pytest.approx(-0.25, rel=1e-12)
    assert quarter["ter1"] + quarter["ter2"] == pytest.approx(-0.375, rel=1e-12)

    cyl = cylindrical((2.0,), constants)
    assert list(cyl) == ["ter1", "normalized_coefficient"]
    assert cyl["ter1"] == -1.0 / 32.0
    assert cyl["normalized_coefficient"] == 0.25

    assert SYMMETRY_TABLE["cartesian"].spin is None
    with pytest.raises(Q.GridDomainError):
        spherical((-1.0, 1.0), constants)
    with pytest.raises(Q.GridDomainError):
        spherical((1.0, 0.0), constants)
    with pytest.raises(Q.GridDomainError):
        cylindrical((0.0,), constants)


def test_spin_coefficient_scales_out_constants():
    heavy = Q.PhysConstants(hbar=0.7, mass=3.2)
    s = SYMMETRY_TABLE["spherical"].spin((1.7, 0.9), heavy)
    assert s["normalized_coefficient"] == 0.25


def test_classical_limit_scan_slope(hydrogen_total):
    total = hydrogen_total
    hv = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
    result = Q.classical_limit_scan(total, hv, probe_axes(total.grids, 3))
    assert result.slope == pytest.approx(2.0, abs=0.05)
    assert result.hbar_values == hv
    assert len(result.magnitudes) == 6


def test_classical_limit_scan_fit_is_least_squares(hydrogen_total):
    # the closed form against numpy's least-squares polynomial fit
    # (np.polyfit, a LAPACK call) of the same data
    def polyfit_reference(x, y):
        return tuple(np.polyfit(x, y, 1).tolist())

    idx = probe_axes(hydrogen_total.grids, 3)
    scan = Q.classical_limit_scan(hydrogen_total, Q.DEFAULT_HBAR_SCAN, idx)
    expected = polyfit_reference(np.log(scan.hbar_values), np.log(scan.magnitudes))
    assert (scan.slope, scan.intercept) == pytest.approx(expected, rel=1e-14, abs=0.0)

    rng = np.random.default_rng(11)
    x = np.log(np.geomspace(1.0, 1e-3, 12))
    y = -1.7 * x + 0.4 + rng.normal(scale=0.3, size=x.size)
    expected = polyfit_reference(x, y)
    assert least_squares_line(x, y) == pytest.approx(expected, rel=1e-14, abs=0.0)


def _probe_indices_by_argmin(points, per_coordinate):
    """The nearest-node search by brute force: np.argmin of the distance from
    each log-placed value to every node, 1000 values a block, clipped to the
    interior, through a set."""
    pts = np.asarray(points, dtype=float)
    lo, hi = pts[2], pts[-3]
    if lo > 0.0:
        raw = np.geomspace(lo, hi, per_coordinate)
    else:
        raw = lo + (hi - lo) * (np.geomspace(1.0, 10.0, per_coordinate) - 1.0) / 9.0
    blocks = np.split(raw, range(1000, raw.size, 1000))
    nearest = np.concatenate([np.abs(pts - v[:, None]).argmin(axis=1) for v in blocks])
    return np.array(sorted(set(np.clip(nearest, 2, pts.size - 3).tolist())))


# the shipped and benchmark grids, a 9-node grid, then the benchmark's
# probe-dense 401-node r, theta and phi and 601-node z, and 5- and 6-node
# arrays whose interior holds one and two nodes
@pytest.mark.parametrize("grid", [
    (0.5, 12.0, 1601), (0.2, 2.94, 1201), (0.0, 2.0 * np.pi, 721), (-6.0, 6.0, 401),
    (-6.0, 6.0, 1201), (0.3, 12.0, 1601), (0.5, 10.0, 2000), (1.0, 5.0, 9),
    (0.5, 12.0, 401), (0.2, 2.9415926535897931, 401), (0.0, 2.0 * np.pi, 401),
    (-3.0, 3.0, 601), (-1.0, 1.0, 5), (1.0, 2.0, 6),
], ids=lambda g: f"{g[0]:g}-{g[1]:g}x{g[2]}")
@pytest.mark.parametrize("count", [2, 3, 5, 10, 12, 20, 40, 1000, 5000, 10**4, 10**5])
def test_probe_indices_walk_matches_the_argmin_search(grid, count):
    points = np.linspace(*grid)
    expected = _probe_indices_by_argmin(points, count)
    got = Q.probe_indices(points, count)
    assert got.dtype == expected.dtype
    assert got.tolist() == expected.tolist()


def test_probe_indices_take_the_lower_of_two_equally_near_nodes():
    # log-placed values 1, v, 4 with v = 2 up to rounding; nodes 3 and 4 sit
    # exactly 0.5 below and above v
    v = float(np.geomspace(1.0, 4.0, 3)[1])
    points = np.array([0.25, 0.5, 1.0, v - 0.5, v + 0.5, 4.0, 5.0, 6.0])
    assert v - points[3] == points[4] - v == 0.5
    assert _probe_indices_by_argmin(points, 3).tolist() == [2, 3, 5]
    assert Q.probe_indices(points, 3).tolist() == [2, 3, 5]


def test_probe_axes_take_a_lattice_of_exactly_the_cap():
    grids = [np.linspace(-6.0, 6.0, 1201)] * 3
    assert [len(i) for i in probe_axes(grids, 100)] == [100, 100, 100]
    assert 100**3 == MAX_PROBE_POINTS
    with pytest.raises(Q.ConfigError, match=r"101 x 101 x 101 = 1030301 points, more than"):
        probe_axes(grids, 101)


def test_classical_limit_scan_refuses_a_zero_peak():
    # with every Schwarzian sample zero and no spin terms, nothing scales as hbar^2
    total = cartesian_oscillator_case(rng=np.random.default_rng(3))
    flat = Q.TotalReducedAction(total.symmetry, {
        lab: Q.ReducedActionComponent(
            c.pair, c.mu, c.nu, c.s, c.ds, c.amplitude, np.zeros_like(c.schwarzian),
            c.branch_residual,
        )
        for lab, c in total.components.items()
    }, total.constants, total.quantum_numbers, total.potentials)
    with pytest.raises(Q.QshjeError, match=r"magnitude is 0\.0 at hbar = 1\.0, not a positive"):
        Q.classical_limit_scan(flat, Q.DEFAULT_HBAR_SCAN, probe_axes(flat.grids, 3))
    scan = Q.classical_limit_scan(total, Q.DEFAULT_HBAR_SCAN, probe_axes(total.grids, 3))
    assert scan.slope == pytest.approx(2.0)


@pytest.mark.parametrize(
    "scan, hbar", [((1.0, 0.1, 1e-170, 1e-200), "1e-170"), ((1e200, 1e180, 1.0, 0.1), "1e+200")]
)
def test_classical_limit_scan_refuses_magnitudes_off_the_float_range(hydrogen_total, scan, hbar):
    # (h/hbar)^2 underflows or overflows; log of 0 or inf has no place in the fit
    with pytest.raises(Q.QshjeError, match=re.escape(f"at hbar = {hbar}, not a positive normal")):
        Q.classical_limit_scan(hydrogen_total, scan, probe_axes(hydrogen_total.grids, 3))


def test_classical_limit_scan_wrong_order(hydrogen_total):
    total = hydrogen_total
    hv = (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125)
    result = Q.classical_limit_scan(total, hv, probe_axes(total.grids, 3))
    # the angular kinetic gap ignores hbar entirely: one value for the scan
    gap = wrong_order_gap(total, probe_axes(total.grids, 3))
    assert gap > 1.0
    assert gap > 100.0 * min(result.magnitudes)


@pytest.mark.parametrize(
    "config", ["spherical_hydrogen", "cylindrical_free", "cartesian_oscillator"]
)
def test_classical_limit_scan_rescales_one_evaluation(config):
    # one evaluation at the run's hbar, rescaled, against an evaluation at
    # each scan value with the same dS and Schwarzian data
    _, _, total = build_case(Q.load_config(CONFIG_DIR / f"{config}.yaml"))
    idx = probe_axes(total.grids, per_coordinate=3)

    def per_hbar(hv):
        mags = []
        for h in hv:
            constants = Q.PhysConstants(hbar=h, mass=total.constants.mass)
            at_h = Q.TotalReducedAction(
                total.symmetry, total.components, constants, total.quantum_numbers,
                total.potentials,
            )
            mags.append(np.max(np.abs(quantum_terms(at_h, idx))))
        return mags

    # scaling by a power of two is exact, so the two routes agree bitwise
    scan = Q.classical_limit_scan(total, Q.DEFAULT_HBAR_SCAN, idx)
    assert scan.magnitudes == tuple(per_hbar(Q.DEFAULT_HBAR_SCAN))
    hv = (1.0, 0.7, 0.3, 0.09, 0.05)
    scan = Q.classical_limit_scan(total, hv, idx)
    np.testing.assert_allclose(scan.magnitudes, per_hbar(hv), rtol=1e-15, atol=0.0)


def test_classical_limit_scan_preconditions(hydrogen_total, cylindrical_total):
    total = hydrogen_total
    with pytest.raises(Q.QshjeError, match="4 distinct"):
        Q.classical_limit_scan(total, (1.0, 0.5, 0.25), probe_axes(total.grids, 3))
    with pytest.raises(Q.QshjeError, match="factor of 10"):
        Q.classical_limit_scan(total, (1.0, 0.8, 0.6, 0.4), probe_axes(total.grids, 3))
    with pytest.raises(Q.QshjeError, match="positive"):
        Q.classical_limit_scan(total, (1.0, 0.5, 0.25, -0.1), probe_axes(total.grids, 3))
    with pytest.raises(Q.QshjeError, match="spherical"):
        wrong_order_gap(cylindrical_total, probe_axes(cylindrical_total.grids, 3))
