"""Acceptance checks for the package's headline claims.

One test per criterion, each printing a single PASS/FAIL line with the
measured number, so `pytest -v -s tests/test_acceptance.py` reads as a
checklist. Tolerances here are the shipped contract; the module tests probe
the same machinery in finer detail.
"""
import functools
import pathlib
import time

import numpy as np

import qshje as Q
from qshje.cli import main as cli_main
from qshje.residuals import SYMMETRY_TABLE, probe_axes
from qshje.schwarzian import schwarzian_from_amplitude

from conftest import (
    CONSTANTS,
    cartesian_oscillator_case,
    fd_schwarzian,
    hydrogen_ground_radial_pair,
    oscillator_axis_pair,
    polar_pair,
)

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
EPS = float(np.finfo(float).eps)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


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


def test_c01_azimuthal_identity():
    # m in {1,2,3}, five random mixings each, residual < 1e-9 hbar^2 in < 1 s
    start = time.perf_counter()
    rng = np.random.default_rng(412)
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 2001)
    worst = 0.0
    for m in (1, 2, 3):
        pair = Q.analytic_azimuthal(m, grid, CONSTANTS)
        eq = Q.azimuthal_problem(m, CONSTANTS)
        done = 0
        while done < 5:
            mu, nu = rng.uniform(-1.5, 1.5, size=2)
            if abs(1.0 - mu * nu) <= 0.1:
                continue
            comp = Q.build_component("phi", pair, mu, nu)
            worst = max(worst, float(np.max(np.abs(Q.component_residual(comp, eq)))))
            done += 1
    elapsed = time.perf_counter() - start
    bound = 1e-9 * CONSTANTS.hbar**2
    report(
        "criterion 01 azimuthal identity",
        worst < bound and elapsed < 1.0,
        f"max residual {worst:.3e} < {bound:.1e}, {elapsed:.2f} s < 1 s",
    )


def test_c02_schwarzian_mobius_invariance():
    # 20 random linear-fractional images of the action: finite-difference
    # Schwarzians agree to 1e-5; the Schwarzian of a linear-fractional
    # function itself stays below 1e-10
    rng = np.random.default_rng(42)
    maps = random_maps(rng, 20)
    grid = Q.Grid1D.uniform(0.0, 2.0 * np.pi, 4001)
    comp = Q.build_component("phi", Q.analytic_azimuthal(1, grid, CONSTANTS), 0.4, -0.3)

    base_fd = fd_schwarzian(Q.differentiate(comp.s, grid), grid)
    worst_fd = 0.0
    for a, b, c, d in maps:
        mapped = fd_schwarzian(Q.differentiate((a * comp.s + b) / (c * comp.s + d), grid), grid)
        live = ~np.isnan(base_fd) & ~np.isnan(mapped)
        worst_fd = max(worst_fd, float(np.max(np.abs(mapped[live] - base_fd[live]))))

    lf_grid = Q.Grid1D.uniform(0.0, 1.0, 201)
    x = lf_grid.points
    worst_lf = 0.0
    for a, b, c, d in maps:
        # exact amplitude of the map: D = 1/S' = (c x + d)^2 / det
        den = c * x + d
        det = a * d - b * c
        lf = schwarzian_from_amplitude(den**2 / det, 2.0 * c * den / det, 2.0 * c**2 / det)
        worst_lf = max(worst_lf, float(np.max(np.abs(lf))))

    report(
        "criterion 02 Mobius invariance of the Schwarzian",
        worst_fd < 1e-5 and worst_lf < 1e-10,
        f"finite-difference {worst_fd:.3e} < 1e-5, "
        f"linear-fractional {worst_lf:.3e} < 1e-10, 20 maps",
    )


def test_c03_momentum_closed_form_matches_finite_difference():
    # dS = hbar (1 - mu nu) W / (a^2 + b^2) against differenced action
    # samples, relative 1e-6 on interior points, one analytic pair per
    # symmetry class
    cases = [
        ("spherical/azimuthal",
         Q.analytic_azimuthal(2, Q.Grid1D.uniform(0.0, 2.0 * np.pi, 64001), CONSTANTS),
         "phi", 1.5, 0.3),
        ("cylindrical/axial",
         Q.analytic_axial(-1.0, Q.Grid1D.uniform(-3.0, 3.0, 64001), CONSTANTS),
         "z", 0.3, -0.2),
        ("cartesian/oscillator",
         oscillator_axis_pair(Q.Grid1D.uniform(-2.5, 2.5, 64001)), "x", 0.4, -0.3),
    ]
    worst = {}
    for name, pair, label, mu, nu in cases:
        comp = Q.build_component(label, pair, mu, nu)
        fd = Q.differentiate(comp.s, comp.grid)[2:-2]
        inner = comp.ds[2:-2]
        worst[name] = float(np.max(np.abs(fd - inner) / np.abs(inner)))
    ok = all(v < 1e-6 for v in worst.values())
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    report("criterion 03 closed-form momentum vs finite difference", ok, detail + " (all < 1e-6)")


def test_c04_continuity_product_constant(hydrogen_total, cylindrical_total):
    # amplitude^2 * dS == hbar (1 - mu nu) W to 1e-8 relative, every component
    comps = dict(hydrogen_total.components)
    comps.update({f"cyl-{k}": v for k, v in cylindrical_total.components.items()})
    cart = cartesian_oscillator_case(rng=np.random.default_rng(8))
    comps.update({f"cart-{k}": v for k, v in cart.components.items()})
    drifts = {}
    for k, v in comps.items():
        ref = v.constants.hbar * (1.0 - v.mu * v.nu) * v.pair.wronskian
        drifts[k] = float(np.max(np.abs(v.amplitude**2 * v.ds - ref)) / abs(ref))
    worst_key = max(drifts, key=drifts.get)
    ok = all(v < 1e-8 for v in drifts.values())
    report(
        "criterion 04 continuity product constancy",
        ok,
        f"{len(drifts)} components, worst {drifts[worst_key]:.3e} ({worst_key}) < 1e-8 relative",
    )


def test_c05_coulomb_radial_identity():
    # k=1, l=0, E=-1/2, first member r e^{-r}, numeric partner, 2000-point
    # grid on [0.5, 10]: residual < 1e-6 in < 5 s
    start = time.perf_counter()
    grid = Q.Grid1D.uniform(0.5, 10.0, 2000)
    comp = Q.build_component("r", hydrogen_ground_radial_pair(grid), 0.2, 0.0)
    eq = Q.spherical_radial_problem(Q.CoulombPotential(1.0), 0, -0.5, CONSTANTS)
    worst = float(np.max(np.abs(Q.component_residual(comp, eq))))
    elapsed = time.perf_counter() - start
    report(
        "criterion 05 Coulomb radial identity",
        worst < 1e-6 and elapsed < 5.0,
        f"max residual {worst:.3e} < 1e-6, {elapsed:.2f} s < 5 s",
    )


def test_c06_polar_identity():
    # l=1, m=0: sqrt(sin theta) cos theta plus numeric partner, residual
    # < 1e-5 on [0.2, pi - 0.2]
    grid = Q.Grid1D.uniform(0.2, np.pi - 0.2, 1201)
    comp = Q.build_component("theta", polar_pair(1, 0, grid), 0.3, -0.2)
    eq = Q.spherical_polar_problem(1, 0, CONSTANTS)
    worst = float(np.max(np.abs(Q.component_residual(comp, eq))))
    report(
        "criterion 06 polar identity",
        worst < 1e-5,
        f"max residual {worst:.3e} < 1e-5",
    )


def _assembly_bound_check(total, comp_equations):
    labels = list(total.symmetry.coordinate_labels)
    res = {
        lab: Q.component_residual(total.components[lab], comp_equations[lab])
        for lab in labels
    }
    # eps floor: at rounding-level component residuals the assembled route's
    # own float rounding would exceed the pure propagation bound
    floor = EPS * max(1.0, abs(total.quantum_numbers.energy))
    idx = probe_axes(total, per_coordinate=5)
    ix, nodes = total.lattice(idx)
    # per probe point: the largest component residual and inverse-metric weight
    eps = functools.reduce(np.maximum, (np.abs(res[lab][i]) for lab, i in zip(labels, ix)))
    weights = [1.0 / g for g in SYMMETRY_TABLE[total.symmetry].metric(nodes)]
    maxw = functools.reduce(np.maximum, weights)
    direct = np.abs(Q.assembled_residual(total, idx))
    ratio = direct / (3.0 * (eps + floor) * maxw)
    return bool(np.all(ratio < 1.0)), direct.size, float(np.max(ratio))


def test_c07_assembly_error_propagation(hydrogen_total, cylindrical_total):
    # component residuals < eps at a probe point force the assembled 3-D
    # residual under 3 eps (max metric weight)
    hyd_eqs = {
        "r": Q.spherical_radial_problem(Q.CoulombPotential(1.0), 1, -0.125, CONSTANTS),
        "theta": Q.spherical_polar_problem(1, 1, CONSTANTS),
        "phi": Q.azimuthal_problem(1, CONSTANTS),
    }
    cyl_eqs = {
        "rho": Q.cylindrical_radial_problem(Q.ZeroPotential(), 1, -1.0, 1.0, CONSTANTS),
        "phi": Q.azimuthal_problem(1, CONSTANTS),
        "z": Q.axial_problem(-1.0, CONSTANTS),
    }
    ok_h, n_h, ratio_h = _assembly_bound_check(hydrogen_total, hyd_eqs)
    ok_c, n_c, ratio_c = _assembly_bound_check(cylindrical_total, cyl_eqs)
    report(
        "criterion 07 assembly error propagation",
        ok_h and ok_c,
        f"hydrogen {n_h} probe points (worst |res|/bound {ratio_h:.2f}), "
        f"cylindrical {n_c} points (worst {ratio_c:.2f}), all under 3*eps*max-weight",
    )


def test_c08_cartesian_oscillator_assembly():
    # random per-axis mixings, E = sum of axis energies, 5^3 probe lattice
    total = cartesian_oscillator_case(rng=np.random.default_rng(8))
    idx = probe_axes(total, per_coordinate=5)
    points = Q.probe_lattice(total, idx)
    worst = np.max(np.abs(Q.assembled_residual(total, idx)))
    bound = 1e-7 * abs(total.quantum_numbers.energy)
    report(
        "criterion 08 cartesian oscillator assembly",
        len(points) == 125 and worst < bound,
        f"max |residual| {worst:.3e} < {bound:.2e} on {len(points)} probe points",
    )


def test_c09_classical_limit_scaling(hydrogen_total):
    # quantum-term magnitude scales as hbar^2 (slope 2.00 +/- 0.05 over
    # hbar = 1 .. 1/32); zeroing the angular momenta before taking the limit
    # leaves a gap that carries no hbar, so that order never reaches the
    # classical equation
    scan = Q.classical_limit_scan(hydrogen_total, Q.DEFAULT_HBAR_SCAN, wrong_order=True)
    gap = scan.wrong_order_gap
    slope_ok = abs(scan.slope - 2.0) <= 0.05
    correct_order_shrinks = scan.magnitudes[-1] < 1e-3 * scan.magnitudes[0]
    wrong_order_stuck = gap > 1.0 and gap > 100.0 * scan.magnitudes[-1]
    report(
        "criterion 09 classical-limit scaling",
        slope_ok and correct_order_shrinks and wrong_order_stuck,
        f"slope {scan.slope:.4f} in 2.00 +/- 0.05; wrong-order gap stays at "
        f"{gap:.1f} while the correct-order terms fall to {scan.magnitudes[-1]:.2e}",
    )


def test_c10_spin_term_coefficient(hydrogen_total, cylindrical_total):
    # -2 m r^2 ter1 / hbar^2 == 0.25 exactly at every probe point, both
    # curvilinear classes; ter2 equals -hbar^2/(8 m r^2 sin^2 theta) at
    # theta = pi/2 and pi/4 by direct substitution (a couple of ulp)
    exact = 0
    points = 0
    for total in (hydrogen_total, cylindrical_total):
        spin = SYMMETRY_TABLE[total.symmetry].spin
        idx = probe_axes(total, per_coordinate=5)
        t = spin(total.lattice(idx)[1], CONSTANTS)
        coeff = np.broadcast_to(t.normalized_coefficient, tuple(len(i) for i in idx))
        points += coeff.size
        exact += int(np.count_nonzero(coeff == 0.25))

    h2, m = CONSTANTS.hbar**2, CONSTANTS.mass
    ter2_ok = True
    for theta in (np.pi / 2.0, np.pi / 4.0):
        for r in (0.5, 0.7, 2.0, 5.0, 11.0):
            t = SYMMETRY_TABLE[Q.SymmetryClass.SPHERICAL].spin((r, theta), CONSTANTS)
            direct = -h2 / (8.0 * m * r * r * np.sin(theta) ** 2)
            ter2_ok = ter2_ok and np.isclose(t.ter2, direct, rtol=1e-14, atol=0.0)

    report(
        "criterion 10 residual quantum-term coefficient",
        exact == points and ter2_ok,
        f"coefficient exactly 0.25 at {exact}/{points} probe points; "
        "ter2 matches direct substitution at theta = pi/2, pi/4",
    )


def test_c11_verify_determinism(tmp_path):
    # two verify runs on the same config write byte-identical outputs
    cfg = str(CONFIG_DIR / "spherical_hydrogen.yaml")
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    code1 = cli_main(["verify", "--config", cfg, "--out", str(out1)])
    code2 = cli_main(["verify", "--config", cfg, "--out", str(out2)])
    names1 = sorted(p.name for p in out1.iterdir())
    names2 = sorted(p.name for p in out2.iterdir())
    identical = names1 == names2 and all(
        (out1 / n).read_bytes() == (out2 / n).read_bytes() for n in names1
    )
    report(
        "criterion 11 verify determinism",
        code1 == 0 and code2 == 0 and identical,
        f"{len(names1)} output files byte-identical across reruns (exit codes 0/0)",
    )
