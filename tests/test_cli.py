import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
import yaml

from qshje import Grid1D, GridDomainError, cli, load_config, probe_indices
from qshje.cli import main
from qshje.domain import check_coordinates
from qshje.residuals import SYMMETRY_TABLE, SymmetryRow

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def read_summary(path):
    return json.loads(pathlib.Path(path).read_text())


def test_solve_azimuthal(tmp_path):
    out = tmp_path / "solve"
    code = run("solve", "--config", CONFIG_DIR / "azimuthal_identity.yaml", "--out", out)
    assert code == 0
    table = (out / "component_phi.csv").read_text().splitlines()
    assert table[0].startswith("# equation: azimuthal | ")
    assert table[1].split(",") == [
        "phi", "y1", "y2", "wronskian", "action", "conjugate_momentum",
        "amplitude", "schwarzian",
    ]
    assert len(table) == 2 + 721
    meta = read_summary(out / "solve_summary.json")
    assert meta["symmetry"] == "spherical"
    assert meta["components"]["phi"]["mu"] == 1.5
    assert meta["components"]["phi"]["provenance"] == "analytic-catalog"


def test_solve_json_format(tmp_path):
    out = tmp_path / "solve_json"
    code = run(
        "solve", "--config", CONFIG_DIR / "azimuthal_identity.yaml",
        "--out", out, "--format", "json",
    )
    assert code == 0
    payload = json.loads((out / "component_phi.json").read_text())
    assert payload["equation"] == "azimuthal"
    assert len(payload["rows"]) == 721
    assert not (out / "component_phi.csv").exists()


def test_verify_azimuthal_passes(tmp_path):
    out = tmp_path / "verify"
    code = run("verify", "--config", CONFIG_DIR / "azimuthal_identity.yaml", "--out", out)
    assert code == 0
    summary = read_summary(out / "verify_summary.json")
    assert summary["all_within_tolerance"] is True
    assert summary["equations"]["azimuthal"]["max_abs"] < 1e-9


def test_verify_summary_scale_reference(tmp_path):
    # scale_ref is the equation's scale times max(|e_eff|, hbar^2/(2m L^2)),
    # L the grid span: 2m times m_l^2 hbar^2/(2m) = 4 at m_l = 2
    out = tmp_path / "verify"
    assert run("verify", "--config", CONFIG_DIR / "azimuthal_identity.yaml", "--out", out) == 0
    entry = read_summary(out / "verify_summary.json")["equations"]["azimuthal"]
    assert entry["scale_ref"] == 4.0
    assert entry["normalized_max"] == entry["max_abs"] / entry["scale_ref"]
    assert entry["rms"] <= entry["max_abs"]
    table = (out / "residual_azimuthal.csv").read_text().splitlines()
    assert table[1] == "phi,residual"
    rows = [[float(v) for v in line.split(",")] for line in table[2:]]
    assert len(rows) == 721
    # the table holds the residual alone; its normalized peak is in the summary
    assert max(abs(residual) for _, residual in rows) == entry["max_abs"]


def test_build_case_orders_components_by_coordinate_label(tmp_path):
    # the YAML lists the components as phi, theta, r; every command walks
    # them in the symmetry's coordinate order, so the outputs do not change
    cfg = yaml.safe_load((CONFIG_DIR / "spherical_hydrogen.yaml").read_text())
    cfg["components"] = {lab: cfg["components"][lab] for lab in ("phi", "theta", "r")}
    path = tmp_path / "reordered.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=False))
    loaded = load_config(str(path))
    assert list(loaded.components) == ["phi", "theta", "r"]
    components, equations, total = cli.build_case(loaded)
    assert list(components) == list(equations) == ["r", "theta", "phi"]
    assert list(total.components) == ["r", "theta", "phi"]
    shipped, reordered = tmp_path / "shipped", tmp_path / "reordered"
    assert run("verify", "--config", CONFIG_DIR / "spherical_hydrogen.yaml", "--out", shipped) == 0
    assert run("verify", "--config", path, "--out", reordered) == 0
    for name in ("verify_summary.json", "residual_assembled-spherical.csv"):
        assert (shipped / name).read_bytes() == (reordered / name).read_bytes(), name


def test_verify_below_the_config_tolerance_fails(tmp_path):
    # tolerances come from the run file only
    path = _edited_config(tmp_path, "azimuthal_identity", lambda cfg: cfg.update(tolerance=1e-30))
    assert run("verify", "--config", path, "--out", tmp_path / "v") == 1
    assert read_summary(tmp_path / "v" / "verify_summary.json")["tolerance"] == 1e-30


def test_verify_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = CONFIG_DIR / "cylindrical_free.yaml"
    assert run("verify", "--config", cfg, "--out", out1) == 0
    assert run("verify", "--config", cfg, "--out", out2) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_verify_cartesian_oscillator(tmp_path):
    # per-axis potentials reach the assembled equation through the config
    out = tmp_path / "cart"
    code = run("verify", "--config", CONFIG_DIR / "cartesian_oscillator.yaml", "--out", out)
    assert code == 0
    table = (out / "residual_assembled-cartesian.csv").read_text().splitlines()
    assert table[0].startswith("# equation: assembled-cartesian | ")
    assert table[1].split(",") == ["x", "y", "z", "residual"]
    assert len(table) == 2 + 125
    summary = read_summary(out / "verify_summary.json")
    assert summary["equations"]["assembled-cartesian"]["probe_points"] == 125
    assert summary["all_within_tolerance"] is True


def test_verify_parallel_matches_serial(tmp_path):
    # --parallel is accepted and has no effect
    cfg = CONFIG_DIR / "cylindrical_free.yaml"
    for command, names in (
        ("verify", ("verify_summary.json", "residual_assembled-cylindrical.csv")),
        ("limit-scan", ("limit_scan_summary.json", "limit_scan.csv")),
    ):
        serial, par = tmp_path / command / "serial", tmp_path / command / "par"
        assert run(command, "--config", cfg, "--out", serial) == 0
        assert run(command, "--config", cfg, "--out", par, "--parallel", "4") == 0
        for name in names:
            assert (serial / name).read_bytes() == (par / name).read_bytes(), name


def test_verify_nan_assembled_residual_fails(tmp_path, monkeypatch, capsys):
    # a NaN Schwarzian sample at a probe node must fail the assembled check
    # instead of dropping out of the lattice maximum, and verify names it
    build_case = cli.build_case
    axes = {}

    def with_nan(cfg):
        components, equations, total = build_case(cfg)
        for lab, comp in components.items():
            q = comp.grid.points
            axes[lab] = q[probe_indices(q, cfg.probe_per_coordinate)].tolist()
        comp = components["z"]
        comp.schwarzian[comp.grid.points == axes["z"][1]] = np.nan
        return components, equations, total

    monkeypatch.setattr(cli, "build_case", with_nan)
    out = tmp_path / "nan"
    assert run("verify", "--config", CONFIG_DIR / "cylindrical_free.yaml", "--out", out) == 1
    summary = read_summary(out / "verify_summary.json")
    assert summary["equations"]["assembled-cylindrical"]["within_tolerance"] is False
    assert summary["all_within_tolerance"] is False
    err = capsys.readouterr().err.splitlines()
    nan_points = len(axes["rho"]) * len(axes["phi"])
    assert err[-1] == (
        f"verify: assembled-cylindrical residual is NaN at (rho, phi, z) = "
        f"({axes['rho'][0]!r}, {axes['phi'][0]!r}, {axes['z'][1]!r}), "
        f"the first of {nan_points} NaN probe points"
    )
    # the scan's maximum carries the NaN to every hbar; the fit names it
    scan = run("limit-scan", "--config", CONFIG_DIR / "cylindrical_free.yaml", "--out", out)
    assert scan == 3
    assert "NaN" in capsys.readouterr().err


def test_verify_names_a_nan_component_residual(tmp_path, monkeypatch, capsys):
    build_case = cli.build_case
    node = {}

    def with_nan(cfg):
        case = build_case(cfg)  # (components, equations, total)
        comp = case[0]["theta"]
        node["theta"] = float(comp.grid.points[300])
        comp.ds[300] = np.nan
        return case

    monkeypatch.setattr(cli, "build_case", with_nan)
    out = tmp_path / "nan"
    assert run("verify", "--config", CONFIG_DIR / "spherical_hydrogen.yaml", "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [
        f"verify: polar-spherical residual is NaN at theta = {node['theta']!r}, "
        "the first of 1 NaN samples"
    ]
    summary = read_summary(out / "verify_summary.json")
    assert summary["equations"]["polar-spherical"]["within_tolerance"] is False


@pytest.mark.parametrize(
    "injected, kind, first, count",
    [
        ({300: np.inf}, "infinite", 300, 1),
        ({300: -np.inf, 301: np.inf}, "infinite", 300, 2),
        ({300: np.inf, 400: np.nan}, "NaN", 400, 1),
    ],
    ids=["inf", "minus-inf-first", "nan-before-inf"],
)
def test_verify_names_an_infinite_residual(tmp_path, monkeypatch, capsys, injected, kind, first,
                                           count):
    # an infinite residual fails the gate and is named like a NaN one; a NaN,
    # when there is one, is named instead
    build_case = cli.build_case
    node = {}

    def with_inf(cfg):
        case = build_case(cfg)
        comp = case[0]["theta"]
        node["theta"] = float(comp.grid.points[first])
        for k, value in injected.items():
            comp.schwarzian[k] = value
        return case

    monkeypatch.setattr(cli, "build_case", with_inf)
    out = tmp_path / "inf"
    assert run("verify", "--config", CONFIG_DIR / "spherical_hydrogen.yaml", "--out", out) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == (
        f"verify: polar-spherical residual is {kind} at theta = {node['theta']!r}, "
        f"the first of {count} {kind} samples"
    )
    summary = read_summary(out / "verify_summary.json")
    assert summary["equations"]["polar-spherical"]["within_tolerance"] is False


def test_verify_hydrogen_full_set(tmp_path):
    out = tmp_path / "hyd"
    code = run("verify", "--config", CONFIG_DIR / "spherical_hydrogen.yaml", "--out", out)
    assert code == 0
    summary = read_summary(out / "verify_summary.json")
    assert summary["all_within_tolerance"] is True
    names = set(summary["equations"])
    assert {"radial-spherical", "polar-spherical", "azimuthal", "assembled-spherical"} <= names
    assembled = summary["equations"]["assembled-spherical"]
    assert assembled["within_tolerance"] is True
    assert assembled["max_assembly_gap"] < 1e-12
    assert assembled["probe_points"] == 125


def test_verify_wrong_energy_plateau(tmp_path):
    out = tmp_path / "wrong"
    code = run(
        "verify", "--config", CONFIG_DIR / "spherical_hydrogen_wrong_energy.yaml",
        "--out", out,
    )
    assert code == 1
    summary = read_summary(out / "verify_summary.json")
    entry = summary["equations"]["radial-spherical"]
    assert entry["within_tolerance"] is False
    assert entry["max_abs"] == pytest.approx(0.1, rel=1e-4)


def test_config_error_exit_code(tmp_path, capsys):
    assert run("verify", "--config", tmp_path / "missing.yaml", "--out", tmp_path) == 2
    assert "config error" in capsys.readouterr().err

    bad = tmp_path / "bad.yaml"
    bad.write_text("symmetry: spherical\ncomponents:\n  phi: {mu: 2.0, nu: 0.5, grid: {min: 0, max: 6.28, count: 101}}\n")
    assert run("verify", "--config", bad, "--out", tmp_path / "o") == 2
    assert "degenerate mixing" in capsys.readouterr().err

    for value, message in ((float("nan"), "must be finite, got nan"),
                           (-1, "must be positive, got -1.0")):
        path = _edited_config(tmp_path, "azimuthal_identity", lambda c: c.update(tolerance=value))
        for command in ("verify", "limit-scan"):
            assert run(command, "--config", path, "--out", tmp_path / "t") == 2
            assert capsys.readouterr().err == f"config error: config.tolerance: {message}\n"


def _potentials_for_r(cfg):
    cfg["potentials"] = {"r": cfg.pop("potential")}


def _single_potential(cfg):
    cfg["potential"] = cfg.pop("potentials")["x"]


def _substep_typo(cfg):
    cfg["components"]["r"]["substep"] = cfg["components"]["r"].pop("substeps")


def _seeds_set(cfg):
    # pairs are seeded with the unit data at the grid midpoint; no key moves them
    cfg["components"]["phi"]["seeds"] = [[1.0, 0.0], [0.0, 1.0]]


_TOP_FIELDS = (
    "constants, quantum_numbers, components, tolerance, hbar_scan, "
    "probe_points_per_coordinate, output)"
)


@pytest.mark.parametrize(
    "config, edit, message",
    [
        ("spherical_hydrogen", _potentials_for_r,
         "config.potentials: unknown field (expected symmetry, potential, " + _TOP_FIELDS),
        ("cartesian_oscillator", _single_potential,
         "config.potential: unknown field (expected symmetry, potentials, " + _TOP_FIELDS),
        ("spherical_hydrogen", _substep_typo,
         "components.r.substep: unknown field (expected mu, nu, phase, grid, source, "
         "substeps, solve_energy)"),
        ("azimuthal_identity", _seeds_set,
         "components.phi.seeds: unknown field (expected mu, nu, phase, grid, source, "
         "substeps, solve_energy)"),
    ],
    ids=["spherical-potentials", "cartesian-potential", "substep-typo", "seeds"],
)
def test_unread_config_key_is_a_config_error(tmp_path, capsys, config, edit, message):
    # each of these ran a different problem from the one written, and passed
    path = _edited_config(tmp_path, config, edit)
    assert run("verify", "--config", path, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def _edited_config(tmp_path, config, edit):
    """Path of a copy of a shipped config with edit applied to its mapping."""
    cfg = yaml.safe_load((CONFIG_DIR / f"{config}.yaml").read_text())
    edit(cfg)
    path = tmp_path / "edited.yaml"
    path.write_text(yaml.safe_dump(cfg))
    return path


@pytest.mark.parametrize("command", ["verify", "limit-scan", "solve", "spin-report"])
@pytest.mark.parametrize(
    "scan, message",
    [
        ([1.0, 1.0, 1.0, 1.0], "scan needs at least 4 distinct hbar values"),
        ([1.0, 0.9, 0.8, 0.7], "hbar values must span at least a factor of 10"),
    ],
    ids=["repeated", "narrow"],
)
def test_unusable_hbar_scan_is_a_config_error(tmp_path, capsys, command, scan, message):
    # limit-scan used to reach the scan and fail with exit 3; the others ran
    path = _edited_config(tmp_path, "spherical_hydrogen", lambda cfg: cfg.update(hbar_scan=scan))
    assert run(command, "--config", path, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"config error: config.hbar_scan: {message}\n"


@pytest.mark.parametrize(
    "points, message",
    [({"a": 1}, "must be numbers"), ([0.0, 1.0, float("nan"), 3.0], "must be finite")],
    ids=["mapping", "nan"],
)
def test_bad_tabulated_points_are_a_config_error(tmp_path, capsys, points, message):
    # a mapping used to escape as a TypeError with exit 1, NaN to print scipy's text
    table = {"kind": "tabulated", "points": points, "values": [0, 1, 2, 3]}
    path = _edited_config(
        tmp_path, "cartesian_oscillator", lambda cfg: cfg["potentials"].update(x=table)
    )
    assert run("verify", "--config", path, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        f"config error: potentials.x: tabulated potential points and values {message}\n"
    )


@pytest.mark.parametrize("command", ["verify", "solve"])
@pytest.mark.parametrize(
    "grid, message",
    [
        ({"min": 1.0e17, "max": 1.0000000000000002e17, "count": 1201}, "strictly increasing"),
        ({"min": -1e308, "max": 1e308, "count": 1201}, "finite"),
    ],
    ids=["duplicate-nodes", "infinite-span"],
)
def test_grid_linspace_cannot_represent_is_a_config_error(tmp_path, capsys, command, grid, message):
    # each passed the min/max/count checks and escaped as a ValueError with exit 1
    path = _edited_config(
        tmp_path, "cartesian_oscillator", lambda cfg: cfg["components"]["x"].update(grid=grid)
    )
    assert run(command, "--config", path, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        f"config error: components.x.grid: grid points must be {message}\n"
    )


def _radial_table(cfg):
    points = [1.0, 4.0, 8.0, 12.0]
    cfg["potential"] = {"kind": "tabulated", "points": points, "values": [-1.0 / r for r in points]}


def _axis_table(cfg):
    cfg["potentials"]["x"] = {
        "kind": "tabulated", "points": [0.0, 1.0, 2.0, 3.0], "values": [0.0, 0.5, 2.0, 4.5],
    }


@pytest.mark.parametrize(
    "config, edit, message",
    [
        ("cartesian_oscillator", _axis_table,
         "potentials.x: table on [0.0, 3.0] does not cover the x grid [-6.0, 6.0]"),
        ("spherical_hydrogen", _radial_table,
         "potential: table on [1.0, 12.0] does not cover the r grid [0.5, 12.0]"),
    ],
    ids=["axis", "radial"],
)
def test_table_short_of_its_grid_is_a_config_error(tmp_path, capsys, config, edit, message):
    # the solver used to evaluate the table off its end and fail with exit 3
    path = _edited_config(tmp_path, config, edit)
    assert run("verify", "--config", path, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("command", ["verify", "limit-scan"])
@pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
def test_unusable_output_location_is_a_config_error(tmp_path, capsys, command, under):
    # an existing regular file, or a path below one, escaped as an OSError with exit 1
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker / "sub" if under else blocker
    assert run(command, "--config", CONFIG_DIR / "spherical_hydrogen.yaml", "--out", out) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot write outputs to {str(out)!r}: [Errno ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("directory", [None, 5], ids=["null", "int"])
def test_output_directory_must_be_a_string(tmp_path, monkeypatch, capsys, directory):
    # both used to write to a directory named after the value, ./None or ./5
    monkeypatch.chdir(tmp_path)
    path = _edited_config(
        tmp_path, "azimuthal_identity", lambda cfg: cfg["output"].update(directory=directory)
    )
    assert run("verify", "--config", path) == 2
    assert capsys.readouterr().err == (
        f"config error: config.output.directory: expected a string, got {directory!r}\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["edited.yaml"]


def _set_tolerance(cfg):
    cfg["tolerance"] = 10**400


def _set_table(cfg):
    cfg["potentials"]["x"] = {
        "kind": "tabulated", "points": [-7.0, 0.0, 7.0, 10**400], "values": [0, 1, 2, 3],
    }


def _set_ell(cfg):
    cfg["quantum_numbers"]["ell"] = 10**400


@pytest.mark.parametrize(
    "config, edit, message",
    [
        ("azimuthal_identity", _set_tolerance,
         "config.tolerance: must be finite, got an integer past the float range"),
        ("cartesian_oscillator", _set_table,
         "potentials.x: tabulated potential points and values must be numbers"),
        ("spherical_hydrogen", _set_ell,
         "quantum_numbers.ell: must be finite, got an integer past the float range"),
    ],
    ids=["tolerance", "tabulated-points", "ell"],
)
def test_integer_past_float_range_is_a_config_error(tmp_path, capsys, config, edit, message):
    # each escaped as an OverflowError with exit 1, ell only once v_eff ran
    path = _edited_config(tmp_path, config, edit)
    assert run("verify", "--config", path, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["solve", "verify", "limit-scan"])
@pytest.mark.parametrize(
    "config, edit, message",
    [
        ("cartesian_oscillator", lambda cfg: cfg["potentials"]["x"].update(omega=1.4e154),
         "potentials.x: omega^2 must be a finite float, got omega = 1.4e+154"),
        ("spherical_hydrogen", lambda cfg: cfg["quantum_numbers"].update(ell=10**155),
         f"config.quantum_numbers: l(l+1) must be a finite float, got ell = {10**155}"),
        ("cylindrical_free", lambda cfg: cfg["quantum_numbers"].update(m_phi=10**155),
         f"config.quantum_numbers: m_phi^2 must be a finite float, got m_phi = {10**155}"),
    ],
    ids=["omega-1.4e154", "ell-1e155", "m-phi-1e155"],
)
def test_square_past_float_range_is_a_config_error(tmp_path, capsys, config, edit, message,
                                                   command):
    # each number is a finite float, but its square is not; forming it raised
    # OverflowError, a traceback and exit 1
    path = _edited_config(tmp_path, config, edit)
    assert run(command, "--config", path, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err == f"config error: {message}\n" and "Traceback" not in err


def test_integer_past_the_digit_limit_is_a_config_error(tmp_path, capsys):
    # the YAML integer constructor raises ValueError past 4300 digits; it
    # used to escape with a traceback and exit 1
    text = (CONFIG_DIR / "azimuthal_identity.yaml").read_text()
    path = tmp_path / "digits.yaml"
    path.write_text(text + "\ntolerance: 1" + "0" * 5000 + "\n")
    assert run("verify", "--config", path, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: config file {str(path)!r} is not valid YAML: ")
    assert "4300" in err


@pytest.mark.parametrize("command", ["solve", "verify", "limit-scan", "spin-report"])
@pytest.mark.parametrize("config", ["spherical_hydrogen", "cylindrical_free", "azimuthal_identity"])
def test_hbar_whose_square_underflows_is_a_config_error(tmp_path, capsys, config, command):
    # every equation divides by hbar^2, here 1e-340 rounded to zero; it used
    # to raise ZeroDivisionError in the curvature, a traceback and exit 1
    path = _edited_config(tmp_path, config, lambda cfg: cfg.update(constants={"hbar": 1.0e-170}))
    assert run(command, "--config", path, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        "config error: config.constants: hbar^2 must be a normal float, got hbar = 1e-170\n"
    )


def test_spin_report_refuses_an_underflowing_reference(tmp_path, capsys):
    # hbar^2/(2m rho^2) goes subnormal towards rho = 1e12, where scaling by
    # 1/4 rounds; the report used to print those rows (and a 0.25 fallback
    # where it reached zero) and exit 0
    def edit(cfg):
        cfg["constants"] = {"hbar": 1.0e-150}
        cfg["components"]["rho"]["grid"]["max"] = 1.0e12

    path = _edited_config(tmp_path, "cylindrical_free", edit)
    out = tmp_path / "o"
    assert run("spin-report", "--config", path, "--out", out) == 3
    cfg = load_config(str(path))
    rho = cfg.components["rho"].grid.points
    rho = rho[probe_indices(rho, cfg.probe_per_coordinate)]
    first = rho[1e-300 / (2.0 * rho * rho) < np.finfo(float).tiny][0]
    assert capsys.readouterr().err == (
        "solver failure: spin terms: hbar^2/(2m rho^2) is below the smallest normal float "
        f"at rho = {float(first)!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "config, label, edge",
    [
        ("spherical_hydrogen", "r", {"min": 0.0}),
        ("cylindrical_free", "rho", {"min": 0.0}),
        ("spherical_hydrogen", "theta", {"min": 0.0}),
        ("spherical_hydrogen", "theta", {"max": np.pi}),
    ],
    ids=["r-min", "rho-min", "theta-min", "theta-max"],
)
def test_every_check_refuses_a_coordinate_edge(tmp_path, capsys, config, label, edge):
    # a grid that touches the edge of its coordinate's interval is a config
    # error, and every check that reads the interval refuses the edge value
    path = _edited_config(
        tmp_path, config, lambda cfg: cfg["components"][label]["grid"].update(edge)
    )
    assert run("verify", "--config", path, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith(f"config error: components.{label}.grid")

    cfg = load_config(str(CONFIG_DIR / f"{config}.yaml"))
    row = cfg.symmetry
    problem = row.equations[label](cfg, cfg.quantum_numbers, cfg.constants)
    shipped = cfg.components[label].grid
    bounds = {"min": shipped.points[0], "max": shipped.points[-1]} | edge
    grid = Grid1D(bounds["min"], bounds["max"], 9)
    spin_point = [1.0] * len(row.spin_labels)
    spin_point[row.spin_labels.index(label)] = next(iter(edge.values()))
    checks = (
        lambda: check_coordinates(problem.label, grid.points),
        lambda: problem.v_eff(grid.points),
        lambda: row.spin(tuple(spin_point), cfg.constants),
    )
    for check in checks:
        with pytest.raises(GridDomainError, match=f"coordinate '{label}' must lie strictly inside"):
            check()


def test_solver_failure_exit_code(tmp_path, capsys):
    cfg = {
        "symmetry": "cartesian",
        "potentials": {"x": {"kind": "harmonic", "omega": 1.0}},
        "quantum_numbers": {"energy": 0.5, "axis_energies": {"x": 0.5}},
        "components": {
            "x": {
                "mu": 0.0,
                "nu": 0.0,
                "grid": {"min": -40.0, "max": 40.0, "count": 801},
                "source": "numeric",
                "substeps": 2,
            }
        },
    }
    path = tmp_path / "overflow.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run("solve", "--config", path, "--out", tmp_path / "o") == 3
    assert "solver failure" in capsys.readouterr().err


def test_forbidden_growth_drift_names_its_likely_cause(tmp_path, capsys):
    # with hbar 0.9 and mass 1.7 the axis energies 0.5 are not eigenvalues and
    # the solutions grow to ~1e13 at the grid ends, well below the overflow limit
    cfg = yaml.safe_load((CONFIG_DIR / "cartesian_oscillator.yaml").read_text())
    cfg["constants"] = {"hbar": 0.9, "mass": 1.7}
    path = tmp_path / "forbidden.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run("solve", "--config", path, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert "solver failure: Wronskian drift" in err
    assert "(largest |y1| 3.072e+12, |y2| 2.181e+13)" in err
    assert "classically forbidden region (shrink the domain or check the energy)" in err
    assert "refine the grid or raise substeps" in err


def test_drift_near_the_origin_names_where_it_is(tmp_path, capsys):
    # with r from 1e-6 the step is too coarse only at the first two nodes;
    # the solutions stay far below any forbidden-region growth
    path = _edited_config(
        tmp_path, "spherical_hydrogen", lambda cfg: cfg["components"]["r"]["grid"].update(min=1e-6)
    )
    assert run("verify", "--config", path, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: Wronskian drift 2.742e+06 exceeds tolerance 1.0e-06 ")
    assert (
        "at q = 1e-06 (largest |y1| 3.704e+02, |y2| 2.222e+03); "
        "either the step is too coarse there"
    ) in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("half_width", [26.6, 26.8])
def test_overflowing_wronskian_is_a_drift_failure(tmp_path, capsys, half_width):
    # at solve_energy -0.5 the x solutions grow past 1e153 towards the grid
    # ends; y1 dy2 and y2 dy1 overflow to inf and inf - inf makes W(q) NaN
    def edit(cfg):
        cfg["components"]["x"]["grid"] = {"min": -half_width, "max": half_width, "count": 1201}
        cfg["components"]["x"]["solve_energy"] = -0.5

    path = _edited_config(tmp_path, "cartesian_oscillator", edit)
    assert run("solve", "--config", path, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err.startswith("solver failure: Wronskian drift nan exceeds tolerance 1.0e-06 at ")
    assert "classically forbidden region" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["solve", "verify", "limit-scan"])
def test_overflow_to_nan_within_a_cell_is_named(tmp_path, capsys, command):
    # at hbar 1e-150 the rho solutions pass inf and turn NaN inside one cell,
    # so no cell end ever reads a finite magnitude above the limit
    def edit(cfg):
        cfg["constants"]["hbar"] = 1.0e-150
        cfg["components"]["rho"]["grid"]["max"] = 1.0e12

    path = _edited_config(tmp_path, "cylindrical_free", edit)
    assert run(command, "--config", path, "--out", tmp_path / "o") == 3
    assert capsys.readouterr().err == (
        "solver failure: solution magnitude exceeded 1e+160 near q = 500625000000.1498 "
        "(classically forbidden growth); shrink the domain\n"
    )


def _set_grid_min(label, value):
    return lambda cfg: cfg["components"][label]["grid"].update(min=value)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "config, edit, where",
    [
        ("spherical_hydrogen", _set_grid_min("r", 1e-200), "1e-200"),
        ("spherical_hydrogen", _set_grid_min("theta", 1e-200), "1e-200"),
        ("cylindrical_free", _set_grid_min("rho", 1e-200), "1e-200"),
        ("cartesian_oscillator", lambda cfg: cfg["constants"].update(mass=1e300),
         "0.0012499999999999734"),
        ("cartesian_oscillator", lambda cfg: cfg["potentials"]["x"].update(omega=1.3e154),
         "1.0325000000000002"),
        # l(l+1) hbar^2 overflows at every node: the first stage node is the midpoint
        ("spherical_hydrogen", lambda cfg: cfg["constants"].update(hbar=1e154), "6.25"),
    ],
    ids=["r-min-1e-200", "theta-min-1e-200", "rho-min-1e-200", "mass-1e300", "omega-1.3e154",
         "hbar-1e154"],
)
def test_curvature_past_float_range_fails_without_a_warning(tmp_path, capsys, config, edit,
                                                            where):
    # a curvature that divides by zero or overflows is named at its first
    # stage node in sweep order, without a numpy RuntimeWarning, and not as
    # forbidden growth, which no smaller domain would cure
    path = _edited_config(tmp_path, config, edit)
    assert run("solve", "--config", path, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err == (
        f"solver failure: the curvature (2m/hbar^2)(v_eff - e_eff) is inf at q = {where}, "
        "not a finite float; move the grid off any singular point of v_eff, or rescale hbar, "
        "the mass or the potential\n"
    )
    assert "Traceback" not in err


def _set_phase(phase, hbar=None):
    def edit(cfg):
        cfg["components"]["phi"]["phase"] = phase
        if hbar is not None:
            cfg["constants"] = {"hbar": hbar}

    return edit


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_phase_whose_action_overflows_is_named(tmp_path, capsys, command):
    # phase * hbar = 1e309 made every action sample inf, the branch check
    # read NaN and passed it: exit 0 after a numpy warning
    path = _edited_config(tmp_path, "azimuthal_identity", _set_phase(1e308, hbar=10.0))
    assert run(command, "--config", path, "--out", tmp_path / "o") == 3
    err = capsys.readouterr().err
    assert err == "solver failure: phi: the action S overflows with phase 1e+308; reduce |phase|\n"
    assert "Traceback" not in err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_large_phase_leaves_the_branch_check_alone(tmp_path, capsys):
    # the branch check runs on the action before the phase: S - 1e17 hbar
    # kept no angle and was refused as "grid too coarse"
    meta = {}
    for phase in (0.0, 1e17):
        out = tmp_path / f"o{phase}"
        path = _edited_config(tmp_path, "azimuthal_identity", _set_phase(phase))
        assert run("solve", "--config", path, "--out", out) == 0
        meta[phase] = read_summary(out / "solve_summary.json")["components"]["phi"]
    assert meta[1e17]["branch_residual"] == meta[0.0]["branch_residual"]
    assert meta[1e17]["phase"] == 1e17
    assert capsys.readouterr().err == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mu", [1e150, 1e200])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_overflowing_mixing_is_named(tmp_path, capsys, command, mu):
    # at mu 1e150 D is finite but 2 D^2 in the Schwarzian overflows, which
    # used to write NaN samples; at 1e200 D itself overflows, and the
    # momentum C/D read 0 and was reported as a sign change
    path = _edited_config(
        tmp_path, "spherical_hydrogen", lambda cfg: cfg["components"]["r"].update(mu=mu)
    )
    assert run(command, "--config", path, "--out", tmp_path / "o") == 3
    assert capsys.readouterr().err == (
        "solver failure: r: the Schwarzian of the mixed basis overflows at r = 0.5; "
        "reduce |mu| and |nu|\n"
    )
    assert not (tmp_path / "o").exists()


def test_analytic_source_requires_catalog(tmp_path, capsys):
    cfg = {
        "symmetry": "spherical",
        "potential": {"kind": "coulomb", "strength": 1.0},
        "quantum_numbers": {"ell": 0, "energy": -0.5},
        "components": {
            "r": {
                "mu": 0.0,
                "nu": 0.0,
                "grid": {"min": 0.5, "max": 10.0, "count": 201},
                "source": "analytic",
            }
        },
    }
    path = tmp_path / "r_analytic.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert run("solve", "--config", path, "--out", tmp_path / "o") == 2
    assert "no analytic catalog" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["verify", "spin-report"])
@pytest.mark.parametrize(
    "config, label, fields, message",
    [
        ("spherical_hydrogen", "r", {"source": "analytic"},
         "components.r.source: no analytic catalog for this coordinate; use source: numeric"),
        ("cylindrical_free", "rho", {"source": "analytic"},
         "components.rho.source: no analytic catalog for this coordinate; use source: numeric"),
        ("spherical_hydrogen", "phi", {"solve_energy": 1.0},
         "components.phi.solve_energy: not applicable to an analytic pair"),
    ],
    ids=["r-analytic", "rho-analytic", "phi-solve-energy"],
)
def test_every_command_refuses_an_unbuildable_pair(
    tmp_path, capsys, command, config, label, fields, message
):
    path = _edited_config(tmp_path, config, lambda cfg: cfg["components"][label].update(fields))
    assert run(command, "--config", path, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["solve", "verify", "spin-report"])
@pytest.mark.parametrize(
    "config, key, value, expected",
    [
        ("spherical_hydrogen", "m_phi", 1, "ell, m_ell, energy"),
        ("cylindrical_free", "ell", 3, "m_phi, beta, energy"),
        ("spherical_hydrogen", "axis_energies", {"r": 5.0}, "ell, m_ell, energy"),
    ],
)
def test_quantum_number_of_another_class_is_refused(
    tmp_path, capsys, command, config, key, value, expected
):
    path = _edited_config(tmp_path, config, lambda cfg: cfg["quantum_numbers"].update({key: value}))
    assert run(command, "--config", path, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err == (
        f"config error: config.quantum_numbers.{key}: unknown field (expected {expected})\n"
    )


def test_limit_scan_needs_full_set(tmp_path, capsys):
    assert run(
        "limit-scan", "--config", CONFIG_DIR / "azimuthal_identity.yaml",
        "--out", tmp_path / "o",
    ) == 2
    assert "all three coordinate components" in capsys.readouterr().err


def test_limit_scan_hydrogen(tmp_path):
    out = tmp_path / "scan"
    code = run(
        "limit-scan", "--config", CONFIG_DIR / "spherical_hydrogen.yaml",
        "--out", out, "--wrong-order-demo",
    )
    assert code == 0
    summary = read_summary(out / "limit_scan_summary.json")
    assert abs(summary["slope"] - 2.0) <= summary["slope_tolerance"]
    assert summary["within_tolerance"] is True
    gap = summary["wrong_order"]["gap"]
    assert gap > 1.0
    assert "slope" not in summary["wrong_order"]
    table = (out / "limit_scan.csv").read_text().splitlines()
    assert table[1].split(",") == ["hbar", "quantum_term_magnitude"]
    assert len(table) == 2 + 6


def test_limit_scan_makes_no_lapack_call(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("limit-scan called a LAPACK least-squares routine")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    monkeypatch.setattr(np, "polyfit", refuse)
    out = tmp_path / "scan"
    code = run(
        "limit-scan", "--config", CONFIG_DIR / "spherical_hydrogen.yaml",
        "--out", out, "--wrong-order-demo",
    )
    assert code == 0
    summary = read_summary(out / "limit_scan_summary.json")
    assert abs(summary["slope"] - 2.0) <= summary["slope_tolerance"]


def test_limit_scan_nan_wrong_order_gap_fails(tmp_path, monkeypatch, capsys):
    # a NaN momentum at a theta probe node must not pass as a zero gap
    build_case = cli.build_case

    def with_nan(cfg):
        case = build_case(cfg)  # (components, equations, total)
        comp = case[0]["theta"]
        comp.ds[probe_indices(comp.grid.points, cfg.probe_per_coordinate)[1]] = np.nan
        return case

    monkeypatch.setattr(cli, "build_case", with_nan)
    code = run(
        "limit-scan", "--config", CONFIG_DIR / "spherical_hydrogen.yaml",
        "--out", tmp_path / "scan", "--wrong-order-demo",
    )
    assert code == 3
    assert "NaN" in capsys.readouterr().err


@pytest.mark.parametrize("config, symmetry", [
    ("cylindrical_free", "cylindrical"), ("cartesian_oscillator", "cartesian"),
])
def test_wrong_order_demo_outside_spherical_is_refused_before_solving(
    tmp_path, monkeypatch, capsys, config, symmetry
):
    def never(cfg):
        pytest.fail("build_case ran although --wrong-order-demo is refused")

    monkeypatch.setattr(cli, "build_case", never)
    out = tmp_path / "scan"
    code = run(
        "limit-scan", "--config", CONFIG_DIR / f"{config}.yaml", "--out", out, "--wrong-order-demo",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and symmetry in err
    assert not out.exists()


def test_limit_scan_exit_matches_summary(tmp_path):
    code = run(
        "limit-scan", "--config", CONFIG_DIR / "cylindrical_free.yaml",
        "--out", tmp_path / "scan",
    )
    summary = read_summary(tmp_path / "scan" / "limit_scan_summary.json")
    assert summary["slope_tolerance"] == 0.05
    assert code == (0 if summary["within_tolerance"] else 1)
    assert abs(summary["slope"] - 2.0) < 1e-6


def test_spin_report_spherical(tmp_path):
    out = tmp_path / "spin"
    code = run("spin-report", "--config", CONFIG_DIR / "spherical_hydrogen.yaml", "--out", out)
    assert code == 0
    lines = (out / "spin_report.csv").read_text().splitlines()
    assert lines[1].split(",") == ["r", "theta", "ter1", "ter2", "normalized_coefficient"]
    assert len(lines) == 2 + 25
    for line in lines[2:]:
        r, theta, ter1, ter2, coeff = (float(v) for v in line.split(","))
        assert coeff == 0.25
        assert ter1 == -1.0 / (8.0 * r * r)
        assert ter2 == pytest.approx(ter1 / np.sin(theta) ** 2, rel=1e-12)


def test_spin_report_cylindrical(tmp_path):
    out = tmp_path / "spin_cyl"
    code = run("spin-report", "--config", CONFIG_DIR / "cylindrical_free.yaml", "--out", out)
    assert code == 0
    lines = (out / "spin_report.csv").read_text().splitlines()
    assert lines[1].split(",") == ["rho", "ter1", "normalized_coefficient"]
    for line in lines[2:]:
        rho, ter1, coeff = (float(v) for v in line.split(","))
        assert coeff == 0.25
        assert ter1 == -1.0 / (8.0 * rho * rho)


def test_spin_report_summary_shows_worst_coefficient(tmp_path, monkeypatch):
    row = SYMMETRY_TABLE["cylindrical"]

    def perturbed(q, constants):
        terms = row.spin(q, constants)
        coeff = np.array(terms["normalized_coefficient"])
        coeff[2] = 0.2500001
        return {**terms, "normalized_coefficient": coeff}

    changed = SymmetryRow(
        row.value, row.coordinate_labels, row.formula, row.metric, row.potential_labels,
        row.quantum_numbers, row.equations, row.analytic, perturbed, row.spin_labels,
        row.spin_formula, row.wrong_order_axes,
    )
    monkeypatch.setitem(SYMMETRY_TABLE, "cylindrical", changed)
    out = tmp_path / "spin_cyl"
    assert run("spin-report", "--config", CONFIG_DIR / "cylindrical_free.yaml", "--out", out) == 0
    assert read_summary(out / "spin_report_summary.json")["normalized_coefficient"] == 0.2500001


def test_spin_report_rejects_cartesian(tmp_path, capsys):
    assert run(
        "spin-report", "--config", CONFIG_DIR / "cartesian_oscillator.yaml",
        "--out", tmp_path / "o",
    ) == 2
    assert "no residual quantum terms" in capsys.readouterr().err


def test_solve_cartesian_oscillator(tmp_path):
    out = tmp_path / "cart"
    code = run("solve", "--config", CONFIG_DIR / "cartesian_oscillator.yaml", "--out", out)
    assert code == 0
    for lab in ("x", "y", "z"):
        assert (out / f"component_{lab}.csv").exists()
    meta = read_summary(out / "solve_summary.json")
    assert meta["components"]["x"]["provenance"] == "numerical"
    assert abs(meta["components"]["x"]["wronskian_drift"]) < 1e-6


def _read_csv_table(path):
    lines = path.read_text().splitlines()
    equation, formula = lines[0].removeprefix("# equation: ").split(" | ", 1)
    rows = [[float(v) for v in line.split(",")] for line in lines[2:]]
    return equation, formula, lines[1].split(","), rows


@pytest.mark.parametrize("config", sorted(p.stem for p in CONFIG_DIR.glob("*.yaml")))
def test_csv_and_json_tables_agree(tmp_path, config):
    commands = (("solve",), ("verify",), ("limit-scan", "--wrong-order-demo"), ("spin-report",))
    compared = 0
    for command, *flags in commands:
        csv_out, json_out = tmp_path / f"{command}-csv", tmp_path / f"{command}-json"
        argv = (command, "--config", CONFIG_DIR / f"{config}.yaml", *flags)
        assert run(*argv, "--out", csv_out, "--format", "csv") == run(
            *argv, "--out", json_out, "--format", "json"
        )
        tables = sorted(p.stem for p in csv_out.glob("*.csv"))
        summaries = [p.stem for p in json_out.glob("*_summary.json")]
        assert sorted(p.stem for p in json_out.glob("*.json") if p.stem not in summaries) == tables
        for stem in tables:
            equation, formula, columns, rows = _read_csv_table(csv_out / f"{stem}.csv")
            payload = json.loads((json_out / f"{stem}.json").read_text())
            assert (payload["equation"], payload["formula"]) == (equation, formula)
            assert payload["columns"] == columns
            # nan and inf read as null in JSON
            expected = [[v if np.isfinite(v) else None for v in row] for row in rows]
            assert payload["rows"] == expected
        compared += len(tables)
    assert compared >= 2  # solve and verify write at least one table each


def _read_table(path):
    """(columns, rows) of a CSV or JSON table the CLI wrote."""
    if path.suffix == ".json":
        payload = json.loads(path.read_text())
        return payload["columns"], payload["rows"]
    return _read_csv_table(path)[2:]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "config", ["spherical_hydrogen", "cartesian_oscillator", "cylindrical_free"]
)
def test_verify_tables_hold_each_number_once(tmp_path, config, fmt):
    # a residual table holds its coordinates and the residual; every other
    # figure of the check (scale_ref, normalized_max, max_assembly_gap) is in
    # the summary alone
    path = CONFIG_DIR / f"{config}.yaml"
    out = tmp_path / "v"
    assert run("verify", "--config", path, "--out", out, "--format", fmt) == 0
    labels = list(load_config(str(path)).symmetry.coordinate_labels)
    equations = read_summary(out / "verify_summary.json")["equations"]
    tables = sorted(p.name for p in out.glob(f"residual_*.{fmt}"))
    assert tables == sorted(f"residual_{name}.{fmt}" for name in equations)
    for name, entry in equations.items():
        columns, rows = _read_table(out / f"residual_{name}.{fmt}")
        coords = [entry["component"]] if "component" in entry else labels
        assert columns == [*coords, "residual"], name
        # %.17g round-trips, so the table's peak is the summary's to the bit
        assert max(abs(row[-1]) for row in rows) == entry["max_abs"], name


def test_limit_scan_table_does_not_depend_on_the_wrong_order_demo(tmp_path):
    # the gap is one number, and the summary holds it
    path = CONFIG_DIR / "spherical_hydrogen.yaml"
    plain, demo = tmp_path / "plain", tmp_path / "demo"
    assert run("limit-scan", "--config", path, "--out", plain) == 0
    assert run("limit-scan", "--config", path, "--out", demo, "--wrong-order-demo") == 0
    assert (plain / "limit_scan.csv").read_bytes() == (demo / "limit_scan.csv").read_bytes()
    assert "wrong_order" not in read_summary(plain / "limit_scan_summary.json")
    assert read_summary(demo / "limit_scan_summary.json")["wrong_order"]["gap"] > 1.0


def test_table_refuses_columns_of_unequal_length(tmp_path):
    # np.column_stack refuses the columns before any file is opened
    columns = {"q": np.linspace(0.0, 1.0, 5), "residual": np.zeros(4)}
    with pytest.raises(ValueError, match="array dimensions"):
        cli._table(str(tmp_path / "t"), "eq", "f", columns, "csv")
    assert list(tmp_path.iterdir()) == []


USAGE = (
    "usage: qshje {solve,verify,limit-scan,spin-report} --config PATH [--out DIR] "
    "[--format {csv,json}] [--parallel N] [--wrong-order-demo]"
)


@pytest.mark.parametrize(
    "argv, error",
    [
        (["frobnicate", "--config", "c.yaml"], "unknown command 'frobnicate'"),
        ([], "missing command"),
        (["--config", "c.yaml", "verify"], "unknown command '--config'"),
        (["verify", "--out", "o"], "the following argument is required: --config"),
        (["verify", "--config"], "argument --config: expected a value"),
        (["verify", "--out", "--config", "c.yaml"], "argument --out: expected a value"),
        (["verify", "--config", "c.yaml", "--tolerance", "1"],
         "unrecognized argument '--tolerance'"),
        (["verify", "--config", "c.yaml", "extra"], "unrecognized argument 'extra'"),
        # prefix abbreviations are not accepted
        (["verify", "--conf", "c.yaml"], "unrecognized argument '--conf'"),
        (["verify", "--config", "c.yaml", "--format", "xml"],
         "argument --format: invalid choice 'xml' (choose csv or json)"),
        (["verify", "--config", "c.yaml", "--parallel", "x"],
         "argument --parallel: invalid int value 'x'"),
        (["solve", "--config", "c.yaml", "--parallel", "2"], "unrecognized argument '--parallel'"),
        (["spin-report", "--config", "c.yaml", "--parallel", "2"],
         "unrecognized argument '--parallel'"),
        (["verify", "--config", "c.yaml", "--wrong-order-demo"],
         "unrecognized argument '--wrong-order-demo'"),
        (["limit-scan", "--config", "c.yaml", "--wrong-order-demo=1"],
         "unrecognized argument '--wrong-order-demo=1'"),
    ],
    ids=[
        "unknown-command", "no-command", "option-before-command", "config-missing",
        "value-missing", "flag-as-value", "unknown-flag", "extra-positional", "prefix",
        "format-xml", "parallel-x", "parallel-on-solve", "parallel-on-spin-report",
        "wrong-order-demo-on-verify", "switch-with-value",
    ],
)
def test_argv_outside_the_grammar_returns_2_with_the_usage(capsys, argv, error):
    # checked before the config is read: c.yaml does not exist
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{USAGE}\nqshje: error: {error}\n"


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["verify", "--config", "c.yaml", "-h"]])
def test_help_prints_the_usage_on_stdout_and_returns_0(capsys, argv):
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith(USAGE + "\n")
    for text in ("build pairs and reduced actions, write tables", "YAML run configuration",
                 "accepted for compatibility; has no effect", "wrong-order limit gap"):
        assert text in out


def test_flag_equals_value_reads_as_flag_then_value(tmp_path):
    config = CONFIG_DIR / "spherical_hydrogen.yaml"
    for form, argv in (
        ("split", ["--config", config, "--format", "json", "--parallel", "2"]),
        ("joined", [f"--config={config}", "--format=json", "--parallel=2"]),
    ):
        assert run("verify", *argv, "--out", tmp_path / form) == 0
    def written(out):
        return {p.name: p.read_bytes() for p in out.iterdir()}

    split = written(tmp_path / "split")
    assert "residual_assembled-spherical.json" in split
    assert split == written(tmp_path / "joined")


def _python(*args, check=True, **env):
    """`python *args` in a fresh interpreter that must exit 0 unless check is
    false, with src on the path and OPENBLAS_NUM_THREADS unset unless given in
    env (this process already set it by importing qshje)."""
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    base["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    return subprocess.run(
        [sys.executable, *args], env={**base, **env}, capture_output=True, text=True, check=check,
    )


def _cold(probe, *argv):
    """`python -c probe *argv`, whatever its exit code, with stdout
    block-buffered (an empty PYTHONUNBUFFERED is unset)."""
    return _python("-c", probe, *argv, check=False, PYTHONUNBUFFERED="")


def _fresh_interpreter(probe, **env):
    """stdout of `python -c probe`, split into words."""
    return _python("-c", probe, **env).stdout.split()


def test_importing_the_cli_leaves_scipy_unloaded(tmp_path):
    # nor does a verify job load it, tabulated potentials included
    x = [-6.5 + 13.0 * k / 59 for k in range(60)]
    table = {"kind": "tabulated", "points": x, "values": [0.5 * q * q for q in x]}
    config = _edited_config(
        tmp_path, "cartesian_oscillator", lambda cfg: cfg["potentials"].update(x=table)
    )
    probe = (
        "import sys, qshje.cli\n"
        "scipy = lambda: sorted(m for m in sys.modules if 'scipy' in m)\n"
        "print(scipy(), qshje.cli.main(sys.argv[1:]), scipy())"
    )
    argv = ("verify", "--config", str(config), "--out", str(tmp_path / "out"))
    assert _python("-c", probe, *argv).stdout.split() == ["[]", "0", "[]"]


@pytest.mark.parametrize("then", ["", "import scipy.interpolate"])
def test_importing_qshje_starts_no_blas_worker_pool(then):
    # numpy's OpenBLAS stays on one thread, and so does scipy's when a caller
    # loads scipy after qshje
    tasks = "/proc/self/task"
    if not os.path.isdir(tasks):
        pytest.skip(f"{tasks} is not available to count threads")
    probe = f"import os, qshje\n{then}\nprint(len(os.listdir({tasks!r})))"
    assert _fresh_interpreter(probe) == ["1"]


@pytest.mark.parametrize("env, value", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_importing_qshje_keeps_an_explicit_blas_thread_count(env, value):
    probe = "import os, qshje; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    assert _fresh_interpreter(probe, **env) == [value]


def test_main_in_process_leaves_gc_alone(tmp_path):
    config, out = CONFIG_DIR / "spherical_hydrogen.yaml", tmp_path / "out"
    probe = (
        "import gc, qshje.cli as cli\n"
        f"rc = cli.main(['verify', '--config', {str(config)!r}, '--out', {str(out)!r}])\n"
        "print(rc, gc.get_freeze_count(), gc.isenabled())"
    )
    assert _fresh_interpreter(probe) == ["0", "0", "True"]


def test_cold_entry_exits_with_mains_code(tmp_path, capsys):
    # cold_entry ends the process with os._exit, so it must flush what main
    # printed first: stdout is block-buffered here (PYTHONUNBUFFERED unset)
    failing = _edited_config(tmp_path, "spherical_hydrogen", lambda cfg: cfg["constants"].update(
        hbar=1e154))
    runs = {
        0: ["-h"],
        1: ["verify", "--config", CONFIG_DIR / "spherical_hydrogen_wrong_energy.yaml"],
        2: ["verify", "--config", tmp_path / "missing.yaml"],
        3: ["verify", "--config", failing],
    }
    probe = "import qshje.cli as cli\ncli.cold_entry()\n"
    for code, argv in runs.items():
        argv = [str(a) for a in argv] + ["--out", str(tmp_path / f"out{code}")] * (code > 0)
        assert main(argv) == code
        inproc = capsys.readouterr()
        cold = _cold(probe, *argv)
        assert cold.returncode == code
        assert cold.stdout == inproc.out
        assert cold.stderr == inproc.err and (cold.stderr != "") == (code > 1)


def test_cold_entry_lets_an_escaping_exception_take_the_normal_exit():
    probe = (
        "import qshje.cli as cli\n"
        "def broken():\n"
        "    raise RuntimeError('escaped')\n"
        "cli.main = broken\n"
        "cli.cold_entry()\n"
    )
    done = _cold(probe)
    assert done.returncode == 1
    assert "Traceback" in done.stderr and done.stderr.endswith("RuntimeError: escaped\n")


def test_importing_the_cli_loads_nothing_beyond_numpy(tmp_path):
    # records are plain classes, argv is parsed by hand and run files by
    # config's own reader: no dataclasses, argparse, gettext, locale or yaml
    # at import or while a command runs
    config, out = CONFIG_DIR / "azimuthal_identity.yaml", tmp_path / "out"
    probe = (
        "import sys\n"
        "import numpy\n"
        "floor = set(sys.modules)\n"
        "import qshje.cli\n"
        "added = set(sys.modules) - floor\n"
        "print(*sorted(m for m in added if m != 'qshje' and not m.startswith('qshje.')))\n"
        f"qshje.cli.main(['verify', '--config', {str(config)!r}, '--out', {str(out)!r}])\n"
        "absent = {'dataclasses', 'argparse', 'gettext', 'locale', 'yaml'}\n"
        "print(*sorted(absent & set(sys.modules)))\n"
    )
    assert _python("-c", probe).stdout.splitlines() == ["__future__", ""]


def test_console_script_runs_what_the_main_block_runs():
    tomllib = pytest.importorskip("tomllib")
    pyproject = CONFIG_DIR.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, function = scripts["qshje"].split(":")
    tree = ast.parse(pathlib.Path(cli.__file__).read_text())
    (block,) = [
        node for node in tree.body
        if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
    ]
    (statement,) = block.body
    assert (module, f"{function}()") == (cli.__name__, ast.unparse(statement))


@pytest.mark.parametrize("command, config", [
    ("verify", "spherical_hydrogen"), ("solve", "cartesian_oscillator"),
])
def test_cold_process_writes_the_in_process_bytes(tmp_path, command, config):
    argv = [command, "--config", str(CONFIG_DIR / f"{config}.yaml")]
    _python("-m", "qshje.cli", *argv, "--out", str(tmp_path / "cold"))  # exits 0
    assert run(*argv, "--out", tmp_path / "inproc") == 0

    def written(out):
        return {p.relative_to(out): p.read_bytes() for p in out.rglob("*") if p.is_file()}

    cold = written(tmp_path / "cold")
    assert cold and cold == written(tmp_path / "inproc")
