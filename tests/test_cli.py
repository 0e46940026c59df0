import dataclasses
import json
import pathlib

import numpy as np
import pytest
import yaml

from qshje import SymmetryClass, cli, probe_axis_values
from qshje.cli import main
from qshje.residuals import SYMMETRY_TABLE

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


def test_verify_tolerance_override_fails(tmp_path):
    code = run(
        "verify", "--config", CONFIG_DIR / "azimuthal_identity.yaml",
        "--out", tmp_path / "v", "--tolerance", "1e-30",
    )
    assert code == 1


def test_verify_runs_are_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    cfg = CONFIG_DIR / "cylindrical_free.yaml"
    assert run("verify", "--config", cfg, "--out", out1) == 0
    assert run("verify", "--config", cfg, "--out", out2) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


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


def test_verify_nan_assembled_residual_fails(tmp_path, monkeypatch):
    # a NaN Schwarzian sample at a probe node must fail the assembled check
    # instead of dropping out of the lattice maximum
    build_case = cli.build_case

    def with_nan(cfg):
        case = build_case(cfg)
        comp = case.components["z"]
        node = probe_axis_values(comp.grid.points, cfg.probe_per_coordinate)[1]
        comp.schwarzian[comp.grid.points == node] = np.nan
        return case

    monkeypatch.setattr(cli, "build_case", with_nan)
    out = tmp_path / "nan"
    assert run("verify", "--config", CONFIG_DIR / "cylindrical_free.yaml", "--out", out) == 1
    summary = read_summary(out / "verify_summary.json")
    assert summary["equations"]["assembled-cylindrical"]["within_tolerance"] is False
    assert summary["all_within_tolerance"] is False
    # the scan's per-hbar maximum carries the NaN too, so the slope cannot pass
    scan = run("limit-scan", "--config", CONFIG_DIR / "cylindrical_free.yaml", "--out", out)
    assert scan != 0


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
    assert summary["wrong_order"]["gap"] > 1.0
    assert abs(summary["wrong_order"]["slope"]) < 1e-9
    table = (out / "limit_scan.csv").read_text().splitlines()
    assert table[1].split(",") == ["hbar", "quantum_term_magnitude", "wrong_order_gap"]
    assert len(table) == 2 + 6
    gaps = {line.split(",")[2] for line in table[2:]}
    assert len(gaps) == 1  # the gap column never shrinks with hbar


def test_limit_scan_exit_matches_summary(tmp_path):
    code = run(
        "limit-scan", "--config", CONFIG_DIR / "cylindrical_free.yaml",
        "--out", tmp_path / "scan", "--tolerance", "1e-12",
    )
    summary = read_summary(tmp_path / "scan" / "limit_scan_summary.json")
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
    row = SYMMETRY_TABLE[SymmetryClass.CYLINDRICAL]

    def perturbed(q, constants):
        terms = row.spin(q, constants)
        coeff = np.array(terms.normalized_coefficient)
        coeff[2] = 0.2500001
        return dataclasses.replace(terms, normalized_coefficient=coeff)

    monkeypatch.setitem(
        SYMMETRY_TABLE, SymmetryClass.CYLINDRICAL, dataclasses.replace(row, spin=perturbed)
    )
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
