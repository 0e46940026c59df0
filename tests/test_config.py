import copy
import pathlib

import numpy as np
import pytest
import yaml

import qshje as Q

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


def minimal_spherical() -> dict:
    return {
        "symmetry": "spherical",
        "quantum_numbers": {"ell": 2, "m_ell": 2},
        "components": {
            "phi": {
                "mu": 0.5,
                "nu": -0.2,
                "grid": {"min": 0.0, "max": 6.283185307179586, "count": 721},
                "source": "analytic",
            }
        },
    }


def mutate(base: dict, path: str, value) -> dict:
    out = copy.deepcopy(base)
    node = out
    *heads, last = path.split(".")
    for key in heads:
        node = node.setdefault(key, {})
    node[last] = value
    return out


def test_shipped_configs_parse():
    for name in (
        "azimuthal_identity",
        "cartesian_oscillator",
        "cylindrical_free",
        "spherical_hydrogen",
        "spherical_hydrogen_wrong_energy",
    ):
        cfg = Q.load_config(str(CONFIG_DIR / f"{name}.yaml"))
        assert isinstance(cfg, Q.RunConfig)
        assert cfg.tolerance > 0.0


def test_hydrogen_config_fields():
    cfg = Q.load_config(str(CONFIG_DIR / "spherical_hydrogen.yaml"))
    assert cfg.symmetry is Q.SymmetryClass.SPHERICAL
    assert isinstance(cfg.potentials["r"], Q.CoulombPotential)
    assert cfg.quantum_numbers.ell == 1
    assert cfg.quantum_numbers.energy == -0.125
    assert set(cfg.components) == {"r", "theta", "phi"}
    assert cfg.has_full_set
    assert cfg.components["r"].substeps == 4
    assert cfg.components["phi"].source == "analytic"
    assert cfg.components["r"].grid.n == 1601
    assert cfg.hbar_scan == Q.DEFAULT_HBAR_SCAN
    assert cfg.fmt == "csv"
    assert cfg.out_dir == "out/spherical_hydrogen"


def test_partial_config_is_allowed():
    cfg = Q.parse_config(minimal_spherical())
    assert not cfg.has_full_set
    assert set(cfg.components) == {"phi"}
    assert isinstance(cfg.potentials["r"], Q.ZeroPotential)
    assert cfg.tolerance == 1e-6
    assert cfg.probe_per_coordinate == 5


def test_wrong_energy_config_override():
    cfg = Q.load_config(str(CONFIG_DIR / "spherical_hydrogen_wrong_energy.yaml"))
    assert cfg.components["r"].solve_energy == -0.5
    assert cfg.quantum_numbers.energy == -0.4


@pytest.mark.parametrize(
    "path,value,message",
    [
        ("symmetry", "toroidal", "unknown symmetry"),
        ("components.phi.mu", "half", "expected a number"),
        ("components.phi.mu", True, "expected a number"),
        ("components.phi.grid.count", 7, "at least 9 grid points"),
        ("components.phi.grid.count", 721.0, "expected an integer"),
        ("components.phi.grid.min", 7.0, "strictly increasing"),
        ("components.phi.source", "guess", "expected 'numeric' or 'analytic'"),
        ("components.phi.substeps", 0, "must be >= 1"),
        ("components.phi.seeds", [[1.0, 0.0], [0.0, 1.0]], r"^components.phi.seeds: unknown field"),
        ("components.phi.grid", {"min": -1e308, "max": 1e308, "count": 721}, "must be finite"),
        ("tolerance", 0.0, "must be positive"),
        ("tolerance", "tight", "expected a number"),
        ("constants", {"hbar": 0.0}, "hbar must be positive"),
        ("constants", {"hbar": -1.0}, "constants"),
        ("quantum_numbers", {"ell": 1, "m_ell": 2}, "quantum_numbers"),
        ("hbar_scan", 0.5, "expected a list"),
        ("hbar_scan", [1.0, 0.5, -0.25], "positive"),
        ("probe_points_per_coordinate", 1, "must be >= 2"),
        ("output.format", "xml", "expected 'csv' or 'json'"),
        ("potential", {"kind": "magnetic"}, "unknown potential kind"),
        # every mapping rejects a key the parser does not read
        ("constants.h", 1.0, r"^config.constants.h: unknown field \(expected hbar, mass\)$"),
        ("quantum_numbers.l", 1, r"^config.quantum_numbers.l: unknown field \(expected ell, "),
        # spherical reads no axis energies at all
        ("quantum_numbers.axis_energies.x", 0.5,
         r"^config.quantum_numbers.axis_energies: unknown field \(expected ell, m_ell, energy\)$"),
        ("components.phi.grid.step", 0.1, r"^components.phi.grid.step: unknown field"),
        ("output.dir", "out", r"^config.output.dir: unknown field \(expected directory, format\)$"),
        ("potential", {"kind": "coulomb", "strength": 1.0, "omega": 2.0},
         r"^potential.omega: unknown field \(expected kind, strength\)$"),
        ("potential", {"kind": "zero", "strength": 1.0},
         r"^potential.strength: unknown field \(expected kind\)$"),
    ],
)
def test_invalid_fields(path, value, message):
    with pytest.raises(Q.ConfigError, match=message):
        Q.parse_config(mutate(minimal_spherical(), path, value))


def test_degenerate_mixing_rejected():
    bad = mutate(minimal_spherical(), "components.phi.mu", 2.0)
    bad = mutate(bad, "components.phi.nu", 0.5)
    with pytest.raises(Q.ConfigError, match="degenerate mixing"):
        Q.parse_config(bad)


def test_component_label_must_match_symmetry():
    base = minimal_spherical()
    base["components"]["x"] = copy.deepcopy(base["components"]["phi"])
    base["components"]["x"]["grid"] = {"min": -1.0, "max": 1.0, "count": 101}
    with pytest.raises(Q.ConfigError, match="not a coordinate of spherical"):
        Q.parse_config(base)


def test_radial_and_polar_domain_guards():
    base = {
        "symmetry": "spherical",
        "components": {
            "r": {"mu": 0.0, "nu": 0.0, "grid": {"min": 0.0, "max": 5.0, "count": 101}},
        },
    }
    with pytest.raises(
        Q.ConfigError,
        match=r"^components.r.grid: coordinate 'r' must lie strictly inside \(0.0, inf\)$",
    ):
        Q.parse_config(base)
    base["components"] = {
        "theta": {"mu": 0.0, "nu": 0.0, "grid": {"min": 0.0, "max": 3.0, "count": 101}}
    }
    with pytest.raises(
        Q.ConfigError,
        match=r"^components.theta.grid: coordinate 'theta' must lie strictly inside \(0.0, 3.14159",
    ):
        Q.parse_config(base)


def test_missing_and_empty_components():
    base = minimal_spherical()
    del base["components"]
    with pytest.raises(Q.ConfigError, match="missing required field"):
        Q.parse_config(base)
    base["components"] = {}
    with pytest.raises(Q.ConfigError, match="at least one component"):
        Q.parse_config(base)


def cartesian_base() -> dict:
    grid = {"min": -6.0, "max": 6.0, "count": 301}
    return {
        "symmetry": "cartesian",
        "potentials": {lab: {"kind": "harmonic", "omega": 1.0} for lab in ("x", "y", "z")},
        "quantum_numbers": {
            "energy": 1.5,
            "axis_energies": {"x": 0.5, "y": 0.5, "z": 0.5},
        },
        "components": {
            lab: {"mu": 0.0, "nu": 0.0, "grid": dict(grid), "source": "numeric"}
            for lab in ("x", "y", "z")
        },
    }


def test_cartesian_validation():
    cfg = Q.parse_config(cartesian_base())
    assert cfg.has_full_set
    assert set(cfg.potentials) == {"x", "y", "z"}

    bad = cartesian_base()
    bad["potentials"]["w"] = {"kind": "zero"}
    with pytest.raises(Q.ConfigError, match="unknown axis"):
        Q.parse_config(bad)

    bad = cartesian_base()
    del bad["quantum_numbers"]["axis_energies"]["z"]
    with pytest.raises(Q.ConfigError, match="missing energy for axis"):
        Q.parse_config(bad)

    bad = mutate(cartesian_base(), "quantum_numbers.energy", 2.0)
    with pytest.raises(Q.ConfigError, match="axis energies"):
        Q.parse_config(bad)


def test_cartesian_quantum_numbers():
    bad = mutate(cartesian_base(), "quantum_numbers.ell", 0)
    with pytest.raises(
        Q.ConfigError,
        match=r"^config.quantum_numbers.ell: unknown field \(expected energy, axis_energies\)$",
    ):
        Q.parse_config(bad)
    bad = mutate(cartesian_base(), "quantum_numbers.axis_energies.w", 0.0)
    with pytest.raises(
        Q.ConfigError, match=r"^quantum_numbers.axis_energies.w: unknown field \(expected x, y, z\)$"
    ):
        Q.parse_config(bad)


def test_axes_without_listed_potential_default_to_zero():
    base = cartesian_base()
    del base["potentials"]["z"]
    cfg = Q.parse_config(base)
    assert isinstance(cfg.potentials["z"], Q.ZeroPotential)


def test_potential_from_mapping_kinds():
    p = Q.potential_from_mapping({"kind": "zero"}, "potential")
    assert isinstance(p, Q.ZeroPotential)
    p = Q.potential_from_mapping({"kind": "harmonic", "omega": 2.0}, "potential")
    assert isinstance(p, Q.HarmonicPotential) and p.omega == 2.0
    p = Q.potential_from_mapping({"kind": "coulomb", "strength": 1.5}, "potential")
    assert isinstance(p, Q.CoulombPotential) and p.strength == 1.5
    p = Q.potential_from_mapping({"kind": "power", "coefficient": 0.5, "exponent": 4.0}, "potential")
    assert isinstance(p, Q.PowerLawPotential)
    pts = list(np.linspace(0.0, 2.0, 9))
    vals = [x * x for x in pts]
    p = Q.potential_from_mapping({"kind": "tabulated", "points": pts, "values": vals}, "potential")
    assert isinstance(p, Q.TabulatedPotential)
    with pytest.raises(Q.ConfigError, match="potential"):
        Q.potential_from_mapping({"kind": "tabulated", "points": pts, "values": vals[:-1]}, "potential")
    with pytest.raises(Q.ConfigError, match="omega"):
        Q.potential_from_mapping({"kind": "harmonic"}, "potential")


def test_error_messages_carry_dotted_paths():
    with pytest.raises(Q.ConfigError, match=r"^components.phi.grid: need at least 9 grid points"):
        Q.parse_config(mutate(minimal_spherical(), "components.phi.grid.count", 3))
    with pytest.raises(Q.ConfigError, match="config.symmetry"):
        Q.parse_config(mutate(minimal_spherical(), "symmetry", "conical"))


def test_load_config_file_errors(tmp_path):
    missing = tmp_path / "nope.yaml"
    with pytest.raises(Q.ConfigError, match="cannot read"):
        Q.load_config(str(missing))
    empty = tmp_path / "empty.yaml"
    empty.write_text("")
    with pytest.raises(Q.ConfigError, match="empty"):
        Q.load_config(str(empty))
    broken = tmp_path / "broken.yaml"
    broken.write_text("components: [unterminated\n")
    with pytest.raises(Q.ConfigError, match="not valid YAML"):
        Q.load_config(str(broken))
    scalar = tmp_path / "scalar.yaml"
    scalar.write_text("42\n")
    with pytest.raises(Q.ConfigError, match="expected a mapping"):
        Q.load_config(str(scalar))


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.stem)
def test_libyaml_loader_reads_shipped_configs_like_the_python_loader(path):
    # load_config parses with libyaml when PyYAML was built with it
    text = path.read_text()
    fast = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    assert fast == yaml.safe_load(text)


def test_default_hbar_scan_spans_a_factor_32():
    assert Q.DEFAULT_HBAR_SCAN[0] / Q.DEFAULT_HBAR_SCAN[-1] == 32.0
    assert len(Q.DEFAULT_HBAR_SCAN) == 6
