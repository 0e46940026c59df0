import copy
import importlib.util
import pathlib

import numpy as np
import pytest
import yaml

import qshje as Q
from qshje.config import _read_yaml
from qshje.ode_engine import MAX_GRID_POINTS, MAX_RK4_STEPS
from qshje.residuals import SYMMETRY_TABLE

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
    assert cfg.symmetry is SYMMETRY_TABLE["spherical"]
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
        ("probe_points_per_coordinate", 10**6 + 1, r"must be <= 1000000, got 1000001$"),
        ("components.phi.grid.count", 10**6 + 1,
         r"^components.phi.grid: need at most 1000000 grid points, got 1000001$"),
        ("components.phi.substeps", 5556, r"^components.phi.substeps: 5556 substeps on 720 "
                                          r"grid cells make 4000320 RK4 steps, more than 4000000$"),
    ],
)
def test_invalid_fields(path, value, message):
    with pytest.raises(Q.ConfigError, match=message):
        Q.parse_config(mutate(minimal_spherical(), path, value))


def test_grid_count_past_the_bound_is_refused_before_any_node_array(monkeypatch):
    def linspace(*args, **kwargs):
        pytest.fail("np.linspace ran for a grid count past the bound")

    monkeypatch.setattr(np, "linspace", linspace)
    for count in (MAX_GRID_POINTS + 1, 10**18):
        with pytest.raises(Q.ConfigError, match=f"need at most 1000000 grid points, got {count}$"):
            Q.parse_config(mutate(minimal_spherical(), "components.phi.grid.count", count))


def test_grid_and_rk4_work_at_their_bounds_are_accepted():
    assert (MAX_GRID_POINTS, MAX_RK4_STEPS) == (10**6, 4 * 10**6)
    cfg = Q.parse_config(mutate(minimal_spherical(), "components.phi.grid.count", 10**6))
    assert cfg.components["phi"].grid.n == 10**6
    # 1600 cells at 2500 substeps are exactly MAX_RK4_STEPS RK4 steps
    base = mutate(minimal_spherical(), "components.phi.grid.count", 1601)
    cfg = Q.parse_config(mutate(base, "components.phi.substeps", 2500))
    assert cfg.components["phi"].substeps == 2500


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
    # the differential test below compares the reader with the pure-Python
    # yaml.safe_load; libyaml reads each shipped config the same, and so does the reader
    text = path.read_text()
    fast = yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    assert fast == yaml.safe_load(text)
    assert _tree(_read_yaml(text)) == _tree(fast)


def _tree(node):
    """node with each scalar as (type, repr): equal trees hold equal types
    and values, NaN and the sign of zero included."""
    if isinstance(node, dict):
        return "dict", [(_tree(k), _tree(v)) for k, v in node.items()]
    if isinstance(node, list):
        return "list", [_tree(v) for v in node]
    return type(node).__name__, repr(node)


def _texts(source: str):
    """(name, text) of every run file of one source: the shipped configs, the
    manifest's edge inputs, or one benchmark workload's inputs at seeds 0-24."""
    if source == "shipped":
        return [(p.stem, p.read_text()) for p in sorted(CONFIG_DIR.glob("*.yaml"))]
    spec = importlib.util.spec_from_file_location(
        "contract_manifest", CONFIG_DIR.parent / "tools" / "contract_manifest.py"
    )
    manifest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(manifest)  # puts the repository root on sys.path
    if source == "edge":
        return [(name, text) for name, text, *_ in manifest.edge_jobs()]
    from bench.workloads import input_sets

    return [
        (f"{seed}:{k}:{job.name}", job.config_text())
        for seed in range(25)
        for k, cycle in enumerate(input_sets(source, seed))
        for job in cycle
    ]


# the edge rows that hold text outside the subset; yaml reads the octal, the
# repeated key, the anchor and the two flow mappings (as null values)
OUTSIDE = ["yaml-invalid", "grid-count-octal", "duplicate-key", "tab-indent", "bad-indentation",
           "yaml-anchor", "flow-missing-comma", "flow-key-without-colon", "flow-value-missing",
           "text-after-value"]


@pytest.mark.parametrize("source", ["shipped", "edge", "verify-numeric", "probe-dense",
                                    "cold-analytic"])
def test_reader_reads_every_run_file_as_yaml_safe_load_does(source):
    texts = _texts(source)
    assert texts
    refused = []
    for name, text in texts:
        try:
            data = _read_yaml(text)
        except Q.ConfigError:
            refused.append(name)
            continue
        assert _tree(data) == _tree(yaml.safe_load(text)), name
    assert refused == ([f"edge:{name}" for name in OUTSIDE] if source == "edge" else [])


@pytest.mark.parametrize("text, message", [
    ("symmetry: spherical\ncomponents:\n\tphi: {}\n",
     "line 3: a tab or another unprintable character"),
    ("tolerance:\t1.0e-06\n", "line 1: a tab or another unprintable character"),
    ("symmetry: spherical\nhbar_scan: [1.0, 0.5]\f\n",
     "line 2: a tab or another unprintable character"),
    ("symmetry: spherical\ncomponents: {phi: {mu: 1.5\n", "line 2: expected ',' or '}'"),
    ("symmetry: spherical\nhbar_scan: [1.0,\n", "line 2: unterminated flow collection"),
    ("symmetry: 'spherical' cylindrical\n", "line 1: unexpected 'cylindrical'"),
], ids=["tab", "tab-separator", "form-feed", "unclosed-flow", "unterminated-flow",
        "text-after-scalar"])
def test_text_outside_the_subset_is_a_config_error_naming_its_line(tmp_path, text, message):
    with pytest.raises(yaml.YAMLError):
        yaml.safe_load(text)
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    with pytest.raises(Q.ConfigError) as caught:
        Q.load_config(str(path))
    assert str(caught.value) == f"config file {str(path)!r} is not valid YAML: {message}"


def test_a_no_break_space_after_a_number_is_refused(tmp_path):
    # yaml reads `721\u00a0` as a string, which the run would refuse as a
    # count; the reader refuses the character itself, as it does every space
    # other than U+0020
    path = tmp_path / "count.yaml"
    path.write_text((CONFIG_DIR / "azimuthal_identity.yaml").read_text().replace(
        "count: 721", "count: 721\u00a0"), encoding="utf-8")
    assert yaml.safe_load(path.read_text(encoding="utf-8"))["components"]["phi"]["grid"] == {
        "min": 0.0, "max": 6.283185307179586, "count": "721\u00a0"}
    with pytest.raises(Q.ConfigError, match="line 12: a tab or another unprintable character"):
        Q.load_config(str(path))


@pytest.mark.parametrize("text", [
    "hbar_scan: " + "[" * 3000 + "]" * 3000 + "\n", "hbar_scan:\n" + "- " * 3000 + "1.0\n",
], ids=["flow", "block"])
def test_nesting_past_the_recursion_limit_is_a_config_error(text):
    with pytest.raises(Q.ConfigError, match=r"^line [12]: maximum recursion depth exceeded"):
        _read_yaml(text)


@pytest.mark.parametrize("count", ["0721", "1_000", "1:30", "0x2d1", "0b1011010001"])
def test_yaml_11_integer_forms_are_refused_not_read(tmp_path, count):
    # YAML 1.1 reads each as an integer (0721 is octal 465), so the run
    # silently used a grid count other than the one written; base 60 is
    # refused for its `:`, which no plain scalar holds
    path = tmp_path / "count.yaml"
    path.write_text((CONFIG_DIR / "azimuthal_identity.yaml").read_text().replace(
        "count: 721", f"count: {count}"))
    reason = "cannot read ':'" if count == "1:30" else f"'{count}' is a YAML 1.1 form outside"
    with pytest.raises(Q.ConfigError, match=f"line 12: {reason}"):
        Q.load_config(str(path))


@pytest.mark.parametrize("text", [
    "tolerance: 1.0e-09\ntolerance: 1.0e-3\n", "grid: {min: 0.0, min: 1.0}\n",
], ids=["block", "flow"])
def test_a_repeated_key_is_refused(tmp_path, text):
    # yaml keeps the last value: a second tolerance loosened the first
    path = tmp_path / "repeated.yaml"
    path.write_text(text)
    with pytest.raises(Q.ConfigError, match=r"not valid YAML: line \d: duplicate key"):
        Q.load_config(str(path))


def test_default_hbar_scan_spans_a_factor_32():
    assert Q.DEFAULT_HBAR_SCAN[0] / Q.DEFAULT_HBAR_SCAN[-1] == 32.0
    assert len(Q.DEFAULT_HBAR_SCAN) == 6
