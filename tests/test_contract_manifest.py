"""The contract manifest's reach counter, and the edge rows that name the
errors and branches a config or argv reaches."""
import contextlib
import importlib.util
import io
import json
import math
import pathlib
import warnings

import pytest

from qshje.cli import _USAGE as USAGE
from qshje.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "contract_manifest", ROOT / "tools" / "contract_manifest.py"
)
manifest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(manifest)


def test_reach_counts_the_untaken_branch(tmp_path):
    root = tmp_path.resolve()
    (root / "pkg").mkdir()
    source = root / "pkg" / "branches.py"
    source.write_text(
        "def branch(x):\n"
        "    if x:\n"
        "        return 'taken'\n"
        "    return 'untaken'\n"
    )
    spec = importlib.util.spec_from_file_location("branches", source)
    module = importlib.util.module_from_spec(spec)
    reach = manifest.Reach(root)
    with reach:
        spec.loader.exec_module(module)
        assert module.branch(True) == "taken"
    assert module.branch(False) == "untaken"  # untraced: outside the block
    # lines 1-4 are executable; only `return 'untaken'` was not run
    assert reach.unreached() == ({"pkg.branches.branch": 1}, 4)


# (exit code, stderr prefix) of each edge row that names an error or runs a
# branch no shipped config reaches
ROWS = {
    "config-file-missing": (2, "config error: cannot read config file 'missing.yaml'"),
    "out-under-a-file": (2, "config error: cannot write outputs to"),
    "yaml-invalid": (2, "config error: config file 'config.yaml' is not valid YAML"),
    "config-file-empty": (2, "config error: config file 'config.yaml' is empty"),
    "constants-not-a-mapping": (2, "config error: config.constants: expected a mapping"),
    "grid-count-missing": (2, "config error: components.r.grid.count: missing required field"),
    "mu-not-a-number": (2, "config error: components.r.mu: expected a number"),
    "mu-nan": (2, "config error: components.r.mu: must be finite"),
    "tolerance-negative": (2, "config error: config.tolerance: must be positive"),
    "count-fractional": (2, "config error: components.r.grid.count: expected an integer"),
    "potential-kind-unknown": (2, "config error: potential.kind: unknown potential kind"),
    "source-unknown": (2, "config error: components.r.source: expected 'numeric' or 'analytic'"),
    "substeps-0": (2, "config error: components.r.substeps: must be >= 1"),
    "symmetry-unknown": (2, "config error: config.symmetry: unknown symmetry"),
    "potential-axis-unknown": (2, "config error: config.potentials.w: unknown axis"),
    "components-empty": (2, "config error: config.components: at least one component"),
    "component-not-a-coordinate": (
        2, "config error: config.components.x: not a coordinate of spherical"),
    "axis-energy-missing": (
        2, "config error: config.quantum_numbers.axis_energies: missing energy for axis 'x'"),
    "hbar-scan-not-a-list": (2, "config error: config.hbar_scan: expected a list"),
    "hbar-scan-negative": (2, "config error: config.hbar_scan: hbar values must be positive"),
    "probe-points-1": (2, "config error: config.probe_points_per_coordinate: must be >= 2"),
    "format-xml": (2, "config error: config.output.format: expected 'csv' or 'json'"),
    "solve-energy-analytic": (
        2, "config error: components.phi.solve_energy: not applicable to an analytic pair"),
    "analytic-without-catalog": (2, "config error: components.r.source: no analytic catalog"),
    "tabulated-3-points": (2, "config error: potentials.x: tabulated potential needs matching"),
    "tabulated-unsorted": (
        2, "config error: potentials.x: tabulated potential abscissae must be strictly"),
    "mass-negative": (2, "config error: config.constants: mass must be positive"),
    "ell-negative": (2, "config error: config.quantum_numbers: ell must be >= 0"),
    "coulomb-at-origin": (3, "solver failure: Coulomb potential evaluated at the origin"),
    "power-pole-at-origin": (3, "solver failure: power-law potential (p=-1.0) not finite"),
    "hbar-scan-underflow": (
        3, "solver failure: classical-limit fit: the quantum-term magnitude is 0.0"),
    "ell-400-grid-too-coarse": (
        3, "solver failure: unwrapped action disagrees with arctan branch"),
    "spin-r-max-1e160": (
        3, "solver failure: spin terms: hbar^2/(2m r^2) is below the smallest normal float"),
    "effective-energy-overflow": (
        3, "solver failure: azimuthal: the effective energy is inf, not a finite float"),
    "axial-exponential-overflow": (3, "solver failure: axial exponential overflows"),
    "momentum-underflow": (3, "solver failure: z: the conjugate momentum"),
    "residual-squares-overflow": (1, ""),
    "residual-nan": (1, "verify: azimuthal residual is NaN at phi = "),
    "assembled-residual-overflow": (
        1, "verify: radial-cylindrical residual is infinite at rho = 2.244375, the first of "),
    "beta-0.5": (0, ""),
    "power-quartic": (0, ""),
    "curvature-overflow-hbar-1e154": (
        3, "solver failure: the curvature (2m/hbar^2)(v_eff - e_eff) is inf at q = 6.25,"),
    "argv-no-command": (2, f"{USAGE}\nqshje: error: missing command\n"),
    "argv-unknown-command": (2, f"{USAGE}\nqshje: error: unknown command 'frobnicate'\n"),
    "argv-config-missing": (
        2, f"{USAGE}\nqshje: error: the following argument is required: --config\n"),
    "argv-value-missing": (2, f"{USAGE}\nqshje: error: argument --format: expected a value\n"),
    "argv-unknown-flag": (2, f"{USAGE}\nqshje: error: unrecognized argument '--tolerance'\n"),
    "argv-format-xml": (2, f"{USAGE}\nqshje: error: argument --format: invalid choice 'xml'"),
    "argv-parallel-not-an-int": (
        2, f"{USAGE}\nqshje: error: argument --parallel: invalid int value 'x'\n"),
    "argv-parallel-on-solve": (
        2, f"{USAGE}\nqshje: error: unrecognized argument '--parallel'\n"),
    "argv-wrong-order-demo-on-verify": (
        2, f"{USAGE}\nqshje: error: unrecognized argument '--wrong-order-demo'\n"),
    "argv-help": (0, ""),
}

EDGE_JOBS = {name.removeprefix("edge:"): job for name, *job in manifest.edge_jobs()}


@pytest.mark.parametrize("name", sorted(ROWS))
def test_edge_row_ends_in_its_named_exit(tmp_path, monkeypatch, name):
    text, command, flags = EDGE_JOBS[name]
    monkeypatch.chdir(tmp_path)
    pathlib.Path("config.yaml").write_text(text, encoding="utf-8")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(manifest.job_argv(command, flags, "config.yaml", "out"))
    code, prefix = ROWS[name]
    stderr = err.getvalue()
    assert rc == code
    assert stderr.startswith(prefix) if prefix else stderr == ""
    assert "Traceback" not in stderr and "RuntimeWarning" not in stderr
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_residual_rms_stays_finite_past_the_float_range(tmp_path, monkeypatch):
    # the residual reaches about 1e187, so its squares overflow
    text, command, flags = EDGE_JOBS["residual-squares-overflow"]
    monkeypatch.chdir(tmp_path)
    pathlib.Path("config.yaml").write_text(text, encoding="utf-8")
    assert main([command, "--config", "config.yaml", "--out", "out", *flags]) == 1
    entry = json.loads(pathlib.Path("out/verify_summary.json").read_text())["equations"]
    rms, max_abs = entry["azimuthal"]["rms"], entry["azimuthal"]["max_abs"]
    assert max_abs > 1e154
    assert math.isfinite(rms) and max_abs / math.sqrt(721) <= rms <= max_abs
