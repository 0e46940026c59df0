"""Behaviour-contract manifest: run a fixed set of CLI jobs in-process and
print what each of them produced, then which `src/` lines none of them ran.

    python3 tools/contract_manifest.py > manifest.txt

The jobs are the five commands (solve, verify, limit-scan, limit-scan
--wrong-order-demo, spin-report) on every shipped config in CSV and in JSON,
then every job of the verify-numeric, cold-analytic and probe-dense benchmark
workloads at seed 5, then one command (`verify` unless the row names another)
on each edge input of EDGES: an edited copy of a shipped config, an invalid
config file, or flags that override the config or output path. Last comes
`verify` on every shipped config again as a cold `python -m qshje.cli`
process, whose jobs are named `cold:<config>` (the path users run, through
`cli.cold_entry`). Each job prints one line
`<job> <exit code> <sha256 of stderr>`, then, if it wrote to stdout, one
indented `(stdout) <sha256>` line, and one indented `<output file> <sha256>`
line per file it wrote; a job whose exception escapes the CLI prints
`raised-<type>` as its exit code. Every config and output path is
relative to a scratch directory, so the output depends only on the program.

The reach block follows: `sys.settrace` records the `src/` lines that the
in-process jobs execute, `import qshje` included, and the manifest prints
`reach: <module>.<function> <count>` for every function that holds
executable lines none of them ran, then `reach: unreached <N> of <M>`.
Functions whose lines run only in the cold jobs' child processes are marked
`child-only`; they count in N. Names and counts, not line numbers, so an edit
elsewhere in a file leaves the block alone.

Copy this file into two checkouts and diff their outputs: a change that keeps
every exit code, stderr line and output byte prints the same job lines, and
new unreached code shows in the reach block.
"""
from __future__ import annotations

import contextlib
import dis
import hashlib
import io
import math
import os
import pathlib
import subprocess
import sys
import tempfile
import types

import yaml

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.workloads import WORKLOADS, input_sets  # noqa: E402

SEED = 5
# functions whose lines run only in the cold jobs' child processes, which the
# reach tracer does not see: cli's one module-level line that import does not
# run is its `__main__` guard
CHILD_ONLY = ("qshje.cli.cold_entry", "qshje.cli.<module>")
COMMANDS = (
    ("solve",), ("verify",), ("limit-scan",), ("limit-scan", "--wrong-order-demo"), ("spin-report",),
)

def _set(path: str, value):
    """An edit of a loaded config: set the value at a dotted path."""

    def edit(cfg: dict) -> None:
        *parents, key = path.split(".")
        for part in parents:
            cfg = cfg[part]
        cfg[key] = value

    return edit


def _sets(*edits):
    """Several edits of a loaded config, applied in order."""

    def edit(cfg: dict) -> None:
        for each in edits:
            each(cfg)

    return edit


def _text(text: str):
    """An edit that replaces the whole config file with text."""
    return lambda cfg: text


_R_TABLE = [0.5 + 11.5 * k / 199 for k in range(200)]
# cylindrical_free's z component alone
_Z_ONLY = {"mu": 0.0, "nu": 0.0, "grid": {"min": -3.0, "max": 3.0, "count": 601},
           "source": "analytic"}

# (name, shipped config, edit or None, command and flags) of each edge input.
# The command is `verify` where none is given; flags after it override the
# manifest's own `--config` and `--out`.
EDGES = (
    ("r-min-0", "spherical_hydrogen", _set("components.r.grid.min", 0.0)),
    ("rho-min-0", "cylindrical_free", _set("components.rho.grid.min", 0.0)),
    ("theta-0-pi", "spherical_hydrogen",
     _set("components.theta.grid", {"min": 0.0, "max": math.pi, "count": 1201})),
    ("count-7", "spherical_hydrogen", _set("components.r.grid.count", 7)),
    ("r-min-1e-6", "spherical_hydrogen", _set("components.r.grid.min", 1e-6)),
    ("hbar-1e-3", "spherical_hydrogen", _set("constants.hbar", 1e-3)),
    ("hbar-scan-repeated", "spherical_hydrogen", _set("hbar_scan", [1.0, 1.0, 1.0, 1.0])),
    ("hbar-scan-narrow", "spherical_hydrogen", _set("hbar_scan", [1.0, 0.9, 0.8, 0.7])),
    ("tabulated-points-mapping", "cartesian_oscillator", _set(
        "potentials.x", {"kind": "tabulated", "points": {"a": 1}, "values": [0, 1, 2, 3]})),
    ("tabulated-points-nan", "cartesian_oscillator", _set(
        "potentials.x", {"kind": "tabulated", "points": [0.0, 1.0, float("nan"), 3.0],
                         "values": [0, 1, 2, 3]})),
    # linspace cannot represent either grid: equal nodes, and an overflowing span
    ("grid-duplicate-nodes", "cartesian_oscillator", _set(
        "components.x.grid", {"min": 1.0e17, "max": 1.0000000000000002e17, "count": 1201})),
    ("grid-infinite-span", "cartesian_oscillator", _set(
        "components.x.grid", {"min": -1e308, "max": 1e308, "count": 1201})),
    # a table on [0, 3] under the x grid on [-6, 6]
    ("tabulated-short", "cartesian_oscillator", _set(
        "potentials.x", {"kind": "tabulated", "points": [0.0, 1.0, 2.0, 3.0],
                         "values": [0.0, 0.5, 2.0, 4.5]})),
    # a table ending exactly at the r grid's edges: the last RK4 stage node of
    # each cell is the next grid node, so no stage node leaves the table
    ("tabulated-exact-edge", "spherical_hydrogen", _set("potential", {
        "kind": "tabulated", "points": _R_TABLE, "values": [-1.0 / r for r in _R_TABLE]})),
    # x solved at E = -0.5 grows past 1e153 at the grid ends: y1 dy2 and
    # y2 dy1 overflow to inf, and inf - inf makes the Wronskian NaN
    ("wronskian-overflow", "cartesian_oscillator", _sets(
        _set("components.x.grid", {"min": -26.6, "max": 26.6, "count": 1201}),
        _set("components.x.solve_energy", -0.5))),
    # rho solved at hbar 1e-150 out to 1e12 passes inf and turns NaN inside
    # one RK4 cell, so it must still end in the overflow message
    ("rho-overflow-nan", "cylindrical_free", _sets(
        _set("constants.hbar", 1.0e-150), _set("components.rho.grid.max", 1.0e12))),
    ("hbar-0", "spherical_hydrogen", _set("constants.hbar", 0.0)),
    # hbar^2 underflows to a subnormal
    ("hbar-1e-170", "spherical_hydrogen", _set("constants.hbar", 1e-170)),
    # the unit seeds at the midpoint, which every pair uses, set explicitly
    ("seeds-set", "spherical_hydrogen", _set("components.r.seeds", [[1.0, 0.0], [0.0, 1.0]])),
    ("output-directory-null", "spherical_hydrogen", _set("output.directory", None)),
    # integers past the float range
    ("tolerance-huge-int", "spherical_hydrogen", _set("tolerance", 10**400)),
    ("ell-huge-int", "spherical_hydrogen", _set("quantum_numbers.ell", 10**400)),
    # a mixing this large overflows the Schwarzian (1e150) or D itself (1e200)
    ("mixing-overflow-1e150", "spherical_hydrogen", _set("components.r.mu", 1e150)),
    ("mixing-overflow-1e200", "spherical_hydrogen", _set("components.r.mu", 1e200)),
    # spherical reads ell and m_ell; m_phi belongs to the cylindrical class
    ("quantum-number-of-another-class", "spherical_hydrogen", _set("quantum_numbers.m_phi", 1)),
    # finite numbers whose squares omega^2, l(l+1) and m_phi^2 are not
    ("omega-1.4e154", "cartesian_oscillator", _set("potentials.x.omega", 1.4e154)),
    ("ell-1e155", "spherical_hydrogen", _set("quantum_numbers.ell", 10**155)),
    ("m-phi-1e155", "cylindrical_free", _set("quantum_numbers.m_phi", 10**155)),
    # phase * hbar = 1e309 overflows every action sample
    ("phase-overflow", "azimuthal_identity", _sets(
        _set("constants", {"hbar": 10.0}), _set("components.phi.phase", 1e308))),
    # a curvature that divides by zero or overflows
    ("r-min-1e-200", "spherical_hydrogen", _set("components.r.grid.min", 1e-200)),
    ("theta-min-1e-200", "spherical_hydrogen", _set("components.theta.grid.min", 1e-200)),
    ("mass-1e300", "cartesian_oscillator", _set("constants.mass", 1e300)),
    # the argv and the config file itself; yaml-invalid and config-file-empty
    # name the job's own config file, config<i>.yaml
    ("config-file-missing", "spherical_hydrogen", None, "verify", "--config", "missing.yaml"),
    ("out-under-a-file", "spherical_hydrogen", None,
     "verify", "--out", os.path.join(os.devnull, "out")),
    ("yaml-invalid", "spherical_hydrogen", _text("symmetry: [")),
    ("config-file-empty", "spherical_hydrogen", _text("")),
    # one config error of each kind
    ("constants-not-a-mapping", "spherical_hydrogen", _set("constants", 5)),
    ("grid-count-missing", "spherical_hydrogen",
     _set("components.r.grid", {"min": 0.5, "max": 12.0})),
    ("mu-not-a-number", "spherical_hydrogen", _set("components.r.mu", "large")),
    ("mu-nan", "spherical_hydrogen", _set("components.r.mu", float("nan"))),
    ("tolerance-negative", "spherical_hydrogen", _set("tolerance", -1)),
    ("count-fractional", "spherical_hydrogen", _set("components.r.grid.count", 1200.5)),
    ("potential-kind-unknown", "spherical_hydrogen", _set("potential.kind", "square")),
    ("source-unknown", "spherical_hydrogen", _set("components.r.source", "guess")),
    ("substeps-0", "spherical_hydrogen", _set("components.r.substeps", 0)),
    ("symmetry-unknown", "spherical_hydrogen", _set("symmetry", "polar")),
    ("potential-axis-unknown", "cartesian_oscillator",
     _set("potentials.w", {"kind": "harmonic", "omega": 1.0})),
    ("components-empty", "spherical_hydrogen", _set("components", {})),
    ("component-not-a-coordinate", "spherical_hydrogen", _set("components.x", {})),
    ("axis-energy-missing", "cartesian_oscillator",
     _set("quantum_numbers.axis_energies", {"y": 0.5, "z": 0.5})),
    ("hbar-scan-not-a-list", "spherical_hydrogen", _set("hbar_scan", 0.5)),
    ("hbar-scan-negative", "spherical_hydrogen", _set("hbar_scan", [1.0, 0.5, -0.1, 0.01])),
    ("probe-points-1", "spherical_hydrogen", _set("probe_points_per_coordinate", 1)),
    ("format-xml", "spherical_hydrogen", _set("output.format", "xml")),
    ("solve-energy-analytic", "azimuthal_identity", _set("components.phi.solve_energy", 1.0)),
    ("analytic-without-catalog", "spherical_hydrogen", _set("components.r.source", "analytic")),
    ("tabulated-3-points", "cartesian_oscillator", _set(
        "potentials.x", {"kind": "tabulated", "points": [-6.0, 0.0, 6.0], "values": [18, 0, 18]})),
    ("tabulated-unsorted", "cartesian_oscillator", _set(
        "potentials.x", {"kind": "tabulated", "points": [-6.0, 1.0, 0.0, 6.0],
                         "values": [18, 0.5, 0, 18]})),
    ("mass-negative", "spherical_hydrogen", _set("constants.mass", -1)),
    ("ell-negative", "spherical_hydrogen", _set("quantum_numbers.ell", -1)),
    # solver failures: the x grid holds x = 0
    ("coulomb-at-origin", "cartesian_oscillator",
     _set("potentials.x", {"kind": "coulomb", "strength": 1.0})),
    ("power-pole-at-origin", "cartesian_oscillator",
     _set("potentials.x", {"kind": "power", "coefficient": 1.0, "exponent": -1})),
    ("hbar-scan-underflow", "spherical_hydrogen",
     _set("hbar_scan", [1.0, 1e-100, 1e-200, 1e-300]), "limit-scan"),
    ("ell-400-grid-too-coarse", "azimuthal_identity",
     _set("quantum_numbers", {"ell": 400, "m_ell": 400})),
    ("spin-r-max-1e160", "spherical_hydrogen", _set("components.r.grid.max", 1e160), "spin-report"),
    # m^2 hbar^2 / 2m overflows
    ("effective-energy-overflow", "azimuthal_identity", _sets(
        _set("constants", {"hbar": 1e100}),
        _set("quantum_numbers", {"ell": 10**100, "m_ell": 10**100}))),
    ("axial-exponential-overflow", "cylindrical_free", _sets(
        _set("components", {"z": _Z_ONLY}), _set("quantum_numbers.beta", 1e6))),
    # hbar (1 - mu nu) W = 1.5e-154 * 1.1e-16 * 1e-160 underflows to 0
    ("momentum-underflow", "cylindrical_free", _sets(
        _set("components", {"z": {**_Z_ONLY, "mu": 1.0, "nu": 1.0 - 2.0**-53}}),
        _set("constants.hbar", 1.5e-154), _set("quantum_numbers.beta", -1e-320))),
    # residuals past the float range: exit 1
    ("residual-squares-overflow", "azimuthal_identity", _set("constants", {"hbar": 1e100})),
    ("residual-nan", "azimuthal_identity", _sets(
        _set("constants", {"hbar": 1e154}), _set("quantum_numbers", {"ell": 1, "m_ell": 1}))),
    ("assembled-residual-overflow", "cylindrical_free", _sets(
        _set("constants.hbar", 1e154), _set("quantum_numbers.energy", 1e308),
        _set("components.rho.grid.min", 1.0))),
    # the beta > 0 axial pair and the power kind, which pass
    ("beta-0.5", "cylindrical_free", _set("quantum_numbers.beta", 0.5)),
    ("power-quartic", "cartesian_oscillator", _sets(
        _set("potentials.x", {"kind": "power", "coefficient": 0.25, "exponent": 4}),
        _set("components.x.grid", {"min": -3.0, "max": 3.0, "count": 1201}))),
    # l(l+1) hbar^2 overflows: the curvature is inf at every node
    ("curvature-overflow-hbar-1e154", "spherical_hydrogen", _set("constants.hbar", 1e154)),
    # argv outside the usage line: exit 2; a row whose command is None runs
    # its flags alone as the whole argv
    ("argv-no-command", "spherical_hydrogen", None, None),
    ("argv-unknown-command", "spherical_hydrogen", None, "frobnicate"),
    ("argv-config-missing", "spherical_hydrogen", None, None, "verify"),
    ("argv-value-missing", "spherical_hydrogen", None, "verify", "--format"),
    ("argv-unknown-flag", "spherical_hydrogen", None, "verify", "--tolerance", "1e-3"),
    ("argv-format-xml", "spherical_hydrogen", None, "verify", "--format", "xml"),
    ("argv-parallel-not-an-int", "spherical_hydrogen", None, "verify", "--parallel", "x"),
    ("argv-parallel-on-solve", "spherical_hydrogen", None, "solve", "--parallel", "2"),
    ("argv-wrong-order-demo-on-verify", "spherical_hydrogen", None,
     "verify", "--wrong-order-demo"),
    ("argv-help", "spherical_hydrogen", None, "verify", "--help"),
)


class Reach:
    """Executable lines of the `.py` files under `root` that a traced run reaches.

    Each `with reach:` block records, through `sys.settrace`, every line this
    thread executes from a file under root; a module first imported inside a
    block has its import-time lines counted too. Executable lines are the
    line starts of every code object compiled from each file, and each
    belongs to the innermost function (its qualified name) that holds it.
    """

    def __init__(self, root: pathlib.Path):
        self.root = root.resolve()
        self.seen: dict[str, set[int]] = {}  # file -> lines executed
        self._tracers: dict = {}  # file -> its line tracer, None outside root

    def _call(self, frame, event, arg):
        path = frame.f_code.co_filename
        if path not in self._tracers:
            inside = path.startswith(f"{self.root}{os.sep}")
            self._tracers[path] = self._line_tracer(path) if inside else None
        return self._tracers[path]

    def _line_tracer(self, path: str):
        lines = self.seen.setdefault(path, set())

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def __enter__(self) -> "Reach":
        self._previous = sys.gettrace()
        sys.settrace(self._call)
        return self

    def __exit__(self, *exc) -> None:
        sys.settrace(self._previous)

    def unreached(self) -> tuple[dict[str, int], int]:
        """({function: unreached line count}, executable line count) over
        every file under root; a function is `<module path>.<qualname>`."""
        missed: dict[str, int] = {}
        total = 0
        for path in sorted(self.root.rglob("*.py")):
            module = ".".join(path.relative_to(self.root).with_suffix("").parts)
            owner: dict[int, str] = {}
            # parents before children, so each line ends with its innermost owner
            stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
            while stack:
                code = stack.pop()
                for _, line in dis.findlinestarts(code):
                    if line:
                        owner[line] = code.co_qualname
                stack += (c for c in code.co_consts if isinstance(c, types.CodeType))
            seen = self.seen.get(str(path), set())
            total += len(owner)
            for line, name in owner.items():
                if line not in seen:
                    key = f"{module}.{name}"
                    missed[key] = missed.get(key, 0) + 1
        return missed, total


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _in_process(argv: list[str]) -> tuple[int | str, bytes, bytes]:
    """Exit code, stderr and stdout of `cli.main(argv)` in this process."""
    from qshje.cli import main as cli_main  # imported by the first job, under its tracer

    err, out = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(out):
        try:
            rc = cli_main(argv)
        # escapes the CLI: a traceback and exit 1, or an exit of its own
        except (Exception, SystemExit) as exc:
            rc = f"raised-{type(exc).__name__}"
    return rc, err.getvalue().encode("utf-8"), out.getvalue().encode("utf-8")


def _cold(argv: list[str]) -> tuple[int, bytes, bytes]:
    """Exit code, stderr and stdout of `python -m qshje.cli argv` in a fresh
    interpreter."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "qshje.cli", *argv], env={**os.environ, "PYTHONPATH": path},
        stdin=subprocess.DEVNULL, capture_output=True,
    )
    return done.returncode, done.stderr, done.stdout


def job_argv(command: str | None, flags: list[str], config: str, out: str) -> list[str]:
    """The argv of a job: command, `--config config --out out`, then flags;
    a command of None makes flags the whole argv."""
    if command is None:
        return list(flags)
    return [command, "--config", config, "--out", out, *flags]


def edge_jobs():
    """(name, config text, command, flags) of each EDGES row."""
    for name, config, edit, *argv in EDGES:
        cfg = yaml.safe_load((ROOT / "configs" / f"{config}.yaml").read_text(encoding="utf-8"))
        text = edit(cfg) if edit else None
        command, *flags = argv or ("verify",)
        yield f"edge:{name}", yaml.safe_dump(cfg) if text is None else text, command, flags


def _jobs():
    """(name, config text, command, flags after `--config <file> --out <dir>`,
    runner) of every job."""
    for config in sorted((ROOT / "configs").glob("*.yaml")):
        text = config.read_text(encoding="utf-8")
        for command, *flags in COMMANDS:
            for fmt in ("csv", "json"):
                name = ":".join((config.stem, command, *flags, fmt))
                yield name, text, command, ["--format", fmt, *flags], _in_process
    for workload in WORKLOADS:
        for k, cycle in enumerate(input_sets(workload, SEED)):
            for job in cycle:
                yield (f"{workload}:{k}:{job.name}", job.config_text(), job.command,
                       list(job.flags), _in_process)
    for job in edge_jobs():
        yield *job, _in_process
    for config in sorted((ROOT / "configs").glob("*.yaml")):
        yield f"cold:{config.stem}", config.read_text(encoding="utf-8"), "verify", [], _cold


def main() -> int:
    start = os.getcwd()
    reach = Reach(ROOT / "src")
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for i, (name, text, command, flags, runner) in enumerate(_jobs()):
                config, out = f"config{i}.yaml", pathlib.Path(f"out{i}")
                pathlib.Path(config).write_text(text, encoding="utf-8")
                argv = job_argv(command, flags, config, str(out))
                # the tracer sees the in-process jobs only
                with reach if runner is _in_process else contextlib.nullcontext():
                    rc, err, stdout = runner(argv)
                print(name, rc, _sha256(err))
                if stdout:
                    print(f"  (stdout) {_sha256(stdout)}")
                for path in sorted(p for p in out.rglob("*") if p.is_file()):
                    print(f"  {path.relative_to(out)} {_sha256(path.read_bytes())}")
        finally:
            os.chdir(start)
    missed, total = reach.unreached()
    for name, count in sorted(missed.items()):
        print(f"reach: {name} {count}" + (" child-only" if name in CHILD_ONLY else ""))
    print(f"reach: unreached {sum(missed.values())} of {total}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
