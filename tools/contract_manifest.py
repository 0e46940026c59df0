"""Behaviour-contract manifest: run a fixed set of CLI jobs in-process and
print what each of them produced.

    python3 tools/contract_manifest.py > manifest.txt

The jobs are the five commands (solve, verify, limit-scan, limit-scan
--wrong-order-demo, spin-report) on every shipped config in CSV and in JSON,
then every job of the verify-numeric, cold-analytic and probe-dense benchmark
workloads at seed 5, then `verify` on edited copies of the shipped configs
that sit at the edges of the input domain (EDGES), and last `verify` on every
shipped config again as a cold `python -m qshje.cli` process, whose jobs are
named `cold:<config>` (the path users run, through `cli.cold_entry`). Each
job prints one line
`<job> <exit code> <sha256 of stderr>`, then one indented `<output file>
<sha256>` line per file it wrote; a job whose exception escapes the CLI
prints `raised-<type>` as its exit code. Every config and output path is
relative to a scratch directory, so the output depends only on the program.
Copy this file into two checkouts and diff their outputs: a change that keeps
every exit code, stderr line and output byte prints the same manifest.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import pathlib
import subprocess
import sys
import tempfile

import yaml

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.workloads import WORKLOADS, input_sets  # noqa: E402
from qshje.cli import main as cli_main  # noqa: E402

SEED = 5
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


_R_TABLE = [0.5 + 11.5 * k / 199 for k in range(200)]

# (name, shipped config, edit) of each edge input run through `verify`
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
)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _in_process(argv: list[str]) -> tuple[int | str, bytes]:
    """Exit code and stderr of `cli.main(argv)` in this process."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli_main(argv)
        except Exception as exc:  # escapes the CLI: a traceback and exit 1
            rc = f"raised-{type(exc).__name__}"
    return rc, err.getvalue().encode("utf-8")


def _cold(argv: list[str]) -> tuple[int, bytes]:
    """Exit code and stderr of `python -m qshje.cli argv` in a fresh interpreter."""
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "qshje.cli", *argv], env={**os.environ, "PYTHONPATH": path},
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
    )
    return done.returncode, done.stderr


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
    for name, config, edit in EDGES:
        cfg = yaml.safe_load((ROOT / "configs" / f"{config}.yaml").read_text(encoding="utf-8"))
        edit(cfg)
        yield f"edge:{name}", yaml.safe_dump(cfg), "verify", [], _in_process
    for config in sorted((ROOT / "configs").glob("*.yaml")):
        yield f"cold:{config.stem}", config.read_text(encoding="utf-8"), "verify", [], _cold


def main() -> int:
    start = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for i, (name, text, command, flags, runner) in enumerate(_jobs()):
                config, out = f"config{i}.yaml", pathlib.Path(f"out{i}")
                pathlib.Path(config).write_text(text, encoding="utf-8")
                rc, err = runner([command, "--config", config, "--out", str(out), *flags])
                print(name, rc, _sha256(err))
                for path in sorted(p for p in out.rglob("*") if p.is_file()):
                    print(f"  {path.relative_to(out)} {_sha256(path.read_bytes())}")
        finally:
            os.chdir(start)
    return 0


if __name__ == "__main__":
    sys.exit(main())
