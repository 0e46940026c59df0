"""Command-line entry points: solve, verify, limit-scan, spin-report.

Exit codes: 0 success (and within tolerance) or `-h`/`--help`, 1 tolerance
breach, 2 config error or an argv outside the usage line, 3 solver failure.
`limit-scan --wrong-order-demo` outside spherical symmetry is a config error.
`main()` returns the code and `cold_entry()` exits with it.
"""
from __future__ import annotations

import os
import sys

import numpy as np

from .config import ComponentConfig, RunConfig, load_config
from .domain import Effective1DProblem
from .errors import ConfigError, QshjeError
from .ode_engine import SolutionPair, solve_pair
from .reduced_action import ReducedActionComponent, build_component
from .residuals import (
    TotalReducedAction,
    assemble_total,
    assembled_residual,
    classical_limit_scan,
    component_residual,
    component_weighted_sum,
    probe_axes,
    probe_indices,
    probe_lattice,
    wrong_order_gap,
)
from .tables import write_summary, write_table

# allowed |slope - 2| of the classical-limit scan, whose slope is 2 by construction
SLOPE_TOLERANCE = 0.05


def build_pair(cfg: RunConfig, comp: ComponentConfig, problem: Effective1DProblem) -> SolutionPair:
    if comp.source == "analytic":
        return cfg.symmetry.analytic[comp.label](cfg.quantum_numbers, comp.grid, cfg.constants)
    if comp.solve_energy is not None:
        p = problem
        problem = Effective1DProblem(
            p.label, p.name, p.formula, p.v_eff, comp.solve_energy, p.constants, p.scale
        )
    return solve_pair(problem, comp.grid, substeps=comp.substeps)


def build_case(cfg: RunConfig) -> tuple[dict, dict, TotalReducedAction | None]:
    """(components, equations, total) of a run: the built components and their
    equations keyed by label, in coordinate-label order, and the assembled
    equation when all coordinates are configured, else None."""
    components: dict[str, ReducedActionComponent] = {}
    equations: dict[str, Effective1DProblem] = {}
    for label in cfg.symmetry.coordinate_labels:
        if label not in cfg.components:
            continue
        comp_cfg = cfg.components[label]
        eq = cfg.symmetry.equations[label](cfg, cfg.quantum_numbers, cfg.constants)
        pair = build_pair(cfg, comp_cfg, eq)
        components[label] = build_component(
            label, pair, comp_cfg.mu, comp_cfg.nu, comp_cfg.phase
        )
        equations[label] = eq

    total = None
    if cfg.has_full_set:
        total = assemble_total(components, cfg.symmetry, cfg.quantum_numbers, cfg.potentials)
    return components, equations, total


def _component_meta(comp: ReducedActionComponent, cfg: ComponentConfig) -> dict:
    return {
        "mu": comp.mu,
        "nu": comp.nu,
        "phase": comp.phase_e,
        "source": cfg.source,
        "provenance": comp.pair.provenance,
        "wronskian": comp.pair.wronskian,
        "wronskian_drift": comp.pair.wronskian_drift(),
        "branch_residual": comp.branch_residual,
        "grid": {"min": float(comp.grid.points[0]), "max": float(comp.grid.points[-1]),
                 "count": comp.grid.n},
    }


def _table(path: str, equation: str, formula: str, columns: dict, fmt: str) -> None:
    """Write one table from named 1-D columns of equal length."""
    rows = np.column_stack(list(columns.values()))
    write_table(path, equation, formula, list(columns), rows, fmt=fmt)


def cmd_solve(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    components, equations, _ = build_case(cfg)
    os.makedirs(out_dir, exist_ok=True)
    meta: dict = {"symmetry": cfg.symmetry.value, "components": {}}
    for label, comp in components.items():
        eq = equations[label]
        columns = {
            label: comp.grid.points, "y1": comp.pair.y1, "y2": comp.pair.y2,
            "wronskian": comp.pair.wronskian_samples(), "action": comp.s,
            "conjugate_momentum": comp.ds, "amplitude": comp.amplitude,
            "schwarzian": comp.schwarzian,
        }
        _table(os.path.join(out_dir, f"component_{label}"), eq.name, eq.formula, columns, fmt)
        meta["components"][label] = _component_meta(comp, cfg.components[label])
    write_summary(os.path.join(out_dir, "solve_summary.json"), meta)
    return 0


def _check(
    out_dir: str, name: str, formula: str, coords: dict, residual: np.ndarray, tolerance: float,
    fmt: str,
) -> dict:
    """Write one residual table, its coordinates and `residual`, and return
    its verdict.

    Its max |residual| propagates NaN and inf, so a non-finite residual fails
    the tolerance; the first NaN, or else the first infinite value, is named
    on stderr.
    """
    table = coords | {"residual": residual}
    _table(os.path.join(out_dir, f"residual_{name}"), name, formula, table, fmt)
    bad, kind = np.isnan(residual), "NaN"
    if not bad.any():
        bad, kind = np.isinf(residual), "infinite"
    if bad.any():
        at = [repr(float(col[np.argmax(bad)])) for col in coords.values()]
        if len(coords) == 1:
            where, what = f"{next(iter(coords))} = {at[0]}", "samples"
        else:
            where, what = f"({', '.join(coords)}) = ({', '.join(at)})", "probe points"
        print(
            f"verify: {name} residual is {kind} at {where}, the first of "
            f"{int(bad.sum())} {kind} {what}",
            file=sys.stderr,
        )
    max_abs = float(np.max(np.abs(residual)))
    return {"max_abs": max_abs, "within_tolerance": max_abs <= tolerance}


def cmd_verify(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    components, equations, total = build_case(cfg)
    os.makedirs(out_dir, exist_ok=True)
    entries: dict = {}
    residuals = {}
    for label, comp in components.items():
        eq = equations[label]
        q = comp.grid.points
        residual = residuals[label] = component_residual(comp, eq)
        # the equation's scale times max(|e_eff|, hbar^2/(2m L^2)), L the grid span
        c, span = eq.constants, q[-1] - q[0]
        scale_ref = eq.scale * max(abs(eq.e_eff), c.hbar * c.hbar / (2.0 * c.mass * span * span))
        if scale_ref == 0.0:
            raise QshjeError(
                f"{eq.name}: the residual scale max(|e_eff|, hbar^2/(2m L^2)) underflows to 0 "
                f"(e_eff = {eq.e_eff!r}, L = {float(span)!r}); rescale hbar, the mass or the grid"
            )
        entry = _check(out_dir, eq.name, eq.formula, {label: q}, residual, cfg.tolerance, fmt)
        peak = entry["max_abs"]
        with np.errstate(over="ignore"):
            rms = float(np.sqrt(np.mean(residual * residual)))
        if np.isinf(rms) and np.isfinite(peak):
            # the squares overflow: scale by the largest |residual| first
            rms = peak * float(np.sqrt(np.mean((residual / peak) ** 2)))
        entries[eq.name] = {
            **entry,
            "component": label,
            "rms": rms,
            "scale_ref": scale_ref,
            "normalized_max": peak / scale_ref,
        }

    if total is not None:
        name = f"assembled-{cfg.symmetry.value}"
        idx = probe_axes(total, cfg.probe_per_coordinate)
        points = probe_lattice(total, idx)
        with np.errstate(over="ignore", invalid="ignore"):  # inf and NaN fail the gate
            direct = assembled_residual(total, idx).ravel()
            gap = np.abs(direct - component_weighted_sum(total, residuals, idx).ravel())
        coords = dict(zip(cfg.symmetry.coordinate_labels, points.T))
        entries[name] = {
            **_check(out_dir, name, cfg.symmetry.formula, coords, direct, cfg.tolerance, fmt),
            "max_assembly_gap": float(np.max(gap)),
            "probe_points": len(points),
        }

    summary = {"symmetry": cfg.symmetry.value, "tolerance": cfg.tolerance, "equations": entries}
    summary["all_within_tolerance"] = all(e["within_tolerance"] for e in entries.values())
    write_summary(os.path.join(out_dir, "verify_summary.json"), summary)
    return 0 if summary["all_within_tolerance"] else 1


def cmd_limit_scan(cfg: RunConfig, out_dir: str, fmt: str, wrong_order: bool) -> int:
    row = cfg.symmetry
    if not cfg.has_full_set:
        raise ConfigError(
            f"limit-scan needs all three coordinate components configured for {row.value}"
        )
    if wrong_order and not row.wrong_order_axes:
        raise ConfigError(f"--wrong-order-demo is defined for spherical symmetry, not {row.value}")
    _, _, total = build_case(cfg)
    assert total is not None
    scan = classical_limit_scan(total, cfg.hbar_scan, cfg.probe_per_coordinate)
    gap = wrong_order_gap(total, cfg.probe_per_coordinate) if wrong_order else None

    os.makedirs(out_dir, exist_ok=True)
    _table(
        os.path.join(out_dir, "limit_scan"),
        "classical-limit-scan",
        "max over probe points of |(hbar^2/(4m)) * weighted Schwarzian sum + "
        "residual quantum terms| at fixed dS data",
        {"hbar": scan.hbar_values, "quantum_term_magnitude": scan.magnitudes},
        fmt,
    )
    ok = abs(scan.slope - 2.0) <= SLOPE_TOLERANCE
    payload: dict = {
        "slope": scan.slope,
        "intercept": scan.intercept,
        "expected_slope": 2.0,
        "slope_tolerance": SLOPE_TOLERANCE,
        "within_tolerance": ok,
        "probe_points": len(scan.points),
    }
    if wrong_order:
        payload["wrong_order"] = {
            "gap": gap,
            "note": (
                "zeroing the angular gradients before shrinking hbar leaves the "
                "angular kinetic energy behind; the classical equation is not "
                "recovered in that order"
            ),
        }
    write_summary(os.path.join(out_dir, "limit_scan_summary.json"), payload)
    return 0 if ok else 1


def cmd_spin_report(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    row = cfg.symmetry
    if row.spin is None:
        raise ConfigError(f"spin-report: {row.value} symmetry has no residual quantum terms")
    needed = row.spin_labels
    if any(lab not in cfg.components for lab in needed):
        raise ConfigError(f"spin-report needs grids for components {list(needed)}")
    grids = [cfg.components[lab].grid.points for lab in needed]
    axes = [q[probe_indices(q, cfg.probe_per_coordinate)] for q in grids]
    coords = np.ix_(*axes)
    terms = row.spin(coords, cfg.constants)
    os.makedirs(out_dir, exist_ok=True)
    columns = {
        name: col.ravel()
        for name, col in zip([*needed, *terms], np.broadcast_arrays(*coords, *terms.values()))
    }
    _table(
        os.path.join(out_dir, "spin_report"),
        f"residual-quantum-terms-{row.value}",
        row.spin_formula,
        columns,
        fmt,
    )
    coeff = columns["normalized_coefficient"]
    write_summary(
        os.path.join(out_dir, "spin_report_summary.json"),
        {
            "symmetry": cfg.symmetry.value,
            # the row furthest from the exact 1/4; NaN, if any, wins
            "normalized_coefficient": coeff[np.argmax(np.abs(coeff - 0.25))],
            "rows": coeff.size,
        },
    )
    return 0


# the flags each command takes besides --config, --out and --format
_FLAGS = {
    "solve": (),
    "verify": ("--parallel",),
    "limit-scan": ("--parallel", "--wrong-order-demo"),
    "spin-report": (),
}
_USAGE = (
    "usage: qshje {solve,verify,limit-scan,spin-report} --config PATH [--out DIR] "
    "[--format {csv,json}] [--parallel N] [--wrong-order-demo]"
)
_HELP = f"""{_USAGE}

Build reduced-action solutions of the stationary quantum Hamilton-Jacobi
equation and verify every component and assembled equation pointwise.

commands:
  solve                build pairs and reduced actions, write tables
  verify               evaluate every configured equation pointwise
  limit-scan           scale hbar down and fit the quantum-term slope
  spin-report          tabulate the residual quantum terms

options:
  --config PATH        YAML run configuration
  --out DIR            output directory (default: from config)
  --format {{csv,json}}  table format (default: from config)
  --parallel N         verify and limit-scan: accepted for compatibility; has no effect
  --wrong-order-demo   limit-scan, spherical only: also report the wrong-order limit gap
  -h, --help           show this help and exit
"""


def _parse(argv: list[str]) -> tuple[str, dict]:
    """(command, {flag: value}) of argv, a switch's value True; ValueError
    naming the first token that does not fit the command's grammar."""
    if not argv or argv[0] not in _FLAGS:
        raise ValueError(f"unknown command {argv[0]!r}" if argv else "missing command")
    command, tokens = argv[0], iter(argv[1:])
    flags = ("--config", "--out", "--format", *_FLAGS[command])
    args: dict = {}
    for token in tokens:
        flag, eq, value = token.partition("=")
        if flag not in flags or (eq and flag == "--wrong-order-demo"):
            raise ValueError(f"unrecognized argument {token!r}")
        if flag == "--wrong-order-demo":
            value = True
        elif not eq:
            value = next(tokens, "--")
            if value.startswith("--"):
                raise ValueError(f"argument {flag}: expected a value")
        if flag == "--format" and value not in ("csv", "json"):
            raise ValueError(f"argument --format: invalid choice {value!r} (choose csv or json)")
        if flag == "--parallel":
            try:
                int(value)
            except ValueError:
                raise ValueError(f"argument --parallel: invalid int value {value!r}") from None
        args[flag] = value
    if "--config" not in args:
        raise ValueError("the following argument is required: --config")
    return command, args


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if "-h" in argv or "--help" in argv:
        print(_HELP, end="")
        return 0
    try:
        command, args = _parse(argv)
    except ValueError as exc:
        print(f"{_USAGE}\nqshje: error: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = load_config(args["--config"])
        out_dir = args.get("--out", cfg.out_dir)
        fmt = args.get("--format", cfg.fmt)
        if command == "solve":
            return cmd_solve(cfg, out_dir, fmt)
        if command == "verify":
            return cmd_verify(cfg, out_dir, fmt)
        if command == "limit-scan":
            return cmd_limit_scan(cfg, out_dir, fmt, "--wrong-order-demo" in args)
        return cmd_spin_report(cfg, out_dir, fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QshjeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"config error: cannot write outputs to {out_dir!r}: {exc}", file=sys.stderr)
        return 2


def cold_entry() -> None:
    """Entry of a fresh process: `python -m qshje.cli` and the `qshje` script.

    Every output file is closed by the time `main()` returns, so the process
    flushes stdout and stderr and ends with `os._exit`, skipping the
    interpreter's teardown (module cleanup and the final collection, about
    7 ms per process). An exception that escapes `main()` still takes the
    normal path: traceback, exit 1. Neither touches gc.
    """
    rc = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(rc)


if __name__ == "__main__":
    cold_entry()
