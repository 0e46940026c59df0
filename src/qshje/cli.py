"""Command-line entry points: solve, verify, limit-scan, spin-report.

Exit codes: 0 success (and within tolerance), 1 tolerance breach, 2 config
error, 3 solver failure.
"""
from __future__ import annotations

import argparse
import gc
import os
import sys
from dataclasses import replace

import numpy as np

from .config import ComponentConfig, RunConfig, load_config
from .domain import Effective1DProblem
from .errors import ConfigError, QshjeError
from .ode_engine import SolutionPair, solve_pair
from .reduced_action import ReducedActionComponent, build_component
from .residuals import (
    SYMMETRY_TABLE,
    TotalReducedAction,
    assemble_total,
    assembled_residual,
    classical_limit_scan,
    component_residual,
    component_weighted_sum,
    probe_axes,
    probe_indices,
    probe_lattice,
)
from .tables import write_summary, write_table

# allowed |slope - 2| of the classical-limit scan, whose slope is 2 by construction
SLOPE_TOLERANCE = 0.05


def build_pair(cfg: RunConfig, comp: ComponentConfig, problem: Effective1DProblem) -> SolutionPair:
    if comp.source == "analytic":
        analytic = SYMMETRY_TABLE[cfg.symmetry].analytic[comp.label]
        return analytic(cfg.quantum_numbers, comp.grid, cfg.constants)
    if comp.solve_energy is not None:
        problem = replace(problem, e_eff=comp.solve_energy)
    return solve_pair(problem, comp.grid, substeps=comp.substeps)


def build_case(cfg: RunConfig) -> tuple[dict, dict, TotalReducedAction | None]:
    """(components, equations, total) of a run: the built components and their
    equations keyed by label, in coordinate-label order, and the assembled
    equation when all coordinates are configured, else None."""
    components: dict[str, ReducedActionComponent] = {}
    equations: dict[str, Effective1DProblem] = {}
    constructors = SYMMETRY_TABLE[cfg.symmetry].equations
    for label in cfg.symmetry.coordinate_labels:
        if label not in cfg.components:
            continue
        comp_cfg = cfg.components[label]
        eq = constructors[label](cfg, cfg.quantum_numbers, cfg.constants)
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
    lengths = {name: len(col) for name, col in columns.items()}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"table {path}: columns differ in length {lengths}")
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
    out_dir: str, name: str, formula: str, coords: dict, values: dict, tolerance: float, fmt: str
) -> dict:
    """Write one residual table and return its verdict.

    The first of `values` is the residual. Its max |residual| propagates NaN,
    so a NaN residual fails the tolerance; the first NaN is named on stderr.
    """
    _table(os.path.join(out_dir, f"residual_{name}"), name, formula, coords | values, fmt)
    residual = next(iter(values.values()))
    nan = np.isnan(residual)
    if nan.any():
        at = [repr(float(col[np.argmax(nan)])) for col in coords.values()]
        if len(coords) == 1:
            where, what = f"{next(iter(coords))} = {at[0]}", "samples"
        else:
            where, what = f"({', '.join(coords)}) = ({', '.join(at)})", "probe points"
        print(
            f"verify: {name} residual is NaN at {where}, the first of "
            f"{int(nan.sum())} NaN {what}",
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
        values = {"residual": residual, "normalized_residual": residual / scale_ref}
        entry = _check(out_dir, eq.name, eq.formula, {label: q}, values, cfg.tolerance, fmt)
        entries[eq.name] = {
            **entry,
            "component": label,
            "rms": float(np.sqrt(np.mean(residual * residual))),
            "scale_ref": scale_ref,
            "normalized_max": entry["max_abs"] / scale_ref,
        }

    if total is not None:
        name = f"assembled-{cfg.symmetry.value}"
        idx = probe_axes(total, cfg.probe_per_coordinate)
        points = probe_lattice(total, idx)
        direct = assembled_residual(total, idx, mode="quantum").ravel()
        summed = component_weighted_sum(total, residuals, idx).ravel()
        gap = np.abs(direct - summed)
        coords = dict(zip(cfg.symmetry.coordinate_labels, points.T))
        values = {"residual": direct, "component_weighted_sum": summed, "assembly_gap": gap}
        formula = SYMMETRY_TABLE[cfg.symmetry].formula
        entries[name] = {
            **_check(out_dir, name, formula, coords, values, cfg.tolerance, fmt),
            "max_assembly_gap": float(np.max(gap)),
            "probe_points": len(points),
        }

    summary = {"symmetry": cfg.symmetry.value, "tolerance": cfg.tolerance, "equations": entries}
    summary["all_within_tolerance"] = all(e["within_tolerance"] for e in entries.values())
    write_summary(os.path.join(out_dir, "verify_summary.json"), summary)
    return 0 if summary["all_within_tolerance"] else 1


def cmd_limit_scan(cfg: RunConfig, out_dir: str, fmt: str, wrong_order: bool) -> int:
    if not cfg.has_full_set:
        raise ConfigError(
            "limit-scan needs all three coordinate components configured "
            f"for {cfg.symmetry.value}"
        )
    _, _, total = build_case(cfg)
    assert total is not None
    scan = classical_limit_scan(
        total, cfg.hbar_scan, cfg.probe_per_coordinate, wrong_order=wrong_order
    )

    os.makedirs(out_dir, exist_ok=True)
    columns = {"hbar": scan.hbar_values, "quantum_term_magnitude": scan.magnitudes}
    if scan.wrong_order_gap is not None:
        columns["wrong_order_gap"] = [scan.wrong_order_gap] * len(scan.hbar_values)
    _table(
        os.path.join(out_dir, "limit_scan"),
        "classical-limit-scan",
        "max over probe points of |(hbar^2/(4m)) * weighted Schwarzian sum + "
        "residual quantum terms| at fixed dS data",
        columns,
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
    if scan.wrong_order_gap is not None:
        payload["wrong_order"] = {
            "gap": scan.wrong_order_gap,
            "note": (
                "zeroing the angular gradients before shrinking hbar leaves the "
                "angular kinetic energy behind; the classical equation is not "
                "recovered in that order"
            ),
        }
    write_summary(os.path.join(out_dir, "limit_scan_summary.json"), payload)
    return 0 if ok else 1


def cmd_spin_report(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    row = SYMMETRY_TABLE[cfg.symmetry]
    if row.spin is None:
        raise ConfigError(
            f"spin-report: {cfg.symmetry.value} symmetry has no residual quantum terms"
        )
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
        f"residual-quantum-terms-{cfg.symmetry.value}",
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


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qshje",
        description=(
            "Build reduced-action solutions of the stationary quantum "
            "Hamilton-Jacobi equation and verify every component and "
            "assembled equation pointwise."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", required=True, help="YAML run configuration")
        p.add_argument("--out", default=None, help="output directory (default: from config)")
        p.add_argument(
            "--format", choices=("csv", "json"), default=None,
            help="table format (default: from config)",
        )

    p_solve = sub.add_parser("solve", help="build pairs and reduced actions, write tables")
    common(p_solve)

    p_verify = sub.add_parser("verify", help="evaluate every configured equation pointwise")
    common(p_verify)
    p_verify.add_argument("--parallel", type=int, default=1, metavar="N",
                          help="accepted for compatibility; has no effect")

    p_scan = sub.add_parser("limit-scan", help="scale hbar down and fit the quantum-term slope")
    common(p_scan)
    p_scan.add_argument("--parallel", type=int, default=1, metavar="N",
                        help="accepted for compatibility; has no effect")
    p_scan.add_argument("--wrong-order-demo", action="store_true",
                        help="also report the wrong-order limit gap")

    p_spin = sub.add_parser("spin-report", help="tabulate the residual quantum terms")
    common(p_spin)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _make_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_dir = args.out if args.out is not None else cfg.out_dir
        fmt = args.format if args.format is not None else cfg.fmt
        if args.command == "solve":
            return cmd_solve(cfg, out_dir, fmt)
        if args.command == "verify":
            return cmd_verify(cfg, out_dir, fmt)
        if args.command == "limit-scan":
            return cmd_limit_scan(cfg, out_dir, fmt, args.wrong_order_demo)
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

    Every object alive after the imports lives until exit, so `gc.freeze()`
    moves them into the permanent generation, which no collection examines;
    the full collection at interpreter exit then skips them (about 10 ms per
    process). GC stays enabled for the run's own cycles. `main()` leaves gc
    alone, so in-process callers keep their collector as it was.
    """
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    cold_entry()
