"""Command-line entry points: solve, verify, limit-scan, spin-report.

Exit codes: 0 success (and within tolerance), 1 tolerance breach, 2 config
error, 3 solver failure.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .config import ComponentConfig, RunConfig, load_config, positive_number
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
    component_weighted_sum,
    make_report,
    probe_axes,
    probe_axis_values,
    probe_lattice,
)
from .tables import write_summary, write_table


def build_pair(cfg: RunConfig, comp: ComponentConfig, problem: Effective1DProblem) -> SolutionPair:
    grid = comp.grid.build()
    if comp.source == "analytic":
        if comp.solve_energy is not None:
            raise ConfigError(
                f"components.{comp.label}.solve_energy: not applicable to an analytic pair"
            )
        analytic = SYMMETRY_TABLE[cfg.symmetry].analytic.get(comp.label)
        if analytic is None:
            raise ConfigError(
                f"components.{comp.label}.source: no analytic catalog for this coordinate; "
                "use source: numeric"
            )
        return analytic(cfg.quantum_numbers, grid, cfg.constants)
    if comp.solve_energy is not None:
        problem = replace(problem, e_eff=comp.solve_energy)
    return solve_pair(problem, grid, seeds=comp.seeds, substeps=comp.substeps)


@dataclass
class CaseBundle:
    """Everything a command needs: built components, their equations, and the
    assembled equation when all coordinates are configured."""

    config: RunConfig
    components: dict[str, ReducedActionComponent]
    equations: dict[str, Effective1DProblem]
    total: TotalReducedAction | None

    @property
    def labels(self) -> list[str]:
        return [lab for lab in self.config.symmetry.coordinate_labels if lab in self.components]


def build_case(cfg: RunConfig) -> CaseBundle:
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
    return CaseBundle(cfg, components, equations, total)


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
        "grid": {"min": cfg.grid.lo, "max": cfg.grid.hi, "count": cfg.grid.count},
    }


def cmd_solve(cfg: RunConfig, out_dir: str, fmt: str) -> int:
    case = build_case(cfg)
    os.makedirs(out_dir, exist_ok=True)
    meta: dict = {"symmetry": cfg.symmetry.value, "components": {}}
    for label in case.labels:
        comp = case.components[label]
        eq = case.equations[label]
        w = comp.pair.wronskian_samples()
        columns = (
            comp.grid.points, comp.pair.y1, comp.pair.y2, w,
            comp.s, comp.ds, comp.amplitude, comp.schwarzian,
        )
        # Python floats format faster than numpy scalars, to the same bytes
        rows = zip(*(col.tolist() for col in columns))
        write_table(
            os.path.join(out_dir, f"component_{label}"),
            eq.name,
            eq.formula,
            [label, "y1", "y2", "wronskian", "action", "conjugate_momentum",
             "amplitude", "schwarzian"],
            rows,
            fmt=fmt,
        )
        meta["components"][label] = _component_meta(comp, cfg.components[label])
    write_summary(os.path.join(out_dir, "solve_summary.json"), meta)
    return 0


def cmd_verify(cfg: RunConfig, out_dir: str, fmt: str, tolerance: float) -> int:
    case = build_case(cfg)
    os.makedirs(out_dir, exist_ok=True)
    summary: dict = {
        "symmetry": cfg.symmetry.value,
        "tolerance": tolerance,
        "equations": {},
    }
    all_pass = True
    residuals = {}
    for label in case.labels:
        comp = case.components[label]
        eq = case.equations[label]
        report = make_report(eq, comp)
        residuals[label] = report.residual
        rows = zip(
            report.coords.tolist(),
            report.residual.tolist(),
            (report.residual / report.scale_ref).tolist(),
        )
        write_table(
            os.path.join(out_dir, f"residual_{eq.name}"),
            eq.name,
            eq.formula,
            [label, "residual", "normalized_residual"],
            rows,
            fmt=fmt,
        )
        ok = report.max_abs <= tolerance
        nan = np.isnan(report.residual)
        if nan.any():
            print(
                f"verify: {eq.name} residual is NaN at {label} = "
                f"{float(report.coords[np.argmax(nan)])!r}, the first of "
                f"{int(nan.sum())} NaN samples",
                file=sys.stderr,
            )
        all_pass = all_pass and ok
        summary["equations"][eq.name] = {
            "component": label,
            "max_abs": report.max_abs,
            "rms": report.rms,
            "scale_ref": report.scale_ref,
            "normalized_max": report.normalized_max,
            "within_tolerance": ok,
        }

    if case.total is not None:
        total = case.total
        name = f"assembled-{cfg.symmetry.value}"
        axes = probe_axes(total, cfg.probe_per_coordinate)
        points = probe_lattice(total, cfg.probe_per_coordinate)
        direct = assembled_residual(total, axes, mode="quantum").ravel()
        summed = component_weighted_sum(total, residuals, axes).ravel()
        gap = np.abs(direct - summed)
        rows = (
            (*p, d, s, g)
            for p, d, s, g in zip(points, direct.tolist(), summed.tolist(), gap.tolist())
        )
        # np.max propagates NaN, so a NaN residual fails the tolerance check
        max_assembled = float(np.max(np.abs(direct)))
        max_gap = float(np.max(gap))
        labels = list(cfg.symmetry.coordinate_labels)
        write_table(
            os.path.join(out_dir, f"residual_{name}"),
            name,
            SYMMETRY_TABLE[cfg.symmetry].formula,
            labels + ["residual", "component_weighted_sum", "assembly_gap"],
            rows,
            fmt=fmt,
        )
        nan = np.isnan(direct)
        if nan.any():
            print(
                f"verify: {name} residual is NaN at ({', '.join(labels)}) = "
                f"({', '.join(map(repr, points[np.argmax(nan)]))}), the first of "
                f"{int(nan.sum())} NaN probe points",
                file=sys.stderr,
            )
        ok = max_assembled <= tolerance
        all_pass = all_pass and ok
        summary["equations"][name] = {
            "max_abs": max_assembled,
            "max_assembly_gap": max_gap,
            "probe_points": len(points),
            "within_tolerance": ok,
        }

    summary["all_within_tolerance"] = all_pass
    write_summary(os.path.join(out_dir, "verify_summary.json"), summary)
    return 0 if all_pass else 1


def cmd_limit_scan(
    cfg: RunConfig, out_dir: str, fmt: str, slope_tol: float, wrong_order: bool
) -> int:
    if not cfg.has_full_set:
        raise ConfigError(
            "limit-scan needs all three coordinate components configured "
            f"for {cfg.symmetry.value}"
        )
    case = build_case(cfg)
    assert case.total is not None
    scan = classical_limit_scan(
        case.total, cfg.hbar_scan, cfg.probe_per_coordinate, wrong_order=wrong_order
    )

    os.makedirs(out_dir, exist_ok=True)
    columns = ["hbar", "quantum_term_magnitude"]
    rows: list[tuple] = list(zip(scan.hbar_values, scan.magnitudes))
    if scan.wrong_order_gaps is not None:
        columns.append("wrong_order_gap")
        rows = [(*row, g) for row, g in zip(rows, scan.wrong_order_gaps)]
    write_table(
        os.path.join(out_dir, "limit_scan"),
        "classical-limit-scan",
        "max over probe points of |(hbar^2/(4m)) * weighted Schwarzian sum + "
        "residual quantum terms| at fixed dS data",
        columns,
        rows,
        fmt=fmt,
    )
    ok = abs(scan.slope - 2.0) <= slope_tol
    payload: dict = {
        "slope": scan.slope,
        "intercept": scan.intercept,
        "expected_slope": 2.0,
        "slope_tolerance": slope_tol,
        "within_tolerance": ok,
        "probe_points": len(scan.points),
    }
    if scan.wrong_order_gaps is not None:
        payload["wrong_order"] = {
            "gap": max(scan.wrong_order_gaps),
            "slope": scan.wrong_order_slope,
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
    axes = [
        probe_axis_values(cfg.components[lab].grid.build().points, cfg.probe_per_coordinate)
        for lab in needed
    ]
    os.makedirs(out_dir, exist_ok=True)
    coords = np.ix_(*axes)
    t = row.spin(coords, cfg.constants)
    terms = {name: v for name, v in vars(t).items() if v is not None}
    columns = [col.ravel() for col in np.broadcast_arrays(*coords, *terms.values())]
    write_table(
        os.path.join(out_dir, "spin_report"),
        f"residual-quantum-terms-{cfg.symmetry.value}",
        row.spin_formula,
        [*needed, *terms],
        zip(*(col.tolist() for col in columns)),
        fmt=fmt,
    )
    coeff = columns[-1]
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
    p_verify.add_argument("--tolerance", type=float, default=None,
                          help="max-abs residual tolerance (default: from config)")
    p_verify.add_argument("--parallel", type=int, default=1, metavar="N",
                          help="accepted for compatibility; has no effect")

    p_scan = sub.add_parser("limit-scan", help="scale hbar down and fit the quantum-term slope")
    common(p_scan)
    p_scan.add_argument("--tolerance", type=float, default=0.05,
                        help="allowed |slope - 2| (default 0.05)")
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
        out_dir = args.out if args.out is not None else cfg.output.directory
        fmt = args.format if args.format is not None else cfg.output.fmt
        if args.command == "solve":
            return cmd_solve(cfg, out_dir, fmt)
        if args.command == "verify":
            tol = cfg.tolerance
            if args.tolerance is not None:
                tol = positive_number(args.tolerance, "--tolerance")
            return cmd_verify(cfg, out_dir, fmt, tol)
        if args.command == "limit-scan":
            tol = positive_number(args.tolerance, "--tolerance")
            return cmd_limit_scan(cfg, out_dir, fmt, tol, args.wrong_order_demo)
        return cmd_spin_report(cfg, out_dir, fmt)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QshjeError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
