"""Per-job correctness checks.

Every job is judged on its exit code and on the files it wrote. A check
returns a list of problems; an empty list is a pass. Negative jobs (a
wrong-energy pair that must exit 1, invalid configs that must exit 2) are
checked as strictly as positive ones, so silencing a check in the program
shows up as failures here.
"""
from __future__ import annotations

import hashlib
import json
import os

from workloads import Job

WRONSKIAN_DRIFT_MAX = 1e-6
SLOPE_TOL = 0.05
OFFSET_TOL = 1e-6


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def read_table(base: str) -> tuple[list[str], list[list]]:
    """Columns and rows of a table written as CSV or JSON (extension chosen here)."""
    if os.path.exists(base + ".json"):
        payload = _load(base + ".json")
        return payload["columns"], payload["rows"]
    with open(base + ".csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("# equation: "):
        raise ValueError(f"{base}.csv: missing equation header")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def _check_verify(job: Job, rc: int, out: str) -> list[str]:
    summary = _load(os.path.join(out, "verify_summary.json"))
    problems = []
    flags = [eq["within_tolerance"] for eq in summary["equations"].values()]
    if not flags:
        problems.append("verify summary lists no equations")
    if summary["all_within_tolerance"] != all(flags):
        problems.append("all_within_tolerance disagrees with the per-equation flags")
    if (rc == 0) != all(flags):
        problems.append(f"exit code {rc} disagrees with within_tolerance flags {flags}")
    for name, eq in summary["equations"].items():
        if eq["within_tolerance"] != (eq["max_abs"] <= summary["tolerance"]):
            problems.append(f"{name}: within_tolerance disagrees with max_abs")
        _, rows = read_table(os.path.join(out, f"residual_{name}"))
        expected_rows = eq.get("probe_points")
        if expected_rows is not None:
            if expected_rows < job.expect.get("probe_points_min", 1):
                problems.append(f"{name}: only {expected_rows} probe points")
            if len(rows) != expected_rows:
                problems.append(f"{name}: {len(rows)} table rows for {expected_rows} probes")
        elif len(rows) != job.config["components"][eq["component"]]["grid"]["count"]:
            problems.append(f"{name}: {len(rows)} rows for a grid of another size")
    if "offset" in job.expect:
        radial = summary["equations"].get("radial-spherical")
        if radial is None or abs(radial["max_abs"] - job.expect["offset"]) > OFFSET_TOL:
            problems.append(
                f"wrong-energy residual {radial and radial['max_abs']} is not at the "
                f"energy offset {job.expect['offset']}"
            )
    elif "probe_points_min" in job.expect and not any(
        name.startswith("assembled-") for name in summary["equations"]
    ):
        problems.append("assembled equation missing from a full-set verify")
    return problems


def _check_solve(job: Job, rc: int, out: str) -> list[str]:
    meta = _load(os.path.join(out, "solve_summary.json"))
    problems = []
    if set(meta["components"]) != set(job.config["components"]):
        problems.append(f"solved components {sorted(meta['components'])}")
    for label, comp in meta["components"].items():
        if not comp["wronskian_drift"] <= WRONSKIAN_DRIFT_MAX:
            problems.append(f"{label}: Wronskian drift {comp['wronskian_drift']}")
        _, rows = read_table(os.path.join(out, f"component_{label}"))
        if len(rows) != job.config["components"][label]["grid"]["count"]:
            problems.append(f"{label}: {len(rows)} rows in the component table")
    return problems


def _check_scan(job: Job, rc: int, out: str) -> list[str]:
    summary = _load(os.path.join(out, "limit_scan_summary.json"))
    problems = []
    slope_ok = abs(summary["slope"] - 2.0) <= SLOPE_TOL
    if not slope_ok:
        problems.append(f"slope {summary['slope']} is not 2 within {SLOPE_TOL}")
    if summary["within_tolerance"] != slope_ok or (rc == 0) != slope_ok:
        problems.append("within_tolerance or exit code disagrees with the slope")
    if summary["probe_points"] < job.expect.get("probe_points_min", 1):
        problems.append(f"only {summary['probe_points']} probe points")
    if "--wrong-order-demo" in job.flags:
        gap = summary.get("wrong_order", {}).get("gap")
        if gap is None or not gap > 0.0:
            problems.append(f"wrong-order gap {gap} is not positive")
    _, rows = read_table(os.path.join(out, "limit_scan"))
    if len(rows) != job.expect.get("hbar_values", len(rows)):
        problems.append(f"{len(rows)} scan rows")
    return problems


def _check_spin(job: Job, rc: int, out: str) -> list[str]:
    summary = _load(os.path.join(out, "spin_report_summary.json"))
    columns, rows = read_table(os.path.join(out, "spin_report"))
    col = columns.index("normalized_coefficient")
    coeffs = [float(row[col]) for row in rows]
    problems = []
    if not coeffs or len(coeffs) != summary["rows"]:
        problems.append(f"{len(coeffs)} spin rows for a summary of {summary['rows']}")
    bad = [c for c in coeffs if c != 0.25]
    if bad or summary["normalized_coefficient"] != 0.25:
        problems.append(f"{len(bad)} spin coefficients differ from 0.25")
    return problems


_BY_COMMAND = {
    "verify": _check_verify,
    "solve": _check_solve,
    "limit-scan": _check_scan,
    "spin-report": _check_spin,
}


def check_job(job: Job, rc: int, out: str, stderr: str) -> list[str]:
    """Problems with one finished job; empty when it behaved as expected."""
    if rc != job.expect_rc:
        return [f"exit code {rc}, expected {job.expect_rc}: {stderr.strip()[-300:]}"]
    if "Traceback" in stderr:
        return ["traceback on stderr"]
    if job.expect_rc == 2:
        problems = []
        if not stderr.startswith("config error: "):
            problems.append("refused config without a config error message")
        if os.path.exists(out):
            problems.append("refused config still wrote outputs")
        return problems
    try:
        return _BY_COMMAND[job.command](job, rc, out)
    except (OSError, KeyError, ValueError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def output_hashes(out: str) -> dict[str, str]:
    """sha256 of every file a job wrote, by path relative to its output directory."""
    hashes = {}
    if not os.path.isdir(out):
        return hashes
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
    return hashes
