"""Tests of the benchmark itself: inputs, checks, tracer and metric names.

    PYTHONPATH=src python3 -m pytest bench -q
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, _covered, analyse  # noqa: E402

import qshje  # noqa: E402
from qshje import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def texts(workload: str, seed: int) -> list[str]:
    return [job.config_text() for cycle in workloads.input_sets(workload, seed) for job in cycle]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert texts(workload, 7) == texts(workload, 7)
    assert texts(workload, 7) != texts(workload, 8)
    d7 = workloads.digest(workloads.input_sets(workload, 7))
    assert d7 == workloads.digest(workloads.input_sets(workload, 7))
    assert d7 != workloads.digest(workloads.input_sets(workload, 8))


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_seed_changes_physics_not_grid_sizes(workload):
    def sizes(seed):
        return [
            (job.name, job.flags, sorted((lab, c["grid"]["count"])
                                         for lab, c in job.config["components"].items()))
            for cycle in workloads.input_sets(workload, seed) for job in cycle
            if job.expect_rc != 2
        ]

    assert sizes(1) == sizes(2)


def run_inprocess(job: workloads.Job, tmp_path: Path) -> tuple[int, str, str]:
    tmp_path.mkdir(parents=True, exist_ok=True)
    cfg = tmp_path / "in.yaml"
    cfg.write_text(job.config_text())
    out = tmp_path / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(job.argv(str(cfg), str(out)))
    return rc, str(out), err.getvalue()


def small_jobs() -> dict[str, workloads.Job]:
    """Cheap versions of every kind of job the workloads run."""
    rng = random.Random("bench-tests")
    small_sph = workloads.hydrogen(rng, n_r=201, n_theta=201, n_phi=201,
                                   probe_points_per_coordinate=3)
    wrong, offset = workloads.wrong_energy(rng)
    wrong["components"]["r"]["grid"]["count"] = 801
    jobs = {job.name: job for job in workloads.cold_analytic(rng)}
    jobs.update({
        "verify-small": workloads.Job("verify-small", "verify", small_sph,
                                      expect={"probe_points_min": 27}),
        "solve-small": workloads.Job("solve-small", "solve", small_sph),
        "scan-small": workloads.Job("scan-small", "limit-scan", small_sph,
                                    ("--wrong-order-demo",), expect={"hbar_values": 6}),
        "verify-wrong-energy": workloads.Job("verify-wrong-energy", "verify", wrong,
                                             expect_rc=1, expect={"offset": offset}),
    })
    return jobs


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """Each small job run once: name -> (job, rc, output dir, stderr)."""
    base = tmp_path_factory.mktemp("jobs")
    return {
        name: (job, *run_inprocess(job, base / name)) for name, job in small_jobs().items()
    }


def test_every_small_job_passes_its_checks(finished):
    for name, (job, rc, out, err) in finished.items():
        assert checks.check_job(job, rc, out, err) == [], name


def doctored(finished, name, tmp_path):
    job, rc, out, err = finished[name]
    copy = tmp_path / name
    if Path(out).exists():
        shutil.copytree(out, copy)
    return job, rc, str(copy), err


def edit_json(path: Path, **changes):
    payload = json.loads(path.read_text())
    for dotted, value in changes.items():
        node = payload
        *parents, leaf = dotted.split(".")
        for key in parents:
            node = node[key]
        node[leaf] = value
    path.write_text(json.dumps(payload))


def test_wrong_energy_exit_0_is_a_failure(finished, tmp_path):
    job, _, out, err = doctored(finished, "verify-wrong-energy", tmp_path)
    assert checks.check_job(job, 0, out, err)


def test_wrong_energy_residual_off_the_offset_is_a_failure(finished, tmp_path):
    job, rc, out, err = doctored(finished, "verify-wrong-energy", tmp_path)
    edit_json(Path(out) / "verify_summary.json",
              **{"equations.radial-spherical.max_abs": job.expect["offset"] * 1.01})
    assert checks.check_job(job, rc, out, err)


def test_flags_disagreeing_with_exit_code_are_a_failure(finished, tmp_path):
    job, rc, out, err = doctored(finished, "verify-small", tmp_path)
    assert checks.check_job(job, 1, out, err)
    edit_json(Path(out) / "verify_summary.json", **{"equations.radial-spherical.within_tolerance": False})
    assert checks.check_job(job, rc, out, err)


def test_scan_slope_off_two_is_a_failure(finished, tmp_path):
    job, rc, out, err = doctored(finished, "scan-small", tmp_path)
    edit_json(Path(out) / "limit_scan_summary.json", slope=2.1)
    assert checks.check_job(job, rc, out, err)


def test_scan_without_wrong_order_gap_is_a_failure(finished, tmp_path):
    job, rc, out, err = doctored(finished, "scan-small", tmp_path)
    edit_json(Path(out) / "limit_scan_summary.json", **{"wrong_order.gap": 0.0})
    assert checks.check_job(job, rc, out, err)


def test_wronskian_drift_is_a_failure(finished, tmp_path):
    job, rc, out, err = doctored(finished, "solve-small", tmp_path)
    edit_json(Path(out) / "solve_summary.json", **{"components.r.wronskian_drift": 2e-6})
    assert checks.check_job(job, rc, out, err)


def test_spin_coefficient_off_a_quarter_is_a_failure(finished, tmp_path):
    job, rc, out, err = doctored(finished, "spin-cylindrical", tmp_path)
    table = Path(out) / "spin_report.csv"
    lines = table.read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0] + ",0.25000000000000006"
    table.write_text("\n".join(lines) + "\n")
    assert checks.check_job(job, rc, out, err)


def test_refused_config_accepted_is_a_failure(finished, tmp_path):
    job, rc, out, err = doctored(finished, "invalid-a", tmp_path)
    assert rc == 2
    assert checks.check_job(job, 0, out, err)
    assert checks.check_job(job, 2, out, "")


def test_truncated_table_is_a_failure(finished, tmp_path):
    job, rc, out, err = doctored(finished, "verify-small", tmp_path)
    table = Path(out) / "residual_assembled-spherical.csv"
    table.write_text("\n".join(table.read_text().splitlines()[:-1]) + "\n")
    assert checks.check_job(job, rc, out, err)


def test_tracer_rebinds_imported_names_and_restores_them(tmp_path):
    original = cli.solve_pair
    tracer = Tracer(qshje)
    tracer.install()
    try:
        assert cli.solve_pair is not original
        assert qshje.ode_engine.solve_pair is cli.solve_pair
        assert qshje.solve_pair is cli.solve_pair
        tracer.job = 0
        job = small_jobs()["verify-small"]
        rc, out, err = run_inprocess(job, tmp_path)
    finally:
        tracer.uninstall()
    assert cli.solve_pair is original and qshje.ode_engine.solve_pair is original
    assert rc == 0
    stats = analyse(tracer.spans(), tracer.names)
    assert stats["calls"]["cli.main"] == 1
    assert stats["calls"]["ode_engine.solve_pair"] == 2
    assert tracer.counts[(0, "rk4_steps")] == 2 * 200 * 4
    assert tracer.counts[(0, "probe_points")] == 27
    wall = stats["inclusive"]["cli.main"]
    assert 0.5 * wall < sum(stats["layer_self"].values()) <= wall * (1 + 1e-9)


def test_covered_merges_overlapping_intervals_per_group():
    groups = np.array([0, 0, 0, 1, 1], dtype=float)
    start = np.array([0.0, 1.0, 5.0, 0.0, 2.0])
    end = np.array([2.0, 3.0, 6.0, 1.0, 3.0])
    np.testing.assert_allclose(_covered(groups, start, end, 3), [4.0, 2.0, 0.0])


def test_tail_keeps_ten_samples_above():
    pct, value = run.tail([float(i) for i in range(1, 26)])
    assert value == 15.0 and pct == 60.0
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (50.0, 2.5)


def test_bracketing_reference_follows_the_host():
    # The host halves its speed after the second job: jobs and loops slow alike.
    records = [{"ref_s": [1.0, 1.0, 1.0]}, {"ref_s": [1.0, 1.0, 1.0]},
               {"ref_s": [2.0, 2.0, 2.0]}, {"ref_s": [2.0, 2.0, 2.0]}]
    assert run.bracketing_reference(records) == [1.0, 1.5, 2.0]


def test_metric_names_and_units_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER
    assert any(m["name"] == "setup_s" and m["better"] == "lower" for m in SPEC["end_to_end"])


def test_workloads_carry_why_and_layers():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    layers = {"cli", "config", "domain", "ode_engine", "reduced_action", "residuals",
              "tables", "import"}
    for w in SPEC["workloads"]:
        assert "\n" not in w["why"] and len(w["why"]) <= 200
        assert "stresses" in w["why"]
        assert any(layer in w["why"] for layer in layers), w["name"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    res = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cold-analytic", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert res.returncode != 0
    assert res.stdout == ""


def test_cold_kills_a_job_past_the_timeout(monkeypatch):
    monkeypatch.setattr(run, "JOB_TIMEOUT_S", 0.5)
    with pytest.raises(run.BenchError):
        run.cold(["-c", "import time; time.sleep(30)"])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_last_line_names_every_metric_of_its_mode(trace):
    res = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "cold-analytic", "--seed", "3",
         "--seconds", "0.1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert res.returncode == 0, res.stderr
    result = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in expected:
        assert f" {name} " in res.stdout
