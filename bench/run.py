#!/usr/bin/env python3
"""Benchmark of `qshje` as its users run it: cold CLI jobs, one at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

With `--trace 0` the run times cold `python -m qshje.cli ...` processes in a
closed loop with one client (the next job starts when the previous one has
exited) and reports the end-to-end metrics. With `--trace 1` it runs the same
jobs in-process through `qshje.cli.main`, alternating untraced passes with
passes traced by `tracer.Tracer`, and reports the per-layer metrics.
`--workload all` runs every workload in both modes and prints every metric.

Every job's exit code and output files are checked (see `checks.py`). The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it name each metric
with its unit. The full run record, with versions, input and output digests
and per-job timings, is written to bench/_work/<workload>/run_record_trace<0|1>.json,
and a traced run leaves its spans beside it in trace_spans.f64 / .json.

Job times are reported in units of `reference_s()`, a fixed pure-Python loop
timed in this process between jobs; each job is divided by the median of the
loops timed just before and just after it. On a shared 2-vCPU host the speed
of the machine moved by up to a third within minutes, which moves the jobs'
wall and CPU times and the loop's alike, so their ratio measures the program
and not the host. The times in seconds are printed and recorded beside them;
setup_s stays in seconds.

Runs are made of whole cycles of a workload's jobs, so every run measures
the same mix of jobs. The first cycle always runs; another one starts only
when it is expected to end within `--seconds`, counted from the start of the
warm-up and including the set-up samples taken between jobs.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"

SETUP_SHARE = 0.1
SETUP_MIN = 5
IMPORT_REPEATS = 3
REF_LOOP = 400_000
REF_REPEATS = 3
JOB_TIMEOUT_S = 120.0
# Traced passes of a fast workload repeat identical counts; past this many
# they add files, not information.
MAX_TRACED_PASSES = 25

END_TO_END = {
    "setup_s": "s",
    "job_p50_ref": "ref",
    "job_tail_ref": "ref",
    "jobs_per_ref": "1/ref",
    "cpu_per_job_ref": "ref",
    "peak_rss_mb": "MB",
}
LAYER_SELF = ("cli", "config", "domain", "ode_engine", "reduced_action",
              "residuals", "schwarzian", "tables")
# Per job means over a traced pass unless named otherwise.
PER_LAYER = {
    "import.floor_s": "s",
    "import.package_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYER_SELF},
    "ode_engine.solve_pair_calls": "count",
    "ode_engine.rk4_steps": "count",
    "ode_engine.steps_per_s": "1/s",
    "domain.curvature_calls": "count",
    "residuals.probe_points": "count",
    "residuals.probe_evals": "count",
    "residuals.us_per_probe_eval": "us",
    "reduced_action.snap_point_calls": "count",
    "tables.rows": "count",
    "tables.bytes": "B",
    "tables.mb_per_s": "MB/s",
    "cli.main_s": "s",
    "inproc.job_s_p50": "s",
    "trace.spans_per_job": "count",
    "trace.overhead_frac": "frac",
}
LABELS = {"ode_engine.rk4_steps": "computed: (n-1)*substeps per solved pair"}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def cold(args: list[str], stderr_path: Path | None = None) -> tuple[float, float, int, int]:
    """Wall time, CPU time, peak RSS in KiB and exit code of one cold interpreter.

    The parent blocks in wait4 (Popen.wait with a timeout polls with sleeps
    of up to 50 ms, which would round every wall time); a timer kills a
    child that outlives JOB_TIMEOUT_S.
    """
    err = open(stderr_path, "wb") if stderr_path else subprocess.DEVNULL
    try:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=ROOT, env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
        )
        timed_out = threading.Event()

        def kill() -> None:
            timed_out.set()
            proc.kill()

        watchdog = threading.Timer(JOB_TIMEOUT_S, kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    finally:
        if stderr_path:
            err.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if timed_out.is_set():
        raise BenchError(f"job did not finish within {JOB_TIMEOUT_S} s: {args}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, proc.returncode


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples above it, and its value.

    A tail is never taken below the median: with twenty samples or fewer no
    percentile above the median has ten samples beyond it, and the median
    is reported as percentile 50.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 20:
        return 50.0, statistics.median(ordered)
    return 100.0 * (n - 10) / n, ordered[n - 11]


def reference_s() -> float:
    """Wall time of a fixed pure-Python loop: one unit of the host's current speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REF_LOOP):
        acc += i * i
    return time.perf_counter() - t0


def reference() -> list[float]:
    return [reference_s() for _ in range(REF_REPEATS)]


def bracketing_reference(records: list[dict]) -> list[float]:
    """For each job after the warm-up (record 0), the median of the reference
    loops timed just before it (after the previous job) and just after it."""
    return [statistics.median(before["ref_s"] + rec["ref_s"])
            for before, rec in zip(records, records[1:])]


def another_cycle(elapsed: float, cycle_times: list[float], seconds: float) -> bool:
    """Whether one more cycle is expected to end within the measuring time."""
    return elapsed + statistics.median(cycle_times) <= seconds


# -- inputs and records ---------------------------------------------------------


class Run:
    """Generated inputs, job records and checks of one benchmark run."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.sets = workloads.input_sets(workload, seed)
        self.inputs = WORK / workload / "inputs"
        self.outputs = WORK / workload / "jobs"
        for d in (self.inputs, self.outputs):
            shutil.rmtree(d, ignore_errors=True)
            d.mkdir(parents=True)
        for k, cycle in enumerate(self.sets):
            for j, job in enumerate(cycle):
                self.config_path(k, j).write_text(job.config_text(), encoding="utf-8")
        self.records: list[dict] = []

    def config_path(self, k: int, j: int) -> Path:
        return self.inputs / f"set{k}-{j}-{self.sets[k][j].name}.yaml"

    def new_job(self, k: int, j: int, timed: bool) -> tuple[workloads.Job, list[str], dict]:
        job = self.sets[k][j]
        out = self.outputs / f"{len(self.records):04d}-set{k}-{job.name}"
        rec = {"job": job.name, "set": k, "timed": timed, "out": str(out)}
        self.records.append(rec)
        return job, job.argv(str(self.config_path(k, j)), str(out)), rec

    def check(self) -> tuple[int, int]:
        failed = 0
        for rec, job in zip(self.records, self.jobs()):
            rec["problems"] = checks.check_job(job, rec["rc"], rec["out"], rec.pop("stderr", ""))
            rec["outputs"] = checks.output_hashes(rec["out"])
            failed += bool(rec["problems"])
        return len(self.records), failed

    def jobs(self):
        index = {(k, job.name): job for k, cycle in enumerate(self.sets) for job in cycle}
        return [index[(rec["set"], rec["job"])] for rec in self.records]

    def outputs_digest(self) -> str:
        """sha256 over the outputs of the jobs of input set 0, in cycle order."""
        h = hashlib.sha256()
        seen = set()
        for rec in self.records:
            if rec["set"] == 0 and rec["job"] not in seen:
                seen.add(rec["job"])
                h.update(json.dumps([rec["job"], rec["outputs"]]).encode())
        return h.hexdigest()

    def describe(self) -> dict:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "inputs_sha256": workloads.digest(self.sets),
            "outputs_sha256_set0": self.outputs_digest(),
            "jobs": self.records,
        }


def environment() -> dict:
    versions = {"python": platform.python_version()}
    for dist in ("numpy", "scipy", "PyYAML"):
        try:
            versions[dist] = importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            versions[dist] = None
    cpu_model = platform.processor() or platform.machine()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    commit = None
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        if res.returncode == 0:
            commit = res.stdout.strip()
    return {"versions": versions, "nproc": os.cpu_count(), "cpu_model": cpu_model, "commit": commit}


# -- end-to-end run ---------------------------------------------------------------


def run_cold_job(run: Run, k: int, j: int, timed: bool) -> dict:
    job, argv, rec = run.new_job(k, j, timed)
    err_path = Path(rec["out"] + ".stderr")
    rec["wall_s"], rec["cpu_s"], rec["rss_kb"], rec["rc"] = cold(
        ["-m", "qshje.cli", *argv], err_path
    )
    rec["stderr"] = err_path.read_text(encoding="utf-8", errors="replace")
    err_path.unlink()
    return rec


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    run = Run(workload, seed)
    setup: list[float] = []
    started = time.perf_counter()

    def setup_sample() -> None:
        wall, _, _, rc = cold(["-c", "import qshje"])
        if rc != 0:
            raise BenchError("`import qshje` fails in a fresh interpreter")
        setup.append(wall)

    # untimed: fills the bytecode cache, as every user run after the first finds it
    run_cold_job(run, 0, 0, timed=False)["ref_s"] = reference()
    setup_sample()
    # Set-up samples are spread over the run, one after a job whenever they
    # have taken less than SETUP_SHARE of the job time, so that a burst of
    # load on the machine does not decide them all. They count against the
    # measuring time with the jobs and the warm-up.
    cycle_times: list[float] = []
    job_time = 0.0
    while True:
        k = len(cycle_times) % workloads.INPUT_SETS
        cycle_start = time.perf_counter()
        for j in range(len(run.sets[k])):
            t_s = time.perf_counter() - started
            rec = run_cold_job(run, k, j, timed=True)
            rec.update(t_s=t_s, ref_s=reference())
            job_time += rec["wall_s"]
            if sum(setup) < SETUP_SHARE * job_time:
                setup_sample()
        cycle_times.append(time.perf_counter() - cycle_start)
        if not another_cycle(time.perf_counter() - started, cycle_times, seconds):
            break
    while len(setup) < SETUP_MIN:
        setup_sample()

    timed = [r for r in run.records if r["timed"]]
    walls = [r["wall_s"] for r in timed]
    pct, tail_value = tail(walls)
    in_seconds = {
        "job_s_p50": statistics.median(walls),
        "job_s_tail": tail_value,
        "jobs_per_s": len(timed) / job_time,
        "cpu_s_per_job": sum(r["cpu_s"] for r in timed) / len(timed),
    }
    local_ref = bracketing_reference(run.records)
    rel_walls = [rec["wall_s"] / ref for rec, ref in zip(timed, local_ref)]
    rel_cpu = [rec["cpu_s"] / ref for rec, ref in zip(timed, local_ref)]
    metrics = {
        "setup_s": statistics.median(setup),
        "job_p50_ref": statistics.median(rel_walls),
        "job_tail_ref": tail(rel_walls)[1],
        "jobs_per_ref": len(timed) / sum(rel_walls),
        "cpu_per_job_ref": sum(rel_cpu) / len(timed),
        "peak_rss_mb": max(r["rss_kb"] for r in run.records) / 1024.0,
    }
    detail = {
        **in_seconds,
        "ref_s": statistics.median(local_ref),
        "setup_samples": len(setup),
        "cycles": len(cycle_times),
        "job_time_s": job_time,
        "timed_jobs": len(timed),
        "job_s_tail_percentile": pct,
    }
    return run, metrics, detail


# -- traced in-process run --------------------------------------------------------


def run_inproc_job(cli, tracer, run: Run, k: int, j: int, timed: bool) -> float:
    _, argv, rec = run.new_job(k, j, timed)
    tracer.job = len(run.records) - 1
    err = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # a crash fails this job's check, as it would a cold job's
            traceback.print_exc()
            rc = 1
    wall = time.perf_counter() - t0
    rec.update(rc=rc, stderr=err.getvalue(), wall_s=wall)
    return wall


def traced(workload: str, seed: int, seconds: float) -> tuple[Run, dict, dict]:
    run = Run(workload, seed)
    sys.path.insert(0, str(SRC))
    import qshje
    import qshje.cli as cli
    from tracer import Tracer, analyse

    floor, package = [], []
    for _ in range(IMPORT_REPEATS):
        for samples, code in ((floor, "import numpy, yaml"), (package, "import qshje")):
            wall, _, _, rc = cold(["-c", code])
            if rc != 0:
                raise BenchError(f"`{code}` fails in a fresh interpreter")
            samples.append(wall)

    tracer = Tracer(qshje)
    run_inproc_job(cli, tracer, run, 0, 0, timed=False)
    untraced_job_walls: list[float] = []
    pair_times, overheads, passes = [], [], []
    t_start = time.perf_counter()
    while True:
        k = len(pair_times) % workloads.INPUT_SETS
        cycle = range(len(run.sets[k]))
        p0 = time.perf_counter()
        walls = [run_inproc_job(cli, tracer, run, k, j, timed=True) for j in cycle]
        plain = time.perf_counter() - p0
        untraced_job_walls += walls

        tracer.reset()
        first_job = len(run.records)
        tracer.install()
        try:
            t0 = time.perf_counter()
            for j in cycle:
                run_inproc_job(cli, tracer, run, k, j, timed=True)
            with_trace = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        overheads.append((with_trace - plain) / plain)
        passes.append(layer_metrics(analyse(tracer.spans(), tracer.names), tracer.counts,
                                    range(first_job, len(run.records))))
        pair_times.append(time.perf_counter() - p0)
        if len(passes) == MAX_TRACED_PASSES or not another_cycle(
            time.perf_counter() - t_start, pair_times, seconds
        ):
            break
    tracer.dump(str(WORK / workload / "trace_spans"))

    floor_s = statistics.median(floor)
    metrics = {
        "import.floor_s": floor_s,
        "import.package_s": statistics.median(package) - floor_s,
        **{key: statistics.median(p[key] for p in passes) for key in passes[0]},
        "inproc.job_s_p50": statistics.median(untraced_job_walls),
        "trace.overhead_frac": statistics.median(overheads),
    }
    detail = {"traced_passes": len(passes), "overheads": overheads,
              "driver_peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "spans_file": str(WORK / workload / "trace_spans.f64")}
    return run, metrics, detail


def layer_metrics(stats: dict, counts: dict, jobs: range) -> dict:
    n = len(jobs)

    def total(key: str) -> float:
        return sum(counts.get((j, key), 0.0) for j in jobs)

    evals = sum(
        counts.get((j, "scan_evals"), 0.0) or counts.get((j, "probe_points"), 0.0) for j in jobs
    )
    steps = total("rk4_steps")
    solve_time = stats["inclusive"].get("ode_engine.solve_pair", 0.0)
    tables_time = stats["layer_self"].get("tables", 0.0)
    out = {f"{layer}.self_s": stats["layer_self"].get(layer, 0.0) / n for layer in LAYER_SELF}
    out.update({
        "ode_engine.solve_pair_calls": stats["calls"].get("ode_engine.solve_pair", 0) / n,
        "ode_engine.rk4_steps": steps / n,
        "ode_engine.steps_per_s": steps / solve_time if solve_time else 0.0,
        "domain.curvature_calls":
            stats["calls"].get("domain.Effective1DProblem.curvature", 0) / n,
        "residuals.probe_points": total("probe_points") / n,
        "residuals.probe_evals": evals / n,
        "residuals.us_per_probe_eval": 1e6 * stats["probe_wall"] / evals if evals else 0.0,
        "reduced_action.snap_point_calls":
            stats["calls"].get("reduced_action.TotalReducedAction.snap_point", 0) / n,
        "tables.rows": total("table_rows") / n,
        "tables.bytes": total("table_bytes") / n,
        "tables.mb_per_s": total("table_bytes") / tables_time / 1e6 if tables_time else 0.0,
        "cli.main_s": stats["inclusive"].get("cli.main", 0.0) / n,
        "trace.spans_per_job": stats["spans"] / n,
    })
    return out


# -- entry point -------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if not (SRC / "qshje" / "cli.py").is_file():
        raise BenchError(f"no qshje sources under {SRC}; run from a full checkout")
    started = time.perf_counter()
    run, metrics, detail = (traced if trace else end_to_end)(workload, seed, seconds)
    attempted, failed = run.check()
    units = PER_LAYER if trace else END_TO_END
    record = {
        **environment(),
        "args": {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)},
        "run_s": time.perf_counter() - started,
        "metrics": metrics,
        "detail": detail,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        **run.describe(),
    }
    (WORK / workload / f"run_record_trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8"
    )
    print(f"# workload {workload} seed {seed} trace {int(trace)}: inputs {record['inputs_sha256'][:16]}"
          f" outputs(set 0) {record['outputs_sha256_set0'][:16]}")
    env = {key: record[key] for key in ("versions", "nproc", "cpu_model", "commit")}
    print(f"# environment {json.dumps(env)}")
    print(f"# fail_frac {record['fail_frac']:.4f} ({failed} of {attempted} jobs);"
          f" {json.dumps(detail)}")
    for rec in run.records:
        if rec["problems"]:
            print(f"# FAILED {rec['job']} (set {rec['set']}): {'; '.join(rec['problems'])}")
    for name, value in metrics.items():
        label = f"  [{LABELS[name]}]" if name in LABELS else ""
        print(f"{workload:15s} {name:34s} {value:14.6g} {units[name]}{label}")
    for name in ("ref_s", "job_s_p50", "job_s_tail", "jobs_per_s", "cpu_s_per_job"):
        if name in detail:
            print(f"# {workload:13s} {name:34s} {detail[name]:14.6g} (not normalised)")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            results = {
                f"{name}/trace{trace}": measure(name, args.seed, args.seconds, bool(trace))
                for name in workloads.WORKLOADS for trace in (0, 1)
            }
            result = {"correct": all(r["correct"] for r in results.values()), "runs": results}
        else:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
