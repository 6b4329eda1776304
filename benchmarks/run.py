"""hypolab benchmark: named workloads through the real CLI, each run in a fresh process.

    python3 benchmarks/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

With --trace 0 it times whole workload processes and prints the end-to-end
metrics; with --trace 1 it alternates untraced and traced processes and
prints the per-layer metrics from the traced ones.  Every process's output is
checked against benchmarks/reference.json.  The last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.  Details,
samples and the environment go to .bench_out/results/.  See README.md.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from gate import check_run, load_reference, reference_for
from tracing import LAYER_METRICS, Span, layer_metrics
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
CHILD = HERE / "child.py"

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
}
SETUP_PROBES = 5  # set-up-only processes per run, so setup_s is a median of several
MIN_PLAIN = 2  # untraced workload processes per run, even past --seconds
START_LIMIT_S = 150.0  # start no process expected to end past this (limit: 180 s)
KILL_AFTER_S = 170.0


@dataclass
class ProcessRun:
    """One workload process, timed and checked."""

    wall_s: float
    setup_s: float | None  # None when run_experiment was never entered
    peak_rss_mb: float
    exit_code: int
    problems: list
    report: dict | None = None
    report_bytes: int = 0
    spans: list | None = None
    stderr_tail: str = ""


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc with os.wait4, which returns its own rusage; kill it on timeout."""
    fd = os.pidfd_open(proc.pid)
    try:
        ready, _, _ = select.select([fd], [], [], max(timeout, 0.0))
    finally:
        os.close(fd)
    if not ready:
        proc.kill()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def spawn(workdir: Path, command: str, *, deadline: float,
          setup_only: bool = False, traced: bool = False) -> ProcessRun:
    """Run ``hypolab <command> --config workdir/workload.conf`` once.

    The returned run's problems cover only the process itself (a set-up probe
    that never reached run_experiment, a traced run without spans); the caller
    checks the report against the reference.
    """
    out = workdir / "out"
    stamp = workdir / "stamp"
    spans_file = workdir / "spans.json"
    shutil.rmtree(out, ignore_errors=True)
    stamp.unlink(missing_ok=True)
    spans_file.unlink(missing_ok=True)
    cmd = [sys.executable, str(CHILD), "--stamp", str(stamp)]
    if traced:
        cmd += ["--spans", str(spans_file)]
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--", command, "--config", str(workdir / "workload.conf"), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(workdir / "stderr.log", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL, stderr=err,
                                env=env, cwd=ROOT)
        try:
            code, usage = _wait(proc, deadline - start)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    setup = float(stamp.read_text()) - start if stamp.exists() else None
    run = ProcessRun(wall_s=wall, setup_s=setup, peak_rss_mb=usage.ru_maxrss / 1024.0,
                     exit_code=code, problems=[],
                     stderr_tail=(workdir / "stderr.log").read_text(errors="replace")[-2000:])
    if setup_only and (code != 0 or setup is None):
        run.problems.append(f"set-up probe exited {code} before run_experiment")
    report_file = out / "report.json"
    if report_file.exists():
        run.report = json.loads(report_file.read_text())
        run.report_bytes = sum(f.stat().st_size for f in out.iterdir())
    if traced and spans_file.exists():
        run.spans = [Span(*row) for row in json.loads(spans_file.read_text())]
    elif traced:
        run.problems.append("traced run wrote no spans")
    return run


def tail_percentile(values: list) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it, if any
    at or above the median."""
    p = int(100 * (1 - 10 / len(values))) if len(values) > 10 else 0
    if p < 50:
        return None
    return p, statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def summary(values: list) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "n": 0, "tail": None}
    return {"median": statistics.median(values), "n": len(values),
            "tail": tail_percentile(values)}


def _blas_libraries() -> list:
    """Each loaded OpenBLAS: its configuration string and thread count."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name}
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
                threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if config is not None and threads is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                    info["threads"] = int(threads())
        found.append(info)
    return found


def _git_commit():
    if not (ROOT / ".git").exists():
        return None  # the checkout is not a git repository
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def environment(seed: int) -> dict:
    """Machine and library versions that the numbers depend on.

    The workload processes inherit this environment, so their BLAS runs with
    the thread count reported here; the benchmark runs one process at a time.
    """
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_libraries(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for ``seconds``; return its samples and metrics."""
    started = time.perf_counter()
    workload = WORKLOADS[name]
    reference = reference_for(load_reference(), name, seed)
    workdir = OUT / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    (workdir / "workload.conf").write_text(workload.config_text(seed))

    def run(setup_only=False, traced=False):
        r = spawn(workdir, workload.command, deadline=started + KILL_AFTER_S,
                  setup_only=setup_only, traced=traced)
        if not setup_only:
            r.problems += check_run(reference, r.exit_code, r.report)
        if r.problems:
            r.problems.append(f"stderr tail: {r.stderr_tail}")
        return r

    try:
        probes = [] if trace else [run(setup_only=True) for _ in range(SETUP_PROBES)]
        plain, traced = [], []
        loop_start = time.perf_counter()
        while True:
            use_trace = trace and len(traced) < len(plain)  # alternate, plain first
            (traced if use_trace else plain).append(run(traced=use_trace))
            now = time.perf_counter()
            mean = (now - loop_start) / (len(plain) + len(traced))
            enough = bool(traced) if trace else len(plain) >= MIN_PLAIN
            if not enough:
                continue
            if now - loop_start + mean > seconds or now - started + mean > START_LIMIT_S:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    runs = probes + plain + traced
    failed = [r for r in runs if r.problems]
    stats = {}
    if trace:
        per_run = []
        for r in traced:
            values = layer_metrics(r.spans or [])
            values["cli.report_bytes"] = r.report_bytes
            values["trace.wall_s"] = r.wall_s
            per_run.append(values)
        for key in LAYER_METRICS:
            if key != "trace.overhead_s":
                stats[key] = summary([v[key] for v in per_run])
        stats["trace.overhead_s"] = {
            "median": (statistics.median(r.wall_s for r in traced)
                       - statistics.median(r.wall_s for r in plain)),
            "n": len(traced), "tail": None,
        }
        units = {k: unit for k, (unit, _) in LAYER_METRICS.items()}
    else:
        stats["wall_s"] = summary([r.wall_s for r in plain])
        stats["setup_s"] = summary([r.setup_s for r in probes + plain])
        stats["peak_rss_mb"] = summary([r.peak_rss_mb for r in plain])
        units = {k: unit for k, (unit, _) in END_TO_END.items()}
    return {
        "workload": name,
        "command": workload.command,
        "config": workload.config_text(seed),
        "seed": seed,
        "trace": int(trace),
        "attempted": len(runs),
        "failed": len(failed),
        "problems": [r.problems for r in failed],
        "units": units,
        "stats": stats,
        "samples": [
            {"kind": kind, "wall_s": r.wall_s, "setup_s": r.setup_s,
             "peak_rss_mb": r.peak_rss_mb, "exit_code": r.exit_code,
             "report_bytes": r.report_bytes, "ok": not r.problems}
            for kind, group in (("setup_probe", probes), ("plain", plain),
                                ("traced", traced))
            for r in group
        ],
        "spans": [list(s) for s in traced[0].spans] if traced and traced[0].spans else None,
    }


def _format(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_result(result: dict):
    name = result["workload"]
    for key, stat in result["stats"].items():
        unit = result["units"][key]
        tail = stat["tail"]
        extra = (f"p{tail[0]} {_format(tail[1])} {unit}, " if tail
                 else "no percentile has 10 samples beyond it, ")
        print(f"{name:12s} {key:30s} {_format(stat['median']):>12s} {unit:6s}"
              f" (median; {extra}n={stat['n']})")
    frac = result["failed"] / result["attempted"]
    print(f"{name:12s} {'failed_frac':30s} {_format(frac):>12s} {'ratio':6s}"
          f" ({result['failed']} of {result['attempted']} processes failed the gate)")
    for problems in result["problems"]:
        print(f"{name:12s} FAILED: {problems}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hypolab" / "cli.py").is_file():
        print(f"benchmark: no hypolab sources under {SRC}", file=sys.stderr)
        return 2

    env = environment(args.seed)
    print("environment " + json.dumps(env))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [measure(n, args.seed, args.seconds, bool(args.trace)) for n in names]

    (OUT / "results").mkdir(parents=True, exist_ok=True)
    metrics = {}
    for result in results:
        print_result(result)
        path = OUT / "results" / f"{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"environment": env, **result}, indent=1))
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for key, stat in result["stats"].items():
            metrics[prefix + key] = {"value": stat["median"], "unit": result["units"][key]}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
