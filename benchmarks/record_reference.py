"""Record benchmarks/reference.json, the correctness gate's expected outputs.

    python3 benchmarks/record_reference.py --seeds 0-30 [--workload NAME ...]

Runs each workload once per seed, and once at the default seed, through the
same process path as the benchmark.  For each workload it stores the
default-seed entry, the seeds recorded, and the entry of every seed whose
outcome differs from the default one (for example a statistical sampler
verdict that fails at that seed).  Re-record only in a change that touches
nothing but the benchmark, so that the reference comes from the parent code.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import time

from gate import REFERENCE_FILE, reference_from
from run import OUT, spawn
from workloads import DEFAULT_SEED, WORKLOADS


def parse_seeds(text: str) -> list[int]:
    """'0-3,7' -> [0, 1, 2, 3, 7]"""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def record(name: str, seeds: list[int]) -> dict:
    workload = WORKLOADS[name]
    workdir = OUT / f"record-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    entries = {}
    try:
        for seed in [DEFAULT_SEED, *(s for s in seeds if s != DEFAULT_SEED)]:
            (workdir / "workload.conf").write_text(workload.config_text(seed))
            run = spawn(workdir, workload.command, deadline=time.perf_counter() + 600)
            if run.report is None:
                sys.exit(f"{name} seed {seed}: no report (exit {run.exit_code})\n"
                         f"{run.stderr_tail}")
            entries[seed] = reference_from(run.exit_code, run.report)
            print(f"{name} seed {seed}: exit {run.exit_code}, {run.wall_s:.1f} s",
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    default = entries[DEFAULT_SEED]
    return {
        "recorded_seeds": sorted(entries),
        "reference": default,
        "seed_overrides": {str(s): e for s, e in entries.items() if e != default},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=[])
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    args = parser.parse_args(argv)
    references = json.loads(REFERENCE_FILE.read_text()) if REFERENCE_FILE.exists() else {}
    for name in args.workload or list(WORKLOADS):
        references[name] = record(name, args.seeds)
        REFERENCE_FILE.write_text(json.dumps(references, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
