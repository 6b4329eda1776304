"""One workload process: hypolab's own CLI entry point, observed from outside.

    python3 benchmarks/child.py --stamp FILE [--spans FILE] [--setup-only] \
        -- <hypolab arguments>

Writes the clock reading (time.perf_counter, the system-wide monotonic clock)
at entry into ``hypolab.cli.run_experiment`` to --stamp, so the parent can
time set-up from its own spawn reading.  With --setup-only the process exits
right there.  With --spans it runs under the tracer and writes the spans as
JSON when the run ends.  Needs ``src`` on PYTHONPATH.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--stamp", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("hypolab", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.hypolab[1:] if args.hypolab[:1] == ["--"] else args.hypolab

    import hypolab.cli as cli

    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
    else:
        tracer = nullcontext()
    with tracer:
        inner = cli.run_experiment

        def stamped(command, cfg):
            with open(args.stamp, "w") as fh:
                fh.write(repr(time.perf_counter()))
            if args.setup_only:
                os._exit(0)
            return inner(command, cfg)

        cli.run_experiment = stamped
        try:
            code = cli.main(argv)
        finally:
            cli.run_experiment = inner
    if args.spans:
        with open(args.spans, "w") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
