"""One repetition of a workload in a fresh interpreter; prints one JSON line.

Run by run.py, never on its own.  The parent passes the CLOCK_MONOTONIC
time at which it spawned this process, so set-up time covers interpreter
start, imports and input generation.  The timed part is the workload body;
CPU time and the resident-set high-water mark come from getrusage.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--size", default="full")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--spawned", type=float, required=True)
    args = ap.parse_args()

    import layers
    import slabinv
    import slabinv.cli  # noqa: F401  (imports every layer, as a CLI call does)
    import workloads

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    if not os.path.abspath(slabinv.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"slabinv imported from {slabinv.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]
    spec = wl.sizes[args.size]
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.work)
    try:
        inputs = wl.prepare(spec, work, args.seed)
        tracer = layers.install() if args.trace else None
        setup = time.monotonic() - args.spawned

        cpu0 = _cpu_seconds()
        t0 = time.perf_counter()
        raw = wl.execute(inputs)
        wall = time.perf_counter() - t0
        cpu = _cpu_seconds() - cpu0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        verdict = wl.check(inputs, raw)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {
        "setup_s": setup, "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_mb,
        "attempted": verdict.attempted, "failed": verdict.failed,
        "oracle_err": verdict.oracle_err, "problems": verdict.problems,
        "outputs": verdict.outputs,
    }
    if tracer is not None:
        out["layers"] = layers.layer_metrics(tracer, wall)
        out["missing_layers"] = layers.missing_layers(tracer, wl.layers)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
