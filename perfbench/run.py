"""Benchmark for slabinv: end-to-end and per-layer metrics of three workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {recover,sweep,forward_order} \
        --seed N --seconds S --trace {0,1}

Workloads (sizes fit several repetitions into one run on a 2-core machine):

* ``recover``: ``slabinv recover`` for the thm2 and then the thm3 family on
  the default geometry at h = 1/8, Born pair (radial bump of amplitude 1e-3
  against zero), r = 2.25, parameter 8, lambda auto, spacing 0.75, box
  coarsen 2: 100 annulus frequencies and 40 continuation samples per family
  on a 24^3 probe box.  The CGO probe and recovery layers do the work; the forward
  solver does none.  Oracle: the worst relative error of the annulus
  estimates against a transform computed here (gate 0.10, criterion 6).
* ``sweep``: ``slabinv sweep --variant thm2 --basis-n 12`` over six noise
  levels 1e-3 .. 1e-8 with two trials at h = 1/8: four sparse LU
  factorizations and 432 column solves, about 108 right-hand sides per
  operator.  The seed keys the noise draws.  Gates: criterion 9 (twelve
  records, bound monotone in the star norm, positive fitted exponent), the
  triangle inequality between records' star norms, and the certified bound
  dominating the true error; the reported error is the worst true/bound ratio.
* ``forward_order``: manufactured-solution convergence through
  ``HelmholtzOperator``, ``admissibility()`` and ``solve_source`` on
  h in {1/4, 1/8} for {free, bump} x k in {0, 2.5, 4.5}: twelve operators with
  one right-hand side each, so operator set-up dominates.  k = 4.5 is
  indefinite (k^2 above the lowest Dirichlet eigenvalue, about 11.1).
  Oracle: the worst |ratio - 4| of the error ratios (gate [3.6, 4.4],
  criterion 3).

``recover`` and ``forward_order`` are deterministic; the seed only reaches
``sweep``.  Each repetition runs in a fresh interpreter with BLAS and OpenMP
pinned to one thread, and the run repeats until ``--seconds`` is used up.

End-to-end metrics (``--trace 0``): ``wall_s``, ``setup_s`` and ``cpu_s`` are
those of the fastest repetition, because on a shared host other tenants slow
a CPU by up to half for seconds to minutes at a time; the medians are printed
too.  ``peak_rss_mb`` and ``oracle_err`` are medians, and ``ok_frac`` is one
minus the share of failed operations (an operation is one frequency
estimate, one sweep record or one convergence case).  With ``--trace 1`` the
run alternates traced repetitions, in which layers.py wraps the package's
public functions, with untraced ones, and reports per-layer self times
(medians) and counts (identical in every repetition).  The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "oracle_err": "ratio",
    "ok_frac": "ratio",
}
EXTRA_LAYER = {"unattributed_s": "s", "trace_overhead_s": "s", "traced_wall_s": "s"}

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
          "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}
MIN_REPS = 3         # untraced repetitions per --trace 0 run
MIN_REPS_TRACED = 2  # of each kind per --trace 1 run
EXIT_BY = 170.0      # seconds after start by which every child has ended
LAST_START = 120.0   # no repetition starts after this many seconds

ENV_PROBE = """
import importlib.util, json, platform, numpy, scipy, slabinv.cli
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__,
                  "blas": f"{blas.get('name')} {blas.get('version')}",
                  "pyamg": importlib.util.find_spec("pyamg") is not None}))
"""


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit(root: str) -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _src_lines(root: str) -> int:
    total = 0
    for dirpath, _dirs, files in os.walk(os.path.join(root, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def environment(root: str, env: dict) -> dict:
    """Recorded, not gated.  Running the probe also compiles the package."""
    probe = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, cwd=root,
                           capture_output=True, text=True, timeout=60)
    if probe.returncode != 0:
        raise RuntimeError(f"cannot import slabinv: {probe.stderr.strip()[-400:]}")
    info = json.loads(probe.stdout.strip().splitlines()[-1])
    info.update({
        "threads": PINNED,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(root),
        "src_lines": _src_lines(root),
    })
    return info


def run_rep(root: str, env: dict, args, trace: int, work: str, timeout: float) -> dict:
    """Spawn one repetition and return its JSON record (or a failure record)."""
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "rep.py"),
           "--workload", args.workload, "--size", args.size, "--seed", str(args.seed),
           "--trace", str(trace), "--work", work, "--spawned", repr(spawned)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=root, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"repetition killed after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-600:]}"}
    rec = json.loads(lines[-1])
    rec["trace"] = trace
    return rec


def run_reps(root: str, env: dict, args, t_start: float) -> list[dict]:
    work = os.path.join(root, ".bench_work")
    os.makedirs(work, exist_ok=True)
    order = (1, 0) if args.trace else (0,)
    need = MIN_REPS_TRACED if args.trace else MIN_REPS
    reps: list[dict] = []
    durations: list[float] = []
    t0 = time.monotonic()
    while True:
        trace = order[len(reps) % len(order)]
        timeout = max(5.0, EXIT_BY - (time.monotonic() - t_start))
        t = time.monotonic()
        rec = run_rep(root, env, args, trace, work, timeout)
        durations.append(time.monotonic() - t)
        reps.append(rec)
        if "crashed" in rec:
            break
        elapsed = time.monotonic() - t0
        enough = all(sum(r["trace"] == f for r in reps) >= need for f in order)
        if enough and elapsed + statistics.median(durations) > args.seconds:
            break
        if time.monotonic() - t_start > LAST_START:
            break
    return reps


def _median(values) -> float:
    return float(statistics.median(values))


def summarize(reps: list[dict], trace: int) -> tuple[dict, list[str]]:
    """Metrics of the run and the list of problems found."""
    problems = []
    for i, rec in enumerate(reps):
        if "crashed" in rec:
            problems.append(f"repetition {i}: {rec['crashed']}")
        else:
            problems += [f"repetition {i}: {p}" for p in rec["problems"]]
    done = [r for r in reps if "crashed" not in r]
    plain = [r for r in done if r["trace"] == 0]
    traced = [r for r in done if r["trace"] == 1]
    if not plain or (trace and not traced):
        return {}, problems or ["no repetition completed"]

    metrics = {}
    if not trace:
        for name in ("wall_s", "setup_s", "cpu_s"):
            metrics[name] = min(r[name] for r in plain)
        for name in ("peak_rss_mb", "oracle_err"):
            metrics[name] = _median([r[name] for r in plain])
        attempted = sum(r["attempted"] for r in plain)
        metrics["ok_frac"] = 1.0 - sum(r["failed"] for r in plain) / max(attempted, 1)
        return metrics, problems

    for rec in traced:
        if rec["missing_layers"]:
            problems.append(f"traced run recorded no calls in {rec['missing_layers']}")
    for name, (unit, _fn) in layers.PER_LAYER.items():
        values = [r["layers"][name] for r in traced]
        if unit == "count":
            if len(set(values)) != 1:
                problems.append(f"{name} differs between repetitions: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = _median(values)
    traced_wall = min(r["wall_s"] for r in traced)
    metrics["unattributed_s"] = _median([r["layers"]["unattributed_s"] for r in traced])
    metrics["traced_wall_s"] = traced_wall
    metrics["trace_overhead_s"] = traced_wall - min(r["wall_s"] for r in plain)
    return metrics, problems


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    if name in EXTRA_LAYER:
        return EXTRA_LAYER[name]
    return layers.PER_LAYER[name][0]


def main(argv=None) -> int:
    t_start = time.monotonic()
    ap = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", default="full", choices=("full", "tiny"),
                    help="'tiny' is a seconds-long instance for the self-tests")
    args = ap.parse_args(argv)

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "slabinv", "__init__.py")):
        print(f"no slabinv sources under {root}/src", file=sys.stderr)
        return 2
    env = child_env(root)
    try:
        info = environment(root, env)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    info["workload"] = args.workload
    info["seed"] = args.seed if args.workload == "sweep" else "unused (deterministic)"
    print("env " + json.dumps(info, sort_keys=True))

    reps = run_reps(root, env, args, t_start)
    metrics, problems = summarize(reps, args.trace)
    done = [r for r in reps if "crashed" not in r]
    if done:
        print("outputs " + json.dumps(done[0]["outputs"], sort_keys=True, default=str))
    for p in problems:
        print("problem " + p)
    print("repetitions " + json.dumps(
        [{k: r[k] for k in ("trace", "wall_s", "setup_s", "cpu_s")} for r in done]))
    plain = [r for r in done if r["trace"] == 0]
    if plain:
        print(f"medians over {len(plain)} untraced repetitions: " + ", ".join(
            f"{k} {_median([r[k] for r in plain]):.4g} s" for k in ("wall_s", "setup_s", "cpu_s")))

    out_metrics = {}
    for name, value in metrics.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not finite")
            value = 1e300
        out_metrics[name] = {"value": value, "unit": unit_of(name)}
        print(f"{name:32s} {value:.6g} {unit_of(name)}")
    attempted = sum(r["attempted"] for r in done)
    failed = sum(r["failed"] for r in done) + (len(reps) - len(done))
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": out_metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
