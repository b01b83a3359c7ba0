"""Self-tests of the benchmark: report shape, gates, and the bare-directory exit.

Run from the repository root with ``python3 -m pytest perfbench -q``.  The
gate tests hand each oracle gate a real output of a tiny workload instance
with one deliberate corruption, so they test the gate, not slabinv.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import workloads  # noqa: E402


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run_bench(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=175)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_report_carries_every_metric(workload, trace):
    proc = _run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                      "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _bench()["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))


def test_bare_directory_fails_without_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in _bench()["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(str(tmp_path), "--workload", "sweep", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_sweep_receives_the_seed(monkeypatch):
    seen = []
    monkeypatch.setattr(workloads, "_run_cli", lambda argv: (seen.append(argv), (0, ""))[1])
    inp = {"spec": workloads.SweepSpec(), "work": ".", "cfg": "c", "q1_path": "q",
           "seed": 7}
    workloads.sweep_execute(inp)
    argv = seen[0]
    assert argv[argv.index("--seed") + 1] == "7"


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Real outputs of each tiny workload, run in this process."""
    out = {}
    for name, wl in workloads.WORKLOADS.items():
        work = str(tmp_path_factory.mktemp(name))
        inp = wl.prepare(wl.sizes["tiny"], work, 5)
        out[name] = (wl, inp, wl.execute(inp))
    return out


def test_gates_accept_real_outputs(tiny):
    for name, (wl, inp, raw) in tiny.items():
        verdict = wl.check(inp, raw)
        assert verdict.correct, (name, verdict.problems)
        assert verdict.attempted >= 1 and verdict.oracle_err > 0


def _recover_parts(tiny):
    _wl, inp, raw = tiny["recover"]
    rc, stdout, path = raw["thm2"]
    summary = json.loads(stdout.strip().splitlines()[-1])
    rows = workloads.read_csv(path)

    def gate(rows, summary=summary):
        ref = lambda xis: workloads.recover_reference(inp["q1"], inp["grid"], "thm2", xis)
        return workloads.gate_recover("thm2", rc, summary, rows, ref, inp["spec"].r)

    idx = next(i for i, r in enumerate(rows)
               if np.hypot(float(r["xi1"]), float(r["xi2"])) >= 1.0)
    return gate, rows, idx, summary


def test_recover_gate_rejects_a_bad_estimate(tiny):
    gate, rows, idx, _summary = _recover_parts(tiny)
    assert gate(rows).correct
    bad = copy.deepcopy(rows)
    for col in ("re_est", "im_est"):
        bad[idx][col] = repr(1.2 * float(bad[idx][col]))
    verdict = gate(bad)
    assert not verdict.correct and verdict.failed >= 1
    assert verdict.oracle_err > workloads.RECOVER_GATE


def test_recover_gate_rejects_a_wrong_true_column(tiny):
    gate, rows, idx, _summary = _recover_parts(tiny)
    bad = copy.deepcopy(rows)
    bad[idx]["re_true"] = repr(float(bad[idx]["re_true"]) * (1 + 1e-6) + 1e-9)
    assert not gate(bad).correct


def test_recover_gate_rejects_a_missing_row(tiny):
    gate, rows, idx, _summary = _recover_parts(tiny)
    assert not gate(rows[:idx] + rows[idx + 1:]).correct


def _sweep_parts(tiny):
    _wl, inp, raw = tiny["sweep"]
    rc, _stdout, path = raw
    rows = workloads.read_csv(path)
    n = len(inp["spec"].noise) * inp["spec"].trials
    return (lambda rows: workloads.gate_sweep(rc, rows, n, inp["linf_true"])), rows


@pytest.mark.parametrize("corruption", ["swap_bounds", "star_jump", "theta", "bound_low",
                                        "drop"])
def test_sweep_gate_rejects(tiny, corruption):
    gate, rows = _sweep_parts(tiny)
    assert gate(rows).correct
    bad = copy.deepcopy(rows)
    lo = min(range(len(bad)), key=lambda i: float(bad[i]["star_norm"]))
    hi = max(range(len(bad)), key=lambda i: float(bad[i]["star_norm"]))
    if corruption == "swap_bounds":
        bad[lo]["linf_bound"], bad[hi]["linf_bound"] = (bad[hi]["linf_bound"],
                                                        bad[lo]["linf_bound"])
    elif corruption == "star_jump":
        top = max(float(row["noise_level"]) for row in bad)
        bad[lo]["star_norm"] = repr(float(bad[lo]["star_norm"]) + 3 * top)
    elif corruption == "theta":
        for row in bad:
            row["theta_fit"] = repr(-abs(float(row["theta_fit"])))
    elif corruption == "bound_low":
        bad[lo]["linf_bound"] = repr(0.5 * float(bad[lo]["linf_err"]))
    else:
        bad = bad[1:]
    verdict = gate(bad)
    assert not verdict.correct
    if corruption in ("star_jump", "drop"):
        assert verdict.failed >= 1


def test_forward_order_gate_rejects_a_degraded_solution(tiny):
    wl, inp, raw = tiny["forward_order"]
    fine = min(inp["spec"].hs)
    key = next(k for k in raw if k[2] == fine)
    u = inp["problems"][key][1]
    bad = dict(raw)
    bad[key] = u + 2.0 * (raw[key] - u)      # doubles the fine-grid error
    verdict = wl.check(inp, bad)
    assert not verdict.correct and verdict.failed == 1


def test_forward_order_gate_counts_a_solver_failure(tiny):
    wl, inp, raw = tiny["forward_order"]
    bad = dict(raw)
    bad[next(iter(bad))] = "SolveError: injected"
    verdict = wl.check(inp, bad)
    assert not verdict.correct and verdict.failed == 1
