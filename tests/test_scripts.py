"""Smoke tests: each experiment script runs from the repository root at tiny
sizes, exits 0 and prints its JSON summary line."""

import json
import os
import subprocess
import sys

import pytest

from slabinv import cli

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))))


@pytest.mark.parametrize("script, args, keys", [
    ("run_stability_sweep.py",
     ["--target-h", "0.25", "--basis-n", "2", "--noise", "1e-3,1e-6"],
     {"theta_fit", "n_records", "n_valid", "star_range"}),
    ("run_carleman_check.py",
     ["--target-h", "0.25", "--trials", "2", "--taus", "1,2"],
     {"fitted_c", "per_tau_c", "running_c", "top_half_variation", "passed"}),
    ("run_born_recovery.py",
     ["--target-h", "0.25", "--r", "2.25", "--spacing", "0.75", "--params", "2"],
     {"variant", "eta", "per_param"}),
], ids=["stability_sweep", "carleman_check", "born_recovery"])
def test_script_smoke(tmp_path, script, args, keys):
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, os.path.join("scripts", script), *args, "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == keys
    assert out.exists()
