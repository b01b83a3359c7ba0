"""Smoke test: the experiment script runs from the repository root at tiny
sizes against the source tree, exits 0 and prints its JSON summary line."""

import json
import os
import subprocess
import sys

import pytest

import slabinv

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(slabinv.__file__)))
REPO = os.path.dirname(SRC_DIR)


@pytest.mark.parametrize("script, args, keys", [
    ("run_born_recovery.py",
     ["--target-h", "0.25", "--r", "2.25", "--spacing", "0.75", "--params", "2"],
     {"variant", "eta", "per_param"}),
], ids=["born_recovery"])
def test_script_smoke(tmp_path, script, args, keys):
    out = tmp_path / "out.csv"
    proc = subprocess.run(
        [sys.executable, os.path.join("scripts", script), *args, "--out", str(out)],
        cwd=REPO, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, PYTHONPATH=SRC_DIR),
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(summary) == keys
    assert out.exists()
