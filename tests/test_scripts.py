"""The scripts run from a checkout, as their usage lines say."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_reproduce_tables_runs_with_src_on_path():
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "scripts/reproduce_tables.py"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    ks = proc.stdout.split("KS against the binned empirical CDF")[1]
    rows = [line for line in ks.splitlines() if line.split()[1:2] in (["gts"], ["gbm"])]
    assert len(rows) == 6
