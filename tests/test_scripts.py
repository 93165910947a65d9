"""The scripts run from a checkout, as their usage lines say."""

import os
import subprocess
import sys
from pathlib import Path

from gtsfit.gof import ks_null_summary

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv):
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_reproduce_tables_runs_with_src_on_path():
    ks = run_script("scripts/reproduce_tables.py").split("KS against the binned empirical CDF")[1]
    rows = [line for line in ks.splitlines() if line.split()[1:2] in (["gts"], ["gbm"])]
    assert len(rows) == 6


def test_null_distribution_prints_the_exact_summary():
    # the summary's accuracy is tested in test_gof; the script prints it
    ns = ks_null_summary(200)
    assert run_script("scripts/null_distribution.py", "200").splitlines() == [
        "m = 200",
        f"mean D_m        {ns.mean:.7f}",
        f"sd D_m          {ns.sd:.7f}",
        f"critical value  {ns.critical_d:.7f}  (alpha = 0.05)",
    ]


def test_fit_simulated_recovers_a_better_fit_than_the_truth():
    out = run_script("scripts/fit_simulated.py", "--n", "600", "--seed", "5").splitlines()
    assert out[0] == "spy: n=600, seed=5"
    assert len(out) == 11
    assert out[9].startswith("converged=True after ")
    fitted, truth = (float(s.split()[-1]) for s in out[10].split(":")[1].split(","))
    assert fitted > truth
