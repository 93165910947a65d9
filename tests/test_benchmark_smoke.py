"""One short benchmark run ends with its result line.

The benchmark's contract is that the last line of standard output is the
result JSON. This runs one second of a workload and reads that line. The
run is made from a copy of perfbench/*.py in a temporary directory, with the
checkout's src/ linked beside it, so the result files it writes (under the
copy's out/) never touch the checkout. `fit_spy` runs the Newton fit;
`validate` runs `gof` and `simulate`, whose draws the benchmark checks
against its own uniform stream and the model CDF.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["fit_spy", "validate"])
def test_run_ends_with_a_correct_result(workload, tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        shutil.copy2(f, bench)
    (tmp_path / "src").symlink_to(ROOT / "src", target_is_directory=True)
    argv = [
        sys.executable, "perfbench/run.py",
        "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0",
    ]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    for name in ("round_cpu_s", "setup_s", "peak_rss_mb"):
        assert math.isfinite(result["metrics"][name]["value"]), name
