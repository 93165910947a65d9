"""Set-up of one benchmark run: build a workload's input files from its seed.

Run as a script, it takes its CPU time from before `import gtsfit` until
the last input file is written and prints {"setup_s": ...}; the benchmark
starts it several times in fresh interpreters so that import cost is part of
set-up, and scales each time to a fixed machine speed (speed.py).

    python3 perfbench/inputs.py --workload fit_spy --seed 1 --out DIR
"""

import time

_T0 = time.process_time()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPY_JSON = SRC / "gtsfit" / "fixtures" / "gts_spy.json"
PARAM_NAMES = ("mu", "beta_plus", "beta_minus", "alpha_plus", "alpha_minus",
               "lambda_plus", "lambda_minus")

# (size, draw seed) of the spy-law sample each workload reads. The draw
# decides a fit's path (iterations, grids visited) and the Durbin matrix
# order of the gof p-value, so it is fixed per workload; --seed permutes the
# rows of the file and seeds `gtsfit simulate`. README.md lists other draw
# seeds with the same character, for rechecking a claim with --draw-seed.
DRAWS = {"fit_spy": (3000, 42), "fit_near_vg": (3046, 2), "validate": (3046, 2)}
FIT_WORKLOADS = ("fit_spy", "fit_near_vg")
NULL_M = 3048
SIM_DRAWS = 262144
WORKLOADS = ("fit_spy", "fit_near_vg", "validate", "ks_null")


def use_source_tree():
    """Import gtsfit from this checkout's src/, never from site-packages."""
    if not (SRC / "gtsfit" / "__init__.py").is_file():
        raise SystemExit(f"error: no gtsfit sources under {SRC}")
    sys.path.insert(0, str(SRC))


def spy_vector():
    with open(SPY_JSON, encoding="utf-8") as fh:
        doc = json.load(fh)
    return [float(doc[k]) for k in PARAM_NAMES]


def sim_seed(seed):
    return 1_000_003 + seed


def make_inputs(workload, seed, out, draw_seed=None):
    """Write the workload's input files into `out`."""
    import numpy as np

    from gtsfit.model import GtsParams
    from gtsfit.sampler import SampleConfig, sample_gts

    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    truth = spy_vector()
    p = GtsParams(*truth)
    doc = {"schema_version": 1, "model": "gts", **dict(zip(PARAM_NAMES, truth))}
    (out / "spy.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    if workload in DRAWS:
        n, fixed = DRAWS[workload]
        y = sample_gts(p, SampleConfig(n=n, seed=fixed if draw_seed is None else draw_seed))
        y = y[np.random.default_rng(seed).permutation(n)]
        with open(out / "returns.csv", "w", encoding="utf-8") as fh:
            fh.write("return\n")
            fh.writelines(f"{v:.17g}\n" for v in y)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--draw-seed", type=int, default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    use_source_tree()
    make_inputs(args.workload, args.seed, args.out, args.draw_seed)
    print(json.dumps({"setup_s": time.process_time() - _T0}))


if __name__ == "__main__":
    main()
