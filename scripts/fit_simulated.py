"""Round-trip check: draw from a fitted model, refit, compare.

Samples n points from the bundled parameter set for the chosen asset,
runs the likelihood optimizer started at the generating parameters, and
prints the recovered vector next to the truth together with the
termination diagnostics.

Usage: PYTHONPATH=src python3 scripts/fit_simulated.py [--asset spy] [--n 3000] [--seed 42]
"""

import argparse
from pathlib import Path

import gtsfit
from gtsfit.cli import params_from_json
from gtsfit.mle import FitOptions, fit, log_likelihood
from gtsfit.model import PARAM_NAMES
from gtsfit.sampler import SampleConfig, sample_gts

FIXTURES = Path(gtsfit.__file__).parent / "fixtures"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--asset", default="spy", choices=("sp500", "spy", "btc"))
    ap.add_argument("--n", type=int, default=3000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--tol", type=float, default=FitOptions().tol_grad)
    args = ap.parse_args()

    truth = params_from_json(FIXTURES / f"gts_{args.asset}.json")

    y = sample_gts(truth, SampleConfig(n=args.n, seed=args.seed))
    fitted, trace, converged = fit(y, FitOptions(init=truth, tol_grad=args.tol))
    last = trace.rows[-1]

    print(f"{args.asset}: n={args.n}, seed={args.seed}")
    print(f"{'parameter':14} {'truth':>12} {'fitted':>12} {'diff':>10}")
    for name, t, f in zip(PARAM_NAMES, truth.to_vector(), fitted.to_vector()):
        print(f"{name:14} {t:12.7f} {f:12.7f} {f - t:+10.2e}")
    print(
        f"converged={converged} after {len(trace.rows)} iterations, "
        f"grad norm {last.grad_norm:.2e}, top hessian eigenvalue "
        f"{last.max_eigenvalue:.4f}"
    )
    print(
        f"log-likelihood: fitted {last.log_ml:.4f}, "
        f"truth {log_likelihood(truth, y):.4f}"
    )


if __name__ == "__main__":
    main()
