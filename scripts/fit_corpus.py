"""Run the fit corpus: one line per fit with its iterations, converged flag,
final log-ML and the sha256 of its trace CSV.

The corpus is a fixed set of fits whose endpoints and traces a change to
the likelihood or the optimiser can be checked against, by diffing the
output of two checkouts:

- the four criterion-11 stand-ins (the sp500, spy, btc and btc_recentered
  laws, 3046 points, draw seed 11), each fitted from DEFAULT_INIT and from
  the law itself;
- spy-law draws of 3000 points, seeds 1-7, 9, 10 and 42, fitted from the
  spy law (seed 42 is the criterion-8 sample);
- spy-law draws of 3046 points, seeds 2 and 4, fitted from the spy law
  (their fits end near beta+ = 0);
- the spy-law 3000-point draw of seed 8, fitted from the spy law, whose
  likelihood rises along a ridge toward beta+ = 1: it runs to max_iter
  without converging.

Positional names select a subset, in the order given. Each line reads

    <name> iterations=<k> converged=<True|False> log_ml=<%.17g> trace_sha256=<hex>

and a fit that raises ConvergenceError reports the trace it carries, with
converged=error. The CPU time of all fits goes to stderr, so stdout is
the same bits on every run of one checkout on one machine. The curvature
sums are BLAS products whose rounding can depend on the thread count, so
compare runs made with one BLAS thread.

Usage: OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 scripts/fit_corpus.py [NAME ...]
"""

import argparse
import hashlib
import sys
import tempfile
import time
from pathlib import Path

import gtsfit
from gtsfit.cli import params_from_json
from gtsfit.errors import ConvergenceError
from gtsfit.mle import DEFAULT_INIT, FitOptions, fit
from gtsfit.sampler import SampleConfig, sample_gts

FIXTURES = Path(gtsfit.__file__).parent / "fixtures"

STAND_INS = ("sp500", "spy", "btc", "btc_recentered")
SPY_DRAWS = [(3000, s) for s in (1, 2, 3, 4, 5, 6, 7, 9, 10, 42)]
SPY_DRAWS += [(3046, 2), (3046, 4), (3000, 8)]


def corpus():
    """{name: (law, draw size, draw seed, start)}, start None for the law."""
    fits = {}
    for law in STAND_INS:
        fits[f"{law}-default"] = (law, 3046, 11, DEFAULT_INIT)
        fits[f"{law}-truth"] = (law, 3046, 11, None)
    for size, seed in SPY_DRAWS:
        fits[f"spy-{size}-{seed}"] = ("spy", size, seed, None)
    return fits


def run_fit(law, size, seed, start, trace_path):
    """(iterations, converged, log-ML) of one fit; its trace is written to
    trace_path."""
    truth = params_from_json(FIXTURES / f"gts_{law}.json")
    y = sample_gts(truth, SampleConfig(n=size, seed=seed))
    try:
        _, trace, converged = fit(y, FitOptions(init=truth if start is None else start))
    except ConvergenceError as exc:
        trace, converged = exc.trace, "error"
    trace.to_csv(trace_path)
    return len(trace.rows), converged, trace.rows[-1].log_ml


def main() -> None:
    fits = corpus()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("names", nargs="*", metavar="NAME", help=f"fits to run: {', '.join(fits)}")
    args = ap.parse_args()
    unknown = [name for name in args.names if name not in fits]
    if unknown:
        ap.error(f"unknown fit {', '.join(unknown)}")
    names = args.names or list(fits)
    t0 = time.process_time()
    with tempfile.TemporaryDirectory() as tmp:
        trace_path = Path(tmp) / "trace.csv"
        for name in names:
            iterations, converged, log_ml = run_fit(*fits[name], trace_path)
            digest = hashlib.sha256(trace_path.read_bytes()).hexdigest()
            print(
                f"{name} iterations={iterations} converged={converged} "
                f"log_ml={log_ml:.17g} trace_sha256={digest}",
                flush=True,
            )
    print(f"cpu {time.process_time() - t0:.2f} s over {len(names)} fits", file=sys.stderr)


if __name__ == "__main__":
    main()
