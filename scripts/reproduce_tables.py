"""Rebuild the reference tables from the fixtures bundled with the package.

Prints, for each asset: the sample summary, the model moment statistics
implied by the fitted tempered-stable parameters, and the KS comparison of
the fitted model and the gaussian baseline against the binned empirical
CDF. Ends with the recentering of the crypto fit to its sample mean.

Usage: PYTHONPATH=src python3 scripts/reproduce_tables.py
"""

import json
import math
from pathlib import Path

import numpy as np

import gtsfit
from gtsfit import gof
from gtsfit.cli import params_from_json
from gtsfit.model import cumulant, moment_stats

FIXTURES = Path(gtsfit.__file__).parent / "fixtures"

# the crypto series is tabulated in decile units: mean scales by 10,
# variance by 100, the shape statistics are scale free
ASSETS = (("sp500", 1.0), ("spy", 1.0), ("btc", 10.0))


def gaussian_cdf(mu: float, sigma: float, scale: float):
    erf = np.vectorize(math.erf, otypes=[float])
    return lambda x: 0.5 * (1.0 + erf((x * scale - mu) / (sigma * math.sqrt(2.0))))


def main() -> None:
    with open(FIXTURES / "summary_stats.json") as fh:
        summaries = json.load(fh)

    print("sample summaries")
    print(f"{'asset':8} {'m':>6} {'mean':>10} {'variance':>10} {'skew':>9} {'kurt':>9}")
    for name, _ in ASSETS:
        s = summaries[name]
        print(
            f"{name:8} {s['m']:6d} {s['mean']:10.7f} {s['variance']:10.7f} "
            f"{s['skewness']:9.7f} {s['kurtosis']:9.7f}"
        )

    print("\nmodel moment statistics (recentered fits, reporting units)")
    print(f"{'asset':8} {'mean':>10} {'variance':>10} {'skew':>10} {'kurt':>10}")
    for name, scale in ASSETS:
        suffix = "_recentered" if name == "btc" else ""
        law = params_from_json(FIXTURES / f"gts_{name}{suffix}.json")
        mean, var, skew, kurt = moment_stats(law)
        print(
            f"{name:8} {mean * scale:10.7f} {var * scale * scale:10.7f} "
            f"{skew:10.7f} {kurt:10.7f}"
        )

    print("\nKS against the binned empirical CDF")
    print(f"{'asset':8} {'model':6} {'d_m':>10} {'p-value':>10}")
    for name, scale in ASSETS:
        table = gof.load_cdf_table(FIXTURES / f"{name}_cdf.csv")
        emp = table.empirical()
        lookup = dict(zip(table.x, table.f_model))
        fitted = gof.attach_pvalue(
            gof.ks_statistic(np.vectorize(lookup.__getitem__, otypes=[float]), emp)
        )
        print(f"{name:8} {'gts':6} {fitted.d_m:10.7f} {fitted.p_value:10.4%}")
        gb = params_from_json(FIXTURES / f"gbm_{name}.json")
        gauss = gof.attach_pvalue(
            gof.ks_statistic(gaussian_cdf(gb.mu, gb.sigma, scale), emp)
        )
        print(f"{name:8} {'gbm':6} {gauss.d_m:10.7f} {gauss.p_value:10.2e}")

    p = params_from_json(FIXTURES / "gts_btc.json")
    target = summaries["btc"]["mean"]
    mu_new = p.mu + (target / 10.0 - cumulant(p, 1))
    print(
        f"\nrecentering the crypto fit to its sample mean {target:.7f} "
        f"(decile units): mu {p.mu:.7f} -> {mu_new:.7f}"
    )


if __name__ == "__main__":
    main()
