"""Exact finite-sample null distribution of the KS statistic.

Prints the mean, standard deviation, and upper critical value of D_m under
the null for the requested sample size, from the exact CDF rather than the
asymptotic limit.

Usage: PYTHONPATH=src python3 scripts/null_distribution.py 3048 [--alpha 0.05]
"""

import argparse

from gtsfit.gof import ks_null_summary


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("m", type=int, help="sample size")
    ap.add_argument("--alpha", type=float, default=0.05)
    args = ap.parse_args()

    ns = ks_null_summary(args.m, args.alpha)
    print(f"m = {args.m}")
    print(f"mean D_m        {ns.mean:.7f}")
    print(f"sd D_m          {ns.sd:.7f}")
    print(f"critical value  {ns.critical_d:.7f}  (alpha = {args.alpha})")


if __name__ == "__main__":
    main()
