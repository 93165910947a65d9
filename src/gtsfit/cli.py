"""Command-line surface: summarize, fit, gof, plot, simulate, recenter.

Exit codes: 0 success, 2 input or validation problem, 3 the optimizer did
not converge (the trace is still written), 4 numerical failure (grid,
likelihood, or linear algebra). Output files with relative paths land in
$GTSFIT_OUTDIR when that is set. A JSON object file passed as --config,
before the subcommand, supplies per-flag defaults; explicit flags win.

Params JSON schema (schema_version 1):
  {"schema_version": 1, "model": "gts", "mu": ..., "beta_plus": ...,
   "beta_minus": ..., "alpha_plus": ..., "alpha_minus": ...,
   "lambda_plus": ..., "lambda_minus": ...}
or {"schema_version": 1, "model": "gbm", "mu": ..., "sigma": ...}.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys

import numpy as np

from . import data_io, gof, mle, sampler
from .errors import (
    ConvergenceError,
    DataError,
    DomainError,
    GridError,
    LikelihoodError,
)
from .frft import auto_grid, cdf_field, density_field, interpolate
from .model import PARAM_NAMES, GbmParams, GtsParams, cumulant

SCHEMA_VERSION = 1


def _outpath(path: str) -> str:
    base = os.environ.get("GTSFIT_OUTDIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write_or_print(text: str, out) -> None:
    if out:
        with open(_outpath(out), "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def params_to_json(p) -> str:
    if isinstance(p, GtsParams):
        doc = {"schema_version": SCHEMA_VERSION, "model": "gts"}
        doc.update({k: v for k, v in zip(PARAM_NAMES, p.to_vector())})
    elif isinstance(p, GbmParams):
        doc = {
            "schema_version": SCHEMA_VERSION,
            "model": "gbm",
            "mu": p.mu,
            "sigma": p.sigma,
        }
    else:
        raise DomainError(f"cannot serialize {type(p).__name__}")
    return json.dumps(doc, indent=2)


def params_from_json(path):
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: unreadable params JSON ({exc})") from exc
    model = doc.get("model")
    try:
        if model == "gts":
            return GtsParams(*(float(doc[k]) for k in PARAM_NAMES))
        if model == "gbm":
            return GbmParams(mu=float(doc["mu"]), sigma=float(doc["sigma"]))
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from exc
    raise DataError(f"{path}: unknown model {model!r}")


def _read_returns(path) -> np.ndarray:
    """One numeric column, by name 'return'/'sample' or as the only column."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise DataError(f"{path}: empty file")
    header = rows[0]
    col = 0
    start = 1
    lowered = [h.strip().lower() for h in header]
    if "return" in lowered:
        col = lowered.index("return")
    elif "sample" in lowered:
        col = lowered.index("sample")
    elif len(header) == 1:
        try:
            float(header[0])
            start = 0
        except ValueError:
            start = 1
    else:
        raise DataError(f"{path}: no 'return' column and more than one column")
    vals = []
    for i, row in enumerate(rows[start:], start=start + 1):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        try:
            v = float(row[col])
        except (ValueError, IndexError) as exc:
            raise DataError(f"{path} row {i}: bad value") from exc
        if not math.isfinite(v):
            raise DataError(f"{path} row {i}: return must be finite, got {row[col].strip()}")
        vals.append(v)
    if not vals:
        raise DataError(f"{path}: no data rows")
    return np.asarray(vals)


def _outlier_policy(text: str):
    kind, _, val = text.partition(":")
    try:
        x = float(val)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad outlier policy {text!r}")
    if kind == "abs":
        return data_io.AbsThreshold(x)
    if kind == "sigma":
        return data_io.SigmaMultiple(x)
    raise argparse.ArgumentTypeError(f"unknown outlier policy kind {kind!r}")


def _init_vector(text: str) -> GtsParams:
    parts = [s for s in text.replace(",", " ").split() if s]
    if len(parts) != 7:
        raise argparse.ArgumentTypeError("init needs 7 comma-separated values")
    try:
        return GtsParams(*(float(s) for s in parts))
    except ValueError as exc:
        # a DomainError is a ValueError; argparse would replace either's
        # text by "invalid _init_vector value"
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _model_cdf(p, x_lo: float, x_hi: float):
    """CDF over [x_lo, x_hi] for either model, read on arrays of points."""
    if isinstance(p, GbmParams):
        erf = np.vectorize(math.erf, otypes=[float])
        return lambda x: 0.5 * (1.0 + erf((x - p.mu) / (p.sigma * math.sqrt(2.0))))
    field = cdf_field(p, auto_grid(p, x_lo, x_hi))
    return lambda x: interpolate(field, x)


def cmd_summarize(args) -> int:
    prices = data_io.load_prices(args.prices, args.date_column, args.price_column)
    returns = data_io.log_returns(prices)
    removed = []
    if args.outlier is not None:
        returns, removed = data_io.remove_outliers(returns, args.outlier)
    stats = data_io.summary_stats(returns)
    doc = {"schema_version": SCHEMA_VERSION}
    doc.update(stats._asdict())
    if args.outlier is not None:
        doc["removed"] = [int(i) for i in removed]
    _write_or_print(json.dumps(doc, indent=2), args.out)
    return 0


def cmd_fit(args) -> int:
    y = _read_returns(args.returns)
    if args.model == "gbm":
        _write_or_print(params_to_json(mle.fit_gbm(y)), args.out)
        return 0
    opts = mle.FitOptions(
        init=args.init,
        tol_grad=args.tol,
        max_iter=args.max_iter,
    )
    try:
        params, trace, converged = mle.fit(y, opts)
    except ConvergenceError as exc:
        if args.trace and exc.trace is not None:
            exc.trace.to_csv(_outpath(args.trace))
        print(f"fit failed: {exc}", file=sys.stderr)
        return 3
    if args.trace:
        trace.to_csv(_outpath(args.trace))
    _write_or_print(params_to_json(params), args.out)
    if not converged:
        print("fit stopped without reaching convergence; see the trace", file=sys.stderr)
        return 3
    return 0


def cmd_gof(args) -> int:
    if args.binned:
        table = gof.load_cdf_table(args.input)
        emp = table.empirical()
        if args.m is not None:
            emp = gof.EmpiricalDistribution(
                emp.edges, np.rint(table.f_emp * args.m).astype(np.int64), args.m
            )
        if args.use_table_model:
            lookup = dict(zip(table.x, table.f_model))
            model = np.vectorize(lookup.__getitem__, otypes=[float])
        elif args.params:
            p = params_from_json(args.params)
            model = _model_cdf(p, float(emp.edges[0]), float(emp.edges[-1]))
        else:
            raise DataError("binned mode needs --params or --use-table-model")
    else:
        y = _read_returns(args.input)
        if not args.params:
            raise DataError("gof on raw returns needs --params")
        emp = gof.EmpiricalDistribution.from_samples(y)
        p = params_from_json(args.params)
        model = _model_cdf(p, float(y.min()), float(y.max()))
    report = gof.attach_pvalue(gof.ks_statistic(model, emp))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "d_m": report.d_m,
        "m": report.m,
        "p_value": report.p_value,
        "sup_at": report.sup_at,
        "component": report.component,
        "components": list(report.components),
    }
    _write_or_print(json.dumps(doc, indent=2), args.out)
    return 0


def _svg_plot(centers, series, path) -> None:
    """Static line/step chart; fixed canvas, no timestamps, byte-stable."""
    width, height, margin = 800, 500, 50
    xs = np.asarray(centers)
    ymax = max(float(np.max(v)) for _, v, _ in series) or 1.0
    x0, x1 = float(xs.min()), float(xs.max())

    def px(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def py(y):
        return height - margin - y / (1.06 * ymax) * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for label, values, color in series:
        pts = " ".join(
            f"{px(x):.2f},{py(float(v)):.2f}" for x, v in zip(xs, values)
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"><title>{label}</title></polyline>'
        )
    for i, (label, _, color) in enumerate(series):
        yl = margin + 18 * i
        parts.append(
            f'<rect x="{width - margin - 150}" y="{yl - 9}" width="12" '
            f'height="12" fill="{color}"/>'
        )
        parts.append(
            f'<text x="{width - margin - 132}" y="{yl + 2}" '
            f'font-size="13" font-family="sans-serif">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def cmd_plot(args) -> int:
    y = _read_returns(args.returns)
    p = params_from_json(args.params)
    if not isinstance(p, GtsParams):
        raise DataError("plot needs a gts params file via --params")
    if args.bins < 1:
        raise DataError(f"--bins must be at least 1, got {args.bins}")
    gbm = params_from_json(args.gbm) if args.gbm else mle.fit_gbm(y)
    edges = np.linspace(y.min(), y.max(), args.bins + 1)
    counts, _ = np.histogram(y, bins=edges)
    widths = np.diff(edges)
    emp = counts / (y.size * widths)
    centers = 0.5 * (edges[:-1] + edges[1:])
    dens = density_field(p, auto_grid(p, float(y.min()), float(y.max())))
    gts_d = interpolate(dens, centers)
    z = (centers - gbm.mu) / gbm.sigma
    gbm_d = np.exp(-0.5 * z * z) / (gbm.sigma * math.sqrt(2.0 * math.pi))
    csv_path = _outpath(args.out_csv)
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("bin_center,empirical_density,gts_density,gbm_density\n")
        for row in zip(centers, emp, gts_d, gbm_d):
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
    _svg_plot(
        centers,
        [
            ("empirical", emp, "#888888"),
            ("gts", gts_d, "#c0392b"),
            ("gbm", gbm_d, "#2471a3"),
        ],
        _outpath(args.out_svg),
    )
    return 0


def cmd_simulate(args) -> int:
    p = params_from_json(args.params)
    if not isinstance(p, GtsParams):
        raise DataError("simulate supports gts params only")
    draws = sampler.sample_gts(p, sampler.SampleConfig(n=args.n, seed=args.seed))
    if args.out:
        sampler.samples_to_csv(draws, _outpath(args.out))
    else:
        sampler._write_samples(sys.stdout, draws)
    return 0


def cmd_recenter(args) -> int:
    p = params_from_json(args.params)
    if not isinstance(p, GtsParams):
        raise DataError("recenter applies to gts params only")
    if not (args.unit_scale > 0.0 and math.isfinite(args.unit_scale)):
        raise DataError(f"--unit-scale must be finite and positive, got {args.unit_scale}")
    target_model_units = args.target / args.unit_scale
    mu_new = p.mu + (target_model_units - cumulant(p, 1))
    shifted = GtsParams(
        mu_new, p.beta_plus, p.beta_minus, p.alpha_plus, p.alpha_minus,
        p.lambda_plus, p.lambda_minus,
    )
    _write_or_print(params_to_json(shifted), args.out)
    return 0


def _build_parser(config=None) -> argparse.ArgumentParser:
    """The gtsfit parser; `config` (a dict) becomes every subcommand's defaults.
    A config key that is not the dest of some subcommand flag exits 2."""
    ap = argparse.ArgumentParser(
        prog="gtsfit",
        description="Tempered-stable return-distribution fitting and testing",
    )
    ap.add_argument("--config", help="JSON file with per-flag defaults")
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("summarize", help="moment summary of a price series")
    s.add_argument("prices")
    s.add_argument("--date-column", default="date")
    s.add_argument("--price-column", default="price")
    s.add_argument("--outlier", type=_outlier_policy, default=None,
                   help="abs:CUTOFF or sigma:K")
    s.add_argument("--out")
    s.set_defaults(func=cmd_summarize)

    fit_defaults = mle.FitOptions()
    s = sub.add_parser("fit", help="maximum likelihood fit of a return series")
    s.add_argument("returns")
    s.add_argument("--model", choices=("gts", "gbm"), default="gts")
    s.add_argument("--init", type=_init_vector, default=fit_defaults.init,
                   help="7 comma-separated starting values")
    s.add_argument("--tol", type=float, default=fit_defaults.tol_grad)
    s.add_argument("--max-iter", type=int, default=fit_defaults.max_iter)
    s.add_argument("--trace", help="write the iteration trace CSV here")
    s.add_argument("--out")
    s.set_defaults(func=cmd_fit)

    s = sub.add_parser("gof", help="Kolmogorov-Smirnov test of a fitted model")
    s.add_argument("input", help="returns CSV, or a binned CDF table with --binned")
    s.add_argument("--params", help="params JSON for the model CDF")
    s.add_argument("--binned", action="store_true",
                   help="input is an x_j,n_j,F_n,F table")
    s.add_argument("--use-table-model", action="store_true",
                   help="take the model CDF from the table's F column")
    s.add_argument("--m", type=int, default=None,
                   help="override the sample size recovered from the table")
    s.add_argument("--out")
    s.set_defaults(func=cmd_gof)

    s = sub.add_parser("plot", help="histogram vs fitted densities, CSV and SVG")
    s.add_argument("returns")
    s.add_argument("--params", required=True)
    s.add_argument("--gbm", help="gbm params JSON (default: fit from the data)")
    s.add_argument("--bins", type=int, default=50)
    s.add_argument("--out-csv", default="plot.csv")
    s.add_argument("--out-svg", default="plot.svg")
    s.set_defaults(func=cmd_plot)

    s = sub.add_parser("simulate", help="draw synthetic samples from gts params")
    s.add_argument("--params", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--seed", type=int, required=True)
    s.add_argument("--out")
    s.set_defaults(func=cmd_simulate)

    s = sub.add_parser("recenter", help="shift mu so the model mean hits a target")
    s.add_argument("--params", required=True)
    s.add_argument("--target", type=float, required=True)
    s.add_argument("--unit-scale", type=float, default=1.0,
                   help="reporting units per model unit for the target")
    s.add_argument("--out")
    s.set_defaults(func=cmd_recenter)

    # a config key must name some subcommand's flag: anything else (a typo,
    # or an internal dest such as func) would be applied silently
    flags = {
        a.dest for s in sub.choices.values() for a in s._actions if a.option_strings
    } - {"help"}
    for key in config or {}:
        if key not in flags:
            ap.error(f"bad config: {key!r} is not the name of any subcommand flag")
    for s in sub.choices.values():
        s.set_defaults(**(config or {}))
    return ap


def _read_config(pre: argparse.ArgumentParser, path: str) -> dict:
    """The --config file's flag defaults; an unusable file exits 2 via pre."""
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        pre.error(f"bad config: {exc}")
    if not isinstance(cfg, dict):
        pre.error(f"bad config: {path} must hold a JSON object")
    return cfg


@functools.cache
def _parsers() -> tuple:
    """The --config pre-parser and the parser without config defaults, once
    per process: a parser is a web of reference cycles that only the rare
    full collection frees, so one per call grew a repeat caller's heap."""
    pre = argparse.ArgumentParser(prog="gtsfit", add_help=False)
    pre.add_argument("--config")
    return pre, _build_parser()


def main(argv=None) -> int:
    args_in = list(sys.argv[1:] if argv is None else argv)
    pre, plain = _parsers()
    try:
        cfg_path = pre.parse_known_args(args_in)[0].config
        cfg = None if cfg_path is None else _read_config(pre, cfg_path)
        args = (_build_parser(cfg) if cfg else plain).parse_args(args_in)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (DataError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (GridError, LikelihoodError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entrypoint() -> None:
    sys.exit(main())
