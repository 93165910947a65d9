"""Acceptance checks pinning the package against its reference quantities.

Each test prints one PASS/FAIL line for its criterion. Two checks are
expected failures and marked strict-xfail with the measured values in the
reason: the shipped binned CDF tables disagree with a CDF recomputed from
the shipped parameters on a third of their rows, and the reference null sd
is smaller than the exact value by a factor near sqrt(3). Criterion 11
needs the original index return series and is skipped unless
GTSFIT_SP500_RETURNS points at a returns CSV.
"""

import functools
import json
import math
import os

import numpy as np
import pytest
from scipy.integrate import quad

from gtsfit import cli, gof
from gtsfit.frft import GridSpec, auto_grid, cdf_field, density_field, interpolate
from gtsfit.mle import DEFAULT_INIT, FitOptions, fit, fit_gbm, hessian, log_likelihood, score
from gtsfit.model import GtsParams, moment_stats
from gtsfit.sampler import SampleConfig, sample_gts

# summary cells for the three assets: mean, variance, skewness, kurtosis,
# with the crypto series reported in decile units (10 k1, 100 k2)
MOMENT_CELLS = {
    "sp500": ((0.0414355, 0.9586858, -0.5843860, 7.2851465), 1.0),
    "spy": ((0.0489189, 0.9568384, -0.6322466, 7.6521787), 1.0),
    "btc": ((0.1790993, 15.5529035, -0.4119871, 8.2745146), 10.0),
}

# KS reference: statistic, p-value, and the gaussian-baseline statistic
KS_CELLS = {
    "sp500": (0.0231677, 0.0748, 0.0911980),
    "spy": (0.0225265, 0.0895, 0.0920545),
    "btc": (0.0264200, 0.0206, 0.1034062),
}

GBM_UNIT_SCALE = {"sp500": 1.0, "spy": 1.0, "btc": 10.0}


def _table_model(table):
    lookup = dict(zip(table.x, table.f_model))
    return np.vectorize(lookup.__getitem__, otypes=[float])


def test_criterion_01_moment_cells(sp500_params, spy_params, btc_recentered_params):
    worst = 0.0
    for name, p in [
        ("sp500", sp500_params), ("spy", spy_params), ("btc", btc_recentered_params),
    ]:
        cells, scale = MOMENT_CELLS[name]
        mean, var, skew, kurt = moment_stats(p)
        got = (mean * scale, var * scale * scale, skew, kurt)
        worst = max(worst, max(abs(g - e) for g, e in zip(got, cells)))
    ok = worst <= 1e-5
    print(f"criterion 1: {'PASS' if ok else 'FAIL'} (max cell error {worst:.2e})")
    assert ok


def test_criterion_02_density_inversion_fidelity(spy_params, cf_oracle):
    rng = np.random.default_rng(7)
    xs = rng.uniform(-6.0, 6.0, 20)
    g = auto_grid(spy_params, -6.5, 6.5)
    vals = interpolate(density_field(spy_params, g), xs)
    worst = 0.0
    for x, v in zip(xs, vals):
        oracle = (
            quad(
                lambda xi: (
                    cf_oracle(spy_params, xi) * np.exp(-1j * x * xi)
                ).real,
                0.0,
                g.xi_max,
                limit=400,
            )[0]
            / math.pi
        )
        worst = max(worst, abs(v - oracle))
    g2 = GridSpec(
        n=2 * g.n, x_center=g.x_center, dx=g.dx / 2,
        xi_max=g.xi_max, tail_tol=g.tail_tol,
    )
    doubled = interpolate(density_field(spy_params, g2), xs)
    drift = float(np.max(np.abs(vals - doubled)))
    ok = worst <= 1e-7 and drift <= 1e-8
    print(
        f"criterion 2: {'PASS' if ok else 'FAIL'} "
        f"(quadrature gap {worst:.2e}, grid-doubling drift {drift:.2e})"
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the shipped table's F column disagrees with the CDF recomputed "
    "from the shipped parameters: only 65.5% of rows fall within 5e-4 "
    "(max gap 1.2e-2); the table column is self-consistent with its "
    "statistic instead (criteria 4-5)",
)
def test_criterion_03_cdf_against_table_column(spy_params, fixtures_dir):
    table = gof.load_cdf_table(fixtures_dir / "spy_cdf.csv")
    g = auto_grid(spy_params, float(table.x[0]) - 1.0, float(table.x[-1]) + 1.0)
    model = interpolate(cdf_field(spy_params, g), table.x)
    errs = np.abs(model - table.f_model)
    frac = float(np.mean(errs <= 5e-4))
    ok = frac >= 0.95
    print(f"criterion 3: {'PASS' if ok else 'FAIL'} (fraction within 5e-4: {frac:.4f})")
    assert ok


def test_criterion_04_ks_statistic_printed_values(fixtures_dir):
    worst = 0.0
    for name in ("sp500", "spy"):
        table = gof.load_cdf_table(fixtures_dir / f"{name}_cdf.csv")
        rep = gof.ks_statistic(_table_model(table), table.empirical())
        worst = max(worst, abs(rep.d_m - KS_CELLS[name][0]))
        if name == "spy":
            printed = (0.0141807, 0.0225265)
            comp_gap = max(
                abs(c - e) for c, e in zip(sorted(rep.components), sorted(printed))
            )
            worst = max(worst, comp_gap)
    ok = worst <= 1e-7
    print(f"criterion 4: {'PASS' if ok else 'FAIL'} (max statistic error {worst:.2e})")
    assert ok


def test_criterion_05_exact_pvalues(fixtures_dir):
    gaps = {}
    gbm_ps = {}
    for name in ("sp500", "spy", "btc"):
        table = gof.load_cdf_table(fixtures_dir / f"{name}_cdf.csv")
        emp = table.empirical()
        rep = gof.attach_pvalue(gof.ks_statistic(_table_model(table), emp))
        gaps[name] = abs(rep.p_value - KS_CELLS[name][1])
        with open(fixtures_dir / f"gbm_{name}.json") as fh:
            gb = json.load(fh)
        scale = GBM_UNIT_SCALE[name]
        erf = np.vectorize(math.erf, otypes=[float])
        gauss = lambda x: 0.5 * (
            1.0 + erf((x * scale - gb["mu"]) / (gb["sigma"] * math.sqrt(2.0)))
        )
        gbm_rep = gof.attach_pvalue(gof.ks_statistic(gauss, emp))
        assert abs(gbm_rep.d_m - KS_CELLS[name][2]) <= 1e-7
        gbm_ps[name] = gbm_rep.p_value
    ok = (
        gaps["sp500"] <= 0.001
        and gaps["spy"] <= 0.001
        and gaps["btc"] <= 0.002
        and all(p < 1e-4 for p in gbm_ps.values())
    )
    print(
        f"criterion 5: {'PASS' if ok else 'FAIL'} "
        f"(p gaps sp500 {gaps['sp500']:.2e}, spy {gaps['spy']:.2e}, "
        f"btc {gaps['btc']:.2e}; gbm p max {max(gbm_ps.values()):.1e})"
    )
    assert ok


def test_criterion_06_null_summary_mean_and_critical():
    ns = gof.ks_null_summary(3048, 0.05)
    mean_gap = abs(ns.mean - 0.0156)
    crit_gap = abs(ns.critical_d - 0.0245)
    ok = mean_gap <= 2e-4 and crit_gap <= 2e-4
    print(
        f"criterion 6 (mean, critical): {'PASS' if ok else 'FAIL'} "
        f"(mean {ns.mean:.7f}, critical {ns.critical_d:.7f})"
    )
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="exact null sd at m=3048 is 0.0047150; the reference value 0.0027 "
    "is smaller by almost exactly sqrt(3), consistent with quoting a "
    "dispersion of averaged statistics rather than of the statistic",
)
def test_criterion_06_null_summary_sd():
    ns = gof.ks_null_summary(3048, 0.05)
    gap = abs(ns.sd - 0.0027)
    ok = gap <= 2e-4
    print(f"criterion 6 (sd): {'PASS' if ok else 'FAIL'} (sd {ns.sd:.7f})")
    assert ok


def test_criterion_07_score_hessian_finite_differences(spy_params):
    y = sample_gts(spy_params, SampleConfig(n=500, seed=2718))
    sc = score(spy_params, y)
    v = spy_params.to_vector()
    worst_s = 0.0
    for k in range(7):
        h = 1e-5 * max(1.0, abs(v[k]))
        vp, vm = v.copy(), v.copy()
        vp[k] += h
        vm[k] -= h
        fd = (
            log_likelihood(GtsParams.from_vector(vp), y)
            - log_likelihood(GtsParams.from_vector(vm), y)
        ) / (2 * h)
        worst_s = max(worst_s, abs(sc[k] - fd) / max(1.0, abs(fd)))
    hs = hessian(spy_params, y)
    worst_h = 0.0
    for k in range(7):
        h = 1e-5 * max(1.0, abs(v[k]))
        vp, vm = v.copy(), v.copy()
        vp[k] += h
        vm[k] -= h
        fd = (
            score(GtsParams.from_vector(vp), y) - score(GtsParams.from_vector(vm), y)
        ) / (2 * h)
        scale = max(1.0, float(np.max(np.abs(fd))))
        worst_h = max(worst_h, float(np.max(np.abs(hs[:, k] - fd))) / scale)
    ok = worst_s <= 1e-4 and worst_h <= 1e-3
    print(
        f"criterion 7: {'PASS' if ok else 'FAIL'} "
        f"(score rel {worst_s:.2e}, hessian rel {worst_h:.2e})"
    )
    assert ok


def test_criterion_08_round_trip_fit(spy_params, spy_sample_3000):
    # started at the generating parameters: the draw is from the fitted
    # family, so the check isolates optimizer termination quality
    p, trace, converged = fit(spy_sample_3000, FitOptions(init=spy_params))
    last = trace.rows[-1]
    ll_true = log_likelihood(spy_params, spy_sample_3000)
    ok = (
        converged
        and last.grad_norm < 1e-9
        and last.max_eigenvalue <= 1e-6
        and last.log_ml >= ll_true
    )
    print(
        f"criterion 8: {'PASS' if ok else 'FAIL'} "
        f"(iterations {len(trace.rows)}, grad norm {last.grad_norm:.2e}, "
        f"top eigenvalue {last.max_eigenvalue:.4f}, "
        f"log-ML gain over truth {last.log_ml - ll_true:+.4f})"
    )
    assert ok


def test_criterion_09_recentering(fixtures_dir, capsys):
    rc = cli.main(
        [
            "recenter", "--params", str(fixtures_dir / "gts_btc.json"),
            "--target", "0.1790993", "--unit-scale", "10",
        ]
    )
    doc = json.loads(capsys.readouterr().out)
    gap = abs(doc["mu"] - 0.0665537)
    ok = rc == 0 and gap <= 1e-6
    with capsys.disabled():
        print(f"criterion 9: {'PASS' if ok else 'FAIL'} (mu {doc['mu']:.9f})")
    assert ok


def test_criterion_10_gbm_baseline(fixtures_dir, summary_stats_fixture):
    worst = 0.0
    for name in ("sp500", "spy", "btc"):
        s = summary_stats_fixture[name]
        base = np.arange(s["m"], dtype=float)
        base = (base - base.mean()) / base.std()
        series = s["mean"] + base * math.sqrt(s["variance"])
        got = fit_gbm(series)
        with open(fixtures_dir / f"gbm_{name}.json") as fh:
            ref = json.load(fh)
        worst = max(worst, abs(got.mu - ref["mu"]), abs(got.sigma - ref["sigma"]))
    # reference values are truncated at 7 decimals, so one ulp of the last
    # printed digit is the attainable agreement
    ok = worst <= 1e-7
    print(f"criterion 10: {'PASS' if ok else 'FAIL'} (max parameter error {worst:.2e})")
    assert ok


@pytest.mark.skipif(
    not os.environ.get("GTSFIT_SP500_RETURNS"),
    reason="set GTSFIT_SP500_RETURNS to the index return CSV to enable",
)
def test_criterion_11_dataset_fit():
    y = cli._read_returns(os.environ["GTSFIT_SP500_RETURNS"])
    p, trace, converged = fit(y, FitOptions(init=DEFAULT_INIT, max_iter=200))
    last = trace.rows[-1]
    expected = (-0.5274011, 0.5174702, -0.0888191, 0.6735391, 0.6083026,
                1.2665066, 1.0807322)
    param_gap = max(abs(a - b) for a, b in zip(p.to_vector(), expected))
    ll_gap = abs(last.log_ml - (-3938.9016))
    ok = converged and param_gap <= 5e-5 and ll_gap <= 0.01
    print(
        f"criterion 11: {'PASS' if ok else 'FAIL'} "
        f"(param gap {param_gap:.2e}, log-ML gap {ll_gap:.2e})"
    )
    assert ok


# the most iterations each stand-in fit may take
STAND_IN_ROWS = {"sp500": 30, "spy": 30, "btc": 40, "btc_recentered": 40}


@functools.lru_cache(maxsize=None)
def _stand_in_fit(name, fixtures_dir):
    truth = cli.params_from_json(fixtures_dir / f"gts_{name}.json")
    y = sample_gts(truth, SampleConfig(n=3046, seed=11))
    return truth, y, fit(y, FitOptions(init=DEFAULT_INIT))


@pytest.mark.parametrize("name", STAND_IN_ROWS)
def test_criterion_11_simulated_stand_in(name, fixtures_dir):
    """Criterion 11's fit from DEFAULT_INIT, on a draw of the paper's size
    from a bundled law in place of the index series: 17-20 iterations on the
    S&P and spy laws, 32-35 on the two BTC laws."""
    truth, y, (_, trace, converged) = _stand_in_fit(name, fixtures_dir)
    assert converged
    assert len(trace.rows) <= STAND_IN_ROWS[name]
    assert trace.rows[-1].log_ml > log_likelihood(truth, y)


def test_criterion_11_stand_in_shift_equivariant(fixtures_dir):
    """The two BTC laws differ only in mu, so their seed-11 draws are the
    same data shifted; the fits from one start reach the same maximum."""
    lls = [
        _stand_in_fit(name, fixtures_dir)[2][1].rows[-1].log_ml
        for name in ("btc", "btc_recentered")
    ]
    assert abs(lls[0] - lls[1]) <= 1e-9
