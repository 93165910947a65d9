"""Correctness checks for the benchmark's operations.

Every check compares an output with a computation made apart from the
program (scipy quadrature of the closed-form characteristic function,
scipy.stats.kstest and kstwo, a numpy uint64 xoshiro256**) or with a
property the method must have (a converged Newton endpoint is a strict local
maximum with zero score). None compares with a stored copy of an earlier
output. Each check returns a list of (name, ok, detail) rows.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special, stats

_MASK = (1 << 64) - 1

# Tolerances, each from the accuracy the compared computations claim.
DENSITY_ATOL = 1e-7     # FRFT density vs quad (quad error estimates ~1e-8)
CDF_ATOL = 1e-7         # FRFT CDF vs quad
KS_D_ATOL = 1e-12       # same CDF values, same sup: rounding only
PVALUE_ATOL = 1e-7      # ks_exact_cdf is exact to ~1e-7 absolute
NULL_ATOL = 1e-7        # Simpson/bisection summary vs kstwo; bisection tol 1e-7
COVERAGE_TOL = 1e-6     # F(x_i) = u_i, the sampler's documented guarantee
EIG_SLACK = 1e-6        # the fit's own stopping rule
SCORE_GAIN_MAX = 1e-6   # log-likelihood a Newton step on the FD score could add
TRACE_LL_ATOL = 1e-8    # trace log-ML vs a fresh evaluation at its params


def _row(name, ok, detail):
    return (name, bool(ok), detail)


# -- closed-form characteristic function, written apart from gtsfit.model -----


def psi(v, xi):
    """Characteristic exponent of the bilateral tempered-stable law."""
    mu, bp, bm, ap, am, lp, lm = v
    xi = np.asarray(xi, dtype=float)

    def side(a, b, lam, w):
        if a == 0.0:
            return 0.0
        if b == 0.0:
            return -a * (np.log(w) - math.log(lam))
        return a * special.gamma(-b) * (w**b - lam**b)

    return 1j * mu * xi + side(ap, bp, lp, lp - 1j * xi) + side(am, bm, lm, lm + 1j * xi)


def density_quad(v, x):
    """f(x) = (1/pi) int_0^inf Re[Phi(xi) e^{-i x xi}] d xi by QUADPACK QAWF."""
    re = lambda s: np.exp(psi(v, s)).real
    im = lambda s: np.exp(psi(v, s)).imag
    a = integrate.quad(re, 0.0, np.inf, weight="cos", wvar=x, limlst=200)[0]
    b = integrate.quad(im, 0.0, np.inf, weight="sin", wvar=x, limlst=200)[0]
    return (a + b) / math.pi


def cdf_quad(v, x, split=1.0):
    """Gil-Pelaez: F(x) = 1/2 - (1/pi) int_0^inf Im[Phi(xi) e^{-i x xi}] / xi.

    The integrand is regular at 0 but the cos/sin weighted pieces are not,
    so [0, split] is integrated directly and the tail by QAWF."""
    head = lambda s: (np.exp(psi(v, s) - 1j * x * s)).imag / s
    h = integrate.quad(head, 0.0, split, limit=200, epsabs=1e-13)[0]
    im = lambda s: np.exp(psi(v, s)).imag / s
    re = lambda s: np.exp(psi(v, s)).real / s
    c = integrate.quad(im, split, np.inf, weight="cos", wvar=x, limlst=200)[0]
    s_ = integrate.quad(re, split, np.inf, weight="sin", wvar=x, limlst=200)[0]
    return 0.5 - (h + c - s_) / math.pi


# -- fit -------------------------------------------------------------------


def check_fit(rc, params, trace_rows, y, truth, tol_grad=1e-9):
    """params: fitted 7-vector from the params JSON; trace_rows: parsed trace
    CSV rows (iteration, 7 params, log_ml, grad_norm, max_eigenvalue)."""
    from gtsfit.errors import DomainError
    from gtsfit.frft import auto_grid, density_field, interpolate
    from gtsfit.mle import hessian, log_likelihood
    from gtsfit.model import GtsParams

    out = [_row("exit_code", rc == 0, f"rc={rc}")]
    if not trace_rows:
        return out + [_row("trace", False, "empty trace")]
    last = trace_rows[-1]
    v = np.asarray(params, dtype=float)
    out.append(_row("params_match_trace", np.array_equal(v, last[1:8]),
                    "params JSON equals the last trace row"))
    gn, me = last[9], last[10]
    out.append(_row("stopping_rule", gn < tol_grad and me <= EIG_SLACK,
                    f"grad_norm={gn:.3e} max_eig={me:.3e}"))
    try:
        p = GtsParams(*v)
    except DomainError as exc:
        return out + [_row("domain", False, repr(exc))]
    ll = log_likelihood(p, y)
    out.append(_row("trace_log_ml", abs(ll - last[8]) <= TRACE_LL_ATOL,
                    f"trace {float(last[8])!r}, fresh {ll!r}"))
    h = hessian(p, y)
    eig = np.linalg.eigvalsh(h)
    out.append(_row("hessian_negative_definite", eig[-1] < 0.0, f"top eig {eig[-1]:.4g}"))
    g = np.empty(7)
    for i in range(7):
        step = 1e-5 * max(1.0, abs(v[i]))
        e = np.zeros(7)
        e[i] = step
        g[i] = (log_likelihood(GtsParams(*(v + e)), y)
                - log_likelihood(GtsParams(*(v - e)), y)) / (2.0 * step)
    try:
        gain = 0.5 * float(g @ np.linalg.solve(-h, g))
    except np.linalg.LinAlgError:
        gain = math.inf
    out.append(_row("fd_score_zero", 0.0 <= gain <= SCORE_GAIN_MAX,
                    f"FD score {np.abs(g).max():.3e}, Newton gain {gain:.3e}"))
    ll_truth = log_likelihood(GtsParams(*truth), y)
    out.append(_row("log_ml_ge_truth", last[8] >= ll_truth,
                    f"log-ML {last[8]:.9f} vs truth {ll_truth:.9f}"))
    xs = np.quantile(y, [0.001, 0.05, 0.5, 0.95, 0.999])
    field = density_field(p, auto_grid(p, float(y.min()), float(y.max())))
    got = interpolate(field, xs)
    ref = np.array([density_quad(v, x) for x in xs])
    gap = float(np.max(np.abs(got - ref)))
    out.append(_row("density_vs_quad", gap <= DENSITY_ATOL, f"max gap {gap:.3e}"))
    return out


# -- gof -------------------------------------------------------------------


def check_gof(rc, doc, y, v):
    from gtsfit.frft import auto_grid, cdf_field, interpolate
    from gtsfit.model import GtsParams

    out = [_row("exit_code", rc == 0, f"rc={rc}")]
    if doc is None:
        return out + [_row("output", False, "no gof JSON")]
    out.append(_row("sample_size", doc["m"] == y.size, f"m={doc['m']}"))
    p = GtsParams(*v)
    field = cdf_field(p, auto_grid(p, float(y.min()), float(y.max())))
    ref = stats.kstest(y, lambda x: interpolate(field, x))
    gap = abs(doc["d_m"] - ref.statistic)
    out.append(_row("d_m_vs_kstest", gap <= KS_D_ATOL,
                    f"D {doc['d_m']!r}, kstest {float(ref.statistic)!r}"))
    sf = float(stats.kstwo.sf(doc["d_m"], y.size))
    gap = abs(doc["p_value"] - sf)
    out.append(_row("p_value_vs_kstwo", gap <= PVALUE_ATOL, f"gap {gap:.3e}"))
    xs = np.quantile(y, [0.01, 0.25, 0.5, 0.75, 0.99])
    gap = float(np.max(np.abs(interpolate(field, xs) - [cdf_quad(v, x) for x in xs])))
    out.append(_row("cdf_vs_quad", gap <= CDF_ATOL, f"max gap {gap:.3e}"))
    return out


# -- KS null summary -------------------------------------------------------


def kstwo_reference(m, alpha=0.05):
    dist = stats.kstwo(m)
    return float(dist.mean()), float(dist.std()), float(dist.isf(alpha))


def check_null(summary, reference):
    out = []
    for name, got, ref in zip(("mean", "sd", "critical_d"), summary, reference):
        gap = abs(got - ref)
        out.append(_row(f"{name}_vs_kstwo", gap <= NULL_ATOL, f"gap {gap:.3e}"))
    return out


# -- simulate --------------------------------------------------------------


def _splitmix64(state, count):
    """count consecutive splitmix64 outputs from a uint64 state."""
    s = np.array([state & _MASK], dtype=np.uint64)
    outs = np.empty(count, dtype=np.uint64)
    for i in range(count):
        s = s + np.uint64(0x9E3779B97F4A7C15)
        z = (s ^ (s >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        outs[i] = (z ^ (z >> np.uint64(31)))[0]
    return outs


def _rotl(x, k):
    return (x << np.uint64(k)) | (x >> np.uint64(64 - k))


def reference_uniforms(seed, n, chunk=65536):
    """Chunked xoshiro256** uniforms, every chunk stepped in lock-step."""
    chunks = (n + chunk - 1) // chunk
    seeds = _splitmix64(seed, chunks)
    state = np.array([_splitmix64(int(c), 4) for c in seeds], dtype=np.uint64).T
    state[0, ~state.any(axis=0)] = 1
    s0, s1, s2, s3 = (state[i].copy() for i in range(4))
    raw = np.empty((chunk, chunks), dtype=np.uint64)
    five, nine, shift = np.uint64(5), np.uint64(9), np.uint64(17)
    for i in range(chunk):
        raw[i] = _rotl(s1 * five, 7) * nine
        t = s1 << shift
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
    u = (raw.T.ravel() >> np.uint64(11)).astype(float) * 2.0**-53
    return u[:n]


def check_simulate(rc, draws, n, seed, v):
    from gtsfit.frft import auto_grid, cdf_field, interpolate
    from gtsfit.model import GtsParams
    from gtsfit.sampler import uniforms

    out = [_row("exit_code", rc == 0, f"rc={rc}")]
    if draws.size != n:
        return out + [_row("draw_count", False, f"{draws.size} draws")]
    u_ref = reference_uniforms(seed, n)
    out.append(_row("uniforms_vs_numpy_xoshiro", np.array_equal(uniforms(seed, n), u_ref),
                    "gtsfit.sampler.uniforms equals the numpy uint64 stream"))
    p = GtsParams(*v)
    field = cdf_field(p, auto_grid(p, float(draws.min()), float(draws.max())))
    gap = float(np.max(np.abs(interpolate(field, draws) - u_ref)))
    out.append(_row("cdf_at_draws", gap <= COVERAGE_TOL, f"max |F(x)-u| {gap:.3e}"))
    return out
