"""Shared fixtures: packaged parameter sets and synthetic samples."""

import functools
import json
from pathlib import Path

import mpmath
import numpy as np
import pytest

import gtsfit
from gtsfit.cli import params_from_json
from gtsfit.frft import _half_nodes, _spectrum, _window
from gtsfit.model import GtsParams, grad_psi, hess_psi
from gtsfit.sampler import SampleConfig, sample_gts
from gtsfit.special import gamma_real

FIXTURES = Path(gtsfit.__file__).parent / "fixtures"


# |beta| below which _side_oracle takes a tail's term from mpmath: there
# w^beta - lambda^beta cancels to about beta log(w / lambda), and the complex
# powers lose about 1 / |beta log(w / lambda)| ulps of the term, even in long
# double
_NEAR_ZERO_BETA = 1e-7


def _side_mp(alpha, beta, lam, w):
    """One tail's term of Psi at the complex nodes w = lambda -+ i xi (floats
    in any precision) in 40-digit mpmath, rounded once to complex: -alpha
    Gamma(1 - beta) lambda^beta expm1(beta P) / beta with P = log(w /
    lambda), and its limit -alpha P at beta = 0. Every constant is mpmath's
    own, so nothing cancels in float."""
    return alpha * _unit_side_mp(float(beta), float(lam), tuple(complex(z) for z in w))


@functools.lru_cache(maxsize=64)
def _unit_side_mp(beta, lam, w):
    """_side_mp at alpha = 1, kept per (beta, lambda, nodes): the term is
    linear in alpha, and a lattice of laws repeats each tail."""
    with mpmath.workdps(40):
        b, lm = mpmath.mpf(beta), mpmath.mpf(lam)
        scale = -1 if b == 0 else -mpmath.gamma(1 - b) * lm**b / b
        out = []
        for z in w:
            P = mpmath.log(mpmath.mpc(z.real, z.imag) / lm)
            out.append(complex(scale * (P if b == 0 else mpmath.expm1(b * P))))
    return np.array(out)


def _psi_mp(p, xi):
    """Psi(xi) at the float nodes xi from 40-digit mpmath tails (_side_mp)."""
    xi = np.asarray(xi, dtype=float)
    out = 1j * p.mu * xi
    for alpha, beta, lam, sign in p.tails:
        out = out + _side_mp(alpha, beta, lam, lam + sign * 1j * xi)
    return out


@pytest.fixture(scope="session")
def psi_mp():
    return _psi_mp


def _side_oracle(alpha, beta, lam, w):
    """One tail's term of Psi by complex powers and logs, w = lambda -+ i xi,
    in the precision of w. Gamma(-beta) is the package's own scalar (checked
    in test_special.py): the oracle checks the complex-plane arithmetic of
    the tail terms, not that constant. For |beta| < _NEAR_ZERO_BETA, where
    the powers cancel, the term is _side_mp's, 40-digit mpmath throughout."""
    if alpha == 0.0:
        return np.zeros_like(w)
    if abs(beta) < _NEAR_ZERO_BETA:
        return _side_mp(alpha, beta, lam, w).astype(w.dtype)
    lam = w.real.dtype.type(lam)
    return alpha * gamma_real(-beta) * (w**beta - lam**beta)


def _psi_oracle(p, xi):
    """Psi(xi) by complex powers and logs, the formula the package used
    before it took Psi in real arithmetic; computed at the precision of the
    float array xi (np.longdouble nodes give a reference with 11 more bits)."""
    xi = np.asarray(xi)
    return (
        1j * p.mu * xi
        + _side_oracle(p.alpha_plus, p.beta_plus, p.lambda_plus, p.lambda_plus - 1j * xi)
        + _side_oracle(p.alpha_minus, p.beta_minus, p.lambda_minus, p.lambda_minus + 1j * xi)
    )


@pytest.fixture(scope="session")
def psi_oracle():
    return _psi_oracle


@pytest.fixture(scope="session")
def cf_oracle():
    """The characteristic function exp(Psi) from the complex-power oracle."""
    return lambda p, xi: np.exp(_psi_oracle(p, xi))


def _derivative_rows(p, grid, deconvolve=None):
    """The density row, the 7 gradient rows and the 28 curvature rows
    (r <= s, row-major) of the density on the grid's x nodes, shape
    (36, n). Each spectrum is its Psi-derivative polynomial from
    grad_psi/hess_psi times _spectrum, inverted by _window: 36
    inverse FFTs, where the package's level-36 batch inverts 8 rows and sums
    the curvatures by the adjoint. The oracle of those sums. With
    deconvolve (a kernel read's 1 / K-hat row) every spectrum is multiplied
    by it, so the rows are those a kernel read reads."""
    _, xi = _half_nodes(grid)
    spec = _spectrum(p, grid, xi)
    if deconvolve is not None:
        spec = spec * deconvolve
    gp = grad_psi(p, xi)
    hp = hess_psi(p, xi)
    rows = [spec] + [gp[r] * spec for r in range(7)]
    rows += [(hp[r, s] + gp[r] * gp[s]) * spec for r in range(7) for s in range(r, 7)]
    return _window(np.array(rows), grid)


@pytest.fixture(scope="session")
def derivative_rows():
    return _derivative_rows


def load_gts(name: str) -> GtsParams:
    return params_from_json(FIXTURES / name)


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def sp500_params():
    return load_gts("gts_sp500.json")


@pytest.fixture(scope="session")
def spy_params():
    return load_gts("gts_spy.json")


@pytest.fixture(scope="session")
def btc_params():
    return load_gts("gts_btc.json")


@pytest.fixture(scope="session")
def btc_recentered_params():
    return load_gts("gts_btc_recentered.json")


@pytest.fixture(scope="session")
def summary_stats_fixture():
    with open(FIXTURES / "summary_stats.json", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="session")
def spy_sample_600(spy_params):
    return sample_gts(spy_params, SampleConfig(n=600, seed=5))


@pytest.fixture(scope="session")
def spy_sample_3000(spy_params):
    return sample_gts(spy_params, SampleConfig(n=3000, seed=42))


@pytest.fixture()
def rng():
    return np.random.default_rng(20260816)
