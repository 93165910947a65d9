"""Shared fixtures: packaged parameter sets and synthetic samples."""

import json
from pathlib import Path

import numpy as np
import pytest

import gtsfit
from gtsfit.cli import params_from_json
from gtsfit.frft import _half_nodes, _spectrum, _window
from gtsfit.model import BETA_LIMIT, GtsParams, grad_psi, hess_psi
from gtsfit.sampler import SampleConfig, sample_gts
from gtsfit.special import gamma_real

FIXTURES = Path(gtsfit.__file__).parent / "fixtures"


def _side_oracle(alpha, beta, lam, w):
    """One tail's term of Psi by complex powers and logs, w = lambda -+ i xi,
    in the precision of w. Gamma(-beta) is the package's own scalar (checked
    in test_special.py): the oracle checks the complex-plane arithmetic of
    the tail terms, not that constant."""
    lam = w.real.dtype.type(lam)
    if alpha == 0.0:
        return np.zeros_like(w)
    if abs(beta) < BETA_LIMIT:
        return -alpha * (np.log(w) - np.log(lam))
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


def _derivative_rows(p, grid):
    """The density row, the 7 gradient rows and the 28 curvature rows
    (r <= s, row-major) of the density on the grid's x nodes, shape
    (36, n). Each spectrum is its Psi-derivative polynomial from
    grad_psi/hess_psi times _spectrum, inverted by _window: 36
    inverse FFTs, where the package's level-36 batch inverts 8 rows and sums
    the curvatures by the adjoint. The oracle of those sums."""
    _, xi = _half_nodes(grid)
    spec = _spectrum(p, grid, xi)
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
