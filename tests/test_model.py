"""Parameter domain, characteristic exponent, cumulants, and derivative algebra.

Complex reference values were frozen from 40-digit mpmath evaluations of the
exponent and independent numerical differentiation of it; the analytic
gradient and Hessian here must land on them without seeing the reference.
"""

import cmath
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtsfit.errors import DomainError
from gtsfit.special import digamma, gamma_real, trigamma
from gtsfit.model import (
    GbmParams,
    GtsParams,
    atom_mass,
    characteristic_exponent,
    characteristic_function,
    cumulant,
    grad_psi,
    hess_psi,
    levy_density,
    psi_jet,
    moment_stats,
    scale_time,
    total_levy_mass,
)

PARAM_IDX = {
    "mu": 0, "beta_plus": 1, "beta_minus": 2, "alpha_plus": 3,
    "alpha_minus": 4, "lambda_plus": 5, "lambda_minus": 6,
}

param_sets = st.builds(
    GtsParams,
    mu=st.floats(-1.0, 1.0),
    beta_plus=st.floats(-0.9, 0.9),
    beta_minus=st.floats(-0.9, 0.9),
    alpha_plus=st.floats(0.05, 2.0),
    alpha_minus=st.floats(0.05, 2.0),
    lambda_plus=st.floats(0.3, 4.0),
    lambda_minus=st.floats(0.3, 4.0),
)

# finite differencing across beta near 0 hits the cancellation in
# Gamma(-b)((lam - i xi)^b - lam^b), so difference-quotient tests keep
# beta away from the limit-branch threshold
beta_away_from_zero = st.floats(-0.9, -0.05) | st.floats(0.05, 0.9)
fd_param_sets = st.builds(
    GtsParams,
    mu=st.floats(-1.0, 1.0),
    beta_plus=beta_away_from_zero,
    beta_minus=beta_away_from_zero,
    alpha_plus=st.floats(0.05, 2.0),
    alpha_minus=st.floats(0.05, 2.0),
    lambda_plus=st.floats(0.3, 4.0),
    lambda_minus=st.floats(0.3, 4.0),
)


class TestDomain:
    def test_beta_at_one_rejected(self):
        with pytest.raises(DomainError):
            GtsParams(0, 1.0, 0.5, 1, 1, 1, 1)

    @pytest.mark.parametrize("b", [-1.0, -2.0, -5.0])
    def test_negative_integer_beta_rejected(self, b):
        with pytest.raises(DomainError):
            GtsParams(0, b, 0.5, 1, 1, 1, 1)

    def test_non_integer_negative_beta_accepted(self):
        p = GtsParams(0, -1.5, -0.3, 1, 1, 1, 1)
        assert p.beta_plus == -1.5

    def test_negative_alpha_rejected(self):
        with pytest.raises(DomainError):
            GtsParams(0, 0.5, 0.5, -0.1, 1, 1, 1)

    def test_zero_alpha_accepted(self):
        assert GtsParams(0, 0.5, 0.5, 0.0, 1, 1, 1).alpha_plus == 0.0

    @pytest.mark.parametrize("lam", [0.0, -1.0])
    def test_nonpositive_lambda_rejected(self, lam):
        with pytest.raises(DomainError):
            GtsParams(0, 0.5, 0.5, 1, 1, lam, 1)

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            GtsParams(math.nan, 0.5, 0.5, 1, 1, 1, 1)

    def test_vector_round_trip(self):
        v = np.array([0.1, 0.2, -0.3, 0.4, 0.5, 1.6, 1.7])
        assert np.array_equal(GtsParams.from_vector(v).to_vector(), v)

    def test_from_vector_shape_checked(self):
        with pytest.raises(DomainError):
            GtsParams.from_vector(np.zeros(6))

    def test_gbm_sigma_positive(self):
        with pytest.raises(DomainError):
            GbmParams(0.0, 0.0)


class TestExponent:
    def test_reference_values(self, sp500_params, spy_params):
        got = characteristic_exponent(sp500_params, 1.0)
        assert got == pytest.approx(
            complex(-0.36947800515579875, 0.090991377715559615), rel=1e-12
        )
        got = characteristic_exponent(spy_params, 1.0)
        assert got == pytest.approx(
            complex(-0.36522648423570125, 0.099194190440452614), rel=1e-12
        )
        got = characteristic_exponent(spy_params, 0.37)
        assert got == pytest.approx(
            complex(-0.062427289502536939, 0.022538750398989747), rel=1e-12
        )

    def test_zero_frequency(self, spy_params):
        assert characteristic_exponent(spy_params, 0.0) == 0.0
        assert characteristic_function(spy_params, 0.0) == 1.0

    @given(param_sets, st.floats(0.01, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_hermitian_symmetry(self, p, xi):
        assert characteristic_function(p, -xi) == pytest.approx(
            characteristic_function(p, xi).conjugate(), rel=1e-12, abs=1e-300
        )

    @given(param_sets, st.floats(0.0, 50.0))
    @settings(max_examples=60, deadline=None)
    def test_modulus_bounded_by_one(self, p, xi):
        assert abs(characteristic_function(p, xi)) <= 1.0 + 1e-12

    def test_vectorized_matches_scalar(self, spy_params):
        xi = np.array([0.0, 0.5, -2.0, 17.0])
        vec = characteristic_exponent(spy_params, xi)
        for x, v in zip(xi, vec):
            assert v == pytest.approx(characteristic_exponent(spy_params, float(x)), rel=1e-14)

    def test_beta_branch_continuity(self, psi_mp):
        """Psi takes one closed form on both sides of |beta| = 1e-7, where a
        switch to the beta -> 0 limit once sat: at beta+ = 5e-8 and 2e-7,
        and so across them, it lands within 1e-15 of its size on 40-digit
        mpmath."""
        base = dict(mu=0.1, beta_minus=0.3, alpha_plus=0.8, alpha_minus=0.6,
                    lambda_plus=1.5, lambda_minus=1.1)
        xi = np.array([0.4, 3.0, 21.0])
        for beta in (5e-8, 2e-7):
            p = GtsParams(beta_plus=beta, **base)
            want = psi_mp(p, xi)
            got = characteristic_exponent(p, xi)
            assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want)), (beta, got - want)

    @pytest.mark.parametrize("beta", [0.0, 1e-20, -1e-20, 1e-12, 1e-8, -1e-8, 5e-8, -5e-8,
                                      -9.9e-8, 2e-7, -2e-7])
    @pytest.mark.parametrize("lam", [0.05, 1.2407793, 20.0])
    def test_near_zero_beta_matches_mpmath(self, psi_mp, beta, lam):
        """Psi and Phi near beta = 0 against 40-digit mpmath, on both tails,
        for xi from 1e-3 to 1e4: Psi within 1e-15 of the row's largest
        entry and Phi within 1e-15 of 1, its value at xi = 0. A tail with
        |beta| below BETA_LIMIT takes its beta = 0 limit, which is exact to
        rounding there; every other beta takes the closed form."""
        xi = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 200)))
        p = GtsParams(0.1, beta, beta, 0.6, 0.8, lam, lam)
        want = psi_mp(p, xi)
        err = np.max(np.abs(characteristic_exponent(p, xi) - want)) / np.max(np.abs(want))
        assert err <= 1e-15
        assert np.max(np.abs(characteristic_function(p, xi) - np.exp(want))) <= 1e-15

    def test_vg_reduction(self):
        """beta -> 0 on both tails with equal alphas is the variance-gamma law."""

        def vg_exponent(mu, alpha, lambda_plus, lambda_minus, xi):
            prod = lambda_plus * lambda_minus
            return 1j * mu * xi - alpha * cmath.log(
                1.0 - 1j * (lambda_minus - lambda_plus) * xi / prod + xi * xi / prod
            )

        p = GtsParams(0.25, 0.0, 0.0, 0.7, 0.7, 1.4, 0.9)
        for xi in (0.3, 1.0, 8.0):
            assert characteristic_exponent(p, xi) == pytest.approx(
                vg_exponent(0.25, 0.7, 1.4, 0.9, xi), rel=1e-12
            )

    def test_bilateral_gamma_reduction(self):
        """Unequal alphas at beta = 0 factor into two gamma-log terms."""
        p = GtsParams(0.0, 0.0, 0.0, 0.9, 0.4, 2.0, 1.3)
        xi = 1.7
        expected = -0.9 * cmath.log((2.0 - 1j * xi) / 2.0) - 0.4 * cmath.log(
            (1.3 + 1j * xi) / 1.3
        )
        assert characteristic_exponent(p, xi) == pytest.approx(expected, rel=1e-12)


class TestLevyMeasure:
    def test_density_reference(self, sp500_params):
        assert levy_density(sp500_params, 0.5) == pytest.approx(
            1.0236428237445812, rel=1e-13
        )
        assert levy_density(sp500_params, -0.75) == pytest.approx(
            0.3515154677336961, rel=1e-13
        )

    def test_density_at_zero_rejected(self, sp500_params):
        with pytest.raises(DomainError):
            levy_density(sp500_params, 0.0)

    def test_mass_infinite_when_beta_nonnegative(self, spy_params):
        assert total_levy_mass(spy_params) == math.inf

    def test_atom_mass(self, spy_params):
        assert atom_mass(spy_params) == 0.0
        p = GtsParams(0.0, -0.5, -0.5, 0.5, 0.5, 1.0, 1.0)
        assert atom_mass(p) == pytest.approx(math.exp(-math.sqrt(math.pi)), rel=1e-14)
        assert atom_mass(GtsParams(0.3, 0.5, 0.5, 0.0, 0.0, 1.0, 1.0)) == 1.0
        # a jump intensity beyond float range leaves no atom
        assert atom_mass(GtsParams(0.0, -0.5, -0.5, 1.0, 1.0, 1e-300, 1.0)) == 0.0

    def test_mass_closed_form_for_finite_activity(self):
        p = GtsParams(0, -0.2560435, -0.5, 1.2868131, 0.4, 3.7929526, 1.1)
        from gtsfit.special import gamma_real

        expected = 1.2868131 * 3.7929526**-0.2560435 * gamma_real(0.2560435)
        expected += 0.4 * 1.1**-0.5 * gamma_real(0.5)
        assert total_levy_mass(p) == pytest.approx(expected, rel=1e-13)
        assert 1.2868131 * 3.7929526**-0.2560435 * gamma_real(0.2560435) == pytest.approx(
            3.2336416139920914, rel=1e-13
        )


class TestCumulants:
    def test_moment_stats_reference(self, sp500_params, spy_params, btc_recentered_params):
        for p, expected in [
            (sp500_params, (0.0414354651, 0.958685922, -0.584386172, 7.2851468)),
            (spy_params, (0.0489188755, 0.956838349, -0.632246646, 7.6521788)),
            (btc_recentered_params, (0.0179099084, 0.155529029, -0.411987149, 8.27451496)),
        ]:
            got = moment_stats(p)
            for g, e in zip(got, expected):
                assert g == pytest.approx(e, rel=1e-8)

    @given(fd_param_sets)
    @settings(max_examples=40, deadline=None)
    def test_cumulants_match_exponent_derivatives(self, p):
        """kappa_k is the k-th derivative of Psi at 0 over i^k."""
        h = 1e-3
        xi = np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) * h
        vals = characteristic_exponent(p, xi)
        d1 = (vals[0] - 8 * vals[1] + 8 * vals[3] - vals[4]) / (12 * h)
        d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (
            12 * h * h
        )
        k1, k2 = cumulant(p, 1), cumulant(p, 2)
        assert (d1 / 1j).real == pytest.approx(k1, rel=2e-5, abs=2e-6)
        assert (d2 / (1j * 1j)).real == pytest.approx(k2, rel=2e-5, abs=2e-6)

    def test_order_validated(self, spy_params):
        with pytest.raises(DomainError):
            cumulant(spy_params, 0)

    @pytest.mark.parametrize(
        "lambda_plus, k", [(1e-200, 3), (1e-320, 2), (1e300, 2), (1.0, 200)]
    )
    def test_non_finite_cumulant_is_domain_error(self, lambda_plus, k):
        """lambda^(k - beta) that under- or overflows, or a Gamma(k - beta)
        beyond float range, gives no finite cumulant: a DomainError."""
        p = GtsParams(0.0, 0.5, 0.5, 0.5, 0.5, lambda_plus, 1.0)
        with pytest.raises(DomainError, match=f"cumulant {k} is not a finite float"):
            cumulant(p, k)

    @given(param_sets, st.floats(0.25, 6.0))
    @settings(max_examples=40, deadline=None)
    def test_time_scaling_is_linear_in_cumulants(self, p, t):
        q = scale_time(p, t)
        for k in (1, 2, 3, 4):
            assert cumulant(q, k) == pytest.approx(t * cumulant(p, k), rel=1e-12, abs=1e-12)

    def test_time_scaling_multiplies_exponent(self, spy_params):
        q = scale_time(spy_params, 2.5)
        for xi in (0.3, 1.0, 4.0):
            assert characteristic_exponent(q, xi) == pytest.approx(
                2.5 * characteristic_exponent(spy_params, xi), rel=1e-12
            )

    def test_time_scale_validated(self, spy_params):
        with pytest.raises(DomainError):
            scale_time(spy_params, 0.0)


GRAD_REFERENCE = {
    "mu": 1j,
    "beta_plus": complex(-0.064371562317878, 2.47678145613089),
    "beta_minus": complex(0.0171374833430462, -0.558632790227192),
    "alpha_plus": complex(-0.27367610704585, 1.57569788568979),
    "alpha_minus": complex(-0.373238606632689, -0.955811706006117),
    "lambda_plus": complex(0.169075746441082, -0.300983366927761),
    "lambda_minus": complex(0.267610488025368, 0.279598293863363),
}

HESS_REFERENCE = {
    ("beta_plus", "beta_plus"): complex(-0.1772391667093, 11.33361629155),
    ("beta_plus", "lambda_plus"): complex(-0.04012880968417, -0.1581112286131),
    ("lambda_plus", "lambda_plus"): complex(-0.2572741022663, 0.2386582389373),
    ("alpha_plus", "beta_plus"): complex(-0.1011290331122, 3.891074021971),
    ("beta_minus", "lambda_minus"): complex(-0.1443217034608, 0.05338948142465),
    ("mu", "mu"): 0.0,
}


# second-order Taylor coefficient of Gamma(z) about z = 0
_C2 = 0.5 * np.euler_gamma**2 + math.pi**2 / 12.0


def _side_derivs_at_zero(alpha, lam, w):
    """Test oracle: first and second partials of one tail term in (alpha,
    beta, lambda) at beta = 0 and the complex nodes w = lambda -+ i xi, from
    the complex log L = log w. With D_k = L^k - log^k(lambda), the series
    Gamma(-beta)(w^beta - lam^beta) = -D1 - beta(g D1 + D2/2) - ... gives
    the beta-derivatives at the limit point.

    Keys: a, b, l (first order) and ab, al, bb, bl, ll. The mu row and the
    cross-tail blocks of the Hessian are identically zero.
    """
    L = np.log(w)
    ln_lam = math.log(lam)
    d1 = L - ln_lam
    d2 = L * L - ln_lam**2
    d3 = L * L * L - ln_lam**3
    g1 = -(np.euler_gamma * d1 + 0.5 * d2)
    iw = 1.0 / w
    il = 1.0 / lam
    e0 = il - iw
    return {
        "a": -d1,
        "b": alpha * g1,
        "l": alpha * e0,
        "ab": g1,
        "al": e0,
        "bb": -alpha * (2.0 * _C2 * d1 + np.euler_gamma * d2 + d3 / 3.0),
        "bl": -alpha * (np.euler_gamma * (iw - il) + L * iw - ln_lam * il),
        "ll": alpha * (iw * iw - il * il),
    }


def _side_derivs_mp(alpha, beta, lam, sign, xi):
    """The 8 rows of one tail at w = lambda + sign i xi, beta != 0, keyed as
    _side_derivs_at_zero keys them, evaluated in mpmath from L = log w,
    w^beta = exp(beta L), w^(beta - 1) = w^beta / w and w^(beta - 2) =
    w^(beta - 1) / w, each row rounded once: the complex-log form psi_jet
    took before it moved to real arithmetic, with none of the float
    rounding that psi_jet's fused powers lambda^beta z, z u and z u^2 carry.

    Gamma(-beta), digamma(-beta) and trigamma(-beta) are formed exactly from
    the package's float values at 1 - beta, which psi_jet takes:
    Gamma(-beta) = -Gamma(1 - beta) / beta, digamma(-beta) =
    digamma(1 - beta) + 1 / beta and trigamma(-beta) = trigamma(1 - beta) +
    1 / beta^2. So the oracle measures the arithmetic of the jet, not those
    special functions (checked in test_special.py). The terms of the bb row
    cancel by about beta^2, so the working precision is 40 digits plus two
    per decade of |beta| below 1: at 40 digits alone that row reads 1e-13
    off at beta = 1e-10 and is all rounding at beta = -1e-15."""
    dps = 40 + max(0, round(-2.0 * math.log10(abs(beta))))
    with mpmath.workdps(dps):
        a, b, lm = mpmath.mpf(alpha), mpmath.mpf(beta), mpmath.mpf(lam)
        g = -mpmath.mpf(gamma_real(1.0 - beta)) / b
        p0 = mpmath.mpf(digamma(1.0 - beta)) + 1 / b
        p1 = mpmath.mpf(trigamma(1.0 - beta)) + 1 / b**2
        ln_lam = mpmath.log(lm)
        lb, lb1, lb2 = lm**b, lm ** (b - 1), lm ** (b - 2)
        rows = {k: [] for k in ("b", "a", "l", "bb", "ab", "bl", "al", "ll")}
        for x in xi:
            w = mpmath.mpc(lm, sign * mpmath.mpf(x))
            L = mpmath.log(w)
            wb = mpmath.exp(b * L)
            wb1 = wb / w
            wb2 = wb1 / w
            d0, d1 = wb - lb, wb * L - lb * ln_lam
            d2 = wb * L * L - lb * ln_lam**2
            e0, e1 = wb1 - lb1, wb1 * L - lb1 * ln_lam
            ab = g * (d1 - p0 * d0)
            al = g * b * e0
            vals = {
                "b": a * ab,
                "a": g * d0,
                "l": a * al,
                "bb": a * g * ((p0 * p0 + p1) * d0 - 2 * p0 * d1 + d2),
                "ab": ab,
                "bl": a * g * ((1 - b * p0) * e0 + b * e1),
                "al": al,
                "ll": a * g * b * (b - 1) * (wb2 - lb2),
            }
            for k, v in vals.items():
                rows[k].append(complex(v))
    return {k: np.array(v) for k, v in rows.items()}


# a tail's rows in psi_jet: gradient rows (b, a, l) and Hessian pairs
_TAIL_ROWS = {
    side: dict(
        zip(
            ("b", "a", "l", "bb", "ab", "bl", "al", "ll"),
            (b, a, l, (b, b), (b, a), (b, l), (a, l), (l, l)),
        )
    )
    for side, (b, a, l) in enumerate(((1, 3, 5), (2, 4, 6)))
}


def _jet_tail(p, xi, side):
    """One tail's 8 rows of psi_jet, keyed as the oracles key them."""
    grad, hess = psi_jet(p, xi)
    return {k: grad[i] if isinstance(i, int) else hess[i] for k, i in _TAIL_ROWS[side].items()}


def _tails(p):
    """(side, alpha, beta, lambda, sign) for the plus and minus tails."""
    return tuple((side, *tail) for side, tail in enumerate(p.tails))


def _row_errors(got, want):
    """Each row's largest gap from want, relative to want's largest entry."""
    return {k: np.max(np.abs(got[k] - r)) / np.max(np.abs(r)) for k, r in want.items()}


def _jet_errors(p, xi, sides=(0, 1), keys=None):
    """For each tail in sides, _row_errors of psi_jet's rows (those in keys,
    default all 8) against the 40-digit _side_derivs_mp."""
    out = {}
    for side, alpha, beta, lam, sign in _tails(p):
        if side in sides:
            exact = _side_derivs_mp(alpha, beta, lam, sign, xi)
            exact = {k: exact[k] for k in keys or exact}
            out[side] = _row_errors(_jet_tail(p, xi, side), exact)
    return out


class TestJetAgainstOracles:
    """psi_jet, built in real arithmetic, against the test-only oracles: the
    mpmath jet _side_derivs_mp at beta != 0, and at beta = 0 the complex-log
    jet _side_derivs_at_zero, whose series values are exact enough there."""

    XI = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 200)))

    @pytest.mark.parametrize(
        "beta", [0.0, 5e-8, -5e-8, -9.9e-8, 1e-20, -1e-20, 1e-12, 1e-8, -1e-8, 2e-7, -2e-7]
    )
    @pytest.mark.parametrize("lam", [0.05, 1.2407793, 20.0])
    def test_limit_window_matches_complex_log(self, beta, lam):
        """Near beta = 0 every beta takes _tail_jet's one path, with no
        switch to the beta = 0 limit: each row lands within 1e-15 of its
        largest entry on the oracle, on both tails, at beta = 0, in the
        |beta| < 1e-7 window a switch once used and just outside it. The
        mpmath oracle costs about 0.25 ms a node, so it reads the class's
        201 nodes; the complex-log oracle at beta = 0 reads 4001."""
        p = GtsParams(0.1, beta, beta, 0.6, 0.8, lam, lam)
        if beta == 0.0:
            xi = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 4000)))
            errors = {
                side: _row_errors(
                    _jet_tail(p, xi, side), _side_derivs_at_zero(alpha, lm, lm + sign * 1j * xi)
                )
                for side, alpha, _, lm, sign in _tails(p)
            }
        else:
            errors = _jet_errors(p, self.XI)
        for side, e in errors.items():
            assert max(e.values()) <= 1e-15, (side, e)

    @pytest.mark.parametrize("beta", [0.5, -0.3, 0.0])
    def test_zero_alpha_tail_keeps_alpha_rows(self, beta):
        """A tail with alpha = 0 adds nothing to Psi (_tail_parts skips it),
        but Psi's derivatives in alpha do not vanish: the a, ab and al rows
        match the oracles and the rows carrying a factor alpha are zero."""
        p = GtsParams(0.1, beta, 0.3, 0.0, 0.6, 1.3, 0.9)
        rows = _jet_tail(p, self.XI, 0)
        alpha_rows = ("a", "ab", "al")
        for k in alpha_rows:
            assert np.max(np.abs(rows[k])) > 0.1
        for k in ("b", "l", "bb", "bl", "ll"):
            assert np.all(rows[k] == 0.0)
        if beta == 0.0:
            want = _side_derivs_at_zero(0.0, 1.3, 1.3 - 1j * self.XI)
            errors = _row_errors(rows, {k: want[k] for k in alpha_rows})
        else:
            errors = _jet_errors(p, self.XI, sides=(0,), keys=alpha_rows)[0]
        assert max(errors.values()) <= 1e-15, errors

    def test_results_do_not_alias(self, spy_params, sp500_params):
        """A psi_jet, grad_psi or hess_psi result is its own memory: later
        calls, on other laws and nodes, leave it unchanged."""
        xi = np.linspace(0.0, 50.0, 1001)
        grad, hess = psi_jet(spy_params, xi)
        g1, h1 = grad_psi(spy_params, xi), hess_psi(spy_params, xi)
        kept = (grad.copy(), {k: v.copy() for k, v in hess.items()}, g1.copy(), h1.copy())
        for p, x in ((sp500_params, xi), (sp500_params, 2.0 * xi), (spy_params, xi[:500])):
            psi_jet(p, x)
            grad_psi(p, x)
            hess_psi(p, x)
        assert np.array_equal(grad, kept[0])
        assert all(np.array_equal(hess[k], kept[1][k]) for k in hess)
        assert np.array_equal(g1, kept[2]) and np.array_equal(h1, kept[3])


def test_jet_allocation_bound(spy_params):
    """psi_jet on J nodes allocates one (17, J) complex block, the result,
    and a (3, J) float scratch: 18.5 complex J-rows, traced. The bound is 19
    rows, half a row for small objects (the complex-log jet it replaced
    peaked at 33 rows). Given the block and the scratch it allocates no
    row. On these nodes the spy law's plus tail takes the closed forms and
    its minus tail the series (_tail_jet), so both are held to it."""
    xi = np.linspace(0.0, 800.0, 1 << 17)
    row = 16 * xi.size
    tracemalloc.start()
    try:
        psi_jet(spy_params, xi)
        fresh = tracemalloc.get_traced_memory()[1]
        out, work = np.empty((17, xi.size), dtype=complex), np.empty((3, xi.size))
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        psi_jet(spy_params, xi, out, work)
        given = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert fresh <= 19 * row
    assert given <= 16384


class TestDerivatives:
    def test_gradient_reference(self, spy_params):
        g = grad_psi(spy_params, 1.0)
        for name, expected in GRAD_REFERENCE.items():
            assert g[PARAM_IDX[name]] == pytest.approx(expected, rel=1e-8, abs=1e-12)

    def test_hessian_reference(self, spy_params):
        h = hess_psi(spy_params, 1.0)
        for (na, nb), expected in HESS_REFERENCE.items():
            got = h[PARAM_IDX[na], PARAM_IDX[nb]]
            assert got == pytest.approx(expected, rel=2e-6, abs=1e-10)

    def test_hessian_symmetric_and_structured(self, spy_params):
        h = hess_psi(spy_params, 0.8)
        assert np.allclose(h, h.T)
        assert np.all(h[0] == 0.0)
        assert h[3, 3] == 0.0 and h[4, 4] == 0.0
        assert h[1, 2] == 0.0 and h[3, 4] == 0.0 and h[5, 6] == 0.0

    def test_jet_holds_every_nonzero_hessian_entry(self, spy_params):
        xi = np.array([0.0, 0.8, 5.0])
        grad, entries = psi_jet(spy_params, xi)
        assert np.array_equal(grad, grad_psi(spy_params, xi))
        assert len(entries) == 10 and all(r <= s for r, s in entries)
        h = hess_psi(spy_params, xi)
        for r in range(7):
            for s in range(r, 7):
                if (r, s) in entries:
                    assert np.array_equal(h[r, s], entries[r, s])
                else:
                    assert np.all(h[r, s] == 0.0)

    @pytest.mark.parametrize("law", ["spy_params", "sp500_params", "btc_params"])
    def test_fused_powers_match_unfused(self, request, law):
        """psi_jet takes w^beta, w^(beta - 1) and w^(beta - 2) from one real
        exp and sin/cos pair per node, as lambda^beta z, then z u and z u^2
        (_tail_jet). Each of its rows lands within 1e-15 of that row's
        largest entry on the 40-digit jet that takes each power on its own,
        on both tails and over every grid's frequency range."""
        xi = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 1000)))
        for side, errors in _jet_errors(request.getfixturevalue(law), xi).items():
            assert max(errors.values()) <= 1e-15, (side, errors)

    @pytest.mark.parametrize(
        "beta", [0.95, 0.8, 0.05, 1e-4, 1e-6, -1e-6, -1e-3, -0.089, -0.4, -1.5]
    )
    @pytest.mark.parametrize("lam", [0.05, 1.2407793, 20.0])
    def test_fused_powers_across_beta(self, beta, lam):
        """The same comparison across beta, on both tails. As beta -> 1,
        m (z u - 1) and P z u in the beta-lambda row cancel (m = log lambda
        - digamma(1 - beta) grows as 1 / (1 - beta)), so the rounding of
        z u shows at a few 1e-15 of that row's largest entry; 1e-13 is the
        adjoint Hessian's gate. Near beta = 0, Gamma(-beta) ~ -1 / beta
        multiplies terms that cancel to O(beta): taken that way the
        beta-beta row's error grows about as 1 / beta^3 and is as large as
        the row itself at |beta| = 1e-6, just outside the beta -> 0 window.
        psi_jet sums the parts regular at beta = 0 as series there, and
        beta = -0.089 is the sp500 law's minus tail."""
        xi = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 400)))
        p = GtsParams(0.1, beta, beta, 0.6, 0.6, lam, lam)
        for side, errors in _jet_errors(p, xi).items():
            assert max(errors.values()) <= 1e-13, (side, errors)

    @given(fd_param_sets, st.floats(0.1, 10.0))
    @settings(max_examples=30, deadline=None)
    def test_gradient_matches_finite_differences(self, p, xi):
        g = grad_psi(p, xi)
        v = p.to_vector()
        for k in range(7):
            h = 1e-6 * max(1.0, abs(v[k]))
            vp, vm = v.copy(), v.copy()
            vp[k] += h
            vm[k] -= h
            try:
                fp = characteristic_exponent(GtsParams.from_vector(vp), xi)
                fm = characteristic_exponent(GtsParams.from_vector(vm), xi)
            except DomainError:
                continue
            fd = (fp - fm) / (2 * h)
            assert g[k] == pytest.approx(fd, rel=5e-4, abs=5e-7)

    def test_limit_branch_beta_gradient(self):
        """At beta = 0 the digamma terms of the gradient are exercised.

        The stencil stays at |beta| = 1e-3, outside the band where the
        generic branch cancels catastrophically.
        """
        base = dict(mu=0.1, beta_minus=0.3, alpha_plus=0.8, alpha_minus=0.6,
                    lambda_plus=1.5, lambda_minus=1.1)
        at_zero = GtsParams(beta_plus=0.0, **base)
        h = 1e-3
        for xi in (0.4, 3.0):
            fp = characteristic_exponent(GtsParams(beta_plus=h, **base), xi)
            fm = characteristic_exponent(GtsParams(beta_plus=-h, **base), xi)
            fd = (fp - fm) / (2 * h)
            assert grad_psi(at_zero, xi)[1] == pytest.approx(fd, rel=1e-4)

    def test_hessian_matches_gradient_differences(self, spy_params):
        xi = 2.3
        h = hess_psi(spy_params, xi)
        v = spy_params.to_vector()
        for k in range(7):
            step = 1e-6 * max(1.0, abs(v[k]))
            vp, vm = v.copy(), v.copy()
            vp[k] += step
            vm[k] -= step
            gp = grad_psi(GtsParams.from_vector(vp), xi)
            gm = grad_psi(GtsParams.from_vector(vm), xi)
            fd = (gp - gm) / (2 * step)
            assert np.allclose(h[:, k], fd, rtol=1e-5, atol=1e-7)
