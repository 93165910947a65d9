"""Parameter domain, characteristic exponent, cumulants, and derivative algebra.

Complex reference values were frozen from 40-digit mpmath evaluations of the
exponent and independent numerical differentiation of it; the analytic
gradient and Hessian here must land on them without seeing the reference.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtsfit.errors import DomainError
from gtsfit.special import digamma, gamma_real, trigamma
from gtsfit.model import (
    GbmParams,
    GtsParams,
    _side_derivs,
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

    def test_beta_branch_continuity(self):
        """The log branch used inside |beta| < 1e-7 meets the generic branch.

        Inside the threshold the exponent evaluates the beta -> 0 limit, so
        the generic branch just outside must sit one beta sensitivity away.
        """
        base = dict(mu=0.1, beta_minus=0.3, alpha_plus=0.8, alpha_minus=0.6,
                    lambda_plus=1.5, lambda_minus=1.1)
        inside = GtsParams(beta_plus=5e-8, **base)
        outside = GtsParams(beta_plus=2e-7, **base)
        for xi in (0.4, 3.0, 21.0):
            a = characteristic_exponent(inside, xi)
            b = characteristic_exponent(outside, xi)
            predicted = grad_psi(outside, xi)[1] * outside.beta_plus
            assert abs((b - a) - predicted) < 0.05 * abs(predicted) + 1e-12

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


def _side_derivs_unfused(alpha, beta, lam, w):
    """_side_derivs off the beta -> 0 branch with each complex power of w
    taken on its own, as w**beta, w**(beta - 1) and w**(beta - 2)."""
    L = np.log(w)
    ln_lam = math.log(lam)
    g = gamma_real(-beta)
    p0 = digamma(-beta)
    p1 = trigamma(-beta)
    wb = w**beta
    lb = lam**beta
    d0 = wb - lb
    d1 = wb * L - lb * ln_lam
    d2 = wb * L * L - lb * ln_lam**2
    e0 = w ** (beta - 1.0) - lam ** (beta - 1.0)
    e1 = w ** (beta - 1.0) * L - lam ** (beta - 1.0) * ln_lam
    return {
        "a": g * d0,
        "b": alpha * g * (d1 - p0 * d0),
        "l": alpha * g * beta * e0,
        "ab": g * (d1 - p0 * d0),
        "al": g * beta * e0,
        "bb": alpha * g * ((p0 * p0 + p1) * d0 - 2.0 * p0 * d1 + d2),
        "bl": alpha * g * ((1.0 - beta * p0) * e0 + beta * e1),
        "ll": alpha * g * beta * (beta - 1.0) * (w ** (beta - 2.0) - lam ** (beta - 2.0)),
    }


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

    @staticmethod
    def _fused_gap(alpha, beta, lam, w):
        """Largest gap between _side_derivs and the unfused oracle over the
        rows, each relative to that row's largest entry."""
        got = _side_derivs(alpha, beta, lam, w)
        want = _side_derivs_unfused(alpha, beta, lam, w)
        return max(np.max(np.abs(got[k] - r)) / np.max(np.abs(r)) for k, r in want.items())

    @pytest.mark.parametrize("law", ["spy_params", "sp500_params", "btc_params"])
    def test_fused_powers_match_unfused(self, request, law):
        """w^beta = exp(beta log w), then w^(beta-1) and w^(beta-2) by
        division, agree with the separate complex powers to within 1e-15 of
        each row's largest entry, on both tails and over every grid's
        frequency range."""
        p = request.getfixturevalue(law)
        xi = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 4000)))
        for alpha, beta, lam, w in (
            (p.alpha_plus, p.beta_plus, p.lambda_plus, p.lambda_plus - 1j * xi),
            (p.alpha_minus, p.beta_minus, p.lambda_minus, p.lambda_minus + 1j * xi),
        ):
            assert self._fused_gap(alpha, beta, lam, w) <= 1e-15

    @pytest.mark.parametrize("beta", [0.95, 0.8, 0.05, 1e-6, -1e-6, -0.4, -1.5])
    @pytest.mark.parametrize("lam", [0.05, 1.2407793, 20.0])
    def test_fused_powers_across_beta(self, beta, lam):
        """The same comparison across the beta != 0 branch. As beta -> 1,
        e0 = w^(beta-1) - lam^(beta-1) cancels and 1 - beta digamma(-beta)
        grows, so the rounding of w^(beta-1), in either formula, shows at a
        few 1e-14 of the beta-lambda row's largest entry; 1e-13 is the
        adjoint Hessian's gate."""
        xi = np.concatenate(([0.0], np.geomspace(1e-3, 1e4, 4000)))
        assert self._fused_gap(0.6, beta, lam, lam - 1j * xi) <= 1e-13

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
