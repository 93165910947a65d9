"""Gamma-family functions against high-precision reference values.

Reference values were generated with mpmath at 40 digits and frozen here;
the implementations must agree to near machine precision on both sides of
zero, where the tempering exponents actually live.
"""

import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gtsfit.errors import DomainError, PoleError
from gtsfit.model import GtsParams, atom_mass
from gtsfit.special import digamma, gamma_real, trigamma

GAMMA_POINTS = [
    (0.5, 1.772453850905516),
    (-0.5174702, -3.5474875135758705),
    (0.0888191, 10.762943848186153),
    (-0.3863913, -3.7753961384672608),
    (0.2560435, 3.5352474329672407),
    (7.5, 1871.2543057977883),
    (-6.3, -0.0030542314729988982),
    (29.5, 1.6348125198274266e30),
]

DIGAMMA_POINTS = [
    (-0.5174702, -0.11990138485204038),
    (0.2560435, -4.125827975301639),
    (-0.1531474, 5.6677717079004781),
    (6.25, 1.750453526883736),
    (-6.3, 4.2003210041401845),
]

TRIGAMMA_POINTS = [
    (-0.5174702, 8.978859284230291),
    (0.2560435, 16.442960239062491),
    (-0.1531474, 44.74400986918169),
    (6.25, 0.17347923315893217),
]


@pytest.mark.parametrize("x,expected", GAMMA_POINTS)
def test_gamma_reference(x, expected):
    assert gamma_real(x) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("x,expected", DIGAMMA_POINTS)
def test_digamma_reference(x, expected):
    assert digamma(x) == pytest.approx(expected, rel=5e-15)


@pytest.mark.parametrize("x,expected", TRIGAMMA_POINTS)
def test_trigamma_reference(x, expected):
    assert trigamma(x) == pytest.approx(expected, rel=5e-15)


@pytest.mark.parametrize("fn", [gamma_real, digamma, trigamma])
@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0])
def test_poles_rejected(fn, x):
    with pytest.raises(PoleError):
        fn(x)


# beta in [-1.95, 0.95] in steps of 0.01, off the pole of Gamma(-beta) at 0
TAIL_BETAS = [j / 100 for j in range(-195, 96) if j != 0]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_gamma_matches_mpmath_on_tail_arguments(k):
    """Gamma(k - beta): the tail scale at k = 0, the cumulants at k >= 1."""
    with mpmath.workdps(40):
        bad = []
        for beta in TAIL_BETAS:
            x = k - beta
            ref = mpmath.gamma(mpmath.mpf(x))
            rel = abs(float((mpmath.mpf(gamma_real(x)) - ref) / ref))
            if rel > 2e-15:
                bad.append((x, rel))
    assert not bad


def test_gamma_overflow_raises():
    with pytest.raises(OverflowError):
        gamma_real(172.0)


@pytest.mark.parametrize("fn", [gamma_real, digamma, trigamma])
@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_non_finite_rejected(fn, x):
    with pytest.raises(DomainError, match="finite"):
        fn(x)


def test_atom_mass_underflows_when_jump_mass_overflows():
    # Gamma(200.5) overflows a float, so the atom's mass is 0
    assert atom_mass(GtsParams(0.0, -0.5, -200.5, 1.0, 1.0, 1.0, 1.0)) == 0.0


def test_pole_error_is_domain_error():
    assert issubclass(PoleError, DomainError)


@given(st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=60)
def test_gamma_reflection(x):
    lhs = gamma_real(x) * gamma_real(1.0 - x)
    assert lhs == pytest.approx(math.pi / math.sin(math.pi * x), rel=1e-11)


@given(st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=80)
def test_gamma_recurrence(x):
    if abs(x - round(x)) < 1e-3 or abs(x) < 1e-3:
        return
    assert gamma_real(x + 1.0) == pytest.approx(x * gamma_real(x), rel=1e-10)


@given(st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=80)
def test_digamma_recurrence(x):
    if abs(x - round(x)) < 1e-3:
        return
    assert digamma(x + 1.0) == pytest.approx(digamma(x) + 1.0 / x, rel=1e-9, abs=1e-10)


@given(st.floats(min_value=-8.0, max_value=8.0))
@settings(max_examples=80)
def test_trigamma_recurrence(x):
    if abs(x - round(x)) < 1e-3:
        return
    assert trigamma(x + 1.0) == pytest.approx(trigamma(x) - 1.0 / (x * x), rel=1e-9, abs=1e-10)
