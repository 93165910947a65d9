"""Bilateral tempered stable law: parameters and every closed-form quantity.

The law is parameterized by the 7-vector (mu, beta+, beta-, alpha+, alpha-,
lambda+, lambda-), fixed in that order everywhere (gradients, Hessians,
traces, serialized vectors). Each tail carries an exponentially tempered
power-law jump measure; beta < 0 on a side makes that side's total jump
mass finite (compound Poisson regime), beta in (0, 1) makes it infinite.

The characteristic exponent is

    Psi(xi) = i mu xi
            + alpha+ Gamma(-beta+) ((lambda+ - i xi)^beta+ - lambda+^beta+)
            + alpha- Gamma(-beta-) ((lambda- + i xi)^beta- - lambda-^beta-)

with the understanding that a side with |beta| < BETA_LIMIT switches to its
beta -> 0 limit, -alpha (Log(lambda -+ i xi) - log lambda), where the
Gamma(-beta) pole and the power-difference zero cancel.

One routine, _tail_parts, computes the tail terms, in real arithmetic:
with q = -+ xi / lambda, |lambda -+ i xi|^beta = lambda^beta (1 + q^2)^(beta/2)
from log1p, and the argument beta atan(q), so a term's real and imaginary
parts come from real logs, arctangents, powers and one sin/cos pair, never a
complex power or log. characteristic_exponent and characteristic_function
are built on it, and so is phased_cf, exp(Psi(xi) - i shift xi) times a
scale, which gives the inversion fields their phased spectrum with one real
exp and one cos/sin pair per node. cf_modulus takes |Phi| at one node, for
the grids' tail checks, from the same real parts by scalar math.

The gradient and Hessian of Psi in the parameters are implemented
analytically, including the series values of the beta-derivatives at the
limit point. One routine, psi_jet, evaluates both from a single pass over
each tail; it returns the 7 gradient rows and only the 10 Hessian entries
that are not identically zero. grad_psi and hess_psi are dense views built
on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .special import digamma, gamma_real, trigamma

PARAM_NAMES = (
    "mu",
    "beta_plus",
    "beta_minus",
    "alpha_plus",
    "alpha_minus",
    "lambda_plus",
    "lambda_minus",
)

# width of the beta -> 0 switching window
BETA_LIMIT = 1e-7

# second-order Taylor coefficient of Gamma(z) about z = 0: gamma^2/2 + pi^2/12
_C2 = 0.5 * np.euler_gamma**2 + math.pi**2 / 12.0


class MomentStats(NamedTuple):
    mean: float
    variance: float
    skewness: float
    kurtosis: float


@dataclass(frozen=True)
class GtsParams:
    """Immutable parameter vector with domain validation at construction."""

    mu: float
    beta_plus: float
    beta_minus: float
    alpha_plus: float
    alpha_minus: float
    lambda_plus: float
    lambda_minus: float

    def __post_init__(self):
        vec = self.to_vector()
        if not np.all(np.isfinite(vec)):
            raise DomainError("parameters must be finite")
        for name in ("beta_plus", "beta_minus"):
            b = getattr(self, name)
            if b >= 1.0:
                raise DomainError(f"{name} = {b} must be < 1")
            # exact negative integers are a measure-zero nuisance set where
            # the beta-derivative algebra hits digamma poles; reject outright
            if b <= -1.0 and b == math.floor(b):
                raise DomainError(f"{name} = {b} is an excluded negative integer")
        for name in ("alpha_plus", "alpha_minus"):
            if getattr(self, name) < 0.0:
                raise DomainError(f"{name} must be >= 0")
        for name in ("lambda_plus", "lambda_minus"):
            if getattr(self, name) <= 0.0:
                raise DomainError(f"{name} must be > 0")

    @classmethod
    def from_vector(cls, v) -> "GtsParams":
        v = np.asarray(v, dtype=float)
        if v.shape != (7,):
            raise DomainError(f"expected a 7-vector, got shape {v.shape}")
        return cls(*(float(x) for x in v))

    def to_vector(self) -> np.ndarray:
        return np.array(
            [
                self.mu,
                self.beta_plus,
                self.beta_minus,
                self.alpha_plus,
                self.alpha_minus,
                self.lambda_plus,
                self.lambda_minus,
            ]
        )


@dataclass(frozen=True)
class GbmParams:
    """Gaussian (drift, volatility) baseline for daily returns."""

    mu: float
    sigma: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sigma)):
            raise DomainError("parameters must be finite")
        if self.sigma <= 0.0:
            raise DomainError("sigma must be > 0")


def _as_xi_array(xi):
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    scalar = np.isscalar(xi) or getattr(xi, "ndim", 1) == 0
    return arr, scalar


def levy_density(p: GtsParams, x):
    """Jump measure density alpha e^{-lambda |x|} / |x|^{1+beta}, per tail."""
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(arr == 0.0):
        raise DomainError("levy_density is undefined at x = 0")
    out = np.empty_like(arr)
    pos = arr > 0.0
    out[pos] = (
        p.alpha_plus
        * np.exp(-p.lambda_plus * arr[pos])
        / arr[pos] ** (1.0 + p.beta_plus)
    )
    neg = ~pos
    ax = -arr[neg]
    out[neg] = (
        p.alpha_minus * np.exp(-p.lambda_minus * ax) / ax ** (1.0 + p.beta_minus)
    )
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(out[0])
    return out


def total_levy_mass(p: GtsParams) -> float:
    """Total jump intensity; math.inf when either active side has beta >= 0."""
    total = 0.0
    for alpha, beta, lam in (
        (p.alpha_plus, p.beta_plus, p.lambda_plus),
        (p.alpha_minus, p.beta_minus, p.lambda_minus),
    ):
        if alpha == 0.0:
            continue
        if beta >= 0.0:
            return math.inf
        total += alpha * lam**beta * gamma_real(-beta)
    return total


def atom_mass(p: GtsParams) -> float:
    """Mass exp(-total_levy_mass) of the law's point mass at mu; 0 when
    either active tail has infinite jump activity."""
    try:
        return math.exp(-total_levy_mass(p))
    except OverflowError:
        # the jump intensity overflows a float, so the atom underflows
        return 0.0


def _tail_parts(p: GtsParams, xi: np.ndarray, re: np.ndarray, im: np.ndarray, work):
    """Add the real and imaginary parts of Psi's two tail terms at the float
    nodes xi into re and im, in real arithmetic through the four float rows
    of work. Psi is i mu xi plus these terms.

    A tail with w = lambda -+ i xi has |w| = lambda (1 + q^2)^(1/2) and
    arg w = theta = atan(q), q = -+ xi / lambda, so its term is

        alpha Gamma(-beta) lambda^beta ((1 + q^2)^(beta/2) e^{i beta theta} - 1)

    and, inside the beta -> 0 window, -alpha (log1p(q^2) / 2 + i theta). A
    tail with alpha = 0 adds nothing. The real part is taken as
    m cos(beta theta) - 2 sin^2(beta theta / 2), m = expm1(beta log1p(q^2) / 2),
    so it keeps its relative accuracy as xi -> 0 where (1 + q^2)^(beta/2) and
    cos(beta theta) both tend to 1."""
    half, m, cos_half, tmp = work
    for alpha, beta, lam, sign in (
        (p.alpha_plus, p.beta_plus, p.lambda_plus, -1.0),
        (p.alpha_minus, p.beta_minus, p.lambda_minus, 1.0),
    ):
        if alpha == 0.0:
            continue
        np.divide(xi, sign * lam, out=half)
        np.multiply(half, half, out=m)
        np.log1p(m, out=m)
        np.arctan(half, out=half)
        if abs(beta) < BETA_LIMIT:
            m *= 0.5 * alpha
            re -= m
            half *= alpha
            im -= half
            continue
        scale = alpha * gamma_real(-beta) * lam**beta
        m *= 0.5 * beta
        np.expm1(m, out=m)
        # sin and cos of half the angle beta theta give sin(beta theta) and
        # cos(beta theta) - 1 without cancellation
        half *= 0.5 * beta
        np.cos(half, out=cos_half)
        np.sin(half, out=half)
        cos_half *= half
        np.multiply(m, cos_half, out=tmp)
        tmp += cos_half
        tmp *= 2.0 * scale
        im += tmp
        half *= half
        half *= -2.0
        np.add(half, 1.0, out=tmp)
        tmp *= m
        tmp += half
        tmp *= scale
        re += tmp


def phased_cf(p: GtsParams, xi, shift: float = 0.0, log_scale: float = 0.0, out=None):
    """exp(log_scale) Phi(xi) e^{-i shift xi} = exp(re + i (lin + im)) at the
    float nodes xi, lin = (mu - shift) xi and (re, im) the tail terms from
    _tail_parts, plus log_scale: one real exp and one cos/sin pair, written
    through out.real and out.imag (a new complex array if out is None). The
    call holds six float rows besides out.

    lin reaches about 2e5 rad on a fit's largest grids, where the rounded
    sum s = lin + im drops the low bits of im: 1.5e-11 rad, as much relative
    error where |Phi| has not decayed. Its rounding error e is recovered
    exactly (Knuth's TwoSum) and applied to first order,
    e^{i(s + e)} = e^{is} (1 + i e), |e| <= 2^-53 |s|."""
    work = np.empty((6, xi.size))
    re, im = work[0], work[1]
    re.fill(log_scale)
    im.fill(0.0)
    _tail_parts(p, xi, re, im, work[2:])
    lin, s, b = work[2:5]
    np.multiply(xi, p.mu - shift, out=lin)
    # s = lin + im rounded; e = (lin - (s - b)) + (im - b), b = s - lin,
    # is its exact error, left in lin
    np.add(lin, im, out=s)
    np.subtract(s, lin, out=b)
    im -= b
    np.subtract(s, b, out=b)
    lin -= b
    lin += im
    if out is None:
        out = np.empty(xi.size, dtype=complex)
    real, imag = out.real, out.imag
    np.cos(s, out=real)
    np.sin(s, out=imag)
    np.multiply(lin, imag, out=b)
    np.multiply(lin, real, out=s)
    real -= b
    imag += s
    np.exp(re, out=re)
    real *= re
    imag *= re
    return out


def characteristic_exponent(p: GtsParams, xi):
    """Psi(xi) = log of the characteristic function; Psi(0) = 0."""
    arr, scalar = _as_xi_array(xi)
    re = np.zeros(arr.size)
    im = p.mu * arr
    _tail_parts(p, arr, re, im, np.empty((4, arr.size)))
    val = re + 1j * im
    return complex(val[0]) if scalar else val


def characteristic_function(p: GtsParams, xi):
    arr, scalar = _as_xi_array(xi)
    out = phased_cf(p, arr)
    return complex(out[0]) if scalar else out


def cf_modulus(p: GtsParams, xi: float) -> float:
    """|Phi(xi)| = exp(Re Psi(xi)) at one node. i mu xi and the tails'
    imaginary parts only turn the phase, so this reads the real parts of the
    two tail terms alone, in _tail_parts' form, by scalar math; the array
    routine's fixed cost of some 60 ufunc calls is spent on no node."""
    re = 0.0
    for alpha, beta, lam in (
        (p.alpha_plus, p.beta_plus, p.lambda_plus),
        (p.alpha_minus, p.beta_minus, p.lambda_minus),
    ):
        if alpha == 0.0:
            continue
        q = xi / lam
        log1p_q2 = math.log1p(q * q)
        if abs(beta) < BETA_LIMIT:
            re -= 0.5 * alpha * log1p_q2
            continue
        # 1 - cos(beta theta), from the half angle as in _tail_parts
        vers = 2.0 * math.sin(0.5 * beta * math.atan(q)) ** 2
        m = math.expm1(0.5 * beta * log1p_q2)
        re += alpha * gamma_real(-beta) * lam**beta * (m * (1.0 - vers) - vers)
    return math.exp(re)


def _side_derivs(alpha, beta, lam, w):
    """First and second partials of one tail term in (alpha, beta, lambda).

    Keys: a, b, l (first order) and ab, al, bb, bl, ll. The mu row and the
    cross-tail blocks of the Hessian are identically zero and handled by
    the callers.
    """
    L = np.log(w)
    ln_lam = math.log(lam)
    if abs(beta) < BETA_LIMIT:
        # series values at the limit point beta = 0: with D_k = L^k - log^k(lambda),
        # Gamma(-beta)(w^beta - lam^beta) = -D1 - beta(g D1 + D2/2) - ...
        d1 = L - ln_lam
        d2 = L * L - ln_lam**2
        d3 = L * L * L - ln_lam**3
        g0 = -d1
        g1 = -(np.euler_gamma * d1 + 0.5 * d2)
        g2 = -(2.0 * _C2 * d1 + np.euler_gamma * d2 + d3 / 3.0)
        iw = 1.0 / w
        il = 1.0 / lam
        e0 = il - iw
        return {
            "a": g0,
            "b": alpha * g1,
            "l": alpha * e0,
            "ab": g1,
            "al": e0,
            "bb": alpha * g2,
            "bl": -alpha * (np.euler_gamma * (iw - il) + L * iw - ln_lam * il),
            "ll": alpha * (iw * iw - il * il),
        }
    g = gamma_real(-beta)
    p0 = digamma(-beta)
    p1 = trigamma(-beta)
    # w^beta from the log already taken, then one division per lower power
    wb = np.exp(beta * L)
    wb1 = wb / w
    lb = lam**beta
    lb1 = lam ** (beta - 1.0)
    d0 = wb - lb
    d1 = wb * L - lb * ln_lam
    d2 = wb * L * L - lb * ln_lam**2
    e0 = wb1 - lb1
    e1 = wb1 * L - lb1 * ln_lam
    return {
        "a": g * d0,
        "b": alpha * g * (d1 - p0 * d0),
        "l": alpha * g * beta * e0,
        "ab": g * (d1 - p0 * d0),
        "al": g * beta * e0,
        "bb": alpha * g * ((p0 * p0 + p1) * d0 - 2.0 * p0 * d1 + d2),
        "bl": alpha * g * ((1.0 - beta * p0) * e0 + beta * e1),
        "ll": alpha * g * beta * (beta - 1.0) * (wb1 / w - lam ** (beta - 2.0)),
    }


def psi_jet(p: GtsParams, xi):
    """Gradient and Hessian of Psi in the parameters at the nodes xi, from one
    _side_derivs call per tail.

    Returns (grad, hess): grad is the (7, n) complex dPsi/dV, V ordered as
    PARAM_NAMES; hess maps each of the 10 nonzero upper-triangle pairs
    (r, s), r <= s, to its (n,) row of d2Psi/dVrdVs. Every other entry is
    zero: the mu row and column, the cross-tail blocks, and alpha-alpha
    (Psi is linear in alpha)."""
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    grad = np.empty((7, arr.size), dtype=complex)
    grad[0] = 1j * arr
    hess = {}
    tails = (
        (p.alpha_plus, p.beta_plus, p.lambda_plus, p.lambda_plus - 1j * arr),
        (p.alpha_minus, p.beta_minus, p.lambda_minus, p.lambda_minus + 1j * arr),
    )
    for side, (alpha, beta, lam, w) in enumerate(tails):
        d = _side_derivs(alpha, beta, lam, w)
        b, a, l = 1 + side, 3 + side, 5 + side
        grad[b], grad[a], grad[l] = d["b"], d["a"], d["l"]
        hess[b, b] = d["bb"]
        hess[b, a] = d["ab"]
        hess[b, l] = d["bl"]
        hess[a, l] = d["al"]
        hess[l, l] = d["ll"]
    return grad, hess


def grad_psi(p: GtsParams, xi):
    """dPsi/dV as a (7,) or (7, n) complex array, V ordered as PARAM_NAMES."""
    arr, scalar = _as_xi_array(xi)
    g, _ = psi_jet(p, arr)
    return g[:, 0] if scalar else g


def hess_psi(p: GtsParams, xi):
    """d2Psi/dV2 as a (7, 7) or (7, 7, n) complex array, filled from the
    nonzero entries psi_jet returns."""
    arr, scalar = _as_xi_array(xi)
    _, entries = psi_jet(p, arr)
    h = np.zeros((7, 7, arr.size), dtype=complex)
    for (i, j), v in entries.items():
        h[i, j] = v
        h[j, i] = v
    return h[:, :, 0] if scalar else h


def cumulant(p: GtsParams, k: int) -> float:
    """k-th cumulant. Continuous through beta = 0 (Gamma(k - beta) is regular
    there for k >= 1), so no limit branch is needed. A cumulant that is not
    a finite float, as when lambda^(k - beta) under- or overflows, is a
    DomainError."""
    if k < 1:
        raise DomainError("cumulant order must be >= 1")
    try:
        plus = p.alpha_plus * gamma_real(k - p.beta_plus) / p.lambda_plus ** (
            k - p.beta_plus
        )
        minus = p.alpha_minus * gamma_real(k - p.beta_minus) / p.lambda_minus ** (
            k - p.beta_minus
        )
        value = p.mu + plus - minus if k == 1 else plus + (-1.0) ** k * minus
    except (ZeroDivisionError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise DomainError(f"cumulant {k} is not a finite float at these parameters")
    return value


def moment_stats(p: GtsParams) -> MomentStats:
    """(mean, variance, skewness, full kurtosis) from the first four cumulants."""
    k1 = cumulant(p, 1)
    k2 = cumulant(p, 2)
    if k2 <= 0.0:
        raise DomainError("degenerate law: variance is not positive")
    k3 = cumulant(p, 3)
    k4 = cumulant(p, 4)
    return MomentStats(k1, k2, k3 / k2**1.5, 3.0 + k4 / k2**2)


def scale_time(p: GtsParams, t: float) -> GtsParams:
    """Law of the running sum at horizon t: mu and alpha scale, the rest fixed."""
    if not (t > 0.0 and math.isfinite(t)):
        raise DomainError("time scale must be positive and finite")
    return GtsParams(
        t * p.mu,
        p.beta_plus,
        p.beta_minus,
        t * p.alpha_plus,
        t * p.alpha_minus,
        p.lambda_plus,
        p.lambda_minus,
    )
