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

and at beta = 0 a side is its bilateral-gamma limit, -alpha (Log(lambda -+
i xi) - log lambda), where the Gamma(-beta) pole and the power-difference
zero cancel. Psi takes that limit only for |beta| < BETA_LIMIT, where it
equals the closed form to rounding; every other beta, however small, takes
the closed form. GtsParams.tails gives each side's (alpha, beta, lambda,
sign), the sign of xi in w = lambda + sign i xi, so the sign convention is
set in one place.

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
analytically. One routine, psi_jet, evaluates both from a single pass over
each tail (_tail_jet) into one (17, n) complex block: the 7 gradient rows
and only the 10 Hessian entries that are not identically zero. It too is
built in real arithmetic, from log w = log lambda + log1p(q^2) / 2 +
i atan(q), lambda / w = (1 - i q) / (1 + q^2) and (w / lambda)^beta =
(1 + q^2)^(beta/2) cis(beta atan(q)): one real power and one sin/cos pair
per tail and node, with no complex log, power or division. It factors each
tail term into parts regular at beta = 0 and sums them as series near it,
so every beta, 0 included, takes one path and the rows keep their accuracy
as beta -> 0, where Gamma(-beta) ~ -1/beta would otherwise multiply terms
that cancel. grad_psi and hess_psi are dense views built on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

# |beta| below which a tail of Psi is taken at its beta = 0 limit. The
# limit's relative error is about |beta| log1p((xi / lambda)^2) / 4, below
# rounding here for any frequency a grid reaches, while the closed form
# alpha Gamma(-beta) lambda^beta expm1(...) keeps its accuracy down to
# |beta| = 1e-305; so the switch guards only Gamma(-beta)'s pole at 0 and
# its overflow below |beta| of about 5.6e-309
BETA_LIMIT = 1e-18

# largest |beta P| on a jet's nodes up to which _tail_jet sums B0, B1, B2 as
# series (20 terms at most); beyond it their closed forms keep each row
# within about 1e-15 of its largest entry, and their error grows as |beta P|
# falls
_SERIES_REACH = 2.0

# 1 / k!, the Taylor coefficients of exp
_INV_FACTORIAL = tuple(1.0 / math.factorial(k) for k in range(40))


def _series_terms(reach: float) -> int:
    """Degree n at which phi3(y) = sum_k y^k / (k + 3)! is cut for |y| <=
    reach: the first dropped term is below 2^-56."""
    n = 0
    while reach ** (n + 1) * _INV_FACTORIAL[n + 4] > 2.0**-56:
        n += 1
    return n


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

    @property
    def tails(self):
        """(alpha, beta, lambda, sign) of the plus and then the minus tail. A
        tail's term of Psi is taken at w = lambda + sign i xi: the plus tail,
        the positive jumps, has sign -1 (w = lambda - i xi)."""
        return (
            (self.alpha_plus, self.beta_plus, self.lambda_plus, -1.0),
            (self.alpha_minus, self.beta_minus, self.lambda_minus, 1.0),
        )

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
        return np.array([getattr(self, name) for name in PARAM_NAMES])


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
    for (alpha, beta, lam, _), side in zip(p.tails, (pos, ~pos)):
        ax = np.abs(arr[side])
        out[side] = alpha * np.exp(-lam * ax) / ax ** (1.0 + beta)
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(out[0])
    return out


def total_levy_mass(p: GtsParams) -> float:
    """Total jump intensity; math.inf when either active side has beta >= 0."""
    total = 0.0
    for alpha, beta, lam, _ in p.tails:
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
    for alpha, beta, lam, sign in p.tails:
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


def phased_cf(
    p: GtsParams, xi, shift: float = 0.0, log_scale: float = 0.0, out=None, work=None
):
    """exp(log_scale) Phi(xi) e^{-i shift xi} = exp(re + i (lin + im)) at the
    float nodes xi, lin = (mu - shift) xi and (re, im) the tail terms from
    _tail_parts, plus log_scale: one real exp and one cos/sin pair, written
    through out.real and out.imag (a new complex array if out is None). The
    call works in six float rows, work if given, else a new (6, n) array.

    lin reaches about 2e5 rad on a fit's largest grids, where the rounded
    sum s = lin + im drops the low bits of im: 1.5e-11 rad, as much relative
    error where |Phi| has not decayed. Its rounding error e is recovered
    exactly (Knuth's TwoSum) and applied to first order,
    e^{i(s + e)} = e^{is} (1 + i e), |e| <= 2^-53 |s|."""
    if work is None:
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
    two tail terms alone, in _tail_parts' form and with its BETA_LIMIT
    switch, by scalar math; the array routine's fixed cost of some 60 ufunc
    calls is spent on no node. Neither real part depends on the tail's sign."""
    re = 0.0
    for alpha, beta, lam, _ in p.tails:
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


def _tail_jet(alpha, beta, lam, sign, xi, rows, work):
    """Write one tail's 3 gradient and 5 Hessian rows of Psi into rows, in
    the order (beta, alpha, lambda) and (beta-beta, beta-alpha,
    beta-lambda, alpha-lambda, lambda-lambda), in real arithmetic through
    the three float rows of work.

    With q = sign xi / lambda (GtsParams.tails; w = lambda - i xi on the
    plus tail) as in _tail_parts, w = lambda (1 + i q), so

        P = log(w / lambda) = log1p(q^2) / 2 + i atan(q),
        u = lambda / w = (1 - i q) / (1 + q^2),
        z = (w / lambda)^beta = (1 + q^2)^(beta/2) cis(beta atan(q)).

    The tail term is alpha Gamma(-beta) (w^beta - lambda^beta) = -alpha A B
    with A = Gamma(1 - beta) lambda^beta and B = (z - 1) / beta, both
    regular at beta = 0. With m = log lambda - digamma(1 - beta) = A'/A,
    s = trigamma(1 - beta), and B0, B1, B2 = B and its first two
    beta-derivatives, the partials are

        a  = -A B0                      ab = -A (B1 + m B0)
        bb = -alpha A (B2 + 2 m B1 + (m^2 + s) B0)
        al = -A / lambda (z u - 1)      bl = -alpha A / lambda (m (z u - 1) + P z u)
        ll = -alpha A (beta - 1) / lambda^2 (z u^2 - 1)

    and b = alpha ab, l = alpha al. With x = beta P, B = P phi1(x) for
    phi1(x) = (e^x - 1) / x = e^x phi1(-x), so

        B0 = z P phi1(-x),  B1 = z P^2 phi2(-x),  B2 = 2 z P^3 phi3(-x),

    phi2(y) = (e^y - 1 - y) / y^2 and phi3(y) = (e^y - 1 - y - y^2 / 2) / y^3.
    While |x| <= _SERIES_REACH on every node, phi3 is summed by Horner's
    rule to the degree _series_terms gives, then phi2 = 1/2 + y phi3 and
    phi1 = 1 + y phi2; for beta < 0, -x has a nonnegative real part and no
    term cancels. Beyond that reach the closed forms B0 = (z - 1) / beta,
    B1 = (P z - B0) / beta and B2 = (P^2 z - 2 B1) / beta are taken; each
    division by beta cancels about a factor 1 / |x| at the nodes where x is
    largest, which is why small |beta| takes the series. A, m and s are
    regular at beta = 0, so every beta, 0 included, takes this one path: at
    beta = 0, x = 0, z = 1 and the series give B0 = P, B1 = P^2 / 2 and
    B2 = P^3 / 3.

    P, u and z are built in rows that are written last. A tail with
    alpha = 0 gets zero rows except a, ab and al."""
    b, a, l, bb, ab, bl, al, ll = rows
    q, t, e = work
    big_a = gamma_real(1.0 - beta) * lam**beta
    m = math.log(lam) - digamma(1.0 - beta)
    s = trigamma(1.0 - beta)
    np.divide(xi, sign * lam, out=q)
    np.multiply(q, q, out=t)
    np.log1p(t, out=e)
    # largest |x| = |beta P| over the nodes, at the largest |q|
    t_max = float(t.max()) if t.size else 0.0
    x_max = abs(beta) * math.hypot(0.5 * math.log1p(t_max), math.atan(math.sqrt(t_max)))
    # u = 1 / (1 + i q) in l, from t = -(1 + q^2)
    np.subtract(-1.0, t, out=t)
    np.divide(-1.0, t, out=l.real)
    np.divide(q, t, out=l.imag)
    # P in b, z in al
    np.multiply(e, 0.5, out=b.real)
    np.arctan(q, out=b.imag)
    np.negative(t, out=e)
    np.power(e, 0.5 * beta, out=e)
    np.multiply(b.imag, beta, out=q)
    np.cos(q, out=al.real)
    np.sin(q, out=al.imag)
    al.real *= e
    al.imag *= e
    # B0 in a, B1 in ab, B2 / 2 in bb, from P z in ll
    if x_max <= _SERIES_REACH:
        # y = -x in ll, then phi3(y) in bb, phi2(y) in ab, phi1(y) in a
        n = _series_terms(x_max)
        np.multiply(b, -beta, out=ll)
        bb.fill(_INV_FACTORIAL[n + 3])
        for k in range(n + 2, 2, -1):
            bb *= ll
            bb.real += _INV_FACTORIAL[k]
        np.multiply(ll, bb, out=ab)
        ab.real += 0.5
        np.multiply(ll, ab, out=a)
        a.real += 1.0
        np.multiply(b, al, out=ll)
        a *= ll
        ab *= ll
        ab *= b
        bb *= ll
        bb *= b
        bb *= b
    else:
        np.subtract(al, 1.0, out=a)
        a *= 1.0 / beta
        np.multiply(b, al, out=ll)
        np.subtract(ll, a, out=ab)
        ab *= 1.0 / beta
        np.multiply(ll, b, out=bb)
        bb -= ab
        bb -= ab
        bb *= 0.5 / beta
    np.multiply(ab, m, out=ll)
    bb += ll
    np.multiply(a, 0.5 * (m * m + s), out=ll)
    bb += ll
    bb *= -2.0 * alpha * big_a
    np.multiply(a, m, out=ll)
    ab += ll
    ab *= -big_a
    a *= -big_a
    # z u in al; P + m in b
    al *= l
    b.real += m
    np.multiply(b, al, out=bl)
    bl.real -= m
    bl *= -alpha * big_a / lam
    np.multiply(al, l, out=ll)
    ll -= 1.0
    ll *= -alpha * big_a * (beta - 1.0) / lam**2
    al -= 1.0
    al *= -big_a / lam
    np.multiply(ab, alpha, out=b)
    np.multiply(al, alpha, out=l)


# the 10 nonzero upper-triangle Hessian entries, in psi_jet's row order
# (rows 7 to 16 of its block): per tail, beta-beta, beta-alpha,
# beta-lambda, alpha-lambda, lambda-lambda
_JET_PAIRS = tuple(
    pair
    for b, a, l in ((1, 3, 5), (2, 4, 6))
    for pair in ((b, b), (b, a), (b, l), (a, l), (l, l))
)


def psi_jet(p: GtsParams, xi, out=None, work=None):
    """Gradient and Hessian of Psi in the parameters at the float nodes xi,
    written into one (17, n) complex block: rows 0 to 6 are dPsi/dV, V
    ordered as PARAM_NAMES, and rows 7 to 16 the 10 Hessian entries that
    are not identically zero, in the order of _JET_PAIRS. Every other entry
    is zero: the mu row and column, the cross-tail blocks, and alpha-alpha
    (Psi is linear in alpha). Each tail is built by _tail_jet in real
    arithmetic, with no complex log, power or division.

    The block is out if given, else a new array, and work is a (3, n) float
    scratch array (a new one if None). Returns (grad, hess): grad is the
    block's first 7 rows and hess maps each pair (r, s), r <= s, of
    _JET_PAIRS to its row; both are views of the block."""
    arr = np.atleast_1d(np.asarray(xi, dtype=float))
    if out is None:
        out = np.empty((17, arr.size), dtype=complex)
    if work is None:
        work = np.empty((3, arr.size))
    out[0].real = 0.0
    out[0].imag = arr
    for side, (alpha, beta, lam, sign) in enumerate(p.tails):
        rows = (out[1 + side], out[3 + side], out[5 + side], *out[7 + 5 * side : 12 + 5 * side])
        _tail_jet(alpha, beta, lam, sign, arr, rows, work)
    return out[:7], dict(zip(_JET_PAIRS, out[7:]))


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
        plus, minus = (
            alpha * gamma_real(k - beta) / lam ** (k - beta) for alpha, beta, lam, _ in p.tails
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
    return replace(p, mu=t * p.mu, alpha_plus=t * p.alpha_plus, alpha_minus=t * p.alpha_minus)
