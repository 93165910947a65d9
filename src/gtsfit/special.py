"""Scalar special functions on the real line: gamma, digamma and trigamma.

Gamma is a Lanczos approximation (g = 7, 9 coefficients) with reflection
for the negative half-line; digamma and trigamma shift the argument above
6 by recurrence and finish with six terms of the Stirling-type asymptotic
series. Accuracy targets: 1e-12 relative for gamma and 1e-10 for
digamma/trigamma on |x| <= 30, which covers every argument the fitter can
produce.

Poles (non-positive integers) raise PoleError instead of returning inf:
callers treat a pole as a signal to reroute, never as a value.
"""

from __future__ import annotations

import math

from .errors import DomainError, PoleError

# Lanczos coefficients for g = 7 (Godfrey's table, widely reprinted).
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Asymptotic tail coefficients, Bernoulli numbers B_2n scaled per series....
# digamma(x) ~ ln x - 1/(2x) - sum B_2n / (2n x^{2n})
_DIGAMMA_TAIL = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
)
# trigamma(x) ~ 1/x + 1/(2x^2) + sum B_2n / x^{2n+1}
_TRIGAMMA_TAIL = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)


def _check_pole(x: float) -> None:
    if x <= 0.0 and x == math.floor(x):
        raise PoleError(f"pole at non-positive integer argument {x}")


def _lanczos_gamma_positive(x: float) -> float:
    """Gamma for x > 0.5 via the Lanczos sum."""
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i in range(1, len(_LANCZOS_C)):
        acc += _LANCZOS_C[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc


def gamma_real(x: float) -> float:
    """Gamma(x) for real x off the poles at 0, -1, -2, ...

    Negative arguments go through the reflection formula
    Gamma(x) Gamma(1-x) = pi / sin(pi x).
    """
    if not math.isfinite(x):
        raise DomainError(f"gamma_real needs a finite argument, got {x}")
    _check_pole(x)
    if x >= 0.5:
        if x > 171.62:
            raise OverflowError(f"gamma_real({x}) exceeds float range")
        return _lanczos_gamma_positive(x)
    # reflection: sin(pi x) is safe since x is not an integer here
    s = math.sin(math.pi * x)
    return math.pi / (s * _lanczos_gamma_positive(1.0 - x))


def digamma(x: float) -> float:
    """psi(x) = d/dx log Gamma(x), poles as gamma."""
    if not math.isfinite(x):
        raise DomainError(f"digamma needs a finite argument, got {x}")
    _check_pole(x)
    acc = 0.0
    while x < 6.0:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    p = inv2
    for c in _DIGAMMA_TAIL:
        tail += c * p
        p *= inv2
    return acc + math.log(x) - 0.5 / x - tail


def trigamma(x: float) -> float:
    """psi'(x), the derivative of digamma."""
    if not math.isfinite(x):
        raise DomainError(f"trigamma needs a finite argument, got {x}")
    _check_pole(x)
    acc = 0.0
    while x < 6.0:
        acc += 1.0 / (x * x)
        x += 1.0
    inv = 1.0 / x
    inv2 = inv * inv
    tail = 0.0
    p = inv * inv2
    for c in _TRIGAMMA_TAIL:
        tail += c * p
        p *= inv2
    return acc + inv + 0.5 * inv2 + tail
