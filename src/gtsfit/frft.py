"""Density, CDF, and parameter-derivative fields by fractional Fourier inversion.

The characteristic function is sampled on a symmetric frequency grid
xi_j = (j - n/2) d_xi and inverted onto x_k = x_center + (k - n/2) dx.
Because dx and d_xi are chosen independently, the oscillatory sum

    sum_j w_j S(xi_j) exp(-i x_k xi_j)

is a fractional Fourier transform with parameter a = dx d_xi / (2 pi),
evaluated by the chirp-z decomposition (three length-2n FFTs) for any
real a. Trapezoid end weights w_j close the truncated integral.

The CDF uses the principal-value inversion

    F(x) = 1/2 - (1/2pi) PV int Phi(xi) e^{-i x xi} / (i xi) d xi .

Dropping the xi = 0 node removes the 1/xi singularity but also the node's
regular part; the integrand tends to kappa_1 - x as xi -> 0, so that value
is restored analytically as a per-x correction. Without it the plain
node-dropped sum carries an O(d_xi) bias (about 5e-2 for a standard
normal test case); with it the inversion is exact to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError
from .model import GtsParams, characteristic_function, cumulant, grad_psi, hess_psi

PHI_TAIL_TOL = 1e-12

_FIELD_KINDS = ("density", "cdf", "gradient", "curvature")

_BATCH_ROWS = 6


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Equispaced inversion grid: n output points spaced dx about x_center,
    n frequency nodes spaced d_xi about 0. tail_tol is the transform
    truncation level this grid is certified for: field construction rejects
    any characteristic function still larger than that at the grid edge."""

    n: int
    x_center: float
    dx: float
    d_xi: float
    tail_tol: float = PHI_TAIL_TOL

    def __post_init__(self):
        if not _is_pow2(self.n) or self.n < 64:
            raise DomainError(f"grid size must be a power of two >= 64, got {self.n}")
        if not (self.dx > 0.0 and self.d_xi > 0.0):
            raise DomainError("grid spacings must be positive")
        if not (0.0 < self.tail_tol <= 1e-6):
            raise DomainError("tail tolerance must lie in (0, 1e-6]")

    @property
    def a(self) -> float:
        return self.dx * self.d_xi / (2.0 * math.pi)

    @property
    def xi_max(self) -> float:
        return 0.5 * self.n * self.d_xi

    def x_nodes(self) -> np.ndarray:
        k = np.arange(self.n)
        return self.x_center + (k - self.n // 2) * self.dx

    def xi_nodes(self) -> np.ndarray:
        j = np.arange(self.n)
        return (j - self.n // 2) * self.d_xi


@dataclass(frozen=True)
class Field:
    """Real values on a grid's x nodes, tagged by what they represent."""

    grid: GridSpec
    values: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in _FIELD_KINDS:
            raise DomainError(f"unknown field kind {self.kind!r}")
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n,):
            raise DomainError("field values must match the grid size")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def frft(x, a: float):
    """G_k = sum_j x_j exp(-2 pi i a j k), any real a, via chirp-z.

    Accepts a 1-d signal or a batch (rows transformed independently).
    Sizes must be powers of two; cost is three FFTs of length 2n.
    """
    arr = np.asarray(x, dtype=complex)
    n = arr.shape[-1]
    if not _is_pow2(n):
        raise DomainError(f"frft size must be a power of two, got {n}")
    j = np.arange(n)
    chirp = np.exp(-1j * math.pi * a * j * j)
    y = np.zeros(arr.shape[:-1] + (2 * n,), dtype=complex)
    y[..., :n] = arr * chirp
    z = np.empty(2 * n, dtype=complex)
    z[:n] = np.exp(1j * math.pi * a * j * j)
    jj = np.arange(n, 2 * n)
    z[n:] = np.exp(1j * math.pi * a * (jj - 2 * n) ** 2)
    conv = np.fft.ifft(np.fft.fft(y, axis=-1) * np.fft.fft(z), axis=-1)[..., :n]
    return chirp * conv


def _transform(spectra: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(d_xi / 2 pi) Re sum_j w_j S(xi_j) e^{-i x_k xi_j} for each spectrum row.

    The index shift from centered (j - n/2, k - n/2) to raw FRFT indices
    factors into pre/post chirp vectors and one constant phase.
    """
    n = grid.n
    a = grid.a
    j = np.arange(n)
    w = np.ones(n)
    w[0] = w[-1] = 0.5
    shift = np.exp(1j * math.pi * a * n * j)
    base = np.exp(-2j * math.pi * a * (n / 2) ** 2)
    phase = np.exp(-1j * grid.x_center * grid.xi_nodes())
    rows = np.atleast_2d(spectra)
    pre = w * phase * shift
    out = np.empty((rows.shape[0], n))
    scale = grid.d_xi / (2.0 * math.pi)
    for lo in range(0, rows.shape[0], _BATCH_ROWS):
        blk = rows[lo : lo + _BATCH_ROWS]
        g = frft(blk * pre[None, :], a)
        out[lo : lo + _BATCH_ROWS] = scale * np.real(base * shift[None, :] * g)
    return out if spectra.ndim > 1 else out[0]


def _check_tail(p: GtsParams, grid: GridSpec) -> None:
    tail = abs(characteristic_function(p, grid.xi_max))
    if tail > grid.tail_tol:
        raise GridError(
            f"|Phi| = {tail:.3e} at the grid edge xi = {grid.xi_max:g}; "
            "widen the frequency range"
        )


TAIL_TOL_LADDER = (PHI_TAIL_TOL, 1e-11, 1e-10)

# auto_grid: fraction of the x range padded on each side, and the range of n
GRID_PAD = 0.25
GRID_N_MIN = 8192
GRID_N_MAX = 1 << 18


def auto_grid(p: GtsParams, x_lo: float, x_hi: float) -> GridSpec:
    """Pick a grid for [x_lo, x_hi]: pad the range by GRID_PAD each side,
    double the frequency span until the characteristic function has decayed
    below PHI_TAIL_TOL, then size n (at least GRID_N_MIN) so the fastest
    integrand oscillation is sampled at least four times per period
    (a n <= 1/2).

    Near beta = 0 the characteristic function decays too slowly for the
    strict truncation level within the GRID_N_MAX budget (the required span
    grows like tol^(-1/beta)); rather than fail there, the truncation target
    is relaxed one decade at a time and the achieved level is recorded on the
    returned GridSpec. The ladder stops at 1e-10: looser truncation leaves
    enough bias in the far density tail to manufacture spurious likelihood
    ascent toward heavy-tailed parameters."""
    if not (x_hi > x_lo):
        raise DomainError("auto_grid needs x_hi > x_lo")
    width = x_hi - x_lo
    x_center = 0.5 * (x_lo + x_hi)
    span = 0.5 * width + GRID_PAD * width
    for tol in TAIL_TOL_LADDER:
        xi_max = 64.0
        while abs(characteristic_function(p, xi_max)) > tol:
            xi_max *= 2.0
            if xi_max > 2**22:
                break
        if xi_max > 2**22:
            continue
        n = GRID_N_MIN
        while n < 4.0 * span * xi_max / math.pi:
            n *= 2
        if n > GRID_N_MAX:
            continue
        return GridSpec(
            n=n, x_center=x_center, dx=2.0 * span / n, d_xi=2.0 * xi_max / n, tail_tol=tol
        )
    raise GridError(
        "no admissible grid: the characteristic function decays too slowly "
        f"for the size bound n <= {GRID_N_MAX}"
    )


def density_field(p: GtsParams, grid: GridSpec) -> Field:
    """Probability density on the grid's x nodes."""
    return Field(grid, _field_batch(p, grid, 1)[0], "density")


HESS_PAIRS = tuple((r, s) for r in range(7) for s in range(r, 7))


def _field_batch(p: GtsParams, grid: GridSpec, level: int) -> np.ndarray:
    """Density row, then gradient rows, then packed curvature rows, all from
    one transform call over shared Phi samples.

    d/dV e^Psi = (dPsi/dV) e^Psi and
    d2/dVdW e^Psi = (d2Psi/dVdW + dPsi/dV dPsi/dW) e^Psi,
    so every row reuses the same characteristic-function samples. level picks
    how deep to go: 1 density only, 8 adds the gradient, 36 the curvatures.
    """
    if level not in (1, 8, 36):
        raise DomainError(f"field batch level must be 1, 8 or 36, got {level}")
    _check_tail(p, grid)
    xi = grid.xi_nodes()
    phi = characteristic_function(p, xi)
    spectra = np.empty((level, grid.n), dtype=complex)
    spectra[0] = phi
    if level >= 8:
        gp = grad_psi(p, xi)
        spectra[1:8] = phi * gp
    if level == 36:
        hp = hess_psi(p, xi)
        for k, (r, s) in enumerate(HESS_PAIRS):
            spectra[8 + k] = phi * (hp[r, s] + gp[r] * gp[s])
    return _transform(spectra, grid)


def derivative_fields(p: GtsParams, grid: GridSpec):
    """All 7 gradient and 28 distinct curvature fields of the density in the
    parameters. Returns (grad: list of 7 Fields, hess: 7x7 nested list with
    the symmetric entries shared)."""
    flat = _field_batch(p, grid, 36)
    grad = [Field(grid, flat[1 + r], "gradient") for r in range(7)]
    hess = [[None] * 7 for _ in range(7)]
    for k, (r, s) in enumerate(HESS_PAIRS):
        fld = Field(grid, flat[8 + k], "curvature")
        hess[r][s] = fld
        hess[s][r] = fld
    return grad, hess


def cdf_field(p: GtsParams, grid: GridSpec) -> Field:
    """Distribution function on the grid's x nodes, monotone-repaired.

    The xi = 0 node of the principal-value sum is dropped and its regular
    part kappa_1 - x restored analytically (module docstring).
    """
    _check_tail(p, grid)
    xi = grid.xi_nodes()
    spectrum = characteristic_function(p, xi)
    with np.errstate(divide="ignore", invalid="ignore"):
        integrand = spectrum / (1j * xi)
    integrand[grid.n // 2] = 0.0
    x = grid.x_nodes()
    raw = 0.5 - _transform(integrand, grid) - (grid.d_xi / (2.0 * math.pi)) * (
        cumulant(p, 1) - x
    )
    return Field(grid, np.maximum.accumulate(raw), "cdf")


def _interp_weights(grid: GridSpec, x):
    """Bracketing indices and 4-point Lagrange weights for each query point.

    Weights depend only on the fractional offset, so they commute with any
    parameter derivative taken at fixed grid.
    """
    pts = np.atleast_1d(np.asarray(x, dtype=float))
    nodes = grid.x_nodes()
    lo = nodes[0] + 2.0 * grid.dx
    hi = nodes[-1] - 2.0 * grid.dx
    if np.any(pts < lo) or np.any(pts > hi):
        raise GridError(
            f"interpolation points outside [{lo:g}, {hi:g}]; widen the grid"
        )
    idx = np.clip(np.searchsorted(nodes, pts) - 1, 1, grid.n - 3)
    t = (pts - nodes[idx]) / grid.dx
    w = np.empty((4, pts.size))
    w[0] = -t * (t - 1.0) * (t - 2.0) / 6.0
    w[1] = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
    w[2] = -(t + 1.0) * t * (t - 2.0) / 2.0
    w[3] = (t + 1.0) * t * (t - 1.0) / 6.0
    return idx, w


def _interp_apply(values: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (
        values[..., idx - 1] * w[0]
        + values[..., idx] * w[1]
        + values[..., idx + 1] * w[2]
        + values[..., idx + 2] * w[3]
    )


def interpolate(field: Field, x):
    """Local cubic interpolation of a field, exact at the nodes.

    Density reads clip the sub-tolerance negative ringing to 0; CDF reads
    clamp into [0, 1]. Raises GridError outside the supported range."""
    idx, w = _interp_weights(field.grid, x)
    out = _interp_apply(field.values, idx, w)
    if field.kind == "density":
        out = np.maximum(out, 0.0)
    elif field.kind == "cdf":
        out = np.clip(out, 0.0, 1.0)
    if np.isscalar(x) or getattr(x, "ndim", 1) == 0:
        return float(out[0])
    return out


def field_to_csv(field: Field, path) -> None:
    """Dump a field as x,value rows for external plotting."""
    nodes = field.grid.x_nodes()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,value\n")
        for xv, fv in zip(nodes, field.values):
            fh.write(f"{xv:.17g},{fv:.17g}\n")
