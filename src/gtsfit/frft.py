"""Density, CDF, and parameter-gradient fields by Fourier inversion, and
the likelihood's curvature sums by the adjoint of that inversion.

Every field is the real inversion integral (1/2pi) int G(xi) e^{-i x xi}
d xi of a Hermitian spectrum G (G(-xi) = conj G(xi)): the characteristic
function Phi for the density, Phi times a Psi-derivative polynomial for the
parameter gradients (and the curvatures summed below), and Phi/(i xi) for
the CDF. It is evaluated on the x nodes x_k = x_center + (k - n/2) dx by the
trapezoid rule at the frequency spacing h = 2 pi / (N dx), N = 4n. With that
spacing the sum over xi_j = j h is an N-point DFT (the fractional Fourier
transform at a = 1/N; Bailey & Swarztrauber, SIAM Rev. 33, 1991), and
Hermitian symmetry lets one real inverse FFT (numpy irfft) per row read only
the nodes xi_j >= 0. Nodes above the grid's certified truncation point
xi_max are zero. The quadrature aliases the field with period N dx, four x
windows; n of the N outputs are the window. A 2n-point variant (period two
windows, spectrum filled up to pi/dx) lets a heavy left tail alias onto the
right end of the window: 6.4e-10 relative in the density at the data points
of a spy fit, 1.6e-9 in its log-likelihood.

Every row is built on one phased spectrum per batch,

    S_j = Phi(xi_j) e^{-i x_{n-1} xi_j} / dx = exp(re_j + i im_j),
    re_j = -log dx + Re Psi(xi_j),   im_j = Im Psi(xi_j) - x_{n-1} xi_j,

taken in real arithmetic (model.phased_cf: per tail a real log1p, arctan,
expm1 and one sin/cos pair, then one real exp and one cos/sin pair per
node). The factor e^{-i x_{n-1} xi_j} makes irfft output q the field at
x_{n-1-q}, and 1/dx is the quadrature's scale (h / 2 pi) N. A row whose
spectrum is Phi times a polynomial P in the psi_jet rows is inverted as
P_j S_j, and the CDF row as S_j / (i xi_j).

The likelihood Hessian needs the curvature rows f_rs only through the sums
sum_i f_rs(x_i) / f(x_i) over the sample. The map from a spectrum row S to
its values at the sample points (the irfft window, then the 4-point
Lagrange read) is linear, so each sum equals its transpose applied to the
weights u_i = 1/f(x_i). Scatter u through the same Lagrange weights onto a
real vector v of N points, at irfft output n-1-k for grid node k, and take
V = rfft(v). Since irfft(Y)[q] = (1/N) sum_j c_j Re(Y_j e^{2 pi i j q/N}),
with c_0 = c_{N/2} = 1 and c_j = 2 otherwise,

    sum_i u_i f_rs(x_i) = Re sum_j B_j (dPsi_r dPsi_s + d2Psi_rs)_j,
    B_j = c_j conj(V_j) S_j / N.

That is the same quadrature summed in the other order, so it is exact to
rounding: one forward FFT and dot products with the psi_jet rows replace 28
inverse FFTs.

frft() remains as the general-a fractional Fourier transform by the
chirp-z decomposition (three length-2n FFTs); the field path does not use it.

The CDF uses the principal-value inversion

    F(x) = 1/2 - (1/2pi) PV int Phi(xi) e^{-i x xi} / (i xi) d xi .

Dropping the xi = 0 node removes the 1/xi singularity but also the node's
regular part; the integrand tends to kappa_1 - x as xi -> 0, so that value
is restored analytically as a per-x correction. Without it the plain
node-dropped sum carries an O(h) bias (about 5e-2 for a standard
normal test case); with it the inversion is exact to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError, LikelihoodError
# grad_psi and hess_psi are not called here; perfbench/tracer.py wraps them
# as attributes of this module
from .model import (
    GtsParams,
    atom_mass,
    cf_modulus,
    characteristic_function,
    cumulant,
    grad_psi,
    hess_psi,
    phased_cf,
    psi_jet,
)

PHI_TAIL_TOL = 1e-12

_FIELD_KINDS = ("density", "cdf")

# the field path's real FFT has _PAD * n points (module docstring)
_PAD = 4

# irfft output points per block of rows (4 MB), to bound the temporary
# buffers: an 8-row read holds all its rows in one block up to n = 16384, and
# beyond that at most 4 MB of irfft output (one row if larger), never more
# than the level-1 batch at n = 2^18 that every fit climbing to 2^18 runs
_BLOCK_POINTS = 1 << 19


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Equispaced inversion grid: n output points spaced dx about x_center,
    and the frequency truncation point xi_max. tail_tol is the truncation
    level this grid is certified for: field construction rejects any
    characteristic function still larger than that at xi_max. The fields
    sample the spectrum at spacing 2 pi / (4 n dx) up to xi_max (module
    docstring), so xi_max may not exceed pi / dx, where that spacing's real
    FFT ends."""

    n: int
    x_center: float
    dx: float
    xi_max: float
    tail_tol: float = PHI_TAIL_TOL

    def __post_init__(self):
        if not _is_pow2(self.n) or self.n < 64:
            raise DomainError(f"grid size must be a power of two >= 64, got {self.n}")
        if not (self.dx > 0.0 and self.xi_max > 0.0):
            raise DomainError("grid spacing and frequency range must be positive")
        if not (0.0 < self.tail_tol <= 1e-6):
            raise DomainError("tail tolerance must lie in (0, 1e-6]")
        if self.xi_max * self.dx > math.pi:
            raise DomainError(
                f"frequency range xi_max = {self.xi_max:g} exceeds pi / dx = "
                f"{math.pi / self.dx:g}"
            )

    def x_nodes(self) -> np.ndarray:
        k = np.arange(self.n)
        return self.x_center + (k - self.n // 2) * self.dx


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


def _half_nodes(grid: GridSpec):
    """(h, xi): the spacing h = 2 pi / (_PAD n dx) and the nodes xi_j = j h,
    j = 0, 1, ..., up to xi_max."""
    h = 2.0 * math.pi / (_PAD * grid.n * grid.dx)
    return h, h * np.arange(int(grid.xi_max / h) + 1)


def _spectrum(p: GtsParams, grid: GridSpec, xi: np.ndarray, out=None) -> np.ndarray:
    """Phi(xi_j) e^{-i x_{n-1} xi_j} / dx at the nodes xi, the phase and the
    scale folded into the exponent (phased_cf); _window inverts rows built
    on it."""
    x_last = grid.x_center + (grid.n - 1 - grid.n // 2) * grid.dx
    return phased_cf(p, xi, x_last, -math.log(grid.dx), out)


def _window(rows: np.ndarray, grid: GridSpec, out=None) -> np.ndarray:
    """(h / 2 pi) sum over all j of G_j e^{-i x_k xi_j} on the grid's x
    nodes, for each Hermitian spectrum row G sampled at the nodes
    xi_j = j h >= 0 and passed phased, as Y_j = G_j e^{-i x_{n-1} xi_j} / dx
    (rows built on _spectrum); rows of shape (rows, J) give a (rows, n) view
    of the (rows, _PAD n) irfft output, written into out if given.

    irfft(Y)[q] holds the sum at x_{n-1-q}, so the window is the first n
    outputs read backwards. The scale (h / 2 pi) N = 1 / dx rides on Y.
    """
    return np.fft.irfft(rows, n=_PAD * grid.n, out=out)[:, grid.n - 1 :: -1]


def _check_atom(p: GtsParams, tol: float) -> None:
    """Raise DomainError if the law's atom at mu outweighs tol. |Phi| tends
    to the atom's mass at large xi, so no truncation below it exists."""
    mass = atom_mass(p)
    if mass > tol:
        raise DomainError(
            f"the law has an atom of mass {mass:.3e} at mu = {p.mu:g} (finite "
            "jump activity on every active tail) and no density to invert"
        )


def _check_tail(p: GtsParams, grid: GridSpec) -> None:
    _check_atom(p, grid.tail_tol)
    tail = cf_modulus(p, grid.xi_max)
    if tail > grid.tail_tol:
        raise GridError(
            f"|Phi| = {tail:.3e} at the grid edge xi = {grid.xi_max:g}; "
            "widen the frequency range"
        )


def _check_density(f: np.ndarray) -> None:
    """Raise LikelihoodError unless the density reads f are positive and finite."""
    if not np.all(np.isfinite(f)) or np.any(f <= 0.0):
        raise LikelihoodError("density vanished or misbehaved at a data point")


TAIL_TOL_LADDER = (PHI_TAIL_TOL, 1e-11, 1e-10)

# auto_grid: fraction of the x range padded on each side, and the range of n
GRID_PAD = 0.25
GRID_N_MIN = 8192
GRID_N_MAX = 1 << 18


def auto_grid(p: GtsParams, x_lo: float, x_hi: float) -> GridSpec:
    """Pick a grid for [x_lo, x_hi]: pad the range by GRID_PAD each side,
    double the frequency span until the characteristic function has decayed
    below PHI_TAIL_TOL (|Phi| is read at all 17 doublings from 64 to 2^22
    at once), then size n (at least GRID_N_MIN) so the fastest
    integrand oscillation is sampled at least four times per period
    (xi_max dx <= pi / 2).

    Near beta = 0 the characteristic function decays too slowly for the
    strict truncation level within the GRID_N_MAX budget (the required span
    grows like tol^(-1/beta)); rather than fail there, the truncation target
    is relaxed one decade at a time and the achieved level is recorded on the
    returned GridSpec. The ladder stops at 1e-10: looser truncation leaves
    enough bias in the far density tail to manufacture spurious likelihood
    ascent toward heavy-tailed parameters. A law whose atom outweighs the
    loosest rung is a DomainError."""
    if not (x_hi > x_lo):
        raise DomainError("auto_grid needs x_hi > x_lo")
    _check_atom(p, TAIL_TOL_LADDER[-1])
    width = x_hi - x_lo
    x_center = 0.5 * (x_lo + x_hi)
    span = 0.5 * width + GRID_PAD * width
    # |Phi| at every candidate frequency span 64, 128, ..., 2^22, in one read
    spans = np.ldexp(64.0, np.arange(17))
    tails = np.abs(characteristic_function(p, spans))
    for tol in TAIL_TOL_LADDER:
        decayed = np.flatnonzero(tails <= tol)
        if decayed.size == 0:
            continue
        xi_max = float(spans[decayed[0]])
        n = GRID_N_MIN
        while n < 4.0 * span * xi_max / math.pi:
            n *= 2
        if n > GRID_N_MAX:
            continue
        return GridSpec(n=n, x_center=x_center, dx=2.0 * span / n, xi_max=xi_max, tail_tol=tol)
    raise GridError(
        "no admissible grid: the characteristic function decays too slowly "
        f"for the size bound n <= {GRID_N_MAX}"
    )


def density_field(p: GtsParams, grid: GridSpec) -> Field:
    """Probability density on the grid's x nodes."""
    return Field(grid, _field_batch(p, grid, 1)[0], "density")


def _field_batch(p: GtsParams, grid: GridSpec, level: int, read=None, scatter=None):
    """The density row, then (level 8 and 36) the 7 gradient rows, inverted
    by _window from one phased spectrum S_j = Phi(xi_j) e^{-i x_{n-1} xi_j}
    / dx (_spectrum, module docstring). d/dV e^Psi = (dPsi/dV) e^Psi, so a
    gradient row is S times a psi_jet row. A level-1 batch builds S in the
    row it inverts.

    Rows are built and inverted a few at a time. read, if given, maps each
    block of rows on the grid, shape (rows, n), to what is kept of it (the
    rows read at the data points, say), and the kept blocks are stacked; the
    batch then never holds its spectra or grid rows all at once.

    Level 36 is the adjoint read and needs scatter, the transpose of a
    linear read (a vector at the read points to its (n,) grid vector). It
    inverts the same 8 rows and returns (the 8 read rows, C), where C[r, s]
    is the sum over the read points of f_rs / f, f the density row and
    f_rs = (d2Psi_rs + dPsi_r dPsi_s) S inverted: every curvature is summed
    by the adjoint of the inversion, with weights B_j = c_j conj(V_j) S_j / N
    (module docstring). The density must be positive and finite at every
    read point, else LikelihoodError. scatter at level 1 or 8, or level 36
    without it, is a DomainError.
    """
    if level not in (1, 8, 36):
        raise DomainError(f"field batch level must be 1, 8 or 36, got {level}")
    if (level == 36) != (scatter is not None):
        raise DomainError("a field batch takes scatter at level 36 and only there")
    _check_tail(p, grid)
    _, xi = _half_nodes(grid)
    inverted = min(level, 8)
    # one spectra and one irfft buffer per batch, reused by every block;
    # allocated per block, they went back to the system and were faulted
    # in again
    step = min(inverted, max(1, _BLOCK_POINTS // (_PAD * grid.n)))
    block = np.empty((step, xi.size), dtype=complex)
    out = np.empty((step, _PAD * grid.n))
    # a level-1 batch builds its one spectrum in the row it inverts
    spec = _spectrum(p, grid, xi, block[0] if level == 1 else None)
    if level >= 8:
        gp, hp = psi_jet(p, xi)
    kept = []
    for lo in range(0, inverted, step):
        rows = block[: min(step, inverted - lo)]
        for i, row in enumerate(rows, lo):
            if i == 0:
                if level > 1:
                    row[:] = spec
                continue
            row[:] = gp[i - 1]
            row *= spec
        kept.append((read or np.copy)(_window(rows, grid, out[: len(rows)])))
    vals = kept[0] if len(kept) == 1 else np.concatenate(kept)
    if level < 36:
        return vals
    _check_density(vals[0])
    # the window's transpose: 1 / f onto the grid, at irfft output n - 1 - k
    v = out[0]
    v[:] = 0.0
    v[grid.n - 1 :: -1] = scatter(1.0 / vals[0])
    b = np.conj(np.fft.rfft(v)[: xi.size])
    b[1 : _PAD * grid.n // 2] *= 2.0
    b *= spec
    b /= _PAD * grid.n
    curv = np.empty((7, 7))
    for r in range(7):
        curv[r, r:] = (gp[r:] @ (gp[r] * b)).real
    for (r, s), row in hp.items():
        curv[r, s] += (b @ row).real
    return vals, np.triu(curv) + np.triu(curv, 1).T


def cdf_field(p: GtsParams, grid: GridSpec) -> Field:
    """Distribution function on the grid's x nodes, monotone-repaired.

    The phased spectrum over i xi is inverted. The xi = 0 node of the
    principal-value sum is dropped and its regular part kappa_1 - x restored
    analytically (module docstring).
    """
    _check_tail(p, grid)
    h, xi = _half_nodes(grid)
    integrand = _spectrum(p, grid, xi)
    integrand[0] = 0.0
    integrand[1:] /= 1j * xi[1:]
    raw = 0.5 - _window(integrand[np.newaxis], grid)[0] - (h / (2.0 * math.pi)) * (
        cumulant(p, 1) - grid.x_nodes()
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


def _interp_scatter(u: np.ndarray, idx: np.ndarray, w: np.ndarray, n: int) -> np.ndarray:
    """Transpose of _interp_apply on an n-point grid: the (n,) vector s with
    s . row = u . _interp_apply(row, idx, w) for every grid row."""
    nodes = np.concatenate((idx - 1, idx, idx + 1, idx + 2))
    return np.bincount(nodes, weights=(w * u).ravel(), minlength=n)


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
