"""Density, CDF, and parameter-gradient fields by Fourier inversion, and
the likelihood's curvature sums by the adjoint of that inversion.

Every field is the real inversion integral (1/2pi) int G(xi) e^{-i x xi}
d xi of a Hermitian spectrum G (G(-xi) = conj G(xi)): the characteristic
function Phi for the density, Phi times a Psi-derivative polynomial for the
parameter gradients (and the curvatures summed below), and Phi/(i xi) for
the CDF. It is evaluated on the x nodes x_k = x_center + (k - n/2) dx by the
trapezoid rule at the frequency spacing h = 2 pi / (N dx), N = 3n. With that
spacing the sum over xi_j = j h is an N-point DFT (the fractional Fourier
transform at a = 1/N; Bailey & Swarztrauber, SIAM Rev. 33, 1991), and
Hermitian symmetry lets one real inverse FFT (numpy irfft; pocketfft takes
the lengths 3 * 2^k directly) per row read only the nodes xi_j >= 0. Nodes
above the grid's certified truncation point xi_max are zero. The quadrature
aliases the field with period N dx, three x windows; n of the N outputs are
the window. Read at the sample points of seven fit endpoints against a
period of 16n, the density moves by at most 7.4e-11 relative and the
log-likelihood by at most 1.0e-10 (N = 4n: 3.4e-11 and 4.6e-11), at the
kernel read's own error (below). A 2n-point variant (period two windows,
spectrum filled up to pi/dx) lets a heavy left tail alias onto the right
end of the window: 6.4e-10 relative in the density at the data points of a
spy fit and 1.6e-9 in its log-likelihood, 1.8e-8 and 5.5e-8 on a BTC-law
fit.

Every row is built on one phased spectrum per batch,

    S_j = Phi(xi_j) e^{-i x_{n-1} xi_j} / dx = exp(re_j + i im_j),
    re_j = -log dx + Re Psi(xi_j),   im_j = Im Psi(xi_j) - x_{n-1} xi_j,

taken in real arithmetic (model.phased_cf: per tail a real log1p, arctan,
expm1 and one sin/cos pair, then one real exp and one cos/sin pair per
node). The factor e^{-i x_{n-1} xi_j} makes irfft output q the field at
x_{n-1-q}, and 1/dx is the quadrature's scale (h / 2 pi) N. A row whose
spectrum is Phi times a polynomial P in the psi_jet rows is inverted as
P_j S_j, and the CDF row as S_j / (i xi_j).

Node values are read between nodes in one of two ways. Fields (density_field,
cdf_field) are read by interpolate, a local cubic Lagrange read of the
node values; its error falls as dx^4. The likelihood reads the sample
points through a spreading kernel instead, a type-2 nonuniform FFT (Dutt &
Rokhlin, SIAM J. Sci. Comput. 14, 1993): with the "exponential of
semicircle" kernel K(s) = exp(beta (sqrt(1 - (2 s / w)^2) - 1)) on
|s| <= w / 2, w = 12 nodes and beta = 2.30 w (Barnett, Magland & af
Klinteberg, SIAM J. Sci. Comput. 41, 2019), and its transform
K-hat(theta) = int K(s) e^{i s theta} ds, Poisson summation over the nodes
gives, with theta = xi dx and t the offset of x from a node in spacings,

    sum_k K((x - x_k) / dx) e^{-i x_k xi}
        = e^{-i x xi} sum_l K-hat(theta + 2 pi l) e^{-2 pi i l t}.

The aliases l != 0 are below 1e-10 of the l = 0 term for theta <= pi / 2,
1.4e-6 at theta = 2 and 1e-3 at 2.5, and equal it at pi; there, at the
edge xi_max, the spectrum is below the grid's tail_tol. So the spectrum
S_j is divided by K-hat(xi_j dx), inverted as above to node values g_k,
and the point x is read as sum_k g_k K((x - x_k) / dx) over its 12 nearest
nodes. K-hat is even and real and comes from Gauss-Legendre quadrature of
the kernel; theta_j = xi_j dx = 2 pi j / N depends on n only. On a grid of
half the size that the Lagrange read needs (mle._grid_context), the read's
log-likelihood error on 3000 points is 1.2e-10 or less, against up to
8e-9 for the Lagrange read on the full grid.

The likelihood Hessian needs the curvature rows f_rs only through the sums
sum_i f_rs(x_i) / f(x_i) over the sample. The map from a spectrum row S to
its values at the sample points (the irfft window, then the read) is
linear, so each sum equals its transpose applied to the weights
u_i = 1/f(x_i). Scatter u through the same read weights onto a real vector
v of N points, at irfft output n-1-k for grid node k, and take V = rfft(v).
Since irfft(Y)[q] = (1/N) sum_j c_j Re(Y_j e^{2 pi i j q/N}), with
c_0 = c_{N/2} = 1 and c_j = 2 otherwise,

    sum_i u_i f_rs(x_i) = Re sum_j B_j (dPsi_r dPsi_s + d2Psi_rs)_j,
    B_j = c_j conj(V_j) S_j / N,

with S_j the spectrum as inverted: for the kernel read, deconvolved,
S_j / K-hat(xi_j dx). That is the same quadrature summed in the other
order, so it is exact to rounding: one forward FFT and dot products with
the psi_jet rows replace 28 inverse FFTs.

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

import functools
import math
import mmap
from dataclasses import dataclass
from typing import NamedTuple

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
_PAD = 3

# irfft output points per block of gradient rows (at most 256 KB): two
# rows of 3n points at n = 4096, one from n = 8192 on. The block is part of
# a fit's workspace (_Workspace) and stays resident for the whole fit; 2 MB
# blocks (all 7 rows at n = 4096, on a 4n period) put the spy fit's peak
# resident set 0.3 MB above that of the per-batch buffers the workspace
# replaced
_BLOCK_POINTS = 1 << 15

# the kernel read: the exponential-of-semicircle kernel (module docstring)
# over _KERNEL_W nodes, with shape _KERNEL_BETA, and the Gauss-Legendre
# nodes on its half support that give K-hat (2 + 3 w / 2, the count FINUFFT
# uses; K-hat's quadrature error is then at rounding for theta <= pi)
_KERNEL_W = 12
_KERNEL_BETA = 2.30 * _KERNEL_W
_KERNEL_QUAD = 2 + 3 * _KERNEL_W // 2


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Equispaced inversion grid: n output points spaced dx about x_center,
    and the frequency truncation point xi_max. tail_tol is the truncation
    level this grid is certified for: field construction rejects any
    characteristic function still larger than that at xi_max. The fields
    sample the spectrum at spacing 2 pi / (3 n dx) up to xi_max (module
    docstring), so xi_max may not exceed pi / dx, where that spacing's real
    FFT of 3n points ends."""

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


def _half_size(grid: GridSpec):
    """(h, J): the spacing h = 2 pi / (_PAD n dx) and the number J of nodes
    xi_j = j h, j = 0, 1, ..., up to xi_max."""
    h = 2.0 * math.pi / (_PAD * grid.n * grid.dx)
    return h, int(grid.xi_max / h) + 1


def _half_nodes(grid: GridSpec):
    """(h, xi): the spacing h and the J nodes xi_j = j h (_half_size)."""
    h, size = _half_size(grid)
    return h, h * np.arange(size)


def _spectrum(
    p: GtsParams, grid: GridSpec, xi: np.ndarray, out=None, work=None
) -> np.ndarray:
    """Phi(xi_j) e^{-i x_{n-1} xi_j} / dx at the nodes xi, the phase and the
    scale folded into the exponent (phased_cf, through out and its float
    scratch work); _window inverts rows built on it."""
    x_last = grid.x_center + (grid.n - 1 - grid.n // 2) * grid.dx
    return phased_cf(p, xi, x_last, -math.log(grid.dx), out, work)


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
    loosest rung, or a bound that is not finite, is a DomainError. A range
    too wide for any n <= GRID_N_MAX even at the smallest span (its width
    may overflow to inf) is a GridError that names the range; a law whose
    |Phi| decays too slowly for the range within the budget is a GridError
    that says so."""
    if not (math.isfinite(x_lo) and math.isfinite(x_hi)):
        raise DomainError(f"auto_grid needs finite bounds, got [{x_lo}, {x_hi}]")
    if not (x_hi > x_lo):
        raise DomainError("auto_grid needs x_hi > x_lo")
    _check_atom(p, TAIL_TOL_LADDER[-1])
    width = x_hi - x_lo
    x_center = 0.5 * (x_lo + x_hi)
    span = 0.5 * width + GRID_PAD * width
    # candidate frequency spans 64, 128, ..., 2^22
    spans = np.ldexp(64.0, np.arange(17))
    if 4.0 * span * spans[0] / math.pi > GRID_N_MAX:
        raise GridError(
            f"no admissible grid: the range [{x_lo:g}, {x_hi:g}] is too wide for the size "
            f"bound n <= {GRID_N_MAX} at any frequency span from {spans[0]:g} up"
        )
    # |Phi| at every candidate span, in one read
    tails = np.abs(characteristic_function(p, spans))
    for tol in TAIL_TOL_LADDER:
        decayed = np.flatnonzero(tails <= tol)
        if decayed.size == 0:
            continue
        xi_max = float(spans[decayed[0]])
        n = GRID_N_MIN
        while n <= GRID_N_MAX and n < 4.0 * span * xi_max / math.pi:
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


class _Workspace:
    """Memory that the field batches of one fit share: one float buffer, from
    which each batch carves its spectra and psi_jet block, the block's
    scratch rows and its irfft and rfft outputs. It grows to the largest
    batch so far and is then reused, so a fit faults those pages in once
    rather than once per batch. A batch's views are valid until the next
    batch carves.

    held records what the spectrum row holds after a level-1 batch: the
    batch's (params, grid, read), kept by reference and compared by
    identity, and a private copy of its density reads. A level-36 batch of
    the same three takes both (_field_batch). Mapping a new buffer drops
    held, and so does any batch that rebuilds the spectrum row.

    The buffer is a private anonymous memory map of its own, returned to
    the system when the workspace and its views are dropped. Taken from
    malloc, the buffer of a process's second fit lands in the heap (the
    first fit's freed buffer raises glibc's dynamic mmap threshold above
    its size), where what stays resident after a fit depends on how the
    heap was laid out: the peak resident set of a benchmark process of
    repeated near-beta = 0 fits came out at 54.2 or 58.4 MB, run to run,
    on a 2-vCPU x86_64 machine."""

    def __init__(self):
        self._flat = np.empty(0)
        self.held = None

    def carve(self, *sizes):
        """Consecutive views of the given numbers of floats, each starting on
        a 64-byte boundary of the buffer."""
        starts = np.cumsum([0] + [-(-s // 8) * 8 for s in sizes])
        if self._flat.size < starts[-1]:
            # release the old buffer before the new one is mapped
            self._flat = np.empty(0)
            self.held = None
            self._flat = np.frombuffer(_private_map(8 * int(starts[-1])), dtype=float)
        return [self._flat[a : a + s] for a, s in zip(starts, sizes)]


def _private_map(nbytes: int) -> mmap.mmap:
    """nbytes of zeroed anonymous memory, private to this process, unmapped
    when the last reference to it goes."""
    if hasattr(mmap, "MAP_PRIVATE"):
        return mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)
    return mmap.mmap(-1, nbytes)


def _field_batch(
    p: GtsParams, grid: GridSpec, level: int, read: _KernelRead = None, work: _Workspace = None
):
    """The density row, then (level 8 and 36) the 7 gradient rows, inverted
    by _window from one phased spectrum S_j = Phi(xi_j) e^{-i x_{n-1} xi_j}
    / dx (_spectrum, module docstring). d/dV e^Psi = (dPsi/dV) e^Psi, so a
    gradient row is S times a psi_jet row.

    Without read the rows are the grid's node values, shape (rows, n).
    With a kernel read (_KernelRead) S is first multiplied by the read's
    deconvolve row, 1 / K-hat(xi_j dx), so S below is the deconvolved
    spectrum; rows are inverted a few at a time (_BLOCK_POINTS), each
    block is read at the read's points and the read blocks are stacked, so
    the batch never holds its grid rows all at once. The density must then
    be positive and finite at every read point, else LikelihoodError, at
    every level.

    Level 36 is the adjoint read and needs a read, whose scatter is its
    transpose (a vector at the read points to its (n,) grid vector); level
    36 without one is a DomainError. It inverts the same 8 rows and returns
    (the 8 read rows, C), where C[r, s] is the sum over the read points of
    f_rs / f, f the density row and f_rs = (d2Psi_rs + dPsi_r dPsi_s) S
    inverted: every curvature is summed by the adjoint of the inversion,
    with weights B_j = c_j conj(V_j) S_j / N (module docstring).

    The batch's large arrays come from work (a fresh _Workspace if None),
    so the batches of a fit reuse the same pages: the spectrum S and the
    (17, J) psi_jet block in one (18, J) complex block, the irfft output
    block, and one scratch area that the spectrum's six float rows, the
    jet's three and the rfft output take in turn. Every level carves that
    level-36 layout and a level-1 batch writes only S and one output row,
    so a level-36 batch after a level-1 batch on the same grid maps no new
    buffer and can take what it holds. The
    density row is inverted first, since the curvature sums need 1 / f;
    the gradient rows are then formed in place, S times the jet rows, once
    the sums have read the jet. The returned arrays never share memory
    with work. A level-36 batch of the workspace's held tag (_Workspace)
    skips the spectrum and the density row; its results are the same bits.
    """
    if level not in (1, 8, 36):
        raise DomainError(f"field batch level must be 1, 8 or 36, got {level}")
    if level == 36 and read is None:
        raise DomainError("a level-36 field batch needs a read to scatter through")
    _check_tail(p, grid)
    h, size = _half_size(grid)
    n_out = _PAD * grid.n
    step = min(7, max(1, _BLOCK_POINTS // n_out))
    work = work or _Workspace()
    tag = (p, grid, read)
    take = read or np.copy
    # every level carves level 36's layout (a level-1 batch touches only its
    # first rows), so the spectrum row a level-1 batch leaves is where
    # level 36 reads it, and level 36 on that grid maps no larger buffer
    xi, block, out, scratch = work.carve(
        size, 2 * 18 * size, step * n_out, max(6 * size, n_out + 2)
    )
    np.multiply(np.arange(size), h, out=xi)
    block = block.view(complex).reshape(18, size)
    step = min(level, step)
    out = out.reshape(-1, n_out)
    spec = block[0]
    held = work.held
    if level == 36 and held is not None and all(a is b for a, b in zip(held[0], tag)):
        kept = [held[1]]
    else:
        work.held = None
        _spectrum(p, grid, xi, spec, scratch[: 6 * size].reshape(6, size))
        if read is not None:
            spec *= read.deconvolve
        kept = [take(_window(block[:1], grid, out[:1]))]
        if read is not None:
            _check_density(kept[0][0])
    if level == 1:
        work.held = (tag, kept[0].copy())
        return kept[0]
    gp, hp = psi_jet(p, xi, block[1:], scratch[: 3 * size].reshape(3, size))
    if level == 36:
        curv = _curvature(grid, read.scatter(1.0 / kept[0][0]), spec, gp, hp, out[0], scratch)
    gp *= spec
    for lo in range(1, 8, step):
        rows = block[lo : min(lo + step, 8)]
        kept.append(take(_window(rows, grid, out[: len(rows)])))
    vals = np.concatenate(kept)
    return vals if level == 8 else (vals, curv)


def _curvature(grid: GridSpec, u_grid, spec, gp, hp, v, scratch):
    """The level-36 curvature sums C[r, s] = sum over the read points of
    f_rs / f, from the weights 1 / f scattered onto the grid (u_grid), the
    spectrum S and the psi_jet rows gp, hp (module docstring). v is an
    irfft-output row and scratch a float area of at least _PAD n + 2 floats;
    the Hessian rows of the jet are spent as scratch."""
    n_out = _PAD * grid.n
    # the window's transpose: u_grid at irfft output n - 1 - k for node k
    v[:] = 0.0
    v[grid.n - 1 :: -1] = u_grid
    b = np.fft.rfft(v, out=scratch[: n_out + 2].view(complex))[: spec.size]
    np.conjugate(b, out=b)
    b[1 : n_out // 2] *= 2.0
    b *= spec
    b /= n_out
    curv = np.zeros((7, 7))
    for (r, s), row in hp.items():
        curv[r, s] = (b @ row).real
    tmp = next(iter(hp.values()))
    for r in range(7):
        np.multiply(gp[r], b, out=tmp)
        curv[r, r:] += (gp[r:] @ tmp).real
    return np.triu(curv) + np.triu(curv, 1).T


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


def _kernel(s: np.ndarray) -> np.ndarray:
    """The exponential-of-semicircle kernel exp(beta (sqrt(1 - (2 s / w)^2)
    - 1)) at offsets |s| <= w / 2 (in node spacings)."""
    # clamped at 0: a read point's offset from its node, rounded, can put
    # the farthest node a hair past w / 2
    arg = np.maximum(1.0 - (s * (2.0 / _KERNEL_W)) ** 2, 0.0)
    return np.exp(_KERNEL_BETA * (np.sqrt(arg) - 1.0))


@functools.lru_cache(maxsize=4)
def _kernel_deconvolution(n: int, size: int) -> np.ndarray:
    """1 / K-hat(theta_j) at theta_j = xi_j dx = 2 pi j / (_PAD n), j < size,
    read-only. K-hat(theta) = 2 int_0^{w/2} K(s) cos(s theta) ds, the even
    kernel's transform, by Gauss-Legendre in one size-length pass per node.
    theta_j depends on the grid only through n, so the grids of one size in
    a fit share the row."""
    z, wq = np.polynomial.legendre.leggauss(2 * _KERNEL_QUAD)
    s = 0.5 * _KERNEL_W * z[_KERNEL_QUAD:]
    c = _KERNEL_W * wq[_KERNEL_QUAD:] * _kernel(s)
    theta = (2.0 * math.pi / (_PAD * n)) * np.arange(size)
    khat = np.zeros(size)
    term = np.empty(size)
    for sq, cq in zip(s, c):
        np.multiply(theta, sq, out=term)
        np.cos(term, out=term)
        term *= cq
        khat += term
    np.divide(1.0, khat, out=khat)
    khat.flags.writeable = False
    return khat


class _KernelRead(NamedTuple):
    """A grid's rows read at fixed points through the kernel (module
    docstring): each point's _KERNEL_W grid node indices and kernel weights,
    shape (w, m), the grid size n, and the real row 1 / K-hat(xi_j dx) over
    the spectrum nodes, by which _field_batch deconvolves the spectrum
    before inverting it. Calling it reads (rows, n) to (rows, m).

    gather, (w, m), is scratch that each read and scatter fills, so reads
    sharing it are not for concurrent use. A fresh one per row let glibc
    trim and re-fault the heap top on every row in some processes (5x the
    page faults of a fit_near_vg benchmark round)."""

    nodes: np.ndarray
    weights: np.ndarray
    n: int
    deconvolve: np.ndarray
    gather: np.ndarray

    def __call__(self, rows: np.ndarray) -> np.ndarray:
        # row by row (all at once holds (rows, w, m)); "clip" buffers no out
        out = np.empty((len(rows), self.nodes.shape[1]))
        for row, o in zip(rows, out):
            np.take(row, self.nodes, mode="clip", out=self.gather)
            np.einsum("km,km->m", self.gather, self.weights, out=o)
        return out

    def scatter(self, u: np.ndarray) -> np.ndarray:
        """Transpose of the read: the (n,) vector s with s . row = u . read(row)
        for every grid row."""
        weights = np.multiply(self.weights, u, out=self.gather).ravel()
        return np.bincount(self.nodes.ravel(), weights=weights, minlength=self.n)


def _kernel_read(grid: GridSpec, x, gather=None) -> _KernelRead:
    """The kernel read of the grid at the points x. A point x between nodes
    x_k and x_{k+1} reads the _KERNEL_W nodes x_{k-w/2+1}, ..., x_{k+w/2}
    with weights K((x - x_i) / dx). Raises GridError for a point whose
    nodes leave the grid. gather is the read's scratch, shared with another
    read of the same points (a new one if None)."""
    pts = np.atleast_1d(np.asarray(x, dtype=float)).ravel()
    half = _KERNEL_W // 2
    nodes = grid.x_nodes()
    lo, hi = nodes[half - 1], nodes[grid.n - 1 - half]
    if np.any(pts < lo) or np.any(pts > hi):
        raise GridError(f"kernel read points outside [{lo:g}, {hi:g}]; widen the grid")
    k = np.searchsorted(nodes, pts, side="right") - 1
    t = (pts - nodes[k]) / grid.dx
    offsets = np.arange(1 - half, half + 1)[:, np.newaxis]
    return _KernelRead(
        k + offsets,
        _kernel(t - offsets),
        grid.n,
        _kernel_deconvolution(grid.n, _half_size(grid)[1]),
        np.empty((_KERNEL_W, pts.size)) if gather is None else gather,
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
