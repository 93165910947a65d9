"""Inverse-CDF sampling from the numerically inverted distribution.

Uniform variates come from xoshiro256** (Blackman-Vigna), seeded through
splitmix64; both are written out here, in `_splitmix64` and the loop of
`uniforms`, so every seeded constant in the tests is reproducible from this
file alone. Draws are produced in fixed chunks of 65536. Chunk c starts
from the state of four splitmix64 outputs seeded by the c-th splitmix64
output of the master seed, so a parallel implementation partitioned on
those chunks would emit the identical stream. A uniform is the top 53 bits
of a xoshiro256** output times 2^-53, in [0, 1).

Each uniform u is mapped through the monotone-repaired CDF field: binary
search over the node values brackets u in one grid cell, then bisection on
the same four-point cubic interpolant used by field reads solves
F(x) = u inside the cell. Because the forward read and the inversion share
one interpolant, F(x_i) returns u_i to well below 1e-6.

The inversion and the CSV writer both stream in blocks of _BLOCK = 8192
draws, so their temporaries stay cache-sized and their memory does not
grow with the sample count beyond the output itself. A draw depends only
on its own uniform, so the blocks change no bit of any draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError
from .frft import Field, auto_grid, cdf_field
from .model import GtsParams, cumulant

_MASK = (1 << 64) - 1

_CHUNK = 65536

_BLOCK = 8192

COVERAGE_TOL = 1e-6


def _splitmix64(state: int, count: int) -> list:
    """count consecutive splitmix64 outputs from a 64-bit state."""
    s = int(state) & _MASK
    out = []
    for _ in range(count):
        s = (s + 0x9E3779B97F4A7C15) & _MASK
        z = ((s ^ (s >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def uniforms(seed: int, n: int) -> np.ndarray:
    """n deterministic uniforms in chunks of 65536 (module docstring)."""
    if n < 0:
        raise DomainError(f"uniform count must be >= 0, got {n}")
    out = np.empty(n)
    for start, chunk_seed in zip(range(0, n, _CHUNK), _splitmix64(seed, -(-n // _CHUNK))):
        s0, s1, s2, s3 = _splitmix64(chunk_seed, 4)
        if not (s0 or s1 or s2 or s3):
            s0 = 1
        for i in range(start, min(start + _CHUNK, n)):
            r = (s1 * 5) & _MASK
            out[i] = ((((r << 7) | (r >> 57)) * 9) & _MASK) >> 11
            t = (s1 << 17) & _MASK
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK
    # each output >> 11 is below 2^53, so it is stored exactly and the
    # power-of-two scale leaves the 53 bits unchanged
    out *= 2.0**-53
    return out


@dataclass(frozen=True)
class SampleConfig:
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("sample count must be >= 1")


def _coverage_ok(field: Field) -> bool:
    v = field.values
    return v[2] <= COVERAGE_TOL and v[-3] >= 1.0 - COVERAGE_TOL


def _default_cdf(p: GtsParams) -> Field:
    center = cumulant(p, 1)
    half = max(6.0 * math.sqrt(cumulant(p, 2)), 1.0)
    for _ in range(8):
        field = cdf_field(p, auto_grid(p, center - half, center + half))
        if _coverage_ok(field):
            return field
        half *= 2.0
    raise GridError("no grid wide enough to cover both distribution tails")


def _invert(field: Field, u: np.ndarray) -> np.ndarray:
    """Solve F(x) = u per point: node-level bracket, then bisection on the
    cell's cubic interpolant (the same stencil interpolate() reads), one
    block of _BLOCK uniforms at a time."""
    grid = field.grid
    f = field.values
    x_nodes = grid.x_nodes()
    out = np.empty(u.size)
    for s in range(0, u.size, _BLOCK):
        ub = u[s : s + _BLOCK]
        cell = np.clip(np.searchsorted(f, ub, side="left") - 1, 2, grid.n - 4)
        f0, f1, f2, f3 = f[cell - 1], f[cell], f[cell + 1], f[cell + 2]
        lo = np.zeros(ub.size)
        hi = np.ones(ub.size)
        t, a, b, c, w, val, below = np.empty((7, ub.size))
        for _ in range(60):
            # interpolate()'s weights, with a, b, c = t - 1, t - 2, t + 1:
            # w0 = -t a b / 6, w1 = c a b / 2, w2 = -c t b / 2, w3 = c t a / 6,
            # and val = f0 w0 + f1 w1 + f2 w2 + f3 w3 summed left to right.
            # Moving the signs of w0 and w2 onto the sums, reusing c t and
            # taking / 2 as * 0.5 are exact, so val is bit-equal to that form.
            np.add(lo, hi, out=t)
            t *= 0.5
            np.subtract(t, 1.0, out=a)
            np.subtract(t, 2.0, out=b)
            np.add(t, 1.0, out=c)
            np.multiply(t, a, out=w)
            w *= b
            w /= 6.0
            np.multiply(f0, w, out=val)
            np.multiply(c, a, out=w)
            w *= b
            w *= 0.5
            w *= f1
            np.subtract(w, val, out=val)
            c *= t
            np.multiply(c, b, out=w)
            w *= 0.5
            w *= f2
            val -= w
            np.multiply(c, a, out=w)
            w /= 6.0
            w *= f3
            val += w
            # lo = t where val < u, else hi = t. As 0 <= lo <= t <= hi <= 1,
            # max(lo, t [val < u]) and min(hi, t + 2 [val < u]) pick the same
            # bits without the branch a masked copy mispredicts on random u.
            np.less(val, ub, out=below)
            np.multiply(t, below, out=w)
            np.maximum(lo, w, out=lo)
            np.add(below, below, out=w)
            w += t
            np.minimum(hi, w, out=hi)
        np.add(lo, hi, out=t)
        t *= 0.5
        t *= grid.dx
        np.add(x_nodes[cell], t, out=out[s : s + ub.size])
    return out


def sample_gts(p: GtsParams, cfg: SampleConfig) -> np.ndarray:
    """cfg.n inverse-CDF draws, bitwise deterministic in cfg.seed."""
    return _invert(_default_cdf(p), uniforms(cfg.seed, cfg.n))


def _write_samples(fh, samples) -> None:
    """The one-column CSV, formatted and written one block of _BLOCK draws
    at a time (a whole-file string would cost its size in memory again)."""
    a = np.asarray(samples, dtype=float)
    fh.write("sample\n")
    for s in range(0, a.size, _BLOCK):
        rows = a[s : s + _BLOCK].tolist()
        fh.write(("%.17g\n" * len(rows)) % tuple(rows))


def samples_to_csv(samples, path) -> None:
    """One-column CSV with a header row."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_samples(fh, samples)
