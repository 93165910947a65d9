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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, GridError
from .frft import Field, GridSpec, auto_grid, cdf_field
from .model import GtsParams, cumulant

_MASK = (1 << 64) - 1

_CHUNK = 65536

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
    grid: Optional[GridSpec] = None

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
    cell's cubic interpolant (the same stencil interpolate() reads)."""
    grid = field.grid
    f = field.values
    cell = np.clip(np.searchsorted(f, u, side="left") - 1, 2, grid.n - 4)
    stencil = np.stack([f[cell - 1], f[cell], f[cell + 1], f[cell + 2]])
    lo = np.zeros(u.size)
    hi = np.ones(u.size)
    for _ in range(60):
        t = 0.5 * (lo + hi)
        w0 = -t * (t - 1.0) * (t - 2.0) / 6.0
        w1 = (t + 1.0) * (t - 1.0) * (t - 2.0) / 2.0
        w2 = -(t + 1.0) * t * (t - 2.0) / 2.0
        w3 = (t + 1.0) * t * (t - 1.0) / 6.0
        val = stencil[0] * w0 + stencil[1] * w1 + stencil[2] * w2 + stencil[3] * w3
        below = val < u
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
    t = 0.5 * (lo + hi)
    return grid.x_nodes()[cell] + t * grid.dx


def sample_gts(p: GtsParams, cfg: SampleConfig) -> np.ndarray:
    """cfg.n inverse-CDF draws, bitwise deterministic in cfg.seed."""
    if cfg.grid is not None:
        field = cdf_field(p, cfg.grid)
        if not _coverage_ok(field):
            v = field.values
            raise GridError(
                f"grid covers F in [{v[2]:.3e}, {v[-3]:.10f}]; "
                "tails exceed the coverage tolerance"
            )
    else:
        field = _default_cdf(p)
    u = uniforms(cfg.seed, cfg.n)
    return _invert(field, u)


def samples_to_csv(samples, path) -> None:
    """One-column CSV with a header row."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("sample\n")
        for v in np.asarray(samples, dtype=float):
            fh.write(f"{v:.17g}\n")
