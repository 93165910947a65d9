"""Inverse-CDF sampling from the numerically inverted distribution.

Uniform variates come from xoshiro256** (Blackman-Vigna), seeded through
splitmix64; both are written out here, in `_splitmix64`, `_advance` and
`uniforms`, so every seeded constant in the tests is reproducible from this
file alone. Draws are produced in fixed chunks of 65536. Chunk c starts
from the state of four splitmix64 outputs seeded by the c-th splitmix64
output of the master seed (an all-zero state, which xoshiro never leaves,
gets s0 = 1). A uniform is the top 53 bits of a xoshiro256** output times
2^-53, in [0, 1).

The xoshiro state update s <- A s is linear over GF(2), so s advanced
_LANE = 128 steps is J s with J = A^128, a 256x256 bit matrix. `uniforms`
cuts each chunk into lanes of 128 draws: lane j of a chunk starts from
J^j times the chunk's state, which is the state the one sequential stream
reaches after 128 j steps, and then every lane of every chunk is stepped
128 times in lock-step as numpy uint64 columns. Draw i of a chunk is step
i % 128 of lane i // 128, so the stream is the sequential one, bit for
bit, whatever n is. J is built once per process by stepping the 256
one-bit states 128 times with the same `_advance`, and kept as 256
four-word columns (8 KB); J s is the XOR of the columns at the set bits of
s. A call runs only as many lanes as its n needs.

Each uniform u is mapped through the monotone-repaired CDF field: binary
search over the node values brackets u in one grid cell, then two Newton
steps from the linear guess, each clipped to the cell, solve F(x) = u on
the cell's cubic (field reads' interpolant) in powers of the offset t. A
point with no guess (a flat cell), a slope ending non-positive or a
residual |F(x) - u| above 2^-50 is bisected on the cubic instead, so no
residual exceeds 2^-50 unless the bisection's own does.

The inversion and the CSV writer both stream in blocks of _BLOCK = 8192
draws, so their temporaries stay cache-sized and their memory does not
grow with the sample count beyond the output itself. A draw depends only
on its own uniform, so the blocks change no bit of any draw.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, GridError
from .frft import Field, auto_grid, cdf_field
from .model import GtsParams, cumulant

_MASK = (1 << 64) - 1

_CHUNK = 65536

_LANE = 128

_BIT = np.arange(64, dtype=np.uint64)

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


def _advance(s: np.ndarray, t: np.ndarray) -> None:
    """One xoshiro256** state update, in place, of every column (lane) of
    the (4, lanes) uint64 state s; t is a scratch row of the same length."""
    s0, s1, s2, s3 = s
    np.left_shift(s1, 17, out=t)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    np.left_shift(s3, 45, out=t)
    s3 >>= 19
    s3 |= t


@functools.cache
def _jump_columns() -> np.ndarray:
    """J = A^_LANE as a read-only (4, 256) uint64 array: column b is the
    state that bit b alone (word b // 64, bit b % 64) reaches in _LANE steps."""
    b = np.arange(256)
    cols = np.zeros((4, 256), dtype=np.uint64)
    cols[b // 64, b] = np.left_shift(np.uint64(1), (b % 64).astype(np.uint64))
    t = np.empty(256, dtype=np.uint64)
    for _ in range(_LANE):
        _advance(cols, t)
    cols.flags.writeable = False
    return cols


def _jump(states: np.ndarray) -> np.ndarray:
    """J s for every row s of a (rows, 4) uint64 array of states: the XOR
    of J's columns at the set bits of s."""
    # bit b = 64 word + i of each state as a 0/1 uint64 factor; uint64
    # shifts and masks reuse the draws' numpy loops, where unpackbits' uint8
    # bits needed a cast that added code pages to the resident set
    bits = (states[:, :, None] >> _BIT) & 1
    return np.bitwise_xor.reduce(_jump_columns() * bits.reshape(-1, 1, 256), axis=2)


def uniforms(seed: int, n: int) -> np.ndarray:
    """n deterministic uniforms in chunks of 65536, drawn in lanes of
    _LANE steps (module docstring)."""
    if n < 0:
        raise DomainError(f"uniform count must be >= 0, got {n}")
    chunks = -(-n // _CHUNK)
    lanes = -(-min(n, _CHUNK) // _LANE)
    state = np.array(
        [_splitmix64(c, 4) for c in _splitmix64(seed, chunks)], dtype=np.uint64
    ).reshape(chunks, 4)
    state[~state.any(axis=1), 0] = 1
    # column c * lanes + j of s is J^j times chunk c's state; the last
    # chunk's lanes past draw n are cut off
    s = np.empty((4, chunks, lanes), dtype=np.uint64)
    for j in range(lanes):
        s[:, :, j] = state.T
        state = _jump(state)
    total = -(-n // _LANE)
    s = s.reshape(4, -1)[:, :total]
    out = np.empty((total, _LANE))
    t = np.empty(total, dtype=np.uint64)
    w = np.empty(total, dtype=np.uint64)
    for k in range(_LANE):
        # the output rotl(s1 * 5, 7) * 9 >> 11 of every lane, as draw k of it
        np.multiply(s[1], 5, out=t)
        np.left_shift(t, 7, out=w)
        t >>= 57
        t |= w
        t *= 9
        t >>= 11
        # t < 2^53, so its int64 view is the same number; numpy's int64 to
        # float64 cast is already loaded, where a uint64 cast added 0.1 MB
        # of code pages to the resident set
        out[:, k] = t.view(np.int64)
        _advance(s, w)
    # each output >> 11 is below 2^53, so it is stored exactly and the
    # power-of-two scale leaves the 53 bits unchanged
    out *= 2.0**-53
    return out.reshape(-1)[:n]


@dataclass(frozen=True)
class SampleConfig:
    n: int
    seed: int

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("sample count must be >= 1")


def _default_cdf(p: GtsParams) -> Field:
    center = cumulant(p, 1)
    half = max(6.0 * math.sqrt(cumulant(p, 2)), 1.0)
    for _ in range(8):
        field = cdf_field(p, auto_grid(p, center - half, center + half))
        v = field.values
        if v[2] <= COVERAGE_TOL and v[-3] >= 1.0 - COVERAGE_TOL:
            return field
        half *= 2.0
    raise GridError("no grid wide enough to cover both distribution tails")


def _cubic(c, t):
    """The cell's cubic f1 + c1 t + c2 t^2 + c3 t^3 at offsets t."""
    f1, c1, c2, c3 = c
    return f1 + t * (c1 + t * (c2 + t * c3))


def _bisect(c, u):
    """t in [0, 1] with _cubic(c, t) = u, by 60 bisection steps."""
    lo = np.zeros(u.size)
    hi = np.ones(u.size)
    for _ in range(60):
        t = 0.5 * (lo + hi)
        below = _cubic(c, t) < u
        lo = np.where(below, t, lo)
        hi = np.where(below, hi, t)
    return 0.5 * (lo + hi)


def _invert(field: Field, u: np.ndarray) -> np.ndarray:
    """Solve F(x) = u per point by Newton on the cell's cubic, bisecting
    where t is not finite, its slope not positive or the residual above
    2^-50 (module docstring), one block of _BLOCK uniforms at a time."""
    grid = field.grid
    f = field.values
    x_nodes = grid.x_nodes()
    out = np.empty(u.size)
    for s in range(0, u.size, _BLOCK):
        ub = u[s : s + _BLOCK]
        cell = np.clip(np.searchsorted(f, ub, side="left") - 1, 2, grid.n - 4)
        f0, f1, f2, f3 = f[cell - 1], f[cell], f[cell + 1], f[cell + 2]
        # interpolate()'s Lagrange weights at offset t, gathered by powers of t
        c = (f1, f2 - f0 / 3.0 - f1 / 2.0 - f3 / 6.0,
             (f0 + f2) / 2.0 - f1, (f3 - f0) / 6.0 + (f1 - f2) / 2.0)
        # a flat cell gives 0 / 0 and a zero slope an infinite step (clipped
        # to the cell); the check below sends what stays unsolved to _bisect
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.clip((ub - f1) / (f2 - f1), 0.0, 1.0)
            for step in range(3):
                slope = c[1] + t * (2.0 * c[2] + 3.0 * t * c[3])
                resid = _cubic(c, t) - ub
                if step < 2:
                    t = np.clip(t - resid / slope, 0.0, 1.0)
        # 2^-50 is twice the bisection's own residual floor
        bad = ~(slope > 0.0) | ~(np.abs(resid) <= 2.0**-50)
        if bad.any():
            t[bad] = _bisect([a[bad] for a in c], ub[bad])
        np.add(x_nodes[cell], t * grid.dx, out=out[s : s + ub.size])
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
