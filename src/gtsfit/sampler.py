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

Each uniform u is mapped through the monotone-repaired CDF field: a guide
table (Chen and Asau 1974; Devroye 1986, III.2.4) finds the grid cell that
brackets u, then two Newton steps from the linear guess, each clipped to
the cell, solve F(x) = u on the cell's cubic (field reads' interpolant) in
powers of the offset t. A point with no guess (a flat cell), a slope
ending non-positive or a residual |F(x) - u| above 2^-50 is bisected on
the cubic instead, so no residual exceeds 2^-50 unless the bisection's own
does.

The guide table cuts [0, 1) into n buckets [b/n, (b+1)/n), n the grid
size, and holds for each b the number of node values f below b/n; the
first bucket also takes every node below 0 and the last every node from
(n-1)/n up. Built once per inversion, it is a search of n + 1 keys. A
uniform u in bucket b = floor(u n) then has every node before guide[b]
below b/n <= u and every node from guide[b + 1] at or above (b+1)/n > u,
so its count of nodes below u, the index np.searchsorted(f, u, "left")
gives, lies in [guide[b], guide[b + 1]]. That takes f nondecreasing
(cdf_field's running maximum) and u n and b/n exact (n is a power of two).
A bucket with no node gives the index at once, a bucket with one node
after one comparison, and only the draws in buckets of several nodes, the
far tails, where many cells share 1/n of probability, are searched. The
index is the binary search's, bit for bit, for every u but nan.

The inversion streams in blocks of _BLOCK = 8192 draws, so its
temporaries stay cache-sized and its memory does not grow with the sample
count beyond the output itself. A draw depends only on its own uniform, so
the blocks change no bit of any draw.

The CSV writer gives each draw the bytes of "%.17g\n", in numpy, blocks
of _ROWS = 2048 draws at a time (its buffers and strings, about 0.5 MB,
then stay under the inversion's). A draw x with 1e-4 <= |x| < 1e17 is in
%.17g's fixed notation, at decimal exponent e in [-4, 16]. There
x 10^(16 - e) is exactly hi + lo, Dekker's error-free product (10^k is a
double for k <= 22), and rounding it half-even to the integer D gives the
17 significant digits; an e from log10 that is one off shows as hi + lo
outside [10^16, 10^17) and is moved. D splits into the integer part and
the fraction, both rendered as 4-digit groups through one uint32 ASCII
table, a fraction group followed by zero groups through the table's
variant with its trailing zeros NUL. Each draw is a column of 13 words
(sign, 5 integer groups, point, 5 fraction groups, newline), a per-e mask
NULs the places %.17g does not print, and the NULs are dropped with
bytes.translate. Every other draw (0, -0, inf, nan, |x| < 1e-4 and
|x| >= 1e17) is formatted by %.17g itself, one % per block, and a block of
only those is written as that string.
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

_ROWS = 2048

_ROW = 13

_MINUS, _DOT, _NL = np.frombuffer(b"-\0\0\0.\0\0\0\n\0\0\0", np.uint32)

_SPLIT = 2.0**27 + 1.0

_DIVISORS = 10 ** np.arange(18, dtype=np.int64)

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


def _whole(v, what: str) -> int:
    """v as an int, or DomainError unless v is a whole number: an int, a
    numpy integer or an integral float (a bool is none of these)."""
    if isinstance(v, (int, np.integer)) and not isinstance(v, bool):
        return int(v)
    if isinstance(v, (float, np.floating)) and math.isfinite(v) and v % 1 == 0:
        return int(v)
    raise DomainError(f"{what} must be a whole number, got {v!r}")


def uniforms(seed: int, n: int) -> np.ndarray:
    """n deterministic uniforms in chunks of 65536, drawn in lanes of
    _LANE steps (module docstring). seed and n are whole numbers; seed is
    taken mod 2^64."""
    seed = _whole(seed, "seed")
    n = _whole(n, "uniform count")
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
        # whole floats and numpy integers are kept as the ints they equal
        object.__setattr__(self, "n", _whole(self.n, "sample count"))
        object.__setattr__(self, "seed", _whole(self.seed, "seed"))
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


def _guide(f: np.ndarray) -> np.ndarray:
    """The guide table of nondecreasing node values f, n = f.size a power
    of two: entry b < n counts the nodes below b/n, entry 0 is 0 and entry
    n is n (module docstring)."""
    n = f.size
    guide = np.searchsorted(f, np.arange(n + 1) / n, side="left")
    guide[0], guide[n] = 0, n
    return guide


def _search(f: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """np.searchsorted(f, u, side="left"), element for element, through
    the guide table of f (module docstring)."""
    n = f.size
    b = np.clip(u * n, 0.0, n - 1).astype(np.intp)
    i = guide[b]
    w = guide[b + 1] - i
    # a bucket's one node is counted when it lies below u; an empty bucket
    # at the top (i = n) reads a node but adds nothing
    i += (w == 1) & (f[np.minimum(i, n - 1)] < u)
    many = np.flatnonzero(w > 1)
    if many.size:
        i[many] = np.searchsorted(f, u[many], side="left")
    return i


def _invert(field: Field, u: np.ndarray) -> np.ndarray:
    """Solve F(x) = u per point by Newton on the cell's cubic, bisecting
    where t is not finite, its slope not positive or the residual above
    2^-50, one block of _BLOCK uniforms at a time. The cell is found
    through the guide table, which takes the field's values nondecreasing
    (module docstring)."""
    grid = field.grid
    f = field.values
    guide = _guide(f)
    x_nodes = grid.x_nodes()
    out = np.empty(u.size)
    for s in range(0, u.size, _BLOCK):
        ub = u[s : s + _BLOCK]
        cell = np.clip(_search(f, guide, ub) - 1, 2, grid.n - 4)
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


@functools.cache
def _digit_tables():
    """(words, masks, pow10, pow10_hi, pow10_lo) for _write_samples.

    words is a uint32 ASCII table of 4-digit groups: entry g < 10000 holds
    g's four digits, entry 10000 + g the same with its trailing zeros NUL.
    Column e + 4 of the (_ROW, 21) masks keeps, of a draw's words, the
    e + 1 integer places (one, for the 0, when e < 0) and the 16 - e
    fraction places of decimal exponent e, and NULs the rest. pow10 holds
    the exact doubles 10^0..10^21, with their Veltkamp halves."""
    g = np.arange(10000, dtype=np.uint16)
    plain = np.empty((10000, 4), dtype=np.uint8)
    for j, place in enumerate((1000, 100, 10, 1)):
        plain[:, j] = g // place % 10 + 48
    trailing = np.logical_and.accumulate(plain[:, ::-1] == 48, axis=1)[:, ::-1]
    words = np.concatenate([plain, np.where(trailing, 0, plain)]).view(np.uint32).ravel()
    keep, cut = b"\xff", b"\0"
    masks = np.frombuffer(b"".join(
        cut * (23 - max(e, 0)) + keep * (1 + max(e, 0))
        + keep * 4 + cut * (e + 4) + keep * (16 - e) + keep * 4
        for e in range(-4, 17)
    ), np.uint32).reshape(21, _ROW).T.copy()
    pow10 = np.array([float(10**k) for k in range(22)])
    t = _SPLIT * pow10
    pow10_hi = t - (t - pow10)
    return words, masks, pow10, pow10_hi, pow10 - pow10_hi


def _two_product(a, k):
    """(hi, lo) with hi + lo = a 10^k exactly and hi = fl(a 10^k)
    (Dekker 1971), for 0 <= k <= 21 and a as _digits passes it, where no
    partial product overflows or underflows."""
    _, _, pow10, pow10_hi, pow10_lo = _digit_tables()
    b, b_hi, b_lo = pow10[k], pow10_hi[k], pow10_lo[k]
    hi = a * b
    t = _SPLIT * a
    a_hi = t - (t - a)
    a_lo = a - a_hi
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _digits(a):
    """(D, e) for finite doubles 1e-4 <= a < 1e17: a rounded half-even to
    17 significant digits is D 10^(e - 16), 10^16 <= D < 10^17.

    A first e from log10 may be one off near a power of ten, which the
    exact product a 10^(16 - e) = hi + lo shows; those rows alone take it
    again with e moved. hi >= 2^53 is then an even integer, so rounding
    hi + lo half-even is hi + rint(lo), and |lo| <= 8. No rounding carries
    into an 18th digit: the largest double below 10^(e + 1), e in
    [-4, 16], gives hi + lo at least 8.3 below 10^17."""
    e = np.clip(np.floor(np.log10(a)), -5, 16).astype(np.intp)
    hi, lo = _two_product(a, 16 - e)
    # hi strictly inside (10^16, 10^17) puts hi + lo there too
    rows = np.flatnonzero((hi <= 1e16) | (hi >= 1e17))
    while rows.size:
        h, l = hi[rows], lo[rows]
        step = ((h > 1e17) | ((h == 1e17) & (l >= 0.0))).astype(np.intp)
        step -= (h < 1e16) | ((h == 1e16) & (l < 0.0))
        rows, step = rows[step != 0], step[step != 0]
        e[rows] += step
        hi[rows], lo[rows] = _two_product(a[rows], 16 - e[rows])
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), e


def _write_samples(fh, samples) -> None:
    """The one-column CSV, the bytes of "%.17g\\n" per draw, formatted and
    written one block of _ROWS draws at a time (module docstring)."""
    a = np.asarray(samples, dtype=float).reshape(-1)
    fh.write("sample\n")
    words, masks = _digit_tables()[:2]
    # a draw is a column of _ROW words: row 0 the sign, rows 1-5 groups of 4
    # integer places, 6 the point, 7-11 groups of 4 fraction places, 12 the
    # newline. Every index stays in the table; the take's words in rows 0,
    # 6 and 12 are overwritten.
    index = np.zeros(_ROW * _ROWS, dtype=np.intp)
    out = np.empty(_ROW * _ROWS, dtype=np.uint32)
    keep = np.empty_like(out)
    for s in range(0, a.size, _ROWS):
        x = a[s : s + _ROWS]
        m = x.size
        ax = np.abs(x)
        slow = np.flatnonzero(~((ax >= 1e-4) & (ax < 1e17)))
        if slow.size:
            # 0, -0, inf, nan and the exponent notation's range: %.17g, as
            # one % of the whole block when none of it is in range
            text = ("%.17g\n" * slow.size) % tuple(x[slow].tolist())
            if slow.size == m:
                fh.write(text)
                continue
            # a finite stand-in, so nothing below warns or casts a nan
            ax[slow] = 1.0
        d, e = _digits(ax)
        # the integer part and the fraction's 16 - e places, each as an
        # integer of 20 places; when e < 0 the integer part is 0 and the
        # fraction d, behind -e - 1 zero places
        div = _DIVISORS[np.minimum(16 - e, 17)]
        ip = d // div
        parts = np.stack([ip, d - ip * div])
        idx = index[: _ROW * m].reshape(_ROW, m)
        # // by a constant is a multiply (libdivide), % a division, so
        # remainders are taken as v - q c
        q8 = parts // 10**8
        lo8 = parts - q8 * 10**8
        idx[1::6] = g0 = q8 // 10**8
        mid = q8 - g0 * 10**8
        idx[2::6] = g1 = mid // 10**4
        idx[3::6] = g2 = mid - g1 * 10**4
        idx[4::6] = g3 = lo8 // 10**4
        idx[5::6] = g4 = lo8 - g3 * 10**4
        # a fraction group followed by zero groups only drops its trailing zeros
        lo_zero = lo8[1] == 0
        idx[7] += 10000 * (lo_zero & (mid[1] == 0))
        idx[8] += 10000 * (lo_zero & (g2[1] == 0))
        idx[9] += 10000 * lo_zero
        idx[10] += 10000 * (g4[1] == 0)
        idx[11] += 10000
        row = out[: _ROW * m].reshape(_ROW, m)
        np.take(words, idx, out=row, mode="clip")
        mask = keep[: _ROW * m].reshape(_ROW, m)
        np.take(masks, e + 4, axis=1, out=mask, mode="clip")
        row &= mask
        # the sign takes the word before the block's first integer word, and
        # the words before it, NUL for every draw, are not written
        lead = 4 - max(int(e.max()), 0) // 4
        row[lead] = (x < 0.0) * _MINUS
        row[6] = (parts[1] != 0) * _DOT
        row[-1] = _NL
        row = row[lead:]
        if slow.size:
            # each such draw's %.17g line, NUL-padded to its column of words
            lines = np.array(text.encode().splitlines(keepends=True), dtype=f"S{4 * len(row)}")
            row[:, slow] = lines.view(np.uint32).reshape(slow.size, -1).T
        fh.write(row.T.tobytes().translate(None, b"\0").decode("ascii"))


def samples_to_csv(samples, path) -> None:
    """One-column CSV with a header row."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_samples(fh, samples)
