"""Kolmogorov-Smirnov goodness of fit with exact finite-sample p-values.

The statistic is the binned two-term form

    d_m = max( sup_j |F(x_j) - F_m(x_j)|, sup_j |F(x_j) - F_m(x_j-)| )

with the sup taken over the tabulated edges only. P(D_m <= d) is computed
by Durbin's matrix-power recursion in the Marsaglia-Tsang-Wang arrangement,
with power-of-two rescaling so the powers never overflow. The tests hold it
within 1e-10 of scipy's kstwo.

Binned tables printed to fixed precision may omit extreme rows, so a
table's cumulative counts need not reach m; the step values at the listed
edges stay authoritative and the sup runs over those edges.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import DataError, DomainError

KS_MAX_M = 100000


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Right-continuous step CDF: jump to cum_counts[j]/m at edges[j]."""

    edges: np.ndarray
    cum_counts: np.ndarray
    m: int

    def __post_init__(self):
        e = np.array(self.edges, dtype=float)
        c = np.array(self.cum_counts, dtype=np.int64)
        if e.ndim != 1 or e.size == 0 or e.shape != c.shape:
            raise DataError("edges and cumulative counts must be equal-length 1-d")
        if not np.all(np.isfinite(e)):
            raise DataError(f"edges must be finite, got {e[~np.isfinite(e)][0]}")
        if np.any(np.diff(e) <= 0.0):
            raise DataError("edges must be strictly increasing")
        if c[0] < 0 or np.any(np.diff(c) < 0) or c[-1] > self.m:
            raise DataError("cumulative counts must be non-decreasing and <= m")
        if self.m < 1:
            raise DataError("sample size must be >= 1")
        e.flags.writeable = False
        c.flags.writeable = False
        object.__setattr__(self, "edges", e)
        object.__setattr__(self, "cum_counts", c)

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalDistribution":
        x = np.asarray(samples, dtype=float)
        if x.size == 0:
            raise DataError("empty sample")
        edges, counts = np.unique(x, return_counts=True)
        return cls(edges, np.cumsum(counts), int(x.size))

    @classmethod
    def from_bins(cls, bins: Sequence[Tuple[float, int]], m: Optional[int] = None):
        """bins: (edge, count) pairs, ascending edges, counts >= 0."""
        if not bins:
            raise DataError("empty bin table")
        edges = np.array([b[0] for b in bins], dtype=float)
        counts = np.array([b[1] for b in bins])
        if np.any(counts < 0) or np.any(counts != counts.astype(np.int64)):
            raise DataError("bin counts must be non-negative integers")
        cum = np.cumsum(counts.astype(np.int64))
        total = int(cum[-1]) if m is None else int(m)
        return cls(edges, cum, total)

    def step_values(self) -> np.ndarray:
        """F_m at each edge."""
        return self.cum_counts / self.m

    def pre_jump_values(self) -> np.ndarray:
        """F_m just left of each edge (previous listed edge's value)."""
        prev = np.concatenate(([0], self.cum_counts[:-1]))
        return prev / self.m


def empirical_cdf(e: EmpiricalDistribution, x) -> np.ndarray | float:
    """Fraction of mass at or below x."""
    pts = np.asarray(x, dtype=float)
    idx = np.searchsorted(e.edges, pts, side="right")
    cum = np.concatenate(([0], e.cum_counts))
    out = cum[idx] / e.m
    return float(out) if pts.ndim == 0 else out


@dataclass(frozen=True)
class KsReport:
    """KS statistic with its location and, once attached, the exact p-value.

    components holds the two sups (pre-jump term, at-edge term); d_m is
    their max and component names which one attains it.
    """

    d_m: float
    m: int
    sup_at: float
    component: str
    components: Tuple[float, float]
    p_value: Optional[float] = None


def ks_statistic(cdf: Callable, e: EmpiricalDistribution) -> KsReport:
    """Two-term sup over the edges of e.

    cdf is called once, with the array e.edges, and must return the model
    CDF at every edge as an array of the same shape."""
    vals = np.asarray(cdf(e.edges), dtype=float)
    at_edge = np.abs(vals - e.step_values())
    pre_jump = np.abs(vals - e.pre_jump_values())
    i_at = int(np.argmax(at_edge))
    i_pre = int(np.argmax(pre_jump))
    sup_pair = (float(pre_jump[i_pre]), float(at_edge[i_at]))
    if sup_pair[1] >= sup_pair[0]:
        d, at, comp = sup_pair[1], float(e.edges[i_at]), "at_edge"
    else:
        d, at, comp = sup_pair[0], float(e.edges[i_pre]), "pre_jump"
    return KsReport(d_m=d, m=e.m, sup_at=at, component=comp, components=sup_pair)


def _rescale(mat: np.ndarray, expo: int):
    mx = np.abs(mat).max()
    if mx <= 0.0 or not math.isfinite(mx):
        return mat, expo
    k = int(math.floor(math.log2(mx)))
    if k:
        mat = mat * 2.0 ** (-k)
        expo += k
    return mat, expo


def ks_exact_cdf(d: float, m: int) -> float:
    """P(D_m <= d) for the one-sample two-sided statistic, exactly.

    Durbin's (2k-1)x(2k-1) transition matrix raised to the m-th power by
    binary squaring; each product is rescaled by a power of two and the
    exponent tracked separately, and the m!/m^m factor is applied in logs.
    Only entry [k-1, k-1] of the power is read, so row k-1 is carried
    through the powering: a set bit of m costs a vector-matrix product, and
    only the squarings are matrix products. Where Massart's bound puts the
    survival below 2^-54 the result is 1.0 without the matrix.
    """
    if m < 1 or m != int(m):
        raise DomainError(f"sample size must be a positive integer, got {m}")
    if m > KS_MAX_M:
        raise DomainError(f"sample size {m} exceeds the overflow guard {KS_MAX_M}")
    if not math.isfinite(d):
        raise DomainError(f"KS statistic must be finite, got {d}")
    if d * m <= 0.5:
        return 0.0
    # Massart's bound P(D_m > d) <= 2 exp(-2 m d^2) below 2^-54, half an ulp
    # under 1, rounds P(D_m <= d) to 1.0: no matrix is built (order 2 m d)
    if d >= 1.0 or 2.0 * math.exp(-2.0 * m * d * d) < 2.0**-54:
        return 1.0
    k = int(math.ceil(d * m))
    h = k - d * m
    size = 2 * k - 1
    inv_fact = np.zeros(size + 2)
    inv_fact[0] = 1.0
    for i in range(1, size + 2):
        inv_fact[i] = inv_fact[i - 1] / i
    i = np.arange(size)
    p = i[:, None] - i[None, :] + 1
    tri = np.where(p >= 0, inv_fact[np.maximum(p, 0)], 0.0)
    for i in range(size):
        tri[i, 0] -= h ** (i + 1) * inv_fact[i + 1]
        tri[size - 1, i] -= h ** (size - i) * inv_fact[size - i]
    tri[size - 1, 0] += max(2.0 * h - 1.0, 0.0) ** size * inv_fact[size]
    row, er = None, 0
    base, eb = tri, 0
    n = int(m)
    while n:
        if n & 1:
            if row is None:
                row, er = base[k - 1].copy(), eb
            else:
                row, er = _rescale(row @ base, er + eb)
        n >>= 1
        if n:
            base, eb = _rescale(base @ base, 2 * eb)
    val = row[k - 1]
    if val <= 0.0:
        return 0.0
    lv = math.log(val) + er * math.log(2.0) + math.lgamma(m + 1) - m * math.log(m)
    return min(1.0, math.exp(lv))


def ks_pvalue(d: float, m: int) -> float:
    """P(D_m > d) under the null."""
    return max(0.0, 1.0 - ks_exact_cdf(d, m))


def attach_pvalue(report: KsReport) -> KsReport:
    return replace(report, p_value=ks_pvalue(report.d_m, report.m))


class NullSummary(NamedTuple):
    mean: float
    sd: float
    critical_d: float


def _massart_d(m: int, prob: float) -> float:
    """The d at which Massart's bound P(D_m > d) <= 2 exp(-2 m d^2) equals
    prob (Massart, Ann. Probab. 18, 1990): the survival is below prob
    beyond it."""
    return math.sqrt(math.log(2.0 / prob) / (2.0 * m))


# the moment integrals stop at the d past which Massart's bound integrates to
# less than this: int_c^inf 2 exp(-2 m t^2) dt <= exp(-2 m c^2) / (2 m c)
_TAIL_MASS = 1e-13
# Gauss-Legendre panels end where Massart's bound equals these survival
# levels, and the last one at the tail cut; nodes per panel, widest first
_PANEL_LEVELS = (1.0, 1e-3, 1e-6)
_PANEL_NODES = (24, 12, 6, 4)


def _tail_cut(m: int) -> float:
    """The d where exp(-2 m d^2) / (2 m d) equals _TAIL_MASS, by fixed-point
    iteration from the d where exp(-2 m d^2) does; each step shrinks the
    error by the factor 1 / (4 m d^2), below 0.03 for m up to KS_MAX_M."""
    log_mass = math.log(1.0 / _TAIL_MASS)
    c = math.sqrt(log_mass / (2.0 * m))
    for _ in range(4):
        c = math.sqrt((log_mass - math.log(2.0 * m * c)) / (2.0 * m))
    return c


def _quadrature(m: int) -> Tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [0.5/m, cut].

    P(D_m <= d) is a degree-m polynomial between knots at j/(2m). Where
    fewer knots than Massart-panel nodes lie below the cut (m <= 40), the
    panels are the knot intervals, each with m//2 + 2 nodes, so the
    survival and 2 d times it are integrated exactly. Otherwise the knots
    are dense enough for the panels to ignore them, and the panels end at
    the Massart levels, where the Durbin order grows and the survival
    decays.
    """
    from numpy.polynomial.legendre import leggauss

    cut = min(1.0, _tail_cut(m))
    knots = np.arange(1, math.ceil(2 * m * cut)) / (2.0 * m)
    if knots.size < sum(_PANEL_NODES):
        edges = np.append(knots, cut)
        sizes = [m // 2 + 2] * knots.size
    else:
        edges = [0.5 / m] + [_massart_d(m, p) for p in _PANEL_LEVELS] + [cut]
        sizes = _PANEL_NODES
    xs, ws = [], []
    for a, b, n in zip(edges[:-1], edges[1:], sizes):
        t, w = leggauss(n)
        xs.append(0.5 * (b - a) * t + 0.5 * (a + b))
        ws.append(0.5 * (b - a) * w)
    return np.concatenate(xs), np.concatenate(ws)


def ks_null_summary(m: int, alpha: float = 0.05) -> NullSummary:
    """Mean and sd of D_m and the level-alpha critical value.

    E D = int survival and E D^2 = int 2 d survival. The survival is 1 on
    [0, 0.5/m], so that piece is closed form. The rest is composite
    Gauss-Legendre up to the cut c where Massart's bound
    P(D_m > d) <= 2 exp(-2 m d^2) (Ann. Probab. 1990) integrates to at
    most 1e-13 beyond c: exp(-2 m c^2) / (2 m c) = 1e-13. At m = 3048,
    c = 0.0627, which keeps the Durbin matrix order 2 ceil(m d) - 1 at
    most 383. The panels end where the bound equals 1, 1e-3 and 1e-6, with
    24, 12, 6 and 4 nodes, so few nodes fall where the order is high. At
    small m the panels follow the knots of the CDF instead (_quadrature).

    The critical value solves P(D_m > d) = alpha by bisection to 1e-7. Its
    bracket starts at the d where Massart's bound equals alpha, which lies
    above the critical value.
    """
    if m < 2:
        raise DomainError("null summary needs m >= 2")
    if not (0.0 < alpha < 1.0):
        raise DomainError("alpha must lie in (0, 1)")
    xs, ws = _quadrature(m)
    sv = np.array([1.0 - ks_exact_cdf(float(x), m) for x in xs])
    head = 0.5 / m
    mean = head + float(ws @ sv)
    ed2 = head * head + float(ws @ (2.0 * xs * sv))
    sd = math.sqrt(max(ed2 - mean * mean, 0.0))
    target = 1.0 - alpha
    lo, hi = 0.5 / m, min(1.0, _massart_d(m, alpha))
    while hi < 1.0 and ks_exact_cdf(hi, m) < target:
        hi = min(1.0, 2.0 * hi)
    while hi - lo > 1e-7:
        mid = 0.5 * (lo + hi)
        if ks_exact_cdf(mid, m) < target:
            lo = mid
        else:
            hi = mid
    return NullSummary(mean=mean, sd=sd, critical_d=0.5 * (lo + hi))


@dataclass(frozen=True)
class CdfTable:
    """A binned CDF table: edges, per-row counts, empirical and model CDF
    columns, and the total sample size recovered from the empirical column."""

    x: np.ndarray
    counts: np.ndarray
    f_emp: np.ndarray
    f_model: np.ndarray
    m: int

    def empirical(self) -> EmpiricalDistribution:
        cum = np.rint(self.f_emp * self.m).astype(np.int64)
        return EmpiricalDistribution(self.x, cum, self.m)


def derive_sample_size(
    f_emp, floor: int, ceiling: int = KS_MAX_M, decimals: Optional[int] = None
) -> int:
    """Smallest m in [floor, ceiling] making every tabulated F_m value an
    integer multiple of 1/m to its print precision: |F m - round(F m)| <= m
    times half a unit of the column's last printed decimal, decimals after
    the point (a column of doubles, decimals None, is held to one unit of
    double rounding, 2^-52). The default ceiling is the largest m the exact
    p-value accepts."""
    f = np.asarray(f_emp, dtype=float)
    if floor > ceiling:
        raise DataError(f"sample size floor {floor} exceeds the ceiling {ceiling}")
    half_unit = np.finfo(float).eps if decimals is None else 0.5 * 10.0**-decimals
    for m in range(max(int(floor), 1), ceiling + 1):
        scaled = f * m
        if np.max(np.abs(scaled - np.rint(scaled))) <= m * half_unit:
            return m
    raise DataError("no sample size makes the empirical CDF column integral")


def _finite_column(path, rows, name) -> np.ndarray:
    col = np.array([float(r[name]) for r in rows])
    bad = np.flatnonzero(~np.isfinite(col))
    if bad.size:
        # rows are numbered as file lines, the header being row 1
        raise DataError(f"{path} row {bad[0] + 2}: {name} must be finite, got {col[bad[0]]}")
    return col


def load_cdf_table(path) -> CdfTable:
    """Read an x_j,n_j,F_n,F table and recover m from the F_n column, to the
    precision its cells are printed with (derive_sample_size)."""
    from decimal import Decimal  # here, so importing gtsfit does not load it

    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise DataError(f"{path}: empty table")
    need = {"x_j", "n_j", "F_n", "F"}
    if not need.issubset(rows[0].keys()):
        raise DataError(f"{path}: expected columns x_j,n_j,F_n,F")
    x, f_emp, f_model = (_finite_column(path, rows, name) for name in ("x_j", "F_n", "F"))
    counts = np.array([int(r["n_j"]) for r in rows])
    # the F_n column's print precision: the most decimals any cell shows
    decimals = max(0, max(-Decimal(r["F_n"]).as_tuple().exponent for r in rows))
    m = derive_sample_size(f_emp, floor=int(counts.sum()), decimals=decimals)
    return CdfTable(x=x, counts=counts, f_emp=f_emp, f_model=f_model, m=m)
