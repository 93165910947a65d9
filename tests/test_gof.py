"""Empirical CDFs, the exact KS distribution, and binned table loading.

scipy.stats.kstwo is an independent implementation of the finite-sample KS
law and is used as the oracle for the matrix-power recursion here. The
one-sided tail is held against a long-double Durbin power and a 40-digit
mpmath Birnbaum-Tingey sum.
"""

import math
import time

import mpmath
import numpy as np
import pytest
import scipy.stats

from gtsfit import gof
from gtsfit.errors import DataError, DomainError
from gtsfit.gof import (
    KS_MAX_M,
    EmpiricalDistribution,
    attach_pvalue,
    derive_sample_size,
    empirical_cdf,
    ks_exact_cdf,
    ks_null_summary,
    ks_pvalue,
    ks_statistic,
    load_cdf_table,
)


class TestEmpiricalDistribution:
    def test_from_samples_with_ties(self):
        e = EmpiricalDistribution.from_samples([3.0, 1.0, 2.0, 2.0])
        assert np.array_equal(e.edges, [1.0, 2.0, 3.0])
        assert np.array_equal(e.cum_counts, [1, 3, 4])
        assert e.m == 4
        assert np.allclose(e.step_values(), [0.25, 0.75, 1.0])
        assert np.allclose(e.pre_jump_values(), [0.0, 0.25, 0.75])

    def test_from_bins_defaults_total_to_count_sum(self):
        e = EmpiricalDistribution.from_bins([(-1.0, 2), (0.0, 3), (1.0, 5)])
        assert e.m == 10
        assert np.array_equal(e.cum_counts, [2, 5, 10])

    def test_from_bins_explicit_total(self):
        """Printed tables may omit extreme rows, so m can exceed the sum."""
        e = EmpiricalDistribution.from_bins([(-1.0, 2), (0.0, 3)], m=8)
        assert e.m == 8
        assert np.allclose(e.step_values(), [0.25, 0.625])

    def test_cdf_evaluation(self):
        e = EmpiricalDistribution.from_samples([1.0, 2.0, 2.0, 3.0])
        assert empirical_cdf(e, 0.5) == 0.0
        assert empirical_cdf(e, 1.0) == 0.25
        assert empirical_cdf(e, 1.7) == 0.25
        assert empirical_cdf(e, 2.0) == 0.75
        assert empirical_cdf(e, 9.0) == 1.0
        out = empirical_cdf(e, np.array([0.5, 2.5]))
        assert np.allclose(out, [0.0, 0.75])

    def test_validation(self):
        with pytest.raises(DataError):
            EmpiricalDistribution(np.array([2.0, 1.0]), np.array([1, 2]), 2)
        with pytest.raises(DataError):
            EmpiricalDistribution(np.array([1.0, 2.0]), np.array([2, 1]), 2)
        with pytest.raises(DataError):
            EmpiricalDistribution(np.array([1.0, 2.0]), np.array([1, 5]), 2)
        with pytest.raises(DataError):
            EmpiricalDistribution.from_samples([])
        with pytest.raises(DataError):
            EmpiricalDistribution.from_bins([(0.0, -1)])
        with pytest.raises(DataError):
            EmpiricalDistribution.from_bins([])

    def test_non_finite_edges_rejected(self):
        """A NaN sorts last in np.unique and fails no ordering test; it is
        named in the error."""
        with pytest.raises(DataError, match="edges must be finite, got nan"):
            EmpiricalDistribution.from_samples([1.0, np.nan, 2.0])
        with pytest.raises(DataError, match="edges must be finite, got inf"):
            EmpiricalDistribution(np.array([1.0, np.inf]), np.array([1, 2]), 2)


class TestKsStatistic:
    def test_two_term_sup_hand_case(self):
        e = EmpiricalDistribution.from_samples([0.1, 0.4, 0.7])
        rep = ks_statistic(lambda x: x, e)
        assert rep.d_m == pytest.approx(0.3, rel=1e-12)
        assert rep.component == "at_edge"
        assert rep.sup_at == 0.7
        assert rep.components[0] == pytest.approx(0.1, rel=1e-12)
        assert rep.components[1] == pytest.approx(0.3, rel=1e-12)
        assert rep.m == 3

    def test_pre_jump_component_can_win(self):
        # all mass just above the model median: the gap before the jump rules
        e = EmpiricalDistribution.from_samples([0.9])
        rep = ks_statistic(lambda x: x, e)
        assert rep.component == "pre_jump"
        assert rep.d_m == pytest.approx(0.9, rel=1e-12)

    def test_model_cdf_read_once_on_the_edges(self):
        e = EmpiricalDistribution.from_samples([0.1, 0.4, 0.7])
        calls = []

        def cdf(x):
            calls.append(np.array(x, copy=True))
            return x

        ks_statistic(cdf, e)
        assert len(calls) == 1
        assert np.array_equal(calls[0], e.edges)

    def test_attach_pvalue_round_trip(self):
        e = EmpiricalDistribution.from_samples([0.1, 0.4, 0.7])
        rep = attach_pvalue(ks_statistic(lambda x: x, e))
        assert rep.p_value == pytest.approx(ks_pvalue(rep.d_m, rep.m), rel=1e-15)
        assert rep.d_m == pytest.approx(0.3, rel=1e-12) and rep.m == 3


def durbin_full_matrix(d, m):
    """P(D_m <= d) by Durbin's recursion with the whole matrix power kept:
    every set bit of m multiplies the full running product. Test-only
    oracle for ks_exact_cdf, which carries a single row of it."""
    if d * m <= 0.5:
        return 0.0
    if d >= 1.0:
        return 1.0
    k = math.ceil(d * m)
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
    result, er = None, 0
    base, eb = tri, 0
    n = m
    while n:
        if n & 1:
            if result is None:
                result, er = base.copy(), eb
            else:
                result, er = gof._rescale(result @ base, er + eb)
        n >>= 1
        if n:
            base, eb = gof._rescale(base @ base, 2 * eb)
    val = result[k - 1, k - 1]
    if val <= 0.0:
        return 0.0
    lv = math.log(val) + er * math.log(2.0) + math.lgamma(m + 1) - m * math.log(m)
    return min(1.0, math.exp(lv))


def durbin_long_double(d, m):
    """P(D_m > d) by Durbin's recursion in long double (64-bit significand
    on x86-64), m!/m^m summed in logs in the same precision; row k-1 of the
    power is carried, as in ks_exact_cdf. Test-only oracle for the
    one-sided tail: the double power errs by about 1e-12 where this one
    errs by about 1e-15."""
    ld = np.longdouble
    d = ld(d)
    k = int(np.ceil(d * m))
    h = k - d * m
    size = 2 * k - 1
    inv_fact = np.ones(size + 2, dtype=ld)
    for i in range(1, size + 2):
        inv_fact[i] = inv_fact[i - 1] / i
    i = np.arange(size)
    p = i[:, None] - i[None, :] + 1
    tri = np.where(p >= 0, inv_fact[np.maximum(p, 0)], ld(0))
    for i in range(size):
        tri[i, 0] -= h ** (i + 1) * inv_fact[i + 1]
        tri[size - 1, i] -= h ** (size - i) * inv_fact[size - i]
    tri[size - 1, 0] += max(2 * h - 1, ld(0)) ** size * inv_fact[size]
    row, er = None, 0
    base, eb = tri, 0
    n = m
    while n:
        if n & 1:
            if row is None:
                row, er = base[k - 1].copy(), eb
            else:
                row, er = gof._rescale(row @ base, er + eb)
        n >>= 1
        if n:
            base, eb = gof._rescale(base @ base, 2 * eb)
    log_scale = np.sum(np.log(np.arange(1, m + 1, dtype=ld) / m))
    return 1 - np.exp(np.log(row[k - 1]) + er * np.log(ld(2)) + log_scale)


def smirnov_plus_mp(d, m):
    """P(D+_m > d) by the Birnbaum-Tingey sum in 40-digit mpmath."""
    with mpmath.workdps(40):
        d = mpmath.mpf(d)
        total = mpmath.mpf(0)
        for j in range(m + 1):
            a = 1 - d - mpmath.mpf(j) / m
            if a <= 0:
                break
            total += mpmath.binomial(m, j) * a ** (m - j) * (d + mpmath.mpf(j) / m) ** (j - 1)
        return d * total


def _switch_d(m):
    """The d where Massart's bound 2 exp(-2 m d^2) is 1e-3."""
    return math.sqrt(math.log(2000.0) / (2.0 * m))


def _oracle_grid():
    """(d, m) pairs with d m just above an integer, with h = k - d m just
    either side of 1/2, and at generic points."""
    for m in (1, 2, 7, 3046, 3048):
        ks = [1, 2, 3, 5] if m < 10 else [20, 61, 95, 150]
        for k in ks:
            if k > m:
                continue
            for dm in (k - 1 + 1e-9, k - 1 + 1e-3, k - 0.5 - 1e-9,
                       k - 0.5 + 1e-9, k - 0.3, k - 1e-9):
                if dm > 0.5:
                    yield dm / m, m


class TestExactKsDistribution:
    def test_single_sample_closed_form(self):
        # P(D_1 <= d) = 2d - 1 on [1/2, 1]
        assert ks_exact_cdf(0.75, 1) == pytest.approx(0.5, rel=1e-14)
        assert ks_exact_cdf(0.6, 1) == pytest.approx(0.2, rel=1e-13)

    def test_support_boundaries(self):
        assert ks_exact_cdf(0.5 / 20, 20) == 0.0
        assert ks_exact_cdf(0.01, 40) == 0.0
        assert ks_exact_cdf(1.0, 7) == 1.0
        assert ks_exact_cdf(2.0, 7) == 1.0

    @pytest.mark.parametrize("m", [5, 20, 100])
    def test_against_scipy_kstwo(self, m):
        for d in (0.05, 0.08, 0.15, 0.3, 0.5, 0.8):
            assert ks_exact_cdf(d, m) == pytest.approx(
                scipy.stats.kstwo.cdf(d, m), abs=1e-10
            )

    def test_monotone_in_d(self):
        ds = np.linspace(0.01, 0.99, 60)
        vals = [ks_exact_cdf(float(d), 50) for d in ds]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_large_m_guard(self):
        with pytest.raises(DomainError):
            ks_exact_cdf(0.01, KS_MAX_M + 1)
        with pytest.raises(DomainError):
            ks_exact_cdf(0.1, 0)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_non_finite_statistic_rejected(self, d):
        with pytest.raises(DomainError, match=f"KS statistic must be finite, got {d}"):
            ks_exact_cdf(d, 50)

    @pytest.mark.parametrize("d,m", list(_oracle_grid()))
    def test_row_power_matches_full_matrix_power(self, d, m):
        want = durbin_full_matrix(d, m)
        assert ks_exact_cdf(d, m) == pytest.approx(want, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("m", [30, 200, 3048])
    def test_massart_shortcut_agrees_with_matrix_path(self, monkeypatch, m):
        """At d0, 2 exp(-2 m d0^2) = 2^-54: just below d0 the Durbin matrix
        is built and gives 1.0, just above it no matrix is built and the
        result is the same 1.0. kstwo puts the survival at d0 below 2^-54."""
        d0 = math.sqrt(55.0 * math.log(2.0) / (2.0 * m))
        assert scipy.stats.kstwo.sf(d0, m) < 2.0**-54
        powers = []
        real = gof._rescale

        def counted(mat, expo):
            powers.append(1)
            return real(mat, expo)

        monkeypatch.setattr(gof, "_rescale", counted)
        assert ks_exact_cdf(d0 * (1.0 - 1e-9), m) == 1.0
        assert powers
        powers.clear()
        assert ks_exact_cdf(d0 * (1.0 + 1e-9), m) == 1.0
        assert not powers

    def test_coarse_table_of_large_sample_is_fast(self):
        """10 bins of 2500 counts with D = 0.0987: the Durbin order would be
        4935; Massart's bound (about 1e-211) gives p = 0 at once."""
        e = EmpiricalDistribution.from_bins([(i / 10.0, 2500) for i in range(1, 11)])
        model = lambda x: np.asarray(x) - 0.0987
        start = time.process_time()
        report = attach_pvalue(ks_statistic(model, e))
        assert time.process_time() - start < 1.0
        assert e.m == 25000
        assert report.d_m == pytest.approx(0.0987, abs=1e-12)
        assert report.p_value == 0.0

    def test_pvalue_complements_cdf(self):
        assert ks_pvalue(0.15, 30) == pytest.approx(
            1.0 - ks_exact_cdf(0.15, 30), rel=1e-14
        )


class TestOneSidedTail:
    @pytest.mark.parametrize("m", [10, 40, 200, 500, 3048])
    def test_switch_point_against_long_double_durbin(self, m):
        """At the switch 2 S+ exceeds the two-sided survival by
        P(D+ > d, D- > d) only: 1.1e-13 at m = 3048, 0 for m = 10 where
        d > 1/2. The double Durbin power there errs by 1.4e-12."""
        d = _switch_d(m)
        want = durbin_long_double(d, m)
        assert abs(2.0 * gof._smirnov_plus(d, m) - float(want)) <= 2e-13

    @pytest.mark.parametrize("m", [20, 500, 3048])
    @pytest.mark.parametrize("level", [1e-3, 1e-6, 1e-12])
    def test_one_sided_sum_against_mpmath(self, m, level):
        d = math.sqrt(math.log(2.0 / level) / (2.0 * m))
        want = smirnov_plus_mp(d, m)
        got = gof._smirnov_plus(d, m)
        assert abs(float((mpmath.mpf(got) - want) / want)) <= 1e-13

    @pytest.mark.parametrize("level", [1e-6, 1e-12])
    def test_paper_size_pvalue_keeps_relative_accuracy(self, level):
        """At m = 3048 a p-value near 1e-12 is within 1e-12 relative of
        2 S+ in 40 digits; 1 - P(D <= d) in double would be noise there."""
        m = 3048
        d = math.sqrt(math.log(1.0 / level) / (2.0 * m))
        want = 2 * smirnov_plus_mp(d, m)
        got = ks_pvalue(d, m)
        assert 0.1 * level < got < 10.0 * level
        assert abs(float((mpmath.mpf(got) - want) / want)) <= 1e-12

    @pytest.mark.parametrize("m", [40, 3048])
    def test_pvalue_switches_at_the_massart_level(self, monkeypatch, m):
        """Just below the switch the p-value reads the Durbin power, just
        above it the one-sided sum, and the two agree within the double
        power's error."""
        reads = []
        real = gof.ks_exact_cdf

        def counted(d, m):
            reads.append(d)
            return real(d, m)

        monkeypatch.setattr(gof, "ks_exact_cdf", counted)
        d0 = _switch_d(m)
        below = ks_pvalue(d0 * (1.0 - 1e-12), m)
        assert len(reads) == 1
        above = ks_pvalue(d0 * (1.0 + 1e-12), m)
        assert len(reads) == 1
        assert above == 2.0 * gof._smirnov_plus(d0 * (1.0 + 1e-12), m)
        assert abs(above - below) <= 2e-12

    @pytest.mark.parametrize("d", [0.02, 0.05])
    def test_integral_m_of_any_numeric_type(self, d):
        """m = 3048 as an int, a float, np.int64 or np.float64 gives the
        same bits, through the Durbin power (d = 0.02) and the one-sided
        tail (d = 0.05); a fractional m is a DomainError."""
        want = (ks_exact_cdf(d, 3048), ks_pvalue(d, 3048))
        for m in (3048.0, np.int64(3048), np.float64(3048.0)):
            assert (ks_exact_cdf(d, m), ks_pvalue(d, m)) == want
        with pytest.raises(DomainError, match="positive integer"):
            ks_pvalue(d, 2.5)

    def test_pvalue_edges_of_the_tail(self):
        assert ks_pvalue(1.0, 10) == 0.0
        assert ks_pvalue(1.5, 10) == 0.0
        assert ks_pvalue(-1.0, 3048) == 1.0
        with pytest.raises(DomainError, match="KS statistic must be finite, got inf"):
            ks_pvalue(math.inf, 3048)
        with pytest.raises(DomainError):
            ks_pvalue(0.5, KS_MAX_M + 1)
        # d > 1/2: the two-sided survival is exactly twice the one-sided one
        assert ks_pvalue(0.7, 10) == pytest.approx(scipy.stats.kstwo.sf(0.7, 10), rel=1e-13)


class TestNullSummary:
    @pytest.mark.parametrize("m", [2, 3, 5, 10, 30, 100, 500])
    def test_against_scipy_kstwo_moments(self, m):
        ns = ks_null_summary(m)
        ref = scipy.stats.kstwo(m)
        mean, var = ref.stats(moments="mv")
        assert ns.mean == pytest.approx(mean, abs=1e-6)
        assert ns.sd == pytest.approx(math.sqrt(var), abs=1e-6)
        assert ns.critical_d == pytest.approx(ref.ppf(0.95), abs=1e-6)

    @pytest.mark.parametrize("m", [40, 3048])
    def test_integral_m_of_any_numeric_type(self, m):
        """An integral m of any numeric type gives the int's summary (m = 40
        takes the knot panels, 3048 the Massart panels); a fractional m is
        a DomainError."""
        want = ks_null_summary(m)
        for same in (float(m), np.int64(m), np.float64(m)):
            assert ks_null_summary(same) == want
        with pytest.raises(DomainError, match="positive integer"):
            ks_null_summary(2.5)

    def test_paper_size_bit_identical_past_massart_shortcut(self):
        """The summary's tail cut sits where Massart's bound is 7.6e-11, far
        above the 2^-54 shortcut, so no read is the shortcut's 0: the 36
        nodes below the 1e-3 level and the 6 regula falsi steps read the
        Durbin power, the 10 nodes past it the one-sided sum. The values
        are pinned bit for bit; against kstwo the gaps are 3.4e-12,
        6.7e-11 and 7.4e-11."""
        assert ks_null_summary(3048) == (
            0.015680946866979583,
            0.0047149496926133265,
            0.024543986815904386,
        )

    def test_paper_size_stays_below_massart_cut(self, monkeypatch):
        """At m = 3048 no exact-CDF read goes past d = 0.0832, where
        Massart's bound puts the survival below 1e-18, which caps the
        Durbin matrix order at 507; the summary still matches kstwo."""
        seen = []
        real = gof.ks_exact_cdf

        def recorded(d, m):
            seen.append(d)
            return real(d, m)

        monkeypatch.setattr(gof, "ks_exact_cdf", recorded)
        ns = ks_null_summary(3048)
        assert max(seen) < 0.0832
        ref = scipy.stats.kstwo(3048)
        assert ns.mean == pytest.approx(ref.mean(), abs=1e-7)
        assert ns.sd == pytest.approx(ref.std(), abs=1e-7)
        assert ns.critical_d == pytest.approx(ref.isf(0.05), abs=1e-7)

    def test_paper_size_gauss_legendre(self, monkeypatch):
        """At m = 3048 the panelled Gauss-Legendre summary matches kstwo to
        1e-9 in 42 Durbin reads or fewer: the nodes past the 1e-3 Massart
        level read the one-sided sum, so the Durbin matrix order stays at
        213 or less, and the critical value's regula falsi takes 6 reads."""
        m = 3048
        seen = []
        real = gof.ks_exact_cdf

        def recorded(d, m):
            seen.append(d)
            return real(d, m)

        monkeypatch.setattr(gof, "ks_exact_cdf", recorded)
        ns = ks_null_summary(m)
        ref = scipy.stats.kstwo(m)
        mean, var = ref.stats(moments="mv")
        assert ns.mean == pytest.approx(mean, abs=1e-9)
        assert ns.sd == pytest.approx(math.sqrt(var), abs=1e-9)
        assert ns.critical_d == pytest.approx(ref.isf(0.05), abs=1e-9)
        assert len(seen) <= 42
        d_max = max(seen)
        # Massart's bound integrated beyond d_max is still above 1e-13
        assert math.exp(-2.0 * m * d_max**2) / (2.0 * m * d_max) > 1e-13
        assert 2 * math.ceil(d_max * m) - 1 <= 213

    @pytest.mark.parametrize("m", [2, 10, 200, 3048])
    @pytest.mark.parametrize("alpha", [0.5, 0.05, 1e-4, 1e-9])
    def test_critical_value_brackets_alpha(self, monkeypatch, m, alpha):
        """The regula falsi root lies within 1e-11 of the d where the
        survival crosses alpha, in 19 reads or fewer, where bisection to
        1e-12 takes about 40. On the log of the survival the secant points
        land close at every alpha: at m = 3048 the root takes at most 8."""
        reads = []
        real = gof.ks_pvalue

        def counted(d, m):
            reads.append(d)
            return real(d, m)

        monkeypatch.setattr(gof, "ks_pvalue", counted)
        c = gof._critical_d(m, alpha)
        assert len(reads) <= (8 if m == 3048 else 19)
        assert real(c - 1e-11, m) > alpha > real(c + 1e-11, m)

    def test_critical_value_hits_alpha(self):
        ns = ks_null_summary(200, alpha=0.1)
        assert ks_pvalue(ns.critical_d, 200) == pytest.approx(0.1, abs=1e-4)

    def test_validation(self):
        with pytest.raises(DomainError):
            ks_null_summary(1)
        with pytest.raises(DomainError):
            ks_null_summary(100, alpha=1.0)


class TestCdfTables:
    @pytest.mark.parametrize(
        "name,m,rows",
        [("sp500", 3046, 252), ("spy", 3046, 267), ("btc", 3267, 264)],
    )
    def test_shipped_tables_recover_sample_size(self, name, m, rows, fixtures_dir):
        t = load_cdf_table(fixtures_dir / f"{name}_cdf.csv")
        assert t.m == m
        assert t.x.size == rows
        assert int(t.counts.sum()) <= m
        # the btc table's own F column overshoots 1 by 2e-4 in the far tail;
        # the loader keeps printed values verbatim
        assert np.all((t.f_model >= 0.0) & (t.f_model <= 1.001))
        assert np.all(np.diff(t.x) > 0)

    def test_empirical_view_matches_columns(self, fixtures_dir):
        t = load_cdf_table(fixtures_dir / "sp500_cdf.csv")
        e = t.empirical()
        assert e.m == t.m
        assert np.allclose(e.step_values(), t.f_emp, atol=5e-8)

    def test_missing_column_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("x_j,n_j,F_n\n0.0,1,0.5\n")
        with pytest.raises(DataError):
            load_cdf_table(p)

    @pytest.mark.parametrize("column", ["x_j", "F_n", "F"])
    def test_non_finite_cell_rejected(self, tmp_path, fixtures_dir, column):
        lines = (fixtures_dir / "spy_cdf.csv").read_text().splitlines()
        k = lines[0].split(",").index(column)
        cells = lines[10].split(",")
        cells[k] = "nan"
        lines[10] = ",".join(cells)
        p = tmp_path / "nan.csv"
        p.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"row 11: {column} must be finite, got nan"):
            load_cdf_table(p)

    def test_empty_table_rejected(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("x_j,n_j,F_n,F\n")
        with pytest.raises(DataError):
            load_cdf_table(p)

    def test_table_above_20000_counts_loads(self, tmp_path):
        """Sample sizes up to KS_MAX_M are recovered: 100 rows of 250 counts,
        the model column half a row below the empirical one."""
        j = np.arange(1, 101)
        lines = ["x_j,n_j,F_n,F"] + [
            f"{i / 100:.2f},250,{i / 100:.8f},{(i - 0.5) / 100:.8f}" for i in j
        ]
        p = tmp_path / "t25000.csv"
        p.write_text("\n".join(lines) + "\n")
        table = load_cdf_table(p)
        assert table.m == 25000
        lookup = dict(zip(table.x, table.f_model))
        model = np.vectorize(lookup.__getitem__, otypes=[float])
        report = attach_pvalue(ks_statistic(model, table.empirical()))
        assert report.d_m == pytest.approx(0.005, abs=1e-12)
        assert report.p_value == pytest.approx(
            scipy.stats.kstwo.sf(report.d_m, 25000), rel=1e-8
        )


class TestDeriveSampleSize:
    def test_smallest_consistent_size(self):
        assert derive_sample_size([1.0 / 7.0, 3.0 / 7.0, 1.0], floor=2) == 7

    def test_floor_respected(self):
        # 2/4 = 4/8: the floor pushes past the smaller consistent size
        assert derive_sample_size([0.5, 1.0], floor=5) == 6
        assert derive_sample_size([0.5, 1.0], floor=5) >= 5

    def test_irrational_column_fails(self):
        with pytest.raises(DataError):
            derive_sample_size([2.0 ** -0.5], floor=1, ceiling=30)

    def test_slack_scales_with_precision(self):
        """Doubles are held to double rounding, so no m up to KS_MAX_M makes
        1/sqrt(2), 1/sqrt(3) integral (an absolute 0.01 slack took m = 5333)."""
        with pytest.raises(DataError):
            derive_sample_size([2.0 ** -0.5, 3.0 ** -0.5], floor=1)

    def test_rounded_random_columns_fail(self):
        """A 3-row column printed to 8 decimals is held to m times 5e-9: random
        columns match no m (an absolute 0.01 slack matched 4 of 5)."""
        rng = np.random.default_rng(7)
        for _ in range(3):
            col = np.round(np.sort(rng.uniform(size=3)), 8)
            with pytest.raises(DataError):
                derive_sample_size(col, floor=1, decimals=8)

    def test_printed_column_within_half_unit(self):
        """k/m printed to 4 decimals is off by up to 5e-5, m times which is
        the slack; the same column read as exact doubles matches no m."""
        col = [round(k / 37, 4) for k in (5, 11, 36)]
        assert derive_sample_size(col, floor=1, decimals=4) == 37
        with pytest.raises(DataError):
            derive_sample_size(col, floor=1, ceiling=1000)

    def test_blocks_equal_one_m_at_a_time(self):
        """Random columns k/m, exact or printed to a few decimals, against
        the loop that tries one m at a time (hits, floors and failures)."""

        def one_at_a_time(f, floor, ceiling, decimals):
            f = np.asarray(f, dtype=float)
            half = np.finfo(float).eps if decimals is None else 0.5 * 10.0**-decimals
            for m in range(max(floor, 1), ceiling + 1):
                scaled = f * m
                if np.max(np.abs(scaled - np.rint(scaled))) <= m * half:
                    return m
            return None

        rng = np.random.default_rng(23)
        for _ in range(60):
            m_true = int(rng.integers(2, 3000))
            rows = int(rng.integers(1, 40))
            col = np.sort(rng.integers(0, m_true + 1, size=rows)) / m_true
            decimals = [None, 3, 4, 6, 8][int(rng.integers(5))]
            if decimals is not None:
                col = np.round(col, decimals)
            if rng.uniform() < 0.3:
                col = np.round(np.sort(rng.uniform(size=rows)), 8)
            floor = int(rng.integers(1, m_true + 1))
            ceiling = int(rng.integers(floor, 4000))
            want = one_at_a_time(col, floor, ceiling, decimals)
            if want is None:
                with pytest.raises(DataError):
                    derive_sample_size(col, floor=floor, ceiling=ceiling, decimals=decimals)
            else:
                assert derive_sample_size(col, floor, ceiling, decimals) == want

    def test_empty_column_is_a_data_error(self):
        with pytest.raises(DataError, match="empty"):
            derive_sample_size([], floor=1)

    def test_default_ceiling_is_ks_max_m(self):
        assert derive_sample_size([1.0], floor=KS_MAX_M) == KS_MAX_M
        with pytest.raises(DataError, match=f"floor {KS_MAX_M + 1} exceeds the ceiling"):
            derive_sample_size([1.0], floor=KS_MAX_M + 1)
