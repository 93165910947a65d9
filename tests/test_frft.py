"""Fractional FFT kernel, grid selection, and the inversion fields.

Density and CDF reference values were frozen from adaptive Gauss-Kronrod
quadrature of the inversion integrals (scipy.integrate.quad, epsrel 1e-12)
over the same truncated frequency range the grids use.
"""

import importlib
import itertools
import math
import mmap
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.integrate

import gtsfit
from gtsfit.errors import DomainError, GridError, GtsError
from gtsfit.frft import (
    PHI_TAIL_TOL,
    TAIL_TOL_LADDER,
    Field,
    GridSpec,
    _PAD,
    _Workspace,
    _check_tail,
    _field_batch,
    _half_nodes,
    _interp_apply,
    _interp_weights,
    _kernel_deconvolution,
    _kernel_read,
    _spectrum,
    auto_grid,
    cdf_field,
    density_field,
    field_to_csv,
    frft,
    interpolate,
)
from gtsfit.mle import DEFAULT_INIT, FitOptions, fit, log_likelihood
from gtsfit.model import (
    GtsParams,
    cf_modulus,
    characteristic_function,
    cumulant,
    grad_psi,
    hess_psi,
)
from gtsfit.sampler import SampleConfig, sample_gts

DENSITY_QUAD = {
    -2.5: 0.019900236877575264,
    0.0: 0.6689877265847963,
    0.7: 0.31703611892512196,
    3.1: 0.006318087727120858,
}

CDF_QUAD = {
    -2.5: 0.017603869796592453,
    0.0: 0.4431085661219356,
    0.7: 0.8076419407089684,
    3.1: 0.9958674112133291,
}


class TestFrftKernel:
    def test_zero_parameter_collapses_to_plain_sum(self, rng):
        x = rng.normal(size=256) + 1j * rng.normal(size=256)
        got = frft(x, 0.0)
        assert np.allclose(got, np.full(256, x.sum()), rtol=1e-12)

    def test_reciprocal_size_matches_fft(self, rng):
        x = rng.normal(size=512) + 1j * rng.normal(size=512)
        assert np.allclose(frft(x, 1.0 / 512), np.fft.fft(x), rtol=1e-10, atol=1e-10)

    def test_matches_direct_sum(self, rng):
        n, a = 128, 0.137
        x = rng.normal(size=n) + 1j * rng.normal(size=n)
        j = np.arange(n)
        direct = np.array(
            [np.sum(x * np.exp(-2j * math.pi * a * j * k)) for k in range(n)]
        )
        assert np.allclose(frft(x, a), direct, rtol=1e-9, atol=1e-9)

    def test_batch_rows_are_independent(self, rng):
        x = rng.normal(size=(5, 128)) + 1j * rng.normal(size=(5, 128))
        batch = frft(x, 0.0421)
        for row_in, row_out in zip(x, batch):
            assert np.allclose(frft(row_in, 0.0421), row_out, rtol=1e-12)

    def test_non_power_of_two_rejected(self):
        with pytest.raises(DomainError):
            frft(np.ones(100), 0.1)


class TestGridSpec:
    def test_properties(self):
        g = GridSpec(n=128, x_center=1.5, dx=0.25, xi_max=8.0)
        assert g.xi_max == 8.0
        assert g.x_nodes()[64] == 1.5
        assert g.x_nodes().shape == (128,)
        assert g.tail_tol == PHI_TAIL_TOL

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n=100, x_center=0, dx=0.1, xi_max=5.0),
            dict(n=32, x_center=0, dx=0.1, xi_max=1.6),
            dict(n=128, x_center=0, dx=0.0, xi_max=6.4),
            dict(n=128, x_center=0, dx=0.1, xi_max=-6.4),
            dict(n=128, x_center=0, dx=0.1, xi_max=6.4, tail_tol=0.0),
            dict(n=128, x_center=0, dx=0.1, xi_max=6.4, tail_tol=1e-3),
        ],
    )
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(DomainError):
            GridSpec(**kwargs)

    def test_field_values_frozen_and_sized(self):
        g = GridSpec(n=64, x_center=0, dx=0.1, xi_max=3.2)
        f = Field(g, np.zeros(64), "density")
        assert not f.values.flags.writeable
        with pytest.raises(DomainError):
            Field(g, np.zeros(63), "density")
        with pytest.raises(DomainError):
            Field(g, np.zeros(64), "histogram")

    def test_frequency_range_beyond_nyquist_rejected(self):
        """A real FFT of 3n points at spacing 2 pi / (3 n dx) ends at
        pi / dx; a grid truncated above that would lose its top nodes
        without notice."""
        with pytest.raises(GtsError, match="exceeds pi / dx"):
            GridSpec(n=64, x_center=0.0, dx=0.1, xi_max=32.0)
        GridSpec(n=64, x_center=0.0, dx=0.1, xi_max=31.36)

    def test_auto_grid_stays_below_half_nyquist(self, spy_params):
        for lo, hi in ((-10.0, 10.0), (-7.4066, 4.842), (-0.1, 0.1)):
            g = auto_grid(spy_params, lo, hi)
            assert g.xi_max * g.dx <= 0.5 * math.pi


def _half_sum(grid, spectra):
    """(h / 2 pi) (S_0 + 2 Re sum_{j>=1} S_j e^{-i x_k xi_j}) by a direct
    matrix product, h = 2 pi / (N dx) for the field path's period N dx,
    N = _PAD n, nodes up to xi_max."""
    h = 2.0 * math.pi / (_PAD * grid.n * grid.dx)
    xi = h * np.arange(spectra.shape[-1])
    kernel = np.exp(-1j * np.outer(xi, grid.x_nodes()))
    weights = np.full(xi.size, 2.0)
    weights[0] = 1.0
    return h / (2.0 * math.pi) * np.real((spectra * weights) @ kernel)


class TestInversionAgainstDirectSum:
    """The field path (zero-padded real FFT) against the same quadrature
    summed term by term, on a small grid centred off zero."""

    GRID = GridSpec(n=512, x_center=0.7, dx=0.012, xi_max=256.0)

    def _spectra(self, p, cf):
        g = self.GRID
        h = 2.0 * math.pi / (_PAD * g.n * g.dx)
        xi = h * np.arange(int(g.xi_max / h) + 1)
        phi = cf(p, xi)
        gp = grad_psi(p, xi)
        hp = hess_psi(p, xi)
        rows = [phi] + [phi * gp[r] for r in range(7)]
        rows += [phi * (hp[r, s] + gp[r] * gp[s]) for r in range(7) for s in range(r, 7)]
        return xi, np.array(rows)

    @pytest.mark.parametrize("level", [1, 8, 36])
    def test_field_rows(self, spy_params, cf_oracle, derivative_rows, level):
        """Levels 1 and 8 are the package's batches; the 36 rows are the
        test-only oracle of the adjoint curvature sums (conftest)."""
        _, spectra = self._spectra(spy_params, cf_oracle)
        want = _half_sum(self.GRID, spectra[:level])
        if level == 36:
            got = derivative_rows(spy_params, self.GRID)
        else:
            got = _field_batch(spy_params, self.GRID, level)
        assert got.shape == (level, self.GRID.n)
        scale = np.max(np.abs(want), axis=1)
        assert np.all(np.max(np.abs(got - want), axis=1) <= 1e-12 * scale)

    def test_cdf(self, spy_params, cf_oracle):
        g = self.GRID
        xi, spectra = self._spectra(spy_params, cf_oracle)
        integrand = np.zeros(xi.size, dtype=complex)
        integrand[1:] = spectra[0, 1:] / (1j * xi[1:])
        h = xi[1]
        raw = 0.5 - _half_sum(g, integrand) - h / (2.0 * math.pi) * (
            cumulant(spy_params, 1) - g.x_nodes()
        )
        want = np.maximum.accumulate(raw)
        assert np.max(np.abs(cdf_field(spy_params, g).values - want)) <= 1e-12


class TestAliasPeriod:
    """The field path's period N dx, N = _PAD n, against a period of 16n,
    at the fit endpoint of the spy-law 3046-point seed-2 draw (beta+ near
    0, a likelihood grid of n = 16384): of seven fit endpoints read on both
    periods, the one where the 3n period's alias error is largest."""

    @pytest.fixture(scope="class")
    def endpoint(self, spy_params):
        y = sample_gts(spy_params, SampleConfig(n=3046, seed=2))
        p, _, converged = fit(y, FitOptions(init=spy_params))
        assert converged
        return p, y

    @pytest.fixture
    def on_period(self, monkeypatch):
        """The log-likelihood with the field path's real FFTs of pad * n
        points; the deconvolution rows cached on any other period are
        dropped before and after."""
        frft_mod = importlib.import_module("gtsfit.frft")

        def log_lik(pad, p, y):
            monkeypatch.setattr(frft_mod, "_PAD", pad)
            _kernel_deconvolution.cache_clear()
            return log_likelihood(p, y)

        yield log_lik
        _kernel_deconvolution.cache_clear()

    def test_log_likelihood_within_the_read_error(self, endpoint, on_period):
        """Within 2e-10 of the 16n period, about the kernel read's own
        error (1.0e-10 measured at N = 3n, 4.6e-11 at 4n); a period of two
        windows misses that bound (5.6e-9)."""
        p, y = endpoint
        far = on_period(16, p, y)
        assert abs(on_period(_PAD, p, y) - far) <= 2e-10
        assert abs(on_period(2, p, y) - far) > 2e-10


class TestSpectrumAcrossDomain:
    """_spectrum, the phased spectrum every field inverts, against the
    complex-power oracle times the phase, on the lattice beta x alpha x
    lambda, each point on the plus tail, on the minus tail and on both (the
    other tail off, alpha = 0). No inversion is involved, so laws with an
    atom, down to the pure atom alpha = 0 on both tails, are compared like
    any other.

    mu = 0 and x_{n-1} = 2 exactly (x_center = dx = 2^-15, n = 2^17) make
    the phase (mu - x_{n-1}) xi exact in floating point, with phases up to
    2e5 rad; the comparison then sees only the routine's own rounding. (A
    general mu adds the rounding of that product, half an ulp of a phase of
    2e5 rad, about 1.5e-11, in every double-precision evaluation.) The
    oracle runs in long double: in double, its own rounding of the phase
    and of w^beta - lambda^beta reaches 1.4e-11 of the row maximum here."""

    GRID = GridSpec(n=1 << 17, x_center=2.0**-15, dx=2.0**-15, xi_max=1e5)
    XI = np.concatenate(([0.0], np.geomspace(1e-3, 1e5, 600)))
    OFF = (0.5, 0.0, 1.0)

    def test_grid_puts_the_last_node_at_two(self):
        assert self.GRID.x_nodes()[-1] == 2.0

    @pytest.mark.parametrize("beta", [-1.5, -0.5, -1e-8, 0.0, 1e-8, 0.05, 0.5, 0.95])
    def test_lattice_matches_oracle(self, psi_oracle, beta):
        xi = self.XI.astype(np.longdouble)
        phase = np.exp(-2j * xi) / self.GRID.dx
        for alpha, lam in itertools.product((0.0, 0.05, 1.0, 5.0), (0.05, 1.0, 20.0)):
            tail = (beta, alpha, lam)
            for plus, minus in ((tail, self.OFF), (self.OFF, tail), (tail, tail)):
                p = GtsParams(0.0, plus[0], minus[0], plus[1], minus[1], plus[2], minus[2])
                want = (np.exp(psi_oracle(p, xi)) * phase).astype(complex)
                got = _spectrum(p, self.GRID, self.XI)
                scale = np.max(np.abs(want))
                assert np.max(np.abs(got - want)) <= 1e-13 * scale, (plus, minus)


def test_spectrum_build_peak_memory(spy_params):
    """A level-1 batch builds its spectrum in the row it inverts, from one
    (6, J) float scratch array: the tail terms' real and imaginary parts and
    four work rows, which the phase's TwoSum then reuses. So the traced peak
    of the build is six float rows, 6 * 8 J bytes, plus a few small objects;
    the bound allows half a row for those (6.0009 rows measured at
    J = 137681). Written out of place, the same formulas hold a new array
    per operation, complex ones in the last step, and peak at 11.1 rows."""
    g = GridSpec(n=1 << 18, x_center=0.0, dx=1e-3, xi_max=1100.0)
    _, xi = _half_nodes(g)
    assert xi.size >= 1 << 17
    row = np.empty(xi.size, dtype=complex)
    tracemalloc.start()
    try:
        _spectrum(spy_params, g, xi, row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6.5 * 8 * xi.size


class TestBatchReadInBlocks:
    """A batch read at query points goes through the rows a block at a time."""

    @pytest.fixture
    def grid(self, spy_params):
        return auto_grid(spy_params, -30.0, 30.0)

    @staticmethod
    def _read(g):
        """A kernel read at 1000 points in the bulk, where the density read
        is positive, as a batch with a read requires."""
        return _kernel_read(g, np.linspace(-3.0, 3.0, 1000))

    @pytest.mark.parametrize("level", [1, 8])
    def test_same_values_as_full_rows(self, spy_params, grid, level):
        """With its deconvolve row set to ones, a kernel read through the
        batch's blocks gives the bits of the read applied to the full node
        rows."""
        read = self._read(grid)
        read = read._replace(deconvolve=np.ones_like(read.deconvolve))
        full = _field_batch(spy_params, grid, level)
        assert np.array_equal(_field_batch(spy_params, grid, level, read=read), read(full))

    def test_curvature_rows_add_no_peak_memory(self, spy_params, grid):
        """The adjoint read's 28 curvature sums cost less traced peak memory
        than 7 spectrum rows over an 8-row read on the same grid; inverting
        the 28 curvature rows, as spectra or on the grid, would cost more
        than 28."""
        read = self._read(grid)
        row_bytes = _half_nodes(grid)[1].size * 16
        peaks = {}
        for level in (8, 36):
            tracemalloc.start()
            try:
                _field_batch(spy_params, grid, level, read=read)
                peaks[level] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[36] - peaks[8] < 7 * row_bytes

    def test_level_36_needs_a_read(self, spy_params, grid):
        """Level 36 is the adjoint read: without a read to scatter through
        it is a DomainError."""
        with pytest.raises(DomainError, match="read"):
            _field_batch(spy_params, grid, 36)


class TestWorkspace:
    """The field batches of a fit carve their large arrays from one
    _Workspace; reusing it must be invisible in the results."""

    @staticmethod
    def _batch(p, g, work):
        read = _kernel_read(g, np.linspace(-3.0, 3.0, 500))
        return _field_batch(p, g, 36, read=read, work=work)

    def test_reuse_across_grids_is_bit_identical(self, spy_params):
        """A level-36 batch on grid A, then on grid B (twice the n, so the
        buffer is reallocated), then on A again, all on one workspace: both
        A batches equal a batch on a fresh workspace bit for bit, and the
        first A result is unchanged by the later batches."""
        ga = auto_grid(spy_params, -30.0, 30.0)
        gb = replace(ga, n=2 * ga.n, dx=ga.dx / 2)
        work = _Workspace()
        first = self._batch(spy_params, ga, work)
        kept = [a.copy() for a in first]
        self._batch(spy_params, gb, work)
        again = self._batch(spy_params, ga, work)
        fresh = self._batch(spy_params, ga, None)
        for got in (first, again, kept):
            assert all(np.array_equal(a, b) for a, b in zip(got, fresh))

    @pytest.fixture
    def spectra(self, monkeypatch):
        """The params of every _spectrum call a field batch makes."""
        frft_mod = importlib.import_module("gtsfit.frft")
        real, calls = frft_mod._spectrum, []

        def counted(p, *args, **kw):
            calls.append(p)
            return real(p, *args, **kw)

        monkeypatch.setattr(frft_mod, "_spectrum", counted)
        return calls

    @staticmethod
    def _read(p, g, read, work, level=36):
        return _field_batch(p, g, level, read=read, work=work)

    def test_level_36_takes_the_level_1_spectrum(self, spy_params, spectra):
        """A level-36 batch right after a level-1 batch of the same params,
        grid and read on one workspace builds no spectrum of its own, and
        equals a batch on a fresh workspace bit for bit, though the level-1
        result was overwritten in between. A level-36 batch of other params
        first sizes the workspace, as a fit's first iterate does."""
        g = auto_grid(spy_params, -30.0, 30.0)
        read = _kernel_read(g, np.linspace(-3.0, 3.0, 500))
        fresh = self._read(spy_params, g, read, None)
        work = _Workspace()
        self._read(replace(spy_params, mu=0.1), g, read, work)
        del spectra[:]
        self._read(spy_params, g, read, work, level=1)[:] = np.nan
        got = self._read(spy_params, g, read, work)
        assert len(spectra) == 1
        assert all(np.array_equal(a, b) for a, b in zip(got, fresh))

    def test_level_1_batch_sizes_the_workspace_for_level_36(self, spy_params, spectra):
        """A level-1 batch on a grid twice the size of the one the workspace
        was sized on maps the new buffer at level 36's layout, so the
        level-36 batch of the same params, grid and read after it maps
        nothing and builds no spectrum, as a fit's iterate after an accepted
        regridded trial does, and equals a fresh-workspace batch."""
        g = auto_grid(spy_params, -30.0, 30.0)
        x = np.linspace(-3.0, 3.0, 500)
        work = _Workspace()
        self._read(replace(spy_params, mu=0.1), g, _kernel_read(g, x), work)
        g = replace(g, n=2 * g.n, dx=g.dx / 2)
        read = _kernel_read(g, x)
        small = work._flat.base.obj
        self._read(spy_params, g, read, work, level=1)
        mapped, done = work._flat.base.obj, len(spectra)
        assert mapped is not small
        got = self._read(spy_params, g, read, work)
        assert len(spectra) == done and work._flat.base.obj is mapped
        fresh = self._read(spy_params, g, read, None)
        assert all(np.array_equal(a, b) for a, b in zip(got, fresh))

    @pytest.mark.parametrize("case", ["params", "sample", "remap", "level 8 between", "level 1 between"])
    def test_no_spectrum_taken_from_another_batch(self, spy_params, spectra, case):
        """The level-36 batch builds its own spectrum, and still equals a
        fresh-workspace batch bit for bit, after a level-1 batch of other
        params, or of the same grid read at another sample; after a level-1
        batch on the grid the workspace was sized on, when the level-36
        batch is on a grid twice the size and maps a new buffer; and when a
        level-8 or level-1 batch of other params comes between the two."""
        g = auto_grid(spy_params, -30.0, 30.0)
        x = np.linspace(-3.0, 3.0, 500)
        other = replace(spy_params, alpha_plus=1.01 * spy_params.alpha_plus)
        work = _Workspace()
        self._read(other, g, _kernel_read(g, x), work)
        read = _kernel_read(g, x)
        first = {"params": (other, g, read), "sample": (spy_params, g, _kernel_read(g, x + 0.01))}
        self._read(*first.get(case, (spy_params, g, read)), work, level=1)
        if case == "remap":
            g = replace(g, n=2 * g.n, dx=g.dx / 2)
            read = _kernel_read(g, x)
        if case.endswith("between"):
            self._read(other, g, read, work, level=int(case.split()[1]))
        mapped, done = work._flat.base.obj, len(spectra)
        got = self._read(spy_params, g, read, work)
        assert len(spectra) == done + 1
        assert (work._flat.base.obj is not mapped) == (case == "remap")
        fresh = self._read(spy_params, g, read, None)
        assert all(np.array_equal(a, b) for a, b in zip(got, fresh))

    @pytest.mark.parametrize("level", [1, 8])
    def test_results_never_share_the_workspace(self, spy_params, level):
        g = auto_grid(spy_params, -30.0, 30.0)
        work = _Workspace()
        vals = _field_batch(spy_params, g, level, work=work)
        assert not np.shares_memory(vals, work._flat)
        read = _kernel_read(g, np.linspace(-3.0, 3.0, 500))
        vals = _field_batch(spy_params, g, level, read=read, work=work)
        assert not np.shares_memory(vals, work._flat)

    def test_buffer_is_a_map_of_its_own(self, spy_params):
        """The buffer lives outside the malloc heap, so what a fit leaves
        resident does not depend on the heap's layout; growing it maps a
        new, larger buffer."""
        g = auto_grid(spy_params, -30.0, 30.0)
        work = _Workspace()
        _field_batch(spy_params, g, 8, work=work)
        small = work._flat.base.obj
        assert isinstance(small, mmap.mmap)
        _field_batch(spy_params, replace(g, n=2 * g.n, dx=g.dx / 2), 8, work=work)
        big = work._flat.base.obj
        assert isinstance(big, mmap.mmap) and big is not small
        assert len(big) > len(small)


def test_heavy_left_tail_does_not_alias(cf_oracle):
    """The density row against a reference with 8x the alias period (32n
    points). A 2n-point transform, period two windows, lets this left tail
    wrap onto the right end of the window at 5.3e-12 of the row maximum."""
    p = GtsParams(-0.50956, 0.57404, 0.33222, 0.64215, 0.41606, 1.22373, 0.75632)
    g = auto_grid(p, -7.4066, 4.8420)
    big = 32 * g.n
    h = 2.0 * math.pi / (big * g.dx)
    xi = h * np.arange(int(g.xi_max / h) + 1)
    y = np.conj(cf_oracle(p, xi) * np.exp(-1j * g.x_nodes()[0] * xi))
    ref = np.fft.irfft(y, n=big)[: g.n] / g.dx
    got = density_field(p, g).values
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestAutoGrid:
    def test_strict_rung_for_equity_fit(self, spy_params):
        g = auto_grid(spy_params, -10.0, 10.0)
        assert g.n == 8192
        assert g.xi_max == 256.0
        assert g.tail_tol == PHI_TAIL_TOL
        assert g.dx == pytest.approx(30.0 / 8192, rel=1e-15)
        assert g.x_center == 0.0

    def test_relaxed_rung_for_slow_decay(self):
        """Polynomial-decay tails exhaust the budget at strict truncation."""
        p = GtsParams(0.0, 0.0, 0.0, 1.3, 1.3, 1.0, 1.0)
        g = auto_grid(p, -10.0, 10.0)
        assert g.tail_tol == TAIL_TOL_LADDER[-1] == 1e-10
        assert g.n == 1 << 18
        assert g.xi_max == 8192.0

    def test_no_grid_when_tail_never_decays(self):
        """Finite-activity laws keep |Phi| bounded away from zero: |Phi|
        tends to the mass of the atom at mu, here 0.029."""
        p = GtsParams(0.0, -0.5, -0.5, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="atom of mass 2.887e-02"):
            auto_grid(p, -10.0, 10.0)

    def test_empty_range_rejected(self, spy_params):
        with pytest.raises(DomainError):
            auto_grid(spy_params, 3.0, 3.0)

    @pytest.mark.parametrize(
        "bounds, error", [("0.0, math.inf", "DomainError"), ("-1e308, 1e308", "GridError")]
    )
    def test_unbounded_range_ends(self, bounds, error):
        """A bound that is not finite is a DomainError, and a range whose
        width overflows to inf ends in the budget's GridError. Sizing n for
        an infinite span once doubled it forever, so each call runs in a
        child process under a timeout."""
        code = (
            "import math\n"
            "from gtsfit.errors import GtsError\n"
            "from gtsfit.frft import auto_grid\n"
            "from gtsfit.mle import DEFAULT_INIT\n"
            "try:\n"
            f"    auto_grid(DEFAULT_INIT, {bounds})\n"
            "except GtsError as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        env = dict(os.environ)
        root = os.path.dirname(os.path.dirname(os.path.abspath(gtsfit.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (root, env.get("PYTHONPATH")) if p)
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60, env=env
        )
        assert done.stdout.split(" ")[0] == error, done.stderr

    @pytest.mark.parametrize("bounds", [(-1e5, 1e5), (-1e200, 1e200)])
    def test_too_wide_range_is_named(self, bounds):
        """A range that no n <= GRID_N_MAX holds at the smallest span, 64, is
        a GridError that names the range, though this law's |Phi(256)| is
        1.2e-16; a law that decays too slowly for a narrow range says that."""
        with pytest.raises(GridError, match=r"the range \[.*\] is too wide") as wide:
            auto_grid(DEFAULT_INIT, *bounds)
        assert "decays too slowly" not in str(wide.value)
        with pytest.raises(GridError, match="decays too slowly") as slow:
            auto_grid(GtsParams(0.0, -0.5, -0.5, 6.5, 6.5, 1.0, 1.0), -10.0, 10.0)
        assert "too wide" not in str(slow.value)

    ATOMS = {
        "beta < 0 on both tails": GtsParams(0.0, -0.5, -0.5, 0.5, 0.5, 1.0, 1.0),
        "alpha+ = 0, beta- < 0": GtsParams(0.0, 0.5, -0.5, 0.0, 0.5, 1.0, 1.0),
    }

    @pytest.mark.parametrize("law", ATOMS)
    def test_atom_is_a_domain_error(self, law):
        """|Phi| tends to the atom's mass (0.170, 0.412), so no grid can
        certify a truncation: a DomainError naming the atom, from auto_grid
        and from every field on a given grid."""
        p = self.ATOMS[law]
        with pytest.raises(DomainError, match="atom of mass"):
            auto_grid(p, -10.0, 10.0)
        g = GridSpec(n=8192, x_center=0.0, dx=30.0 / 8192, xi_max=256.0)
        for field in (density_field, cdf_field):
            with pytest.raises(DomainError, match="atom of mass"):
                field(p, g)

    def test_atom_below_loosest_rung_behaves_as_before(self):
        """An atom lighter than every rung leaves grid selection as it was:
        mass 9.8e-11 still decays too slowly for the budget, mass 4e-16
        gets a grid."""
        with pytest.raises(GridError, match="decays too slowly"):
            auto_grid(GtsParams(0.0, -0.5, -0.5, 6.5, 6.5, 1.0, 1.0), -10.0, 10.0)
        assert auto_grid(GtsParams(0.0, -0.5, -0.5, 10.0, 10.0, 1.0, 1.0), -10.0, 10.0).n == 8192

    def test_fields_reject_undersized_frequency_range(self, spy_params):
        g = GridSpec(n=64, x_center=0.0, dx=0.1, xi_max=3.2)
        with pytest.raises(GridError):
            density_field(spy_params, g)
        with pytest.raises(GridError):
            cdf_field(spy_params, g)


class TestTailCheck:
    """_check_tail reads |Phi(xi_max)| as exp(Re Psi) from the tail terms
    alone; its pass/fail decision is that of the full complex
    characteristic function, on the lattice beta x alpha x lambda (each
    point on the plus tail, the minus tail and both), at every frequency
    span auto_grid tries and every rung of the ladder."""

    SPANS = 64.0 * 2.0 ** np.arange(17)
    OFF = (0.5, 0.0, 1.0)

    @pytest.mark.parametrize("beta", [-1.5, -0.5, -1e-8, 0.0, 1e-8, 0.05, 0.5, 0.95])
    def test_decision_matches_characteristic_function(self, beta):
        decided = set()
        for alpha, lam in itertools.product((0.0, 0.05, 1.0, 5.0), (0.05, 1.0, 20.0)):
            tail = (beta, alpha, lam)
            for plus, minus in ((tail, self.OFF), (self.OFF, tail), (tail, tail)):
                p = GtsParams(0.0, plus[0], minus[0], plus[1], minus[1], plus[2], minus[2])
                for xi_max, tol in itertools.product(self.SPANS, TAIL_TOL_LADDER):
                    grid = GridSpec(
                        n=64, x_center=0.0, dx=math.pi / xi_max, xi_max=xi_max, tail_tol=tol
                    )
                    want = abs(characteristic_function(p, xi_max)) <= tol
                    try:
                        _check_tail(p, grid)
                        got = True
                    except GridError:
                        got = False
                    except DomainError:
                        # an atom heavier than the rung: no decision to compare
                        continue
                    assert got == want, (plus, minus, xi_max, tol)
                    decided.add(got)
        if beta > 0.0:
            assert decided == {True, False}

    def test_reads_modulus_of_characteristic_function(self, spy_params):
        """Re Psi to within rounding of its own size; at xi = 1e5 it is -652."""
        for xi in (0.0, 1e-3, 1.0, 37.3, 256.0, 1e5):
            want = math.log(abs(characteristic_function(spy_params, xi)))
            got = math.log(cf_modulus(spy_params, xi))
            assert got == pytest.approx(want, rel=1e-14, abs=1e-15)


class TestDensityField:
    def test_matches_quadrature(self, spy_params):
        g = auto_grid(spy_params, -10.0, 10.0)
        f = density_field(spy_params, g)
        for x, expected in DENSITY_QUAD.items():
            assert interpolate(f, x) == pytest.approx(expected, abs=5e-11)

    def test_normalized(self, spy_params):
        g = auto_grid(spy_params, -10.0, 10.0)
        f = density_field(spy_params, g)
        assert np.trapezoid(f.values, g.x_nodes()) == pytest.approx(1.0, abs=1e-6)

    def test_translation_invariance(self, spy_params):
        """Shifting mu shifts the density field rigidly."""
        g1 = auto_grid(spy_params, -10.0, 10.0)
        f1 = density_field(spy_params, g1)
        v = spy_params.to_vector()
        v[0] += 0.5
        shifted = GtsParams.from_vector(v)
        g2 = auto_grid(shifted, -9.5, 10.5)
        f2 = density_field(shifted, g2)
        for x in (-2.5, 0.0, 0.7, 3.1):
            assert interpolate(f2, x + 0.5) == pytest.approx(
                interpolate(f1, x), rel=1e-9, abs=1e-12
            )


class TestCdfField:
    def test_matches_quadrature(self, spy_params):
        g = auto_grid(spy_params, -10.0, 10.0)
        f = cdf_field(spy_params, g)
        for x, expected in CDF_QUAD.items():
            assert interpolate(f, x) == pytest.approx(expected, abs=1e-10)

    def test_monotone_with_unit_range(self, spy_params):
        g = auto_grid(spy_params, -10.0, 10.0)
        f = cdf_field(spy_params, g)
        assert np.all(np.diff(f.values) >= 0.0)
        assert f.values[0] == pytest.approx(0.0, abs=1e-7)
        assert f.values[-1] == pytest.approx(1.0, abs=1e-7)


class TestDerivativeFields:
    """The gradient rows of a level-8 batch, and the curvature rows of the
    test-only 36-row oracle, against finite differences."""

    def test_gradient_matches_density_differences(self, spy_params):
        g = auto_grid(spy_params, -10.0, 10.0)
        grad = _field_batch(spy_params, g, 8)[1:]
        v = spy_params.to_vector()
        xs = np.array([-2.5, -0.6, 0.0, 0.7, 3.1])
        idx, w = _interp_weights(g, xs)
        for k in range(7):
            h = 1e-5 * max(1.0, abs(v[k]))
            vp, vm = v.copy(), v.copy()
            vp[k] += h
            vm[k] -= h
            fp = density_field(GtsParams.from_vector(vp), g)
            fm = density_field(GtsParams.from_vector(vm), g)
            fd = (interpolate(fp, xs) - interpolate(fm, xs)) / (2 * h)
            got = _interp_apply(grad[k], idx, w)
            assert np.allclose(got, fd, rtol=1e-4, atol=1e-7)

    def test_curvature_matches_gradient_differences(self, spy_params, derivative_rows):
        g = auto_grid(spy_params, -10.0, 10.0)
        rows = derivative_rows(spy_params, g)
        pairs = [(r, s) for r in range(7) for s in range(r, 7)]
        v = spy_params.to_vector()
        idx, w = _interp_weights(g, np.array([-0.6, 0.0, 0.7]))
        for r, s in [(1, 5), (2, 2), (0, 3)]:
            h = 1e-5 * max(1.0, abs(v[s]))
            vp, vm = v.copy(), v.copy()
            vp[s] += h
            vm[s] -= h
            gp = _field_batch(GtsParams.from_vector(vp), g, 8)[1 + r]
            gm = _field_batch(GtsParams.from_vector(vm), g, 8)[1 + r]
            fd = _interp_apply((gp - gm) / (2 * h), idx, w)
            got = _interp_apply(rows[8 + pairs.index((r, s))], idx, w)
            assert np.allclose(got, fd, rtol=1e-3, atol=1e-6)

    def test_first_row_equals_density(self, spy_params):
        g = auto_grid(spy_params, -10.0, 10.0)
        dens = density_field(spy_params, g)
        d_mu = _field_batch(spy_params, g, 8)[1]
        # d f / d mu = -f', checked against central differences in x
        fd = -np.gradient(dens.values, g.dx)
        assert np.allclose(d_mu[2:-2], fd[2:-2], atol=5e-4)


class TestInterpolate:
    def test_exact_at_nodes(self, spy_params):
        g = auto_grid(spy_params, -10.0, 10.0)
        f = density_field(spy_params, g)
        sel = slice(g.n // 2 - 20, g.n // 2 + 20)
        got = interpolate(f, g.x_nodes()[sel])
        assert np.allclose(got, f.values[sel], rtol=1e-12, atol=1e-15)

    def test_outside_supported_range_rejected(self, spy_params):
        g = auto_grid(spy_params, -10.0, 10.0)
        f = density_field(spy_params, g)
        edge = g.x_nodes()[-1]
        with pytest.raises(GridError):
            interpolate(f, edge)
        with pytest.raises(GridError):
            interpolate(f, np.array([0.0, 99.0]))

    def test_density_reads_clipped_to_zero(self):
        g = GridSpec(n=64, x_center=0.0, dx=0.1, xi_max=3.2)
        values = np.zeros(64)
        values[30] = -1e-9
        f = Field(g, values, "density")
        x = g.x_nodes()[30] + 0.05
        assert interpolate(f, x) == 0.0

    def test_cdf_reads_clamped_to_unit_interval(self):
        g = GridSpec(n=64, x_center=0.0, dx=0.1, xi_max=3.2)
        f = Field(g, np.linspace(-0.1, 1.1, 64), "cdf")
        xs = g.x_nodes()[3:-3]
        out = interpolate(f, xs)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_scalar_in_scalar_out(self, spy_params):
        g = auto_grid(spy_params, -10.0, 10.0)
        f = density_field(spy_params, g)
        assert isinstance(interpolate(f, 0.25), float)


class TestKernelRead:
    """The likelihood's read: the exponential-of-semicircle kernel over 12
    grid nodes, its transpose, and the deconvolution row 1 / K-hat."""

    @staticmethod
    def _grid(spy_params):
        g = auto_grid(spy_params, -10.0, 10.0)
        return replace(g, n=g.n // 2, dx=2.0 * g.dx)

    def test_scatter_is_transpose_of_read(self, spy_params, rng):
        """u . read(row) = scatter(u) . row for every row, to rounding:
        positive rows and weights, so the sums do not cancel."""
        g = self._grid(spy_params)
        read = _kernel_read(g, rng.uniform(-10.0, 10.0, 500))
        rows = rng.uniform(size=(3, g.n))
        u = rng.uniform(size=500)
        np.testing.assert_allclose(read(rows) @ u, rows @ read.scatter(u), rtol=1e-14)

    def test_read_matches_kernel_sum(self, spy_params):
        """A point between nodes k and k+1 reads nodes k-5..k+6 with weights
        K((x - x_i) / dx); at a node x_k the weights peak at K(0) = 1."""
        g = self._grid(spy_params)
        nodes = g.x_nodes()
        x = nodes[g.n // 2] + 0.3 * g.dx
        read = _kernel_read(g, [x, nodes[g.n // 2]])
        assert list(read.nodes[:, 0]) == list(range(g.n // 2 - 5, g.n // 2 + 7))
        s = (x - nodes[read.nodes[:, 0]]) / g.dx
        want = np.exp(2.30 * 12 * (np.sqrt(1.0 - (s / 6.0) ** 2) - 1.0))
        np.testing.assert_allclose(read.weights[:, 0], want, rtol=1e-14)
        assert read.weights[5, 1] == 1.0

    def test_khat_matches_direct_quadrature(self):
        """1 / K-hat against adaptive quadrature of 2 int_0^6 K(s) cos(s
        theta) ds at theta_j = 2 pi j / (_PAD n), from theta = 0 to pi (j =
        _PAD n / 2), within 1e-14 of K-hat(0)."""
        n = 4096
        last = _PAD * n // 2
        khat = 1.0 / _kernel_deconvolution(n, last + 1)
        beta = 2.30 * 12

        def integrand(s, theta):
            kernel = math.exp(beta * (math.sqrt(max(0.0, 1.0 - (s / 6.0) ** 2)) - 1.0))
            return kernel * math.cos(s * theta)

        for j in (0, 1, 525, 1536, 3072, 4500, last):
            theta = 2.0 * math.pi * j / (_PAD * n)
            half, _ = scipy.integrate.quad(
                integrand, 0.0, 6.0, args=(theta,), epsabs=1e-14, epsrel=1e-13, limit=200
            )
            assert abs(khat[j] - 2.0 * half) <= 1e-14 * khat[0], j

    def test_deconvolution_row_shared_and_read_only(self, spy_params):
        g = self._grid(spy_params)
        a = _kernel_read(g, [0.0]).deconvolve
        b = _kernel_read(replace(g, x_center=1.0), [0.5]).deconvolve
        assert a is b
        assert a.size == _half_nodes(g)[1].size
        assert not a.flags.writeable

    def test_points_whose_nodes_leave_the_grid_rejected(self, spy_params):
        g = self._grid(spy_params)
        nodes = g.x_nodes()
        _kernel_read(g, [nodes[5], nodes[g.n - 7]])
        for x in (nodes[5] - 0.5 * g.dx, nodes[g.n - 7] + 0.5 * g.dx):
            with pytest.raises(GridError, match="kernel read"):
                _kernel_read(g, [0.0, x])


class TestFieldCsv:
    def test_round_trip(self, tmp_path, spy_params):
        g = GridSpec(n=64, x_center=0.0, dx=0.1, xi_max=3.2)
        f = Field(g, np.arange(64.0) / 7.0, "density")
        path = tmp_path / "field.csv"
        field_to_csv(f, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "x,value"
        assert len(lines) == 65
        xs, vs = zip(*(ln.split(",") for ln in lines[1:]))
        assert np.array_equal(np.array(xs, dtype=float), g.x_nodes())
        assert np.array_equal(np.array(vs, dtype=float), f.values)
