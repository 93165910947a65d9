"""Likelihood evaluation, the trust-region subproblem and the Newton fit."""

import importlib
from dataclasses import replace

import numpy as np
import pytest

from gtsfit import mle
from gtsfit.errors import ConvergenceError, DataError, DomainError, GridError, LikelihoodError
from gtsfit.mle import (
    DEFAULT_INIT,
    FitOptions,
    FitTrace,
    TraceRow,
    fit,
    fit_gbm,
    hessian,
    log_likelihood,
    max_eigenvalue,
    parameter_covariance,
    score,
)
from gtsfit.cli import params_from_json
from gtsfit.frft import (
    _field_batch,
    _half_nodes,
    _interp_apply,
    _interp_weights,
    auto_grid,
    density_field,
    interpolate,
)
from gtsfit.model import BETA_LIMIT, PARAM_NAMES, GtsParams
from gtsfit.sampler import SampleConfig, sample_gts


class TestEvaluation:
    def test_log_likelihood_is_sum_of_log_densities(self, spy_params, spy_sample_600):
        ll = log_likelihood(spy_params, spy_sample_600)
        g = auto_grid(spy_params, spy_sample_600.min(), spy_sample_600.max())
        f = density_field(spy_params, g)
        manual = float(np.sum(np.log(interpolate(f, spy_sample_600))))
        assert ll == pytest.approx(manual, rel=1e-12)

    def test_likelihood_grid_is_auto_grid_halved(self, spy_params, spy_sample_600):
        """n halved and dx doubled: the same x range, xi_max, rung and
        spectrum nodes, with xi_max dx still <= pi."""
        y = spy_sample_600
        full = auto_grid(spy_params, y.min(), y.max())
        ctx = mle._grid_context(spy_params, y)
        assert ctx.grid == replace(full, n=full.n // 2, dx=2.0 * full.dx)
        assert ctx.grid.xi_max * ctx.grid.dx <= np.pi
        np.testing.assert_array_equal(_half_nodes(ctx.grid)[1], _half_nodes(full)[1])

    @pytest.mark.parametrize("law", ["sp500", "spy", "btc", "btc_recentered"])
    def test_read_accuracy_at_fixture_laws(self, law, fixtures_dir):
        """Log-likelihood and score of the kernel read on the half-size grid,
        at the truth on a 3046-point draw, against the Lagrange read of a
        grid 16 times finer than auto_grid's (8 times from n = 32768), within
        2e-10 and 1e-9. The Lagrange read on auto_grid's own grid is off by
        up to 7.1e-9 and 9.9e-7 here."""
        p = params_from_json(fixtures_dir / f"gts_{law}.json")
        y = sample_gts(p, SampleConfig(n=3046, seed=11))
        full = auto_grid(p, y.min(), y.max())
        k = 16 if full.n < 32768 else 8
        fine = replace(full, n=full.n * k, dx=full.dx / k)
        idx, w = _interp_weights(fine, y)
        ref = _interp_apply(_field_batch(p, fine, 8), idx, w)
        ll, sc, _ = mle._evaluate(p, y, 8)
        assert abs(ll - float(np.sum(np.log(ref[0])))) <= 2e-10
        assert np.max(np.abs(sc - np.sum(ref[1:] / ref[0], axis=1))) <= 1e-9

    def test_score_matches_finite_differences(self, spy_params, spy_sample_600):
        sc = score(spy_params, spy_sample_600)
        v = spy_params.to_vector()
        for k in range(7):
            h = 1e-5 * max(1.0, abs(v[k]))
            vp, vm = v.copy(), v.copy()
            vp[k] += h
            vm[k] -= h
            fd = (
                log_likelihood(GtsParams.from_vector(vp), spy_sample_600)
                - log_likelihood(GtsParams.from_vector(vm), spy_sample_600)
            ) / (2 * h)
            assert sc[k] == pytest.approx(fd, rel=1e-4, abs=1e-5)

    def test_hessian_matches_score_differences(self, spy_params, spy_sample_600):
        h = hessian(spy_params, spy_sample_600)
        assert np.allclose(h, h.T)
        v = spy_params.to_vector()
        for k in (0, 1, 5):
            step = 1e-5 * max(1.0, abs(v[k]))
            vp, vm = v.copy(), v.copy()
            vp[k] += step
            vm[k] -= step
            fd = (
                score(GtsParams.from_vector(vp), spy_sample_600)
                - score(GtsParams.from_vector(vm), spy_sample_600)
            ) / (2 * step)
            assert np.allclose(h[:, k], fd, rtol=1e-3, atol=1e-3)

    def test_data_validation(self, spy_params):
        with pytest.raises(DataError):
            log_likelihood(spy_params, [])
        with pytest.raises(DataError):
            log_likelihood(spy_params, [1.0, np.nan])
        with pytest.raises(DataError):
            log_likelihood(spy_params, np.ones(60))


class TestAdjointHessian:
    """The level-36 read inverts 8 rows and sums every curvature by the
    adjoint of the inversion; the test-only 36 inverted rows (conftest's
    derivative_rows, deconvolved by the context's 1 / K-hat row), read at
    the points by the same kernel read, are the oracle."""

    POINTS = {
        "spy truth": {},
        "beta- below BETA_LIMIT": {"beta_minus": 0.3 * BETA_LIMIT},
        "compound-Poisson beta-": {"beta_minus": -0.4},
    }

    @staticmethod
    def _row_path(rows, p, ctx):
        """(log-lik, score, hessian) from the 36 deconvolved full rows read
        by the context's kernel read."""
        full = ctx.read(rows(p, ctx.grid, ctx.read.deconvolve))
        f = full[0]
        full = full / f
        q = full[1:8]
        c = np.empty((7, 7))
        c[np.triu_indices(7)] = np.sum(full[8:], axis=1)
        c = np.triu(c) + np.triu(c, 1).T
        return float(np.sum(np.log(f))), np.sum(q, axis=1), c - q @ q.T

    @pytest.mark.parametrize("point", POINTS)
    @pytest.mark.parametrize("block_points", [None, 1])
    def test_matches_row_path(
        self, monkeypatch, spy_params, spy_sample_600, derivative_rows, point, block_points
    ):
        """Within 1e-13 of max|H|, with one block per batch and with one row
        per block (the 8 rows then span 8 blocks)."""
        if block_points is not None:
            monkeypatch.setattr(importlib.import_module("gtsfit.frft"), "_BLOCK_POINTS", block_points)
        p = replace(spy_params, **self.POINTS[point])
        ctx = mle._grid_context(p, spy_sample_600)
        ll, sc, h = mle._evaluate(p, spy_sample_600, 36, ctx)
        ll_rows, sc_rows, h_rows = self._row_path(derivative_rows, p, ctx)
        scale = np.max(np.abs(h_rows))
        assert np.max(np.abs(h - h_rows)) <= 1e-13 * scale
        assert np.array_equal(h, h.T)
        assert ll == pytest.approx(ll_rows, rel=1e-13)
        assert np.allclose(sc, sc_rows, rtol=1e-12, atol=1e-12 * np.max(np.abs(sc_rows)))

    @pytest.mark.parametrize("point", POINTS)
    def test_likelihood_and_score_bit_equal_to_level_8(self, spy_params, spy_sample_600, point):
        p = replace(spy_params, **self.POINTS[point])
        ctx = mle._grid_context(p, spy_sample_600)
        ll, sc, _ = mle._evaluate(p, spy_sample_600, 36, ctx)
        ll8, sc8, _ = mle._evaluate(p, spy_sample_600, 8, ctx)
        assert ll == ll8
        assert np.array_equal(sc, sc8)

    def test_density_checked_before_reciprocal(self, spy_params, spy_sample_600):
        """A density read <= 0 at a data point is a LikelihoodError, raised
        before 1/f reaches the adjoint sums."""
        ctx = mle._grid_context(spy_params, spy_sample_600)

        class Negated(type(ctx.read)):
            def __call__(self, rows):
                return -super().__call__(rows)

            def scatter(self, u):
                raise AssertionError("scatter reached with a non-positive density")

        with pytest.raises(LikelihoodError):
            _field_batch(spy_params, ctx.grid, 36, read=Negated(*ctx.read))


class TestMaxEigenvalue:
    def test_matches_lapack(self, rng):
        """A known spectrum with a repeated top value, in a random basis."""
        q, _ = np.linalg.qr(rng.normal(size=(7, 7)))
        d = np.array([-40.0, -3.5, -0.2, 0.7, 2.5, 9.0, 9.0])
        assert max_eigenvalue(q @ np.diag(d) @ q.T) == pytest.approx(9.0, rel=1e-12)

    def test_diagonal_case(self):
        assert max_eigenvalue(np.diag([3.0, -1.0, 2.0])) == pytest.approx(3.0, rel=1e-12)

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            max_eigenvalue(np.array([[0.0, 1.0], [0.5, 0.0]]))
        with pytest.raises(DomainError):
            max_eigenvalue(np.ones((2, 3)))


class TestFit:
    def test_converges_on_simulated_sample(self, spy_params, spy_sample_600):
        # start near the generating parameters to keep the test quick
        opts = FitOptions(init=spy_params, tol_grad=1e-6)
        p, trace, converged = fit(spy_sample_600, opts)
        assert converged
        assert trace.rows[-1].grad_norm < 1e-6
        assert trace.rows[-1].max_eigenvalue <= 1e-6
        # the optimum should sit in a sane neighbourhood of the truth
        assert abs(p.mu - spy_params.mu) < 1.0
        assert p.lambda_plus > 0.2 and p.lambda_minus > 0.2

    def test_trace_rows_recompute(self, spy_params, spy_sample_600):
        """Each trace row restates quantities a fresh evaluation reproduces."""
        opts = FitOptions(init=spy_params, tol_grad=1e-6)
        p, trace, _ = fit(spy_sample_600, opts)
        row = trace.rows[-1]
        assert row.params == p
        gn = float(np.linalg.norm(score(row.params, spy_sample_600)))
        assert row.grad_norm == pytest.approx(gn, rel=1e-6, abs=1e-6)
        for r in trace.rows:
            assert r.log_ml == pytest.approx(
                log_likelihood(r.params, spy_sample_600), rel=1e-10
            )

    def test_full_batch_only_per_trace_row(self, monkeypatch, spy_params, spy_sample_600):
        """Line-search candidates are judged on the density row alone; the
        36-row batch is spent once per iterate, on the row's own grid."""
        levels = []
        real = mle._field_batch

        def counted(p, grid, level, **kw):
            levels.append(level)
            return real(p, grid, level, **kw)

        monkeypatch.setattr(mle, "_field_batch", counted)
        opts = FitOptions(init=spy_params, tol_grad=1e-6)
        _, trace, converged = fit(spy_sample_600, opts)
        assert converged
        assert levels.count(36) == len(trace.rows)
        assert levels.count(1) == len(levels) - len(trace.rows) > 0

    def test_fit_batches_share_one_workspace(self, monkeypatch, spy_params, spy_sample_600):
        """Every field batch of a fit, on any grid, carves one workspace, so
        the fit faults its large arrays in once rather than per batch."""
        works = []
        real = mle._field_batch

        def recorded(p, grid, level, **kw):
            works.append(kw["work"])
            return real(p, grid, level, **kw)

        monkeypatch.setattr(mle, "_field_batch", recorded)
        fit(spy_sample_600, FitOptions(init=spy_params, tol_grad=1e-6))
        assert len(works) > 2 and all(w is works[0] for w in works)

    def test_one_kernel_read_per_grid_change(self, monkeypatch, spy_params, spy_sample_600):
        """A fit builds a kernel read for its first iterate, one per
        candidate regrid, and one each time an iterate's grid differs from
        that of the context that read its accepted trial. An iterate whose
        accepted trial was regridded is read on that trial's context, so
        its grid change builds no read. This fit changes grid twice, once
        onto an accepted regridded trial's grid, and regrids once."""
        frft_mod = importlib.import_module("gtsfit.frft")
        events, regrids, trying, spectra, built = [], [], [], [], [0]
        real_read, real_eval, real_spectrum = mle._kernel_read, mle._evaluate, frft_mod._spectrum
        real_try, real_ctx, real_step = mle._try_candidate, mle._grid_context, mle._trust_region_step

        def read(grid, x, *args):
            events.append(("read", grid))
            return real_read(grid, x, *args)

        def evaluate(p, y, level, ctx=None):
            if level != 36:
                return real_eval(p, y, level, ctx)
            events.append(("iterate", ctx))
            before = built[0]
            try:
                return real_eval(p, y, level, ctx)
            finally:
                spectra.append(built[0] - before)

        def spectrum(*args):
            built[0] += 1
            return real_spectrum(*args)

        def candidate(*args):
            trying.append(1)
            try:
                return real_try(*args)
            finally:
                trying.pop()

        def context(*args):
            if trying:
                regrids.append(1)
            return real_ctx(*args)

        def step(p, ll, sc, hess, radius, y, ctx, rows):
            got = real_step(p, ll, sc, hess, radius, y, ctx, rows)
            if got[1] is not ctx:
                events.append(("accepted regrid", got[1]))
            return got

        for name, fn in [("_kernel_read", read), ("_evaluate", evaluate),
                         ("_try_candidate", candidate), ("_grid_context", context),
                         ("_trust_region_step", step)]:
            monkeypatch.setattr(mle, name, fn)
        monkeypatch.setattr(frft_mod, "_spectrum", spectrum)
        fit(spy_sample_600, FitOptions(init=spy_params, tol_grad=1e-6))
        kinds = [kind for kind, _ in events]
        iterates = [ctx for kind, ctx in events if kind == "iterate"]
        changes = sum(a.grid != b.grid for a, b in zip(iterates, iterates[1:]))
        accepted = [i for i, kind in enumerate(kinds) if kind == "accepted regrid"]
        assert changes > 0 and regrids and accepted
        assert kinds.count("read") == 1 + changes + len(regrids) - len(accepted) < len(iterates)
        # and that iterate's batch takes the trial's spectrum from the workspace
        for i in accepted:
            assert events[i + 1] == ("iterate", events[i][1])
            assert spectra[kinds[: i + 1].count("iterate")] == 0

    def test_grid_context_reuses_prev_on_its_grid(self, spy_params, spy_sample_600):
        """prev itself on its own grid, what the workspace holds kept; on
        another grid a new read sharing prev's workspace and scratch, and
        what the workspace held, which no batch can match now, dropped."""
        y = spy_sample_600
        prev = mle._grid_context(spy_params, y)
        mle._evaluate(spy_params, y, 1, prev)
        assert mle._grid_context(replace(spy_params, mu=spy_params.mu + 1e-9), y, prev) is prev
        assert prev.work.held is not None
        wide = replace(spy_params, beta_plus=0.3, beta_minus=0.3)
        other = mle._grid_context(wide, y, prev)
        assert other.grid != prev.grid and other.read is not prev.read
        assert other.work is prev.work and other.read.gather is prev.read.gather
        assert prev.work.held is None

    def test_candidate_regrid_keeps_the_workspace(self, spy_params, spy_sample_600):
        """A candidate whose tails the pinned grid cannot hold (beta+- = 0.3
        needs xi_max 1024 where the spy law's grid has 256) is read on its
        own grid, through the pinned context's workspace."""
        ctx = mle._grid_context(spy_params, spy_sample_600)
        v = spy_params.to_vector()
        v[1:3] = 0.3
        _, _, used = mle._try_candidate(v, spy_sample_600, ctx)
        assert used.grid.xi_max > ctx.grid.xi_max
        assert used.work is ctx.work

    def test_unreadable_iterate_raises_with_trace(
        self, monkeypatch, spy_params, spy_sample_600
    ):
        """A failed 36-row read is a LikelihoodError at the initial point and
        a ConvergenceError carrying the trace after an accepted step."""
        real = mle._field_batch

        def full_reads_fail_after(n):
            done = []

            def batch(p, grid, level, **kw):
                if level == 36:
                    if len(done) == n:
                        raise GridError("injected")
                    done.append(p)
                return real(p, grid, level, **kw)

            return batch

        opts = FitOptions(init=spy_params)
        monkeypatch.setattr(mle, "_field_batch", full_reads_fail_after(0))
        with pytest.raises(LikelihoodError):
            fit(spy_sample_600, opts)
        monkeypatch.setattr(mle, "_field_batch", full_reads_fail_after(1))
        with pytest.raises(ConvergenceError, match="own grid") as info:
            fit(spy_sample_600, opts)
        assert isinstance(info.value.__cause__, GridError)
        assert len(info.value.trace.rows) == 1

    def test_refit_from_optimum_is_immediate(self, spy_params, spy_sample_600):
        opts = FitOptions(init=spy_params, tol_grad=1e-6)
        p, _, _ = fit(spy_sample_600, opts)
        p2, trace2, converged = fit(spy_sample_600, FitOptions(init=p, tol_grad=1e-6))
        assert converged
        assert len(trace2.rows) <= 2

    def test_iteration_budget_returns_unconverged(self, monkeypatch, spy_sample_600):
        """At max_iter the fit returns the last traced iterate, without
        searching or reading a point that no row records."""
        levels = []
        real = mle._field_batch

        def counted(p, grid, level, **kw):
            levels.append(level)
            return real(p, grid, level, **kw)

        monkeypatch.setattr(mle, "_field_batch", counted)
        p, trace, converged = fit(spy_sample_600, FitOptions(max_iter=2))
        assert not converged
        assert len(trace.rows) == 2
        assert p == trace.rows[-1].params
        assert levels.count(36) == 2

    def test_boundary_crawl_exits_early(self, spy_params):
        """Some small samples push beta toward 0 where no affordable grid
        exists; the fit must stop with converged=False well inside the
        iteration budget instead of crawling along the boundary."""
        from gtsfit.sampler import SampleConfig, sample_gts

        y = sample_gts(spy_params, SampleConfig(n=600, seed=3))
        p, trace, converged = fit(y, FitOptions(init=spy_params, tol_grad=1e-6))
        assert not converged
        assert len(trace.rows) < 60
        assert p.beta_plus < 0.1
        # the trace stays monotone even while pinned
        lls = [r.log_ml for r in trace.rows]
        assert all(b >= a - 1e-6 for a, b in zip(lls, lls[1:]))

    def test_small_sample_rejected(self, spy_params):
        with pytest.raises(DataError):
            fit(np.linspace(-1, 1, 49), FitOptions(init=spy_params))

    @pytest.mark.parametrize(
        "init",
        [GtsParams(0.0, -0.5, -0.5, 0.5, 0.5, 1.0, 1.0), GtsParams(0.0, 0.5, -0.5, 0.0, 0.5, 1.0, 1.0)],
    )
    def test_init_with_atom_rejected(self, init):
        with pytest.raises(DomainError, match="atom"):
            FitOptions(init=init)

    def test_candidate_with_atom_rejected_without_regrid(
        self, monkeypatch, spy_params, spy_sample_600
    ):
        ctx = mle._grid_context(spy_params, spy_sample_600)

        def no_regrid(p, y):
            raise AssertionError("regrid attempted")

        monkeypatch.setattr(mle, "_grid_context", no_regrid)
        atom = np.array([0.0, -0.5, -0.5, 0.5, 0.5, 1.0, 1.0])
        assert mle._try_candidate(atom, spy_sample_600, ctx) is None

    @pytest.mark.parametrize(
        "entry, value",
        [(1, 1.0), (2, 1.0), (2, -1.0), (3, -0.1), (5, 0.0), (6, np.nan)],
        ids=["beta_plus=1", "beta_minus=1", "beta_minus=-1", "alpha<0", "lambda=0", "nan"],
    )
    def test_candidate_outside_domain_rejected_unread(
        self, monkeypatch, spy_params, spy_sample_600, entry, value
    ):
        ctx = mle._grid_context(spy_params, spy_sample_600)

        def no_read(*args, **kw):
            raise AssertionError("field batch read")

        monkeypatch.setattr(mle, "_field_batch", no_read)
        v = spy_params.to_vector()
        v[entry] = value
        assert mle._try_candidate(v, spy_sample_600, ctx) is None

    def test_regridded_trial_judged_against_pinned_ll(self):
        """A trial whose tails the pinned grid cannot hold is read on its own
        grid, where the iterate itself has no density (its atom, mass
        1.04e-12, outweighs the 1e-12 rung), and is judged against ll, the
        iterate's log-likelihood on the pinned grid: accepted whole, with
        gain its own-grid log-likelihood minus ll. The gain is pinned by the
        radius rule: with -hess = c I and score c s the step is s itself,
        inside the radius, and the model predicts c |s|^2 / 2; set to 4 gain
        (1 +- 1e-6), rho falls just below 1/4 (radius cut to a quarter of
        the step) or just above it (radius kept)."""
        y = np.linspace(-3, 3, 200)
        p = GtsParams(0, -0.34, -0.44, 12.0, 1.06, 1.77, 1.77)
        q = GtsParams(0, 0.12, -0.44, 1.47, 1.06, 1.77, 1.77)
        ctx = mle._grid_context(p, y)
        own = mle._grid_context(q, y)
        assert ctx.grid.tail_tol == 1e-11
        assert own.grid.tail_tol == 1e-12
        with pytest.raises(DomainError, match="atom"):
            mle._evaluate(p, y, 1, own)
        ll = mle._evaluate(p, y, 1, ctx)[0]
        gain = mle._evaluate(q, y, 1, own)[0] - ll
        s = q.to_vector() - p.to_vector()
        norm = float(np.linalg.norm(s))
        for margin, cut in ((1e-6, True), (-1e-6, False)):
            c = 8.0 * gain * (1.0 + margin) / norm**2
            got, used, size, tau, radius = mle._trust_region_step(
                p, ll, c * s, -c * np.eye(7), 20.0, y, ctx, []
            )
            np.testing.assert_allclose(got.to_vector(), q.to_vector(), rtol=1e-12)
            assert used.grid == own.grid
            assert size == pytest.approx(norm, rel=1e-15)
            assert tau == 0.0
            assert radius == (0.25 * size if cut else 20.0)

    def test_no_acceptable_trial_raises_with_trace(
        self, monkeypatch, spy_params, spy_sample_600
    ):
        """Every trial unusable: the radius shrinks for _TRIALS trials, then
        a ConvergenceError carries the trace."""
        calls = []

        def unusable(*args):
            calls.append(1)

        monkeypatch.setattr(mle, "_try_candidate", unusable)
        with pytest.raises(ConvergenceError, match="trust region") as info:
            fit(spy_sample_600, FitOptions(init=spy_params))
        assert len(calls) == mle._TRIALS
        assert len(info.value.trace.rows) == 1

    def test_path_independent_of_row_order(self, monkeypatch, spy_params, spy_sample_3000):
        """The trust-region path from the truth does not depend on the order
        of the sample rows: the same, short iteration count on three
        permutations, at most two density-only trials per iteration."""
        calls = []
        real = mle._try_candidate

        def counted(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(mle, "_try_candidate", counted)
        iterations = set()
        for seed in (1, 2, 3):
            y = spy_sample_3000[np.random.default_rng(seed).permutation(3000)]
            calls.clear()
            _, trace, converged = fit(y, FitOptions(init=spy_params))
            assert converged
            assert len(trace.rows) <= 16
            assert len(calls) <= 2 * len(trace.rows)
            iterations.add(len(trace.rows))
        assert len(iterations) == 1

    def test_options_validated(self):
        with pytest.raises(DomainError):
            FitOptions(tol_grad=0.0)
        with pytest.raises(DomainError):
            FitOptions(max_iter=0)


def _trust_solution(b, g, radius):
    """Solve the subproblem and check the More-Sorensen conditions, to 1e-10
    relative: (B + tau I) s = g, tau >= 0, tau (|s| - radius) = 0, |s| <=
    radius and B + tau I positive semidefinite."""
    ev, q = np.linalg.eigh(b)
    s, tau = mle._trust_step(ev, q, g, radius)
    size = np.linalg.norm(s)
    scale = np.abs(ev).max() + tau
    residual = (b + tau * np.eye(len(g))) @ s - g
    assert np.linalg.norm(residual) <= 1e-10 * (np.linalg.norm(g) + scale * size)
    assert tau >= 0.0
    assert abs(tau * (size - radius)) <= 1e-10 * tau * radius
    assert size <= radius * (1.0 + 1e-10)
    assert np.linalg.eigvalsh(b + tau * np.eye(len(g)))[0] >= -1e-10 * scale
    return s, tau


def _rotated(ev, rng):
    q, _ = np.linalg.qr(rng.standard_normal((len(ev), len(ev))))
    return (q * ev) @ q.T, q


class TestTrustStep:
    def test_interior_newton_step(self, rng):
        b, _ = _rotated(np.array([0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 40.0]), rng)
        g = rng.standard_normal(7)
        radius = 10.0 * np.linalg.norm(np.linalg.solve(b, g))
        s, tau = _trust_solution(b, g, radius)
        assert tau == 0.0
        np.testing.assert_allclose(s, np.linalg.solve(b, g), rtol=1e-12)

    def test_boundary_step(self, rng):
        b, _ = _rotated(np.array([0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 40.0]), rng)
        g = rng.standard_normal(7)
        radius = 0.1 * np.linalg.norm(np.linalg.solve(b, g))
        s, tau = _trust_solution(b, g, radius)
        assert tau > 0.0
        assert np.linalg.norm(s) == pytest.approx(radius, rel=1e-12)

    def test_indefinite(self, rng):
        b, _ = _rotated(np.array([-30.0, -2.0, -1e-3, 0.5, 4.0, 9.0, 1e3]), rng)
        g = rng.standard_normal(7)
        for radius in (1e-4, 0.1, 1.0, 100.0):
            s, tau = _trust_solution(b, g, radius)
            assert tau > 30.0
            assert np.linalg.norm(s) == pytest.approx(radius, rel=1e-12)

    def test_hard_case(self, rng):
        """g has no component along the lowest eigenvector, and the step at
        tau = -lambda_min is inside the radius: the eigenvector makes up the
        length, and tau is -lambda_min."""
        ev = np.array([-2.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        c = np.array([0.0, 1.0, -1.0, 0.5, 2.0, 0.0, 1.0])
        s, tau = _trust_solution(np.diag(ev), c, 5.0)
        assert tau == 2.0
        assert abs(s[0]) == pytest.approx(np.sqrt(25.0 - np.sum((c[1:] / (ev[1:] + 2.0)) ** 2)))
        b, q = _rotated(ev, rng)
        s, tau = _trust_solution(b, q @ c, 5.0)
        assert tau == pytest.approx(2.0, rel=1e-12)
        # a repeated lowest eigenvalue, g orthogonal to both eigenvectors
        ev[1] = -2.0
        c[1] = 0.0
        s, tau = _trust_solution(np.diag(ev), c, 5.0)
        assert tau == 2.0

    def test_random(self, rng):
        for _ in range(200):
            ev = rng.standard_normal(7) * 10.0 ** rng.uniform(-3, 4, 7)
            b, _ = _rotated(ev, rng)
            g = rng.standard_normal(7) * 10.0 ** rng.uniform(-3, 3)
            _trust_solution(b, g, 10.0 ** rng.uniform(-6, 2))


class TestTraceCsv:
    def test_header_and_formatting(self, tmp_path):
        p = GtsParams(0.1, 0.2, 0.3, 0.4, 0.5, 1.6, 1.7)
        trace = FitTrace((TraceRow(1, p, -12.5, 0.25, -3.0),))
        path = tmp_path / "trace.csv"
        trace.to_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration," + ",".join(PARAM_NAMES) + ",log_ml,grad_norm,max_eigenvalue"
        cells = lines[1].split(",")
        assert cells[0] == "1"
        assert float(cells[1]) == 0.1
        assert float(cells[-3]) == -12.5


class TestGbmFit:
    def test_moment_match(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        g = fit_gbm(y)
        assert g.mu == pytest.approx(2.5, rel=1e-15)
        assert g.sigma == pytest.approx(np.sqrt(1.25), rel=1e-15)

    def test_degenerate_rejected(self):
        with pytest.raises(DataError):
            fit_gbm(np.array([2.0, 2.0]))
        with pytest.raises(DataError):
            fit_gbm(np.array([1.0]))


class TestParameterCovariance:
    def test_inverse_information(self):
        h = -np.array([[4.0, 1.0], [1.0, 3.0]])
        cov = parameter_covariance(h)
        assert np.allclose(cov @ (-h), np.eye(2), atol=1e-12)
        assert np.all(np.linalg.eigvalsh(cov) > 0)

    def test_indefinite_rejected(self):
        with pytest.raises(DomainError):
            parameter_covariance(np.eye(3))
        with pytest.raises(DomainError):
            parameter_covariance(np.array([[0.0, 1.0], [0.5, 0.0]]))
