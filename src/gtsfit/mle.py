"""Maximum likelihood fitting of the tempered-stable law by Newton iteration.

Each iterate, the starting point included, is read once, on its own grid,
by one level-36 field batch. It inverts 8 rows, the density and its 7
parameter gradients, and every sample point reads them through the same
interpolation weights. The 28 distinct curvatures enter the Hessian only
through the sums over the sample of d2f/f, and the batch takes those by
the adjoint of the inversion: one forward FFT of the weights 1/f scattered
onto the grid, then dot products with the curvature spectra. So no
curvature row is inverted, and the per-iteration cost is independent of
the sample size. Line-search candidates are accepted or rejected on the
log-likelihood alone, so each costs a batch of the density row only.

The likelihood surface is not concave far from the optimum: the Hessian
picks up positive eigenvalues along the beta directions and a raw Newton
step there moves toward a saddle or out of the domain. The default step
policy therefore shifts the Hessian by tau just past its largest
eigenvalue whenever it is not negative definite and backtracks to a
non-decreasing step; near the optimum (Hessian negative definite) tau is 0
and the iteration is plain Newton with quadratic tail convergence. The
literal unshifted policy remains available as step_policy="raw-newton":
it accepts any finite in-domain step, matching diagnostic traces whose
middle iterations wander through indefinite regions, but it can diverge
from distant starts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Tuple

import numpy as np

from .errors import ConvergenceError, DataError, DomainError, GridError, LikelihoodError
from .frft import (
    TAIL_TOL_LADDER,
    _check_atom,
    _check_density,
    _field_batch,
    _interp_apply,
    _interp_scatter,
    _interp_weights,
    auto_grid,
)
from .model import PARAM_NAMES, GbmParams, GtsParams

DEFAULT_INIT = GtsParams(0.0, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0)

STEP_POLICIES = ("safeguarded", "raw-newton")

_EIG_SLACK = 1e-6

# an accepted backtracking factor this small means the iterate is pinned
# against the admissible-grid boundary, not progressing
_CRAWL_LAM = 2.0**-20
_CRAWL_RUNS = 3


@dataclass(frozen=True)
class FitOptions:
    init: GtsParams = DEFAULT_INIT
    tol_grad: float = 1e-9
    max_iter: int = 100
    step_policy: str = "safeguarded"

    def __post_init__(self):
        if not (self.tol_grad > 0.0):
            raise DomainError("tol_grad must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
        if self.step_policy not in STEP_POLICIES:
            raise DomainError(f"step policy must be one of {STEP_POLICIES}")
        _check_atom(self.init, TAIL_TOL_LADDER[-1])


class TraceRow(NamedTuple):
    iteration: int
    params: GtsParams
    log_ml: float
    grad_norm: float
    max_eigenvalue: float


@dataclass(frozen=True)
class FitTrace:
    rows: Tuple[TraceRow, ...] = field(default_factory=tuple)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("iteration," + ",".join(PARAM_NAMES))
            fh.write(",log_ml,grad_norm,max_eigenvalue\n")
            for r in self.rows:
                cells = [str(r.iteration)]
                cells += [f"{v:.17g}" for v in r.params.to_vector()]
                cells += [
                    f"{r.log_ml:.17g}",
                    f"{r.grad_norm:.17g}",
                    f"{r.max_eigenvalue:.17g}",
                ]
                fh.write(",".join(cells) + "\n")


def _as_data(data) -> np.ndarray:
    y = np.asarray(data, dtype=float).ravel()
    if y.size == 0 or not np.all(np.isfinite(y)):
        raise DataError("data must be a non-empty finite array")
    if y.max() == y.min():
        raise DataError("data must not be constant")
    return y


class _GridContext(NamedTuple):
    """A fixed evaluation grid with the sample's interpolation weights."""

    grid: object
    idx: np.ndarray
    w: np.ndarray


def _grid_context(p: GtsParams, y: np.ndarray) -> _GridContext:
    grid = auto_grid(p, float(y.min()), float(y.max()))
    idx, w = _interp_weights(grid, y)
    return _GridContext(grid, idx, w)


def _evaluate(p: GtsParams, y: np.ndarray, level: int, ctx: _GridContext = None):
    """(log-lik, score, hessian) from one field batch; entries beyond the
    requested level are None. A caller-supplied context pins the grid. At
    level 36 the batch inverts the density and gradient rows and returns
    the curvature sums C[r, s] = sum f_rs / f by the adjoint of the
    inversion, so the Hessian is C - sum (df/f)(df/f)^T."""
    if ctx is None:
        ctx = _grid_context(p, y)
    grid, idx, w = ctx
    read = lambda rows: _interp_apply(rows, idx, w)
    if level == 36:
        vals, curv = _field_batch(
            p, grid, 36, read=read, scatter=lambda u: _interp_scatter(u, idx, w, grid.n)
        )
    else:
        vals = _field_batch(p, grid, level, read=read)
        _check_density(vals[0])
    fi = vals[0]
    ll = float(np.sum(np.log(fi)))
    if level == 1:
        return ll, None, None
    q = vals[1:8] / fi
    sc = np.sum(q, axis=1)
    if level == 8:
        return ll, sc, None
    return ll, sc, curv - q @ q.T


def log_likelihood(p: GtsParams, data) -> float:
    """Sum of log densities, read from one inverted field."""
    ll, _, _ = _evaluate(p, _as_data(data), 1)
    return ll


def score(p: GtsParams, data) -> np.ndarray:
    """Gradient of the log-likelihood in the seven parameters."""
    _, sc, _ = _evaluate(p, _as_data(data), 8)
    return sc


def hessian(p: GtsParams, data) -> np.ndarray:
    """Second-derivative matrix of the log-likelihood, symmetric by
    construction: sum over samples of d2f/f - (df/f)(df/f)^T, with the
    d2f/f sums taken by the adjoint of the inversion."""
    _, _, h = _evaluate(p, _as_data(data), 36)
    return h


def _symmetric(h, what: str) -> np.ndarray:
    """h as a float array, or DomainError if it is not square or is
    asymmetric beyond 1e-12 of max(1, max|h|)."""
    a = np.array(h, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DomainError(f"{what} must be square")
    scale = max(1.0, float(np.abs(a).max()))
    if float(np.abs(a - a.T).max()) > 1e-12 * scale:
        raise DomainError(f"{what} is not symmetric")
    return a


def max_eigenvalue(h) -> float:
    """Largest eigenvalue of a symmetric matrix, by LAPACK (np.linalg.eigvalsh)."""
    a = _symmetric(h, "matrix")
    return float(np.linalg.eigvalsh(0.5 * (a + a.T))[-1])


_EVAL_ERRORS = (DomainError, GridError, LikelihoodError, FloatingPointError, OverflowError)


def _try_candidate(v: np.ndarray, y: np.ndarray, ctx: _GridContext):
    """Log-likelihood of a trial point from a density-only batch, preferring
    the pinned grid but regridding to the candidate's own wider grid when its
    tails need one. Returns (params, ll, context used) or None if unusable:
    outside the parameter domain, or not evaluable on either grid."""
    try:
        p = GtsParams.from_vector(v)
        try:
            return p, _evaluate(p, y, 1, ctx)[0], ctx
        except GridError:
            own = _grid_context(p, y)
            return p, _evaluate(p, y, 1, own)[0], own
    except _EVAL_ERRORS:
        return None


def fit(data, opts: FitOptions = FitOptions()):
    """Newton iteration on the log-likelihood.

    Returns (params, trace, converged). Convergence requires both a score
    norm below opts.tol_grad and a Hessian top eigenvalue <= 1e-6. Once
    row max_iter is traced, fit returns that row's params with
    converged=False and takes no further step. A state from which no
    acceptable step exists, or an accepted iterate whose score and Hessian
    cannot be read on its own grid, raises ConvergenceError carrying the
    trace so far; an initial point that cannot be read is a LikelihoodError.

    Candidates within one step search are all evaluated on the current
    iterate's grid, so the compared likelihoods share every quadrature
    artifact; only a candidate whose tails that grid cannot hold moves to
    its own wider grid. Without the pinning, a candidate falling across a
    frequency-span doubling boundary sees an objective jump of about 1e-8
    and a monotone search can reject every step length. Such a candidate
    is compared against the iterate re-read on the candidate's grid; if
    that read fails with any evaluation error, the reference falls back to
    the iterate's log-likelihood on the pinned grid. The accepted
    iterate is then read afresh on the grid auto_grid picks for it, which
    becomes the pinned grid of the next search.

    Samples whose likelihood keeps rising toward beta -> 0 push the iterate
    against the boundary of grids the size budget can build. There the
    search can only accept near-zero step lengths, so three consecutive
    acceptances with a backtracking factor <= 2^-20 end the iteration early
    with converged=False rather than crawling along the boundary.
    """
    y = _as_data(data)
    if y.size < 50:
        raise DataError("fitting 7 parameters needs at least 50 observations")
    p = opts.init
    rows = []
    crawl = 0
    for it in range(1, opts.max_iter + 1):
        try:
            ctx = _grid_context(p, y)
            ll, sc, hess = _evaluate(p, y, 36, ctx)
        except _EVAL_ERRORS as exc:
            if not rows:
                raise LikelihoodError(
                    f"likelihood is not evaluable at the initial point: {exc}"
                ) from exc
            raise ConvergenceError(
                f"accepted iterate unusable on its own grid: {exc}",
                trace=FitTrace(tuple(rows)),
            ) from exc
        gn = float(np.linalg.norm(sc))
        me = max_eigenvalue(hess)
        rows.append(TraceRow(it, p, ll, gn, me))
        if gn < opts.tol_grad and me <= _EIG_SLACK:
            return p, FitTrace(tuple(rows)), True
        if crawl >= _CRAWL_RUNS or it == opts.max_iter:
            break
        if opts.step_policy == "raw-newton":
            p, lam = _raw_step(p, sc, hess, y, ctx, rows)
        else:
            p, lam = _safeguarded_step(p, ll, sc, hess, gn, me, y, ctx, rows)
        crawl = crawl + 1 if lam <= _CRAWL_LAM else 0
    return p, FitTrace(tuple(rows)), False


def _line_search(v, step, y, ctx, ll):
    """Halve the step length until a usable point appears. With ll, the
    iterate's log-likelihood, acceptance is monotone: the candidate must not
    lose more than 1e-9 of log-likelihood against the reference re-read on
    the candidate's grid; with ll None any usable point is accepted. Returns
    (params, accepted step fraction) or None."""
    refs = {ctx.grid: ll}
    lam = 1.0
    for _ in range(30):
        got = _try_candidate(v - lam * step, y, ctx)
        if got is not None:
            p, cand_ll, used = got
            if ll is None:
                return p, lam
            ref = refs.get(used.grid)
            if ref is None:
                try:
                    ref = _evaluate(GtsParams.from_vector(v), y, 1, used)[0]
                except _EVAL_ERRORS:
                    ref = ll
                refs[used.grid] = ref
            if cand_ll >= ref - 1e-9:
                return p, lam
        lam *= 0.5
    return None


def _raw_step(p, sc, hess, y, ctx, rows):
    """Unmodified Newton direction; halve only on domain exit or a
    non-finite likelihood."""
    try:
        step = np.linalg.solve(hess, sc)
    except np.linalg.LinAlgError:
        raise ConvergenceError("singular Hessian", trace=FitTrace(tuple(rows)))
    got = _line_search(p.to_vector(), step, y, ctx, None)
    if got is None:
        raise ConvergenceError(
            "backtracking exhausted without a usable step",
            trace=FitTrace(tuple(rows)),
        )
    return got


def _safeguarded_step(p, ll, sc, hess, gn, me, y, ctx, rows):
    """Newton direction on the shifted matrix hess - tau I, tau chosen so the
    shift is negative definite; accept only non-decreasing in-domain steps,
    escalating tau when a direction yields none."""
    tau = 0.0 if me < -1e-8 else me + max(1e-6, 0.01 * abs(me))
    v = p.to_vector()
    for _round in range(8):
        try:
            step = np.linalg.solve(hess - tau * np.eye(7), sc)
        except np.linalg.LinAlgError:
            step = sc / max(1.0, gn)
        got = _line_search(v, step, y, ctx, ll)
        if got is not None:
            return got
        tau = max(4.0 * abs(tau), 1.0)
    raise ConvergenceError(
        "no ascent step found at any shift", trace=FitTrace(tuple(rows))
    )


def fit_gbm(data) -> GbmParams:
    """Gaussian baseline: sample mean and method-of-moments sigma
    (denominator m)."""
    y = _as_data(data)
    if y.size < 2:
        raise DataError("GBM fit needs at least two observations")
    mu = float(y.mean())
    var = float(np.mean((y - mu) ** 2))
    if var <= 0.0:
        raise DataError("zero variance; sigma undefined")
    return GbmParams(mu=mu, sigma=math.sqrt(var))


def parameter_covariance(h) -> np.ndarray:
    """Inverse observed information: (-hessian)^-1 at the optimum."""
    a = _symmetric(h, "Hessian")
    try:
        np.linalg.cholesky(-a)
    except np.linalg.LinAlgError:
        raise DomainError("Hessian is not negative definite")
    return np.linalg.inv(-a)
