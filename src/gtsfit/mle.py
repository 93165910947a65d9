"""Maximum likelihood fitting of the tempered-stable law by Newton iteration.

Each iterate, the starting point included, is read once, on its own grid,
by one level-36 field batch. It yields 8 rows, the density and its 7
parameter gradients, and every sample point reads them through the same
kernel read (frft module docstring): the spectrum is divided by K-hat, the
transform of a 12-node spreading kernel, and each point sums its 12
nearest nodes times the kernel. The likelihood grid is auto_grid's grid
with n halved and dx doubled (_grid_context), so the FFTs are half the
size the cubic Lagrange read of the fields needs. On 3046-point draws from
the bundled laws its log-likelihood is within 2e-11 of a refined reference
at the truth and 1.2e-10 at the fitted endpoints; the Lagrange read on the
full grid is off by up to 7e-9 and 8e-9 there.

The 28 distinct curvatures enter the Hessian only through the sums over
the sample of d2f/f, and the batch takes those by the adjoint of the
inversion: one forward FFT of the weights 1/f scattered onto the grid
through the transposed kernel read, then dot products with the curvature
spectra. So no curvature row is inverted, and the per-iteration cost is
independent of the sample size. Trial steps are accepted or rejected on
the log-likelihood alone, so each costs a batch of the density row only.

A fit rebuilds nothing it holds: its iterates keep one context (grid,
kernel read, workspace) while the grid is unchanged (_grid_context), an
iterate starts from the context that read its accepted trial, the
candidate's own grid included, and so takes the trial's spectrum and
density reads from the workspace (frft _Workspace.held); its batch builds
only the gradient rows and curvature sums. Bit for bit.

The likelihood surface is not concave far from the optimum: the Hessian
picks up positive eigenvalues along the beta directions and a raw Newton
step there moves toward a saddle or out of the domain. Each step is
therefore taken in a trust region (Nocedal & Wright, Numerical
Optimization, 2nd ed., 4.3): it maximises the quadratic model of the
log-likelihood within a radius, solved exactly from one eigendecomposition
of the 7 x 7 Hessian per iterate (_trust_step), and the radius grows or
shrinks with the ratio of the actual to the predicted gain. Near the
optimum (Hessian negative definite, Newton step inside the radius) the
iteration is plain Newton with quadratic tail convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple, Tuple

import numpy as np

from .errors import ConvergenceError, DataError, DomainError, GridError, LikelihoodError
# _interp_apply and _interp_weights are not called here; perfbench/tracer.py
# wraps them as attributes of this module
from .frft import (
    TAIL_TOL_LADDER,
    GridSpec,
    _KernelRead,
    _Workspace,
    _check_atom,
    _field_batch,
    _interp_apply,
    _interp_weights,
    _kernel_read,
    auto_grid,
)
from .model import PARAM_NAMES, GbmParams, GtsParams

DEFAULT_INIT = GtsParams(0.0, 0.5, 0.5, 0.5, 0.5, 1.0, 1.0)

_EIG_SLACK = 1e-6

# a candidate may lose this much log-likelihood against the iterate and
# still be accepted; the likelihood is not resolved more finely
_SLACK = 1e-9

# trust region: starting radius (the parameters are O(1)), the gain ratios
# above which a step that reached the radius doubles it and below which the
# radius shrinks to a quarter of the step, and the trials per iterate
_RADIUS0 = 1.0
_GROW_RHO = 0.75
_SHRINK_RHO = 0.25
_TRIALS = 30
# a gradient component along the lowest eigenvector this small, relative to
# the whole gradient, is rounding: the subproblem is in the hard case
_HARD_CASE = 4.0 * np.finfo(float).eps

# an accepted step this small, held to that length by the trust radius,
# means the iterate is pinned against the admissible-grid boundary, not
# progressing
_CRAWL_STEP = 2.0**-20
_CRAWL_RUNS = 3


@dataclass(frozen=True)
class FitOptions:
    init: GtsParams = DEFAULT_INIT
    tol_grad: float = 1e-9
    max_iter: int = 100

    def __post_init__(self):
        if not (self.tol_grad > 0.0):
            raise DomainError("tol_grad must be positive")
        if self.max_iter < 1:
            raise DomainError("max_iter must be >= 1")
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
    """A fixed likelihood grid with the sample's kernel read on it, and the
    workspace its field batches carve their large arrays from."""

    grid: GridSpec
    read: _KernelRead
    work: _Workspace


def _grid_context(p: GtsParams, y: np.ndarray, prev: _GridContext = None) -> _GridContext:
    """The likelihood grid of p for the sample y: auto_grid's grid with n
    halved and dx doubled. The x range, xi_max, tail_tol, the spectrum
    nodes xi_j = 2 pi j / (4 n dx) and the alias period 4 n dx stay those of
    auto_grid's grid, and xi_max dx stays <= pi; the kernel read is accurate
    there on the coarser grid (module docstring).

    prev, the fit's last context for this y, is returned itself on an
    unchanged grid, so a fit builds a kernel read per grid change and keeps
    one (not one per grid: a read holds about 0.6 MB on 3000 points). A new
    context shares prev's workspace and read scratch, first dropping what
    the workspace holds, which no batch on the new read can match."""
    full = auto_grid(p, float(y.min()), float(y.max()))
    grid = replace(full, n=full.n // 2, dx=2.0 * full.dx)
    if prev is None:
        return _GridContext(grid, _kernel_read(grid, y), _Workspace())
    if prev.grid == grid:
        return prev
    prev.work.held = None
    return _GridContext(grid, _kernel_read(grid, y, prev.read.gather), prev.work)


def _evaluate(p: GtsParams, y: np.ndarray, level: int, ctx: _GridContext = None):
    """(log-lik, score, hessian) from one field batch; entries beyond the
    requested level are None. A caller-supplied context pins the grid. At
    level 36 the batch inverts the density and gradient rows and returns
    the curvature sums C[r, s] = sum f_rs / f by the adjoint of the
    inversion, so the Hessian is C - sum (df/f)(df/f)^T."""
    if ctx is None:
        ctx = _grid_context(p, y)
    got = _field_batch(p, ctx.grid, level, read=ctx.read, work=ctx.work)
    vals, curv = got if level == 36 else (got, None)
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
    """Log-likelihood of a trial point from a density-only batch, on the
    pinned grid, or on the candidate's own wider grid when its tails need
    one: the only place a trial changes grid. Returns (params, ll, context
    used) or None if unusable: outside the parameter domain, or not
    evaluable on either grid."""
    try:
        p = GtsParams.from_vector(v)
        try:
            return p, _evaluate(p, y, 1, ctx)[0], ctx
        except GridError:
            own = _grid_context(p, y, ctx)
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

    Each step is taken in a trust region. The radius starts at 1 (the
    parameters are O(1)) and carries over from one iterate to the next. A
    trial step is accepted when its log-likelihood is at most 1e-9
    below the iterate's; a rejected trial shrinks the radius to a quarter of
    the step and the next trial solves the model again. After an accepted
    step the radius doubles when the gain was more than 3/4 of the model's
    and the step reached the radius, and shrinks to a quarter of the step
    when the gain was under 1/4 of it. The ratio adds 1e-9 to both gains,
    so steps whose gains the likelihood cannot resolve neither grow nor
    shrink the radius.

    Trials from one iterate are all evaluated on the iterate's grid, so the
    compared likelihoods share every quadrature artifact; only a trial
    point whose tails that grid cannot hold moves to its own wider grid.
    Without the pinning, a trial falling across a frequency-span doubling
    boundary sees the objective jump by the two grids' read errors: 3.2e-8
    with the cubic read on the full grid, which near the optimum is as
    large as the gains being compared. With the kernel read that jump is
    at most 5e-10 on 3000-point samples, below the 1e-9 slack, so every
    trial, on whichever grid read it, is judged against the iterate's
    log-likelihood on the pinned grid. The accepted iterate is then read in
    full on the grid auto_grid picks for it, which becomes the pinned grid
    of its own trials.

    Samples whose likelihood keeps rising toward beta -> 0 push the iterate
    against the boundary of grids the size budget can build. There trials
    off the buildable grids are rejected until the radius collapses, so
    three consecutive accepted steps held by the radius to a length
    <= 2^-20 end the iteration early with converged=False rather than
    crawling along the boundary.
    """
    y = _as_data(data)
    if y.size < 50:
        raise DataError("fitting 7 parameters needs at least 50 observations")
    p = opts.init
    rows = []
    crawl = 0
    radius = _RADIUS0
    ctx = None
    for it in range(1, opts.max_iter + 1):
        try:
            ctx = _grid_context(p, y, ctx)
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
        p, ctx, size, tau, radius = _trust_region_step(p, ll, sc, hess, radius, y, ctx, rows)
        crawl = crawl + 1 if tau > 0.0 and size <= _CRAWL_STEP else 0
    return p, FitTrace(tuple(rows)), False


def _trust_step(ev, Q, g, radius):
    """Maximiser s of the model g.s - s.B.s / 2 over |s| <= radius, with
    B = Q diag(ev) Q^T (ev ascending, as np.linalg.eigh returns them).
    Returns (s, tau): (B + tau I) s = g with tau >= max(0, -ev[0]), and
    tau = 0 or |s| = radius (More & Sorensen 1983).

    In the eigenbasis s has coordinates c / (b + sigma), c = Q^T g, with
    b = ev - ev[0] >= 0 when B is not positive definite (tau = sigma - ev[0])
    and b = ev otherwise (tau = sigma); b is computed once, so its zeros are
    exact. sigma solves |s| = radius, the secular equation, by Newton's
    method on 1 / |s|, kept inside a bracket that bisection shrinks. In the
    hard case g has no component along the zero-b eigenvectors and even
    sigma = 0 gives a step inside the radius; the lowest eigenvector then
    makes up the length."""
    c = Q.T @ g
    if ev[0] > 0.0:
        b, lo = ev, 0.0
        t = c / b
        if np.linalg.norm(t) <= radius:
            return Q @ t, 0.0
    else:
        b, lo = ev - ev[0], -ev[0]
        zero = b == 0.0
        if np.all(np.abs(c[zero]) <= _HARD_CASE * np.linalg.norm(c)):
            t = np.where(zero, 0.0, c / np.where(zero, 1.0, b))
            rest = float(np.linalg.norm(t))
            if rest <= radius:
                t[0] = math.copysign(math.sqrt(radius * radius - rest * rest), c[0])
                return Q @ t, lo
    below, above = 0.0, float(np.linalg.norm(c)) / radius
    sigma = above
    for _ in range(200):
        t = c / (b + sigma)
        size = float(np.linalg.norm(t))
        if abs(size - radius) <= 1e-14 * radius:
            break
        if size > radius:
            below = sigma
        else:
            above = sigma
        nxt = sigma + (size - radius) / radius * size * size / float(np.sum(t * t / (b + sigma)))
        if not below < nxt < above:
            nxt = 0.5 * (below + above)
        if nxt == sigma:
            break
        sigma = nxt
    return Q @ (c / (b + sigma)), lo + sigma


def _trust_region_step(p, ll, sc, hess, radius, y, ctx, rows):
    """One accepted trust-region step from p. -hess is decomposed once;
    each trial solves the subproblem at the current radius and costs one
    density-only batch. The radius follows rho, the actual over the
    predicted gain: doubled when rho > 3/4 on a step that reached it,
    set to a quarter of the step when rho < 1/4 or the trial is rejected.
    A trial is accepted when its log-likelihood, on whichever grid read it
    (_try_candidate), is at most _SLACK below ll, the iterate's on the
    pinned grid, and its gain is the difference from ll. Returns (params,
    the context that read them, step norm, tau of the subproblem, radius
    for the next iterate)."""
    v = p.to_vector()
    ev, Q = np.linalg.eigh(-hess)
    for _ in range(_TRIALS):
        s, tau = _trust_step(ev, Q, sc, radius)
        size = float(np.linalg.norm(s))
        got = _try_candidate(v + s, y, ctx)
        if got is not None and got[1] >= ll - _SLACK:
            q, cand_ll, used = got
            gain = cand_ll - ll
            # both gains carry the likelihood's resolution, so rho tends to 1
            # as they shrink toward it (Conn, Gould & Toint 2000, 17.4.2)
            rho = (gain + _SLACK) / (float(sc @ s + 0.5 * s @ hess @ s) + _SLACK)
            if rho > _GROW_RHO and tau > 0.0:
                radius *= 2.0
            elif rho < _SHRINK_RHO:
                radius = 0.25 * size
            return q, used, size, tau, radius
        radius = 0.25 * size
    raise ConvergenceError(
        "no acceptable step inside a shrinking trust region",
        trace=FitTrace(tuple(rows)),
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
