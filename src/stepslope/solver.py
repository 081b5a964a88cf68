"""Accelerated proximal solver for sorted-L1 penalized least squares.

Minimizes 0.5*||y - X b||^2 + sigma * J_lam(b) with FISTA: a gradient step
from the extrapolated point, the exact sorted-L1 prox, and Nesterov
momentum, restarted whenever the objective would rise so the reported
objective sequence is non-increasing.  The step size starts from the
largest squared column norm of X and backtracks on the quadratic upper
bound of the least-squares term.  Termination is certified by dual
feasibility of the gradient together with a primal-dual gap built from
the scaled residual.  The group solver runs the same loop with a block
prox.  The identity design is passed as None and fitted by one certified
prox; the whitened equicorrelated design is an O(n) operator,
_Equicorrelated.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import NumericalError
from .sorted_l1 import dual_infeasibility, prox_sorted_l1, sorted_l1_norm


@dataclass(frozen=True)
class DesignMatrix:
    """A validated design: finite entries, and unit columns unless waived.

    entries : ndarray, shape (n, m)
    require_unit_columns : bool
        When True (the default) every column norm must be within 1e-8 of
        one.  Pass False for designs that are deliberately unnormalized,
        e.g. the diagonal design of groups.group_prox or a design file the
        CLI reads with --allow-unnormalized; column_norms_validated records
        which contract the instance carries.  The whitened equicorrelated
        design of the simulations is an _Equicorrelated operator instead.
    """

    entries: np.ndarray
    require_unit_columns: bool = True
    column_norms_validated: bool = field(init=False)

    def __post_init__(self):
        X = np.asarray(self.entries, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("design must be a 2-d array with at least one row and column")
        if not np.all(np.isfinite(X)):
            raise ValueError("design contains non-finite entries")
        if self.require_unit_columns:
            norms = np.sqrt(np.einsum("ij,ij->j", X, X))
            worst = float(np.abs(norms - 1.0).max())
            if worst > 1e-8:
                raise ValueError(
                    f"design columns must have unit norm (worst deviation {worst:.3g}); "
                    "pass require_unit_columns=False for unnormalized designs"
                )
        object.__setattr__(self, "entries", X)
        object.__setattr__(self, "column_norms_validated", bool(self.require_unit_columns))

    @property
    def shape(self):
        return self.entries.shape


class _Equicorrelated:
    """The symmetric n x n matrix a*(I - J/n) + c*J/n, J the all-ones matrix,
    applied in O(n) per column without forming it.

    It has eigenvalue a on the complement of the all-ones vector and c on
    that vector.  X @ v is a*v + ((c - a)/n) * (column sums of v), for a
    vector or for each column of a 2-d array, and X.T is X itself.
    """

    def __init__(self, n, a, c):
        self.shape = (n, n)
        self.diag = a
        self.shift = (c - a) / n

    @property
    def T(self):
        return self

    def __matmul__(self, v):
        return self.diag * v + self.shift * v.sum(axis=0)


class FitResult(NamedTuple):
    """A feature fit; restarts, backoffs and matvecs are the loop's counters
    (see _fista) and default to 0 for results built by hand."""

    beta: np.ndarray
    support: set
    iterations: int
    final_gap: float
    objective: float
    converged: bool
    restarts: int = 0
    backoffs: int = 0
    matvecs: int = 0


class SupportMetrics(NamedTuple):
    v: int
    r: int
    tp: int
    fdp: float
    k_hit: bool
    fdp_exceeds: bool
    power: float


def operator_norm_sq(X):
    """Largest squared column norm of X: the start of _fista's step-size
    estimate L.

    This is a lower bound on ||X||^2, equal to it for a diagonal design such
    as the diag(1/w) of groups.group_prox; where it is too small, _fista's
    backtracking test doubles it.  Unit-column designs give 1.  An array
    costs one pass with no n x m temporary; an _Equicorrelated operator,
    whose columns all share the norm of (a*(I - J/n) + c*J/n) e_1, costs O(1).
    """
    if isinstance(X, _Equicorrelated):
        return (X.diag + X.shift) ** 2 + (X.shape[0] - 1) * X.shift**2
    return float(np.einsum("ij,ij->j", X, X).max())


def _weights_for(lam, m):
    w = np.asarray(getattr(lam, "values", lam), dtype=float)
    if w.ndim != 1 or w.size != m:
        raise ValueError(f"schedule has length {w.size}, expected {m}")
    return w


def slope_objective(design, y, beta, lam, sigma=1.0):
    """0.5*||y - X beta||^2 + sigma * J_lam(beta) for any design solve_slope
    takes: None is the identity, r = y - beta, and a raw array is read
    without the unit-column check."""
    X = design.entries if isinstance(design, DesignMatrix) else design
    beta = np.asarray(beta, float)
    r = np.asarray(y, float) - (beta if X is None else X @ beta)
    return 0.5 * float(r @ r) + sigma * sorted_l1_norm(beta, lam)


def _fista(X, y, w, sigma, tol, max_iter, prox, primal, dual):
    """FISTA with restarts on 0.5*||y - X b||^2 + sigma * J_w(primal(b)).

    prox(point, step) is the prox of step * J_w(primal(.)) at point;
    primal(b) gives the magnitudes the penalty sorts, and dual(g) the
    magnitudes whose sorted prefix sums certify dual feasibility of a
    gradient g = X^T (y - X b).

    X=None means the identity design, whose problem one prox solves
    exactly: b = prox(y, sigma) goes through the same certificate with
    g = r = y - b, as one iteration with no matvecs.

    X is an array or an _Equicorrelated operator.  The step starts at
    1/L for L = operator_norm_sq(X), a lower bound on ||X||^2, and a step
    from point p is kept only when it meets the backtracking test of Beck
    & Teboulle,
    0.5*||r_new||^2 <= 0.5*||r_p||^2 - g_p.(b_new - p) + (L/2)*||b_new - p||^2
    up to the objective-rise slack of 1e-12 relative; otherwise L doubles
    and the step is retried from p.  A momentum step that raises the
    objective is replaced by a plain step from the last accepted point,
    which that test keeps from raising it.

    The gradient and residual at the accepted point, g_b and r_b, are
    carried from the certificate step, and the momentum point's are the
    same linear combination of g, g_b and r, r_b as the point is of b_new
    and b, so an accepted iteration costs two matvecs: X @ b_new and X^T r,
    both from scratch.  While the prox output's support is at most 1/16 of
    an array's columns, X @ b_new is formed from the support's columns
    alone, X[:, nz] @ b_new[nz]: a sparse iterate then costs a fraction of
    a pass over X, and a dense one never gathers a large copy of it.  The
    restricted product equals the full one up to summation order and
    counts as one matvec all the same.

    Returns
    -------
    (b, stats)
        b is the last prox output; stats holds, in FitResult order,
        iterations, final_gap, objective, converged, restarts, backoffs and
        matvecs.  restarts counts every plain step retried from the last
        accepted point, backoffs every doubling of L (each retries a step),
        and matvecs every product with X or X^T:
        1 + iterations + restarts + backoffs + iterations.
    """
    y = np.asarray(y, dtype=float)
    n, m = X.shape if X is not None else (y.size, y.size)
    if y.shape != (n,):
        raise ValueError(f"response has shape {y.shape}, expected ({n},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("response contains non-finite values")
    sigma = float(sigma)
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")

    cum_w = np.cumsum(sigma * w)
    feas_slack = 1e-12 * max(1.0, float(cum_w[-1]))

    def objective(b_new, r):
        """(least-squares term, full objective) at b_new with residual r."""
        f = 0.5 * float(r @ r)
        return f, f + sigma * sorted_l1_norm(primal(b_new), w)

    def certify(r, g, obj_new):
        """(dual infeasibility of g, relative gap of the scaled residual)."""
        h = dual(g)
        infeas = dual_infeasibility(h / sigma, w)
        cum_h = np.cumsum(np.sort(h)[::-1])
        if bool(np.all(cum_h <= cum_w + feas_slack)):
            s = 1.0
        else:
            pos = cum_h > 0.0
            s = min(1.0, float(np.min(cum_w[pos] / cum_h[pos])))
        u = s * r
        dual_obj = float(u @ y) - 0.5 * float(u @ u)
        return infeas, max(obj_new - dual_obj, 0.0) / max(obj_new, 1e-300)

    if X is None:
        b = prox(y, sigma)
        r = y - b
        obj = objective(b, r)[1]
        infeas, rel_gap = certify(r, r, obj)
        converged = bool(infeas <= tol and rel_gap <= tol)
        return b, (1, float(max(infeas, rel_gap)), obj, converged, 0, 0, 0)

    L = operator_norm_sq(X)
    t = 1.0 / L if L > 0.0 else 1.0

    b = np.zeros(m)
    g_b = X.T @ y
    r_b = y
    a, g_a, r_a = b, g_b, r_b
    theta = 1.0
    obj = 0.5 * float(y @ y)
    rise = 1e-12 * max(1.0, abs(obj))
    infeas = rel_gap = math.inf
    converged = False
    it = restarts = backoffs = 0
    matvecs = 1

    def step_from(point, g_point, r_point):
        """Prox step from point, halving t until the quadratic bound holds."""
        nonlocal matvecs, backoffs, t
        f_point = 0.5 * float(r_point @ r_point)
        while True:
            matvecs += 1
            b_new = prox(point + t * g_point, t * sigma)
            nz = np.flatnonzero(b_new)
            # gathering the support's columns beats streaming all of X only
            # while the support is a small share of an array's columns
            if isinstance(X, np.ndarray) and nz.size * 16 <= m:
                r = y - X[:, nz] @ b_new[nz]
            else:
                r = y - X @ b_new
            f_new, obj_new = objective(b_new, r)
            if not math.isfinite(obj_new):
                raise NumericalError("objective became non-finite during iteration")
            d = b_new - point
            if f_new <= f_point - float(g_point @ d) + (0.5 / t) * float(d @ d) + rise:
                return b_new, r, obj_new
            # the step overshot the smooth part's quadratic upper bound, so
            # 1/t was below its curvature along d: double the estimate
            backoffs += 1
            t *= 0.5

    while it < max_iter:
        it += 1
        b_new, r, obj_new = step_from(a, g_a, r_a)
        if obj_new > obj + rise:
            # momentum overshoot: plain prox step from the last accepted
            # point, which the quadratic bound keeps from raising the objective
            theta = 1.0
            restarts += 1
            b_new, r, obj_new = step_from(b, g_b, r_b)

        g = X.T @ r
        matvecs += 1
        infeas, rel_gap = certify(r, g, obj_new)

        theta_new = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / (theta * theta)))
        mom = theta_new * (1.0 / theta - 1.0)
        a = b_new + mom * (b_new - b)
        g_a = g + mom * (g - g_b)
        r_a = r + mom * (r - r_b)
        b, g_b, r_b = b_new, g, r
        obj = obj_new
        rise = 1e-12 * max(1.0, abs(obj))
        theta = theta_new
        if infeas <= tol and rel_gap <= tol:
            converged = True
            break

    final_gap = float(max(infeas, rel_gap))
    return b, (it, final_gap, obj, converged, restarts, backoffs, matvecs)


def solve_slope(design, y, lam, sigma=1.0, tol=1e-8, max_iter=20000):
    """Solve the sorted-L1 penalized least-squares problem.

    Parameters
    ----------
    design : DesignMatrix, array_like, _Equicorrelated or None
        Raw arrays are wrapped with the unit-column check enforced.  None
        is the identity design, n = m = len(y), fitted without a matrix:
        the solution is the sorted-L1 prox of y against sigma*lam, one
        certified step (iterations=1, matvecs=0).  An _Equicorrelated
        operator is fitted as it is, each product costing O(n).
    y : array_like, shape (n,)
    lam : LambdaSchedule or array_like
        Non-increasing non-negative weights, length m.
    sigma : float
        Noise scale multiplying the penalty.
    tol : float
        Bound required of both the gradient's dual infeasibility and the
        relative primal-dual gap.
    max_iter : int
        Iteration cap; hitting it returns converged=False, no exception.

    Returns
    -------
    FitResult
        beta is the last prox output, so its zeros are exact and support
        is read off literally.
    """
    if design is None or isinstance(design, _Equicorrelated):
        X = design
    else:
        X = (design if isinstance(design, DesignMatrix) else DesignMatrix(design)).entries
    w = _weights_for(lam, np.size(y) if X is None else X.shape[1])
    b, stats = _fista(
        X, y, w, sigma, tol, max_iter,
        prox=lambda v, step: prox_sorted_l1(v, step * w),
        primal=np.abs,
        dual=np.abs,
    )
    return FitResult(b, {int(i) for i in np.flatnonzero(b)}, *stats)


def support_metrics(fit, truth, k, gamma):
    """Selection counts for one fitted support against the true one.

    Parameters
    ----------
    fit : FitResult or iterable of int
        Either a fit (its support is used) or the support itself.
    truth : iterable of int
        Indices of truly nonzero coefficients.
    k : int
        False-selection count whose exceedance k_hit records.
    gamma : float
        Proportion whose exceedance fdp_exceeds records.

    Returns
    -------
    SupportMetrics
        v false selections, r selections, tp true positives,
        fdp = v / max(r, 1), k_hit = (v >= k), fdp_exceeds = (fdp > gamma),
        power = tp / |truth| (vacuously 1.0 when truth is empty).
    """
    support = set(fit.support) if isinstance(fit, FitResult) else set(fit)
    truth = set(truth)
    if int(k) != k or k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie strictly inside (0,1), got {gamma!r}")
    v = len(support - truth)
    r = len(support)
    tp = len(support & truth)
    fdp = v / max(r, 1)
    power = tp / len(truth) if truth else 1.0
    return SupportMetrics(
        v=v,
        r=r,
        tp=tp,
        fdp=fdp,
        k_hit=v >= k,
        fdp_exceeds=fdp > gamma,
        power=power,
    )
