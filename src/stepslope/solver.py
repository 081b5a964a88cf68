"""Accelerated proximal solver for sorted-L1 penalized least squares.

Minimizes 0.5*||y - X b||^2 + sigma * J_lam(b) with FISTA: a gradient step
from the extrapolated point, the exact sorted-L1 prox, and Nesterov
momentum, restarted whenever the objective would rise so the reported
objective sequence is non-increasing.  The step size starts from the
largest squared column norm of X and backtracks on the quadratic upper
bound of the least-squares term.  Termination is certified by dual
feasibility of the gradient together with a primal-dual gap built from
the scaled residual.  The loop runs on a working set of columns: those
that violate dual feasibility at zero, grown by the violators of each
fit until the certificate holds on the full design (the strong rule for
SLOPE of Larsson, Bogdan & Wallin, with the working-set gap check of
Massias, Gramfort & Salmon's Celer); past 1/16 of the columns it runs on
all of them.  The working set is the one way into the loop: it checks
the arguments, the weights' order included, once per fit, gives every
round its start, and keeps one counter record for the fit; the identity
design, passed as None, never reaches the loop, since one certified prox
solves it.  What is constant for a fit is formed once: the weight prefix
sums of the certificate, and step * w per step size.  The prox returns
the penalty with the prox point (for features, its sorted |b| dotted
with the weights), so the objective sorts nothing, and the certificate
sorts the dual magnitudes once.  The group solver runs the same working
set and loop with a block prox, on blocks.  The whitened equicorrelated
design and the diagonal of an unequal-weight identity group fit are O(n)
operators, _DiagonalPlusConstant.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, check_count, check_level, check_scale
from .sorted_l1 import _check_order, _infeasibility, _prox_kernel, _weights, sorted_l1_norm


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """A validated design: finite entries, and unit columns unless waived.

    entries : ndarray, shape (n, m)
    require_unit_columns : bool
        When True (the default) every column norm must be within 1e-8 of
        one.  Pass False for designs that are deliberately unnormalized,
        e.g. a design file the CLI reads with --allow-unnormalized.  The
        whitened equicorrelated design of the simulations is a
        _DiagonalPlusConstant operator instead.

    Validation reads the entries once: the column sums of squares are the
    unit-norm input and also the finiteness screen, since a NaN or +-inf
    entry makes its column's sum non-finite.  Only when a sum is not
    finite are the entries themselves tested; finite entries whose squares
    overflow pass that test and fail the unit-norm check.
    """

    entries: np.ndarray
    require_unit_columns: bool = True

    def __post_init__(self):
        X = np.asarray(self.entries, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1 or X.shape[1] < 1:
            raise ValueError("design must be a 2-d array with at least one row and column")
        sq = np.einsum("ij,ij->j", X, X)
        if not np.all(np.isfinite(sq)) and not np.all(np.isfinite(X)):
            raise ValueError("design contains non-finite entries")
        if self.require_unit_columns:
            norms = np.sqrt(sq)
            worst = float(np.abs(norms - 1.0).max())
            if worst > 1e-8:
                raise ValueError(
                    f"design columns must have unit norm (worst deviation {worst:.3g}); "
                    "pass require_unit_columns=False for unnormalized designs"
                )
        object.__setattr__(self, "entries", X)

    @property
    def shape(self):
        return self.entries.shape


class _DiagonalPlusConstant:
    """The symmetric n x n matrix diag(d) + s*J, J the all-ones matrix and
    d a scalar or a length-n array, applied in O(n) per column unformed.

    X @ v is d*v + s * (column sums of v), for a vector or for each column
    of a 2-d array, and X.T is X itself.  The whitened equicorrelated
    design a*(I - J/n) + c*J/n is d = a, s = (c - a)/n; the identity group
    fit's diag(1/w) (groups.solve_group_slope) is d = 1/w, s = 0.
    """

    def __init__(self, n, d, shift):
        self.shape = (n, n)
        self.diag = d
        self.shift = shift

    @property
    def T(self):
        return self

    def __matmul__(self, v):
        return (self.diag * v.T).T + self.shift * v.sum(axis=0)

    def columns(self, idx):
        """The dense n x len(idx) columns idx: entry for entry those of
        self @ I for the n x n identity I, without forming it."""
        idx = np.asarray(idx, dtype=int)
        cols = np.full((self.shape[0], idx.size), self.shift)
        d = np.broadcast_to(self.diag, self.shape[:1])
        cols[idx, np.arange(idx.size)] = d[idx] + self.shift
        return cols


class FitResult(NamedTuple):
    """A feature fit; restarts, backoffs and matvecs are the loop's counters
    (see _fista), rounds and full_matvecs the working set's (see
    _working_set), and all default for results built by hand."""

    beta: np.ndarray
    support: set
    iterations: int
    final_gap: float
    objective: float
    converged: bool
    restarts: int = 0
    backoffs: int = 0
    matvecs: int = 0
    rounds: int = 1
    full_matvecs: int = 0


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

    This is a lower bound on ||X||^2, equal to it for a diagonal design;
    where it is too small, _fista's backtracking test doubles it.
    Unit-column designs give 1.  An array costs one pass with no n x m
    temporary; a _DiagonalPlusConstant diag(d) + s*J costs one pass over d,
    as its column j has squared norm (d_j + s)^2 + (n - 1) s^2.
    """
    if isinstance(X, _DiagonalPlusConstant):
        return float(np.max((X.diag + X.shift) ** 2)) + (X.shape[0] - 1) * X.shift**2
    return float(np.einsum("ij,ij->j", X, X).max())


def _fit_design(design, unit_columns, matrix_free=True):
    """A design argument as a fit reads it: None (the identity) and a
    _DiagonalPlusConstant as they are, unless matrix_free is False (the QR
    and the Monte Carlo correction, where DesignMatrix refuses them); a
    DesignMatrix as it is; else DesignMatrix(design, unit_columns)."""
    if matrix_free and (design is None or isinstance(design, _DiagonalPlusConstant)):
        return design
    return design if isinstance(design, DesignMatrix) else DesignMatrix(design, unit_columns)


def slope_objective(design, y, beta, lam, sigma=1.0):
    """0.5*||y - X beta||^2 + sigma * J_lam(beta) for any design solve_slope
    takes: None is the identity, r = y - beta, and a raw array is checked
    as a DesignMatrix without the unit-column rule."""
    X = _fit_design(design, False)
    X = X.entries if isinstance(X, DesignMatrix) else X
    beta = np.asarray(beta, float)
    r = np.asarray(y, float) - (beta if X is None else X @ beta)
    return 0.5 * float(r @ r) + sigma * sorted_l1_norm(beta, lam)


def _checked(n, y, sigma, tol, max_iter):
    """y as a float array and sigma as a float, once the arguments every
    fit shares are valid: y is n finite values, n the design's rows."""
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"response has shape {y.shape}, expected ({n},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("response contains non-finite values")
    sigma = check_scale("sigma", sigma)
    check_scale("tol", tol)
    check_count("max_iter", max_iter)
    return y, sigma


def _prefix_sums(w, sigma):
    """_certify's weight sums for weights w and noise scale sigma:
    (cumsum(w), cumsum(sigma * w), the bound the prefix sums of sorted h
    must stay under for the unscaled dual point to be feasible)."""
    cum_w = np.cumsum(w)
    cum_sw = np.cumsum(sigma * w)
    return cum_w, cum_sw, cum_sw + 1e-12 * max(1.0, float(cum_sw[-1]))


def _certify(y, r, h, obj, sigma, sums, tol):
    """(gap, certified) of a fit: gap is the larger of its dual
    infeasibility and relative primal-dual gap, and certified whether both
    are at most tol.

    r is the fit's residual, obj its objective, h = dual(X^T r) >= 0 the
    magnitudes whose sorted prefix sums must stay below those of sigma * w,
    and sums = _prefix_sums(w, sigma), formed once by the caller.  h is
    sorted once: dividing by sigma > 0 keeps the order, so the sorted h/sigma
    the infeasibility reads is the sorted h divided by sigma, and at
    sigma == 1 its prefix sums are those of h.  The dual point is r, scaled
    by the largest s <= 1 that makes it feasible when h is not; s == 1 uses
    r itself.  An h past the bound has a positive largest entry (the bound
    is >= 0 for the checked w >= 0), so its prefix sums, which never
    decrease, are positive throughout and every ratio enters the minimum.
    """
    cum_w, cum_sw, bound = sums
    hs = np.sort(h)[::-1]
    cum_h = hs.cumsum()
    infeas = _infeasibility(cum_h if sigma == 1.0 else (hs / sigma).cumsum(), cum_w)
    s = 1.0
    if not (cum_h <= bound).all():
        s = min(1.0, float((cum_sw / cum_h).min()))
    u = r if s == 1.0 else s * r
    dual_obj = float(u @ y) - 0.5 * float(u @ u)
    rel_gap = max(obj - dual_obj, 0.0) / max(obj, 1e-300)
    return float(max(infeas, rel_gap)), bool(infeas <= tol and rel_gap <= tol)


def _violators(h, cum_w):
    """The violating prefix: h's indices by decreasing h, up to the argmax
    of cumsum(h) - cum_w when that maximum is positive, else none.  For a
    constant weight c = cum_w[0] these are the j with h_j > c."""
    order = np.argsort(-h, kind="stable")
    excess = np.cumsum(h[order]) - cum_w
    top = int(np.argmax(excess))
    return order[: top + 1] if excess[top] > 0.0 else order[:0]


def _fista(X, y, w, sigma, tol, max_iter, prox, dual, start, counts):
    """FISTA with restarts on 0.5*||y - X b||^2 + sigma * J(b).

    prox(point, step) returns (b, J(b)) for b the prox of step * J at
    point, so the penalty comes with the prox and is never re-sorted here;
    dual(g) gives the magnitudes whose sorted prefix sums certify dual
    feasibility of a gradient g = X^T (y - X b) against the weights w,
    through _certify, with the weight sums formed once per call.  The only
    caller, _working_set, has checked y, sigma, tol, max_iter and the
    order of w.

    X is an array or a _DiagonalPlusConstant operator.  The step starts at
    1/L for L = operator_norm_sq(X), a lower bound on ||X||^2, and a step
    from point p is kept only when it meets the backtracking test of Beck
    & Teboulle,
    0.5*||r_new||^2 <= 0.5*||r_p||^2 - g_p.(b_new - p) + (L/2)*||b_new - p||^2
    up to the objective-rise slack of 1e-12 relative; otherwise L doubles
    and the step is retried from p.  A momentum step that raises the
    objective is replaced by a plain step from the last accepted point,
    which that test keeps from raising it.

    start is (b, g, r, obj): the start point with its gradient g = X^T r,
    residual r = y - X b and objective obj already formed, which costs no
    product or penalty here.

    The gradient and residual at the accepted point, g_b and r_b, are
    carried from the certificate step, and the momentum point's are the
    same linear combination of g, g_b and r, r_b as the point is of b_new
    and b, so an accepted iteration costs two matvecs: X @ b_new and X^T r,
    both from scratch.  A sparse fit reaches this loop on the gathered
    columns of _working_set, so every product here is with all of X.

    counts is the fit's [iterations, restarts, backoffs, matvecs], advanced
    in place: restarts counts every plain step retried from the last
    accepted point, backoffs every doubling of L (each retries a step), and
    matvecs every product with X or X^T, so a call adds
    iterations + restarts + backoffs + iterations to it.  The loop runs
    while counts[0] < max_iter, so max_iter caps the iterations of all of a
    fit's calls together.

    Returns
    -------
    (b, r, final_gap, objective, converged)
        b is the last prox output and r = y - X b its residual.
    """
    L = operator_norm_sq(X)
    t = 1.0 / L if L > 0.0 else 1.0
    sums = _prefix_sums(w, sigma)
    b, g_b, r_b, obj = start
    a, g_a, r_a = b, g_b, r_b
    theta = 1.0
    rise = 1e-12 * max(1.0, abs(obj))
    gap, converged = math.inf, False

    def step_from(point, g_point, r_point):
        """Prox step from point, halving t until the quadratic bound holds."""
        nonlocal t
        f_point = 0.5 * float(r_point @ r_point)
        while True:
            counts[3] += 1
            b_new, penalty = prox(point + t * g_point, t * sigma)
            r = y - X @ b_new
            f_new = 0.5 * float(r @ r)
            obj_new = f_new + sigma * penalty
            if not math.isfinite(obj_new):
                raise NumericalError("objective became non-finite during iteration")
            d = b_new - point
            if f_new <= f_point - float(g_point @ d) + (0.5 / t) * float(d @ d) + rise:
                return b_new, r, obj_new
            # the step overshot the smooth part's quadratic upper bound, so
            # 1/t was below its curvature along d: double the estimate
            counts[2] += 1
            t *= 0.5

    while counts[0] < max_iter:
        counts[0] += 1
        b_new, r, obj_new = step_from(a, g_a, r_a)
        if obj_new > obj + rise:
            # momentum overshoot: plain prox step from the last accepted
            # point, which the quadratic bound keeps from raising the objective
            theta = 1.0
            counts[1] += 1
            b_new, r, obj_new = step_from(b, g_b, r_b)

        g = X.T @ r
        counts[3] += 1
        gap, converged = _certify(y, r, dual(g), obj_new, sigma, sums, tol)

        theta_new = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / (theta * theta)))
        mom = theta_new * (1.0 / theta - 1.0)
        a = b_new + mom * (b_new - b)
        g_a = g + mom * (g - g_b)
        r_a = r + mom * (r - r_b)
        b, g_b, r_b = b_new, g, r
        obj = obj_new
        rise = 1e-12 * max(1.0, abs(obj))
        theta = theta_new
        if converged:
            break

    return b, r_b, gap, obj, converged


def _working_set(X, y, w, sigma, tol, max_iter, problem):
    """Check a fit's arguments, then run _fista on a working set W of
    units, certified on the full design.

    A unit is a column of X for a feature fit and a block of columns for a
    group fit; w holds one weight per unit, checked here once for order
    (a step t * sigma > 0 keeps it, so no prox call checks it again).
    problem(units) returns (cols, prox, dual) for the sub-problem on the
    sorted unit indices units: the columns of X they span, in order, and
    _fista's callables for the first len(units) weights.  problem(None)
    returns those of the full problem, with cols None.  The weight sums of
    _certify and _violators are formed once for the fit.

    The identity design, X None, needs no loop: b = prox(y, sigma) solves
    it exactly and goes through _certify with g = r = y - b, reported as
    one iteration in one round with no matvecs.

    Otherwise W starts at the violating prefix at b = 0, _violators of
    dual(X^T y).  A round fits the columns of W with the first |W| weights,
    which is exact for the full problem since the zeros outside W sort
    last; every round starts from the current coefficients, residual and
    objective (the zeros outside W add nothing to the penalty), the first
    from b = 0 with the X^T y formed here.  After each round g = X^T r is
    formed on the full design once and the fit goes through _certify with
    all the weights.  If it holds at tol the fit is reported.  Otherwise W
    gains the units of the violating prefix outside it, or, when there are
    none, the |W| outside units with the largest dual(g).  Once W is empty
    or would exceed 1/16 of the units, which is where gathering its columns
    stops paying, the full design is fitted from the current point
    instead.

    max_iter is shared across rounds, and a round that stops unconverged
    ends the fit with converged=False and the full-design gap.

    Returns
    -------
    (b, stats)
        stats in FitResult order.  iterations, restarts, backoffs and
        matvecs are one record over all rounds (see _fista), matvecs
        counting every product, with the gathered columns or the full
        design; rounds counts the _fista calls (the identity's prox is one
        round), and full_matvecs the products with the full design: X^T y,
        one X^T r per working-set round, and every product of a full-design
        round.  A fit that takes the full design at once has
        matvecs == full_matvecs.
    """
    y, sigma = _checked(np.size(y) if X is None else X.shape[0], y, sigma, tol, max_iter)
    _check_order(w)
    _, prox, dual = problem(None)
    sums = _prefix_sums(w, sigma)
    if X is None:
        b, penalty = prox(y, sigma)
        r = y - b
        obj = 0.5 * float(r @ r) + sigma * penalty
        gap, converged = _certify(y, r, dual(r), obj, sigma, sums, tol)
        return b, (1, gap, obj, converged, 0, 0, 0, 1, 0)
    g = X.T @ y
    # b = 0 has no penalty
    b, r, obj = np.zeros(X.shape[1]), y, 0.5 * float(y @ y)
    units = np.sort(_violators(dual(g), sums[1]))
    counts = [0, 0, 0, 1]  # iterations, restarts, backoffs, matvecs: X^T y
    gathered = rounds = 0  # products with gathered columns, _fista calls
    while True:
        rounds += 1
        if not 0 < units.size * 16 <= w.size:
            b, _, gap, obj, converged = _fista(
                X, y, w, sigma, tol, max_iter, prox, dual, (b, g, r, obj), counts)
            break
        cols, *sub = problem(units)
        Xw = X.columns(cols) if isinstance(X, _DiagonalPlusConstant) else X[:, cols]
        before = counts[3]
        bw, r, _, obj, round_converged = _fista(
            Xw, y, w[: units.size], sigma, tol, max_iter, *sub, (b[cols], g[cols], r, obj),
            counts)
        gathered += counts[3] - before
        b = np.zeros(X.shape[1])
        b[cols] = bw
        g = X.T @ r
        counts[3] += 1
        h = dual(g)
        gap, converged = _certify(y, r, h, obj, sigma, sums, tol)
        if converged or not round_converged or counts[0] >= max_iter:
            break
        inside = np.zeros(w.size, dtype=bool)
        inside[units] = True
        grow = _violators(h, sums[1])
        grow = grow[~inside[grow]]
        if grow.size == 0:
            outside = np.flatnonzero(~inside)
            grow = outside[np.argsort(-h[outside], kind="stable")[: units.size]]
        # grow is disjoint from units; np.union1d would import numpy.ma
        units = np.sort(np.concatenate((units, grow)))
    iterations, restarts, backoffs, matvecs = counts
    return b, (iterations, gap, obj, converged, restarts, backoffs, matvecs,
               rounds, matvecs - gathered)


def _sorted_l1_prox(w):
    """_fista's prox for the sorted-L1 weights w: prox(v, step) is (b, J_w(b))
    for b the prox of step * J_w at v, J_w(b) being the kernel's sorted |b|
    dotted with w, as sorted_l1_norm computes it.  step * w is formed once
    per step size."""
    scaled = {}

    def prox(v, step):
        sw = scaled.get(step)
        if sw is None:
            sw = scaled[step] = step * w
        b, mags = _prox_kernel(v, sw)
        return b, float(mags @ w)

    return prox


def solve_slope(design, y, lam, sigma=1.0, tol=1e-8, max_iter=20000):
    """Solve the sorted-L1 penalized least-squares problem.

    Every design is fitted by _working_set, which checks the arguments once
    (errors.check_*; a NaN or inf sigma or tol is a ValueError).
    Arrays and _DiagonalPlusConstant operators run FISTA on the columns that
    violate dual feasibility, grown until the fit is certified on the full
    design, or on all of it once they pass 1/16 of the columns.

    Parameters
    ----------
    design : DesignMatrix, array_like, _DiagonalPlusConstant or None
        Raw arrays are wrapped with the unit-column check enforced.  None
        is the identity design, n = m = len(y), fitted without a matrix:
        the solution is the sorted-L1 prox of y against sigma*lam, one
        certified step (iterations=1, matvecs=0).  A _DiagonalPlusConstant
        operator is fitted as it is, each product costing O(n), and a
        working set gathers its columns densely.
    y : array_like, shape (n,)
    lam : LambdaSchedule or array_like
        Non-increasing non-negative weights, length m.
    sigma : float
        Noise scale multiplying the penalty; positive and finite.
    tol : float
        Positive, finite bound required of both the gradient's dual
        infeasibility and the relative primal-dual gap, on the full design.
    max_iter : int
        Iteration cap shared by all rounds, a positive integer; hitting it
        returns converged=False, no exception.

    Returns
    -------
    FitResult
        beta is the last prox output, so its zeros are exact and support
        is read off literally.
    """
    X = _fit_design(design, True)
    X = X.entries if isinstance(X, DesignMatrix) else X
    w = _weights(lam, np.size(y) if X is None else X.shape[1])

    def problem(units):
        return units, _sorted_l1_prox(w if units is None else w[: units.size]), np.abs

    b, stats = _working_set(X, y, w, sigma, tol, max_iter, problem)
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
    check_count("k", k)
    check_level("gamma", gamma)
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
