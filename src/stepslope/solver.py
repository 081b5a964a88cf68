"""Accelerated proximal solver for sorted-L1 penalized least squares.

Minimizes 0.5*||y - X b||^2 + sigma * J_lam(b) with FISTA: a gradient step
from the extrapolated point, the exact sorted-L1 prox, and Nesterov
momentum, restarted whenever the objective would rise so the reported
objective sequence is non-increasing.  Termination is certified by dual
feasibility of the gradient together with a primal-dual gap built from the
scaled residual.
"""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .sorted_l1 import dual_infeasibility, prox_sorted_l1, sorted_l1_norm


@dataclass(frozen=True)
class DesignMatrix:
    """A validated design: finite entries, and unit columns unless waived.

    entries : ndarray, shape (n, m)
    require_unit_columns : bool
        When True (the default) every column norm must be within 1e-8 of
        one.  Pass False for designs that are deliberately unnormalized,
        e.g. whitened correlated designs; column_norms_validated records
        which contract the instance carries.
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
            norms = np.sqrt((X * X).sum(axis=0))
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


class FitResult(NamedTuple):
    beta: np.ndarray
    support: set
    iterations: int
    final_gap: float
    objective: float
    converged: bool


class SupportMetrics(NamedTuple):
    v: int
    r: int
    tp: int
    fdp: float
    k_hit: bool
    fdp_exceeds: bool
    power: float


def operator_norm_sq(X, tol=1e-6, max_iter=300):
    """Largest squared singular value of X by Lanczos on its smaller Gram matrix.

    The iteration runs on X Xᵀ when X has no more rows than columns and on
    XᵀX otherwise, reorthogonalizing each new direction against the whole
    stored basis.  The start vector is all-ones plus a small ramp, which
    keeps the iteration deterministic while avoiding exact alignment with a
    non-dominant eigenspace (the all-ones vector is an eigenvector of
    equicorrelation-style operators).  Each diagonal entry is the Rayleigh
    quotient (q·Aq)/(q·q), so an operator that fixes the start vector, such
    as the identity, gives its eigenvalue exactly after one step.

    Stops when the residual bound beta_k*|s_k| of the top Ritz value (s_k
    is the last entry of its eigenvector of the tridiagonal matrix) is
    within relative tol, and returns the Ritz value plus that bound, so the
    estimate errs on the side of a shorter step.  max_iter caps the number
    of Lanczos steps, which never exceeds the smaller dimension of X.

    Raises
    ------
    NumericalError
        When the cap is reached before the bound meets tol.
    """
    X = np.asarray(X, dtype=float)
    n, m = X.shape
    d = min(n, m)
    gram = (lambda v: X @ (X.T @ v)) if n <= m else (lambda v: X.T @ (X @ v))
    q = np.ones(d) + np.arange(d) * (1e-3 / max(d - 1, 1))
    q /= math.sqrt(float(q @ q))
    basis = np.empty((0, d))
    alphas, betas = [], []
    bound = math.inf
    for k in range(min(max_iter, d)):
        basis = np.vstack((basis, q))
        w = gram(q)
        alpha = float(q @ w) / float(q @ q)
        alphas.append(alpha)
        w -= alpha * q
        w -= basis.T @ (basis @ w)
        beta = math.sqrt(float(w @ w))
        top, vec = scipy.linalg.eigh_tridiagonal(
            alphas, betas, select="i", select_range=(k, k)
        )
        theta = float(top[0])
        bound = beta * abs(float(vec[-1, 0]))
        if bound <= tol * theta:
            return theta + bound
        betas.append(beta)
        q = w / beta
    raise NumericalError(
        f"operator norm estimate did not reach relative tol {tol:.3g} in "
        f"{min(max_iter, d)} Lanczos steps (residual bound {bound:.3g})"
    )


def _weights_for(lam, m):
    w = np.asarray(getattr(lam, "values", lam), dtype=float)
    if w.ndim != 1 or w.size != m:
        raise ValueError(f"schedule has length {w.size}, expected {m}")
    return w


def slope_objective(design, y, beta, lam, sigma=1.0):
    """0.5*||y - X beta||^2 + sigma * J_lam(beta)."""
    X = design.entries if isinstance(design, DesignMatrix) else np.asarray(design, float)
    r = np.asarray(y, float) - X @ np.asarray(beta, float)
    return 0.5 * float(r @ r) + sigma * sorted_l1_norm(beta, lam)


def solve_slope(design, y, lam, sigma=1.0, tol=1e-8, max_iter=20000):
    """Solve the sorted-L1 penalized least-squares problem.

    Parameters
    ----------
    design : DesignMatrix or array_like
        Raw arrays are wrapped with the unit-column check enforced.
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
    if not isinstance(design, DesignMatrix):
        design = DesignMatrix(design)
    X = design.entries
    n, m = X.shape
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"response has shape {y.shape}, expected ({n},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("response contains non-finite values")
    w = _weights_for(lam, m)
    sigma = float(sigma)
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol!r}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter!r}")

    L = operator_norm_sq(X)
    t = 1.0 / L if L > 0.0 else 1.0
    shrink = (t * sigma) * w
    cum_w = np.cumsum(sigma * w)
    feas_slack = 1e-12 * max(1.0, float(cum_w[-1]))

    a = np.zeros(m)
    b = np.zeros(m)
    theta = 1.0
    obj = 0.5 * float(y @ y)
    rise = 1e-12 * max(1.0, abs(obj))
    infeas = math.inf
    rel_gap = math.inf
    converged = False
    it = 0

    while it < max_iter:
        it += 1
        grad = X.T @ (X @ a - y)
        b_new = prox_sorted_l1(a - t * grad, shrink)
        r = y - X @ b_new
        obj_new = 0.5 * float(r @ r) + sigma * sorted_l1_norm(b_new, w)
        if obj_new > obj + rise:
            # momentum overshoot: plain prox step from the last accepted point
            theta = 1.0
            grad = X.T @ (X @ b - y)
            b_new = prox_sorted_l1(b - t * grad, shrink)
            r = y - X @ b_new
            obj_new = 0.5 * float(r @ r) + sigma * sorted_l1_norm(b_new, w)
            if obj_new > obj + rise:
                # the norm estimate was a shade optimistic; shrink the step
                L *= 1.0001
                t = 1.0 / L
                shrink = (t * sigma) * w
                a = b
                continue
        if not math.isfinite(obj_new):
            raise NumericalError("objective became non-finite during iteration")

        g = X.T @ r
        infeas = dual_infeasibility(g / sigma, w)
        cum_g = np.cumsum(np.sort(np.abs(g))[::-1])
        if bool(np.all(cum_g <= cum_w + feas_slack)):
            s = 1.0
        else:
            pos = cum_g > 0.0
            s = min(1.0, float(np.min(cum_w[pos] / cum_g[pos])))
        u = s * r
        dual = float(u @ y) - 0.5 * float(u @ u)
        rel_gap = max(obj_new - dual, 0.0) / max(obj_new, 1e-300)

        theta_new = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / (theta * theta)))
        a = b_new + (theta_new * (1.0 / theta - 1.0)) * (b_new - b)
        b = b_new
        obj = obj_new
        rise = 1e-12 * max(1.0, abs(obj))
        theta = theta_new
        if infeas <= tol and rel_gap <= tol:
            converged = True
            break

    support = {int(i) for i in np.flatnonzero(b)}
    return FitResult(
        beta=b,
        support=support,
        iterations=it,
        final_gap=float(max(infeas, rel_gap)),
        objective=obj,
        converged=converged,
    )


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
