"""Group-structured sorted-L1 estimation.

Features are partitioned into groups; each group's design block is
orthonormalized by pivoted QR, the solver runs on the standardized
coefficients, and the penalty acts on the weighted Euclidean norms of the
per-group coefficient blocks through a sorted-L1 weight sequence.  Group
selection is read off the exact zeros of the block norms.
"""

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NumericalError
from .solver import DesignMatrix, operator_norm_sq, support_metrics
from .sorted_l1 import dual_infeasibility, prox_sorted_l1, sorted_l1_norm


@dataclass(frozen=True)
class GroupPartition:
    """A partition of feature indices 0..m-1 into disjoint covering groups.

    groups : tuple of tuples of int
        0-based feature indices; together they must tile 0..m-1 exactly.
    weights : ndarray
        One positive weight per group.  Defaults to sqrt(group size).
    """

    groups: tuple
    weights: np.ndarray = None

    def __post_init__(self):
        groups = tuple(tuple(int(i) for i in g) for g in self.groups)
        if not groups or any(len(g) == 0 for g in groups):
            raise ValueError("partition needs at least one non-empty group")
        flat = [i for g in groups for i in g]
        m = len(flat)
        if sorted(flat) != list(range(m)):
            raise ValueError(
                "groups must be disjoint and cover feature indices 0..m-1 exactly"
            )
        if self.weights is None:
            w = np.sqrt([len(g) for g in groups])
        else:
            w = np.array(self.weights, dtype=float)
            if w.shape != (len(groups),):
                raise ValueError(
                    f"weights have shape {w.shape}, expected ({len(groups)},)"
                )
            if not np.all(w > 0.0):
                raise ValueError("group weights must be positive")
        w.flags.writeable = False
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "weights", w)

    def __len__(self):
        return len(self.groups)

    @property
    def num_features(self):
        return sum(len(g) for g in self.groups)

    @property
    def sizes(self):
        return tuple(len(g) for g in self.groups)

    @classmethod
    def from_sizes(cls, sizes, weights=None):
        """Contiguous groups of the given sizes, in order."""
        groups = []
        start = 0
        for s in sizes:
            s = int(s)
            if s < 1:
                raise ValueError(f"group sizes must be positive, got {s!r}")
            groups.append(tuple(range(start, start + s)))
            start += s
        return cls(tuple(groups), weights)

    def to_csv(self, path):
        """Write feature_index,group_id,weight rows (0-based features)."""
        lines = ["feature_index,group_id,weight"]
        for gid, g in enumerate(self.groups):
            for i in g:
                lines.append(f"{i},{gid},{self.weights[gid]:.17g}")
        Path(path).write_text("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path):
        """Read a partition written as feature_index,group_id[,weight] rows.

        Groups are ordered by sorted group id.  A weight column, when
        present, must be constant within each group.
        """
        lines = Path(path).read_text().strip().splitlines()
        if not lines:
            raise ValueError(f"{path}: empty partition file")
        first = lines[0].replace(" ", "")
        if first.startswith("feature_index"):
            lines = lines[1:]
        by_gid = {}
        wts = {}
        for line in lines:
            parts = [p.strip() for p in line.split(",")]
            if len(parts) not in (2, 3):
                raise ValueError(f"{path}: expected 2 or 3 columns, got {line!r}")
            idx, gid = int(parts[0]), int(parts[1])
            by_gid.setdefault(gid, []).append(idx)
            if len(parts) == 3:
                w = float(parts[2])
                if wts.setdefault(gid, w) != w:
                    raise ValueError(f"{path}: group {gid} has conflicting weights")
        gids = sorted(by_gid)
        groups = tuple(tuple(sorted(by_gid[g])) for g in gids)
        if wts:
            if set(wts) != set(gids):
                raise ValueError(f"{path}: weight column must cover every group")
            return cls(groups, np.array([wts[g] for g in gids]))
        return cls(groups)


@dataclass(frozen=True)
class StandardizedProblem:
    """Per-group orthonormalized design.

    x_tilde : ndarray, shape (n, sum of ranks)
        The concatenated orthonormal bases, one contiguous block per group.
    r_factors : tuple of ndarray
        For group i, the (rank_i x size_i) factor with
        X[:, group_i] = U_i @ r_factors[i].
    ranks : tuple of int
    offsets : ndarray
        Start index of each block inside x_tilde's columns.
    """

    partition: GroupPartition
    x_tilde: np.ndarray
    r_factors: tuple
    ranks: tuple
    offsets: np.ndarray = field(init=False)

    def __post_init__(self):
        off = np.zeros(len(self.ranks), dtype=int)
        np.cumsum(self.ranks[:-1], out=off[1:])
        off.flags.writeable = False
        object.__setattr__(self, "offsets", off)

    def block(self, i):
        return slice(self.offsets[i], self.offsets[i] + self.ranks[i])


def standardize(design, partition):
    """Orthonormalize each group's design block by pivoted QR.

    The numerical rank of a block is the number of |R| diagonal entries at
    least 1e-10 times the largest one.  An all-zero block is a degenerate
    group and rejected.

    Returns
    -------
    StandardizedProblem
    """
    X = design.entries if isinstance(design, DesignMatrix) else np.asarray(design, float)
    if X.ndim != 2 or not np.all(np.isfinite(X)):
        raise ValueError("design must be a finite 2-d array")
    if partition.num_features != X.shape[1]:
        raise ValueError(
            f"partition covers {partition.num_features} features, design has {X.shape[1]}"
        )
    bases = []
    factors = []
    ranks = []
    for gi, g in enumerate(partition.groups):
        A = X[:, g]
        Q, R, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
        d = np.abs(np.diag(R))
        if d.size == 0 or d[0] == 0.0:
            raise ValueError(f"group {gi} has an all-zero design block")
        rank = int(np.sum(d >= 1e-10 * d[0]))
        bases.append(Q[:, :rank])
        unpivoted = np.zeros((rank, A.shape[1]))
        unpivoted[:, piv] = R[:rank, :]
        factors.append(unpivoted)
        ranks.append(rank)
    return StandardizedProblem(
        partition=partition,
        x_tilde=np.hstack(bases),
        r_factors=tuple(factors),
        ranks=tuple(ranks),
    )


class GroupFitResult(NamedTuple):
    beta: np.ndarray
    group_norms: np.ndarray
    selected_groups: set
    iterations: int
    final_gap: float
    objective: float
    converged: bool


def group_prox(v, weights, lam, step):
    """Prox of step * J_lam(weights * g) over non-negative vectors g.

    Parameters
    ----------
    v : array_like
        Non-negative targets (block norms of a gradient step).
    weights : array_like
        Positive per-group weights.
    lam : LambdaSchedule or array_like
        Non-increasing non-negative weights, one per group.
    step : float
        Non-negative prox scaling.

    With equal weights this is the sorted-L1 prox of v against
    step*w*lam, clipped at zero.  Unequal weights substitute u = w*g and
    run an accelerated proximal gradient on the smooth quadratic part,
    whose prox step clips negatives before the sorted-L1 prox; the inner
    loop runs to an infinity-norm tolerance of 1e-10.

    Raises
    ------
    NumericalError
        When the unequal-weight inner loop has not settled within its
        iteration cap.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(getattr(weights, "values", weights), dtype=float)
    lamv = np.asarray(getattr(lam, "values", lam), dtype=float)
    if v.shape != w.shape or v.shape != lamv.shape:
        raise ValueError("v, weights, and lam must have matching lengths")
    if np.any(v < 0.0):
        raise ValueError("group prox targets must be non-negative")
    if not np.all(w > 0.0):
        raise ValueError("group weights must be positive")
    if step < 0.0:
        raise ValueError(f"step must be non-negative, got {step!r}")

    if np.all(w == w[0]):
        return np.maximum(prox_sorted_l1(v, step * w[0] * lamv), 0.0)

    inner = float(np.min(w) ** 2)  # 1 / max_j (1/w_j^2)
    u = w * v
    z = u.copy()
    theta = 1.0
    max_iter = 20000
    for _ in range(max_iter):
        grad = (z / w - v) / w
        u_new = prox_sorted_l1(np.maximum(z - inner * grad, 0.0), inner * step * lamv)
        theta_new = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / (theta * theta)))
        z = u_new + (theta_new * (1.0 / theta - 1.0)) * (u_new - u)
        change = float(np.max(np.abs(u_new - u)))
        u = u_new
        theta = theta_new
        if change <= 1e-10:
            return u / w
    raise NumericalError(
        f"group prox did not settle in {max_iter} iterations "
        f"(last infinity-norm step {change:.3g})"
    )


def _block_norms(vec, offsets):
    return np.sqrt(np.add.reduceat(vec * vec, offsets))


def solve_group_slope(
    design,
    y,
    partition,
    lam,
    sigma=1.0,
    tol=1e-8,
    max_iter=20000,
    standardized=None,
):
    """Solve the group sorted-L1 problem on the standardized design.

    Minimizes 0.5*||y - X~ c||^2 + sigma * J_lam(weights * block_norms(c))
    by FISTA with the exact block prox, then maps c back to feature
    coefficients through minimum-norm solves against each group's QR
    factor.  Termination mirrors the feature solver with block norms in
    place of coordinate magnitudes.

    Parameters
    ----------
    standardized : StandardizedProblem, optional
        Reuse a precomputed standardization of (design, partition);
        repeated fits on the same design skip the QR work.

    Returns
    -------
    GroupFitResult
        group_norms holds the standardized block norms; its zeros are
        exact and selected_groups is read off literally.
    """
    X_raw = design.entries if isinstance(design, DesignMatrix) else np.asarray(design, float)
    sp = standardized if standardized is not None else standardize(X_raw, partition)
    Xt = sp.x_tilde
    n = Xt.shape[0]
    y = np.asarray(y, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"response has shape {y.shape}, expected ({n},)")
    if not np.all(np.isfinite(y)):
        raise ValueError("response contains non-finite values")
    t_groups = len(partition)
    lamv = np.asarray(getattr(lam, "values", lam), dtype=float)
    if lamv.shape != (t_groups,):
        raise ValueError(f"schedule has length {lamv.size}, expected {t_groups}")
    sigma = float(sigma)
    if not sigma > 0.0:
        raise ValueError(f"sigma must be positive, got {sigma!r}")
    wts = partition.weights
    offsets = sp.offsets
    ranks = np.asarray(sp.ranks)

    L = operator_norm_sq(Xt)
    t = 1.0 / L if L > 0.0 else 1.0
    cum_w = np.cumsum(sigma * lamv)
    feas_slack = 1e-12 * max(1.0, float(cum_w[-1]))

    dim = Xt.shape[1]
    a = np.zeros(dim)
    c = np.zeros(dim)
    theta = 1.0
    obj = 0.5 * float(y @ y)
    rise = 1e-12 * max(1.0, abs(obj))
    infeas = math.inf
    rel_gap = math.inf
    converged = False
    it = 0

    def prox_point(point):
        z = point
        gz = _block_norms(z, offsets)
        gstar = group_prox(gz, wts, lamv, t * sigma)
        scale = np.divide(gstar, gz, out=np.zeros_like(gz), where=gz > 0.0)
        return z * np.repeat(scale, ranks)

    def objective_at(cv):
        r = y - Xt @ cv
        pen = sorted_l1_norm(wts * _block_norms(cv, offsets), lamv)
        return r, 0.5 * float(r @ r) + sigma * pen

    while it < max_iter:
        it += 1
        grad = Xt.T @ (Xt @ a - y)
        c_new = prox_point(a - t * grad)
        r, obj_new = objective_at(c_new)
        if obj_new > obj + rise:
            theta = 1.0
            grad = Xt.T @ (Xt @ c - y)
            c_new = prox_point(c - t * grad)
            r, obj_new = objective_at(c_new)
            if obj_new > obj + rise:
                L *= 1.0001
                t = 1.0 / L
                a = c
                continue
        if not math.isfinite(obj_new):
            raise NumericalError("objective became non-finite during iteration")

        h = _block_norms(Xt.T @ r, offsets) / wts
        infeas = dual_infeasibility(h / sigma, lamv)
        cum_h = np.cumsum(np.sort(h)[::-1])
        if bool(np.all(cum_h <= cum_w + feas_slack)):
            s = 1.0
        else:
            pos = cum_h > 0.0
            s = min(1.0, float(np.min(cum_w[pos] / cum_h[pos])))
        u = s * r
        dual = float(u @ y) - 0.5 * float(u @ u)
        rel_gap = max(obj_new - dual, 0.0) / max(obj_new, 1e-300)

        theta_new = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / (theta * theta)))
        a = c_new + (theta_new * (1.0 / theta - 1.0)) * (c_new - c)
        c = c_new
        obj = obj_new
        rise = 1e-12 * max(1.0, abs(obj))
        theta = theta_new
        if infeas <= tol and rel_gap <= tol:
            converged = True
            break

    norms = _block_norms(c, offsets)
    beta = np.zeros(partition.num_features)
    for gi, g in enumerate(partition.groups):
        blk = c[sp.block(gi)]
        if norms[gi] != 0.0:
            coef, *_ = np.linalg.lstsq(sp.r_factors[gi], blk, rcond=None)
            beta[list(g)] = coef
    selected = {int(i) for i in np.flatnonzero(norms)}
    return GroupFitResult(
        beta=beta,
        group_norms=norms,
        selected_groups=selected,
        iterations=it,
        final_gap=float(max(infeas, rel_gap)),
        objective=obj,
        converged=converged,
    )


def group_support_metrics(fit, truth, k, gamma):
    """Selection counts at group level; see support_metrics for fields."""
    selected = fit.selected_groups if isinstance(fit, GroupFitResult) else fit
    return support_metrics(selected, truth, k, gamma)
