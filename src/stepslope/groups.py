"""Group-structured sorted-L1 estimation.

Features are partitioned into groups; each group's design block is
orthonormalized by pivoted QR, the solver runs on the standardized
coefficients, and the penalty acts on the weighted Euclidean norms of the
per-group coefficient blocks through a sorted-L1 weight sequence.  Since
J_lam(w * ||c_g||) = J_lam(||w_g c_g||), unequal weights are folded into
the design: the fit runs on d_g = w_g c_g against the blocks X~_g / w_g
with unit weights, so every prox is one exact sorted-L1 prox of the block
norms.  The fit runs on a working set of blocks, certified on the full
standardized design (see solver._working_set).  Group selection is read
off the exact zeros of the block norms.  The identity design is passed as
None and needs no QR: its fit is solve_slope's feature fit of the block
norms of y, on the O(t) diagonal diag(1/w) when the weights are unequal.
scipy.linalg is imported on the first QR (get_lapack_funcs), so
feature-design runs never load it.
"""

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, check_count, check_scale
from .solver import DesignMatrix, _DiagonalPlusConstant, _working_set, solve_slope, support_metrics
from .sorted_l1 import _weights, prox_sorted_l1, sorted_l1_norm


_WEIGHT_SCHEMES = {"sqrt": np.sqrt, "inv-sqrt": lambda size: 1.0 / np.sqrt(size)}
WEIGHT_SCHEMES = tuple(_WEIGHT_SCHEMES)


def _scheme_weights(sizes, scheme):
    """Group weights from group sizes by a scheme of WEIGHT_SCHEMES: sqrt(size),
    or 1/sqrt(size) for "inv-sqrt"."""
    return _WEIGHT_SCHEMES[scheme](np.asarray(sizes, dtype=float))


@dataclass(frozen=True, eq=False)
class GroupPartition:
    """A partition of feature indices 0..m-1 into disjoint covering groups.

    groups : tuple of tuples of int
        0-based feature indices; together they must tile 0..m-1 exactly.
    weights : ndarray
        One positive, finite weight per group.  Defaults to sqrt(group size).

    Derived once at construction:

    sizes : tuple of int
        The length of each group.
    num_features : int
        m, the number of features the groups tile.
    order : ndarray of int
        The feature indices group by group, np.concatenate(groups): the
        order in which an identity-design fit gathers y.
    """

    groups: tuple
    weights: np.ndarray = None
    sizes: tuple = field(init=False, repr=False)
    num_features: int = field(init=False, repr=False)
    order: np.ndarray = field(init=False, repr=False)

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
            w = _scheme_weights([len(g) for g in groups], "sqrt")
        else:
            w = np.array(self.weights, dtype=float)
            if w.shape != (len(groups),):
                raise ValueError(
                    f"weights have shape {w.shape}, expected ({len(groups)},)"
                )
            # the min is NaN if any weight is
            check_scale("group weights", w.min())
            check_scale("group weights", w.max())
        w.flags.writeable = False
        order = np.array(flat, dtype=int)
        order.flags.writeable = False
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "sizes", tuple(len(g) for g in groups))
        object.__setattr__(self, "num_features", m)
        object.__setattr__(self, "order", order)

    def __len__(self):
        return len(self.groups)

    @classmethod
    def from_sizes(cls, sizes, weights=None):
        """Contiguous groups of the given sizes, in order."""
        groups = []
        start = 0
        for s in sizes:
            s = check_count("group sizes", s)
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
        present, must be positive, finite and constant within each group.
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
                w = check_scale(f"{path}: group {gid} weight", float(parts[2]))
                if wts.setdefault(gid, w) != w:
                    raise ValueError(f"{path}: group {gid} has conflicting weights")
        gids = sorted(by_gid)
        groups = tuple(tuple(sorted(by_gid[g])) for g in gids)
        if wts:
            if set(wts) != set(gids):
                raise ValueError(f"{path}: weight column must cover every group")
            return cls(groups, np.array([wts[g] for g in gids]))
        return cls(groups)


@dataclass(frozen=True, eq=False)
class StandardizedProblem:
    """Per-group orthonormalized design.

    x_tilde : ndarray, shape (n, sum of ranks)
        The concatenated orthonormal bases, one contiguous block per group,
        Fortran-ordered: each basis is the first rank columns of the
        LAPACK orgqr factor computed in place in its block's slot (see
        standardize).  The layout is part of the byte contract: numpy's
        product with a C-ordered copy takes a different BLAS kernel and
        rounds the fit's matvecs differently.
    r_factors : tuple of ndarray
        For group i, the (rank_i x size_i) factor with
        X[:, group_i] = U_i @ r_factors[i]: the first rank_i rows of
        geqp3's upper-triangular R, with the column pivoting undone.
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


def get_lapack_funcs(names, dtype):
    """scipy.linalg.lapack.get_lapack_funcs, importing scipy.linalg on first call."""
    from scipy.linalg import lapack

    return lapack.get_lapack_funcs(names, dtype=dtype)


def _in_place(routine, name, gi, lworks, a, *args):
    """LAPACK routine(a, *args) with overwrite_a=1 and the optimal workspace.

    Like scipy.linalg's safecall, the workspace size is the optimum a
    query (lwork=-1) returns, so LAPACK takes the same blocked or unblocked
    path as scipy.linalg.qr; the query runs once per routine and block
    shape, cached in lworks.  Returns the outputs but info.

    Raises
    ------
    NumericalError
        When LAPACK reports a non-zero info, naming group gi and the routine.
    """
    key = (name, a.shape)
    if key not in lworks:
        *_, work, info = routine(a, *args, lwork=-1, overwrite_a=1)
        _check_info(info, name, gi)
        lworks[key] = int(work[0])
    *out, info = routine(a, *args, lwork=lworks[key], overwrite_a=1)
    _check_info(info, name, gi)
    return out


def _check_info(info, name, gi):
    if info != 0:
        raise NumericalError(f"group {gi}: LAPACK {name} failed with info={info}")


def standardize(design, partition):
    """Orthonormalize each group's design block by pivoted QR.

    The numerical rank of a block is the number of |R| diagonal entries at
    least 1e-10 times the largest one.  An all-zero block is a degenerate
    group and rejected.

    A DesignMatrix was validated when it was built, so only a raw array is
    tested for finite entries here.  Each block is copied straight into its
    slot of one Fortran-ordered n x m buffer (a slice of X for a contiguous
    group, a gather otherwise) and factored there in place by the LAPACK
    routines scipy.linalg.qr(mode="economic", pivoting=True) wraps: geqp3,
    then orgqr on the reflectors, both with the optimal workspace, queried
    once per block shape (_in_place).  The rank and the R factor are read
    off the factored slot before orgqr overwrites it with the basis, and
    the next block's slot starts after the rank columns kept, so a
    rank-deficient block's surplus columns are overwritten.  The bytes are
    those of scipy.linalg.qr's wrapper, without its per-call checks,
    workspace queries and copies.  x_tilde is the buffer's first
    sum-of-ranks columns, a Fortran-contiguous view (the layout fixes the
    fit's rounding; see StandardizedProblem): no list of bases and no
    concatenated copy are kept, so standardization allocates one
    design-sized array.

    Raises
    ------
    ValueError
        For a non-finite raw array, a partition of another width, or an
        all-zero block.
    NumericalError
        When geqp3 or orgqr reports a non-zero info; the message names the
        group and the routine.

    Returns
    -------
    StandardizedProblem
    """
    if isinstance(design, DesignMatrix):
        X = design.entries
    else:
        X = np.asarray(design, float)
        if X.ndim != 2 or not np.all(np.isfinite(X)):
            raise ValueError("design must be a finite 2-d array")
    if partition.num_features != X.shape[1]:
        raise ValueError(
            f"partition covers {partition.num_features} features, design has {X.shape[1]}"
        )
    n = X.shape[0]
    if n == 0:
        # LAPACK rejects a block without rows
        raise ValueError("group 0 has an all-zero design block")
    x_tilde = np.empty(X.shape, order="F")
    geqp3, orgqr = get_lapack_funcs(("geqp3", "orgqr"), dtype=np.float64)
    lworks = {}
    factors = []
    ranks = []
    col = 0
    for gi, g in enumerate(partition.groups):
        size = len(g)
        slot = x_tilde[:, col:col + size]
        if g == tuple(range(g[0], g[0] + size)):
            slot[...] = X[:, g[0]:g[0] + size]
        else:
            slot[...] = X[:, g]
        qr, jpvt, tau, _ = _in_place(geqp3, "geqp3", gi, lworks, slot)
        d = np.abs(qr.diagonal())
        if d[0] == 0.0:
            raise ValueError(f"group {gi} has an all-zero design block")
        rank = int(np.count_nonzero(d >= 1e-10 * d[0]))
        # R is read before orgqr overwrites the slot
        unpivoted = np.zeros((rank, size))
        unpivoted[:, jpvt - 1] = np.triu(qr[:rank])
        # a wide block (n < size) has only n reflectors and basis columns
        q, _ = _in_place(orgqr, "orgqr", gi, lworks, qr[:, :min(n, size)], tau)
        if not np.shares_memory(q, slot):
            slot[:, :rank] = q[:, :rank]
        col += rank
        factors.append(unpivoted)
        ranks.append(rank)
    return StandardizedProblem(
        partition=partition,
        x_tilde=x_tilde[:, :col],
        r_factors=tuple(factors),
        ranks=tuple(ranks),
    )


class GroupFitResult(NamedTuple):
    """A group fit; the counters after converged are FitResult's."""

    beta: np.ndarray
    group_norms: np.ndarray
    selected_groups: set
    iterations: int
    final_gap: float
    objective: float
    converged: bool
    restarts: int = 0
    backoffs: int = 0
    matvecs: int = 0
    rounds: int = 1
    full_matvecs: int = 0


def group_prox(v, lam, step):
    """Prox of step * J_lam(g) over non-negative vectors g.

    Parameters
    ----------
    v : array_like
        Non-negative targets (block norms of a gradient step).
    lam : LambdaSchedule or array_like
        Finite, non-increasing, non-negative weights, one per group.
    step : float
        Non-negative, finite prox scaling; NaN and inf are refused.

    This is the sorted-L1 prox of v against step*lam, clipped at zero.  A
    group weight w shared by every group is part of the step, since
    J_lam(w * g) = w * J_lam(g); solve_group_slope folds unequal weights
    into a design, and fits the identity design's block norms as a feature
    problem, so no prox here sees them.
    """
    v = np.asarray(v, dtype=float)
    lamv = _weights(lam, v.size)
    if np.any(v < 0.0):
        raise ValueError("group prox targets must be non-negative")
    if not 0.0 <= step < np.inf:
        raise ValueError(f"step must be non-negative and finite, got {step!r}")
    return np.maximum(prox_sorted_l1(v, step * lamv), 0.0)


def _block_norms(vec, offsets):
    return np.sqrt(np.add.reduceat(vec * vec, offsets))


def _block_problem(offsets, ranks, w, lamv):
    """_fista's (prox, dual) for blocks at offsets of the given ranks, with
    the one group weight w and schedule lamv.  The prox's penalty is
    J_lamv(w * block norms) of its output, as the objective defines it:
    the norms the block prox works with internally round differently."""

    def prox(z, step):
        gz = _block_norms(z, offsets)
        gstar = group_prox(gz, lamv, step * w)
        scale = np.divide(gstar, gz, out=np.zeros_like(gz), where=gz > 0.0)
        b = z * np.repeat(scale, ranks)
        return b, sorted_l1_norm(w * _block_norms(b, offsets), lamv)

    return prox, lambda g: _block_norms(g, offsets) / w


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
    by the feature solver's FISTA loop with the exact block prox and block
    norms in place of coordinate magnitudes, then maps c back to feature
    coefficients through minimum-norm solves against each group's QR
    factor.  With unequal weights and a design, the weights are folded into it:
    the loop fits d = w * c on the blocks X~_g / w_g with unit weights, so
    its prox is one sorted-L1 prox of the block norms, and c = d / w.  The
    certificate is unchanged, since ||d_g|| = w_g ||c_g|| and
    ||(X~_g / w_g)^T r|| = ||X~_g^T r|| / w_g.  The loop runs on a working
    set of blocks of X~ (solver._working_set): the groups violating dual
    feasibility at c = 0, grown until the fit is certified on all of X~, or
    every block once the set passes 1/16 of the groups.  max_iter is shared
    by its rounds.

    Parameters
    ----------
    design : DesignMatrix, array_like or None
        None is the identity design, n = m = len(y), fitted without a
        matrix or a QR: every block is orthonormal, so the fit is
        solve_slope's of the block norms v of y, each block of y rescaled
        to its fitted norm g.  The problem in g >= 0,
        0.5*||v - g||^2 + sigma*J_lam(w * g), is one prox for equal
        weights (iterations=1, matvecs=0), and for unequal ones sorted-L1
        least squares of v on the O(t) diagonal diag(1/w) in u = w * g,
        fitted at tol and max_iter.  The counters, gap and objective are
        solve_slope's.  Groups need not be contiguous.
    standardized : StandardizedProblem, optional
        Reuse a precomputed standardization of (design, partition);
        repeated fits on the same design skip the QR work.  Not used when
        design is None.  A fold of the weights works on a copy of its
        x_tilde and leaves it unchanged; a standardization built here is
        folded in place.

    Returns
    -------
    GroupFitResult
        group_norms holds the standardized block norms; its zeros are
        exact and selected_groups is read off literally.
    """
    lamv = _weights(lam, len(partition))
    wts = partition.weights
    if design is None:
        y = np.asarray(y, dtype=float)
        m = partition.num_features
        if y.shape != (m,):
            raise ValueError(f"response has shape {y.shape}, expected ({m},)")
        order = partition.order
        target = y[order]
        ranks = np.asarray(partition.sizes)
        offsets = np.cumsum(ranks) - ranks
        v = _block_norms(target, offsets)
        if np.all(wts == wts[0]):
            # checked before the weight scales it, so a refusal names sigma's value
            fit = solve_slope(None, v, lamv, check_scale("sigma", sigma) * wts[0], tol, max_iter)
            gstar = fit.beta
        else:
            # u = w * g fits v on diag(1/w); v >= 0 makes the exact u
            # non-negative, and the clip drops a sign an iterate may carry
            diagonal = _DiagonalPlusConstant(v.size, 1.0 / wts, 0.0)
            fit = solve_slope(diagonal, v, lamv, sigma, tol, max_iter)
            gstar = np.maximum(fit.beta, 0.0) / wts
        scale = np.divide(gstar, v, out=np.zeros_like(v), where=v > 0.0)
        c = target * np.repeat(scale, ranks)
        stats = fit[2:]
    else:
        sp = standardized if standardized is not None else standardize(design, partition)
        X, ranks, offsets = sp.x_tilde, np.asarray(sp.ranks), sp.offsets
        folded = not np.all(wts == wts[0])
        w = 1.0 if folded else wts[0]
        if folded:
            col_w = np.repeat(wts, ranks)
            if standardized is None:
                X /= col_w
            else:
                X = X / col_w

        def problem(units):
            if units is None:
                return (None, *_block_problem(offsets, ranks, w, lamv))
            # the blocks of units, packed side by side in order
            rk = ranks[units]
            packed = np.cumsum(rk) - rk
            cols = np.repeat(offsets[units] - packed, rk) + np.arange(packed[-1] + rk[-1])
            return (cols, *_block_problem(packed, rk, w, lamv[: units.size]))

        c, stats = _working_set(X, y, lamv, sigma, tol, max_iter, problem)
        if folded:
            c = c / col_w
    norms = _block_norms(c, offsets)
    beta = np.zeros(partition.num_features)
    if design is None:
        beta[order] = c
    else:
        for gi, g in enumerate(partition.groups):
            if norms[gi] != 0.0:
                coef, *_ = np.linalg.lstsq(sp.r_factors[gi], c[sp.block(gi)], rcond=None)
                beta[list(g)] = coef
    selected = {int(i) for i in np.flatnonzero(norms)}
    return GroupFitResult(beta, norms, selected, *stats)


def group_support_metrics(fit, truth, k, gamma):
    """Selection counts at group level; see support_metrics for fields."""
    selected = fit.selected_groups if isinstance(fit, GroupFitResult) else fit
    return support_metrics(selected, truth, k, gamma)
