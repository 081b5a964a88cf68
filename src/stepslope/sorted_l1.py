"""Sorted-L1 norm, its exact proximal operator, and dual feasibility.

The sorted-L1 norm pairs the magnitudes of a vector, ordered decreasingly,
with a non-increasing weight vector: J_w(b) = sum_i w_i |b|_(i).  Its prox
reduces to a projection computable in one pass of pool-adjacent-violators
over the weight-shifted sorted magnitudes.
"""

import numpy as np


def _weights(lam, m):
    w = np.asarray(getattr(lam, "values", lam), dtype=float)
    if w.ndim != 1 or w.size != m:
        raise ValueError(f"schedule has length {w.size}, expected {m}")
    return w


def sorted_l1_norm(beta, lam):
    """J_w(beta) = sum of w_i times the i-th largest |beta| entry."""
    b = np.asarray(beta, dtype=float)
    w = _weights(lam, b.size)
    mags = np.sort(np.abs(b))[::-1]
    return float(mags @ w)


def _pav_extend(values, means, counts):
    """Push values onto a stack of non-increasing isotonic blocks (PAV).

    means and counts hold the blocks fitted so far and are extended in
    place; plain Python lists beat ndarray indexing at these sizes.
    """
    for x in values:
        cm = x
        cc = 1
        while means and means[-1] <= cm:
            pm = means.pop()
            pc = counts.pop()
            cm = (pm * pc + cm * cc) / (pc + cc)
            cc += pc
        means.append(cm)
        counts.append(cc)


def _check_order(w):
    """Refuse non-empty weights that are not finite, non-negative and
    non-increasing.  A NaN fails the comparison it enters, and weights that
    fall from a finite w[0] to w[-1] >= 0 are finite: no isfinite pass."""
    if not (np.all(np.diff(w) <= 0.0) and w[-1] >= 0.0 and w[0] < np.inf):
        raise ValueError("sorted-L1 weights must be non-negative, non-increasing and finite")


def _prox_kernel(v, w):
    """The sorted-L1 prox of a non-empty float array v against checked
    weights w (see prox_sorted_l1), and its clipped isotonic fit.

    Returns (b, fit): b is the prox point and fit the decreasingly sorted
    |b|, bitwise np.sort(np.abs(b))[::-1].  A block holding a zero of v
    only ever pools values <= 0, so its fit clips to exactly 0.  fit is,
    like that expression, a reversed view of an ascending contiguous
    array, so fit @ w takes numpy's plain loop and rounds as
    sorted_l1_norm does; a contiguous operand could take BLAS ddot.
    """
    mags = np.abs(v)
    # stable sort so tied magnitudes keep their original relative order
    order = (-mags).argsort(kind="stable")
    z = mags[order]
    z -= w

    cum = z.cumsum()
    top = int(cum.argmax())
    p = top + 1 if cum[top] > 0.0 else 0
    means, counts = [], []
    _pav_extend(z[:p].tolist(), means, counts)
    tail = z[p:]
    if tail.size:
        running = tail.cumsum()
        running /= np.arange(1, tail.size + 1)
        margin = 1e-12 * z.size * float(np.abs(z).max())
        ceiling = min(means[-1], 0.0) if means else 0.0
        if running.max() + margin < ceiling:
            # the whole suffix as one block that the clip leaves at 0
            means.append(0.0)
            counts.append(tail.size)
        else:
            _pav_extend(tail.tolist(), means, counts)
    means.reverse()
    counts.reverse()
    fit = np.array(means).repeat(counts)
    np.maximum(fit, 0.0, out=fit)
    fit = fit[::-1]

    out = np.empty_like(v)
    out[order] = fit
    out *= np.sign(v)
    return out, fit


def prox_sorted_l1(v, lam):
    """Proximal operator of the sorted-L1 norm.

    Computes argmin_b 0.5*||b - v||^2 + J_w(b).  The weights must be
    finite, non-negative and non-increasing.  Zeros in the result are
    exact: the clip at the end produces literal 0.0 entries, so supports
    can be read off without thresholds.

    The prox is clip(isotonic fit of z, 0) with z = |v|_(i) - w_i, the
    non-increasing fit being the slopes of the least concave majorant of
    the prefix sums S of z.  The first maximum of S (at index p, or p = 0
    when no prefix sum is positive) is a vertex of that majorant: every
    slope left of it is positive and every slope right of it is <= 0, so
    no PAV block crosses p and every fitted value past p clips to 0.  The
    stack loop therefore runs over z[:p] only, which on a sparse prox
    point is a few entries.  The suffix is skipped only when its largest
    running mean, read from its own prefix sums, lies below both 0 and the
    last fitted block mean by a margin (1e-12 * m * max|z|) far above the
    rounding of those sums and of the loop's block means; then the full
    loop would have merged nothing across p and clipped the whole suffix,
    so the result is bitwise the same.  Otherwise the same loop continues
    over the suffix.

    This function checks its arguments and runs _prox_kernel, which the
    solver calls directly once a fit has checked its weights.

    Parameters
    ----------
    v : array_like
        Input vector.
    lam : array_like or LambdaSchedule
        Finite, non-increasing, non-negative weights, same length as v.

    Returns
    -------
    ndarray
        The prox point, same shape as v.
    """
    v = np.asarray(v, dtype=float)
    w = _weights(lam, v.size)
    if v.size == 0:
        return v.copy()
    _check_order(w)
    return _prox_kernel(v, w)[0]


def _infeasibility(cum_mags, cum_w):
    """max(0, max_k [cum_mags[k] - cum_w[k]]) for cum_mags the prefix sums
    of decreasingly sorted magnitudes and cum_w those of the weights."""
    return float(max(0.0, (cum_mags - cum_w).max()))


def dual_infeasibility(gradient, lam):
    """How far a gradient sits outside the sorted-L1 dual unit ball.

    Returns max(0, max_k [ sum of k largest |gradient| - sum of first k
    weights ]).  Zero exactly when every prefix of the decreasingly sorted
    absolute gradient is dominated by the matching weight prefix.
    """
    g = np.asarray(gradient, dtype=float)
    w = _weights(lam, g.size)
    if g.size == 0:
        return 0.0
    return _infeasibility(np.sort(np.abs(g))[::-1].cumsum(), np.cumsum(w))
