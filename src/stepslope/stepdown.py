"""Stepdown multiple-testing baselines.

Threshold sequences for k-familywise and false-discovery-proportion
control, the stepdown rejection rule itself, and two-sided normal
p-values.  The thresholds serve as reference procedures in simulations and
are the one source of the stepdown levels: the schedule generators map
them through normal or chi quantiles.
"""

import inspect
import math

import numpy as np

from .errors import check_count, check_level, check_scale


def kfwer_thresholds(m, k, alpha):
    """Stepdown levels alpha_i = k*alpha/m (i <= k), k*alpha/(m+k-i) after.

    Non-decreasing in i by construction.
    """
    m, k, alpha = check_count("m", m), check_count("k", k), check_level("alpha", alpha)
    if k > m:
        raise ValueError(f"k must not exceed m, got k={k}, m={m}")
    i = np.arange(1, m + 1)
    return k * alpha / np.where(i <= k, m, m + k - i)


def fdp_thresholds(m, alpha, gamma):
    """Stepdown levels alpha_i = (f_i+1)*alpha/(m+f_i+1-i), f_i the floor of gamma*i.

    The floor is the exact floor of the float product gamma*i.
    """
    m = check_count("m", m)
    alpha, gamma = check_level("alpha", alpha), check_level("gamma", gamma)
    i = np.arange(1, m + 1)
    f = np.floor(gamma * i)
    return (f + 1) * alpha / (m + f + 1 - i)


# stepdown rule -> (its levels, the parameters read off their signature), for the
# simulations and the command line; levels reach the generators as module globals
_STEPDOWN_RULES = {
    rule: (levels, tuple(inspect.signature(levels).parameters))
    for rule, levels in (("kfwer", lambda m, k, alpha: kfwer_thresholds(m, k, alpha)),
                         ("fdp", lambda m, alpha, gamma: fdp_thresholds(m, alpha, gamma)))
}


def stepdown_reject(pvalues, thresholds):
    """Apply the stepdown rule: reject the r smallest p-values, where r is
    the largest count whose every prefix clears its threshold.

    Ties in the p-values are ordered by original index (stable sort), which
    only affects which equal values are labeled rejected, never how many.

    Returns
    -------
    set of int
        Original indices of the rejected hypotheses.
    """
    p = np.asarray(pvalues, dtype=float)
    thr = np.asarray(thresholds, dtype=float)
    if p.ndim != 1 or p.size < 1:
        raise ValueError("pvalues must be a non-empty 1-d array")
    if thr.shape != p.shape:
        raise ValueError(
            f"thresholds have length {thr.size}, expected {p.size}"
        )
    if not np.all(np.isfinite(p)) or np.any(p < 0.0) or np.any(p > 1.0):
        raise ValueError("pvalues must lie in [0, 1]")
    order = np.argsort(p, kind="stable")
    ok = p[order] <= thr
    r = int(ok.size if ok.all() else np.argmin(ok))
    return {int(i) for i in order[:r]}


def two_sided_pvalues(z, scale=1.0):
    """p_i = 2*(1 - Phi(|z_i| / scale)), computed as erfc(|z_i|/(scale*sqrt(2)))."""
    scale = check_scale("scale", scale)
    z = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(z)):
        raise ValueError("statistics contain non-finite values")
    flat = np.abs(z).ravel() / (scale * math.sqrt(2.0))
    return np.fromiter(map(math.erfc, flat.tolist()), float, flat.size).reshape(z.shape)
