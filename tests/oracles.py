"""Independent reference implementations used to pin expected test values.

Everything here is deliberately slow and simple: bisection against erfc or
mpmath CDFs, exhaustive enumeration, dense grids.  The package under test
must agree with these oracles, never the other way around.  Nothing in this
file imports from ``stepslope``.
"""

import itertools
import math

import mpmath
import numpy as np
import scipy.linalg
import scipy.special
from scipy.optimize import isotonic_regression


def normal_cdf(x):
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def normal_quantile_bisect(p, tol=1e-13):
    """Invert the standard normal CDF by plain bisection."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0,1)")
    lo, hi = -40.0, 40.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if normal_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chi_cdf_mp(x, dof):
    """CDF of the chi (not chi-square) distribution via mpmath."""
    if x <= 0:
        return 0.0
    half = mpmath.mpf(dof) / 2
    return float(mpmath.gammainc(half, 0, mpmath.mpf(x) ** 2 / 2, regularized=True))


def chi_quantile_bisect(p, dof, tol=1e-12):
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0,1)")
    lo, hi = 0.0, 1.0
    while chi_cdf_mp(hi, dof) < p:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if chi_cdf_mp(mid, dof) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def chi_upper_quantile_mp(q, dof, dps=40):
    """The x with P(chi_dof > x) = q, inverting the upper tail in mpmath.

    chi_quantile_bisect bisects a float CDF near 1, so at p = 1 - 1e-10 its
    answer is off by ~1e-7; this one works on the tail q itself.  Newton at
    dps digits from scipy's double-precision chi-square inverse, until the
    step is below 10^(5 - dps) of x, so the float returned is the root
    rounded once.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie in (0,1)")
    with mpmath.workdps(dps):
        a = mpmath.mpf(dof) / 2
        q = mpmath.mpf(q)
        x = mpmath.sqrt(2 * mpmath.mpf(float(scipy.special.gammainccinv(dof / 2, float(q)))))
        for _ in range(20):
            u = x * x / 2
            tail = mpmath.gammainc(a, u, mpmath.inf, regularized=True)
            # d tail / dx = -x u^(a-1) e^-u / Gamma(a)
            density = x * mpmath.exp((a - 1) * mpmath.log(u) - u - mpmath.loggamma(a))
            step = (tail - q) / density
            x += step
            if abs(step) < mpmath.mpf(10) ** (5 - dps) * x:
                return float(x)
    raise ArithmeticError(f"Newton did not converge at q={q}, dof={dof}")


def mixture_cdf_mp(x, components):
    """Equal-weight mixture of scaled chi CDFs; components = [(scale, dof)]."""
    return sum(chi_cdf_mp(x / s, l) for s, l in components) / len(components)


def mixture_quantile_bisect(components, p, tol=1e-12):
    """Invert the mixture CDF by plain bisection, as chi_quantile_bisect."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0,1)")
    lo, hi = 0.0, 1.0
    while mixture_cdf_mp(hi, components) < p:
        hi *= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mixture_cdf_mp(mid, components) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def prox_enum(v, lam):
    """Exact sorted-L1 prox by exhaustive enumeration of block partitions.

    The minimizer of 0.5||b - v||^2 + sum_i lam_i |b|_(i) is, after sorting
    magnitudes, clip(isotonic_fit(sorted|v| - lam), 0) where the isotonic fit
    is piecewise-constant with block means.  Enumerate every consecutive
    block partition of the sorted sequence, keep the candidates whose block
    means are non-increasing, clip at zero, and take the candidate with the
    smallest exact objective.  Feasible only for small m (2^(m-1) partitions).
    """
    v = np.asarray(v, dtype=float)
    lam = np.asarray(lam, dtype=float)
    m = v.size
    order = np.argsort(-np.abs(v), kind="stable")
    z = np.abs(v)[order] - lam

    def objective_sorted(x):
        return 0.5 * np.sum((x - np.abs(v)[order]) ** 2) + np.sum(lam * x)

    best_x, best_f = None, np.inf
    for cuts in itertools.product([0, 1], repeat=m - 1):
        bounds = [0] + [i + 1 for i, c in enumerate(cuts) if c] + [m]
        x = np.empty(m)
        means = []
        for a, b in zip(bounds[:-1], bounds[1:]):
            mu = z[a:b].mean()
            means.append(mu)
            x[a:b] = mu
        if any(means[i] < means[i + 1] for i in range(len(means) - 1)):
            continue
        x = np.maximum(x, 0.0)
        f = objective_sorted(x)
        if f < best_f:
            best_f, best_x = f, x
    b = np.zeros(m)
    b[order] = best_x
    return np.sign(v) * b


def prox_full_pav(v, w):
    """The sorted-L1 prox with the stack-based PAV loop over every entry.

    The package's prox bounds its loop to a prefix of the sorted shifted
    magnitudes and must agree with this one bit for bit; this copy keeps the
    plain loop over all m entries, clipping the fit at zero afterwards.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    if v.size == 0:
        return v.copy()
    order = np.argsort(-np.abs(v), kind="stable")
    z = np.abs(v)[order] - w
    means = []
    counts = []
    for x in z.tolist():
        cm = x
        cc = 1
        while means and means[-1] <= cm:
            pm = means.pop()
            pc = counts.pop()
            cm = (pm * pc + cm * cc) / (pc + cc)
            cc += pc
        means.append(cm)
        counts.append(cc)
    fit = np.maximum(np.repeat(means, counts), 0.0)
    out = np.empty_like(v)
    out[order] = fit
    return np.sign(v) * out


def sorted_l1_objective(b, v, lam):
    mags = np.sort(np.abs(b))[::-1]
    return 0.5 * np.sum((b - v) ** 2) + np.sum(np.asarray(lam) * mags)


def group_prox_grid(v, w, lam, step, rounds=5, points=41):
    """Dense-grid + zoom minimizer of the weighted group-norm prox problem.

    Minimizes 0.5||g - v||^2 + step * sum_i lam_i (w*g)_(i) over g >= 0 for
    t <= 3 by progressive grid refinement.  Returns the best grid point.
    """
    v = np.asarray(v, dtype=float)
    w = np.asarray(w, dtype=float)
    lam = np.asarray(lam, dtype=float)
    t = v.size

    def objective(g):
        mags = np.sort(w * g)[::-1]
        return 0.5 * np.sum((g - v) ** 2) + step * np.sum(lam * mags)

    los = np.zeros(t)
    his = np.full(t, max(v.max(), 1e-12) * 1.05)
    best = None
    for _ in range(rounds):
        axes = [np.linspace(los[i], his[i], points) for i in range(t)]
        best_f, best_g = np.inf, None
        for g in itertools.product(*axes):
            f = objective(np.array(g))
            if f < best_f:
                best_f, best_g = f, np.array(g)
        spans = [(his[i] - los[i]) / (points - 1) for i in range(t)]
        los = np.maximum(0.0, best_g - 2 * np.array(spans))
        his = best_g + 2 * np.array(spans)
        best = best_g
    return best


def ista_reference(X, y, lam, sigma, max_iter=1_000_000, tol=1e-12):
    """Plain proximal gradient (no momentum) with scipy's isotonic PAV.

    Independent of the package's prox: the sorted-L1 prox is evaluated via
    scipy.optimize.isotonic_regression on the sorted shifted magnitudes.
    """
    X = np.asarray(X, dtype=float)
    lam = np.asarray(lam, dtype=float)
    L = np.linalg.norm(X, 2) ** 2
    step = 1.0 / L
    b = np.zeros(X.shape[1])

    def prox(vv, shrink):
        order = np.argsort(-np.abs(vv), kind="stable")
        z = np.abs(vv)[order] - shrink
        fit = isotonic_regression(z, increasing=False).x
        fit = np.maximum(fit, 0.0)
        out = np.zeros_like(vv)
        out[order] = fit
        return np.sign(vv) * out

    for _ in range(max_iter):
        grad = X.T @ (X @ b - y)
        nxt = prox(b - step * grad, step * sigma * lam)
        if np.max(np.abs(nxt - b)) <= tol:
            b = nxt
            break
        b = nxt
    return b


def _sorted_norm(b, w):
    return float(np.sort(np.abs(b))[::-1] @ w)


def _dual_infeasibility(g, w):
    excess = np.cumsum(np.sort(np.abs(g))[::-1]) - np.cumsum(w)
    return float(max(0.0, excess.max()))


def certificate_reference(y, r, obj, h, w, sigma):
    """(dual infeasibility, relative primal-dual gap) of a fit.

    r = y - X b is the fit's residual, obj its primal objective and h >= 0
    the magnitudes dual(X^T r) whose sorted prefix sums must stay below
    those of sigma * w.  The dual point is r, scaled by the largest s <= 1
    that makes it feasible when h is not.
    """
    cum_w = np.cumsum(sigma * w)
    feas_slack = 1e-12 * max(1.0, float(cum_w[-1]))
    infeas = _dual_infeasibility(h / sigma, w)
    cum_h = np.cumsum(np.sort(h)[::-1])
    if bool(np.all(cum_h <= cum_w + feas_slack)):
        s = 1.0
    else:
        pos = cum_h > 0.0
        s = min(1.0, float(np.min(cum_w[pos] / cum_h[pos])))
    u = s * r
    dual = float(u @ y) - 0.5 * float(u @ u)
    return infeas, max(obj - dual, 0.0) / max(obj, 1e-300)


def fista_direct_reference(X, y, w, sigma, tol, max_iter, L, prox, counters=None):
    """The feature solver's FISTA loop with four matvecs per iteration.

    A copy of the loop that computes every gradient directly as
    X^T (X p - y), and every residual with the full product X @ b, against
    which the carried-gradient loop is checked.  L is the step-size
    estimate and prox(v, shrink) the sorted-L1 prox, both passed in so the
    arithmetic matches the package's.  A step from p is kept when
    0.5*||y - X b_new||^2 <= 0.5*||y - X p||^2 + grad.(b_new - p)
    + (L/2)*||b_new - p||^2 + rise; otherwise L doubles and the step is
    retried from p.  Returns (b, iterations, restarts, final_gap,
    objective, converged), restarts counting the plain steps retried from
    the last accepted point; a dict passed as counters gets the doublings
    of L under "backoffs".
    """
    t = 1.0 / L if L > 0.0 else 1.0

    m = X.shape[1]
    a = np.zeros(m)
    b = np.zeros(m)
    theta = 1.0
    obj = 0.5 * float(y @ y)
    rise = 1e-12 * max(1.0, abs(obj))
    infeas = math.inf
    rel_gap = math.inf
    converged = False
    it = restarts = backoffs = 0

    def step(p):
        nonlocal t, backoffs
        r_p = y - X @ p
        grad = -(X.T @ r_p)
        while True:
            b_new = prox(p - t * grad, (t * sigma) * w)
            r = y - X @ b_new
            d = b_new - p
            bound = 0.5 * float(r_p @ r_p) + float(grad @ d) + (0.5 / t) * float(d @ d)
            if 0.5 * float(r @ r) <= bound + rise:
                return b_new, r, 0.5 * float(r @ r) + sigma * _sorted_norm(b_new, w)
            backoffs += 1
            t *= 0.5

    while it < max_iter:
        it += 1
        b_new, r, obj_new = step(a)
        if obj_new > obj + rise:
            theta = 1.0
            restarts += 1
            b_new, r, obj_new = step(b)

        infeas, rel_gap = certificate_reference(y, r, obj_new, np.abs(X.T @ r), w, sigma)

        theta_new = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / (theta * theta)))
        a = b_new + (theta_new * (1.0 / theta - 1.0)) * (b_new - b)
        b = b_new
        obj = obj_new
        rise = 1e-12 * max(1.0, abs(obj))
        theta = theta_new
        if infeas <= tol and rel_gap <= tol:
            converged = True
            break
    if counters is not None:
        counters["backoffs"] = backoffs
    return b, it, restarts, float(max(infeas, rel_gap)), obj, converged


def group_fista_direct_reference(Xt, y, offsets, ranks, wt, lam, sigma, tol, max_iter, L,
                                 group_prox):
    """The group solver's FISTA loop with four matvecs per iteration.

    Xt is the standardized design with blocks starting at offsets and every
    group weighted by the one weight wt; L is the step-size estimate and
    group_prox(norms, lam, step) the prox of step * J_lam on block norms,
    which wt enters through the step.  Returns the standardized
    coefficients with the rest as in fista_direct_reference.
    """
    def block_norms(vec):
        return np.sqrt(np.add.reduceat(vec * vec, offsets))

    t = 1.0 / L if L > 0.0 else 1.0

    dim = Xt.shape[1]
    a = np.zeros(dim)
    c = np.zeros(dim)
    theta = 1.0
    obj = 0.5 * float(y @ y)
    rise = 1e-12 * max(1.0, abs(obj))
    infeas = math.inf
    rel_gap = math.inf
    converged = False
    it = restarts = 0

    def prox_point(z):
        gz = block_norms(z)
        gstar = group_prox(gz, lam, t * sigma * wt)
        scale = np.divide(gstar, gz, out=np.zeros_like(gz), where=gz > 0.0)
        return z * np.repeat(scale, ranks)

    def step(p):
        # the backtracking step of fista_direct_reference
        nonlocal t
        r_p = y - Xt @ p
        grad = -(Xt.T @ r_p)
        while True:
            c_new = prox_point(p - t * grad)
            r = y - Xt @ c_new
            d = c_new - p
            bound = 0.5 * float(r_p @ r_p) + float(grad @ d) + (0.5 / t) * float(d @ d)
            if 0.5 * float(r @ r) <= bound + rise:
                return c_new, r, (0.5 * float(r @ r)
                                  + sigma * _sorted_norm(wt * block_norms(c_new), lam))
            t *= 0.5

    while it < max_iter:
        it += 1
        c_new, r, obj_new = step(a)
        if obj_new > obj + rise:
            theta = 1.0
            restarts += 1
            c_new, r, obj_new = step(c)

        h = block_norms(Xt.T @ r) / wt
        infeas, rel_gap = certificate_reference(y, r, obj_new, h, lam, sigma)

        theta_new = 2.0 / (1.0 + math.sqrt(1.0 + 4.0 / (theta * theta)))
        a = c_new + (theta_new * (1.0 / theta - 1.0)) * (c_new - c)
        c = c_new
        obj = obj_new
        rise = 1e-12 * max(1.0, abs(obj))
        theta = theta_new
        if infeas <= tol and rel_gap <= tol:
            converged = True
            break
    return c, it, restarts, float(max(infeas, rel_gap)), obj, converged


def standardize_reference(X, groups):
    """Per-group orthonormalization through scipy.linalg.qr's wrapper.

    One economic pivoted QR per group of column indices, the numerical rank
    the count of |R| diagonal entries at least 1e-10 times the largest.
    Returns (x_tilde, r_factors, ranks): the first sum-of-ranks columns of
    a Fortran-ordered n x m buffer holding each group's basis in turn, each
    group's (rank x size) factor with X[:, g] = basis @ factor, and the
    ranks.
    """
    X = np.asarray(X, dtype=float)
    x_tilde = np.empty(X.shape, order="F")
    factors = []
    ranks = []
    col = 0
    for gi, g in enumerate(groups):
        A = X[:, list(g)]
        Q, R, piv = scipy.linalg.qr(A, mode="economic", pivoting=True)
        d = np.abs(np.diag(R))
        if d.size == 0 or d[0] == 0.0:
            raise ValueError(f"group {gi} has an all-zero design block")
        rank = int(np.sum(d >= 1e-10 * d[0]))
        x_tilde[:, col:col + rank] = Q[:, :rank]
        col += rank
        unpivoted = np.zeros((rank, A.shape[1]))
        unpivoted[:, piv] = R[:rank, :]
        factors.append(unpivoted)
        ranks.append(rank)
    return x_tilde[:, :col], tuple(factors), tuple(ranks)


def monte_carlo_reference(base, X, replicates, seed):
    """Monte Carlo corrected values of the base values, every draw taken.

    Entry i (i >= 2) is base[i-1] * sqrt(1 + mean_r (x_a^T X_S (X_S^T
    X_S)^{-1} lam)^2) over `replicates` draws, draw r of entry i coming from
    the stream SeedSequence((seed, i, r)): S the first i-1 of i columns
    chosen without replacement, a the last, lam the values so far.  A
    singular Gram matrix redraws from the same stream, up to 10 times.  The
    first candidate above its predecessor ends the recursion, and the rest
    repeat the predecessor.
    """
    base = np.asarray(base, dtype=float)
    X = np.asarray(X, dtype=float)
    m_cols = X.shape[1]
    out = [float(base[0])]
    for i in range(2, base.size + 1):
        s = i - 1
        lam = np.array(out)
        total = 0.0
        for r in range(replicates):
            rng = np.random.default_rng(np.random.SeedSequence((int(seed), i, r)))
            for _ in range(10):
                pick = rng.choice(m_cols, size=s + 1, replace=False)
                sub = X[:, pick[:s]]
                try:
                    coef = np.linalg.solve(sub.T @ sub, lam)
                except np.linalg.LinAlgError:
                    continue
                if not np.all(np.isfinite(coef)):
                    continue
                total += float(X[:, pick[s]] @ (sub @ coef)) ** 2
                break
            else:
                raise np.linalg.LinAlgError(f"singular Gram matrix at entry {i}")
        cand = float(base[i - 1]) * math.sqrt(1.0 + total / replicates)
        if cand > out[-1]:
            out.extend([out[-1]] * (base.size - i + 1))
            break
        out.append(cand)
    return np.array(out)


def stepdown_bruteforce(p, thresholds):
    """Largest r with p_(j) <= alpha_j for every j <= r, checked prefix by prefix."""
    p = np.asarray(p, dtype=float)
    thresholds = np.asarray(thresholds, dtype=float)
    order = np.argsort(p, kind="stable")
    ps = p[order]
    best_r = 0
    for r in range(1, p.size + 1):
        if all(ps[j] <= thresholds[j] for j in range(r)):
            best_r = r
    return set(order[:best_r].tolist())


def stepdown_stepup_counts(mags, thresholds):
    """(R_SD, R_SU) of magnitudes against thresholds, both in decreasing
    order of the sorted magnitudes a_(1) >= a_(2) >= ...: R_SD is the largest
    r with a_(j) > thresholds[j] for every j <= r, and R_SU the largest r
    with a_(r) > thresholds[r], counted entry by entry."""
    a = sorted((float(x) for x in mags), reverse=True)
    above = [a[j] > float(thresholds[j]) for j in range(len(a))]
    r_sd = 0
    while r_sd < len(a) and above[r_sd]:
        r_sd += 1
    r_su = max((j + 1 for j in range(len(a)) if above[j]), default=0)
    return r_sd, r_su
