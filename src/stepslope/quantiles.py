"""Scalar statistical primitives for schedule generation.

Normal and chi quantiles plus inversion of equal-weight mixtures of scaled
chi CDFs, in stdlib math alone.  At integer degrees of freedom the chi
upper tail is a finite sum of positive terms (erfc plus Poisson-like
terms) and the CDF below the mean a series of positive terms, so neither
cancels: chi_quantile, Newton on the log of the smaller tail, lands within
a few ulps of the quantile.  All routines are deterministic scalar code
accurate to far below the tolerances the regularization schedules need
(1e-12 normal, 1e-10 mixtures).
"""

import math
from collections import Counter
from dataclasses import dataclass, field

from .errors import NumericalError, check_count, check_level, check_scale

_SQRT2 = math.sqrt(2.0)
_EPS = 2.0 ** -53
_CLAMP = 1e-15
# Newton from Wilson-Hilferty takes a handful; the cap only bounds the loop
_NEWTON_STEPS = 50


def _checked_prob(p):
    # exact 0/1 is a domain error, never a silent clamp
    return min(max(check_level("p", p), _CLAMP), 1.0 - _CLAMP)


def normal_cdf(x):
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-x / _SQRT2)


def _normal_tail_initial(q):
    # rational approximation for the upper-tail quantile (A&S 26.2.23),
    # absolute error < 4.5e-4; Newton polish below removes the rest
    t = math.sqrt(-2.0 * math.log(q))
    num = 2.515517 + t * (0.802853 + t * 0.010328)
    den = 1.0 + t * (1.432788 + t * (0.189269 + t * 0.001308))
    return t - num / den


def normal_quantile(p):
    """Inverse standard normal CDF.

    Parameters
    ----------
    p : float
        Probability strictly inside (0, 1).

    Returns
    -------
    float
        x with Phi(x) = p, absolute error below 1e-12.

    Raises
    ------
    NumericalError
        If six Newton steps leave the tail residual at 1e-16 or more.
    """
    p = _checked_prob(p)
    if p == 0.5:
        return 0.0
    q = min(p, 1.0 - p)
    x = _normal_tail_initial(q)
    for _ in range(6):
        # upper-tail residual; Newton step against the density
        err = 0.5 * math.erfc(x / _SQRT2) - q
        x += err / (math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi))
        if abs(err) < 1e-16:
            return x if p > 0.5 else -x
    raise NumericalError(f"normal quantile at p={p!r} did not converge")


def _chi_upper(x, dof):
    """(Q, T): the chi upper tail P(chi_dof > x) = Q(a, u) at a = dof/2,
    u = x^2/2, and the next term T = u^a e^-u / Gamma(a+1).

    At integer dof the tail is a finite sum of positive terms,
    Q(a+1, u) = Q(a, u) + u^a e^-u / Gamma(a+1), from Q(1/2, u) =
    erfc(x/sqrt 2) or Q(0, u) = 0.  Each term is exponentiated whole, so
    it cannot cancel and e^-u cannot underflow on its own.  Needs
    0 < x^2/2 < inf.
    """
    u = 0.5 * x * x
    lu = math.log(u)
    odd = dof % 2
    tail = math.erfc(x / _SQRT2) if odd else 0.0
    a = 0.5 * odd
    while a < 0.5 * dof:
        tail += math.exp(a * lu - u - math.lgamma(a + 1.0))
        a += 1.0
    return tail, math.exp(a * lu - u - math.lgamma(a + 1.0))


def _chi_lower_log(x, dof):
    """(log P, S): the log of the chi CDF P(a, u) = T * S, and the series
    S = sum_k u^k / ((a+1)...(a+k)) of positive terms, for x^2 below the
    mean dof, where each term is below the one before."""
    a = 0.5 * dof
    u = 0.5 * x * x
    s = term = 1.0
    k = a
    while term > _EPS * s:
        k += 1.0
        term *= u / k
        s += term
    return a * math.log(u) - u - math.lgamma(a + 1.0) + math.log(s), s


def chi_cdf(x, dof):
    """CDF of the chi distribution (square root of a chi-square variable).

    Below the mean (x^2 < dof), the series of _chi_lower_log, to a few
    ulps of the CDF; above it, 1 - Q with Q the finite sum of _chi_upper,
    to a few ulps of 1.
    """
    dof = check_count("dof", dof)
    if x <= 0.0:
        return 0.0
    u = 0.5 * x * x
    if u == 0.0:  # x < 1.5e-162, where P(a, u) <= u^a / Gamma(a+1) rounds away
        return 0.0
    if u == math.inf:
        return 1.0
    if u < 0.5 * dof:
        return math.exp(_chi_lower_log(x, dof)[0])
    return 1.0 - _chi_upper(x, dof)[0]


def chi_quantile(p, dof):
    """Inverse chi CDF: the x with F_chi_dof(x) = p.

    Newton on log x against the log of the smaller tail: the upper tail
    Q = 1 - p for p >= 1/2, where that subtraction is exact, else the CDF
    p itself.  Both logs are concave in log x, so after the first step
    every iterate lies on one side of the root and moves toward it.  It
    starts from Wilson-Hilferty, raised below the median to the bound
    P(a, u) <= u^a / Gamma(a+1); a handful of steps reach the root to a
    few ulps.  A schedule passes p = 1 - tail, so the tail inverted is the
    float 1 - p, not the tail it started from.
    """
    dof = check_count("dof", dof)
    p = _checked_prob(p)
    upper = p >= 0.5
    tail = 1.0 - p if upper else p
    log_tail = math.log(tail)
    # Wilson-Hilferty: chi^2_dof / dof ~ (1 - c + z sqrt(c))^3, c = 2/(9 dof)
    z = _normal_tail_initial(tail)
    c = 2.0 / (9.0 * dof)
    base = 1.0 - c + (z if upper else -z) * math.sqrt(c)
    x = math.sqrt(dof * base ** 3) if base > 0.0 else 0.0
    if not upper:
        a = 0.5 * dof
        x = max(x, math.sqrt(2.0 * math.exp((log_tail + math.lgamma(a + 1.0)) / a)))
    for _ in range(_NEWTON_STEPS):
        if upper:
            q, t = _chi_upper(x, dof)
            # d log Q / d log x = -dof T / Q
            step = (math.log(q) - log_tail) * q / (dof * t)
        else:
            log_p, s = _chi_lower_log(x, dof)
            # d log P / d log x = dof / S
            step = (log_tail - log_p) * s / dof
        x += x * math.expm1(step)
        if abs(step) <= 1e-12:
            return x
    raise NumericalError(f"chi quantile at p={p!r}, dof={dof} did not converge")


@dataclass(frozen=True)
class ChiMixture:
    """Equal-weight mixture of scaled chi distributions.

    components : tuple of (scale, dof)
        Each component is scale * chi_dof with implicit weight 1/len.
        Identical components are collapsed internally (weights add up), so
        large homogeneous mixtures cost one CDF evaluation per distinct
        (scale, dof) pair.
    """

    components: tuple
    _distinct: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comps = tuple((check_scale("component scale", s), check_count("component dof", l))
                      for s, l in self.components)
        if not comps:
            raise ValueError("mixture needs at least one component")
        object.__setattr__(self, "components", comps)
        counts = Counter(comps)
        total = len(comps)
        object.__setattr__(
            self,
            "_distinct",
            tuple((s, l, c / total) for (s, l), c in sorted(counts.items())),
        )

    def cdf(self, x):
        if x <= 0.0:
            return 0.0
        return sum(w * chi_cdf(x / s, l) for s, l, w in self._distinct)


def mixture_quantile(mix, p):
    """Invert a ChiMixture CDF by monotone bracketing and bisection.

    The bracket starts at the largest per-component p-quantile, which is
    always an upper bound for the mixture quantile, and is grown if float
    rounding says otherwise.  Bisection runs to an interval of 1e-11, or
    until no float lies inside the bracket (a quantile past ~4e4, or an
    inf bracket, which a schedule refuses), so it always returns.
    """
    p = _checked_prob(p)
    hi = max(s * chi_quantile(p, l) for s, l, _ in mix._distinct)
    hi = max(hi, 1e-30)
    while mix.cdf(hi) < p:
        hi *= 2.0
    lo = 0.0
    while hi - lo > 1e-11:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mix.cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
