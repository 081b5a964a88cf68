"""Scalar statistical primitives for schedule generation.

Normal and chi quantiles plus inversion of equal-weight mixtures of scaled
chi CDFs.  All quantiles are deterministic scalar routines accurate to far
below the tolerances the regularization schedules need (1e-12 normal,
1e-10 chi and mixtures).  Only the chi routines need scipy.special, which
is imported on their first call (_special), so feature schedules never
load it.
"""

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cache

from .errors import check_count, check_level, check_scale

_SQRT2 = math.sqrt(2.0)
_CLAMP = 1e-15


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
            break
    return x if p > 0.5 else -x


@cache
def _special():
    # the import costs more time and memory than the rest of the package
    # (it pulls in numpy.f2py and numpy.testing); cached, since one group
    # schedule makes thousands of chi calls
    import scipy.special

    return scipy.special


def chi_cdf(x, dof):
    """CDF of the chi distribution (square root of a chi-square variable)."""
    dof = check_count("dof", dof)
    if x <= 0.0:
        return 0.0
    return float(_special().gammainc(0.5 * dof, 0.5 * x * x))


def chi_quantile(p, dof):
    """Inverse chi CDF: the x with F_chi_dof(x) = p.

    Uses F_chi_l(x) = F_chisq_l(x^2), inverting the regularized incomplete
    gamma function.  Absolute error well below 1e-10.
    """
    dof = check_count("dof", dof)
    p = _checked_prob(p)
    return math.sqrt(2.0 * float(_special().gammaincinv(0.5 * dof, p)))


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
